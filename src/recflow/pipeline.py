"""Assembly helpers shared by the CLI and the training loops: corpus
artifacts, sample extraction, and the simulator, which this module alone
builds, saves and loads (it owns the simulator's file names). The
simulator reads its sizes and pre-training settings from the run's
``config.RunConfig``."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import corpus as cp
from . import flm as flmm
from . import realization as rz
from . import schema as sc
from .config import RunConfig
from .errors import DataError


def SimulatorConfig(**fields):
    """A ``RunConfig`` built from the field names of the former simulator
    config, which called the ``flm_*`` sizes ``d_model``, ``n_layers``,
    ``n_heads`` and ``ff_mult``. The benchmark's workloads are its only
    caller."""
    renames = {"d_model": "flm_d_model", "n_layers": "flm_layers",
               "n_heads": "flm_heads", "ff_mult": "flm_ff_mult"}
    return RunConfig(**{renames.get(k, k): v for k, v in fields.items()})


@dataclass
class SimulatorBundle:
    """Everything the frozen dialogue simulator needs at generation time."""

    flm: flmm.FlowLM
    catalog: sc.SchemaCatalog
    clf_store: ad.ParamStore
    bank: rz.TemplateBank
    entity_emb: np.ndarray
    hkg: object
    pretrain_history: list = field(default_factory=list)

    def prompt(self, entity_ids):
        """The frozen simulator's preference vector for ``entity_ids``,
        computed without a tape."""
        with ad.no_grad():
            return flmm.user_prompt(self.flm, entity_ids, self.entity_emb)

    def predict_schema(self, e_u, e_v):
        _, best = sc.predict_schema(e_u, e_v, self.clf_store, self.catalog)
        return self.catalog.schemas[best]

    def simulate(self, e_u, e_v, rng, dialogue_id="sim", temperature=1.0,
                 user_pair=None, schema=None):
        """Predict a schema (unless given), generate a flow, realize it."""
        e_u_val = e_u.data if isinstance(e_u, ad.Tensor) else np.asarray(e_u)
        e_v_val = e_v.data if isinstance(e_v, ad.Tensor) else np.asarray(e_v)
        if schema is None:
            schema = self.predict_schema(e_u_val, e_v_val)
        flow = flmm.generate_flows_batch(self.flm, e_u_val, e_v_val, schema,
                                         rng, 1, temperature=temperature)[0]
        return rz.realize(flow, schema, self.bank, self.hkg.base, rng,
                          dialogue_id=dialogue_id, user_pair=user_pair)


def corpus_flows(dialogues, kg, max_len=None):
    """(FlowExample, dialogue) pairs for every dialogue with mentions; flows
    longer than max_len are truncated with their schemas."""
    out = []
    for d in dialogues:
        flow, schema = cp.extract_flow(d, kg)
        if not len(flow):
            continue
        entities = flow.entities
        speakers = flow.speaker
        if max_len is not None:
            entities = entities[:max_len]
            schema = schema[:max_len]
            speakers = speakers[:max_len]
        out.append((flmm.FlowExample.from_roles(
            entities, schema, [role == cp.SEEKER for role in speakers]), d))
    return out


def samples_from_dialogues(dialogues, kg):
    samples = []
    for d in dialogues:
        samples.extend(rz.to_rec_samples(d, kg))
    return samples


@dataclass
class UserPair:
    user_u: str
    user_v: str
    u_entities: list
    v_entities: list


def build_user_pairs(dialogues, hkg):
    """One (seeker, recommender) pair per dialogue where both users have
    interaction lists in the graph."""
    pairs = []
    for d in dialogues:
        u, v = d.user_of(cp.SEEKER), d.user_of(cp.RECOMMENDER)
        if u in hkg.interactions and v in hkg.interactions:
            pairs.append(UserPair(user_u=u, user_v=v,
                                  u_entities=list(hkg.interactions[u]),
                                  v_entities=list(hkg.interactions[v])))
    return pairs


SIMULATOR_FILES = ("flm.ckpt", "clf.ckpt", "sim_emb.ckpt", "catalog.json")


def _classifier_store(cfg, d_e, num_schemas):
    store = ad.ParamStore()
    sc.init_classifier_params(store, d_e=d_e, num_schemas=num_schemas,
                              rng=np.random.default_rng(cfg.seed))
    return store


def build_simulator(hkg, train_dialogues, entity_emb, cfg):
    """Mine schemas, pre-train the flow model on real + pseudo flows, train
    the schema classifier, and collect the template bank.

    ``entity_emb`` is the frozen node table (from the pre-trained
    recommender); the simulator never writes it.
    """
    kg = hkg.base
    rng = np.random.default_rng(cfg.seed)
    real = corpus_flows(train_dialogues, kg, max_len=cfg.max_len)
    if not real:
        raise DataError("no non-empty conversation flows in the corpus")
    catalog = sc.mine_schemas([ex.schema for ex, _ in real],
                              min_support=cfg.min_support,
                              max_len=cfg.max_len)
    if len(catalog) == 0:
        raise DataError(f"no schema reaches min_support={cfg.min_support}")

    model = flmm.FlowLM(hkg, cfg, entity_emb.shape[1])

    pseudo = [flmm.sample_pseudo_flow(hkg, catalog, rng,
                                      hop_limit=cfg.hop_limit)
              for _ in range(cfg.pseudo_ratio * len(real))]
    examples = [ex for ex, _ in real] + pseudo
    history = flmm.pretrain_flm(model, examples, entity_emb,
                                epochs=cfg.flm_epochs,
                                batch_size=cfg.flm_batch, lr=cfg.flm_lr,
                                seed=cfg.seed)

    clf_store = _classifier_store(cfg, entity_emb.shape[1], len(catalog))
    pairs = []
    with ad.no_grad():
        for ex, d in real:
            gold = catalog.index_of(ex.schema)
            if gold is None:
                continue
            e_u = flmm.user_prompt(model, ex.seeker_entities, entity_emb).data
            e_v = flmm.user_prompt(model, ex.recommender_entities,
                                   entity_emb).data
            pairs.append((e_u, e_v, gold))
    if pairs:
        sc.train_schema_classifier(pairs, clf_store, catalog,
                                   steps=cfg.clf_steps, lr=cfg.clf_lr,
                                   seed=cfg.seed)

    bank = rz.build_template_bank(train_dialogues, kg)
    return SimulatorBundle(flm=model, catalog=catalog, clf_store=clf_store,
                           bank=bank, entity_emb=np.array(entity_emb),
                           hkg=hkg, pretrain_history=history)


def save_simulator(sim, path):
    """Write the simulator's files; ``path(name)`` gives each file's path."""
    ad.save_checkpoint(path("flm.ckpt"), sim.flm.store)
    ad.save_checkpoint(path("clf.ckpt"), sim.clf_store)
    ad.save_checkpoint(path("sim_emb.ckpt"), {"entity_emb": sim.entity_emb})
    with ad.atomic_write(path("catalog.json"), "w", encoding="utf-8") as fh:
        fh.write(sim.catalog.to_json() + "\n")


def read_checkpoint(path, store=None):
    """The arrays of checkpoint ``path``, loaded into ``store`` when one is
    given. A file that does not parse, or does not fit ``store`` (another
    ``d_e`` or ``rgcn_layers``, or a ``catalog.json`` re-mined since the
    save), is a DataError."""
    try:
        values = ad.load_checkpoint(path)
    except ValueError as err:
        raise DataError(f"cannot load checkpoint {path}: {err}") from err
    if store is not None:
        _fill(store, values, path)
    return values


def _fill(store, values, path):
    """Load ``values``, read from checkpoint ``path``, into ``store``; a
    missing, extra or misshaped value is a DataError."""
    try:
        missing = sorted(set(store.names()) - set(values))
        if missing:
            raise ValueError(f"no values for {', '.join(missing)}")
        store.load_values(values)
    except (ValueError, KeyError) as err:
        raise DataError(f"cannot load checkpoint {path}: {err}") from err


def load_simulator(hkg, train_dialogues, path, cfg):
    """Rebuild a simulator from the files ``save_simulator`` wrote; the
    template bank is collected again from ``train_dialogues``. A file that
    does not parse or lacks what the simulator needs is a DataError."""
    try:
        with open(path("catalog.json"), encoding="utf-8") as fh:
            catalog = sc.SchemaCatalog.from_json(
                fh.read(), min_support=cfg.min_support, max_len=cfg.max_len)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path('catalog.json')}: {err}") from err
    entity_emb = read_checkpoint(path("sim_emb.ckpt")).get("entity_emb")
    if entity_emb is None or entity_emb.ndim != 2:
        raise DataError(f"{path('sim_emb.ckpt')} holds no entity_emb table")
    entity_emb = np.asarray(entity_emb, dtype=np.float64)
    model = flmm.FlowLM(hkg, cfg, entity_emb.shape[1])
    read_checkpoint(path("flm.ckpt"), model.store)
    clf_store = _classifier_store(cfg, entity_emb.shape[1], len(catalog))
    _fill(clf_store, sc.classifier_values(read_checkpoint(path("clf.ckpt"))),
          path("clf.ckpt"))
    bank = rz.build_template_bank(train_dialogues, hkg.base)
    return SimulatorBundle(flm=model, catalog=catalog, clf_store=clf_store,
                           bank=bank, entity_emb=entity_emb, hkg=hkg)
