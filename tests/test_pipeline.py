import dataclasses

import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import counterfactual as cf
from recflow import flm as flmm
from recflow import pipeline as pl
from recflow import schema as sc
from recflow.config import RunConfig


def test_saved_simulator_reloads_bit_for_bit(mini, tmp_path):
    def path(name):
        return str(tmp_path / name)

    pl.save_simulator(mini.sim, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        pl.SIMULATOR_FILES)
    loaded = pl.load_simulator(mini.hkg, mini.world.train, path,
                               mini.sim_cfg)
    assert loaded.catalog.schemas == mini.sim.catalog.schemas
    assert loaded.flm.cfg == mini.sim.flm.cfg
    for pair in mini.pairs[:4]:
        outs = []
        for sim in (mini.sim, loaded):
            e_u, e_v = sim.prompt(pair.u_entities), sim.prompt(pair.v_entities)
            rng = np.random.default_rng(17)
            out = sim.simulate(e_u, e_v, rng, user_pair=(pair.user_u,
                                                         pair.user_v))
            outs.append((e_u.data.tobytes(), e_v.data.tobytes(),
                         out.schema, out.flow_entities,
                         out.dialogue.to_record()))
        assert outs[0] == outs[1]


# the classifier's names and layout before it ran on ``ffn``: (out, in)
# matrices, then the names they had
OLD_CLF_NAMES = (("w1", "ff1", True), ("b1", "ff1_b", False),
                 ("w2", "ff2", True), ("b2", "ff2_b", False))


def test_classifier_checkpoint_from_before_ffn_loads_the_same(mini,
                                                               tmp_path):
    def path(name):
        return str(tmp_path / name)

    pl.save_simulator(mini.sim, path)
    current = pl.load_simulator(mini.hkg, mini.world.train, path,
                                mini.sim_cfg)
    values = ad.load_checkpoint(path("clf.ckpt"))
    old = {}
    for old_name, name, transposed in OLD_CLF_NAMES:
        value = values[f"{sc.CLF_PREFIX}.{name}"]
        old[f"{sc.CLF_PREFIX}.{old_name}"] = value.T if transposed else value
    ad.save_checkpoint(path("clf.ckpt"), old)
    upgraded = pl.load_simulator(mini.hkg, mini.world.train, path,
                                 mini.sim_cfg)
    assert upgraded.clf_store.names() == current.clf_store.names()
    for name, p in current.clf_store.items():
        assert upgraded.clf_store[name].data.tobytes() == p.data.tobytes()
    for pair in mini.pairs[:4]:
        e_u = current.prompt(pair.u_entities).data
        e_v = current.prompt(pair.v_entities).data
        (p_cur, best_cur), (p_up, best_up) = (
            sc.predict_schema(e_u, e_v, sim.clf_store, sim.catalog)
            for sim in (current, upgraded))
        assert p_up.tobytes() == p_cur.tobytes() and best_up == best_cur


def test_failed_catalog_write_keeps_earlier_catalog(mini, tmp_path):
    def path(name):
        return str(tmp_path / name)

    pl.save_simulator(mini.sim, path)
    before = (tmp_path / "catalog.json").read_bytes()

    class Unwritable:
        def to_json(self):
            return "[\ud800]"

    broken = dataclasses.replace(mini.sim, catalog=Unwritable())
    with pytest.raises(UnicodeEncodeError):
        pl.save_simulator(broken, path)
    assert (tmp_path / "catalog.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        pl.SIMULATOR_FILES)


def test_build_simulator_records_no_tape_for_classifier_prompts(mini,
                                                                monkeypatch):
    real_user_prompt = flmm.user_prompt
    returned = []

    def recording(*args, **kwargs):
        out = real_user_prompt(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(flmm, "user_prompt", recording)
    cfg = dataclasses.replace(mini.sim_cfg, pseudo_ratio=0, flm_epochs=1,
                              clf_steps=1)
    pl.build_simulator(mini.hkg, mini.world.train,
                       mini.rec.copy().entity_embeddings_array(), cfg)
    assert returned
    assert all(isinstance(t, ad.Tensor) for t in returned)
    assert not any(t.requires_grad for t in returned)


def test_simulator_prompt_is_untaped_and_equals_the_taped_prompt(mini):
    for pair in mini.pairs[:4]:
        for ids in (pair.u_entities, pair.v_entities):
            prompt = mini.sim.prompt(ids)
            taped = flmm.user_prompt(mini.sim.flm, ids, mini.sim.entity_emb)
            assert prompt._parents == () and not prompt.requires_grad
            assert prompt.data.tobytes() == taped.data.tobytes()


# The fields of the former simulator and training configs, by the names the
# benchmark's workloads still pass to ``pl.SimulatorConfig`` and
# ``cf.TrainConfig``, with the ``RunConfig`` field each renames to.
FORMER_FIELDS = {
    pl.SimulatorConfig: (
        ("d_model", "n_layers", "n_heads", "ff_mult", "max_len",
         "min_support", "hop_limit", "connectivity_mask", "pseudo_ratio",
         "flm_epochs", "flm_batch", "flm_lr", "clf_steps", "clf_lr", "seed"),
        {"d_model": "flm_d_model", "n_layers": "flm_layers",
         "n_heads": "flm_heads", "ff_mult": "flm_ff_mult"}),
    cf.TrainConfig: (
        ("courses", "rho", "delta", "alpha", "rollouts", "edit_steps",
         "k_edits", "pairs_per_course", "sims_per_pair", "mix_ratio",
         "rec_steps", "rec_lr", "rec_batch", "patience", "temperature",
         "seed"),
        {"rec_steps": "course_rec_steps"}),
}


def test_bench_configs_rename_each_former_field_onto_one_run_field(mini):
    base = RunConfig()
    for build, (names, renames) in FORMER_FIELDS.items():
        assert build() == base
        drawn = {}
        for name in names:
            marker = object()
            cfg = build(**{name: marker})
            hit = [f.name for f in dataclasses.fields(RunConfig)
                   if getattr(cfg, f.name) is marker]
            assert len(hit) == 1, (name, hit)
            assert dataclasses.replace(
                cfg, **{hit[0]: getattr(base, hit[0])}) == base
            drawn[name] = hit[0]
        assert len(set(drawn.values())) == len(drawn)
        assert {k: v for k, v in drawn.items() if k != v} == renames
    # as the benchmark does: re-seed a built config, read the simulator's
    # hop_limit
    sim_cfg = dataclasses.replace(pl.SimulatorConfig(
        d_model=8, n_layers=1, n_heads=2, ff_mult=2, min_support=2,
        pseudo_ratio=1, flm_epochs=1, flm_batch=8, clf_steps=10), seed=3)
    sim = pl.build_simulator(mini.hkg, mini.world.train, mini.sim.entity_emb,
                             sim_cfg)
    assert sim.flm.cfg.hop_limit == base.hop_limit
    assert (sim.flm.cfg.flm_d_model, sim.flm.cfg.seed) == (8, 3)
