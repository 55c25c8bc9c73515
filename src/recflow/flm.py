"""Prompt-conditioned flow language model.

Encoder-decoder transformer over entity tokens. The encoder consumes the
user prompt (two projected preference vectors) followed by the schema prompt
(type-token embeddings); the decoder emits the entity sequence
autoregressively. Decoding is hard-masked: position j may only produce
entities of type t_j, and by default only the previous entity itself or an
entity of its ``HeterogeneousKG.reach`` set (the one source of reach sets;
pseudo flows are drawn from it without that repeat). An empty set widens to
the type class, as does a teacher-forced target outside the set when
scoring (real corpora are not always graph-consistent).

Public surface: ``FlowLM``; ``flow_log_probs_batch``, which validates flows
and scores them under one prompt pair; ``generate_flows_batch``;
``user_prompt(s)``, which pool interaction lists into prompts;
``pretrain_flm``; and ``sample_pseudo_flow``. Scoring and pre-training share
one masked scorer over arrays, ``_scored_steps``; the generator and it read
step masks from one builder, ``_mask_block``, which expands the id arrays
that ``FlowLM.step_mask`` caches into an additive (rows, steps, vocab) block.
Pre-training packs each length bucket once (``_FlowBucket``: flows, type ids,
both sides' prompt id lists, and each step's allowed ids), so a batch is a
few numpy gathers; it pools the batch's seeker prompts as one padded block,
and its recommender prompts as another (``embeddings.pool_entities``), and
takes its steps in ``recommender.train_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import embeddings as emb
from . import recommender as rc
from .errors import DataError
from .kg import sample_path

# consecutive schemas that may fail to yield a path before
# ``sample_pseudo_flow`` gives the catalog up as unreachable
MAX_SCHEMA_TRIES = 200


@dataclass
class FlowExample:
    entities: list
    schema: tuple
    seeker_entities: list
    recommender_entities: list

    @classmethod
    def from_roles(cls, entities, schema, to_seeker):
        """The example whose seeker list holds the entities at the positions
        where ``to_seeker`` is true and whose recommender list holds the
        rest, each without repeats, in flow order."""
        seeker, rec = [], []
        for eid, is_seeker in zip(entities, to_seeker):
            bucket = seeker if is_seeker else rec
            if eid not in bucket:
                bucket.append(eid)
        return cls(entities=list(entities), schema=tuple(schema),
                   seeker_entities=seeker, recommender_entities=rec)


class FlowLM:
    """Holds the parameter store and the masking tables for one HKG.

    ``cfg`` is a ``config.RunConfig``, of which the model reads flm_d_model,
    flm_layers, flm_heads, flm_ff_mult, max_len, connectivity_mask,
    hop_limit and seed; ``d_e`` is the width of the entity embeddings.
    """

    def __init__(self, hkg, cfg, d_e):
        if cfg.flm_d_model % cfg.flm_heads:
            raise ValueError("flm_d_model must be divisible by flm_heads")
        self.hkg = hkg
        self.cfg = cfg
        self.d_e = d_e
        kg = hkg.base
        self.num_entities = kg.num_entities
        self.bos = self.num_entities
        self.eos = self.num_entities + 1
        self.pad = self.num_entities + 2
        self.vocab_size = self.num_entities + 3
        self.store = ad.ParamStore()
        self._steps = {}
        self._build_params()

    # -- parameters ---------------------------------------------------------
    def _build_params(self):
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed)
        s = self.store
        d, ff = cfg.flm_d_model, cfg.flm_ff_mult * cfg.flm_d_model
        n_types = len(self.hkg.base.type_names)
        s.add("flm.tok_emb", ad.xavier_uniform((self.vocab_size, d), rng))
        s.add("flm.type_emb", ad.xavier_uniform((max(n_types, 1), d), rng))
        s.add("flm.pos_enc", ad.xavier_uniform((cfg.max_len + 2, d), rng))
        s.add("flm.pos_dec", ad.xavier_uniform((cfg.max_len + 1, d), rng))
        s.add("flm.prompt_w", ad.xavier_uniform((self.d_e, d), rng))
        s.add("flm.prompt_b", np.zeros(d))
        emb.init_attention_params(s, self.d_e, rng=rng, prefix="flm.attn")
        for side, blocks in (("enc", 1), ("dec", 2)):
            for layer in range(cfg.flm_layers):
                base = f"flm.{side}.l{layer}"
                for blk in range(blocks):
                    tag = "self" if blk == 0 else "cross"
                    for w in ("q", "k", "v", "o"):
                        s.add(f"{base}.{tag}.{w}",
                              ad.xavier_uniform((d, d), rng))
                n_ln = blocks + 1
                for i in range(n_ln):
                    s.add(f"{base}.ln{i}.g", np.ones(d))
                    s.add(f"{base}.ln{i}.b", np.zeros(d))
                s.add(f"{base}.ff1", ad.xavier_uniform((d, ff), rng))
                s.add(f"{base}.ff1_b", np.zeros(ff))
                s.add(f"{base}.ff2", ad.xavier_uniform((ff, d), rng))
                s.add(f"{base}.ff2_b", np.zeros(d))
        s.add("flm.final_ln.g", np.ones(d))
        s.add("flm.final_ln.b", np.zeros(d))
        s.add("flm.head_w", np.zeros((d, self.vocab_size)))
        s.add("flm.head_b", np.zeros(self.vocab_size))

    # -- masking ------------------------------------------------------------
    def step_mask(self, type_name, prev_entity=None, target=None):
        """The ids one decoding step may emit: an increasing, read-only
        ``np.intp`` array, built once and shared by every step of this type
        after this entity, which ``_mask_block`` expands into a logit mask;
        the cache holds no vocabulary-sized array. ``target`` (when given)
        is kept in support by widening to the type class if necessary."""
        ids = self._step(type_name, prev_entity)
        if target is not None:  # ids is increasing, so search by bisection
            if ids[ids.searchsorted(target) % len(ids)] != target:
                ids = self._step(type_name, None)
        return ids

    def _step(self, type_name, prev_entity):
        """The allowed ids of a step, built on first use: the type class,
        or, with connectivity masking, the ``HeterogeneousKG.reach`` set of
        the previous entity plus that entity itself when it has the type
        (the whole class when that set is empty)."""
        key = (type_name, prev_entity if self.cfg.connectivity_mask else None)
        ids = self._steps.get(key)
        if ids is not None:
            return ids
        if key[1] is not None:
            ids = self.hkg.reach(prev_entity, type_name, self.cfg.hop_limit)
            if self.hkg.base.type_name_of(prev_entity) == type_name:
                ids = np.sort(np.append(ids, prev_entity))
        if ids is None or not len(ids):
            ids = np.array(self.hkg.base.entities_of_type(type_name), np.intp)
            if not len(ids):
                raise DataError(f"no entities of type {type_name!r}")
        ids.flags.writeable = False
        self._steps[key] = ids
        return ids

    # -- transformer pieces ---------------------------------------------------
    def _attention(self, x, kv, base, tag, mask=None):
        s = self.store
        return ad.attention(x, kv, *(s[f"{base}.{tag}.{w}"] for w in "qkvo"),
                            self.cfg.flm_heads, mask)

    def _ffn(self, x, base):
        s = self.store
        return ad.ffn(x, *(s[f"{base}.{w}"]
                           for w in ("ff1", "ff1_b", "ff2", "ff2_b")))

    def _ln(self, x, name):
        s = self.store
        return ad.layer_norm(x, s[f"{name}.g"], s[f"{name}.b"])

    def encode(self, prompts_u, prompts_v, type_ids):
        """prompts_*: (B, d_e) Tensors; type_ids: (B, n) int array."""
        s, cfg = self.store, self.cfg
        b, n = type_ids.shape
        proj_u = prompts_u @ s["flm.prompt_w"] + s["flm.prompt_b"]
        proj_v = prompts_v @ s["flm.prompt_w"] + s["flm.prompt_b"]
        types = ad.reshape(ad.rows(s["flm.type_emb"], type_ids.reshape(-1)),
                           (b, n, cfg.flm_d_model))
        x = ad.concat([ad.reshape(proj_u, (b, 1, cfg.flm_d_model)),
                       ad.reshape(proj_v, (b, 1, cfg.flm_d_model)), types],
                      axis=1)
        x = x + ad.rows(s["flm.pos_enc"], np.arange(n + 2))
        for layer in range(cfg.flm_layers):
            base = f"flm.enc.l{layer}"
            h = self._ln(x, f"{base}.ln0")
            x = x + self._attention(h, h, base, "self")
            x = x + self._ffn(self._ln(x, f"{base}.ln1"), base)
        return x

    def decode(self, token_ids, enc_out):
        """token_ids: (B, n) decoder input ids; returns (B, n, vocab) logits
        before masking."""
        s, cfg = self.store, self.cfg
        b, n = token_ids.shape
        x = ad.reshape(ad.rows(s["flm.tok_emb"], token_ids.reshape(-1)),
                       (b, n, cfg.flm_d_model))
        x = x + ad.rows(s["flm.pos_dec"], np.arange(n))
        causal = np.triu(np.full((n, n), ad.MASK_NEG), k=1)
        for layer in range(cfg.flm_layers):
            base = f"flm.dec.l{layer}"
            h = self._ln(x, f"{base}.ln0")
            x = x + self._attention(h, h, base, "self", mask=causal)
            x = x + self._attention(self._ln(x, f"{base}.ln1"), enc_out,
                                    base, "cross")
            x = x + self._ffn(self._ln(x, f"{base}.ln2"), base)
        x = self._ln(x, "flm.final_ln")
        return x @ s["flm.head_w"] + s["flm.head_b"]

    def check_flow(self, flow, schema):
        if len(flow) != len(schema):
            raise ValueError(f"flow length {len(flow)} != schema length "
                             f"{len(schema)}")
        kg = self.hkg.base
        for j, (eid, tname) in enumerate(zip(flow, schema)):
            if not (0 <= eid < self.num_entities):
                raise DataError(f"entity {eid!r} outside the token table")
            if kg.type_name_of(eid) != tname:
                raise DataError(f"flow position {j}: expected type {tname!r}, "
                                f"got {kg.type_name_of(eid)!r}")

    def type_ids(self, schema):
        kg = self.hkg.base
        return np.array([kg.type_id(t) for t in schema], dtype=np.intp)


def _flow_log_probs(flm, e_u, e_v, schema, flows):
    """Per-step log-probabilities, shape (len(flows), n), of same-length
    flows of one schema under the masked decoder and the d_e-vector prompts
    ``e_u`` and ``e_v``. The caller has validated the flows against the
    schema (``FlowLM.check_flow``).

    The prompts are encoded once and broadcast in cross-attention, so their
    gradients accumulate across the flows. Differentiable w.r.t. the model
    parameters and the prompt tensors, which is the gradient path
    preference edits rely on.
    """
    masks = _mask_block(flm, [_step_ids(flm, schema, f) for f in flows])
    return _scored_steps(flm, e_u, e_v, flm.type_ids(schema)[None],
                         np.asarray(flows, dtype=np.intp), masks)


def _step_ids(flm, schema, flow):
    """The cached allowed ids that each position of a teacher-forced flow
    reads."""
    return [flm.step_mask(type_name, prev_entity=flow[j - 1] if j else None,
                          target=flow[j])
            for j, type_name in enumerate(schema)]


def _mask_block(flm, rows):
    """The additive (len(rows), steps, vocab) logit mask of ``rows``, lists
    of one allowed-id array per step: 0 on the ids, MASK_NEG elsewhere."""
    steps = [ids for row in rows for ids in row]
    block = np.full((len(steps), flm.vocab_size), ad.MASK_NEG)
    block[np.arange(len(steps)).repeat([len(ids) for ids in steps]),
          np.concatenate(steps)] = 0.0
    return block.reshape(len(rows), -1, flm.vocab_size)


def _scored_steps(flm, prompts_u, prompts_v, type_ids, flows, masks):
    """The masked scorer over arrays: ``type_ids`` (rows, n) and ``rows``
    d_e-vectors in each of the prompts, either one per flow or one shared
    by all flows, ``flows`` (t, n) and the additive step ``masks`` (t, n,
    vocab)."""
    rows = len(type_ids)
    enc = flm.encode(ad.reshape(ad.as_tensor(prompts_u), (rows, -1)),
                     ad.reshape(ad.as_tensor(prompts_v), (rows, -1)),
                     type_ids)
    dec_in = np.empty_like(flows)
    dec_in[:, 0] = flm.bos
    dec_in[:, 1:] = flows[:, :-1]
    return ad.log_softmax_pick(flm.decode(dec_in, enc), flows, masks)


def flow_log_probs_batch(flm, e_u, e_v, schema, flows):
    """Total log-probabilities, shape (len(flows),), of same-length flows of
    one schema under the d_e-vector prompts ``e_u`` and ``e_v``, after
    validating the flows. The prompts are encoded once, so their gradients
    accumulate across the batch."""
    for f in flows:
        flm.check_flow(f, schema)
    steps = _flow_log_probs(flm, e_u, e_v, schema, flows)
    return ad.tensor_sum(steps, axis=1)


def generate_flows_batch(flm, e_u, e_v, schema, rng, count,
                         temperature=1.0):
    """Decode ``count`` flows in parallel for one pair of prompt arrays
    ``e_u``, ``e_v`` and a schema.

    Sampling uses the Gumbel-max trick on the masked logits, so each row is
    an exact draw from the masked softmax at the given temperature. Every
    emitted token satisfies the schema type constraint; with connectivity
    masking on, consecutive entities stay within hop_limit of each other
    whenever the graph allows it.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive when sampling")
    for t in schema:
        flm._step(t, None)  # an empty type class fails early
    e_u, e_v = np.asarray(e_u), np.asarray(e_v)
    tokens = np.full((count, 1), flm.bos, dtype=np.intp)
    with ad.no_grad():
        enc = flm.encode(ad.Tensor(e_u[None, :]), ad.Tensor(e_v[None, :]),
                         flm.type_ids(schema)[None, :])
        for j, tname in enumerate(schema):
            prevs = tokens[:, -1].tolist() if j else [None]
            masked = flm.decode(tokens, enc).data[:, -1, :] + _mask_block(
                flm, [[flm.step_mask(tname, prev_entity=p)] for p in prevs]
            )[:, 0]
            gumbel = -np.log(-np.log(rng.uniform(size=masked.shape)))
            nxt = np.argmax(masked / temperature + gumbel, axis=-1)
            tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
    return [list(map(int, row)) for row in tokens[:, 1:]]


def sample_pseudo_flow(hkg, catalog, rng, hop_limit=2):
    """Draw a schema uniformly, sample a graph path for it, and split the
    entities into two preference groups.

    Schemas that cannot produce a path are resampled; after
    ``MAX_SCHEMA_TRIES`` consecutive failures the catalog is considered
    unreachable as a whole.
    """
    if len(catalog) == 0:
        raise DataError("empty schema catalog")
    for _ in range(MAX_SCHEMA_TRIES):
        schema = catalog.schemas[int(rng.integers(len(catalog)))]
        flow = sample_path(hkg, schema, rng, hop_limit=hop_limit)
        if flow is None:
            continue
        n = len(flow)
        if n == 1:
            # degenerate length: the seeker holds the single entity
            groups = [True]
        else:
            while True:
                groups = rng.integers(0, 2, size=n) == 0
                if groups.any() and not groups.all():
                    break
        return FlowExample.from_roles(flow, schema, groups)
    raise DataError(f"no schema produced a path in {MAX_SCHEMA_TRIES} tries")


def user_prompts(flm, id_lists, entity_emb):
    """(len(id_lists), d_e) preference vectors under the model's own
    attention parameters; an empty list maps to the zero vector."""
    return emb.pool_entities(entity_emb, id_lists, flm.store["flm.attn.w"],
                             flm.store["flm.attn.b"])


def user_prompt(flm, entity_ids, entity_emb):
    """Preference vector, shape (d_e,), for one interaction list."""
    return ad.reshape(user_prompts(flm, [entity_ids], entity_emb), (-1,))


def pretrain_flm(flm, examples, entity_emb, epochs=3, batch_size=16,
                 lr=1e-3, seed=0):
    """Teacher-forced cross-entropy pre-training on a flow collection.

    ``entity_emb`` is the frozen (num_nodes, d_e) table prompts are built
    from. Returns the mean per-flow NLL per epoch; the caller freezes the
    model afterwards.
    """
    rng = np.random.default_rng(seed)
    by_length = {}
    for ex in examples:
        flm.check_flow(ex.entities, ex.schema)
        by_length.setdefault(len(ex.entities), []).append(ex)
    buckets = [_FlowBucket(flm, by_length[n]) for n in sorted(by_length)]
    history = []
    for _ in range(epochs):
        pools = [(bucket, rng.permutation(len(bucket))) for bucket in buckets]
        batches = [(bucket, pool[i:i + batch_size]) for bucket, pool in pools
                   for i in range(0, len(pool), batch_size)]
        batches = [batches[bi] for bi in rng.permutation(len(batches))]
        losses = rc.train_steps(
            flm.store, lambda batch: batch[0].nll(batch[1], entity_emb),
            batches, lr)
        total_nll = 0.0  # added in step order, as the steps ran
        for (_, idx), loss in zip(batches, losses):
            total_nll += loss * len(idx)
        history.append(total_nll / max(len(examples), 1))
    return history


class _FlowBucket:
    """Same-length examples that ``pretrain_flm`` has validated, packed as
    arrays once: flows, schema type ids, both sides' prompt id lists, and
    each example's list of step ids, the model's cached arrays themselves."""

    def __init__(self, flm, examples):
        self.flm = flm
        self.flows = np.array([ex.entities for ex in examples], dtype=np.intp)
        self.type_ids = np.stack([flm.type_ids(ex.schema) for ex in examples])
        self.seeker = emb.IdLists.pack([ex.seeker_entities for ex in examples])
        self.rec = emb.IdLists.pack([ex.recommender_entities
                                     for ex in examples])
        self.step_ids = [_step_ids(flm, ex.schema, ex.entities)
                         for ex in examples]

    def __len__(self):
        return len(self.flows)

    def nll(self, idx, entity_emb):
        """Mean per-flow negative log-likelihood of the examples ``idx``."""
        flm = self.flm
        steps = _scored_steps(
            flm, user_prompts(flm, self.seeker.take(idx), entity_emb),
            user_prompts(flm, self.rec.take(idx), entity_emb),
            self.type_ids[idx], self.flows[idx],
            _mask_block(flm, [self.step_ids[i] for i in idx]))
        return -ad.mul(ad.tensor_sum(steps), 1.0 / len(idx))
