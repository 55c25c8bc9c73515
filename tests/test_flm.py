
import chain_ops as co
import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import flm as flmm
from recflow import kg as kgm
from recflow import schema as sc
from recflow.config import RunConfig


def build_hkg(triples, types, interactions=None):
    g = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                    [f"{e}\t{t}" for e, t in types.items()])
    return kgm.attach_users(g, interactions or {})


TYPES = {"g1": "genre", "g2": "genre", "m1": "item", "m2": "item",
         "a1": "actor"}
# complete genre-item graph so connectivity never restricts those schemas
FULL_TRIPLES = [
    ("m1", "has_genre", "g1"), ("m1", "has_genre", "g2"),
    ("m2", "has_genre", "g1"), ("m2", "has_genre", "g2"),
    ("a1", "acted_in", "m1"), ("a1", "acted_in", "m2"),
]

TINY_CFG = dict(flm_d_model=16, flm_layers=1, flm_heads=2, flm_ff_mult=2,
                max_len=8)


@pytest.fixture
def full_hkg():
    return build_hkg(FULL_TRIPLES, TYPES, {"u": ["g1", "m1"], "v": ["m2"]})


def make_flm(hkg, seed=0, d_e=6, **overrides):
    cfg = dict(TINY_CFG)
    cfg.update(overrides)
    return flmm.FlowLM(hkg, RunConfig(seed=seed, **cfg), d_e)


def log_prob(flm, e_u, e_v, schema, flow):
    """Total log-probability of one flow."""
    return ad.tensor_sum(flmm.flow_log_probs_batch(flm, e_u, e_v, schema,
                                                   [flow]))


def rand_prompts(flm, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=flm.d_e) * 0.5,
            rng.normal(size=flm.d_e) * 0.5)


def randomize_head(flm, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    flm.store["flm.head_w"].data = rng.normal(
        size=flm.store["flm.head_w"].shape) * scale


def test_singleton_type_step_contributes_zero(full_hkg):
    flm = make_flm(full_hkg)
    randomize_head(flm, 3)
    e_u, e_v = rand_prompts(flm)
    a1 = full_hkg.base.entity_id("a1")
    lp = log_prob(flm, e_u, e_v, ("actor",), [a1])
    assert lp.item() == 0.0


def test_total_equals_sum_of_steps(full_hkg):
    flm = make_flm(full_hkg)
    randomize_head(flm, 5)
    e_u, e_v = rand_prompts(flm, 1)
    kg = full_hkg.base
    flow = [kg.entity_id("g1"), kg.entity_id("m2"), kg.entity_id("a1")]
    schema = ("genre", "item", "actor")
    steps = flmm._flow_log_probs(flm, e_u, e_v, schema, [flow])
    total = log_prob(flm, e_u, e_v, schema, flow)
    assert abs(total.item() - steps.data.sum()) < 1e-12


def enumerate_support(flm, schema):
    """All flows the masked decoder can emit, by recursive expansion of the
    per-step candidate sets."""
    flows = [[]]
    for j, tname in enumerate(schema):
        nxt = []
        for prefix in flows:
            prev = prefix[-1] if prefix else None
            for eid in np.flatnonzero(flm.step_mask(tname, prev) == 0):
                nxt.append(prefix + [eid])
        flows = nxt
    return [tuple(f) for f in flows]


def test_probabilities_sum_to_one_over_support(full_hkg):
    flm = make_flm(full_hkg)
    randomize_head(flm, 7)
    e_u, e_v = rand_prompts(flm, 2)
    schema = ("genre", "item")
    support = enumerate_support(flm, schema)
    assert len(support) == 4  # complete bipartite: all type-valid pairs
    total = 0.0
    for flow in support:
        total += np.exp(log_prob(flm, e_u, e_v, schema, list(flow)).item())
    assert abs(total - 1.0) < 1e-9


def test_untrained_per_step_perplexity_equals_type_class_size(full_hkg):
    flm = make_flm(full_hkg)  # zero-init head: logits identical inside mask
    e_u, e_v = rand_prompts(flm, 4)
    kg = full_hkg.base
    flow = [kg.entity_id("g2"), kg.entity_id("m1")]
    steps = flmm._flow_log_probs(flm, e_u, e_v, ("genre", "item"),
                                 [flow]).data
    assert np.allclose(np.exp(-steps), [2.0, 2.0])


def test_type_mismatch_and_length_errors(full_hkg):
    flm = make_flm(full_hkg)
    e_u, e_v = rand_prompts(flm)
    kg = full_hkg.base
    schema = ("genre", "item")
    with pytest.raises(flmm.TypeMismatch):
        log_prob(flm, e_u, e_v, schema,
                 [kg.entity_id("m1"), kg.entity_id("m2")])
    with pytest.raises(ValueError):
        log_prob(flm, e_u, e_v, schema, [kg.entity_id("g1")])


def test_vocab_miss(full_hkg):
    flm = make_flm(full_hkg)
    e_u, e_v = rand_prompts(flm)
    with pytest.raises(flmm.VocabMiss):
        log_prob(flm, e_u, e_v, ("genre",), [999])


def test_generate_fully_forced_by_singleton_classes():
    types = {"g1": "genre", "m1": "item"}
    hkg = build_hkg([("m1", "has_genre", "g1")], types)
    flm = make_flm(hkg)
    rng = np.random.default_rng(0)
    flow, = flmm.generate_flows_batch(flm, *rand_prompts(flm),
                                      ("genre", "item"), rng, 1)
    kg = hkg.base
    assert flow == [kg.entity_id("g1"), kg.entity_id("m1")]


def test_generate_low_temperature_matches_greedy(full_hkg):
    flm = make_flm(full_hkg)
    randomize_head(flm, 11, scale=1.0)
    e_u, e_v = rand_prompts(flm, 6)
    schema = ("genre", "item", "genre")
    # the masked argmax, one decoding step at a time
    tokens = [flm.bos]
    with ad.no_grad():
        enc = flm.encode(ad.Tensor(e_u[None, :]), ad.Tensor(e_v[None, :]),
                         flm.type_ids(schema)[None, :])
        for j, tname in enumerate(schema):
            logits = flm.decode(np.array([tokens]), enc).data[0, -1]
            mask = flm.step_mask(tname, prev_entity=tokens[-1] if j else None)
            tokens.append(int(np.argmax(logits + mask)))
    greedy = tokens[1:]
    for seed in range(5):
        cold = flmm.generate_flows_batch(flm, e_u, e_v, schema,
                                         np.random.default_rng(seed), 1,
                                         temperature=1e-8)[0]
        assert cold == greedy


def test_generated_flows_satisfy_schema_and_connectivity():
    # two disconnected clusters: only 2 of the 8 type-valid flows are
    # hop-valid, and the masked decoder must never leave them
    types = dict(TYPES)
    types["a2"] = "actor"
    triples = [("m1", "has_genre", "g1"), ("m2", "has_genre", "g2"),
               ("a1", "acted_in", "m1"), ("a2", "acted_in", "m2")]
    hkg = build_hkg(triples, types)
    flm = make_flm(hkg, seed=3)
    randomize_head(flm, 13)
    rng = np.random.default_rng(42)
    e_u, e_v = rand_prompts(flm, 8)
    schema = ("genre", "item", "actor")
    seen = set()
    for _ in range(200):
        flow, = flmm.generate_flows_batch(flm, e_u, e_v, schema, rng, 1)
        seen.add(tuple(flow))
        assert kgm.validate_flow(hkg, flow, schema, hop_limit=2)
        assert log_prob(flm, e_u, e_v, schema, flow).item() > -np.inf
    assert len(seen) <= 2


def test_sampled_flow_frequencies_match_model_distribution(full_hkg):
    flm = make_flm(full_hkg)
    randomize_head(flm, 17, scale=0.8)
    e_u, e_v = rand_prompts(flm, 9)
    schema = ("genre", "item")
    support = enumerate_support(flm, schema)
    probs = {}
    for flow in support:
        probs[flow] = np.exp(log_prob(flm, e_u, e_v, schema,
                                      list(flow)).item())
    n = 50_000
    rng = np.random.default_rng(123)
    counts = dict.fromkeys(support, 0)
    for _ in range(50):
        for flow in flmm.generate_flows_batch(flm, e_u, e_v, schema, rng,
                                              count=1000):
            counts[tuple(flow)] += 1
    for flow in support:
        p = probs[flow]
        sigma = max(np.sqrt(n * p * (1 - p)), 1e-9)
        assert abs(counts[flow] - n * p) <= 3 * sigma, (flow, counts[flow], p)


def test_batch_log_probs_match_single_scorer(full_hkg):
    flm = make_flm(full_hkg)
    randomize_head(flm, 23)
    e_u, e_v = rand_prompts(flm, 12)
    schema = ("genre", "item")
    kg = full_hkg.base
    flows = [[kg.entity_id("g1"), kg.entity_id("m1")],
             [kg.entity_id("g2"), kg.entity_id("m1")],
             [kg.entity_id("g1"), kg.entity_id("m2")]]
    batched = flmm.flow_log_probs_batch(flm, e_u, e_v, schema, flows)
    singles = [log_prob(flm, e_u, e_v, schema, f).item() for f in flows]
    assert np.allclose(batched.data, singles, atol=1e-12)

    # gradients through the shared prompt agree with summed single passes
    store = ad.ParamStore()
    store.add("e_u", e_u)
    store.add("e_v", e_v)
    grads_b = ad.backward(
        ad.tensor_sum(flmm.flow_log_probs_batch(flm, store["e_u"],
                                                store["e_v"], schema, flows)),
        store)
    total_u = np.zeros_like(e_u)
    for f in flows:
        g = ad.backward(log_prob(flm, store["e_u"], store["e_v"], schema, f),
                        store)
        total_u = total_u + g["e_u"]
    assert np.allclose(grads_b["e_u"], total_u, atol=1e-12)


def packed_nll(flm, batch, emb_table):
    # the loss pretrain_flm takes a step on: the batch packed as one bucket
    return flmm._FlowBucket(flm, batch).nll(list(range(len(batch))),
                                            emb_table)


def test_batch_nll_matches_single_scorer_on_mixed_prompts(full_hkg):
    flm = make_flm(full_hkg)
    randomize_head(flm, 29)
    kg = full_hkg.base
    g1, g2 = kg.entity_id("g1"), kg.entity_id("g2")
    m1, m2 = kg.entity_id("m1"), kg.entity_id("m2")
    a1 = kg.entity_id("a1")
    emb_table = np.random.default_rng(4).normal(
        size=(full_hkg.num_nodes, flm.d_e)) * 0.5
    # same length, different schemas and prompts (one side empty)
    batch = [
        flmm.FlowExample([g1, m1], ("genre", "item"), [g1], [m1]),
        flmm.FlowExample([m2, g2], ("item", "genre"), [m2, g2], []),
        flmm.FlowExample([a1, m2], ("actor", "item"), [m2], [a1]),
    ]
    loss = packed_nll(flm, batch, emb_table)
    grads_b = ad.backward(loss, flm.store)

    total = 0.0
    grads_s = {}
    for ex in batch:
        lp = log_prob(flm,
                      flmm.user_prompt(flm, ex.seeker_entities, emb_table),
                      flmm.user_prompt(flm, ex.recommender_entities,
                                       emb_table),
                      ex.schema, ex.entities)
        nll = ad.mul(-lp, 1.0 / len(batch))
        total += nll.item()
        for name, g in ad.backward(nll, flm.store).items():
            grads_s[name] = grads_s.get(name, 0.0) + g
    assert abs(loss.item() - total) <= 1e-12
    assert set(grads_b) == set(grads_s)
    assert "flm.attn.w" in grads_b  # the prompt encoder is on the path
    for name, g in grads_b.items():
        assert np.allclose(g, grads_s[name], rtol=0, atol=1e-12), name


def test_batch_nll_tape_size_does_not_grow_with_batch(full_hkg):
    # both sides' prompts are pooled as one padded block per batch, so the
    # tape is the same size for 2 flows and for 16
    flm = make_flm(full_hkg)
    kg = full_hkg.base
    g1, g2 = kg.entity_id("g1"), kg.entity_id("g2")
    m1, m2 = kg.entity_id("m1"), kg.entity_id("m2")
    emb_table = np.random.default_rng(6).normal(
        size=(full_hkg.num_nodes, flm.d_e))
    pool = [
        flmm.FlowExample([g1, m1], ("genre", "item"), [g1], [m1]),
        flmm.FlowExample([m2, g2], ("item", "genre"), [m2, g2], []),
        flmm.FlowExample([g2, m2], ("genre", "item"), [], [g2, m2, g1]),
        flmm.FlowExample([m1, g1], ("item", "genre"), [m1], [g1]),
    ]
    sizes = [len(ad._topo_order(packed_nll(flm, (pool * 4)[:b], emb_table)))
             for b in (2, 16)]
    assert sizes[0] == sizes[1]


# nodes the loss of one packed two-flow batch built with layer norm and
# attention as chains of small ops, before they were fused into one node each
UNFUSED_BATCH_NLL_NODES = 387


def test_batch_nll_tape_is_at_most_half_the_unfused_one(full_hkg):
    flm = make_flm(full_hkg, flm_layers=2)
    kg = full_hkg.base
    g1, g2 = kg.entity_id("g1"), kg.entity_id("g2")
    m1, m2 = kg.entity_id("m1"), kg.entity_id("m2")
    emb_table = np.random.default_rng(6).normal(
        size=(full_hkg.num_nodes, flm.d_e))
    batch = [flmm.FlowExample([g1, m1], ("genre", "item"), [g1], [m1]),
             flmm.FlowExample([g2, m2], ("genre", "item"), [], [g2, m2, g1])]
    loss = packed_nll(flm, batch, emb_table)
    assert len(ad._topo_order(loss)) <= UNFUSED_BATCH_NLL_NODES // 2


def test_swapped_prompts_change_encoder_output(full_hkg):
    flm = make_flm(full_hkg, seed=5)
    rng = np.random.default_rng(2)
    a = rng.normal(size=flm.d_e)
    b = rng.normal(size=flm.d_e)
    tids = flm.type_ids(("genre",))[None, :]
    with ad.no_grad():
        ab = flm.encode(ad.Tensor(a[None, :]), ad.Tensor(b[None, :]), tids)
        ba = flm.encode(ad.Tensor(b[None, :]), ad.Tensor(a[None, :]), tids)
    assert not np.allclose(ab.data, ba.data)


def test_sample_pseudo_flow_uses_only_reachable_schemas(full_hkg):
    # one reachable schema, one whose types cannot connect
    types = {"g1": "genre", "m1": "item", "x1": "lone"}
    triples = [("m1", "has_genre", "g1"), ("x1", "rel", "x1")]
    hkg = build_hkg(triples, types)
    catalog = sc.mine_schemas([("genre", "item")] * 3 + [("lone", "item")] * 3,
                              min_support=1)
    assert len(catalog) == 2
    rng = np.random.default_rng(7)
    for _ in range(300):
        ex = flmm.sample_pseudo_flow(hkg, catalog, rng)
        assert ex.schema == ("genre", "item")
        assert kgm.validate_flow(hkg, ex.entities, ex.schema)


def test_sample_pseudo_flow_splits_entities(full_hkg):
    catalog = sc.mine_schemas([("genre", "item", "actor")], min_support=1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        ex = flmm.sample_pseudo_flow(full_hkg, catalog, rng)
        assert len(ex.seeker_entities) >= 1
        assert len(ex.recommender_entities) >= 1
        combined = set(ex.seeker_entities) | set(ex.recommender_entities)
        assert combined == set(ex.entities)


def test_sample_pseudo_flow_single_entity_flow(full_hkg):
    catalog = sc.mine_schemas([("actor",)], min_support=1)
    ex = flmm.sample_pseudo_flow(full_hkg, catalog, np.random.default_rng(0))
    assert len(ex.entities) == 1
    assert ex.seeker_entities == ex.entities
    assert ex.recommender_entities == []


def test_sample_pseudo_flow_all_unreachable():
    types = {"g1": "genre", "m1": "item", "x1": "lone"}
    triples = [("m1", "has_genre", "g1"), ("x1", "rel", "x1")]
    hkg = build_hkg(triples, types)
    catalog = sc.mine_schemas([("lone", "item")], min_support=1)
    with pytest.raises(flmm.AllSchemasUnreachable):
        flmm.sample_pseudo_flow(hkg, catalog, np.random.default_rng(0))


def test_pretrain_memorizes_single_flow(full_hkg):
    flm = make_flm(full_hkg, flm_d_model=32, flm_heads=2)
    kg = full_hkg.base
    emb_table = np.random.default_rng(0).normal(
        size=(full_hkg.num_nodes, flm.d_e)) * 0.5
    ex = flmm.FlowExample(
        entities=[kg.entity_id("g1"), kg.entity_id("m2")],
        schema=("genre", "item"),
        seeker_entities=[kg.entity_id("g1")],
        recommender_entities=[kg.entity_id("m2")])
    flmm.pretrain_flm(flm, [ex], emb_table, epochs=500, batch_size=1,
                      lr=5e-3, seed=0)
    e_u = flmm.user_prompt(flm, ex.seeker_entities, emb_table)
    e_v = flmm.user_prompt(flm, ex.recommender_entities, emb_table)
    nll = -log_prob(flm, e_u, e_v, ex.schema, ex.entities).item()
    assert nll < 0.01


def test_pretrain_loss_decreases_and_prompts_matter(full_hkg):
    rng = np.random.default_rng(5)
    flm = make_flm(full_hkg, seed=9)
    kg = full_hkg.base
    emb_table = rng.normal(size=(full_hkg.num_nodes, flm.d_e)) * 0.5
    g1, g2 = kg.entity_id("g1"), kg.entity_id("g2")
    m1, m2 = kg.entity_id("m1"), kg.entity_id("m2")
    # same flow, two disjoint user splits, different continuations
    examples = [
        flmm.FlowExample([g1, m1], ("genre", "item"), [g1], [m1]),
        flmm.FlowExample([g1, m2], ("genre", "item"), [m2], [g1]),
    ]
    history = flmm.pretrain_flm(flm, examples * 8, emb_table, epochs=30,
                                batch_size=4, lr=2e-3, seed=1)
    assert history[-1] < history[0]
    e_a = flmm.user_prompt(flm, [g1], emb_table)
    e_b = flmm.user_prompt(flm, [m1], emb_table)
    lp_a = log_prob(flm, e_a, e_b, ("genre", "item"), [g1, m1]).item()
    lp_b = log_prob(flm, e_b, e_a, ("genre", "item"), [g1, m1]).item()
    assert lp_a != lp_b


def test_grad_check_through_blocks_and_prompts(full_hkg):
    flm = make_flm(full_hkg, flm_d_model=4, flm_heads=2, flm_ff_mult=2,
                   d_e=3, max_len=4, seed=2)
    randomize_head(flm, 19, scale=0.3)
    kg = full_hkg.base
    flow = [kg.entity_id("g1"), kg.entity_id("m1")]
    schema = ("genre", "item")
    prompt_store = ad.ParamStore()
    rng = np.random.default_rng(3)
    prompt_store.add("e_u", rng.normal(size=3) * 0.5)
    prompt_store.add("e_v", rng.normal(size=3) * 0.5)

    def f_prompts(s):
        return log_prob(flm, s["e_u"], s["e_v"], schema, flow)

    assert co.grad_check(f_prompts, prompt_store, eps=1e-5) < 1e-4

    def f_model(s):
        return log_prob(flm, prompt_store["e_u"], prompt_store["e_v"], schema,
                        flow)

    err = co.grad_check(f_model, flm.store, eps=1e-5,
                        names=[n for n in flm.store.names()
                               if ".l0." in n or n.startswith("flm.head")])
    assert err < 1e-4


def _fresh_step_mask(flm, type_name, prev_entity=None, target=None):
    # the per-token mask the scorer allocated before masks were cached
    ids = flm.hkg.base.entities_of_type(type_name)
    if flm.cfg.connectivity_mask and prev_entity is not None:
        hood = flm.hkg.neighborhood(prev_entity, flm.cfg.hop_limit)
        near = [e for e in ids if e == prev_entity or e in hood]
        if near:
            ids = near
    if target is not None and target not in ids:
        ids = flm.hkg.base.entities_of_type(type_name)
    mask = np.full(flm.vocab_size, ad.MASK_NEG)
    mask[list(ids)] = 0.0
    return mask


@pytest.mark.parametrize("connectivity", [True, False])
def test_cached_step_masks_equal_fresh_ones_and_are_read_only(connectivity):
    # two clusters: g1-m1-a1 and g2-m2-a2, so some targets leave the hop
    # neighbourhood of the previous entity and widen to their type class
    types = dict(TYPES, a2="actor")
    triples = [("m1", "has_genre", "g1"), ("m2", "has_genre", "g2"),
               ("a1", "acted_in", "m1"), ("a2", "acted_in", "m2")]
    hkg = build_hkg(triples, types)
    flm = make_flm(hkg, connectivity_mask=connectivity, hop_limit=1)
    kg = hkg.base
    ids = {name: kg.entity_id(name) for name in types}
    schema = ("genre", "item", "actor")
    flows = [[ids["g1"], ids["m1"], ids["a1"]],   # stays on the graph
             [ids["g1"], ids["m2"], ids["a2"]],   # m2 is off g1's hood
             [ids["g2"], ids["m2"], ids["a1"]]]   # a1 is off m2's hood
    for _ in range(2):  # the second pass reads only the cache
        for flow in flows:
            for j, target in enumerate(flow):
                prev = flow[j - 1] if j else None
                for tgt in (target, None):
                    mask = flm.step_mask(schema[j], prev_entity=prev,
                                         target=tgt)
                    fresh = _fresh_step_mask(flm, schema[j], prev, tgt)
                    assert mask.tobytes() == fresh.tobytes()
                    assert not mask.flags.writeable
                    assert mask is flm.step_mask(schema[j], prev, tgt)
    with pytest.raises(ValueError):
        flm.step_mask("item", ids["g1"])[0] = 0.0


def test_flows_are_checked_once_in_pretraining(full_hkg, monkeypatch):
    flm = make_flm(full_hkg)
    kg = full_hkg.base
    g1, m1 = kg.entity_id("g1"), kg.entity_id("m1")
    examples = [flmm.FlowExample([g1, m1], ("genre", "item"), [g1], [m1])] * 5
    emb_table = np.zeros((full_hkg.num_nodes, flm.d_e))
    checked = []
    check_flow = flm.check_flow
    monkeypatch.setattr(flm, "check_flow",
                        lambda *a: checked.append(a) or check_flow(*a))
    flmm.pretrain_flm(flm, examples, emb_table, epochs=3, batch_size=2)
    assert len(checked) == len(examples)
    # a scorer whose flows nobody has validated still checks them
    with pytest.raises(flmm.TypeMismatch):
        log_prob(flm, np.zeros(flm.d_e), np.zeros(flm.d_e), ("genre", "item"),
                 [m1, g1])


def test_heads_must_divide_d_model(full_hkg):
    with pytest.raises(ValueError):
        flmm.FlowLM(full_hkg, RunConfig(flm_d_model=10, flm_heads=4), 6)
