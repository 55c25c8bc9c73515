import contextlib

import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import counterfactual as cf
from recflow import embeddings as emb
from recflow import flm as flmm
from recflow import kg as kgm
from recflow import pipeline as pl
from recflow import realization as rz
from recflow import recommender as rc
from recflow import schema as sc
from recflow.config import RunConfig
from test_autodiff import _chain_attention_pool


def test_curriculum_initial_weight():
    sched = cf.CurriculumSchedule(rho=0.25, delta=0.8)
    assert cf.curriculum_lambda(sched, 0) == 0.25


def test_curriculum_closed_form_value():
    sched = cf.CurriculumSchedule(rho=0.1, delta=0.9)
    assert abs(cf.curriculum_lambda(sched, 2) - 0.081) < 1e-15


def test_curriculum_no_anneal_limit():
    sched = cf.CurriculumSchedule(rho=0.05, delta=1.0)
    for k in range(10):
        assert cf.curriculum_lambda(sched, k) == 0.05


def test_curriculum_strictly_decreasing():
    sched = cf.CurriculumSchedule(rho=0.1, delta=0.7)
    values = [cf.curriculum_lambda(sched, k) for k in range(10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_select_edit_targets_single_entity():
    rng = np.random.default_rng(0)
    for k in (1, 3, 10):
        assert cf.select_edit_targets(1, k, rng) == [0]


def test_select_edit_targets_k_at_least_population():
    rng = np.random.default_rng(0)
    assert cf.select_edit_targets(4, 9, rng) == [0, 1, 2, 3]


def test_select_edit_targets_binomial_rates():
    rng = np.random.default_rng(7)
    n, k, draws = 4, 2, 10_000
    counts = np.zeros(n)
    for _ in range(draws):
        for pos in cf.select_edit_targets(n, k, rng):
            counts[pos] += 1
    p = k / n
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 3 * sigma)


def test_apply_edit_zero_delta_is_identity():
    rng = np.random.default_rng(1)
    e = rng.normal(size=(4, 3))
    out = cf.apply_edit(e, [2], ad.Tensor(np.zeros((1, 3))))
    assert np.array_equal(out.data, e)


def test_apply_edit_single_entity_forced_attention():
    rng = np.random.default_rng(2)
    e = rng.normal(size=(1, 3))
    d = rng.normal(size=(1, 3))
    store = ad.ParamStore()
    emb.init_attention_params(store, 3, rng=rng)
    e_u = emb.pool_entities(cf.apply_edit(e, [0], ad.Tensor(d)), [[0]],
                            store["attn.w"], store["attn.b"])
    assert np.allclose(e_u.data[0], (e + d)[0])


def test_apply_edit_matches_independent_reencode():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(3, 4))
    d = rng.normal(size=(1, 4)) * 0.3
    store = ad.ParamStore()
    emb.init_attention_params(store, 4, rng=rng)
    e_u = emb.pool_entities(cf.apply_edit(e, [1], ad.Tensor(d)),
                            [[0, 1, 2]], store["attn.w"], store["attn.b"])
    edited = e.copy()
    edited[1] += d[0]
    oracle = emb.pool_entities(edited, [[0, 1, 2]], store["attn.w"],
                               store["attn.b"])
    assert e_u.data.tobytes() == oracle.data.tobytes()


def test_apply_edit_only_changes_edited_rows():
    rng = np.random.default_rng(4)
    e = rng.normal(size=(5, 3))
    d = rng.normal(size=(2, 3))
    out = cf.apply_edit(e, [0, 3], ad.Tensor(d))
    changed = out.data - e
    assert np.allclose(changed[[1, 2, 4]], 0.0)
    assert np.allclose(changed[0], d[0]) and np.allclose(changed[3], d[1])


def test_apply_edit_position_out_of_range():
    with pytest.raises(cf.PositionOutOfRange):
        cf.apply_edit(np.zeros((2, 3)), [5], ad.Tensor(np.zeros((1, 3))))


# -- tiny enumerable simulator for REINFORCE checks --------------------------

def tiny_sim(seed=0, head_scale=0.6, catalog_schema=("genre", "item")):
    """Complete 2-genre x 3-item world with an enumerable flow space."""
    types = {"g0": "genre", "g1": "genre",
             "m0": "item", "m1": "item", "m2": "item"}
    triples = [(m, "has_genre", g) for m in ("m0", "m1", "m2")
               for g in ("g0", "g1")]
    g = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                    [f"{e}\t{t}" for e, t in types.items()])
    hkg = kgm.attach_users(g, {"u": ["g0", "m0"], "v": ["m1", "m2"]})
    model = flmm.FlowLM(hkg, RunConfig(flm_d_model=8, flm_layers=1,
                                       flm_heads=2, flm_ff_mult=2,
                                       max_len=4, seed=seed), 5)
    rng = np.random.default_rng(seed + 10)
    model.store["flm.head_w"].data = rng.normal(
        size=model.store["flm.head_w"].shape) * head_scale
    catalog = sc.mine_schemas([catalog_schema], min_support=1)
    clf_store = ad.ParamStore()
    sc.init_classifier_params(clf_store, d_e=5, num_schemas=1,
                              rng=np.random.default_rng(seed))
    bank = rz.TemplateBank([], type_names=g.type_names)
    entity_emb = np.random.default_rng(seed + 20).normal(
        size=(hkg.num_nodes, 5)) * 0.5
    sim = pl.SimulatorBundle(flm=model, catalog=catalog, clf_store=clf_store,
                             bank=bank, entity_emb=entity_emb, hkg=hkg)
    rec = rc.RecModel(hkg, d_e=6, seed=seed)
    rec.store["rec.item_bias"].data = np.array([6.0, -6.0, 0.0])
    pair = pl.UserPair(user_u="u", user_v="v",
                       u_entities=hkg.interactions["u"],
                       v_entities=hkg.interactions["v"])
    return sim, rec, pair


def enumerate_pair_gradient(state, sim, rec, reward_fn):
    """Exact expectation sum_C Pr(C) L(C) grad log Pr(C) plus per-flow
    tables, via full support enumeration."""
    e_u, e_v = cf.edited_prompts(state, 0, sim)
    schema = sim.predict_schema(e_u.data, e_v.data)
    flows = [[]]
    for j, tname in enumerate(schema):
        flows = [f + [e] for f in flows
                 for e in np.flatnonzero(sim.flm.step_mask(
                     tname, f[-1] if f else None) == 0)]
    probs, rewards, grads = {}, {}, {}
    exact = {n: np.zeros_like(state.store[n].data)
             for n in ("delta_u", "delta_v")}
    for flow in flows:
        key = tuple(flow)
        e_u, e_v = cf.edited_prompts(state, 0, sim)
        logp = ad.tensor_sum(flmm.flow_log_probs_batch(sim.flm, e_u, e_v,
                                                       schema, [flow]))
        g = ad.backward(logp, state.store)
        probs[key] = float(np.exp(logp.item()))
        realized = rz.realize(flow, schema, sim.bank, sim.hkg.base,
                              np.random.default_rng(0), dialogue_id="enum")
        rewards[key] = reward_fn(realized)
        grads[key] = {n: g.get(n, np.zeros_like(exact[n])).copy()
                      for n in exact}
        for n in exact:
            exact[n] += probs[key] * rewards[key] * grads[key][n]
    return schema, probs, rewards, grads, exact


def test_zero_reward_reduces_to_pure_decay():
    sim, rec, pair = tiny_sim()
    state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
    init = np.random.default_rng(5).normal(size=state.store["delta_u"].shape)
    state.store["delta_u"].data = init.copy()
    state.store["delta_v"].data = 2 * init.copy()
    alpha, lam = 0.05, 0.7
    cf.reinforce_step(state, sim, rec, lam, alpha, rollouts=4,
                      rng=np.random.default_rng(1),
                      reward_fn=lambda realized: 0.0)
    factor = 1.0 - 2.0 * alpha * lam
    assert np.allclose(state.store["delta_u"].data, init * factor,
                       rtol=0, atol=1e-15)
    assert np.allclose(state.store["delta_v"].data, 2 * init * factor,
                       rtol=0, atol=1e-15)


def test_constant_reward_has_zero_expected_update():
    sim, rec, pair = tiny_sim()
    state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
    _, probs, _, grads, _ = enumerate_pair_gradient(
        state, sim, rec, lambda realized: 1.0)
    assert abs(sum(probs.values()) - 1.0) < 1e-9
    for name in ("delta_u", "delta_v"):
        expected = sum(p * grads[f][name]
                       for f, p in probs.items())
        assert np.max(np.abs(expected)) < 1e-10


def test_sampled_update_matches_enumerated_gradient():
    # single-step schema keeps the outcome set small and the reward spread
    # large, so 10k rollouts pin the score-function mean within 5%
    sim, rec, pair = tiny_sim(head_scale=0.8, catalog_schema=("item",))
    state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
    reward_fn = cf.default_reward_fn(rec, sim.hkg.base)
    schema, probs, rewards, grads, exact = enumerate_pair_gradient(
        state, sim, rec, reward_fn)
    assert len(probs) <= 50
    e_u, e_v = cf.edited_prompts(state, 0, sim)
    rng = np.random.default_rng(99)
    n = 10_000
    counts = dict.fromkeys(probs, 0)
    for _ in range(10):
        for flow in flmm.generate_flows_batch(sim.flm, e_u.data, e_v.data,
                                              schema, rng, count=n // 10):
            counts[tuple(flow)] += 1
    for name in ("delta_u", "delta_v"):
        sampled = sum((c / n) * rewards[f] * grads[f][name]
                      for f, c in counts.items())
        rel = np.linalg.norm(sampled - exact[name]) / \
            np.linalg.norm(exact[name])
        assert rel < 0.05, (name, rel)


def test_reinforce_step_applies_ascent_update_formula():
    sim, rec, pair = tiny_sim()
    state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
    init_u = state.store["delta_u"].data.copy()
    alpha, lam = 0.01, 0.3
    stats = cf.reinforce_step(state, sim, rec, lam, alpha, rollouts=6,
                              rng=np.random.default_rng(3))
    g = stats["gradient"]["delta_u"]
    expected = init_u + alpha * (g - 2 * lam * init_u)
    assert np.allclose(state.store["delta_u"].data, expected, atol=1e-15)


def test_reinforce_step_is_bit_reproducible():
    results = []
    for _ in range(2):
        sim, rec, pair = tiny_sim()
        state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
        cf.reinforce_step(state, sim, rec, 0.1, 0.05, rollouts=8,
                          rng=np.random.default_rng(17))
        results.append((state.store["delta_u"].data.copy(),
                        state.store["delta_v"].data.copy()))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_reinforce_step_never_writes_frozen_parameters():
    sim, rec, pair = tiny_sim()
    state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
    rec_sum = rec.store.checksum()
    flm_sum = sim.flm.store.checksum()
    clf_sum = sim.clf_store.checksum()
    cf.reinforce_step(state, sim, rec, 0.1, 0.05, rollouts=4,
                      rng=np.random.default_rng(2))
    assert rec.store.checksum() == rec_sum
    assert sim.flm.store.checksum() == flm_sum
    assert sim.clf_store.checksum() == clf_sum


def test_frozen_simulator_gives_the_same_gradient_bytes(monkeypatch):
    # reinforce_step freezes the simulator's stores; differentiating them
    # anyway must not change a bit of the edit gradient or the update
    results = []
    real_backward = ad.backward
    for freeze in (True, False):
        if not freeze:
            monkeypatch.setattr(ad, "frozen",
                                lambda *stores: contextlib.nullcontext())
        sim, rec, pair = tiny_sim()
        touched = []

        def recording(loss, params):
            # the simulator parameters on the objective's tape
            tape = set(ad._topo_order(loss))
            touched.extend(n for n, p in sim.flm.store.items() if p in tape)
            return real_backward(loss, params)

        monkeypatch.setattr(ad, "backward", recording)
        state = cf.make_edit_state(pair, 2, 5, np.random.default_rng(0))
        init = np.random.default_rng(6).normal(size=(2, state.k, 5)) * 0.3
        state.store["delta_u"].data, state.store["delta_v"].data = init
        stats = cf.reinforce_step(state, sim, rec, 0.1, 0.05, rollouts=4,
                                  rng=np.random.default_rng(17))
        results.append((stats["gradient"], state.store.values_dict(),
                        touched))
        assert all(p.requires_grad for store in (sim.flm.store, sim.clf_store)
                   for _, p in store.items())
    (g_frozen, after_frozen, touched), (g_free, after_free, touched_free) = \
        results
    assert state.k == 2
    assert touched == [] and touched_free  # only the free run reached them
    for name in ("delta_u", "delta_v"):
        assert g_frozen[name].tobytes() == g_free[name].tobytes()
        assert after_frozen[name].tobytes() == after_free[name].tobytes()


def _sims_and_pairs(world, request):
    if world == "tiny":
        sim, _, pair = tiny_sim()
        return sim, [pair]
    mini = request.getfixturevalue("mini")
    return mini.sim, mini.pairs[:6]


@pytest.mark.parametrize("world", ["tiny", "mini"])
def test_edited_prompts_with_zero_deltas_are_the_simulator_prompts(world,
                                                                  request):
    sim, pairs = _sims_and_pairs(world, request)
    for n, pair in enumerate(pairs):
        state = cf.make_edit_state(pair, 2, sim.entity_emb.shape[1],
                                   np.random.default_rng(n))
        for i in range(state.k):
            e_u, e_v = cf.edited_prompts(state, i, sim)
            assert (e_u.data.tobytes()
                    == sim.prompt(pair.u_entities).data.tobytes())
            assert (e_v.data.tobytes()
                    == sim.prompt(pair.v_entities).data.tobytes())


@pytest.mark.parametrize("world", ["tiny", "mini"])
def test_edited_prompt_gradients_equal_the_chain_over_the_edited_table(
        world, request):
    # the op-by-op attention pool over apply_edit's table is the oracle
    sim, pairs = _sims_and_pairs(world, request)
    d_e = sim.entity_emb.shape[1]
    w, b = sim.flm.store["flm.attn.w"], sim.flm.store["flm.attn.b"]
    for n, pair in enumerate(pairs):
        state = cf.make_edit_state(pair, 2, d_e, np.random.default_rng(n))
        rng = np.random.default_rng(100 + n)
        for name in ("delta_u", "delta_v"):
            state.store[name].data = rng.normal(
                size=state.store[name].shape) * 0.3
        weights = rng.normal(size=(2, d_e))

        for i in range(state.k):
            def chain(ids, positions, name):
                table = cf.apply_edit(
                    sim.entity_emb[np.asarray(ids, dtype=np.intp)],
                    [positions[i]], ad.rows(state.store[name], [i]))
                pooled = _chain_attention_pool(
                    table, np.arange(len(ids))[None], np.array([len(ids)]),
                    w, b)
                return ad.reshape(pooled, (-1,))

            results = []
            with ad.frozen(sim.flm.store, sim.clf_store):
                for e_u, e_v in (
                        cf.edited_prompts(state, i, sim),
                        (chain(pair.u_entities, state.positions_u, "delta_u"),
                         chain(pair.v_entities, state.positions_v,
                               "delta_v"))):
                    loss = (ad.tensor_sum(e_u * ad.Tensor(weights[0]))
                            + ad.tensor_sum(e_v * ad.Tensor(weights[1])))
                    results.append((e_u.data, e_v.data,
                                    ad.backward(loss, state.store)))
            (u, v, grads), (u_chain, v_chain, grads_chain) = results
            assert u.tobytes() == u_chain.tobytes()
            assert v.tobytes() == v_chain.tobytes()
            assert set(grads) == set(grads_chain) == {"delta_u", "delta_v"}
            for name in grads:
                assert grads[name].tobytes() == grads_chain[name].tobytes()


def test_large_lambda_shrinks_edit_norm_monotonically():
    sim, rec, pair = tiny_sim()
    state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
    rng0 = np.random.default_rng(8)
    state.store["delta_u"].data = rng0.normal(size=(1, 5))
    state.store["delta_v"].data = rng0.normal(size=(1, 5))
    rng = np.random.default_rng(11)
    norms = [state.edit_norm()]
    for _ in range(4):
        cf.reinforce_step(state, sim, rec, lam=200.0, alpha=1e-3, rollouts=4,
                          rng=rng, reward_fn=lambda realized: 1.0)
        norms.append(state.edit_norm())
    assert all(a > b for a, b in zip(norms, norms[1:])), norms


def test_non_finite_update_raises():
    sim, rec, pair = tiny_sim()
    state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
    with pytest.raises(cf.NonFiniteUpdate):
        cf.reinforce_step(state, sim, rec, 0.0, np.inf, rollouts=2,
                          rng=np.random.default_rng(0),
                          reward_fn=lambda realized: 1.0)


# -- EDA ops ------------------------------------------------------------------

def eda_world():
    types = {"g0": "genre", "g1": "genre", "m0": "item", "m1": "item",
             "a0": "actor"}
    triples = [("m0", "has_genre", "g0"), ("m1", "has_genre", "g1"),
               ("a0", "acted_in", "m0")]
    return kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                       [f"{e}\t{t}" for e, t in types.items()])


def test_eda_delete_length_one_gives_empty():
    kg = eda_world()
    flow, schema = cf.eda_delete([kg.entity_id("m0")], ("item",), 0)
    assert flow == [] and schema == ()


def test_eda_swap_same_position_is_identity():
    kg = eda_world()
    flow = [kg.entity_id("g0"), kg.entity_id("m0")]
    out_flow, out_schema = cf.eda_swap(flow, ("genre", "item"), 1, 1)
    assert out_flow == flow and out_schema == ("genre", "item")


def test_eda_replace_keeps_type():
    kg = eda_world()
    rng = np.random.default_rng(0)
    for _ in range(50):
        flow, schema = cf.eda_replace([kg.entity_id("m0")], ("item",), kg,
                                      rng)
        assert kg.type_name_of(flow[0]) == "item"


def test_eda_ops_keep_flow_schema_aligned():
    kg = eda_world()
    rng = np.random.default_rng(5)
    pools = {t: kg.entities_of_type(t) for t in kg.type_names}
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        schema = tuple(kg.type_names[rng.integers(len(kg.type_names))]
                       for _ in range(n))
        flow = [pools[t][rng.integers(len(pools[t]))] for t in schema]
        out_flow, out_schema = cf.eda_augment(flow, schema, kg, rng)
        assert len(out_flow) == len(out_schema)
        for eid, tname in zip(out_flow, out_schema):
            assert kg.type_name_of(eid) == tname
        checked += 1
    assert checked == 1000


def test_eda_rejects_empty_flow():
    kg = eda_world()
    with pytest.raises(ValueError):
        cf.eda_augment([], (), kg, np.random.default_rng(0))


# -- course loops --------------------------------------------------------------

def test_zero_courses_returns_pretrained_model(mini):
    rec = mini.fresh_rec()
    before = rec.store.checksum()
    cfg = RunConfig(courses=0, seed=0)
    log, sims = cf.train_augmented(rec, mini.sim, mini.pairs,
                                   mini.train_samples, mini.val_samples, cfg)
    assert log == [] and sims == []
    assert rec.store.checksum() == before


def test_curriculum_early_stops_and_restores_best(mini, scripted_evaluate):
    rec = mini.fresh_rec()
    seen = scripted_evaluate([0.2, 0.5, 0.4, 0.3, 0.9])
    cfg = RunConfig(courses=10, patience=2, course_rec_steps=2, rec_batch=8,
                    seed=0)
    log, _ = cf.train_baseline(rec, mini.train_samples, mini.val_samples,
                               cfg)
    assert [e["val_recall@50"] for e in log] == [0.2, 0.5, 0.4, 0.3]
    assert rec.store.checksum() == seen[1]
    assert len(set(seen)) == 4


def test_train_augmented_runs_and_logs(mini):
    rec = mini.fresh_rec()
    cfg = RunConfig(courses=2, rho=0.1, delta=0.9, alpha=1e-3,
                    rollouts=2, edit_steps=1, pairs_per_course=2,
                    sims_per_pair=1, course_rec_steps=5, rec_batch=16, seed=1)
    log, sims = cf.train_augmented(rec, mini.sim, mini.pairs,
                                   mini.train_samples, mini.val_samples, cfg)
    assert len(log) == 2
    assert log[0]["lambda"] == 0.1
    assert abs(log[1]["lambda"] - 0.09) < 1e-15
    for entry in log:
        assert {"course", "lambda", "mean_reward", "edit_norm",
                "val_recall@10", "val_recall@50"} <= set(entry)
    assert len(sims) == 2 * 2 * 1
    # simulated dialogues are drop-in corpus data
    from recflow import corpus as cp
    import json
    lines = [json.dumps(s.dialogue.to_record()) for s in sims]
    reloaded = cp.load_dialogues(lines)
    assert len(reloaded) == len(sims)


def test_train_augmented_never_touches_simulator(mini):
    rec = mini.fresh_rec()
    flm_sum = mini.sim.flm.store.checksum()
    clf_sum = mini.sim.clf_store.checksum()
    cfg = RunConfig(courses=1, rollouts=2, edit_steps=1,
                    pairs_per_course=2, sims_per_pair=1, course_rec_steps=3,
                    seed=2)
    cf.train_augmented(rec, mini.sim, mini.pairs, mini.train_samples,
                       mini.val_samples, cfg)
    assert mini.sim.flm.store.checksum() == flm_sum
    assert mini.sim.clf_store.checksum() == clf_sum


def test_train_augmented_simulates_from_untaped_prompts(mini, monkeypatch):
    # the simulation prompts are read, never differentiated
    seen = []
    simulate = pl.SimulatorBundle.simulate

    def recording(self, e_u, e_v, *args, **kwargs):
        seen.append((e_u, e_v))
        return simulate(self, e_u, e_v, *args, **kwargs)

    monkeypatch.setattr(pl.SimulatorBundle, "simulate", recording)
    cfg = RunConfig(courses=1, rollouts=2, edit_steps=1,
                    pairs_per_course=2, sims_per_pair=2, course_rec_steps=1,
                    seed=3)
    cf.train_augmented(mini.fresh_rec(), mini.sim, mini.pairs,
                       mini.train_samples, [], cfg)
    assert len(seen) == 2 * 2
    for prompt in (p for pair in seen for p in pair):
        assert isinstance(prompt, ad.Tensor) and not prompt.requires_grad


def test_train_augmented_seed_reproducible(mini):
    sums = []
    for _ in range(2):
        rec = mini.fresh_rec()
        cfg = RunConfig(courses=2, rollouts=2, edit_steps=1,
                        pairs_per_course=2, sims_per_pair=1,
                        course_rec_steps=5, seed=7)
        log, _ = cf.train_augmented(rec, mini.sim, mini.pairs,
                                    mini.train_samples, mini.val_samples,
                                    cfg)
        sums.append((rec.store.checksum(),
                     tuple(e["mean_reward"] for e in log)))
    assert sums[0] == sums[1]


def test_train_augmented_one_rgcn_forward_per_edit_phase(mini, monkeypatch):
    rec = mini.fresh_rec()
    forwards, steps = [], []
    rgcn_forward, reinforce_step = emb.rgcn_forward, cf.reinforce_step

    def counting_forward(*args, **kwargs):
        forwards.append(1)
        return rgcn_forward(*args, **kwargs)

    def counting_step(*args, **kwargs):
        steps.append(1)
        return reinforce_step(*args, **kwargs)

    monkeypatch.setattr(emb, "rgcn_forward", counting_forward)
    monkeypatch.setattr(cf, "reinforce_step", counting_step)
    # no fine-tuning steps and no validation: only the edit phase reads
    # the recommender
    cfg = RunConfig(courses=2, rollouts=2, edit_steps=2,
                    pairs_per_course=2, sims_per_pair=1, course_rec_steps=0,
                    seed=5)
    cf.train_augmented(rec, mini.sim, mini.pairs, mini.train_samples, [],
                       cfg)
    assert len(steps) == 2 * 2 * 2
    assert len(forwards) == 2


def test_per_course_reward_matches_fresh_reward_fn(mini, monkeypatch):
    rec = mini.fresh_rec()
    default_reward_fn = cf.default_reward_fn
    pairs = []

    def checked_reward_fn(rec_model, kg):
        shared = default_reward_fn(rec_model, kg)

        def reward(realized):
            value = shared(realized)
            pairs.append((value, default_reward_fn(rec_model, kg)(realized)))
            return value

        return reward

    monkeypatch.setattr(cf, "default_reward_fn", checked_reward_fn)
    # fine-tuning between the two courses changes the recommender, so the
    # second course must see a new table
    cfg = RunConfig(courses=2, rollouts=2, edit_steps=2,
                    pairs_per_course=2, sims_per_pair=1, course_rec_steps=3,
                    rec_lr=1e-2, seed=6)
    cf.train_augmented(rec, mini.sim, mini.pairs, mini.train_samples, [],
                       cfg)
    assert len(pairs) == 2 * 2 * 2 * 2
    assert any(shared != 0.0 for shared, _ in pairs)
    assert all(shared == fresh for shared, fresh in pairs)


def test_train_eda_runs(mini):
    rec = mini.fresh_rec()
    flow_pool = [ex for ex, _ in pl.corpus_flows(mini.world.train,
                                                 mini.world.kg)]
    cfg = RunConfig(courses=2, pairs_per_course=2, sims_per_pair=1,
                    course_rec_steps=5, seed=3)
    log, sims = cf.train_eda(rec, mini.sim.bank, mini.hkg, flow_pool,
                             mini.train_samples, mini.val_samples, cfg)
    assert len(log) == 2
    assert all(e["n_simulated"] >= 0 for e in log)


def test_train_baseline_runs(mini):
    rec = mini.fresh_rec()
    cfg = RunConfig(courses=2, course_rec_steps=5, seed=4)
    log, sims = cf.train_baseline(rec, mini.train_samples, mini.val_samples,
                                  cfg)
    assert len(log) == 2 and sims == []
