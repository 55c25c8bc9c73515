import gc
import math
import weakref

import chain_ops as co
import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import embeddings as emb
from recflow import kg as kgm


def build_hkg(triples, types, interactions=None):
    g = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                    [f"{e}\t{t}" for e, t in types.items()])
    return kgm.attach_users(g, interactions or {})


def dense_rgcn_oracle(hkg, store, num_layers, prefix="rgcn"):
    """Independent dense-matrix implementation of the same update rule."""
    h = store[f"{prefix}.node_emb"].data.copy()
    n = hkg.num_nodes
    for layer in range(num_layers):
        bases = store[f"{prefix}.l{layer}.bases"].data
        coeffs = store[f"{prefix}.l{layer}.coeffs"].data
        w_self = store[f"{prefix}.l{layer}.w_self"].data
        total = h @ w_self
        for rid, (_, src, dst) in enumerate(hkg.rgcn_relations()):
            if len(src) == 0:
                continue
            w_r = np.tensordot(coeffs[rid], bases, axes=(0, 0))
            adj = np.zeros((n, n))
            for s, d in zip(src, dst):
                adj[d, s] += 1.0
            deg = adj.sum(axis=1, keepdims=True)
            adj = np.divide(adj, deg, out=np.zeros_like(adj), where=deg > 0)
            total += adj @ h @ w_r
        h = np.tanh(total)
    return h


def test_rgcn_single_node_identity_self_loop():
    hkg = build_hkg([("a", "self", "a")], {"a": "item"})
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=3, num_layers=1, num_bases=1,
                         rng=np.random.default_rng(0))
    store["rgcn.l0.w_self"].data = np.eye(3)
    store["rgcn.l0.coeffs"].data = np.zeros_like(store["rgcn.l0.coeffs"].data)
    out = emb.rgcn_forward(hkg, store, num_layers=1)
    assert np.allclose(out.data, np.tanh(store["rgcn.node_emb"].data))


def test_rgcn_zero_message_weights_leave_only_self_path():
    hkg = build_hkg([("a", "r", "b")], {"a": "item", "b": "genre"})
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=4, num_layers=1, num_bases=2,
                         rng=np.random.default_rng(1))
    store["rgcn.l0.coeffs"].data = np.zeros_like(store["rgcn.l0.coeffs"].data)
    out = emb.rgcn_forward(hkg, store, num_layers=1)
    expected = np.tanh(store["rgcn.node_emb"].data
                       @ store["rgcn.l0.w_self"].data)
    assert np.allclose(out.data, expected)


def test_rgcn_matches_dense_oracle():
    triples = [("a", "r1", "b"), ("b", "r1", "c"), ("c", "r2", "a"),
               ("d", "r2", "b"), ("e", "r1", "e")]
    types = {x: "item" for x in "abcde"}
    hkg = build_hkg(triples, types, {"u": ["a", "c"]})
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=5, num_layers=2, num_bases=3,
                         rng=np.random.default_rng(7))
    out = emb.rgcn_forward(hkg, store, num_layers=2)
    oracle = dense_rgcn_oracle(hkg, store, num_layers=2)
    assert np.max(np.abs(out.data - oracle)) < 1e-10


def test_rgcn_matches_dense_oracle_with_edgeless_relation():
    # no users attached, so the "interacted" relation and its inverse have
    # no edges and contribute nothing
    triples = [("a", "r1", "b"), ("b", "r1", "c"), ("c", "r2", "a"),
               ("a", "r2", "c"), ("d", "r2", "b")]
    hkg = build_hkg(triples, {x: "item" for x in "abcd"})
    assert any(len(src) == 0 for _, src, _ in hkg.rgcn_relations())
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=4, num_layers=2, num_bases=3,
                         rng=np.random.default_rng(8))
    out = emb.rgcn_forward(hkg, store, num_layers=2)
    oracle = dense_rgcn_oracle(hkg, store, num_layers=2)
    assert np.max(np.abs(out.data - oracle)) < 1e-10


def test_rgcn_plan_built_once_per_graph(monkeypatch):
    hkg = build_hkg([("a", "r1", "b"), ("b", "r2", "c")],
                    {"a": "item", "b": "genre", "c": "item"}, {"u": ["a"]})
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=3, num_layers=2, num_bases=2,
                         rng=np.random.default_rng(0))
    calls = []
    relations = hkg.rgcn_relations
    monkeypatch.setattr(hkg, "rgcn_relations",
                        lambda: calls.append(1) or relations())
    first = emb.rgcn_forward(hkg, store, num_layers=2).data
    for _ in range(4):
        again = emb.rgcn_forward(hkg, store, num_layers=2).data
        assert np.array_equal(again, first)
    assert len(calls) == 1


def test_rgcn_plan_lives_and_dies_with_its_graph():
    # the plan is kept on the graph: a cache keyed by id() would outlive the
    # graph and could hand its plan to a new graph that reuses the id
    dead = []
    for size in range(2, 7):
        names = [f"e{i}" for i in range(size)]
        triples = [(a, "r", b) for a, b in zip(names, names[1:])]
        hkg = build_hkg(triples, {x: "item" for x in names},
                        {"u": names[:size // 2]})
        assert hkg.rgcn_plan() is hkg.rgcn_plan()
        store = ad.ParamStore()
        emb.init_rgcn_params(store, hkg, d_e=3, num_layers=1, num_bases=2,
                             rng=np.random.default_rng(size))
        out = emb.rgcn_forward(hkg, store, num_layers=1)
        oracle = dense_rgcn_oracle(hkg, store, num_layers=1)
        assert np.max(np.abs(out.data - oracle)) < 1e-10
        dead.append(weakref.ref(hkg.rgcn_plan()))
        del hkg, out
        gc.collect()
        assert dead[-1]() is None


def random_hkg(seed, num_entities=14, num_users=5):
    """A random typed graph with user nodes, as ``attach_users`` builds it."""
    rng = np.random.default_rng(seed)
    names = [f"e{i}" for i in range(num_entities)]
    triples = {(names[a], f"r{rng.integers(3)}", names[b])
               for a, b in rng.integers(0, num_entities, (3 * num_entities, 2))}
    used = sorted({x for h, _, t in triples for x in (h, t)})
    users = {f"u{i}": list(rng.choice(used, size=rng.integers(1, 4)))
             for i in range(num_users)}
    return build_hkg(sorted(triples), {x: "item" for x in names}, users)


def isolated_node_hkg():
    """Node 2 has no edges at all, so a sub-plan computing it is empty."""
    base = kgm.KnowledgeGraph(["a", "b", "c"], [0, 0, 0], ["item"], ["r"],
                              [(0, 0, 1)])
    return kgm.HeterogeneousKG(base=base, users=[], interactions={})


def rgcn_store(hkg, num_layers, seed):
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=4, num_layers=num_layers,
                         num_bases=2, rng=np.random.default_rng(seed))
    return store


@pytest.mark.parametrize("num_layers", [1, 2])
def test_rgcn_rows_equal_the_full_tables_rows(num_layers):
    hkg = random_hkg(3)
    store = rgcn_store(hkg, num_layers, 4)
    full = emb.rgcn_forward(hkg, store, num_layers=num_layers).data
    n, users = hkg.num_nodes, hkg.base.num_entities
    for rows in ([1, 5, 9], [0, users, n - 1], [users + 1], np.arange(n)):
        out = emb.rgcn_forward(hkg, store, num_layers=num_layers, rows=rows)
        # == with OpenBLAS, except for one row, which numpy multiplies with
        # gemv rather than gemm; BLAS promises neither
        assert np.allclose(out.data, full[np.asarray(rows)], rtol=0,
                           atol=1e-12)


@pytest.mark.parametrize("rows", [[5, 1, 9], [1, 5, 5, 9]])
def test_rgcn_rows_that_are_not_increasing_are_rejected(rows):
    hkg = random_hkg(3)
    store = rgcn_store(hkg, 2, 4)
    with pytest.raises(ValueError):
        emb.rgcn_forward(hkg, store, num_layers=2, rows=rows)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_rgcn_row_with_no_in_edges_forward_and_vjp(num_layers):
    hkg = isolated_node_hkg()
    layers = hkg.rgcn_layer_plans(np.array([2]), num_layers)
    assert all(len(plan.src) == 0 for plan, _ in layers)
    store = rgcn_store(hkg, num_layers, 5)
    weights = ad.Tensor(np.random.default_rng(6).normal(size=(1, 4)))

    def grads(full):
        out = emb.rgcn_forward(hkg, store, num_layers=num_layers,
                               rows=None if full else [2])
        if full:
            out = ad.rows(out, [2])
        return out.data, ad.backward(ad.tensor_sum(out * weights), store)

    (sub, g_sub), (full, g_full) = grads(False), grads(True)
    assert np.allclose(sub, full, rtol=0, atol=1e-12)
    assert g_sub.keys() == g_full.keys()
    for name in g_full:
        assert np.allclose(g_sub[name], g_full[name], rtol=0,
                           atol=1e-12), name


@pytest.mark.parametrize("num_layers", [1, 2])
def test_segment_sum_through_sub_plans_equals_full_plan(num_layers):
    # numpy-only arithmetic, so the sums are == and not just close
    hkg = random_hkg(7)
    plan = hkg.rgcn_plan()
    num_rel = plan.num_segments // hkg.num_nodes
    rng = np.random.default_rng(8)
    x = rng.normal(size=(hkg.num_nodes, 3))
    out = np.unique(rng.integers(0, hkg.num_nodes, 4))
    layers = hkg.rgcn_layer_plans(out, num_layers)
    rows = np.arange(hkg.num_nodes)  # the first layer reads every node
    for sub, keep in layers:
        inputs = rows if sub is layers[0][0] else sub.sources
        assert np.array_equal(inputs, rows)
        rows = inputs[keep]
        segs = (rows[:, None] * num_rel + np.arange(num_rel)).ravel()
        assert np.array_equal(sub.apply(x[inputs]), plan.apply(x)[segs])
        g = np.zeros((plan.num_segments, 3))
        g[segs] = rng.normal(size=(len(segs), 3))
        assert np.array_equal(sub.T.apply(g[segs]),
                              plan.T.apply(g)[inputs])
    assert np.array_equal(rows, out)


def test_rgcn_grad_check_through_two_layers_of_rows():
    hkg = random_hkg(9, num_entities=6, num_users=2)
    store = rgcn_store(hkg, 2, 10)
    weights = ad.Tensor(np.random.default_rng(11).normal(size=(2, 4)))

    def f(s):
        out = emb.rgcn_forward(hkg, s, num_layers=2, rows=[0, 4])
        return ad.tensor_sum(co.tanh(out) * weights)

    assert co.grad_check(f, store, eps=1e-5) < 1e-4


def test_rgcn_edge_offsets_built_once_per_graph(monkeypatch):
    # the sub-plans select segments from the rank-major schedules of the
    # graph's plan and its transpose, which are built once and kept on the
    # plan (and so the graph)
    hkg = random_hkg(12)
    store = rgcn_store(hkg, 2, 13)
    plan = hkg.rgcn_plan()
    calls = []
    monkeypatch.setattr(hkg, "rgcn_relations", lambda: calls.append(1))
    first = emb.rgcn_forward(hkg, store, num_layers=2, rows=[1, 3]).data
    schedules = plan._whole, plan.T._whole
    for _ in range(4):
        again = emb.rgcn_forward(hkg, store, num_layers=2, rows=[1, 3]).data
        assert np.array_equal(again, first)
    assert hkg.rgcn_plan() is plan and not calls
    assert plan._whole is schedules[0] and plan.T._whole is schedules[1]


def test_rgcn_edge_offsets_live_and_die_with_their_graph():
    for seed in range(5):
        hkg = random_hkg(seed, num_entities=4 + seed)
        store = rgcn_store(hkg, 1, seed)
        out = emb.rgcn_forward(hkg, store, num_layers=1, rows=[0, 2])
        full = emb.rgcn_forward(hkg, store, num_layers=1).data
        assert np.array_equal(out.data, full[[0, 2]])
        dead = [weakref.ref(hkg.rgcn_plan()._whole),
                weakref.ref(hkg.rgcn_plan().T._whole)]
        del hkg, out
        gc.collect()
        assert all(ref() is None for ref in dead)


def test_rgcn_rejects_excess_bases():
    hkg = build_hkg([("a", "r", "b")], {"a": "item", "b": "genre"})
    store = ad.ParamStore()
    with pytest.raises(ValueError):
        emb.init_rgcn_params(store, hkg, d_e=4, num_layers=1, num_bases=99,
                             rng=np.random.default_rng(0))


def test_rgcn_grad_check_through_one_layer():
    hkg = build_hkg([("a", "r1", "b"), ("b", "r2", "c")],
                    {"a": "item", "b": "genre", "c": "item"})
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=3, num_layers=1, num_bases=2,
                         rng=np.random.default_rng(3))

    def f(s):
        out = emb.rgcn_forward(hkg, s, num_layers=1)
        return ad.tensor_sum(out * out)

    assert co.grad_check(f, store, eps=1e-5) < 1e-4


def _preference(matrix, w_attn, b_attn):
    """e_u of one user: every row of ``matrix`` pooled as one list."""
    ids = list(range(matrix.shape[0]))
    return ad.reshape(emb.pool_entities(matrix, [ids], w_attn, b_attn), (-1,))


def test_preference_single_entity():
    store = ad.ParamStore()
    emb.init_attention_params(store, d_e=4, rng=np.random.default_rng(0))
    row = np.array([[0.5, -1.0, 0.25, 2.0]])
    e_u = _preference(ad.Tensor(row), store["attn.w"], store["attn.b"])
    assert np.allclose(e_u.data, row[0])


def test_preference_identical_entities():
    store = ad.ParamStore()
    emb.init_attention_params(store, d_e=3, rng=np.random.default_rng(2))
    row = np.array([0.3, -0.7, 0.1])
    mat = np.tile(row, (5, 1))
    e_u = _preference(ad.Tensor(mat), store["attn.w"], store["attn.b"])
    assert np.allclose(e_u.data, row)


def test_preference_hand_computed_two_entities():
    # identity W, b = [1, 2]; scores are tanh(E) @ b, spelled out by hand
    e = np.array([[0.5, -0.25], [0.1, 0.3]])
    s1 = math.tanh(0.5) * 1.0 + math.tanh(-0.25) * 2.0
    s2 = math.tanh(0.1) * 1.0 + math.tanh(0.3) * 2.0
    z1, z2 = math.exp(s1), math.exp(s2)
    a1, a2 = z1 / (z1 + z2), z2 / (z1 + z2)
    expected_e_u = np.array([a1 * 0.5 + a2 * 0.1, a1 * -0.25 + a2 * 0.3])

    e_u = _preference(ad.Tensor(e), ad.Tensor(np.eye(2)),
                      ad.Tensor(np.array([[1.0], [2.0]])))
    assert np.allclose(e_u.data, expected_e_u, atol=1e-12, rtol=0)


def test_preference_permutation_invariant():
    rng = np.random.default_rng(11)
    store = ad.ParamStore()
    emb.init_attention_params(store, d_e=4, rng=rng)
    mat = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    a = _preference(ad.Tensor(mat), store["attn.w"], store["attn.b"])
    b = _preference(ad.Tensor(mat[perm]), store["attn.w"], store["attn.b"])
    assert np.allclose(a.data, b.data)


def test_preference_grad_check():
    rng = np.random.default_rng(5)
    store = ad.ParamStore()
    emb.init_attention_params(store, d_e=3, rng=rng)
    store.add("E", rng.normal(size=(4, 3)) * 0.5)

    def f(s):
        e_u = _preference(s["E"], s["attn.w"], s["attn.b"])
        return ad.tensor_sum(e_u * e_u)

    assert co.grad_check(f, store, eps=1e-5) < 1e-4


def test_pool_entities_ragged_batch_matches_per_list_calls():
    rng = np.random.default_rng(12)
    d_e = 6
    store = ad.ParamStore()
    emb.init_attention_params(store, d_e=d_e, rng=rng)
    table = rng.normal(size=(20, d_e))
    id_lists = [[3, 7, 7, 1], [], [5], [0, 19, 2, 8, 4, 11, 6, 9, 13], [2, 2]]
    weights = rng.normal(size=(len(id_lists), d_e))

    pooled = emb.pool_entities(table, id_lists, store["attn.w"],
                               store["attn.b"])
    grads_b = ad.backward(ad.tensor_sum(pooled * ad.Tensor(weights)), store)

    assert np.all(pooled.data[1] == 0.0)
    grads_s = {name: np.zeros_like(store[name].data)
               for name in ("attn.w", "attn.b")}
    for i, ids in enumerate(id_lists):
        if not ids:
            continue
        e_u = co.take(emb.pool_entities(table, [ids], store["attn.w"],
                                        store["attn.b"]), 0)
        assert np.allclose(pooled.data[i], e_u.data, rtol=0, atol=1e-12)
        g = ad.backward(ad.tensor_sum(e_u * ad.Tensor(weights[i])), store)
        for name in grads_s:
            grads_s[name] += g[name]
    for name, g in grads_s.items():
        assert np.allclose(grads_b[name], g, rtol=0, atol=1e-12), name


def _loop_padded(id_lists):
    # the Python padding loop IdLists replaces
    lens = np.array([len(c) for c in id_lists], dtype=np.intp)
    ids = np.zeros((len(lens), max(int(lens.max(initial=0)), 1)),
                   dtype=np.intp)
    for i, ctx in enumerate(id_lists):
        ids[i, :len(ctx)] = ctx
    return ids


@pytest.mark.parametrize("picks", [[0, 1, 2, 3, 4], [1, 1], [4, 0, 4, 2],
                                   [3]])
def test_id_lists_take_and_pad_as_the_loop_does(picks):
    id_lists = [[3, 7, 7, 1], [], [5], [0, 19, 2, 8, 4, 11, 6, 9, 13], (2, 2)]
    packed = emb.IdLists.pack(id_lists).take(np.array(picks))
    chosen = [id_lists[i] for i in picks]
    assert packed.padded().tobytes() == _loop_padded(chosen).tobytes()
    assert packed.padded().shape == _loop_padded(chosen).shape
    assert list(packed.lens) == [len(c) for c in chosen]
    # other values at the same positions: the padding stays zero
    assert packed.padded(packed.ids + 100).tobytes() == _loop_padded(
        [[e + 100 for e in c] for c in chosen]).tobytes()
