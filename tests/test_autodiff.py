from types import SimpleNamespace

import chain_ops as co
import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import embeddings as emb
from recflow import synthetic as syn
from recflow.errors import NumericError
from recflow.recommender import EarlyStopping


def test_backward_sum_of_squares_at_zero():
    store = ad.ParamStore()
    p = store.add("p", np.zeros(5))
    loss = ad.tensor_sum(p * p)
    grads = ad.backward(loss, store)
    assert np.array_equal(grads["p"], np.zeros(5))


def test_backward_linear_case():
    store = ad.ParamStore()
    w = store.add("w", np.zeros(3))
    x = ad.Tensor([1.0, 2.0, 3.0])
    loss = ad.tensor_sum(w * x)
    grads = ad.backward(loss, store)
    assert np.array_equal(grads["w"], np.array([1.0, 2.0, 3.0]))


def test_backward_rejects_non_scalar_loss():
    store = ad.ParamStore()
    p = store.add("p", np.ones(3))
    with pytest.raises(NumericError, match=r"^loss has shape \(3,\)$"):
        ad.backward(p * p, store)


def test_backward_three_layer_composition_matches_finite_differences():
    rng = np.random.default_rng(7)
    store = ad.ParamStore()
    store.add("W1", rng.normal(size=(4, 3)) * 0.5)
    store.add("b1", rng.normal(size=(1, 4)) * 0.1)
    store.add("W2", rng.normal(size=(4, 4)) * 0.5)
    store.add("b2", rng.normal(size=(1, 4)) * 0.1)
    store.add("w3", rng.normal(size=(1, 4)))
    x = ad.Tensor(rng.normal(size=(3, 1)))

    def f(s):
        h1 = co.tanh(co.transpose(s["W1"] @ x) + s["b1"])
        h2 = co.tanh(h1 @ co.transpose(s["W2"]) + s["b2"])
        return ad.tensor_sum(s["w3"] * h2)

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def test_grad_check_quadratic_form():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    store = ad.ParamStore()
    store.add("p", rng.normal(size=(4, 1)))

    def f(s):
        return ad.tensor_sum(co.transpose(s["p"]) @ ad.Tensor(a) @ s["p"])

    assert co.grad_check(f, store, eps=1e-5) < 1e-9


def test_grad_check_softmax_cross_entropy_head():
    rng = np.random.default_rng(11)
    store = ad.ParamStore()
    store.add("W", rng.normal(size=(5, 3)) * 0.3)
    store.add("b", rng.normal(size=(5, 1)) * 0.1)
    x = ad.Tensor(rng.normal(size=(3, 1)))

    def f(s):
        logits = ad.reshape(s["W"] @ x + s["b"], (1, 5))
        return -co.take(co.log_softmax(logits, axis=-1), (0, 2))

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def test_grad_check_flags_corrupted_gradient():
    store = ad.ParamStore()
    store.add("p", np.array([0.3, -0.2, 0.5]))

    def f(s):
        t = s["p"]
        out = (t.data ** 2).sum()

        def vjp(g):
            return ((2.0 * t.data + 0.1) * g,)  # planted +0.1 fault

        return ad._make(np.asarray(out), (t,), vjp)

    assert co.grad_check(f, store, eps=1e-5) > 1e-2


def test_softmax_log_softmax_consistency():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(2, 6)))
    s = co.softmax(x, axis=-1)
    ls = co.log_softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0)
    assert np.allclose(np.log(s.data), ls.data)


def test_optimizer_zero_grad_zero_decay_is_identity():
    store = ad.ParamStore()
    store.add("p", np.array([1.0, -2.0]))
    before = store["p"].data.copy()
    ad.optimizer_step(store, {"p": np.zeros(2)}, lr=0.1)
    assert np.array_equal(store["p"].data, before)
    assert store.step_count == 1


def test_optimizer_converges_on_convex_quadratic():
    rng = np.random.default_rng(123)
    target = rng.normal(size=6) * 0.5
    store = ad.ParamStore()
    store.add("p", np.zeros(6))
    loss_val = None
    for _ in range(200):
        diff = co.sub(store["p"], ad.Tensor(target))
        loss = ad.tensor_sum(diff * diff)
        grads = ad.backward(loss, store)
        ad.optimizer_step(store, grads, lr=0.05)
        loss_val = loss.item()
    assert loss_val < 1e-6


def test_optimizer_rejects_non_finite_gradient():
    store = ad.ParamStore()
    store.add("p", np.ones(2))
    with pytest.raises(NumericError,
                       match="^non-finite gradient for parameter 'p'$"):
        ad.optimizer_step(store, {"p": np.array([np.nan, 0.0])}, lr=0.1)


def _reference_adam(params, state, grads, lr, betas=(0.9, 0.999), eps=1e-8):
    """The per-tensor Adam loop, the oracle of the fused step: ``params``
    maps names to arrays, ``state`` holds each name's moments and count."""
    b1, b2 = betas
    for name, g in grads.items():
        st = state.setdefault(name, {"m": np.zeros_like(params[name]),
                                     "v": np.zeros_like(params[name]), "t": 0})
        st["t"] += 1
        t, m, v = st["t"], st["m"], st["v"]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        denom = np.sqrt(v * (1.0 / (1.0 - b2 ** t)))
        denom += eps
        step = m / denom
        step *= lr / (1.0 - b1 ** t)
        params[name] = params[name] - step


def _assert_same_bytes(store, arrays):
    for name, arr in arrays.items():
        assert store[name].data.tobytes() == arr.tobytes(), name


def test_fused_step_equals_per_tensor_reference():
    rng = np.random.default_rng(31)
    shapes = {"w": (3, 4), "b": (4,), "s": (), "k": (2, 3, 2), "e": (5, 1)}
    store = ad.ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    ref, state = store.values_dict(), {}

    def step(names):
        grads = {n: rng.normal(size=shapes[n]) for n in names}
        ad.optimizer_step(store, grads, lr=0.05)
        _reference_adam(ref, state, grads, lr=0.05)
        _assert_same_bytes(store, ref)

    for _ in range(3):
        step(list(shapes))
    step(["e", "w", "s", "k", "b"])  # not in store order
    loaded = {n: rng.normal(size=shapes[n]) for n in ("w", "k")}
    store.load_values(loaded)
    ref.update({n: a.copy() for n, a in loaded.items()})
    for _ in range(2):
        step(list(shapes))
    store["b"].data = rng.normal(size=shapes["b"])
    ref["b"] = store["b"].data.copy()
    for _ in range(2):
        step(list(shapes))
    assert store.step_count == 8
    assert all(p.data.base is store._flat for _, p in store.items())


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c")],
                         ids=["missing", "extra"])
def test_optimizer_rejects_missing_or_extra_gradients(names):
    init = np.random.default_rng(9).normal(size=(2, 3))
    store = ad.ParamStore()
    for name, row in zip("ab", init):
        store.add(name, row)
    ad.optimizer_step(store, {n: np.full(3, 0.5) for n in "ab"}, lr=0.1)
    before = store.values_dict()
    with pytest.raises(ValueError):
        ad.optimizer_step(store, {n: np.ones(3) for n in names}, lr=0.1)
    assert store.step_count == 1
    _assert_same_bytes(store, before)


def test_param_store_rejects_add_after_a_step():
    store = ad.ParamStore()
    store.add("p", np.ones(2))
    ad.optimizer_step(store, {"p": np.ones(2)}, lr=0.1)
    with pytest.raises(ValueError):
        store.add("late", np.ones(2))
    assert store.names() == ["p"]


def test_non_finite_gradient_leaves_the_store_unchanged():
    init = np.random.default_rng(8).normal(size=(3, 2))
    good = {name: np.full(2, 0.5 * (i + 1)) for i, name in enumerate("abc")}
    stores = []
    for _ in range(2):
        stores.append(ad.ParamStore())
        for name, row in zip("abc", init):
            stores[-1].add(name, row)
        ad.optimizer_step(stores[-1], good, lr=0.1)
    store, twin = stores
    before = store.values_dict()
    with pytest.raises(NumericError,
                       match="^non-finite gradient for parameter 'b'$"):
        ad.optimizer_step(store, {**good, "b": np.array([0.0, np.nan])},
                          lr=0.1)
    assert store.step_count == 1
    _assert_same_bytes(store, before)
    # moments and step counts are unchanged too: the next step matches a
    # store that never saw the bad gradient
    for s in stores:
        ad.optimizer_step(s, good, lr=0.1)
    _assert_same_bytes(store, twin.values_dict())


def test_snapshots_are_not_aliased_to_the_flat_buffer():
    rng = np.random.default_rng(12)
    store = ad.ParamStore()
    store.add("w", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=2))
    ref, state = store.values_dict(), {}

    def step():
        grads = {n: rng.normal(size=a.shape) for n, a in ref.items()}
        ad.optimizer_step(store, grads, lr=0.1)
        _reference_adam(ref, state, grads, lr=0.1)
        _assert_same_bytes(store, ref)

    step()
    stopper = EarlyStopping(store, patience=2)
    stopper.update(1.0)
    snapshot = {n: a.copy() for n, a in stopper.best.items()}
    for _ in range(3):
        step()
    assert store["w"].data.tobytes() != snapshot["w"].tobytes()
    stopper.restore()
    _assert_same_bytes(store, snapshot)
    ref.update({n: a.copy() for n, a in snapshot.items()})
    for _ in range(2):
        step()
    for name, arr in snapshot.items():
        assert stopper.best[name].tobytes() == arr.tobytes()


def test_param_store_rejects_duplicate_names():
    store = ad.ParamStore()
    store.add("p", np.ones(2))
    with pytest.raises(ValueError, match="^duplicate parameter 'p'$"):
        store.add("p", np.ones(2))


def test_checkpoint_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    store = ad.ParamStore()
    store.add("layer.weight", rng.normal(size=(3, 4)))
    store.add("layer.bias", rng.normal(size=(4,)))
    store.add("scalar", np.array(0.25))
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    ad.save_checkpoint(p1, store)
    loaded = ad.load_checkpoint(p1)
    other = ad.ParamStore()
    for name, arr in loaded.items():
        other.add(name, arr)
    ad.save_checkpoint(p2, other)
    assert p1.read_bytes() == p2.read_bytes()
    for name, p in store.items():
        assert np.array_equal(loaded[name], p.data)


def test_checkpoint_preserves_float32(tmp_path):
    path = tmp_path / "f32.ckpt"
    ad.save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    loaded = ad.load_checkpoint(path)
    assert loaded["w"].dtype == np.float32


def test_truncated_checkpoint_raises_value_error(tmp_path):
    store = ad.ParamStore()
    store.add("layer.weight", np.ones((2, 3)))
    store.add("scalar", np.array(0.5))
    full = tmp_path / "full.ckpt"
    ad.save_checkpoint(full, store)
    blob = full.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError):
            ad.load_checkpoint(cut)


def _one_entry_checkpoint(tmp_path):
    path = tmp_path / "w.ckpt"
    ad.save_checkpoint(path, {"w": np.ones((2, 2))})
    return path


def test_checkpoint_with_an_unknown_dtype_tag_raises_value_error(tmp_path):
    path = _one_entry_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    tag_at = 8 + 4 + len("w")  # header, name length, name
    assert blob[tag_at] == 0
    blob[tag_at] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="dtype tag"):
        ad.load_checkpoint(path)


def test_checkpoint_with_trailing_bytes_raises_value_error(tmp_path):
    path = _one_entry_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ValueError, match="trailing"):
        ad.load_checkpoint(path)


def test_no_grad_suppresses_tape():
    store = ad.ParamStore()
    p = store.add("p", np.ones(3))
    with ad.no_grad():
        out = ad.tensor_sum(p * p)
    assert not out.requires_grad


def test_batched_matmul_gradients():
    rng = np.random.default_rng(9)
    store = ad.ParamStore()
    store.add("A", rng.normal(size=(2, 3, 4)) * 0.3)
    store.add("B", rng.normal(size=(4, 5)) * 0.3)

    def f(s):
        return ad.tensor_sum(co.tanh(s["A"] @ s["B"]))

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def test_take_and_aggregate_gradients():
    rng = np.random.default_rng(21)
    store = ad.ParamStore()
    store.add("E", rng.normal(size=(5, 3)) * 0.5)
    idx = np.array([0, 2, 2, 4])
    dst = np.array([0, 1, 1, 0])
    w = np.array([1.0, 0.5, 0.5, 1.0])
    plan = ad.SegmentPlan(idx, dst, w, num_segments=2, num_sources=5)

    def f(s):
        agg = co.segment_sum(s["E"], plan)
        return ad.tensor_sum(co.tanh(ad.rows(agg, [1, 1, 0])))

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


# explicit ids keep each case's name when cases are added or removed
@pytest.mark.parametrize("key", [
    np.array([0, 2, 3, 6]),                         # strictly increasing
    np.array([3, 1, 1, 6]),                         # duplicates
    np.array([-1, 2, 6]),                           # -1 and 6 are one row
    np.array([], dtype=np.intp),
], ids=["key0", "key2", "key3", "key5"])
def test_take_vjp_is_bitwise_scatter_add(key):
    a = ad.Tensor(np.zeros((7, 3)), requires_grad=True)
    out = ad.rows(a, key)
    g = np.random.default_rng(5).normal(size=out.shape)
    g.flat[::2] = -0.0
    expected = np.zeros((7, 3))
    np.add.at(expected, key, g)
    got = out._vjp(g)[0]
    assert got.tobytes() == expected.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


@pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 2, 3), (50, 32)])
def test_take_vjp_of_a_padded_id_matrix_is_bitwise_scatter_add(shape):
    # like pool_entities' padded id matrix: repeated ids, padding with id 0
    rng = np.random.default_rng(6)
    ids = rng.integers(0, shape[0], size=(20, 32))
    ids[:, 20:] = 0
    key = ids.reshape(-1)
    a = ad.Tensor(np.zeros(shape), requires_grad=True)
    out = ad.rows(a, key)
    g = rng.normal(size=out.shape)
    g.flat[::3] = -0.0
    expected = np.zeros(shape)
    np.add.at(expected, key, g)
    assert out._vjp(g)[0].tobytes() == expected.tobytes()


def test_segment_sum_matches_scatter_and_tensors_are_f64():
    rng = np.random.default_rng(4)
    src = np.array([3, 0, 3, 1, 2, 3])
    seg = np.array([2, 0, 0, 2, 5, 2])
    w = rng.uniform(0.1, 1.0, size=6)
    plan = ad.SegmentPlan(src, seg, w, num_segments=6, num_sources=4)
    x = rng.normal(size=(4, 3))
    expected = np.zeros((6, 3))
    np.add.at(expected, seg, w[:, None] * x[src])
    assert np.allclose(plan.apply(x), expected, atol=1e-12, rtol=0)
    assert ad.Tensor(x.astype(np.float32)).data.dtype == np.float64


def test_segment_sum_empty_plan_gives_zeros():
    plan = ad.SegmentPlan([], [], [], num_segments=3, num_sources=2)
    store = ad.ParamStore()
    store.add("x", np.ones((2, 4)))
    out = co.segment_sum(store["x"], plan)
    assert np.array_equal(out.data, np.zeros((3, 4)))
    grads = ad.backward(ad.tensor_sum(out), store)
    assert np.array_equal(grads["x"], np.zeros((2, 4)))


# -- segment sums against np.add.reduceat -------------------------------------

def _reduceat_apply(src, seg, w, num_segments, x):
    """The reference segment sum: each segment's weighted terms, gathered in
    edge order, summed by one ``np.add.reduceat``."""
    order = np.argsort(seg, kind="stable")
    vals = np.take(x, src[order], axis=0)
    vals *= w[order][:, None]
    starts = np.flatnonzero(np.diff(seg[order], prepend=-1))
    out = np.zeros((num_segments, x.shape[1]))
    if len(starts):
        out[seg[order][starts]] = np.add.reduceat(vals, starts, axis=0)
    return out


def _reduceat_restrict(plan, segments, sources=None):
    """The reference for ``SegmentPlan.restrict``: the full plan's reduceat
    sums at ``segments``, and the transposed sums at the sources, with the
    segments left out reading zero rows."""
    seg, src, w, num_sources, num_segments = plan._transposed
    rows = np.arange(num_sources)
    if sources is not None:
        rows = np.union1d(src[np.isin(seg, segments)], sources)

    def apply(x):
        full = np.zeros((num_sources, x.shape[1]))
        full[rows] = x
        return _reduceat_apply(src, seg, w, num_segments, full)[segments]

    def apply_t(g):
        full = np.zeros((num_segments, g.shape[1]))
        full[segments] = g
        return _reduceat_apply(seg, src, w, num_sources, full)[rows]

    sub = SimpleNamespace(apply=apply, T=SimpleNamespace(apply=apply_t))
    if sources is not None:
        sub.sources = rows
    return sub


NUM_SOURCES = 40


def _random_plan(seed):
    """Plan arguments whose segments have 0 to 300 edges: empty ones, single
    terms, sums of fewer than 9, of 9 to 129 (numpy's 8 accumulators) and of
    more (hubs); None gives an edgeless plan."""
    if seed is None:
        empty = np.array([], dtype=np.intp)
        return empty, empty, np.array([]), 6
    rng = np.random.default_rng(seed)
    lens = np.concatenate([rng.integers(lo, hi, k) for lo, hi, k in (
        (0, 1, 4), (1, 2, 4), (2, 9, 12), (9, 130, 10), (130, 301, 2))])
    rng.shuffle(lens)
    seg = np.repeat(np.arange(len(lens)), lens)
    rng.shuffle(seg)
    src = rng.integers(0, NUM_SOURCES, len(seg))
    return src, seg, rng.uniform(0.1, 1.0, len(seg)), len(lens)


def _rows(rng, n, d=5):
    """Values across many magnitudes, with -0.0 entries and -0.0 rows."""
    x = rng.normal(size=(n, d)) * np.exp(4 * rng.normal(size=(n, d)))
    x[rng.random((n, d)) < 0.1] = -0.0
    x[:3] = -0.0
    return x


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
def test_segment_sum_is_bit_equal_to_reduceat(seed):
    src, seg, w, num_segments = _random_plan(seed)
    plan = ad.SegmentPlan(src, seg, w, num_segments, NUM_SOURCES)
    rng = np.random.default_rng(seed)
    x, g = _rows(rng, NUM_SOURCES), _rows(rng, num_segments)
    out = co.segment_sum(ad.Tensor(x, requires_grad=True), plan)
    assert out.data.tobytes() == _reduceat_apply(src, seg, w, num_segments,
                                                 x).tobytes()
    assert out._vjp(g)[0].tobytes() == _reduceat_apply(
        seg, src, w, NUM_SOURCES, g).tobytes()
    # every sum of -0.0 terms is -0.0, padded or not
    zeros = np.full_like(x, -0.0)
    assert plan.apply(zeros).tobytes() == _reduceat_apply(
        src, seg, w, num_segments, zeros).tobytes()


@pytest.mark.parametrize("with_sources", [False, True])
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
def test_restricted_segment_sum_is_bit_equal_to_reduceat(seed, with_sources):
    src, seg, w, num_segments = _random_plan(seed)
    plan = ad.SegmentPlan(src, seg, w, num_segments, NUM_SOURCES)
    rng = np.random.default_rng(seed)
    x = _rows(rng, NUM_SOURCES)
    for _ in range(5):
        segments = np.flatnonzero(rng.random(num_segments) < 0.4)
        sources = (np.unique(rng.integers(0, NUM_SOURCES, 3))
                   if with_sources else None)
        sub = plan.restrict(segments, sources)
        ref = _reduceat_restrict(plan, segments, sources)
        inputs = x if sources is None else x[sub.sources]
        if sources is not None:
            assert np.array_equal(sub.sources, ref.sources)
        assert sub.apply(inputs).tobytes() == ref.apply(inputs).tobytes()
        g = _rows(rng, len(segments))
        assert sub.T.apply(g).tobytes() == ref.T.apply(g).tobytes()


@pytest.mark.parametrize("src, seg", [([0, -1], [0, 1]), ([0, 4], [0, 1]),
                                      ([0, 1], [-1, 1]), ([0, 1], [0, 3])])
def test_segment_plan_rejects_ids_out_of_range(src, seg):
    # 4 sources, 3 segments: a bad id would be clipped, not read, otherwise
    with pytest.raises(ValueError):
        ad.SegmentPlan(src, seg, [1.0, 1.0], num_segments=3, num_sources=4)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_rgcn_rows_are_bit_equal_to_reduceat_sub_plans(num_layers,
                                                       monkeypatch):
    world = syn.make_world(seed=1, num_clusters=2, items_per_cluster=12,
                           actors_per_cluster=4, directors_per_cluster=2,
                           num_dialogues=40)
    hkg = world.hkg()
    rows = [3, 5, 60, hkg.num_nodes - 1]

    def run():
        store = ad.ParamStore()
        emb.init_rgcn_params(store, hkg, d_e=6, num_layers=num_layers,
                             num_bases=2, rng=np.random.default_rng(2))
        out = emb.rgcn_forward(hkg, store, num_layers=num_layers, rows=rows)
        weights = np.random.default_rng(3).normal(size=out.shape)
        grads = ad.backward(ad.tensor_sum(out * ad.Tensor(weights)), store)
        return out.data, grads

    out, grads = run()
    monkeypatch.setattr(ad.SegmentPlan, "restrict", _reduceat_restrict)
    ref_out, ref_grads = run()
    assert out.tobytes() == ref_out.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def test_failed_checkpoint_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, {"w": np.ones((2, 2))})
    before = path.read_bytes()
    # the second entry cannot be written as floats: the header and the
    # first entry are already out when the write fails
    with pytest.raises(ValueError):
        ad.save_checkpoint(path, {"w": np.zeros((2, 2)),
                                  "bad": np.array(["x"])})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def _composite_layer_norm(x, gain, bias, eps=1e-5):
    # the unfused formula, op by op, as the oracle for the fused node
    mu = co.mean(x, axis=-1, keepdims=True)
    centered = co.sub(x, mu)
    var = co.mean(centered * centered, axis=-1, keepdims=True)
    inv = ad.Tensor((var.data + eps) ** -0.5)
    return centered * inv * gain + bias


def test_layer_norm_matches_composite_formula():
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.normal(size=(3, 4, 8)) * 2.0 + 1.0)
    gain, bias = ad.Tensor(rng.normal(size=8)), ad.Tensor(rng.normal(size=8))
    fused = ad.layer_norm(x, gain, bias).data
    assert np.allclose(fused, _composite_layer_norm(x, gain, bias).data,
                       atol=1e-12, rtol=0)


def test_layer_norm_gradients():
    rng = np.random.default_rng(13)
    store = ad.ParamStore()
    store.add("x", rng.normal(size=(2, 3, 5)))
    store.add("g", rng.normal(size=5))
    store.add("b", rng.normal(size=5) * 0.1)
    w = ad.Tensor(rng.normal(size=(2, 3, 5)))

    def f(s):
        return ad.tensor_sum(co.tanh(ad.layer_norm(s["x"], s["g"], s["b"]))
                             * w)

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def _attention_store(rng, d, b, bk, tq, tk):
    store = ad.ParamStore()
    store.add("x", rng.normal(size=(b, tq, d)))
    store.add("kv", rng.normal(size=(bk, tk, d)))
    for w in "qkvo":
        store.add(w, rng.normal(size=(d, d)) * 0.5)
    return store


def _attention_loss(x_name, kv_name, mask, w):
    def f(s):
        out = ad.attention(s[x_name], s[kv_name], s["q"], s["k"], s["v"],
                           s["o"], 2, mask=mask)
        return ad.tensor_sum(co.tanh(out) * w)
    return f


def test_self_attention_gradients_with_causal_mask():
    rng = np.random.default_rng(14)
    store = _attention_store(rng, d=4, b=2, bk=2, tq=3, tk=3)
    causal = np.triu(np.full((3, 3), ad.MASK_NEG), k=1)
    w = ad.Tensor(rng.normal(size=(2, 3, 4)))
    f = _attention_loss("x", "x", causal, w)
    assert co.grad_check(f, store, eps=1e-5,
                         names=["x", "q", "k", "v", "o"]) < 1e-6


@pytest.mark.parametrize("bk", [1, 3])
def test_cross_attention_gradients(bk):
    rng = np.random.default_rng(15 + bk)
    store = _attention_store(rng, d=4, b=3, bk=bk, tq=2, tk=4)
    w = ad.Tensor(rng.normal(size=(3, 2, 4)))
    assert co.grad_check(_attention_loss("x", "kv", None, w), store,
                         eps=1e-5) < 1e-6


def test_attention_shares_a_batch_one_kv_across_rows():
    rng = np.random.default_rng(18)
    store = _attention_store(rng, d=4, b=3, bk=1, tq=2, tk=4)
    ws = [store[w] for w in "qkvo"]
    shared = ad.attention(store["x"], store["kv"], *ws, 2).data
    tiled = ad.Tensor(np.repeat(store["kv"].data, 3, axis=0))
    assert np.allclose(shared, ad.attention(store["x"], tiled, *ws, 2).data,
                       atol=1e-12, rtol=0)


def test_matmul_nd_by_2d_is_one_gemm_with_matching_values_and_grads():
    rng = np.random.default_rng(19)
    store = ad.ParamStore()
    store.add("A", rng.normal(size=(2, 3, 4, 5)) * 0.3)
    store.add("B", rng.normal(size=(5, 6)) * 0.3)
    out = store["A"] @ store["B"]
    assert out.shape == (2, 3, 4, 6)
    assert np.allclose(out.data, np.matmul(store["A"].data, store["B"].data),
                       atol=1e-12, rtol=0)

    def f(s):
        return ad.tensor_sum(co.tanh(s["A"] @ s["B"]))

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def test_vjps_return_none_for_constant_operands():
    rng = np.random.default_rng(20)
    w = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    const = ad.Tensor(rng.normal(size=(2, 4, 5)))
    cases = [(const @ w, 0), (w @ ad.Tensor(np.eye(6)), 1),
             (ad.add(w, ad.Tensor(np.ones(6))), 1), (ad.mul(w, 2.0), 1)]
    for node, constant in cases:
        grads = node._vjp(np.ones(node.shape))
        assert grads[constant] is None and grads[1 - constant] is not None


# -- fused nodes against the op-by-op chains they replace ----------------------

def _chain_attention_pool(table, ids, lens, w_attn, b_attn):
    # the 13-node chain attention_pool replaces, as the bit-for-bit oracle
    b, pad = ids.shape
    d = table.shape[1]
    mask = np.where(np.arange(pad) < np.maximum(lens, 1)[:, None], 0.0,
                    ad.MASK_NEG)
    nonempty = (lens > 0).astype(np.float64)[:, None]
    rows = ad.reshape(ad.rows(table, ids.reshape(-1)), (b, pad, d))
    scores = ad.reshape(co.tanh(rows @ co.transpose(w_attn)) @ b_attn,
                        (b, pad))
    alpha = co.softmax(scores + ad.Tensor(mask), axis=-1)
    pooled = ad.reshape(co.matmul(ad.reshape(alpha, (b, 1, pad)), rows),
                        (b, d))
    return ad.mul(pooled, ad.Tensor(nonempty))


def _chain_ffn(x, w1, b1, w2, b2):
    return co.tanh(x @ w1 + b1) @ w2 + b2


def _chain_log_softmax_pick(logits, targets, mask=None):
    if mask is not None:
        logits = logits + ad.Tensor(mask)
    logp = co.log_softmax(logits, axis=-1)
    flat = ad.reshape(logp, (targets.size, logp.shape[-1]))
    picked = co.take(flat, (np.arange(targets.size), targets.reshape(-1)))
    return ad.reshape(picked, targets.shape)


def _padded(id_lists):
    lens = np.array([len(c) for c in id_lists], dtype=np.intp)
    ids = np.zeros((len(lens), max(int(lens.max(initial=0)), 1)),
                   dtype=np.intp)
    for i, ctx in enumerate(id_lists):
        ids[i, :len(ctx)] = ctx
    return ids, lens


def _assert_fused_equals_chain(fused, chain, store, inputs):
    """Same output bytes, and the same gradient bytes for every parameter
    of ``store``, under a random upstream gradient with signed zeros."""
    results = []
    for op in (fused, chain):
        out = op(*inputs)
        w = np.random.default_rng(0).normal(size=out.shape)
        w.flat[::3] = -0.0
        grads = ad.backward(ad.tensor_sum(out * ad.Tensor(w)), store)
        results.append((out.data, grads))
    (out_f, grads_f), (out_c, grads_c) = results
    assert out_f.shape == out_c.shape
    assert out_f.tobytes() == out_c.tobytes()
    assert set(grads_f) == set(grads_c) == set(store.names())
    for name in grads_c:
        assert grads_f[name].shape == grads_c[name].shape, name
        assert grads_f[name].tobytes() == grads_c[name].tobytes(), name


POOL_ID_LISTS = [
    [[3, 1, 1], [], [4], [0, 5, 2, 5]],   # padded, with an empty list
    [[0, 2, 4]],                          # one increasing list
    [[], []],                             # only empty lists
    # repeated ids, lists of 1, 2, 5 and 11 padded together, then one
    # unpadded list (a single user's prompt)
    [[5], [2, 2], [1, 4, 1, 0, 4], [3, 0, 5, 5, 1, 2, 0, 3, 4, 3, 1]],
    [[3, 0, 5, 5, 1, 2, 0, 3, 4, 3, 1]],
]


@pytest.mark.parametrize("id_lists", POOL_ID_LISTS)
@pytest.mark.parametrize("tensor_table", [True, False])
def test_attention_pool_is_bit_equal_to_the_chain(id_lists, tensor_table):
    ids, lens = _padded(id_lists)
    for d_e in (4, 8, 32, 128):
        rng = np.random.default_rng([40, d_e])
        store = ad.ParamStore()
        table = rng.normal(size=(6, d_e))
        if tensor_table:
            table = store.add("table", table)
        store.add("w", rng.normal(size=(d_e, d_e)) * 0.5)
        store.add("b", rng.normal(size=(d_e, 1)) * 0.5)
        _assert_fused_equals_chain(ad.attention_pool, _chain_attention_pool,
                                   store, (table, ids, lens, store["w"],
                                           store["b"]))


def test_attention_pool_of_a_computed_table_is_bit_equal_to_the_chain():
    # the table is itself a node, as the R-GCN output is in rec_loss
    rng = np.random.default_rng(41)
    store = ad.ParamStore()
    store.add("e", rng.normal(size=(6, 4)))
    store.add("w", rng.normal(size=(4, 4)) * 0.5)
    store.add("b", rng.normal(size=(4, 1)) * 0.5)
    ids, lens = _padded([[3, 1, 1], [], [4, 0]])

    def pooled(op):
        def f(e, w, b):
            table = co.tanh(e)
            return op(table, ids, lens, w, b) + ad.rows(table, [0, 1, 2])
        return f

    _assert_fused_equals_chain(pooled(ad.attention_pool),
                               pooled(_chain_attention_pool), store,
                               (store["e"], store["w"], store["b"]))


def test_attention_pool_gradients():
    rng = np.random.default_rng(42)
    store = ad.ParamStore()
    store.add("table", rng.normal(size=(6, 3)))
    store.add("w", rng.normal(size=(3, 3)) * 0.5)
    store.add("b", rng.normal(size=(3, 1)) * 0.5)
    ids, lens = _padded([[3, 1, 1], [], [4, 0]])
    w = ad.Tensor(rng.normal(size=(3, 3)))

    def f(s):
        return ad.tensor_sum(ad.attention_pool(s["table"], ids, lens, s["w"],
                                               s["b"]) * w)

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_ffn_is_bit_equal_to_the_chain(shape):
    rng = np.random.default_rng(43)
    store = ad.ParamStore()
    for name, s in (("x", shape), ("w1", (4, 6)), ("b1", (6,)),
                    ("w2", (6, 4)), ("b2", (4,))):
        store.add(name, rng.normal(size=s) * 0.5)
    _assert_fused_equals_chain(ad.ffn, _chain_ffn, store,
                               [store[n] for n in ("x", "w1", "b1", "w2",
                                                   "b2")])


def test_ffn_with_a_constant_input_is_bit_equal_to_the_chain():
    rng = np.random.default_rng(44)
    store = ad.ParamStore()
    for name, s in (("w1", (4, 6)), ("b1", (6,)), ("w2", (6, 3)),
                    ("b2", (3,))):
        store.add(name, rng.normal(size=s) * 0.5)
    x = ad.Tensor(rng.normal(size=(2, 3, 4)))
    _assert_fused_equals_chain(ad.ffn, _chain_ffn, store,
                               [x] + [store[n] for n in ("w1", "b1", "w2",
                                                         "b2")])


def test_ffn_gradients():
    rng = np.random.default_rng(45)
    store = ad.ParamStore()
    for name, s in (("x", (2, 3, 4)), ("w1", (4, 5)), ("b1", (5,)),
                    ("w2", (5, 4)), ("b2", (4,))):
        store.add(name, rng.normal(size=s) * 0.5)
    w = ad.Tensor(rng.normal(size=(2, 3, 4)))

    def f(s):
        return ad.tensor_sum(ad.ffn(s["x"], s["w1"], s["b1"], s["w2"],
                                    s["b2"]) * w)

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def _chain_rgcn_layer(h, plan, keep, bases, coeffs, w_self):
    # the 10-node layer body rgcn_layer replaces, as the bit-for-bit oracle
    nb, d_in, d_out = bases.shape
    num_rel = coeffs.shape[0]
    w_rel = ad.reshape(coeffs @ ad.reshape(bases, (nb, d_in * d_out)),
                       (num_rel * d_in, d_out))
    msgs = ad.reshape(co.segment_sum(h, plan), (-1, num_rel * d_in))
    if keep is not None:
        h = ad.rows(h, keep)
    return co.tanh(h @ w_self + msgs @ w_rel)


def _chain_item_scores(ctx, table, items, bias):
    # the 5-node chain item_scores replaces
    return ctx @ co.transpose(ad.rows(table, items)) + bias


@pytest.mark.parametrize("computed", [False, True])
@pytest.mark.parametrize("rows", [None, [3, 5, 60, -1]])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_rgcn_layer_is_bit_equal_to_the_chain(num_layers, rows, computed,
                                              monkeypatch):
    # the whole table, or increasing rows up to the last node; the node
    # table as a parameter, or computed from one
    world = syn.make_world(seed=1, num_clusters=2, items_per_cluster=12,
                           actors_per_cluster=4, directors_per_cluster=2,
                           num_dialogues=40)
    hkg = world.hkg()
    if rows is not None:
        rows = np.array(rows) % hkg.num_nodes
    store = ad.ParamStore()
    emb.init_rgcn_params(store, hkg, d_e=6, num_layers=num_layers,
                         num_bases=2, rng=np.random.default_rng(2))
    fused = ad.rgcn_layer

    def forward(layer):
        def f():
            params = {name: store[name] for name in store.names()}
            if computed:
                params["rgcn.node_emb"] = co.tanh(params["rgcn.node_emb"])
            monkeypatch.setattr(ad, "rgcn_layer", layer)
            return emb.rgcn_forward(hkg, params, num_layers=num_layers,
                                    rows=rows)
        return f

    _assert_fused_equals_chain(forward(fused), forward(_chain_rgcn_layer),
                               store, ())


def _layer_store(rng, n, d, num_rel, num_bases=2):
    store = ad.ParamStore()
    store.add("h", rng.normal(size=(n, d)))
    store.add("bases", rng.normal(size=(num_bases, d, d)) * 0.5)
    store.add("coeffs", rng.normal(size=(num_rel, num_bases)))
    store.add("w_self", rng.normal(size=(d, d)) * 0.5)
    return store


def _layer_plan(rng, n, num_rel, num_out, edges=40):
    return ad.SegmentPlan(rng.integers(0, n, edges),
                          rng.integers(0, num_out * num_rel, edges),
                          rng.uniform(0.1, 1.0, edges), num_out * num_rel, n)


@pytest.mark.parametrize("keep", [[0, 2, 3, 7], [1, 4, 8]])
def test_rgcn_layer_keeping_any_rows_is_bit_equal_to_the_chain(keep):
    # the kept rows' self-path gradients scatter with +=
    rng = np.random.default_rng(48)
    store = _layer_store(rng, n=9, d=4, num_rel=3)
    plan = _layer_plan(rng, 9, 3, len(keep))
    _assert_fused_equals_chain(
        ad.rgcn_layer, _chain_rgcn_layer, store,
        (store["h"], plan, np.array(keep), store["bases"], store["coeffs"],
         store["w_self"]))


@pytest.mark.parametrize("keep", [None, [1, 4, 8]])
def test_rgcn_layer_gradients(keep):
    rng = np.random.default_rng(49)
    store = _layer_store(rng, n=9, d=3, num_rel=3)
    plan = _layer_plan(rng, 9, 3, 9 if keep is None else len(keep))
    w = ad.Tensor(rng.normal(size=(9 if keep is None else len(keep), 3)))

    def f(s):
        return ad.tensor_sum(ad.rgcn_layer(s["h"], plan, keep, s["bases"],
                                           s["coeffs"], s["w_self"]) * w)

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


@pytest.mark.parametrize("keep", [[4, 1, 4, 8, 0], [1, 4, 4, 8]])
def test_rgcn_layer_rejects_rows_that_are_not_increasing(keep):
    # a repeated or unsorted keep would read one row twice or out of order
    rng = np.random.default_rng(49)
    store = _layer_store(rng, n=9, d=3, num_rel=3)
    plan = _layer_plan(rng, 9, 3, len(keep))
    with pytest.raises(ValueError):
        ad.rgcn_layer(store["h"], plan, keep, store["bases"],
                      store["coeffs"], store["w_self"])


@pytest.mark.parametrize("computed", [False, True])
@pytest.mark.parametrize("items", [[0, 2, 3, 5], [4, 1, 4, 0, 2]])
def test_item_scores_is_bit_equal_to_the_chain(items, computed):
    rng = np.random.default_rng(50)
    store = ad.ParamStore()
    store.add("ctx", rng.normal(size=(3, 4)))
    store.add("table", rng.normal(size=(6, 4)))
    store.add("bias", rng.normal(size=len(items)))
    items = np.array(items)

    def scores(op):
        def f(ctx, table, bias):
            if computed:  # as the R-GCN output and its pooled contexts are
                table = co.tanh(table)
                ctx = co.tanh(ctx)
            return op(ctx, table, items, bias)
        return f

    _assert_fused_equals_chain(scores(ad.item_scores),
                               scores(_chain_item_scores), store,
                               (store["ctx"], store["table"], store["bias"]))


def test_item_scores_gradients():
    rng = np.random.default_rng(51)
    store = ad.ParamStore()
    store.add("ctx", rng.normal(size=(3, 4)))
    store.add("table", rng.normal(size=(6, 4)))
    store.add("bias", rng.normal(size=5))
    items = np.array([4, 1, 4, 0, 2])
    w = ad.Tensor(rng.normal(size=(3, 5)))

    def f(s):
        return ad.tensor_sum(ad.item_scores(s["ctx"], s["table"], items,
                                            s["bias"]) * w)

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def _flow_like_mask(rng, shape):
    mask = np.where(rng.random(shape) < 0.4, ad.MASK_NEG, 0.0)
    mask[..., 0] = 0.0  # every row keeps its target (index 0) in support
    return mask


@pytest.mark.parametrize("shape", [(5, 7), (2, 3, 7), (0, 7)])
@pytest.mark.parametrize("masked", [False, True])
def test_log_softmax_pick_is_bit_equal_to_the_chain(shape, masked):
    rng = np.random.default_rng(46)
    store = ad.ParamStore()
    store.add("logits", rng.normal(size=shape) * 2.0)
    targets = rng.integers(0, 7, size=shape[:-1])
    mask = None
    if masked:
        mask = _flow_like_mask(rng, shape)
        mask[(*np.indices(shape[:-1]), targets)] = 0.0
    _assert_fused_equals_chain(ad.log_softmax_pick, _chain_log_softmax_pick,
                               store, (store["logits"], targets, mask))


def test_log_softmax_pick_gradients():
    rng = np.random.default_rng(47)
    store = ad.ParamStore()
    store.add("logits", rng.normal(size=(2, 3, 5)))
    targets = rng.integers(0, 5, size=(2, 3))
    mask = np.zeros((2, 3, 5))
    mask[..., 4] = ad.MASK_NEG
    targets[targets == 4] = 1
    w = ad.Tensor(rng.normal(size=(2, 3)))

    def f(s):
        return ad.tensor_sum(ad.log_softmax_pick(s["logits"], targets, mask)
                             * w)

    assert co.grad_check(f, store, eps=1e-5) < 1e-6


def test_log_softmax_pick_rejects_misshaped_targets():
    with pytest.raises(ValueError):
        ad.log_softmax_pick(ad.Tensor(np.zeros((3, 4))), np.zeros(4, np.intp))


def test_frozen_restores_each_parameter_flag_also_on_error():
    a, b = ad.ParamStore(), ad.ParamStore()
    a.add("x", np.ones(2))
    b.add("y", np.ones(2))
    b["y"].requires_grad = False  # already frozen before the block
    flags = lambda: [a["x"].requires_grad, b["y"].requires_grad]
    with ad.frozen(a, b):
        assert flags() == [False, False]
        out = ad.tensor_sum(a["x"] * b["y"])
        assert not out.requires_grad and out._vjp is None
    assert flags() == [True, False]
    with pytest.raises(RuntimeError):
        with ad.frozen(a):
            raise RuntimeError("inside the block")
    assert flags() == [True, False]


def test_frozen_store_gets_no_gradient_and_the_rest_is_unchanged():
    rng = np.random.default_rng(48)
    model, edit = ad.ParamStore(), ad.ParamStore()
    model.add("w", rng.normal(size=(3, 3)))
    edit.add("d", rng.normal(size=(2, 3)))

    def loss():
        return ad.tensor_sum(co.tanh(edit["d"] @ model["w"]) * edit["d"])

    free = ad.backward(loss(), edit)
    assert ad.backward(loss(), model).keys() == {"w"}
    with ad.frozen(model):
        fixed = ad.backward(loss(), edit)
        assert ad.backward(loss(), model) == {}
    assert fixed["d"].tobytes() == free["d"].tobytes()


def test_backward_leaves_the_finite_check_to_the_optimizer():
    store = ad.ParamStore()
    store.add("p", np.ones(2))
    grads = ad.backward(ad.tensor_sum(store["p"] * np.array([np.inf, 1.0])),
                        store)
    assert not np.isfinite(grads["p"]).all()
    with pytest.raises(NumericError,
                       match="^non-finite gradient for parameter 'p'$"):
        ad.optimizer_step(store, grads, lr=0.1)
