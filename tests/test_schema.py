import math
from collections import Counter

import chain_ops as co
import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import schema as sc
from recflow.errors import DataError


def brute_force_catalog(seqs, min_support, max_len):
    """Count-then-filter oracle, sorted the same way."""
    counts = Counter(tuple(s)[:max_len] for s in seqs if tuple(s)[:max_len])
    kept = sorted(((s, c) for s, c in counts.items() if c >= min_support),
                  key=lambda sc_: (-sc_[1], len(sc_[0]), sc_[0]))
    return [s for s, _ in kept], [c for _, c in kept]


def test_mine_single_flow():
    cat = sc.mine_schemas([("genre", "item")], min_support=1)
    assert cat.schemas == [("genre", "item")]
    assert cat.supports == [1]


def test_mine_min_support_above_corpus_size():
    cat = sc.mine_schemas([("genre",)], min_support=2)
    assert len(cat) == 0


def test_mine_truncates_to_max_len():
    cat = sc.mine_schemas([("a",) * 10], min_support=1, max_len=4)
    assert cat.schemas == [("a", "a", "a", "a")]


def test_mine_matches_brute_force_oracle():
    rng = np.random.default_rng(13)
    types = ["genre", "item", "actor", "director"]
    seqs = [tuple(types[rng.integers(4)] for _ in range(rng.integers(1, 6)))
            for _ in range(100)]
    for min_support in (1, 2, 5):
        cat = sc.mine_schemas(seqs, min_support=min_support, max_len=16)
        schemas, supports = brute_force_catalog(seqs, min_support, 16)
        assert cat.schemas == schemas
        assert cat.supports == supports


def test_mine_is_order_insensitive():
    rng = np.random.default_rng(3)
    seqs = [("genre", "item")] * 5 + [("actor",)] * 3 + [("item",)] * 4
    shuffled = list(seqs)
    rng.shuffle(shuffled)
    a = sc.mine_schemas(seqs, min_support=2)
    b = sc.mine_schemas(shuffled, min_support=2)
    assert a.schemas == b.schemas and a.supports == b.supports


def test_catalog_json_round_trip():
    cat = sc.mine_schemas([("genre", "item")] * 3, min_support=1)
    loaded = sc.SchemaCatalog.from_json(cat.to_json())
    assert loaded.schemas == cat.schemas
    assert loaded.supports == cat.supports


def make_classifier(num_schemas, d_e=4, seed=0):
    store = ad.ParamStore()
    sc.init_classifier_params(store, d_e=d_e, num_schemas=num_schemas,
                              rng=np.random.default_rng(seed))
    return store


def test_predict_zero_weights_uniform():
    cat = sc.mine_schemas([("a",), ("b",), ("c",)], min_support=1)
    store = make_classifier(len(cat))
    store["schema_clf.ff1"].data = np.zeros_like(store["schema_clf.ff1"].data)
    rng = np.random.default_rng(0)
    probs, best = sc.predict_schema(rng.normal(size=4), rng.normal(size=4),
                                    store, cat)
    assert np.allclose(probs, np.full(len(cat), 1.0 / len(cat)))
    assert best == 0  # tie-break toward catalog order


def test_predict_singleton_catalog():
    cat = sc.mine_schemas([("a",)], min_support=1)
    store = make_classifier(1)
    probs, best = sc.predict_schema(np.ones(4), -np.ones(4), store, cat)
    assert np.allclose(probs, [1.0])
    assert best == 0


def test_predict_empty_catalog_raises():
    cat = sc.mine_schemas([], min_support=1)
    store = make_classifier(1)
    with pytest.raises(DataError, match="^cannot predict over an empty schema "
                       "catalog$"):
        sc.predict_schema(np.ones(4), np.ones(4), store, cat)


def test_predict_matches_hand_computed_softmax():
    # 2 schemas, d_e = 1, hand-set weights: hidden = tanh([u, v] @ ff1),
    # logits = hidden @ ff2 + ff2_b
    cat = sc.mine_schemas([("a",), ("b",)], min_support=1)
    store = ad.ParamStore()
    store.add("schema_clf.ff1", np.array([[0.5, 0.25], [-1.0, 0.75]]))
    store.add("schema_clf.ff1_b", np.zeros((1, 2)))
    store.add("schema_clf.ff2", np.array([[1.0, 0.5], [0.0, -0.5]]))
    store.add("schema_clf.ff2_b", np.array([[0.1, -0.2]]))
    u, v = 0.3, -0.6
    h1 = math.tanh(0.5 * u + -1.0 * v)
    h2 = math.tanh(0.25 * u + 0.75 * v)
    l1 = 1.0 * h1 + 0.0 * h2 + 0.1
    l2 = 0.5 * h1 + -0.5 * h2 + -0.2
    z1, z2 = math.exp(l1), math.exp(l2)
    expected = np.array([z1, z2]) / (z1 + z2)

    probs, best = sc.predict_schema(np.array([u]), np.array([v]), store, cat)
    assert np.allclose(probs, expected, atol=1e-12, rtol=0)
    assert best == int(np.argmax(expected))


def test_predict_returns_an_array_and_records_no_tape(monkeypatch):
    cat = sc.mine_schemas([("a",), ("b",), ("c",)], min_support=1)
    store = make_classifier(len(cat), seed=5)
    assert all(p.requires_grad for _, p in store.items())
    made = []
    real_make = ad._make

    def recording(data, parents, vjp):
        made.append(real_make(data, parents, vjp))
        return made[-1]

    monkeypatch.setattr(ad, "_make", recording)
    rng = np.random.default_rng(8)
    probs, best = sc.predict_schema(rng.normal(size=4), rng.normal(size=4),
                                    store, cat)
    assert type(probs) is np.ndarray and probs.shape == (len(cat),)
    assert best == int(np.argmax(probs))
    assert made
    assert not any(t.requires_grad or t._parents for t in made)


def test_classifier_batch_loss_records_nine_tape_nodes(monkeypatch):
    # the four parameters, ffn, log_softmax_pick, the mean's sum and scale
    # and the negation; the op-by-op MLP recorded 15
    cat = sc.mine_schemas([("a",), ("b",), ("c",)], min_support=1)
    store = make_classifier(len(cat))
    rng = np.random.default_rng(9)
    pairs = [(rng.normal(size=4), rng.normal(size=4), i % 3)
             for i in range(8)]
    sizes = []
    real_backward = ad.backward

    def recording(loss, params=None):
        sizes.append(len(ad._topo_order(loss)))
        return real_backward(loss, params)

    monkeypatch.setattr(ad, "backward", recording)
    sc.train_schema_classifier(pairs, store, cat, steps=1)
    assert sizes == [9]


def test_logit_scaling_keeps_argmax():
    cat = sc.mine_schemas([("a",), ("b",), ("c",)], min_support=1)
    store = make_classifier(len(cat), seed=5)
    rng = np.random.default_rng(1)
    store["schema_clf.ff2"].data = rng.normal(
        size=store["schema_clf.ff2"].shape)
    u, v = rng.normal(size=4), rng.normal(size=4)
    _, best = sc.predict_schema(u, v, store, cat)
    for scale in (0.5, 3.0, 10.0):
        scaled = make_classifier(len(cat), seed=5)
        scaled["schema_clf.ff1"].data = store["schema_clf.ff1"].data.copy()
        scaled["schema_clf.ff2"].data = store["schema_clf.ff2"].data * scale
        _, best_scaled = sc.predict_schema(u, v, scaled, cat)
        assert best_scaled == best


def test_train_memorizes_single_pair():
    cat = sc.mine_schemas([("a",), ("b",)], min_support=1)
    store = make_classifier(len(cat))
    rng = np.random.default_rng(2)
    pairs = [(rng.normal(size=4), rng.normal(size=4), 1)]
    sc.train_schema_classifier(pairs, store, cat, steps=200, lr=0.05)
    probs, best = sc.predict_schema(pairs[0][0], pairs[0][1], store, cat)
    assert best == 1
    assert probs[1] > 0.99


def test_untrained_outputs_uniform():
    cat = sc.mine_schemas([("a",), ("b",), ("c",), ("d",)], min_support=1)
    store = make_classifier(len(cat))
    probs, _ = sc.predict_schema(np.ones(4) * 2.0, -np.ones(4), store, cat)
    assert np.allclose(probs, 0.25)


def test_train_separable_two_class(monkeypatch):
    # every pair trains, none is held out
    monkeypatch.setattr(sc, "VAL_FRACTION", 0.0)
    cat = sc.mine_schemas([("a",), ("b",)], min_support=1)
    store = make_classifier(len(cat), d_e=2)
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(20):
        offset = rng.normal(size=2) * 0.1
        pairs.append((np.array([2.0, 0.0]) + offset, offset, 0))
        pairs.append((np.array([-2.0, 0.0]) + offset, offset, 1))
    sc.train_schema_classifier(pairs, store, cat, steps=400, lr=0.05)
    correct = 0
    for u, v, gold in pairs:
        _, best = sc.predict_schema(u, v, store, cat)
        correct += best == gold
    assert correct == len(pairs)


def test_classifier_keeps_the_better_of_the_full_chunk_checks(monkeypatch):
    # 50 steps score the held-out loss after steps 20 and 40 only, never
    # after the partial last chunk; on random labels the loss rises, so the
    # classifier ends holding step 20's values
    cat = sc.mine_schemas([("a",), ("b",), ("c",)], min_support=1)
    store = make_classifier(len(cat))
    rng = np.random.default_rng(0)
    pairs = [(rng.normal(size=4), rng.normal(size=4), int(rng.integers(3)))
             for _ in range(100)]
    n_val = int(len(pairs) * sc.VAL_FRACTION)
    steps, checks = [], []
    real_step, real_pick = ad.optimizer_step, ad.log_softmax_pick

    def counting_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    def recording_pick(logits, labels):
        if len(labels) == n_val:  # training batches hold 32 pairs
            z = logits.data - logits.data.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            loss = -logp[np.arange(n_val), labels].mean()
            checks.append((len(steps), loss, store.values_dict()))
        return real_pick(logits, labels)

    monkeypatch.setattr(ad, "optimizer_step", counting_step)
    monkeypatch.setattr(ad, "log_softmax_pick", recording_pick)
    sc.train_schema_classifier(pairs, store, cat, lr=0.05, steps=50)
    assert len(steps) == 50
    assert [step for step, _, _ in checks] == [20, 40]
    (_, loss20, values20), (_, loss40, values40) = checks
    assert loss20 < loss40
    final = store.values_dict()
    assert final.keys() == values20.keys()
    assert all(np.array_equal(final[k], values20[k]) for k in final)
    assert not all(np.array_equal(final[k], values40[k]) for k in final)


def test_train_rejects_bad_gold_index():
    cat = sc.mine_schemas([("a",)], min_support=1)
    store = make_classifier(1)
    with pytest.raises(DataError,
                       match="^gold index 3 outside catalog of size 1$"):
        sc.train_schema_classifier([(np.ones(4), np.ones(4), 3)], store, cat)


def test_classifier_grad_check():
    store = ad.ParamStore()
    sc.init_classifier_params(store, d_e=2, num_schemas=3,
                              rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    store["schema_clf.ff2"].data = rng.normal(size=(4, 3)) * 0.3
    x = np.concatenate([rng.normal(size=2), rng.normal(size=2)])[None, :]

    def f(s):
        logits = sc._classifier_logits(ad.Tensor(x), s)
        return -co.take(co.log_softmax(logits, axis=-1), (0, 1))

    assert co.grad_check(f, store, eps=1e-5) < 1e-4
