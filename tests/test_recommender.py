import math

import chain_ops as co
import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import embeddings as emb
from recflow import kg as kgm
from recflow import pipeline as pl
from recflow import recommender as rc
from recflow import synthetic as syn
from recflow.errors import DataError
from recflow.realization import RecSample


def build_hkg(triples, types, interactions=None):
    g = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                    [f"{e}\t{t}" for e, t in types.items()])
    return kgm.attach_users(g, interactions or {})


@pytest.fixture
def small_world():
    types = {"g1": "genre", "g2": "genre",
             "m1": "item", "m2": "item", "m3": "item", "m4": "item",
             "m5": "item"}
    triples = [("m1", "has_genre", "g1"), ("m2", "has_genre", "g1"),
               ("m3", "has_genre", "g2"), ("m4", "has_genre", "g2"),
               ("m5", "has_genre", "g2")]
    return build_hkg(triples, types, {"u": ["g1"], "v": ["g2"]})


def test_score_items_empty_context_orders_by_bias(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=0)
    bias = np.array([0.5, -0.2, 0.9, 0.0, 0.1])
    model.store["rec.item_bias"].data = bias.copy()
    ranked = score = rc.score_items(model, [])
    expected = [int(model.item_ids[i]) for i in np.argsort(-bias)]
    assert [e for e, _ in ranked] == expected


def test_score_items_self_similarity(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=1)
    table = model.entity_embeddings_array()
    target = int(model.item_ids[2])
    # make the target's embedding strongly aligned with itself and orthogonal
    # to everything else
    table_mod = np.zeros_like(table)
    table_mod[target, 0] = 5.0
    model.store["rec.rgcn.node_emb"].data = table_mod
    # bypass graph mixing: identity-like pass via zero relations
    model.store["rec.rgcn.l0.coeffs"].data *= 0.0
    model.store["rec.rgcn.l0.w_self"].data = np.eye(8)
    ranked = rc.score_items(model, [target])
    assert ranked[0][0] == target


def test_score_items_matches_hand_computed_inner_products(small_world):
    model = rc.RecModel(small_world, d_e=4, num_bases=8, seed=3)
    # hand-set: no messages and an identity self-weight make each entity's
    # row tanh of its node row; the context attends over one entity ->
    # itself, so scores are plain inner products of those rows plus bias
    model.store["rec.rgcn.l0.coeffs"].data *= 0.0
    model.store["rec.rgcn.l0.w_self"].data = np.eye(4)
    rng = np.random.default_rng(5)
    table = rng.normal(size=model.store["rec.rgcn.node_emb"].shape)
    model.store["rec.rgcn.node_emb"].data = table.copy()
    rows = np.tanh(table)
    g1 = small_world.base.entity_id("g1")
    scores = {e: float(rows[g1] @ rows[e]) for e in model.item_ids}
    ranked = rc.score_items(model, [g1])
    expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [e for e, _ in ranked] == [e for e, _ in expected]
    for (e, s), (ee, ss) in zip(ranked, expected):
        assert abs(s - ss) < 1e-10


def test_rec_loss_perfect_model_is_zero(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=0)
    label = int(model.item_ids[0])
    model.store["rec.item_bias"].data = np.zeros(len(model.item_ids))
    model.store["rec.item_bias"].data[0] = 1e4  # prob ~ 1 for the label
    loss = rc.rec_loss(model, [RecSample(context=(), label=label)])
    assert loss.item() < 1e-12


def test_rec_loss_uniform_is_log_item_count(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=0)
    # zero bias + empty context -> zero scores -> uniform over items
    samples = [RecSample(context=(), label=int(model.item_ids[2]))]
    loss = rc.rec_loss(model, samples)
    assert abs(loss.item() - math.log(len(model.item_ids))) < 1e-12


def test_rec_loss_matches_hand_computation(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=0)
    bias = np.array([0.3, -0.1, 0.7, 0.2, -0.4])
    model.store["rec.item_bias"].data = bias.copy()
    labels = [0, 2, 4]
    z = np.exp(bias)
    expected = -np.mean([np.log(z[i] / z.sum()) for i in labels])
    samples = [RecSample(context=(), label=int(model.item_ids[i]))
               for i in labels]
    loss = rc.rec_loss(model, samples)
    assert abs(loss.item() - expected) < 1e-12


def test_rec_loss_rejects_non_item_label(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=0)
    g1 = small_world.base.entity_id("g1")
    with pytest.raises(DataError,
                       match=f"^label entity {g1} is not item-typed$"):
        rc.rec_loss(model, [RecSample(context=(), label=g1)])


def test_rec_loss_grad_check(small_world):
    model = rc.RecModel(small_world, d_e=3, num_bases=8, seed=7)
    g1 = small_world.base.entity_id("g1")
    samples = [RecSample(context=(g1,), label=int(model.item_ids[1])),
               RecSample(context=(), label=int(model.item_ids[3]))]

    def f(_):
        return rc.rec_loss(model, samples)

    assert co.grad_check(f, model.store, eps=1e-5) < 1e-4


@pytest.mark.parametrize("num_layers", [1, 2])
def test_rec_loss_computes_only_its_rows_and_matches_the_full_table(
        num_layers, monkeypatch):
    world = syn.make_world(seed=3, num_clusters=2, items_per_cluster=6,
                           actors_per_cluster=4, directors_per_cluster=2,
                           num_dialogues=40)
    hkg = world.hkg(world.train)
    samples = pl.samples_from_dialogues(world.train, world.kg)[:24]
    model = rc.RecModel(hkg, d_e=8, num_layers=num_layers, num_bases=8, seed=1)
    asked = []
    forward = emb.rgcn_forward
    monkeypatch.setattr(emb, "rgcn_forward", lambda *a, rows=None, **k:
                        asked.append(rows) or forward(*a, rows=rows, **k))

    loss = rc.rec_loss(model, samples)
    grads = ad.backward(loss, model.store)
    full = rc.rec_loss(model, samples, table=model.entity_embeddings())
    full_grads = ad.backward(full, model.store)

    needed = set(model.item_ids) | {e for s in samples for e in s.context}
    assert list(asked[0]) == sorted(needed) and asked[1] is None
    assert len(needed) < hkg.num_nodes
    # == with OpenBLAS on x86; BLAS does not promise it
    assert abs(loss.item() - full.item()) <= 1e-12
    assert grads.keys() == full_grads.keys()
    for name, g in full_grads.items():
        assert np.allclose(grads[name], g, rtol=0, atol=1e-12), name


@pytest.fixture
def world_samples():
    world = syn.make_world(seed=3, num_clusters=2, items_per_cluster=6,
                           actors_per_cluster=4, directors_per_cluster=2,
                           num_dialogues=40)
    return world.hkg(world.train), pl.samples_from_dialogues(world.train,
                                                             world.kg)


def _loss_and_grads(model, samples):
    loss = rc.rec_loss(model, samples)
    return loss.data.tobytes(), ad.backward(loss, model.store)


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("picks", ["mixed", "all_empty", "repeated"])
def test_packed_and_list_rec_loss_agree_bit_for_bit(world_samples, picks,
                                                    num_layers):
    hkg, samples = world_samples
    samples = samples + [RecSample(context=(), label=s.label)
                         for s in samples[:4]]
    empty = [i for i, s in enumerate(samples) if not s.context]
    full = [i for i, s in enumerate(samples) if s.context]
    idx = {"mixed": full[:5] + empty[:2] + full[5:9] + empty[2:3],
           "all_empty": empty[:4],  # a padded width of 1
           "repeated": [full[3], full[3], empty[0], full[3], full[0]]}[picks]
    model = rc.RecModel(hkg, d_e=8, num_layers=num_layers, num_bases=8, seed=2)
    value, grads = _loss_and_grads(model, [samples[i] for i in idx])
    batch = rc.pack_samples(model, samples)[np.array(idx)]
    packed_value, packed_grads = _loss_and_grads(model, batch)
    assert packed_value == value
    assert packed_grads.keys() == grads.keys()
    for name, g in grads.items():
        assert packed_grads[name].tobytes() == g.tobytes(), name


def test_rec_loss_records_seven_tape_nodes(world_samples):
    # the fused R-GCN layer, the pool, the scores, the cross-entropy and
    # the negated mean
    hkg, samples = world_samples
    model = rc.RecModel(hkg, d_e=8, num_bases=8, seed=2)
    loss = rc.rec_loss(model, rc.pack_samples(model, samples)[np.arange(16)])
    assert sum(node._vjp is not None for node in ad._topo_order(loss)) == 7


def test_packing_a_pool_with_a_non_item_label_raises(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=0)
    g1 = small_world.base.entity_id("g1")
    pool = [RecSample(context=(g1,), label=int(model.item_ids[0])),
            RecSample(context=(), label=g1)]
    not_item = f"^label entity {g1} is not item-typed$"
    with pytest.raises(DataError, match=not_item):
        rc.pack_samples(model, pool)
    before = model.store.checksum()
    with pytest.raises(DataError, match=not_item):  # before the first step
        rc.pretrain_recommender(model, pool, steps=3, batch_size=2, lr=1e-2,
                                seed=0)
    assert model.store.checksum() == before


def test_train_steps_runs_loss_backward_and_update_once_per_step(
        world_samples, monkeypatch):
    # looked up as module attributes, in this order: a trace of the step
    # finds it by these three calls in a row under one train_steps call
    hkg, samples = world_samples
    model = rc.RecModel(hkg, d_e=8, num_bases=8, seed=2)
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(f">{name}")
            out = fn(*args, **kwargs)
            calls.append(f"<{name}")
            return out

        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((rc, "pack_samples"), (rc, "train_steps"),
                         (rc, "rec_loss"),
                         (emb, "rgcn_forward"), (ad, "backward"),
                         (ad, "optimizer_step")):
        spy(module, name)
    rc.pretrain_recommender(model, samples, steps=3, batch_size=16, lr=1e-3,
                            seed=0)
    step = [">rec_loss", ">rgcn_forward", "<rgcn_forward", "<rec_loss",
            ">backward", "<backward", ">optimizer_step", "<optimizer_step"]
    assert calls == ([">pack_samples", "<pack_samples", ">train_steps"]
                     + step * 3 + ["<train_steps"])


def test_evaluate_over_many_chunks_equals_a_per_sample_reference(
        world_samples):
    hkg, samples = world_samples
    model = rc.RecModel(hkg, d_e=8, num_bases=8, seed=4)
    samples = (samples * (2 * rc.RANK_CHUNK // len(samples) + 1))
    assert len(samples) > 2 * rc.RANK_CHUNK
    assert len({len(s.context) for s in samples}) > 2
    ranks = []
    for s in samples:
        order = [e for e, _ in rc.score_items(model, s.context)]
        ranks.append(order.index(s.label) + 1)
    rep = rc.evaluate(model, samples, ks=(1, 10))
    for k in (1, 10):
        recall = mrr = ndcg = 0.0
        for r in ranks:  # running totals in sample order
            if r <= k:
                recall += 1.0
                mrr += 1.0 / r
                ndcg += 1.0 / math.log2(r + 1)
        assert rep.recall[k] == recall / len(samples)
        assert rep.mrr[k] == mrr / len(samples)
        assert rep.ndcg[k] == ndcg / len(samples)


def rank_fixture_model(small_world, label_rank, n_items=5):
    """Bias-only model placing item_ids[0] at the requested rank."""
    model = rc.RecModel(small_world, d_e=4, num_bases=8, seed=0)
    bias = -np.arange(n_items, dtype=float)  # item 0 first
    order = np.argsort(model.item_ids)  # ids ascending already
    bias = np.roll(bias, label_rank - 1)
    model.store["rec.item_bias"].data = bias
    return model


def test_evaluate_rank_one_gives_all_ones(small_world):
    model = rc.RecModel(small_world, d_e=4, num_bases=8, seed=0)
    model.store["rec.item_bias"].data = np.array([9.0, 1.0, 0.5, 0.2, 0.1])
    samples = [RecSample(context=(), label=int(model.item_ids[0]))]
    rep = rc.evaluate(model, samples, ks=(10, 50))
    assert rep.recall == {10: 1.0, 50: 1.0}
    assert rep.mrr == {10: 1.0, 50: 1.0}
    assert rep.ndcg == {10: 1.0, 50: 1.0}


def test_evaluate_rank_three_oracle_values(small_world):
    model = rc.RecModel(small_world, d_e=4, num_bases=8, seed=0)
    model.store["rec.item_bias"].data = np.array([1.0, 5.0, 3.0, 0.2, 0.1])
    samples = [RecSample(context=(), label=int(model.item_ids[0]))]
    rep = rc.evaluate(model, samples, ks=(10,))
    assert rep.recall[10] == 1.0
    assert abs(rep.mrr[10] - 1.0 / 3.0) < 1e-12
    assert abs(rep.ndcg[10] - 0.5) < 1e-12  # 1/log2(4)


def test_evaluate_threshold_behavior():
    # 60 items so a rank-20 label misses k=10 but hits k=50
    types = {f"m{i}": "item" for i in range(60)}
    types["g"] = "genre"
    triples = [(f"m{i}", "has_genre", "g") for i in range(60)]
    hkg = build_hkg(triples, types)
    model = rc.RecModel(hkg, d_e=4, num_bases=8, seed=0)
    bias = -np.arange(60, dtype=float)
    model.store["rec.item_bias"].data = bias
    label = int(model.item_ids[19])  # rank 20
    rep = rc.evaluate(model, [RecSample(context=(), label=label)],
                      ks=(10, 50))
    assert rep.recall[10] == rep.mrr[10] == rep.ndcg[10] == 0.0
    assert rep.recall[50] == 1.0
    assert abs(rep.mrr[50] - 1.0 / 20.0) < 1e-12
    assert abs(rep.ndcg[50] - 1.0 / math.log2(21)) < 1e-12


def test_evaluate_empty_test_set(small_world):
    model = rc.RecModel(small_world, d_e=4, num_bases=8, seed=0)
    with pytest.raises(DataError, match="^no test samples$"):
        rc.evaluate(model, [])


def test_metric_monotonicity_per_sample():
    for rank in range(1, 80):
        per = rc.ranking_metrics(rank, (10, 50))
        assert per[10]["recall"] <= per[50]["recall"]
        for k in (10, 50):
            assert per[k]["mrr"] <= per[k]["ndcg"] <= per[k]["recall"]


def test_irrelevant_item_changes_no_metric(small_world):
    # item with score -inf never outranks the label, so metrics match the
    # 4-item hand computation
    model = rc.RecModel(small_world, d_e=4, num_bases=8, seed=0)
    bias = np.array([2.0, 1.0, 0.5, 0.1, MASK := -1e30])
    model.store["rec.item_bias"].data = bias
    label = int(model.item_ids[1])
    rep = rc.evaluate(model, [RecSample(context=(), label=label)], ks=(10,))
    assert rep.mrr[10] == 0.5  # rank 2, untouched by the -inf item


def test_distinct_n_repeated_responses():
    responses = ["a b c d e f"] * 10  # 5 unique bigrams
    assert rc.distinct_n(responses, 2) == 0.5


def test_distinct_n_disjoint_responses():
    responses = ["a b c", "d e f", "g h i"]  # 2 bigrams each, no collisions
    assert rc.distinct_n(responses, 2) == 2.0


def test_distinct_n_empty_corpus():
    assert rc.distinct_n([], 3) == 0.0


def test_copy_has_equal_values_and_a_fresh_adam_state(mini):
    before = mini.rec.store.checksum()
    assert mini.rec.store.step_count > 0
    clone = mini.rec.copy()
    assert clone.hkg is mini.rec.hkg and clone.store.step_count == 0
    assert clone.store.checksum() == before
    # zero moments: the copy's first step equals a new model's on its values
    fresh = rc.RecModel(mini.hkg, d_e=16, num_bases=8, seed=1)
    fresh.store.load_values(mini.rec.store.values_dict())
    for model in (clone, fresh):
        rc.pretrain_recommender(model, mini.train_samples, steps=1,
                                batch_size=8, lr=1e-2, seed=0)
    assert clone.store.checksum() == fresh.store.checksum() != before
    # training the copy leaves the original as it was
    assert mini.rec.store.checksum() == before


def test_pretrain_memorizes_five_samples(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=2)
    g1, g2 = (small_world.base.entity_id(x) for x in ("g1", "g2"))
    m = model.item_ids
    samples = [
        RecSample(context=(g1,), label=int(m[0])),
        RecSample(context=(g1, int(m[0])), label=int(m[1])),
        RecSample(context=(g2,), label=int(m[2])),
        RecSample(context=(g2, int(m[2])), label=int(m[3])),
        RecSample(context=(int(m[3]),), label=int(m[4])),
    ]
    rc.pretrain_recommender(model, samples, steps=500, batch_size=5, lr=5e-3,
                            seed=0)
    rep = rc.evaluate(model, samples, ks=(1,))
    assert rep.recall[1] == 1.0


def test_pretrain_zero_steps_keeps_untrained_metrics(small_world):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=2)
    samples = [RecSample(context=(), label=int(model.item_ids[0]))]
    before = rc.evaluate(model, samples).to_dict()
    rc.pretrain_recommender(model, samples, steps=0, batch_size=64, lr=1e-3,
                            seed=0)
    assert rc.evaluate(model, samples).to_dict() == before


def test_pretrain_beats_random_on_separable_world():
    # users cluster by genre; held-out samples share the cluster structure
    types = {"g1": "genre", "g2": "genre"}
    for i in range(10):
        types[f"m{i}"] = "item"
    triples = [(f"m{i}", "has_genre", "g1" if i < 5 else "g2")
               for i in range(10)]
    hkg = build_hkg(triples, types)
    model = rc.RecModel(hkg, d_e=16, num_bases=8, seed=4)
    kg = hkg.base
    g1, g2 = kg.entity_id("g1"), kg.entity_id("g2")
    items = {e: kg.entity_id(f"m{e}") for e in range(10)}
    train, test = [], []
    for i in range(5):
        (train if i < 4 else test).append(
            RecSample(context=(g1,), label=items[i]))
        (train if i < 4 else test).append(
            RecSample(context=(g2,), label=items[5 + i]))
    rc.pretrain_recommender(model, train, steps=300, batch_size=8, lr=5e-3,
                            seed=0)
    # trained labels occupy the top-4; the held-out cluster item can reach
    # rank 5 only through the shared-genre graph structure
    rep = rc.evaluate(model, test, ks=(5,))
    assert rep.recall[5] > 5 / 10  # random baseline k/|I|


def test_evaluate_matches_score_items_order_with_ties(small_world):
    # empty contexts score every item by its bias alone, so the ties are
    # exact; 600 samples span three ranking chunks
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=3)
    model.store["rec.item_bias"].data = np.array([0.3, 0.1, 0.3, -0.2, 0.1])
    n = len(model.item_ids)
    samples = [RecSample(context=(), label=int(model.item_ids[(7 * i) % n]))
               for i in range(600)]
    order = [e for e, _ in rc.score_items(model, [])]
    ranks = [order.index(s.label) + 1 for s in samples]
    rep = rc.evaluate(model, samples, ks=(1, 3))
    for k in (1, 3):
        recall = mrr = ndcg = 0.0
        for r in ranks:  # running totals in sample order
            if r <= k:
                recall += 1.0
                mrr += 1.0 / r
                ndcg += 1.0 / math.log2(r + 1)
        assert rep.recall[k] == recall / 600
        assert rep.mrr[k] == mrr / 600
        assert rep.ndcg[k] == ndcg / 600


def test_pretrain_early_stops_and_restores_best(small_world,
                                                scripted_evaluate):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=2)
    samples = [RecSample(context=(), label=int(model.item_ids[0]))]
    seen = scripted_evaluate([0.2, 0.5, 0.4, 0.3, 0.9])
    history = rc.pretrain_recommender(model, samples, samples, steps=1000,
                                      batch_size=1, lr=1e-3, eval_every=10,
                                      patience=2, seed=0)
    assert history["val_recall"] == [0.2, 0.5, 0.4, 0.3]
    assert len(history["loss"]) == 40
    assert model.store.checksum() == seen[1]
    assert len(set(seen)) == 4


def test_pretrain_evaluates_after_full_chunks_only(small_world,
                                                   scripted_evaluate):
    model = rc.RecModel(small_world, d_e=8, num_bases=8, seed=2)
    samples = [RecSample(context=(), label=int(model.item_ids[0]))]
    seen = scripted_evaluate([0.1, 0.2, 0.3])
    history = rc.pretrain_recommender(model, samples, samples, steps=130,
                                      batch_size=1, lr=1e-3, eval_every=50,
                                      seed=0)
    assert len(seen) == 2
    assert len(history["loss"]) == 130
    # the 30 steps after the last evaluation are rolled back to its best
    assert model.store.checksum() == seen[1]


def test_report_json_and_table(small_world):
    model = rc.RecModel(small_world, d_e=4, num_bases=8, seed=0)
    rep = rc.evaluate(model, [RecSample(context=(),
                                        label=int(model.item_ids[0]))])
    d = rep.to_dict()
    assert "recall@10" in d and "ndcg@50" in d
    table = rep.format_table("toy")
    assert "Recall@10" in table and "toy" in table
