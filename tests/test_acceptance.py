"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see the lines live). The directional experiments run a full
multi-seed protocol on the 200-entity / 20-type / 500-dialogue world and are
deterministic under the pinned seeds."""

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import chain_ops as co
import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import cli
from recflow import corpus as cp
from recflow import counterfactual as cf
from recflow import embeddings as emb
from recflow import flm as flmm
from recflow import kg as kgm
from recflow import pipeline as pl
from recflow import realization as rz
from recflow import recommender as rc
from recflow import schema as sc
from recflow import synthetic as syn
from recflow.config import RunConfig

from test_counterfactual import enumerate_pair_gradient, tiny_sim


@contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_01_gradient_suite():
    with report(1, "gradient suite < 1e-4 within 2 minutes"):
        t0 = time.time()
        tol, eps = 1e-4, 1e-5
        rng = np.random.default_rng(0)

        # preference encoder
        store = ad.ParamStore()
        emb.init_attention_params(store, d_e=3, rng=rng)
        store.add("E", rng.normal(size=(4, 3)) * 0.5)

        def f_pref(s):
            e_u = emb.pool_entities(s["E"], [[0, 1, 2, 3]], s["attn.w"],
                                    s["attn.b"])
            return ad.tensor_sum(e_u * e_u)

        assert co.grad_check(f_pref, store, eps=eps) < tol

        # one relational graph layer
        hkg = tiny_sim()[0].hkg
        gstore = ad.ParamStore()
        emb.init_rgcn_params(gstore, hkg, d_e=3, num_layers=1, num_bases=2,
                             rng=np.random.default_rng(1))

        def f_graph(s):
            out = emb.rgcn_forward(hkg, s, num_layers=1)
            return ad.tensor_sum(out * out)

        assert co.grad_check(f_graph, gstore, eps=eps) < tol

        # schema classifier
        cstore = ad.ParamStore()
        sc.init_classifier_params(cstore, d_e=2, num_schemas=3,
                                  rng=np.random.default_rng(2))
        cstore["schema_clf.ff2"].data = rng.normal(size=(4, 3)) * 0.3
        x = rng.normal(size=(1, 4))

        def f_clf(s):
            logits = sc._classifier_logits(ad.Tensor(x), s)
            return -co.take(co.log_softmax(logits, axis=-1), (0, 1))

        assert co.grad_check(f_clf, cstore, eps=eps) < tol

        # flow model block + log-prob w.r.t. prompts
        sim, _, _ = tiny_sim(head_scale=0.3)
        kg = sim.hkg.base
        flow = [kg.entity_id("g0"), kg.entity_id("m1")]
        schema = ("genre", "item")
        pstore = ad.ParamStore()
        pstore.add("e_u", rng.normal(size=5) * 0.5)
        pstore.add("e_v", rng.normal(size=5) * 0.5)

        def f_prompt(s):
            return ad.tensor_sum(flmm.flow_log_probs_batch(
                sim.flm, s["e_u"], s["e_v"], schema, [flow]))

        assert co.grad_check(f_prompt, pstore, eps=eps) < tol

        def f_block(_):
            return ad.tensor_sum(flmm.flow_log_probs_batch(
                sim.flm, pstore["e_u"], pstore["e_v"], schema, [flow]))

        block_names = [n for n in sim.flm.store.names()
                       if ".l0." in n or n.startswith("flm.head")]
        assert co.grad_check(f_block, sim.flm.store, eps=eps,
                             names=block_names) < tol

        # recommendation loss
        types = {"g": "genre", "m0": "item", "m1": "item", "m2": "item"}
        triples = [(m, "has_genre", "g") for m in ("m0", "m1", "m2")]
        g = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                        [f"{e}\t{t}" for e, t in types.items()])
        small = kgm.attach_users(g, {})
        model = rc.RecModel(small, d_e=3, seed=3)
        samples = [rz.RecSample(context=(g.entity_id("g"),),
                                label=int(model.item_ids[1]))]

        def f_rec(_):
            return rc.rec_loss(model, samples)

        assert co.grad_check(f_rec, model.store, eps=eps) < tol
        elapsed = time.time() - t0
        assert elapsed < 120, f"gradient suite took {elapsed:.1f}s"


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_02_mining_matches_oracle():
    with report(2, "schema mining equals brute-force count-filter oracle"):
        rng = np.random.default_rng(12)
        type_names = ["genre", "item", "actor", "director", "mood"]
        for trial in range(50):
            n_flows = int(rng.integers(1, 101))
            seqs = [tuple(type_names[rng.integers(5)]
                          for _ in range(rng.integers(1, 7)))
                    for _ in range(n_flows)]
            min_support = int(rng.integers(1, 5))
            max_len = int(rng.integers(2, 8))
            catalog = sc.mine_schemas(seqs, min_support=min_support,
                                      max_len=max_len)
            counts = Counter(s[:max_len] for s in seqs if s[:max_len])
            kept = sorted(((s, c) for s, c in counts.items()
                           if c >= min_support),
                          key=lambda sc_: (-sc_[1], len(sc_[0]), sc_[0]))
            assert catalog.schemas == [s for s, _ in kept]
            assert catalog.supports == [c for _, c in kept]


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_03_metrics_match_hand_oracle():
    with report(3, "ranking and diversity metrics equal the hand oracle"):
        types = {f"m{i}": "item" for i in range(60)}
        types["g"] = "genre"
        triples = [(f"m{i}", "has_genre", "g") for i in range(60)]
        g = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                        [f"{e}\t{t}" for e, t in types.items()])
        hkg = kgm.attach_users(g, {})
        model = rc.RecModel(hkg, d_e=4, seed=0)
        model.store["rec.item_bias"].data = -np.arange(60, dtype=float)
        cases = 0
        for rank in (1, 2, 3, 5, 10, 11, 20, 50):
            label = int(model.item_ids[rank - 1])
            rep = rc.evaluate(model, [rz.RecSample(context=(), label=label)],
                              ks=(10, 50))
            for k in (10, 50):
                if rank <= k:
                    assert rep.recall[k] == 1.0
                    assert rep.mrr[k] == 1.0 / rank
                    assert rep.ndcg[k] == 1.0 / math.log2(rank + 1)
                else:
                    assert rep.recall[k] == 0.0
                    assert rep.mrr[k] == 0.0
                    assert rep.ndcg[k] == 0.0
                cases += 1
        # e.g. rank 3 at k=10: MRR exactly 1/3, NDCG exactly 1/2
        label3 = int(model.item_ids[2])
        rep3 = rc.evaluate(model, [rz.RecSample(context=(), label=label3)],
                           ks=(10,))
        assert rep3.mrr[10] == 1.0 / 3.0 and rep3.ndcg[10] == 0.5
        text_cases = [
            (["a b c d e f"] * 10, 2, 5 / 10),
            (["a b c", "d e f", "g h i"], 2, 6 / 3),
            ([], 3, 0.0),
            (["x y z w"] * 4, 3, 2 / 4),
        ]
        for responses, n, expected in text_cases:
            assert rc.distinct_n(responses, n) == expected
            cases += 1
        assert cases >= 20


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_04_simulator_validity(mini):
    with report(4, "1000 generated flows valid; 1000 realizations faithful"):
        sim = mini.sim
        kg = mini.world.kg
        rng = np.random.default_rng(123)
        flows = []
        per_pair = 50
        while len(flows) < 1000:
            pair = mini.pairs[int(rng.integers(len(mini.pairs)))]
            e_u = sim.prompt(pair.u_entities)
            e_v = sim.prompt(pair.v_entities)
            schema = sim.predict_schema(e_u.data, e_v.data)
            for flow in flmm.generate_flows_batch(sim.flm, e_u.data, e_v.data,
                                                  schema, rng, per_pair):
                flows.append((flow, schema))
        flows = flows[:1000]
        for flow, schema in flows:
            assert all(kg.type_name_of(e) == t for e, t in zip(flow, schema))
            assert kgm.validate_flow(sim.hkg, flow, schema,
                                     hop_limit=sim.flm.cfg.hop_limit)
        for i, (flow, schema) in enumerate(flows):
            realized = rz.realize(flow, schema, sim.bank, kg, rng,
                                  dialogue_id=f"acc4-{i}")
            flow2, schema2 = cp.extract_flow(realized.dialogue, kg)
            assert flow2.entities == list(flow)
            assert schema2 == tuple(schema)


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_05_template_round_trip():
    with report(5, "templates reproduce 50 source dialogues byte-for-byte"):
        world = syn.make_world(seed=9, num_clusters=3, items_per_cluster=8,
                               actors_per_cluster=4, directors_per_cluster=2,
                               num_dialogues=50)
        assert len(world.dialogues) == 50
        checked = 0
        for d in world.dialogues:
            for turn, tpl in zip(d.turns, cp.extract_templates(d, world.kg)):
                text, spans = tpl.fill(list(tpl.surfaces))
                assert text == turn.text
                assert spans == [(m.start, m.end) for m in turn.mentions]
                checked += 1
        assert checked > 0


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_06_reinforce_correctness():
    with report(6, "REINFORCE estimator matches enumeration; decay exact"):
        # zero-reward case: exactly theta * (1 - 2 alpha lambda)
        sim, rec, pair = tiny_sim()
        state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
        init = np.random.default_rng(5).normal(
            size=state.store["delta_u"].shape)
        state.store["delta_u"].data = init.copy()
        alpha, lam = 0.05, 0.7
        cf.reinforce_step(state, sim, rec, lam, alpha, rollouts=4,
                          rng=np.random.default_rng(1),
                          reward_fn=lambda realized: 0.0)
        assert np.allclose(state.store["delta_u"].data,
                           init * (1.0 - 2.0 * alpha * lam),
                           rtol=0, atol=1e-15)

        # 10k-rollout mean vs exact enumeration within 5%
        sim, rec, pair = tiny_sim(head_scale=0.8, catalog_schema=("item",))
        state = cf.make_edit_state(pair, 1, 5, np.random.default_rng(0))
        reward_fn = cf.default_reward_fn(rec, sim.hkg.base)
        schema, probs, rewards, grads, exact = enumerate_pair_gradient(
            state, sim, rec, reward_fn)
        assert len(probs) <= 50
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        e_u, e_v = cf.edited_prompts(state, 0, sim)
        n = 10_000
        rng = np.random.default_rng(99)
        counts = dict.fromkeys(probs, 0)
        for _ in range(10):
            for flow in flmm.generate_flows_batch(sim.flm, e_u.data,
                                                  e_v.data, schema, rng,
                                                  count=n // 10):
                counts[tuple(flow)] += 1
        for name in ("delta_u", "delta_v"):
            sampled = sum((c / n) * rewards[f] * grads[f][name]
                          for f, c in counts.items())
            rel = (np.linalg.norm(sampled - exact[name])
                   / np.linalg.norm(exact[name]))
            assert rel < 0.05, (name, rel)


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_07_curriculum_exactness():
    with report(7, "lambda trajectory equals rho*delta^k exactly"):
        rhos = [1e-1, 1e-2, 1e-3]
        deltas = [0.9, 0.8, 0.7]
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = rhos[rng.integers(3)]
            delta = deltas[rng.integers(3)]
            sched = cf.CurriculumSchedule(rho=rho, delta=delta)
            values = [cf.curriculum_lambda(sched, k) for k in range(20)]
            assert values == [rho * delta ** k for k in range(20)]
            assert all(a > b for a, b in zip(values, values[1:]))


# -- criterion 8 ---------------------------------------------------------------

def test_criterion_08_flm_memorization():
    with report(8, "single-flow NLL < 0.01 in 500 steps; masked perplexity"):
        types = {"g0": "genre", "g1": "genre", "m0": "item", "m1": "item",
                 "m2": "item"}
        triples = [(m, "has_genre", g) for m in ("m0", "m1", "m2")
                   for g in ("g0", "g1")]
        g = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                        [f"{e}\t{t}" for e, t in types.items()])
        hkg = kgm.attach_users(g, {})
        model = flmm.FlowLM(hkg, RunConfig(flm_d_model=32, flm_layers=1,
                                           flm_heads=2, flm_ff_mult=2,
                                           max_len=4, seed=0), 6)
        emb_table = np.random.default_rng(0).normal(
            size=(hkg.num_nodes, 6)) * 0.5
        ex = flmm.FlowExample(entities=[g.entity_id("g0"),
                                        g.entity_id("m1")],
                              schema=("genre", "item"),
                              seeker_entities=[g.entity_id("g0")],
                              recommender_entities=[g.entity_id("m1")])
        e_u = flmm.user_prompt(model, ex.seeker_entities, emb_table)
        e_v = flmm.user_prompt(model, ex.recommender_entities, emb_table)
        # untrained, zero-init head: per-step perplexity = type-class size
        steps = flmm._flow_log_probs(model, e_u, e_v, ex.schema,
                                     [ex.entities]).data
        assert np.allclose(np.exp(-steps), [2.0, 3.0], rtol=0, atol=1e-12)
        flmm.pretrain_flm(model, [ex], emb_table, epochs=500, batch_size=1,
                          lr=5e-3, seed=0)
        e_u = flmm.user_prompt(model, ex.seeker_entities, emb_table)
        e_v = flmm.user_prompt(model, ex.recommender_entities, emb_table)
        nll = -ad.tensor_sum(flmm.flow_log_probs_batch(
            model, e_u, e_v, ex.schema, [ex.entities])).item()
        assert nll < 0.01


# -- criteria 9 and 10 -----------------------------------------------------------

@dataclass
class DirectionalResults:
    full: list
    low_data: list
    elapsed: float


@pytest.fixture(scope="module")
def directional():
    t0 = time.time()
    world = syn.make_world(seed=0, items_per_cluster=28,
                           actors_per_cluster=4, directors_per_cluster=2,
                           num_dialogues=500, split=(3, 1, 6))
    kg = world.kg
    assert kg.num_entities == 200
    assert len(kg.type_names) == 20
    assert len(world.dialogues) == 500

    def arms(seed, train, include_eda):
        hkg = world.hkg(train)
        train_samples = pl.samples_from_dialogues(train, kg)
        val_samples = pl.samples_from_dialogues(world.val, kg)
        test_samples = pl.samples_from_dialogues(world.test, kg)
        rec0 = rc.RecModel(hkg, d_e=32, num_bases=8, seed=seed)
        rc.pretrain_recommender(rec0, train_samples, val_samples, steps=150,
                                batch_size=64, lr=3e-3, eval_every=50,
                                seed=seed)
        snapshot = rec0.store.values_dict()

        def fresh():
            m = rc.RecModel(hkg, d_e=32, num_bases=8, seed=seed)
            m.store.load_values(snapshot)
            return m

        tc = RunConfig(courses=8, rho=0.1, delta=0.9, alpha=5e-2,
                       rollouts=4, edit_steps=2, k_edits=1,
                       pairs_per_course=8, sims_per_pair=3,
                       mix_ratio=0.7, course_rec_steps=30, rec_lr=1e-3,
                       rec_batch=64, patience=3, temperature=1.2,
                       seed=seed)
        out = {}
        arm = fresh()
        cf.train_baseline(arm, train_samples, val_samples, tc)
        out["baseline"] = rc.evaluate(arm, test_samples).recall[10]
        if include_eda:
            bank = rz.build_template_bank(train, kg)
            pool = [ex for ex, _ in pl.corpus_flows(train, kg)]
            arm = fresh()
            cf.train_eda(arm, bank, hkg, pool, train_samples, val_samples,
                         tc)
            out["eda"] = rc.evaluate(arm, test_samples).recall[10]
        sim = pl.build_simulator(
            hkg, train, rec0.entity_embeddings_array(),
            RunConfig(flm_d_model=32, flm_layers=1, flm_heads=2,
                      flm_ff_mult=2, min_support=5, pseudo_ratio=4,
                      flm_epochs=2, flm_batch=16, flm_lr=2e-3, clf_steps=150,
                      seed=seed))
        arm = fresh()
        pairs = pl.build_user_pairs(train, hkg)
        cf.train_augmented(arm, sim, pairs, train_samples, val_samples, tc)
        out["augmented"] = rc.evaluate(arm, test_samples).recall[10]
        return out

    full = [arms(seed, world.train, include_eda=True) for seed in range(5)]
    subset = [d for i, d in enumerate(world.train) if i % 5 == 0]
    low = [arms(seed, subset, include_eda=False) for seed in range(5)]
    return DirectionalResults(full=full, low_data=low,
                              elapsed=time.time() - t0)


def test_criterion_09_directional_end_to_end(directional):
    with report(9, "augmentation beats baseline and EDA on 5 seeds"):
        base = float(np.mean([r["baseline"] for r in directional.full]))
        aug = float(np.mean([r["augmented"] for r in directional.full]))
        wins = sum(r["augmented"] > r["eda"] for r in directional.full)
        print(f"    mean recall@10: augmented={aug:.3f} baseline={base:.3f} "
              f"eda-wins={wins}/5 elapsed={directional.elapsed:.0f}s")
        assert aug > base
        assert wins >= 3
        assert directional.elapsed < 600


def test_criterion_10_data_scarcity_trend(directional):
    with report(10, "20% data + augmentation reaches 80% of full baseline"):
        base_full = float(np.mean([r["baseline"]
                                   for r in directional.full]))
        aug_low = float(np.mean([r["augmented"]
                                 for r in directional.low_data]))
        print(f"    augmented@20%={aug_low:.3f} vs "
              f"0.8*baseline@100%={0.8 * base_full:.3f}")
        assert aug_low >= 0.8 * base_full


# -- criterion 11 ----------------------------------------------------------------

def test_criterion_11_full_pipeline_determinism(tmp_path):
    with report(11, "fixed-seed pipeline is bit-reproducible"):
        world = syn.make_world(seed=5, num_clusters=2, items_per_cluster=6,
                               actors_per_cluster=4, directors_per_cluster=2,
                               num_dialogues=60)
        paths = syn.write_world(world, str(tmp_path / "world"))
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            cfg = {
                "kg_path": paths["kg"], "types_path": paths["types"],
                "dialogues_path": paths["train"], "val_path": paths["val"],
                "test_path": paths["test"], "out_dir": str(out),
                "d_e": 16, "rgcn_bases": 4, "flm_d_model": 16,
                "flm_layers": 1, "flm_heads": 2, "flm_ff_mult": 2,
                "min_support": 2, "rec_steps": 120, "rec_batch": 32,
                "flm_epochs": 1, "flm_batch": 8, "pseudo_ratio": 1,
                "clf_steps": 50, "courses": 2, "rollouts": 2,
                "edit_steps": 1, "pairs_per_course": 2, "sims_per_pair": 1,
                "course_rec_steps": 10, "seed": 11,
            }
            cfg_path = tmp_path / f"cfg_{run}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["train", "--config", str(cfg_path)]) == 0
            blobs.append({name: (out / name).read_bytes()
                          for name in ("rec.ckpt", "flm.ckpt", "clf.ckpt",
                                       "rec_final.ckpt", "train_log.jsonl",
                                       "simulated.jsonl",
                                       "metrics_test.json")})
        for name in blobs[0]:
            assert blobs[0][name] == blobs[1][name], name
