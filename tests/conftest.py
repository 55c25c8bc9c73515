"""Shared fixtures: a miniature synthetic world with a pre-trained
recommender and simulator, built once per session. Tests that train the
recommender train a copy of it (``mini.rec.copy()``)."""

from dataclasses import dataclass

import pytest

from recflow import pipeline as pl
from recflow import recommender as rc
from recflow import synthetic as syn
from recflow.config import RunConfig


@dataclass
class MiniWorld:
    world: object
    hkg: object
    rec: object
    sim: object
    sim_cfg: object
    pairs: list
    train_samples: list
    val_samples: list
    test_samples: list


@pytest.fixture(scope="session")
def mini():
    world = syn.make_world(seed=3, num_clusters=2, items_per_cluster=6,
                           actors_per_cluster=4, directors_per_cluster=2,
                           num_dialogues=80)
    hkg = world.hkg()
    kg = world.kg
    train_samples = pl.samples_from_dialogues(world.train, kg)
    val_samples = pl.samples_from_dialogues(world.val, kg)
    test_samples = pl.samples_from_dialogues(world.test, kg)
    sim_cfg = RunConfig(flm_d_model=16, flm_layers=1, flm_heads=2,
                        flm_ff_mult=2, min_support=2, pseudo_ratio=2,
                        flm_epochs=2, flm_batch=8, clf_steps=100, seed=0)
    rec = rc.RecModel(hkg, d_e=16, num_bases=sim_cfg.rgcn_bases,
                      seed=sim_cfg.seed)
    rc.pretrain_recommender(rec, train_samples, val_samples, steps=200,
                            batch_size=32, lr=3e-3, eval_every=50,
                            seed=sim_cfg.seed)
    sim = pl.build_simulator(hkg, world.train, rec.entity_embeddings_array(),
                             sim_cfg)
    pairs = pl.build_user_pairs(world.train, hkg)
    return MiniWorld(world=world, hkg=hkg, rec=rec, sim=sim,
                     sim_cfg=sim_cfg, pairs=pairs,
                     train_samples=train_samples,
                     val_samples=val_samples, test_samples=test_samples)


@pytest.fixture
def scripted_evaluate(monkeypatch):
    """``install(recalls)`` makes ``rc.evaluate`` report the given validation
    Recall values in turn and returns the list of store checksums it sees,
    one per call."""
    def install(recalls):
        seen = []

        def fake(model, samples, ks=(10, 50)):
            seen.append(model.store.checksum())
            r = recalls[len(seen) - 1]
            return rc.MetricReport(recall={k: r for k in ks}, mrr={}, ndcg={})

        monkeypatch.setattr(rc, "evaluate", fake)
        return seen
    return install
