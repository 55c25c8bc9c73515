"""Entity-based recommender: graph-encoded entities, attentive context
pooling, inner-product scoring over the item set, plus the ranking and
diversity metric suite.

The context encoder pools the mentioned entities with the user-preference
attention pool (``embeddings.pool_entities``), under its own parameters.
Scores are context . item + item_bias; an empty context falls back to the
learned item prior (the bias), which starts uniform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import embeddings as emb
from .realization import ITEM_TYPE


class LabelNotItem(ValueError):
    def __init__(self, label):
        super().__init__(f"label entity {label} is not item-typed")
        self.label = label


class EmptyTestSet(ValueError):
    pass


@dataclass
class MetricReport:
    recall: dict
    mrr: dict
    ndcg: dict
    distinct: dict = field(default_factory=dict)
    n_samples: int = 0

    def to_dict(self):
        out = {"n_samples": self.n_samples}
        for k in sorted(self.recall):
            out[f"recall@{k}"] = self.recall[k]
            out[f"mrr@{k}"] = self.mrr[k]
            out[f"ndcg@{k}"] = self.ndcg[k]
        for n in sorted(self.distinct):
            out[f"distinct-{n}"] = self.distinct[n]
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_table(self, name="model"):
        ks = sorted(self.recall)
        header = ["Model"] + [f"{m}@{k}" for m in ("Recall", "MRR", "NDCG")
                              for k in ks]
        row = [name] + [f"{d[k]:.3f}" for d in (self.recall, self.mrr,
                                                self.ndcg) for k in ks]
        for n in sorted(self.distinct):
            header.append(f"Dist-{n}")
            row.append(f"{self.distinct[n]:.3f}")
        widths = [max(len(h), len(r)) for h, r in zip(header, row)]
        line = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        return "\n".join([line(header), line(["-" * w for w in widths]),
                          line(row)])


def ranking_metrics(rank, ks):
    """Per-sample metrics from a 1-based rank."""
    out = {}
    for k in ks:
        hit = rank <= k
        out[k] = {"recall": 1.0 if hit else 0.0,
                  "mrr": 1.0 / rank if hit else 0.0,
                  "ndcg": 1.0 / math.log2(rank + 1) if hit else 0.0}
    return out


def distinct_n(responses, n):
    """Unique n-gram count across the corpus, normalized by the number of
    responses (so values above 1 are possible)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not responses:
        return 0.0
    grams = set()
    for text in responses:
        toks = text.split()
        for i in range(len(toks) - n + 1):
            grams.add(tuple(toks[i:i + n]))
    return len(grams) / len(responses)


class RecModel:
    """Graph entity encoder + attention context pooling + item scorer."""

    def __init__(self, hkg, d_e=64, num_layers=1, num_bases=8, seed=0):
        self.hkg = hkg
        self.d_e = d_e
        self.num_layers = num_layers
        self.item_ids = np.array(hkg.base.entities_of_type(ITEM_TYPE),
                                 dtype=np.intp)
        self.item_index = {int(e): i for i, e in enumerate(self.item_ids)}
        rng = np.random.default_rng(seed)
        self.store = ad.ParamStore()
        num_rel = len(hkg.rgcn_relations())
        emb.init_rgcn_params(self.store, hkg, d_e, num_layers=num_layers,
                             num_bases=min(num_bases, num_rel), rng=rng,
                             prefix="rec.rgcn")
        emb.init_attention_params(self.store, d_e, rng=rng, prefix="rec.attn")
        self.store.add("rec.item_bias", np.zeros(len(self.item_ids)))

    @property
    def num_items(self):
        return len(self.item_ids)

    def entity_embeddings(self):
        return emb.rgcn_forward(self.hkg, self.store,
                                num_layers=self.num_layers,
                                prefix="rec.rgcn")

    def entity_embeddings_array(self):
        with ad.no_grad():
            return self.entity_embeddings().data.copy()

    def item_logits(self, table, contexts):
        ctx = emb.pool_entities(table, contexts, self.store["rec.attn.w"],
                                self.store["rec.attn.b"])
        items = ad.rows(table, self.item_ids)
        return ctx @ ad.transpose(items) + self.store["rec.item_bias"]

    def label_index(self, entity_id):
        idx = self.item_index.get(int(entity_id))
        if idx is None:
            raise LabelNotItem(entity_id)
        return idx


def score_items(model, context):
    """Total order over items for one context: score desc, item id asc."""
    with ad.no_grad():
        table = model.entity_embeddings()
        logits = model.item_logits(table, [list(context)]).data[0]
    order = np.lexsort((model.item_ids, -logits))
    return [(int(model.item_ids[i]), float(logits[i])) for i in order]


def rec_loss(model, samples, table=None):
    """Mean negative log-likelihood of the labels under the item softmax."""
    if not samples:
        raise ValueError("need at least one sample")
    labels = np.array([model.label_index(s.label) for s in samples],
                      dtype=np.intp)
    if table is None:
        table = model.entity_embeddings()
    logits = model.item_logits(table, [list(s.context) for s in samples])
    logp = ad.log_softmax(logits, axis=-1)
    picked = ad.take_pairs(logp, np.arange(len(samples)), labels)
    return -ad.mean(picked)


def _rank_chunk(model, table, samples):
    logits = model.item_logits(table, [list(s.context) for s in samples]).data
    out = np.empty(len(samples), dtype=np.int64)
    for i, s in enumerate(samples):
        li = model.label_index(s.label)
        ls = logits[i, li]
        better = np.sum(logits[i] > ls)
        tied_before = np.sum((logits[i] == ls)
                             & (model.item_ids < model.item_ids[li]))
        out[i] = int(better + tied_before) + 1
    return out


def _ranks(model, samples, batch=256, workers=1):
    chunks = [samples[lo:lo + batch] for lo in range(0, len(samples), batch)]
    with ad.no_grad():
        table = model.entity_embeddings()
        if workers > 1 and len(chunks) > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(lambda c: _rank_chunk(model, table, c),
                                      chunks))
        else:
            parts = [_rank_chunk(model, table, c) for c in chunks]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def evaluate(model, samples, ks=(10, 50), workers=1):
    """Mean Recall/MRR/NDCG at each cutoff over the test samples.

    Sample chunks are independent against the frozen model, so ``workers``
    threads may score them in parallel without changing the result."""
    if not samples:
        raise EmptyTestSet("no test samples")
    ranks = _ranks(model, samples, workers=workers)
    recall = {k: 0.0 for k in ks}
    mrr = {k: 0.0 for k in ks}
    ndcg = {k: 0.0 for k in ks}
    for r in ranks:
        per = ranking_metrics(int(r), ks)
        for k in ks:
            recall[k] += per[k]["recall"]
            mrr[k] += per[k]["mrr"]
            ndcg[k] += per[k]["ndcg"]
    n = len(samples)
    return MetricReport(recall={k: v / n for k, v in recall.items()},
                        mrr={k: v / n for k, v in mrr.items()},
                        ndcg={k: v / n for k, v in ndcg.items()},
                        n_samples=n)


def pretrain_recommender(model, train_samples, val_samples=None, steps=500,
                         batch_size=64, lr=1e-3, eval_every=50, patience=3,
                         seed=0, ks=(10, 50)):
    """Cross-entropy training of the scorer jointly with the graph encoder.

    Early-stops on validation Recall@50 with the given patience (measured in
    evaluations) and restores the best checkpoint before returning the
    training history.
    """
    if not train_samples:
        raise ValueError("need training samples")
    rng = np.random.default_rng(seed)
    history = {"loss": [], "val_recall": []}
    best = None
    best_metric = -np.inf
    misses = 0
    for step in range(steps):
        idx = rng.integers(0, len(train_samples),
                           size=min(batch_size, len(train_samples)))
        batch = [train_samples[i] for i in idx]
        loss = rec_loss(model, batch)
        grads = ad.backward(loss, model.store)
        ad.optimizer_step(model.store, grads, lr=lr)
        history["loss"].append(loss.item())
        if val_samples and (step + 1) % eval_every == 0:
            report = evaluate(model, val_samples, ks=ks)
            metric = report.recall[max(ks)]
            history["val_recall"].append(metric)
            if metric > best_metric:
                best_metric = metric
                best = model.store.values_dict()
                misses = 0
            else:
                misses += 1
                if misses >= patience:
                    break
    if best is not None:
        model.store.load_values(best)
    return history
