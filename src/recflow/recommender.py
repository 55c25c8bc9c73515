"""Entity-based recommender: graph-encoded entities, attentive context
pooling, inner-product scoring over the item set, plus the ranking and
diversity metric suite.

The context encoder pools the mentioned entities with the user-preference
attention pool (``autodiff.attention_pool``), under its own parameters.
Scores are context . item + item_bias (``autodiff.item_scores``); an empty
context falls back to the learned item prior (the bias), which starts
uniform.

Samples are packed into arrays once (``pack_samples``: label item indices
and the contexts as ``embeddings.IdLists``), so a training step, ``rec_loss``,
``evaluate`` and ``score_items`` gather their batch, R-GCN row set and
padded context matrix with a few numpy operations.

Every model the package trains takes its steps in ``train_steps``, and the
recommender and the schema classifier keep the snapshot that one schedule,
``_select_snapshot``, picks (the recommender's by ``selection_metric``).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import embeddings as emb
from .errors import DataError
from .realization import ITEM_TYPE


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


def ranking_metrics(ranks, ks):
    """Per-sample metrics from 1-based ranks: ``{k: {"recall", "mrr",
    "ndcg"}}``, each an array shaped like ``ranks``."""
    ranks = np.asarray(ranks)
    top = max(ks)
    # math.log2, not np.log2: the two differ in the last bit on some ranks
    gain = [1.0 / math.log2(r + 1) for r in range(1, top + 1)]
    gains = np.array(gain)[np.minimum(ranks, top) - 1]
    out = {}
    for k in ks:
        hit = ranks <= k
        out[k] = {"recall": hit.astype(np.float64),
                  "mrr": np.where(hit, 1.0 / ranks, 0.0),
                  "ndcg": np.where(hit, gains, 0.0)}
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

    def __init__(self, hkg, d_e, num_layers=1, num_bases=8, seed=0):
        self.hkg = hkg
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

    def copy(self):
        """A model on the same graph with this model's parameter values and
        a fresh Adam state: zero moments and ``step_count`` 0."""
        clone = copy.copy(self)
        clone.store = ad.ParamStore()
        for name, p in self.store.items():
            clone.store.add(name, p.data)
        return clone

    def entity_embeddings(self):
        return emb.rgcn_forward(self.hkg, self.store,
                                num_layers=self.num_layers,
                                prefix="rec.rgcn")

    def entity_embeddings_array(self):
        with ad.no_grad():
            return self.entity_embeddings().data.copy()

    def item_logits(self, table, contexts, rows=None):
        """Item scores per context of the ``embeddings.IdLists``
        ``contexts``; ``table`` holds the embeddings of the increasing node
        ids ``rows``, or of every node when None."""
        ids, items = contexts.ids, self.item_ids
        if rows is not None:
            local = np.empty(self.hkg.num_nodes, dtype=np.intp)
            local[rows] = np.arange(len(rows))
            ids, items = local[ids], local[items]
        ctx = ad.attention_pool(table, contexts.padded(ids), contexts.lens,
                                self.store["rec.attn.w"],
                                self.store["rec.attn.b"])
        return ad.item_scores(ctx, table, items, self.store["rec.item_bias"])

    def label_index(self, entity_id):
        idx = self.item_index.get(int(entity_id))
        if idx is None:
            raise DataError(f"label entity {entity_id} is not item-typed")
        return idx


class SampleBatch:
    """Samples packed as arrays: ``labels``, the item index of each label,
    and ``contexts``, the context id lists (``embeddings.IdLists``)."""

    __slots__ = ("labels", "contexts")

    def __init__(self, labels, contexts):
        self.labels, self.contexts = labels, contexts

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, idx):
        """The samples at positions ``idx`` (repeats allowed), in order."""
        return SampleBatch(self.labels[idx], self.contexts.take(idx))


def pack_samples(model, samples):
    """A sample list as a ``SampleBatch``; a label that is not an item
    is a DataError."""
    return SampleBatch(
        np.array([model.label_index(s.label) for s in samples],
                 dtype=np.intp),
        emb.IdLists.pack([s.context for s in samples]))


def _packed(model, samples):
    return (samples if isinstance(samples, SampleBatch)
            else pack_samples(model, samples))


def score_items(model, context):
    """Total order over items for one context: score desc, item id asc."""
    with ad.no_grad():
        table = model.entity_embeddings()
        logits = model.item_logits(table,
                                   emb.IdLists.pack([context])).data[0]
    order = np.lexsort((model.item_ids, -logits))
    return [(int(model.item_ids[i]), float(logits[i])) for i in order]


def rec_loss(model, samples, table=None):
    """Mean negative log-likelihood of the labels under the item softmax,
    over a sample list or a ``SampleBatch``.

    Without a ``table``, the R-GCN computes only the rows the loss reads:
    the items and the batch's context entities.
    """
    if not samples:
        raise ValueError("need at least one sample")
    batch = _packed(model, samples)
    rows = None
    if table is None:
        read = np.zeros(model.hkg.num_nodes, dtype=bool)
        read[model.item_ids] = True
        read[batch.contexts.ids] = True
        rows = np.flatnonzero(read)
        table = emb.rgcn_forward(model.hkg, model.store,
                                 num_layers=model.num_layers,
                                 prefix="rec.rgcn", rows=rows)
    logits = model.item_logits(table, batch.contexts, rows=rows)
    return -ad.mean(ad.log_softmax_pick(logits, batch.labels))


RANK_CHUNK = 256
KS = (10, 50)  # the Recall/MRR/NDCG cutoffs every run reports


def _rank_chunk(model, table, batch):
    """1-based label ranks: items scoring higher, plus tied items with a
    lower id, come first."""
    logits = model.item_logits(table, batch.contexts).data
    labels = batch.labels
    own = logits[np.arange(len(labels)), labels][:, None]
    ids = model.item_ids
    ahead = (logits > own) | ((logits == own)
                              & (ids < ids[labels][:, None]))
    return ahead.sum(axis=1) + 1


def evaluate(model, samples, ks=KS):
    """Mean Recall/MRR/NDCG at each cutoff over the test samples (a list or
    a ``SampleBatch``), ranked in chunks of ``RANK_CHUNK`` samples against
    the frozen model."""
    if not samples:
        raise DataError("no test samples")
    batch = _packed(model, samples)
    n = len(batch)
    with ad.no_grad():
        table = model.entity_embeddings()
        ranks = np.concatenate([
            _rank_chunk(model, table,
                        batch[np.arange(lo, min(lo + RANK_CHUNK, n))])
            for lo in range(0, n, RANK_CHUNK)])
    per = ranking_metrics(ranks, ks)
    # a running total in sample order; np.sum adds pairwise
    mean = lambda a: float(np.add.accumulate(a)[-1]) / n
    return MetricReport(**{m: {k: mean(per[k][m]) for k in ks}
                           for m in ("recall", "mrr", "ndcg")},
                        n_samples=n)


def train_steps(store, batch_loss, batches, lr):
    """One Adam step on ``store`` per batch: ``batch_loss(batch)``, its
    gradients, the update. Returns the per-step losses."""
    losses = []
    for batch in batches:
        loss = batch_loss(batch)
        ad.optimizer_step(store, ad.backward(loss, store), lr=lr)
        losses.append(loss.item())
    return losses


def draw_batches(pool, steps, batch_size, rng):
    """``steps`` batches drawn from ``pool`` with replacement, lazily."""
    size = min(batch_size, len(pool))
    for _ in range(steps):
        yield pool[rng.integers(0, len(pool), size=size)]


class EarlyStopping:
    """Keeps the store's values from the best validation metric so far and
    calls for a stop after ``patience`` evaluations in a row without a
    strict improvement (Prechelt, 1998)."""

    def __init__(self, store, patience):
        self.store, self.patience = store, patience
        self.best, self.best_metric, self.misses = None, -np.inf, 0

    def update(self, metric):
        """Record one evaluation; True when training should stop."""
        if metric > self.best_metric:
            self.best_metric = metric
            self.best = self.store.values_dict()
            self.misses = 0
        else:
            self.misses += 1
        return self.misses >= self.patience

    def restore(self):
        if self.best is not None:
            self.store.load_values(self.best)


def _select_snapshot(store, patience, metrics):
    """Trains by iterating ``metrics``, which yields a validation metric
    (higher is better) after each scored round, until ``EarlyStopping``
    calls for a stop; then loads the best round's values into ``store``."""
    stopper = EarlyStopping(store, patience)
    for metric in metrics:
        if stopper.update(metric):
            break
    stopper.restore()


def selection_metric(report):
    """Recall at the largest cutoff; recommender snapshots are kept by it."""
    return report.recall[max(KS)]


def pretrain_recommender(model, train_samples, val_samples=None, steps=500,
                         batch_size=64, lr=1e-3, eval_every=50, patience=3,
                         seed=0):
    """Cross-entropy training of the scorer jointly with the graph encoder,
    scored on the validation samples after each full ``eval_every`` steps
    (patience counts evaluations). Returns the training history."""
    if not train_samples:
        raise DataError("need training samples")
    train_samples = _packed(model, train_samples)
    if val_samples:
        val_samples = _packed(model, val_samples)
    rng = np.random.default_rng(seed)
    history = {"loss": [], "val_recall": []}

    def rounds():
        for done in range(0, steps, eval_every):
            chunk = min(eval_every, steps - done)
            history["loss"] += train_steps(
                model.store, lambda batch: rec_loss(model, batch),
                draw_batches(train_samples, chunk, batch_size, rng), lr)
            if val_samples and chunk == eval_every:
                metric = selection_metric(evaluate(model, val_samples))
                history["val_recall"].append(metric)
                yield metric

    _select_snapshot(model.store, patience, rounds())
    return history
