"""Frequent flow-schema mining and schema prediction for user pairs.

A schema here is a whole per-dialogue type sequence (truncated to max_len);
mining counts exact sequences and keeps the ones at or above min_support.
Gap-tolerant subsequence mining would yield schemas that cannot align
position-wise with a flow, so it is deliberately not used.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


class EmptyCatalog(ValueError):
    pass


class IndexOutOfCatalog(IndexError):
    pass


@dataclass
class SchemaCatalog:
    schemas: list[tuple]
    supports: list[int]
    min_support: int
    max_len: int
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {s: i for i, s in enumerate(self.schemas)}

    def __len__(self):
        return len(self.schemas)

    def index_of(self, schema):
        return self._index.get(tuple(schema))

    def to_json(self):
        return json.dumps([{"types": list(s), "support": c}
                           for s, c in zip(self.schemas, self.supports)],
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text, min_support=1, max_len=None):
        entries = json.loads(text)
        schemas = [tuple(e["types"]) for e in entries]
        supports = [int(e["support"]) for e in entries]
        longest = max((len(s) for s in schemas), default=0)
        return cls(schemas, supports, min_support, max_len or longest)


def mine_schemas(type_sequences, min_support=5, max_len=16):
    """Count whole type sequences (truncated to max_len) and keep the
    frequent ones, sorted by (support desc, length asc, lexicographic)."""
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    counts = Counter()
    for seq in type_sequences:
        seq = tuple(seq)[:max_len]
        if seq:
            counts[seq] += 1
    kept = [(s, c) for s, c in counts.items() if c >= min_support]
    kept.sort(key=lambda sc: (-sc[1], len(sc[0]), sc[0]))
    return SchemaCatalog(schemas=[s for s, _ in kept],
                         supports=[c for _, c in kept],
                         min_support=min_support, max_len=max_len)


CLF_PREFIX = "schema_clf"


def init_classifier_params(store, d_e, num_schemas, rng=None):
    """One-hidden-layer MLP over [e_u, e_v] with a hidden width of 2 * d_e;
    the output head starts at zero so an untrained classifier is exactly
    uniform."""
    rng = rng or np.random.default_rng(0)
    hidden = 2 * d_e
    store.add(f"{CLF_PREFIX}.w1", ad.xavier_uniform((hidden, 2 * d_e), rng))
    store.add(f"{CLF_PREFIX}.b1", np.zeros((1, hidden)))
    store.add(f"{CLF_PREFIX}.w2", np.zeros((num_schemas, hidden)))
    store.add(f"{CLF_PREFIX}.b2", np.zeros((1, num_schemas)))
    return store


def _classifier_logits(pair_matrix, store):
    h = ad.tanh(pair_matrix @ ad.transpose(store[f"{CLF_PREFIX}.w1"])
                + store[f"{CLF_PREFIX}.b1"])
    return (h @ ad.transpose(store[f"{CLF_PREFIX}.w2"])
            + store[f"{CLF_PREFIX}.b2"])


def predict_schema(e_u, e_v, store, catalog):
    """Distribution over the catalog plus the argmax schema index.

    Ties break toward the lower catalog index (the catalog is sorted by
    support, so ties prefer the more frequent schema).
    """
    if len(catalog) == 0:
        raise EmptyCatalog("cannot predict over an empty schema catalog")
    e_u, e_v = ad.as_tensor(e_u), ad.as_tensor(e_v)
    pair = ad.reshape(ad.concat([e_u, e_v], axis=0), (1, -1))
    logits = _classifier_logits(pair, store)
    probs = ad.softmax(logits, axis=-1)
    best = int(np.argmax(probs.data[0]))
    return ad.reshape(probs, (-1,)), best


def train_schema_classifier(pairs, store, catalog, lr=1e-3, steps=200,
                            val_fraction=0.1, seed=0):
    """Cross-entropy training of the schema classifier.

    ``pairs`` is a list of (e_u, e_v, gold_index); ``store`` holds the
    classifier's parameters alone (``init_classifier_params``). Loads the
    best-validation snapshot back into ``store`` and returns the loss
    history.
    """
    if len(catalog) == 0:
        raise EmptyCatalog("cannot train against an empty catalog")
    for _, _, gold in pairs:
        if not (0 <= gold < len(catalog)):
            raise IndexOutOfCatalog(f"gold index {gold} outside catalog "
                                    f"of size {len(catalog)}")
    rng = np.random.default_rng(seed)
    x = np.stack([np.concatenate([np.asarray(u), np.asarray(v)])
                  for u, v, _ in pairs])
    y = np.array([g for _, _, g in pairs], dtype=np.intp)
    n = len(pairs)
    n_val = int(n * val_fraction)
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        train_idx = order

    def batch_loss(idx):
        logits = _classifier_logits(ad.Tensor(x[idx]), store)
        return -ad.mean(ad.log_softmax_pick(logits, y[idx]))

    best = None
    best_val = np.inf
    history = []
    for step in range(steps):
        idx = train_idx[rng.integers(0, len(train_idx),
                                     size=min(32, len(train_idx)))]
        loss = batch_loss(idx)
        ad.optimizer_step(store, ad.backward(loss, store), lr=lr)
        history.append(loss.item())
        if len(val_idx) and (step + 1) % 20 == 0:
            with ad.no_grad():
                v = batch_loss(val_idx).item()
            if v < best_val:
                best_val = v
                best = store.values_dict()
    if best is not None:
        store.load_values(best)
    return history
