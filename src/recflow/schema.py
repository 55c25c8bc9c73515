"""Frequent flow-schema mining and schema prediction for user pairs.

A schema here is a whole per-dialogue type sequence (truncated to max_len);
mining counts exact sequences and keeps the ones at or above min_support.
Gap-tolerant subsequence mining would yield schemas that cannot align
position-wise with a flow, so it is deliberately not used. The classifier
trains through the recommender module's step loop and snapshot schedule.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import recommender as rc
from .errors import DataError


@dataclass
class SchemaCatalog:
    schemas: list[tuple]
    supports: list[int]
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
    def from_json(cls, text):
        """The catalog ``to_json`` wrote: a list of entries, each an object
        with a list of strings as "types" and a JSON integer (not a bool) as
        "support". Any other entry is a DataError."""
        entries = json.loads(text)
        if not isinstance(entries, list):
            raise DataError("catalog.json is not a list of schema entries")
        for i, e in enumerate(entries):
            types = e.get("types") if isinstance(e, dict) else None
            if (not isinstance(types, list)
                    or not all(isinstance(t, str) for t in types)
                    or type(e.get("support")) is not int):
                raise DataError(f"catalog.json entry {i} is not an object "
                                'with a list of strings as "types" and an '
                                'integer "support"')
        return cls([tuple(e["types"]) for e in entries],
                   [e["support"] for e in entries])


def mine_schemas(type_sequences, min_support, max_len):
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
                         supports=[c for _, c in kept])


CLF_PREFIX = "schema_clf"
_CLF_NAMES = [f"{CLF_PREFIX}.{n}" for n in ("ff1", "ff1_b", "ff2", "ff2_b")]


def init_classifier_params(store, d_e, num_schemas, rng):
    """One-hidden-layer tanh MLP over [e_u, e_v] (``autodiff.ffn``) with a
    hidden width of 2 * d_e; the output head starts at zero so an untrained
    classifier is exactly uniform."""
    hidden = 2 * d_e
    ff1, ff1_b, ff2, ff2_b = _CLF_NAMES
    # drawn as an (out, in) matrix, so the values are those of the layout
    # that checkpoints from before the ffn rename hold
    store.add(ff1, ad.xavier_uniform((hidden, 2 * d_e), rng).T)
    store.add(ff1_b, np.zeros((1, hidden)))
    store.add(ff2, np.zeros((hidden, num_schemas)))
    store.add(ff2_b, np.zeros((1, num_schemas)))
    return store


def classifier_values(values):
    """Checkpoint ``values`` of the classifier under the current names. A
    checkpoint from before the classifier ran on ``ffn`` holds (out, in)
    matrices ``w1`` and ``w2`` and biases ``b1`` and ``b2``; they come back
    transposed and renamed. Other values pass through as they are."""
    old = [f"{CLF_PREFIX}.{n}" for n in ("w1", "b1", "w2", "b2")]
    if not all(name in values for name in old):
        return values
    w1, b1, w2, b2 = (values[name] for name in old)
    return dict(zip(_CLF_NAMES, (w1.T, b1, w2.T, b2)))


def _classifier_logits(pair_matrix, store):
    return ad.ffn(pair_matrix, *(store[name] for name in _CLF_NAMES))


def predict_schema(e_u, e_v, store, catalog):
    """Distribution over the catalog (an array) plus the argmax schema
    index, computed without a tape.

    Ties break toward the lower catalog index (the catalog is sorted by
    support, so ties prefer the more frequent schema).
    """
    if len(catalog) == 0:
        raise DataError("cannot predict over an empty schema catalog")
    pair = np.concatenate([e_u, e_v]).reshape(1, -1)
    with ad.no_grad():
        logits = _classifier_logits(pair, store).data[0]
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    return probs, int(np.argmax(probs))


# share of the classifier's pairs held out for picking its snapshot
VAL_FRACTION = 0.1


def train_schema_classifier(pairs, store, catalog, lr, steps, seed):
    """Cross-entropy training of the schema classifier.

    ``pairs`` is a list of (e_u, e_v, gold_index); ``store`` holds the
    classifier's parameters alone (``init_classifier_params``). After each
    full 20 steps it measures the loss on the held-out ``VAL_FRACTION`` of
    the pairs; it loads the snapshot with the lowest one back into
    ``store`` and returns the training loss history.
    """
    if len(catalog) == 0:
        raise DataError("cannot train against an empty catalog")
    if not pairs:
        raise DataError("no schema-classifier training pairs")
    for _, _, gold in pairs:
        if not (0 <= gold < len(catalog)):
            raise DataError(f"gold index {gold} outside catalog of size "
                            f"{len(catalog)}")
    rng = np.random.default_rng(seed)
    x = np.stack([np.concatenate([np.asarray(u), np.asarray(v)])
                  for u, v, _ in pairs])
    y = np.array([g for _, _, g in pairs], dtype=np.intp)
    n_val = int(len(pairs) * VAL_FRACTION)
    order = rng.permutation(len(pairs))
    val_idx, train_idx = order[:n_val], order[n_val:]

    def batch_loss(idx):
        logits = _classifier_logits(x[idx], store)
        return -ad.mean(ad.log_softmax_pick(logits, y[idx]))

    history = []

    def rounds():
        for done in range(0, steps, 20):
            chunk = min(20, steps - done)
            batches = rc.draw_batches(train_idx, chunk, 32, rng)
            history.extend(rc.train_steps(store, batch_loss, batches, lr))
            if len(val_idx) and chunk == 20:
                with ad.no_grad():
                    metric = -batch_loss(val_idx).item()
                yield metric

    # patience never runs out: the schedule only keeps the best snapshot
    rc._select_snapshot(store, np.inf, rounds())
    return history
