"""Reverse-mode autodiff on dense numpy arrays.

Small tape-based engine: every operation returns a ``Tensor`` that remembers
its parents and a vector-Jacobian closure. ``backward`` walks the tape in
reverse topological order. Every tensor holds 64-bit floats: gradient checks
and bit-reproducible runs rely on it. Checkpoints may still carry 32-bit
arrays; loading them into a ``ParamStore`` widens them.

The hot paths of the transformer and the recommender are fused, so each
costs one tape node with a hand-written VJP instead of a chain of small
ones:

- ``layer_norm``: normalise, scale and shift, with the closed-form backward
  of Ba et al. (2016).
- ``attention``: multi-head scaled dot-product attention with its four
  projections and an optional additive mask; the keys and values may come
  from a batch-1 tensor shared by every row.
- ``matmul`` of an N-D tensor by a 2-D one runs forward and backward as one
  2-D GEMM over the flattened rows.
- ``ffn``: the tanh MLP ``tanh(x @ w1 + b1) @ w2 + b2`` of the flow model's
  feed-forward blocks and of the schema classifier.
- ``attention_pool``: the masked attention pool of padded id lists over an
  entity table, which pools every recommender context and flow-LM prompt.
- ``log_softmax_pick``: the masked log-softmax read at target ids, the
  cross-entropy of the recommender, the flow scorer and the schema
  classifier.
- ``rgcn_layer``: one R-GCN layer, the basis mix of the relation weights,
  the segment sum of the neighbour messages, the self path and the tanh;
  its VJP adds the self path's gradient into the transposed segment sum's
  output in place.
- ``item_scores``: the recommender's scores ``ctx @ table[items].T +
  bias``.

A recommender training step records 7 tape nodes in place of 19. The fused
nodes repeat the numpy operations of the op-by-op chains they replace, in
the same order, so their values and gradients are bit-equal to the chains'.
``frozen`` marks whole parameter stores as needing no gradient for a block,
so a backward pass through a fixed model differentiates only the path to
what is trained.

VJPs return None for a parent that needs no gradient (a frozen table, a
mask), and ``backward`` skips it.

The engine holds only the ops recflow differentiates. The op-by-op chains
that the tests compare the fused nodes against, and the finite-difference
``grad_check``, live in ``tests/chain_ops.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
from contextlib import contextmanager, suppress

import numpy as np

from .errors import NumericError

_F64_TAG = 0
_F32_TAG = 1
_DTYPES = {_F64_TAG: np.dtype("<f8"), _F32_TAG: np.dtype("<f4")}
CHECKPOINT_VERSION = 1


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


_F64 = np.dtype(np.float64)


class Tensor:
    __slots__ = ("data", "_parents", "_vjp", "requires_grad")

    def __init__(self, data, requires_grad=False):
        # the ops' results are f64 arrays already and need no conversion
        self.data = (data if type(data) is np.ndarray and data.dtype is _F64
                     else np.asarray(data, dtype=np.float64))
        self._parents = ()
        self._vjp = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operators ---------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


@contextmanager
def frozen(*stores):
    """The parameters of ``stores`` need no gradient inside the block:
    nothing records or differentiates a path that only they feed. Each
    parameter's previous ``requires_grad`` comes back on exit, also when the
    block raises."""
    params = [p for store in stores for _, p in store.items()]
    prev = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, prev):
            p.requires_grad = flag


def _make(data, parents, vjp):
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._vjp = vjp
                break
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic --------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape)
                if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape)
                if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def matmul(a, b):
    """``a @ b`` for an (..., k) ``a`` and a (k, n) ``b``: one 2-D GEMM over
    the flattened rows of ``a``, forward and backward."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ValueError(f"matmul takes an (..., k) tensor times a (k, n) "
                         f"one, not {a.data.shape} @ {b.data.shape}")
    a2 = a.data.reshape(-1, a.data.shape[-1])
    out = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        return ((g2 @ b.data.T).reshape(a.data.shape)
                if a.requires_grad else None,
                a2.T @ g2 if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def tensor_sum(a, axis=None):
    a = as_tensor(a)
    out = a.data.sum(axis=axis)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def mean(a):
    """The mean of every element of ``a``."""
    a = as_tensor(a)
    return mul(tensor_sum(a), 1.0 / a.data.size)


# -- shape ops ---------------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), vjp)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), vjp)


def _distinct_rows(key):
    """True when the 1-D integer array ``key`` is strictly increasing and
    non-negative: then no row is named twice."""
    return len(key) == 0 or (key[0] >= 0 and bool((key[1:] > key[:-1]).all()))


def _scatter_add(source, key, g):
    """A zero array shaped like ``source`` with the rows of ``g`` added at
    the rows ``key`` (a 1-D integer array), bit for bit as ``np.add.at``
    would add them."""
    if _distinct_rows(key):
        ga = np.zeros_like(source)
        ga[key] += g  # the same 0.0 + g as np.add.at, without its loop
        return ga
    # bincount adds each bin's weights to 0.0 in input order, as np.add.at
    # does: one (row, column) bin per element of g
    n, cols = source.shape[0], source.size // source.shape[0]
    bins = (key % n)[:, None] * cols + np.arange(cols)
    return np.bincount(bins.ravel(), weights=g.ravel(),
                       minlength=source.size).reshape(source.shape)


def rows(a, indices):
    """The rows ``indices`` (a 1-D id list) of ``a`` (embedding lookup); the
    gradient scatter-adds into the source rows."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"rows takes a 1-D id list, not shape {idx.shape}")
    return _make(a.data[idx], (a,), lambda g: (_scatter_add(a.data, idx, g),))


# scratch memory shared by the segment sums and optimizer_step, which never
# hold it across calls: fresh arrays of a few hundred KB were mapped anew on
# each call, and faulting their pages in cost nearly as much as the
# arithmetic
_scratch_buf = np.empty(0)


def _scratch(n):
    """A length-``n`` view into the shared scratch buffer."""
    global _scratch_buf
    if len(_scratch_buf) < n:
        _scratch_buf = np.empty(n)
    return _scratch_buf[:n]


# numpy's pairwise summation, the inner loop of ``np.add.reduceat``, adds
# fewer than _LANES terms in order, runs _LANES strided accumulators over up
# to _BLOCK terms, and splits longer sums in halves
_LANES, _BLOCK = 8, 128


class SegmentPlan:
    """A constant sparse map ``out[seg[e]] += weights[e] * x[src[e]]``.

    Each segment adds its terms ``weights[e] * x[src[e]]`` (edges in input
    order) exactly as ``np.add.reduceat`` adds them: the first term plus
    numpy's pairwise sum of the rest. That sum adds fewer than 8 terms in
    order. Up to 128 terms it runs 8 accumulators ``r[j] += t[i + j]`` over
    the whole blocks of 8, combines them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and then adds the
    remaining terms in order. Longer sums are split in halves.

    The plan runs that order rank-major (a "jagged diagonal" schedule). Its
    segments are ordered by edge count, largest first, so the segments that
    have a given term form a prefix, and each rank of terms is one
    contiguous block. One gather, one in-place multiply and one slice add
    per rank then sum every segment at once, in reused scratch memory.
    Where the remainder of an accumulated segment is shorter than that of a
    smaller one, it is padded with ``-0.0`` terms, which leave any sum
    unchanged, bit for bit. Hubs, the segments of more than 129 edges, are
    left to ``np.add.reduceat``.

    ``T`` is the transposed plan, and ``restrict`` selects whole segments.
    """

    def __init__(self, src, seg, weights, num_segments, num_sources):
        src, seg = np.asarray(src, np.intp), np.asarray(seg, np.intp)
        weights = np.asarray(weights, np.float64)
        for ids, n, what in ((src, num_sources, "source"),
                             (seg, num_segments, "segment")):
            if len(ids) and not (ids.min() >= 0 and ids.max() < n):
                raise ValueError(f"{what} ids must lie in [0, {n})")
        self.num_segments, self.num_sources = num_segments, num_sources
        self._transposed = (seg, src, weights, num_sources, num_segments)
        order = np.argsort(seg, kind="stable")
        src, weights = src[order], weights[order]
        count = np.bincount(seg, minlength=num_segments)
        first = np.cumsum(count) - count  # the first edge of each segment
        # positions: the non-empty segments by edge count, largest first,
        # then the hubs
        used = np.flatnonzero(count)
        hub = count[used] > _BLOCK + 1
        self._seg = used[np.lexsort((-count[used], hub))]
        self._count = c = count[self._seg]
        self._pos = np.full(num_segments, len(c), np.intp)  # empty: len(c)
        self._pos[self._seg] = np.arange(len(c))
        # segments [0, nb) are long: at least 8 terms after the first;
        # [nb, n2) short; [n2, n_head) single terms; [n_head, len(c)) hubs
        n_head = len(c) - int(hub.sum())
        nb = int((c[:n_head] > _LANES).sum())
        n2 = int((c[:n_head] > 1).sum())
        blocks, self._bounds, self._ranks = _blocks(c, n_head, nb, n2)
        self._slot_pos = np.concatenate([p for p, _ in blocks])
        rank = np.concatenate([np.broadcast_to(r, p.shape)
                               for p, r in blocks])
        edge = first[self._seg[self._slot_pos]] + rank
        real = rank >= 0
        # a padding term reads the zero row, x[num_sources], times -1.0
        self._src = np.where(real, src.take(edge, mode="clip"), num_sources)
        self._w = np.where(real, weights.take(edge, mode="clip"),
                           -1.0)[:, None]
        self._whole = _Cut(self)

    @functools.cached_property
    def T(self):
        return SegmentPlan(*self._transposed)

    @functools.cached_property
    def _t_pos(self):
        """This plan's position of the segment that each slot of ``T``'s
        schedule reads; a padding term's is the number of positions."""
        return np.append(self._pos, len(self._seg))[self.T._src]

    def restrict(self, segments, sources=None):
        """The plan of this plan's ``segments`` (increasing ids): its output
        row j is segment ``segments[j]``. It reads this plan's input as is
        when ``sources`` is None. Otherwise its input row i is source
        ``sources[i]`` of the result, which holds the sources those segments
        read together with the given ``sources`` (ids), increasing.

        Its ``T`` runs this plan's whole transposed schedule, or the part
        that writes the result's ``sources``, with every read of a segment
        left out sent to a zero row. So each source's gradient adds all of
        its out-edges' terms, zeros included, in the full plan's order:
        dropping the zero terms would change numpy's pairwise grouping and
        so the rounding. A source none of whose segments is kept sums only
        zero terms, which is 0.0 for positive weights.
        """
        sub = _Cut(self, segments)
        reads = sub.rows[self._t_pos]
        if sources is None:
            sub.T = _Cut(self.T, reads=reads)
            return sub
        read = np.zeros(self.num_sources + 1, dtype=bool)
        read[sub.src] = True
        read[sources] = True
        sub.sources = np.flatnonzero(read[:-1])
        src_rows = np.zeros(self.num_sources + 1, np.intp)
        src_rows[sub.sources] = np.arange(len(sub.sources))
        src_rows[-1] = len(sub.sources)
        sub.src = src_rows[sub.src]
        sub.T = _Cut(self.T, sub.sources, reads)
        return sub

    def apply(self, x):
        """Plain-array forward on (num_sources, d) rows."""
        return self._whole.apply(x)


def _blocks(c, n_head, nb, n2):
    """A schedule's blocks for positions of edge counts ``c``, split as in
    ``SegmentPlan.__init__``, in order, as (positions, term rank) pairs:
    rank 0 is a segment's first term and -1 a ``-0.0`` padding term. Also
    returns the position counts that size the blocks, and how many of them
    belong to the accumulator ranks and to the padded remainders."""
    ar = np.arange
    m, rem = np.divmod(c[:nb] - 1, _LANES)
    padded = np.maximum.accumulate(rem[::-1])[::-1]
    short = c[nb:n2] - 2  # terms after the first two
    lanes = [int((m > r).sum()) for r in range(int(m.max(initial=0)))]
    rems = [int((padded > k).sum()) for k in range(int(padded.max(initial=0)))]
    tails = [nb + int((short > k).sum())
             for k in range(int(short.max(initial=0)))]
    blocks = [(ar(n_head), 0)]
    # rank r of the accumulators: (lane j, position p) holds term 8r + j
    # after the first
    blocks += [(np.tile(ar(k), _LANES),
                1 + _LANES * r + np.repeat(ar(_LANES), k))
               for r, k in enumerate(lanes)]
    blocks += [(ar(k), np.where(i < rem[:k], 1 + _LANES * m[:k] + i, -1))
               for i, k in enumerate(rems)]
    blocks += [(ar(nb, n2), 1)]
    blocks += [(ar(nb, k), 2 + i) for i, k in enumerate(tails)]
    hubs = c[n_head:]
    at = np.repeat(ar(n_head, len(c)), hubs)
    blocks += [(at, ar(len(at)) - np.repeat(np.cumsum(hubs) - hubs, hubs))]
    bounds = np.array([n_head, nb, n2, *lanes, *rems, *tails], np.intp)
    return blocks, bounds, (len(lanes), len(rems))


class _Cut:
    """Whole segments of a ``SegmentPlan``'s schedule (all of them when
    ``segments`` is None): the schedule's slots of those segments, in order,
    reading input rows ``src`` (``reads``, or the plan's sources, at those
    slots), where the row after the input's last reads as zeros, and
    writing output row j for ``segments[j]``. ``rows`` maps each schedule
    position to its output row, or to ``len(segments)`` when left out."""

    def __init__(self, plan, segments=None, reads=None):
        self.plan = plan
        reads = plan._src if reads is None else reads
        if segments is None:
            self.src, self.w = reads, plan._w
            self.counts, sel = plan._bounds.tolist(), None
            self.targets, self.num_out = plan._seg, plan.num_segments
        else:
            num, self.num_out = len(plan._seg), len(segments)
            mark = np.zeros(num + 1, dtype=bool)
            at = plan._pos[segments]
            mark[at] = True
            mark[num] = False
            sel = np.flatnonzero(mark[:num])
            slots = np.flatnonzero(mark[plan._slot_pos])
            self.src, self.w = reads[slots], plan._w[slots]
            self.counts = np.searchsorted(sel, plan._bounds).tolist()
            self.rows = np.full(num + 1, self.num_out, np.intp)
            self.rows[at] = np.arange(self.num_out)
            self.rows[num] = self.num_out
            self.targets = self.rows[sel]
        self.hub_starts = None
        if plan._bounds[0] < len(plan._seg):
            hubs = plan._count[plan._bounds[0]:] if sel is None \
                else plan._count[sel[self.counts[0]:]]
            self.hub_starts = np.cumsum(hubs) - hubs

    def apply(self, x):
        """The sums of the cut's segments over (rows, d) inputs ``x``."""
        (rows, d), n = x.shape, len(self.src)
        out = np.zeros((self.num_out, d))
        if not n:
            return out
        buf = _scratch((n + rows + 1) * d)
        t = buf[:n * d].reshape(n, d)  # the terms, summed in place
        padded = buf[n * d:].reshape(rows + 1, d)  # x and the zero row
        padded[:rows] = x
        padded[rows] = 0.0
        np.take(padded, self.src, axis=0, out=t, mode="clip")
        t *= self.w
        num_lanes, num_rems = self.plan._ranks
        n_head, nb, n2, *rest = self.counts
        lanes, rems = rest[:num_lanes], rest[num_lanes:num_lanes + num_rems]
        at = n_head
        if nb:
            acc = t[at:at + _LANES * nb].reshape(_LANES, nb, d)
            at += _LANES * nb
            for k in lanes[1:]:
                acc[:, :k] += t[at:at + _LANES * k].reshape(_LANES, k, d)
                at += _LANES * k
            # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), each lane
            # contiguous: numpy copies an input that interleaves its output
            for step in (1, 2, 4):
                for j in range(0, _LANES, 2 * step):
                    acc[j] += acc[j + step]
            for k in rems:
                acc[0, :k] += t[at:at + k]
                at += k
            t[:nb] += acc[0]
        short = t[at:at + n2 - nb]
        at += n2 - nb
        for k in rest[num_lanes + num_rems:]:
            short[:k - nb] += t[at:at + k - nb]
            at += k - nb
        t[nb:n2] += short
        out[self.targets[:n_head]] = t[:n_head]
        if at < n:
            out[self.targets[n_head:]] = np.add.reduceat(
                t[at:], self.hub_starts, axis=0)
        return out


def rgcn_layer(h, plan, keep, bases, coeffs, w_self):
    """One R-GCN layer over the node rows ``h``:

        tanh(h[keep] @ w_self + msgs @ w_rel)

    with ``msgs`` the (rows, R*d_in) segment sums of ``h`` under ``plan``
    (each output row's R mean neighbour vectors side by side) and ``w_rel``
    the (R*d_in, d_out) stack of the basis-mixed relation weights
    ``coeffs @ bases``. ``keep`` picks the output rows' own rows of ``h``
    (strictly increasing positions, so none is read twice); None keeps
    every row."""
    if keep is not None:
        keep = np.asarray(keep, dtype=np.intp)
        if not _distinct_rows(keep):
            raise ValueError("keep must be strictly increasing row positions")
    h, bases, coeffs, w_self = (as_tensor(t) for t in (h, bases, coeffs,
                                                         w_self))
    nb, d_in, d_out = bases.data.shape
    num_rel = coeffs.data.shape[0]
    flat_bases = bases.data.reshape(nb, d_in * d_out)
    mixed = coeffs.data @ flat_bases
    w_rel = mixed.reshape(num_rel * d_in, d_out)
    sums = plan.apply(h.data)
    msgs = sums.reshape(-1, num_rel * d_in)
    own = h.data if keep is None else h.data[keep]
    out = np.tanh(own @ w_self.data + msgs @ w_rel)

    def vjp(g):
        gz = g * (1.0 - out * out)
        g_h = g_bases = g_coeffs = None
        if h.requires_grad:
            g_h = plan.T.apply((gz @ w_rel.T).reshape(sums.shape))
            g_own = gz @ w_self.data.T
            # the self path's gradient goes straight into the rows it read
            if keep is None:
                g_h += g_own
            else:
                g_h[keep] += g_own
        if bases.requires_grad or coeffs.requires_grad:
            g_mixed = (msgs.T @ gz).reshape(mixed.shape)
            if coeffs.requires_grad:
                g_coeffs = g_mixed @ flat_bases.T
            if bases.requires_grad:
                g_bases = (coeffs.data.T @ g_mixed).reshape(bases.data.shape)
        return (g_h, g_bases, g_coeffs,
                own.T @ gz if w_self.requires_grad else None)

    return _make(out, (h, bases, coeffs, w_self), vjp)


def item_scores(ctx, table, items, bias):
    """``ctx @ table[items].T + bias``: each row of ``ctx`` (b, d) scored
    against the rows ``items`` (integer ids) of ``table``, plus a bias per
    item."""
    ctx, table, bias = as_tensor(ctx), as_tensor(table), as_tensor(bias)
    items = np.asarray(items, dtype=np.intp)
    rows_t = table.data[items].T
    out = ctx.data @ rows_t + bias.data

    def vjp(g):
        return (g @ rows_t.T if ctx.requires_grad else None,
                _scatter_add(table.data, items, (ctx.data.T @ g).T)
                if table.requires_grad else None,
                _unbroadcast(g, bias.data.shape)
                if bias.requires_grad else None)

    return _make(out, (ctx, table, bias), vjp)


# -- softmax family ----------------------------------------------------------

# Additive logit mask for excluded entries: finite, so a fully masked row
# still normalises instead of producing NaN.
MASK_NEG = -1e30


def log_softmax_pick(logits, targets, mask=None):
    """``log_softmax(logits + mask)`` over the last axis, read at the integer
    ``targets`` (shaped like the leading axes): the log-likelihood of each
    target under the masked softmax. ``mask`` is an additive logit array;
    it gets no gradient."""
    logits = as_tensor(logits)
    z = logits.data if mask is None else logits.data + mask
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape != z.shape[:-1]:
        raise ValueError(f"targets of shape {targets.shape} for logits of "
                         f"shape {z.shape}")
    shifted = z - z.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    pick = (np.arange(targets.size), targets.reshape(-1))
    out = logp.reshape(-1, z.shape[-1])[pick].reshape(targets.shape)

    def vjp(g):
        # the scatter of the pick, then log_softmax's VJP
        ga = np.zeros_like(logp)
        ga.reshape(-1, z.shape[-1])[pick] += g.reshape(-1)
        gz = ga - np.exp(logp) * ga.sum(axis=-1, keepdims=True)
        return (_unbroadcast(gz, logits.data.shape),)

    return _make(out, (logits,), vjp)


def ffn(x, w1, b1, w2, b2):
    """``tanh(x @ w1 + b1) @ w2 + b2`` over the last axis of ``x``, each
    product one 2-D GEMM over the flattened rows."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    h = np.tanh((x2 @ w1.data).reshape(lead + w1.data.shape[1:]) + b1.data)
    h2 = h.reshape(-1, h.shape[-1])
    out = (h2 @ w2.data).reshape(lead + w2.data.shape[1:]) + b2.data

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = gw1 = gb1 = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = (g2 @ w2.data.T).reshape(h.shape) * (1.0 - h * h)
            gh2 = gh.reshape(-1, gh.shape[-1])
            if x.requires_grad:
                gx = (gh2 @ w1.data.T).reshape(x.data.shape)
            gw1 = x2.T @ gh2 if w1.requires_grad else None
            gb1 = _unbroadcast(gh, b1.data.shape) if b1.requires_grad else None
        return (gx, gw1, gb1,
                h2.T @ g2 if w2.requires_grad else None,
                _unbroadcast(g, b2.data.shape) if b2.requires_grad else None)

    return _make(out, (x, w1, b1, w2, b2), vjp)


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale
           + LAYER_NORM_EPS) ** -0.5
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        gx = None
        if x.requires_grad:
            gh = g * gain.data
            gx = inv * (gh - gh.sum(axis=-1, keepdims=True) * scale
                        - xhat * ((gh * xhat).sum(axis=-1, keepdims=True)
                                  * scale))
        return (gx,
                _unbroadcast(g * xhat, gain.data.shape)
                if gain.requires_grad else None,
                _unbroadcast(g, bias.data.shape)
                if bias.requires_grad else None)

    return _make(out, (x, gain, bias), vjp)


def attention(x, kv, wq, wk, wv, wo, n_heads, mask=None):
    """Multi-head scaled dot-product attention of ``x`` (b, tq, d) over
    ``kv`` (b or 1, tk, d), with (d, d) projections and ``mask`` an additive
    logit array broadcastable to (b, n_heads, tq, tk). A batch-1 ``kv`` is
    shared by every row of ``x``, and its gradients sum over the rows."""
    x, kv = as_tensor(x), as_tensor(kv)
    wq, wk, wv, wo = (as_tensor(w) for w in (wq, wk, wv, wo))
    b, tq, d = x.data.shape
    bk, tk = kv.data.shape[:2]
    if bk not in (1, b):
        raise ValueError(f"kv batch {bk} must be 1 or {b}")
    dk = d // n_heads
    x2, kv2 = x.data.reshape(-1, d), kv.data.reshape(-1, d)

    def heads(flat, nb, t):  # (nb*t, d) -> (nb, h, t, dk)
        return flat.reshape(nb, t, n_heads, dk).transpose(0, 2, 1, 3)

    def merge(t4):  # (nb, h, t, dk) -> (nb*t, d)
        return t4.transpose(0, 2, 1, 3).reshape(-1, d)

    q = heads(x2 @ wq.data, b, tq)
    k = heads(kv2 @ wk.data, bk, tk)
    v = heads(kv2 @ wv.data, bk, tk)
    scale = 1.0 / np.sqrt(dk)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = merge(p @ v)
    out = (ctx @ wo.data).reshape(b, tq, d)

    def vjp(g):
        g2 = g.reshape(-1, d)
        d_ctx = heads(g2 @ wo.data.T, b, tq)
        d_p = d_ctx @ np.swapaxes(v, -1, -2)
        d_s = p * (d_p - (d_p * p).sum(axis=-1, keepdims=True)) * scale
        d_q = merge(d_s @ k)
        d_k = np.swapaxes(d_s, -1, -2) @ q
        d_v = np.swapaxes(p, -1, -2) @ d_ctx
        if bk != b:  # every row attended to the one shared kv
            d_k = d_k.sum(axis=0, keepdims=True)
            d_v = d_v.sum(axis=0, keepdims=True)
        d_k, d_v = merge(d_k), merge(d_v)
        gx = (d_q @ wq.data.T).reshape(x.data.shape) if x.requires_grad else None
        gkv = ((d_k @ wk.data.T + d_v @ wv.data.T).reshape(kv.data.shape)
               if kv.requires_grad else None)
        return (gx, gkv,
                x2.T @ d_q if wq.requires_grad else None,
                kv2.T @ d_k if wk.requires_grad else None,
                kv2.T @ d_v if wv.requires_grad else None,
                ctx.T @ g2 if wo.requires_grad else None)

    return _make(out, (x, kv, wq, wk, wv, wo), vjp)


def attention_pool(table, ids, lens, w_attn, b_attn):
    """Attention-pool rows of ``table`` (n, d) per row of the padded id
    matrix ``ids`` (b, pad), of which row i holds ``lens[i]`` ids:

        alpha_i = softmax(tanh(E_i w_attn^T) b_attn),   out_i = alpha_i^T E_i

    with E_i the named rows, ``w_attn`` (d, d) and ``b_attn`` (d, 1). A row
    with no ids pools to zero. Returns (b, d)."""
    table, w_attn, b_attn = (as_tensor(t) for t in (table, w_attn, b_attn))
    b, pad = ids.shape
    d = table.data.shape[1]
    key = ids.reshape(-1)
    # an empty row keeps slot 0 open (a harmless row the gate zeroes)
    mask = np.where(np.arange(pad) < np.maximum(lens, 1)[:, None], 0.0,
                    MASK_NEG)
    gate = (lens > 0).astype(np.float64)[:, None]
    rows2 = table.data[key]
    w_t = np.swapaxes(w_attn.data, 0, 1)
    h = np.tanh((rows2 @ w_t).reshape(b, pad, -1))
    h2 = h.reshape(-1, h.shape[-1])
    scores = (h2 @ b_attn.data).reshape(b, pad) + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = (e / e.sum(axis=-1, keepdims=True)).reshape(b, 1, pad)
    rows3 = rows2.reshape(b, pad, d)
    out = (alpha @ rows3).reshape(b, d) * gate

    def vjp(g):
        g3 = (g * gate).reshape(b, 1, d)
        g_alpha = (g3 @ np.swapaxes(rows3, -1, -2)).reshape(b, pad)
        a2 = alpha.reshape(b, pad)
        dot = (g_alpha * a2).sum(axis=-1, keepdims=True)
        g_scores = (a2 * (g_alpha - dot)).reshape(-1, 1)
        gw = gb = g_table = None
        if b_attn.requires_grad:
            gb = h2.T @ g_scores
        if table.requires_grad or w_attn.requires_grad:
            g_pre = ((g_scores @ b_attn.data.T).reshape(h.shape)
                     * (1.0 - h * h)).reshape(-1, h.shape[-1])
            if w_attn.requires_grad:
                gw = np.swapaxes(rows2.T @ g_pre, 0, 1)
            if table.requires_grad:
                g_rows = (np.swapaxes(alpha, -1, -2) @ g3
                          + (g_pre @ w_t.T).reshape(b, pad, d))
                g_table = _scatter_add(table.data, key, g_rows.reshape(-1, d))
        return gw, gb, g_table

    # parents in the order the op-by-op chain's tape visits them
    return _make(out, (w_attn, b_attn, table), vjp)


# -- backward ----------------------------------------------------------------

def _topo_order(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))
    return order


def backward(loss, params):
    """Gradients of a scalar ``loss`` with respect to the parameters of the
    store ``params``: a name -> ndarray map, in store order, holding the
    parameters that ``loss`` reaches. No tensor keeps a gradient after the
    call. Gradients are not checked for finiteness here: ``optimizer_step``
    checks the ones it applies.
    """
    if not isinstance(loss, Tensor):
        raise NumericError("loss must be a Tensor")
    if loss.data.size != 1:
        raise NumericError(f"loss has shape {loss.data.shape}")
    if not loss.requires_grad:
        return {}

    grads = {loss: np.ones_like(loss.data)}
    leaves = {}
    for node in reversed(_topo_order(loss)):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._vjp is None:
            leaves[node] = g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad or pg is None:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg

    return {name: leaves[p] for name, p in params.items() if p in leaves}


# -- parameters and optimizer ------------------------------------------------

class ParamStore:
    """Named trainable tensors whose values live in one flat f64 buffer.

    Parameters are laid out in the order they were added, at the first
    ``optimizer_step``; adding one after that raises ``ValueError``. Each
    step makes every ``.data`` a reshaped view into the buffer, copying the
    values in when ``.data`` is not that view yet: at the first step, or
    after ``.data`` was rebound to another array, as ``load_values`` and
    callers that assign it do. The Adam moments are flat buffers of the same
    layout, and ``step_count`` is the one step count of the whole store.
    """

    def __init__(self):
        self._params = {}
        self.step_count = 0
        self._flat = self._m = self._v = np.zeros(0)
        self._views = []

    def add(self, name, value):
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        if self.step_count:
            raise ValueError(f"cannot add {name!r}: the store has taken "
                             f"{self.step_count} optimizer steps")
        t = Tensor(np.array(value, dtype=np.float64, order="C"),
                   requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def values_dict(self):
        return {k: v.data.copy() for k, v in self._params.items()}

    def load_values(self, values):
        for name, arr in values.items():
            p = self._params[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name!r}: "
                                 f"{arr.shape} vs {p.data.shape}")
            p.data = arr.copy()

    def _layout(self):
        """Give every parameter a view into a new flat buffer and zero the
        moments, unless that was done already; ``optimizer_step`` copies
        the values into the views."""
        if len(self._views) == len(self._params):
            return
        shapes = [p.data.shape for p in self._params.values()]
        bounds = [0, *itertools.accumulate(math.prod(s) for s in shapes)]
        self._flat = np.empty(bounds[-1])
        self._m, self._v = np.zeros(bounds[-1]), np.zeros(bounds[-1])
        self._views = [self._flat[lo:hi].reshape(shape)
                       for lo, hi, shape in zip(bounds, bounds[1:], shapes)]

    def checksum(self):
        import hashlib
        h = hashlib.sha256()
        for name, p in self._params.items():
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(p.data).tobytes())
        return h.hexdigest()


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def optimizer_step(store, grads, lr):
    """One Adam step (Kingma & Ba, 2015) over the whole store.

    ``grads`` names every parameter of the store and nothing else; a
    missing or extra name raises ``ValueError`` before anything is written.
    The gradients are copied into one flat array in store order and checked
    for finiteness once: a non-finite gradient raises a ``NumericError``
    naming the first bad parameter, before anything
    is written. The update then runs once, in place over the store's flat
    buffers, at the store's step count.
    """
    names = store._params.keys()
    if grads.keys() != names:
        raise ValueError("optimizer_step needs one gradient per parameter: "
                         f"missing {sorted(names - grads.keys())}, "
                         f"extra {sorted(grads.keys() - names)}")
    store._layout()
    parts = []
    for (name, p), view in zip(store._params.items(), store._views):
        if p.data is not view:
            view[...] = p.data
            p.data = view
        g = grads[name]
        parts.append(g.data if isinstance(g, Tensor) else g)
    g, tmp = np.split(_scratch(2 * len(store._flat)), 2)
    # each part is flattened; a size mismatch raises ValueError
    np.concatenate(parts, axis=None, out=g)
    if not np.isfinite(g).all():
        bad = next(name for name, part in zip(store._params, parts)
                   if not np.isfinite(part).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")
    store.step_count += 1
    _adam(store._flat, store._m, store._v, g, tmp, store.step_count, lr)
    return store


def _adam(p, m, v, g, tmp, t, lr):
    """Adam at step ``t`` on matching 1-D arrays, in place; ``g`` and
    ``tmp`` are overwritten. Each element sees the operations of the
    textbook formula in one fixed order."""
    b1, b2 = ADAM_BETAS
    np.multiply(g, 1.0 - b1, out=tmp)
    m *= b1
    m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v *= b2
    v += tmp
    # lr * m_hat / (sqrt(v_hat) + eps), bias corrections as scalars
    np.multiply(v, 1.0 / (1.0 - b2 ** t), out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    np.divide(m, g, out=g)
    g *= lr / (1.0 - b1 ** t)
    p -= g


# -- initializers --------------------------------------------------------------

def xavier_uniform(shape, rng):
    fan_in, fan_out = shape[-1], shape[-2] if len(shape) > 1 else shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# -- checkpoints ---------------------------------------------------------------

@contextmanager
def atomic_write(path, mode="wb", **open_kwargs):
    """Open a sibling temp file for writing and move it onto ``path`` only
    when the block completes, so ``path`` never holds a partial write. On
    an error the temp file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, store):
    """Binary parameter dump; see load_checkpoint for the inverse.

    Layout: header (version uint32, entry count uint32), then per entry
    name length uint32 + UTF-8 name, dtype tag uint8, rank uint8,
    dims uint32 each, little-endian value payload. The file is replaced
    atomically (``atomic_write``).
    """
    entries = [(name, p.data if isinstance(p, Tensor) else np.asarray(p))
               for name, p in store.items()]
    with atomic_write(path) as fh:
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
        for name, arr in entries:
            raw = name.encode("utf-8")
            tag = _F32_TAG if arr.dtype == np.float32 else _F64_TAG
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", tag, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[tag]).tobytes())


def _read_exact(fh, n):
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated checkpoint: expected {n} more bytes, "
                         f"got {len(data)}")
    return data


def load_checkpoint(path):
    """Read a checkpoint into an ordered name -> ndarray mapping.

    A file that ends early, has an unknown dtype tag or holds bytes after
    its last entry raises ValueError.
    """
    out = {}
    with open(path, "rb") as fh:
        version, count = struct.unpack("<II", _read_exact(fh, 8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
            name = _read_exact(fh, name_len).decode("utf-8")
            tag, rank = struct.unpack("<BB", _read_exact(fh, 2))
            if tag not in _DTYPES:
                raise ValueError(f"unknown dtype tag {tag} for {name!r}")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
            dt = _DTYPES[tag]
            n = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(_read_exact(fh, n * dt.itemsize),
                                dtype=dt).reshape(dims)
            out[name] = arr.astype(dt.base, copy=True)
        if fh.read(1):
            raise ValueError("trailing bytes after the last checkpoint entry")
    return out
