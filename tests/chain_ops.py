"""Reference ops that only the tests use, built on ``autodiff._make``.

recflow's engine holds only the ops recflow differentiates. The tests keep
these generic ones to write the op-by-op chains that the fused nodes are
checked against, bit for bit, and ``grad_check``, the central-difference
gradient check.
"""

import numpy as np

from recflow import autodiff as ad
from recflow.autodiff import _make, _unbroadcast, as_tensor


class NonFinite(FloatingPointError):
    pass


def sub(a, b):
    return ad.add(a, ad.mul(b, -1.0))


def matmul(a, b):
    """``a @ b`` for any operands of ndim >= 2, broadcast as numpy does."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = a.data @ b.data

    def vjp(g):
        ga = (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
              if a.requires_grad else None)
        gb = (_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
              if b.requires_grad else None)
        return ga, gb

    return _make(out, (a, b), vjp)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), vjp)


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g
        if not keepdims:
            g2 = np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        n = a.data.shape[axis]
    return ad.mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def swapaxes(a, ax1, ax2):
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def vjp(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(out, (a,), vjp)


def transpose(a):
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor; use swapaxes")
    return swapaxes(a, 0, 1)


def _distinct_rows(key):
    """True when ``key`` is a strictly increasing, non-negative 1-D integer
    array, or a tuple of equal-length ones led by such an array: then no
    element is named twice."""
    parts = key if isinstance(key, tuple) else (key,)
    if not parts:
        return False
    first = parts[0]
    for p in parts:
        if not (isinstance(p, np.ndarray) and p.dtype.kind in "iu"
                and p.ndim == 1 and len(p) == len(first)):
            return False
    return len(first) == 0 or (first[0] >= 0
                               and bool((first[1:] > first[:-1]).all()))


def _scatter_add(source, key, g):
    """A zero array shaped like ``source`` with ``g`` added at ``key``, bit
    for bit as ``np.add.at`` would add it."""
    if _distinct_rows(key):
        ga = np.zeros_like(source)
        ga[key] += g  # the same 0.0 + g as np.add.at, without its loop
    elif (isinstance(key, np.ndarray) and key.dtype.kind in "iu"
          and key.ndim == 1):
        # bincount adds each bin's weights to 0.0 in input order, as
        # np.add.at does: one (row, column) bin per element of g
        n, cols = source.shape[0], source.size // source.shape[0]
        bins = (key % n)[:, None] * cols + np.arange(cols)
        ga = np.bincount(bins.ravel(), weights=g.ravel(),
                         minlength=source.size).reshape(source.shape)
    else:
        ga = np.zeros_like(source)
        np.add.at(ga, key, g)
    return ga


def take(a, key):
    """Generic indexing; gradients scatter-add into the source."""
    a = as_tensor(a)
    return _make(a.data[key], (a,), lambda g: (_scatter_add(a.data, key, g),))


def segment_sum(x, plan):
    """Rows of ``x`` summed under a ``SegmentPlan`` or a restriction of one;
    the VJP is the same op on the transposed plan."""
    x = as_tensor(x)
    return _make(plan.apply(x.data), (x,), lambda g: (plan.T.apply(g),))


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), vjp)


def grad_check(f, store, eps=1e-5, names=None):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the store to a scalar Tensor and must be evaluable repeatedly.
    Relative error per coordinate is |a - d| / max(|a|, |d|, 1e-12).
    """
    analytic = ad.backward(f(store), store)
    worst = 0.0
    for name in (names if names is not None else store.names()):
        p = store[name]
        a = analytic.get(name)
        if a is None:
            a = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        a_flat = np.asarray(a, dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(store).data)
            flat[i] = orig - eps
            lo = float(f(store).data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFinite(f"non-finite evaluation at {name}[{i}]")
            d = (hi - lo) / (2.0 * eps)
            err = abs(a_flat[i] - d) / max(abs(a_flat[i]), abs(d), 1e-12)
            worst = max(worst, err)
    if not np.isfinite(worst):
        raise NonFinite("non-finite gradient-check error")
    return worst
