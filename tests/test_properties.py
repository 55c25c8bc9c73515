"""Property tests of the checkpoint format and template filling. They need
the optional ``hypothesis`` package (the ``test`` extra) and are skipped
without it."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import corpus as cp

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp


@st.composite
def raw_float_arrays(draw):
    """f32 or f64 arrays of any bit pattern (NaN payloads, -0.0,
    subnormals), 0-d and zero-size shapes included."""
    dtype = draw(st.sampled_from([np.dtype("<f4"), np.dtype("<f8")]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=3))
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = draw(st.binary(min_size=nbytes, max_size=nbytes))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(store=st.dictionaries(st.text(max_size=8), raw_float_arrays(),
                             max_size=4))
def test_checkpoint_round_trips_names_dtypes_shapes_and_bits(store):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.ckpt"
        ad.save_checkpoint(path, store)
        loaded = ad.load_checkpoint(path)
    assert list(loaded) == list(store)
    for name, arr in store.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_fill_spans_slice_their_own_values(data):
    values = data.draw(st.lists(st.text(max_size=6), max_size=4))
    segments = data.draw(st.lists(st.text(max_size=6),
                                  min_size=len(values) + 1,
                                  max_size=len(values) + 1))
    tpl = cp.Template(speaker=cp.SEEKER, segments=tuple(segments),
                      signature=("item",) * len(values), dialogue_id="d")
    text, spans = tpl.fill(values)
    assert [text[start:end] for start, end in spans] == values
