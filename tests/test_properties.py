"""Property tests of the checkpoint format, template filling, dialogue
record parsing and the graph's reach sets. They need the optional
``hypothesis`` package (the ``test`` extra) and are skipped without it."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import corpus as cp
from recflow import kg as kgm
from recflow.errors import DataError

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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def turn_records(draw):
    text = draw(st.text(max_size=12))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=6)))
    spans = list(zip(cuts[::2], cuts[1::2]))
    mentions = [{"entity": draw(st.text(min_size=1, max_size=4)),
                 "start": start, "end": end} for start, end in spans]
    return {"speaker": draw(st.sampled_from(cp.ROLES)), "text": text,
            "mentions": draw(st.permutations(mentions))}


def slots(value, path=()):
    """The path of every value nested in ``value``, ``value`` included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield from slots(inner, path + (key,))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_dialogue_records_load_clean_or_raise_a_parse_error(data):
    record = {"dialogue_id": data.draw(st.text(max_size=4)),
              "turns": data.draw(st.lists(turn_records(), max_size=3))}
    for key in data.draw(st.sets(st.sampled_from(
            ["seeker_id", "recommender_id"]))):
        record[key] = data.draw(st.text(max_size=4))
    damaged = data.draw(st.booleans())
    if damaged:
        path = data.draw(st.sampled_from(list(slots(record))))
        value = data.draw(json_values)
        if not path:
            record = value
        else:
            parent = record
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
    try:
        dialogues = cp.load_dialogues([json.dumps(record)])
    except DataError as err:
        assert damaged
        assert str(err).startswith(("unparseable dialogue record 0: ",
                                    "bad mention span in dialogue "))
        return
    for turn in (t for d in dialogues for t in d.turns):
        end = 0
        for m in turn.mentions:
            assert type(m.start) is int and type(m.end) is int
            assert end <= m.start < m.end <= len(turn.text)
            end = m.end


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_reach_is_the_validate_flow_oracle_as_a_shared_array(data):
    # entity i is e{i}: its self-triple interns it first and adds no edge
    n = data.draw(st.integers(1, 8))
    types = data.draw(st.lists(st.sampled_from(["genre", "item", "actor"]),
                               min_size=n, max_size=n))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=12))
    hop_limit = data.draw(st.integers(1, 3))
    kg = kgm.load_kg([f"e{i}\tself\te{i}" for i in range(n)]
                     + [f"e{a}\tr\te{b}" for a, b in edges],
                     [f"e{i}\t{t}" for i, t in enumerate(types)])
    hkg = kgm.attach_users(kg, {})
    for e in range(n):
        for t in kg.type_names:
            got = hkg.reach(e, t, hop_limit)
            assert got.dtype == np.intp and not got.flags.writeable
            assert (np.diff(got) > 0).all()
            assert set(got.tolist()) == {
                x for x in kg.entities_of_type(t) if x != e
                and kgm.validate_flow(hkg, [e, x], [kg.type_name_of(e), t],
                                      hop_limit)}
            assert hkg.reach(e, t, hop_limit) is got
