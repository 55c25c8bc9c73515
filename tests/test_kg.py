import itertools

import numpy as np
import pytest

from recflow import kg as kgm
from recflow.errors import DataError


def make_kg(triples, types):
    triple_lines = [f"{h}\t{r}\t{t}" for h, r, t in triples]
    type_lines = [f"{e}\t{t}" for e, t in types.items()]
    return kgm.load_kg(triple_lines, type_lines)


TOY_TYPES = {
    "g1": "genre", "g2": "genre",
    "m1": "item", "m2": "item", "m3": "item", "m4": "item",
}
# each genre reaches exactly two items: per-position uniform sampling is
# uniform over the 4 valid (genre, item) paths
TOY_TRIPLES = [
    ("m1", "has_genre", "g1"), ("m2", "has_genre", "g1"),
    ("m3", "has_genre", "g2"), ("m4", "has_genre", "g2"),
]


def test_load_empty_source():
    g = kgm.load_kg([], ["a\titem"])
    assert g.num_entities == 0
    assert g.triples == []


def test_load_counts_forced_by_input():
    chain = [("m1", "has_genre", "g1"), ("g1", "related", "g2"),
             ("m2", "has_genre", "g2")]
    g = make_kg(chain, TOY_TYPES)
    assert g.num_entities == 4
    assert len(g.triples) == 3
    assert g.entity_names[:2] == ["m1", "g1"]  # first-appearance order


def test_load_dedups_repeated_triples():
    lines = ["a\tr\tb"] * 5
    g = kgm.load_kg(lines, ["a\titem", "b\tgenre"])
    assert len(g.triples) == 1


def test_load_missing_type():
    with pytest.raises(DataError, match="^no type for entity 'b'$"):
        kgm.load_kg(["a\tr\tb"], ["a\titem"])


def test_entity_id_of_a_name_outside_the_graph():
    g = kgm.load_kg(["a\tr\tb"], ["a\titem", "b\titem", "c\titem"])
    with pytest.raises(DataError,
                       match="^entity 'c' is not in the knowledge graph$"):
        g.entity_id("c")


def test_load_malformed_record_carries_line_number():
    with pytest.raises(DataError) as exc:
        kgm.load_kg(["a\tr\tb", "bad line"], ["a\titem", "b\titem"])
    assert str(exc.value) == ("malformed record at line 2: expected 3 fields, "
                              "got 1")


def test_attach_users_edge_count():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {"u1": ["m1"], "u2": ["m2", "g1"]})
    assert len(hkg.user_edges) == 3
    assert hkg.num_nodes == g.num_entities + 2


def test_attach_users_unknown_entity():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    with pytest.raises(DataError, match="^user 'u1' interacts with unknown "
                       "entity 'nope'$"):
        kgm.attach_users(g, {"u1": ["nope"]})


def test_attach_users_empty_list():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    with pytest.raises(DataError,
                       match="^user 'u1' has an empty interaction list$"):
        kgm.attach_users(g, {"u1": []})


def test_attach_zero_users_is_identity_plus_empty_user_set():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {})
    assert hkg.users == []
    assert hkg.base is g
    assert hkg.num_nodes == g.num_entities


def test_attach_users_never_touches_base_triples():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    before = list(g.triples)
    kgm.attach_users(g, {"u1": ["m1", "m2"]})
    assert g.triples == before


def test_sample_path_forced_choice():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    # restrict to a single genre entity by querying a type with one member
    types = dict(TOY_TYPES)
    types["a1"] = "actor"
    triples = TOY_TRIPLES + [("a1", "acted_in", "m1")]
    g = make_kg(triples, types)
    hkg = kgm.attach_users(g, {})
    rng = np.random.default_rng(0)
    flow = kgm.sample_path(hkg, ["actor"], rng)
    assert flow == [g.entity_id("a1")]


def test_sample_path_unreachable():
    types = {"g1": "genre", "m1": "item", "x1": "isolated"}
    triples = [("m1", "has_genre", "g1"), ("x1", "self", "x1")]
    g = make_kg(triples, types)
    hkg = kgm.attach_users(g, {})
    rng = np.random.default_rng(0)
    assert kgm.sample_path(hkg, ["isolated", "item"], rng) is None


def test_sample_path_unknown_type():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {})
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    # an unknown type at any position fails before any draw
    for schema in (["nope"], ["genre", "item", "nope"]):
        with pytest.raises(DataError, match="^unknown entity type 'nope'$"):
            kgm.sample_path(hkg, schema, rng)
        assert rng.bit_generator.state == state


def test_sample_path_never_steps_from_an_entity_to_itself():
    # a1 and a2 share m1; a3 reaches no other actor, a dead end
    types = {"a1": "actor", "a2": "actor", "a3": "actor", "m1": "item",
             "m2": "item"}
    triples = [("a1", "acted_in", "m1"), ("a2", "acted_in", "m1"),
               ("a3", "acted_in", "m2")]
    g = make_kg(triples, types)
    hkg = kgm.attach_users(g, {})
    a1, a2 = g.entity_id("a1"), g.entity_id("a2")
    assert hkg.reach(g.entity_id("a3"), "actor", 2).tolist() == []
    rng = np.random.default_rng(5)
    flows = {tuple(kgm.sample_path(hkg, ("actor", "actor"), rng))
             for _ in range(200)}
    assert flows == {(a1, a2), (a2, a1)}
    # the rule is about the previous entity only: a walk may come back
    m1 = g.entity_id("m1")
    flows = {tuple(kgm.sample_path(hkg, ("actor", "item", "actor"), rng))
             for _ in range(200)}
    assert (a1, m1, a1) in flows
    assert all(a != b for f in flows for a, b in zip(f, f[1:]))


def enumerate_valid_paths(hkg, schema, hop_limit=2):
    """Brute-force oracle: all type- and hop-valid entity sequences."""
    kg = hkg.base
    pools = [kg.entities_of_type(t) for t in schema]
    valid = []
    for combo in itertools.product(*pools):
        if kgm.validate_flow(hkg, list(combo), schema, hop_limit):
            valid.append(tuple(combo))
    return valid


def test_sample_path_matches_uniform_over_valid_set():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {})
    schema = ["genre", "item"]
    valid = enumerate_valid_paths(hkg, schema)
    assert len(valid) == 4
    rng = np.random.default_rng(42)
    n = 10_000
    counts = {p: 0 for p in valid}
    for _ in range(n):
        flow = kgm.sample_path(hkg, schema, rng)
        counts[tuple(flow)] += 1
    p = 1.0 / len(valid)
    sigma = (n * p * (1 - p)) ** 0.5
    for path, c in counts.items():
        assert abs(c - n * p) <= 3 * sigma, (path, c)


def test_sampled_flows_always_validate():
    rng = np.random.default_rng(1)
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {"u": ["m1"]})
    for schema in (["genre", "item"], ["item", "genre", "item"]):
        for _ in range(200):
            flow = kgm.sample_path(hkg, schema, rng)
            assert flow is not None
            assert kgm.validate_flow(hkg, flow, schema)


def test_sample_path_seed_reproducible():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {})
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        runs.append([kgm.sample_path(hkg, ["genre", "item"], rng)
                     for _ in range(50)])
    assert runs[0] == runs[1]


def test_validate_flow_rejects_type_mismatch_and_disconnection():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {})
    m1, m3, g1 = g.entity_id("m1"), g.entity_id("m3"), g.entity_id("g1")
    assert not kgm.validate_flow(hkg, [m1, m3], ["genre", "item"])
    # m1 and m3 are 4 hops apart (different genres) -> fails at hop_limit 2
    assert not kgm.validate_flow(hkg, [g1, m3], ["genre", "item"])
    assert kgm.validate_flow(hkg, [g1, m1], ["genre", "item"])


def test_rgcn_relations_include_inverses_and_user_edges():
    g = make_kg(TOY_TRIPLES, TOY_TYPES)
    hkg = kgm.attach_users(g, {"u1": ["m1", "m2"]})
    rels = dict((name, (src, dst)) for name, src, dst in hkg.rgcn_relations())
    assert "has_genre" in rels and "has_genre^inv" in rels
    assert kgm.INTERACTED in rels and kgm.INTERACTED + "^inv" in rels
    src, dst = rels[kgm.INTERACTED]
    assert len(src) == 2
    assert set(dst) == {g.entity_id("m1"), g.entity_id("m2")}
