import json

import pytest

from recflow import corpus as cp
from recflow import kg as kgm


MOVIE_TYPES = {
    "comedy": "genre", "21 Jump Street": "item", "Superbad": "item",
    "Jonah Hill": "actor", "scary": "genre",
}
MOVIE_TRIPLES = [
    ("21 Jump Street", "has_genre", "comedy"),
    ("Superbad", "has_genre", "comedy"),
    ("Jonah Hill", "acted_in", "21 Jump Street"),
    ("Jonah Hill", "acted_in", "Superbad"),
    ("21 Jump Street", "has_genre", "scary"),
]


@pytest.fixture
def movie_kg():
    triple_lines = [f"{h}\t{r}\t{t}" for h, r, t in MOVIE_TRIPLES]
    type_lines = [f"{e}\t{t}" for e, t in MOVIE_TYPES.items()]
    return kgm.load_kg(triple_lines, type_lines)


def mk_dialogue(dialogue_id, turns, **ids):
    """turns: list of (speaker, text, [entity names]); spans are located by
    sequential search so each listed entity must occur in the text."""
    built = []
    for speaker, text, entities in turns:
        mentions = []
        cursor = 0
        for name in entities:
            start = text.index(name, cursor)
            mentions.append({"entity": name, "start": start,
                             "end": start + len(name)})
            cursor = start + len(name)
        built.append({"speaker": speaker, "text": text, "mentions": mentions})
    return {"dialogue_id": dialogue_id, "turns": built, **ids}


def two_turn_example():
    return mk_dialogue("d0", [
        ("seeker", "I love all kinds of comedy movies.", ["comedy"]),
        ("recommender", "Have you seen 21 Jump Street?", ["21 Jump Street"]),
        ("seeker", "Yes, I love this film because Jonah Hill is in it.",
         ["Jonah Hill"]),
        ("recommender", "Try another comedy movie with him, Superbad.",
         ["comedy", "Superbad"]),
    ])


def load_one(record):
    return cp.load_dialogues([json.dumps(record)])[0]


def test_load_empty_stream():
    assert cp.load_dialogues([]) == []


def test_load_preserves_order():
    recs = [mk_dialogue(f"d{i}", [("seeker", "Hi", [])]) for i in range(3)]
    ds = cp.load_dialogues([json.dumps(r) for r in recs])
    assert [d.dialogue_id for d in ds] == ["d0", "d1", "d2"]


def test_load_span_out_of_bounds():
    rec = {"dialogue_id": "d", "turns": [
        {"speaker": "seeker", "text": "Hi",
         "mentions": [{"entity": "x", "start": 0, "end": 10}]}]}
    with pytest.raises(cp.SpanOutOfBounds):
        cp.load_dialogues([json.dumps(rec)])


def test_load_overlapping_spans_rejected():
    rec = {"dialogue_id": "d", "turns": [
        {"speaker": "seeker", "text": "abcdef",
         "mentions": [{"entity": "x", "start": 0, "end": 4},
                      {"entity": "y", "start": 2, "end": 6}]}]}
    with pytest.raises(cp.SpanOutOfBounds):
        cp.load_dialogues([json.dumps(rec)])


def test_load_parse_error_carries_record_index():
    with pytest.raises(cp.ParseError) as exc:
        cp.load_dialogues(['{"dialogue_id": "a", "turns": []}', "not json"])
    assert exc.value.record_index == 1


def test_load_nesting_too_deep_for_the_json_parser_is_a_parse_error():
    with pytest.raises(cp.ParseError) as exc:
        cp.load_dialogues(["[" * 100000])
    assert exc.value.record_index == 0


def test_load_bad_speaker():
    rec = {"dialogue_id": "d",
           "turns": [{"speaker": "robot", "text": "hi", "mentions": []}]}
    with pytest.raises(cp.ParseError):
        cp.load_dialogues([json.dumps(rec)])


def test_extract_flow_movie_example(movie_kg):
    d = load_one(two_turn_example())
    flow, schema = cp.extract_flow(d, movie_kg)
    names = [movie_kg.entity_names[e] for e in flow.entities]
    assert names == ["comedy", "21 Jump Street", "Jonah Hill", "comedy",
                     "Superbad"]
    assert schema == ("genre", "item", "actor", "genre", "item")
    assert flow.turn_index == [0, 1, 2, 3, 3]
    assert flow.speaker == ["seeker", "recommender", "seeker", "recommender",
                            "recommender"]


def test_extract_flow_no_mentions(movie_kg):
    d = load_one(mk_dialogue("d", [("seeker", "Hello!", [])]))
    flow, schema = cp.extract_flow(d, movie_kg)
    assert len(flow) == 0 and schema == ()


def test_extract_flow_one_mention_per_turn(movie_kg):
    d = load_one(mk_dialogue("d", [
        ("seeker", "comedy", ["comedy"]),
        ("recommender", "Superbad", ["Superbad"]),
        ("seeker", "Jonah Hill", ["Jonah Hill"]),
        ("recommender", "21 Jump Street", ["21 Jump Street"]),
    ]))
    flow, schema = cp.extract_flow(d, movie_kg)
    assert len(flow) == 4
    assert flow.turn_index == [0, 1, 2, 3]


def test_extract_templates_mood_example(movie_kg):
    d = load_one(mk_dialogue("d", [
        ("seeker", "I am in a mood for something scary", ["scary"]),
    ]))
    (tpl,) = cp.extract_templates(d, movie_kg)
    assert tpl.text == "I am in a mood for something <genre>"
    assert tpl.signature == ("genre",)


def test_extract_templates_item_example(movie_kg):
    d = load_one(mk_dialogue("d", [
        ("recommender", "Have you seen 21 Jump Street?", ["21 Jump Street"]),
    ]))
    (tpl,) = cp.extract_templates(d, movie_kg)
    assert tpl.text == "Have you seen <item>?"
    assert tpl.signature == ("item",)
    assert tpl.speaker == "recommender"


def test_extract_templates_empty_signature(movie_kg):
    d = load_one(mk_dialogue("d", [("seeker", "Hello!", [])]))
    (tpl,) = cp.extract_templates(d, movie_kg)
    assert tpl.text == "Hello!"
    assert tpl.signature == ()


def test_template_round_trip_reproduces_source(movie_kg):
    d = load_one(two_turn_example())
    templates = cp.extract_templates(d, movie_kg)
    for turn, tpl in zip(d.turns, templates):
        text, spans = tpl.fill(list(tpl.surfaces))
        assert text == turn.text
        assert spans == [(m.start, m.end) for m in turn.mentions]


def test_slot_counts_sum_to_flow_length(movie_kg):
    d = load_one(two_turn_example())
    flow, _ = cp.extract_flow(d, movie_kg)
    templates = cp.extract_templates(d, movie_kg)
    assert sum(len(t.signature) for t in templates) == len(flow)


def test_extract_flow_is_deterministic(movie_kg):
    line = json.dumps(two_turn_example())
    a = cp.extract_flow(cp.load_dialogues([line])[0], movie_kg)
    b = cp.extract_flow(cp.load_dialogues([line])[0], movie_kg)
    assert a[0].entities == b[0].entities and a[1] == b[1]


def test_derive_interactions_dedup():
    d = load_one(mk_dialogue("d", [
        ("seeker", "comedy then Superbad then comedy", ["comedy", "Superbad",
                                                        "comedy"]),
    ]))
    inter = cp.derive_interactions([d])
    assert inter[d.user_of("seeker")] == ["comedy", "Superbad"]


def test_derive_interactions_excludes_silent_users():
    d = load_one(mk_dialogue("d", [
        ("seeker", "comedy", ["comedy"]),
        ("recommender", "ok", []),
    ]))
    inter = cp.derive_interactions([d])
    assert d.user_of("recommender") not in inter
    assert d.user_of("seeker") in inter


def test_derive_interactions_merges_shared_user():
    d1 = load_one(mk_dialogue("a", [
        ("seeker", "comedy and Superbad", ["comedy", "Superbad"]),
    ], seeker_id="alice"))
    d2 = load_one(mk_dialogue("b", [
        ("seeker", "Superbad and Jonah Hill", ["Superbad", "Jonah Hill"]),
    ], seeker_id="alice"))
    inter = cp.derive_interactions([d1, d2])
    # hand-merged: first-occurrence order across both dialogues
    assert inter["alice"] == ["comedy", "Superbad", "Jonah Hill"]


def test_save_load_round_trip(tmp_path, movie_kg):
    d = load_one(two_turn_example())
    path = tmp_path / "c.jsonl"
    cp.save_dialogues(path, [d])
    (d2,) = cp.load_dialogues_file(path)
    assert d2.to_record() == d.to_record()


def test_user_of_fallback_naming():
    d = load_one(mk_dialogue("d7", [("seeker", "hi", [])]))
    assert d.user_of(cp.SEEKER) == "d7:seeker"
    assert d.user_of(cp.RECOMMENDER) == "d7:recommender"
