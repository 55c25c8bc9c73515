import json

import numpy as np
import pytest

from recflow import corpus as cp
from recflow import kg as kgm
from recflow import realization as rz
from recflow.errors import DataError

from test_corpus import MOVIE_TRIPLES, MOVIE_TYPES, mk_dialogue, two_turn_example


@pytest.fixture
def movie_kg():
    return kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in MOVIE_TRIPLES],
                       [f"{e}\t{t}" for e, t in MOVIE_TYPES.items()])


def bank_from(records, kg):
    dialogues = cp.load_dialogues([json.dumps(r) for r in records])
    return rz.build_template_bank(dialogues, kg)


def bank_without_fallbacks(records, kg):
    dialogues = cp.load_dialogues([json.dumps(r) for r in records])
    return rz.TemplateBank([tpl for d in dialogues
                            for tpl in cp.extract_templates(d, kg)])


def test_realize_two_turn_movie_dialogue(movie_kg):
    records = [mk_dialogue("src", [
        ("seeker", "I love all kinds of comedy movies.", ["comedy"]),
        ("recommender", "Have you seen 21 Jump Street?", ["21 Jump Street"]),
    ])]
    bank = bank_without_fallbacks(records, movie_kg)
    flow = [movie_kg.entity_id("comedy"), movie_kg.entity_id("21 Jump Street")]
    out = rz.realize(flow, ("genre", "item"), bank, movie_kg,
                     np.random.default_rng(0), dialogue_id="sim-0")
    texts = [t.text for t in out.dialogue.turns]
    assert texts == ["I love all kinds of comedy movies.",
                     "Have you seen 21 Jump Street?"]
    assert [t.speaker for t in out.dialogue.turns] == ["seeker", "recommender"]
    flow2, schema2 = cp.extract_flow(out.dialogue, movie_kg)
    assert flow2.entities == flow
    assert schema2 == ("genre", "item")


def test_realize_empty_flow(movie_kg):
    bank = bank_from([two_turn_example()], movie_kg)
    out = rz.realize([], (), bank, movie_kg, np.random.default_rng(0))
    assert out.dialogue.turns == []


def test_realize_single_slot_bank_round_trip(movie_kg):
    records = [mk_dialogue("src", [
        ("seeker", "I love comedy.", ["comedy"]),
        ("recommender", "Watch Superbad!", ["Superbad"]),
        ("seeker", "Jonah Hill rocks.", ["Jonah Hill"]),
    ])]
    bank = bank_without_fallbacks(records, movie_kg)
    schema = ("genre", "item", "actor", "genre", "item")
    flow = [movie_kg.entity_id(n) for n in
            ("comedy", "21 Jump Street", "Jonah Hill", "comedy", "Superbad")]
    out = rz.realize(flow, schema, bank, movie_kg, np.random.default_rng(1))
    assert len(out.dialogue.turns) == 5  # one single-slot template per slot
    flow2, schema2 = cp.extract_flow(out.dialogue, movie_kg)
    assert flow2.entities == flow
    assert schema2 == schema


def test_realize_prefers_longest_signature(movie_kg):
    records = [mk_dialogue("src", [
        ("seeker", "I love comedy.", ["comedy"]),
        ("recommender", "Watch Superbad!", ["Superbad"]),
        ("recommender", "Since you like comedy, watch Superbad!",
         ["comedy", "Superbad"]),
    ])]
    bank = bank_without_fallbacks(records, movie_kg)
    flow = [movie_kg.entity_id("comedy"), movie_kg.entity_id("21 Jump Street")]
    out = rz.realize(flow, ("genre", "item"), bank, movie_kg,
                     np.random.default_rng(2))
    assert len(out.dialogue.turns) == 1
    assert out.dialogue.turns[0].text == \
        "Since you like comedy, watch 21 Jump Street!"


def test_realize_no_covering_segmentation_without_fallbacks(movie_kg):
    records = [mk_dialogue("src", [("seeker", "I love comedy.", ["comedy"])])]
    bank = bank_without_fallbacks(records, movie_kg)
    with pytest.raises(DataError, match=r"^no template tiles schema "
                       r"\('item',\) at position 0$"):
        rz.realize([movie_kg.entity_id("Superbad")], ("item",), bank,
                   movie_kg, np.random.default_rng(0))


def test_realize_fallbacks_cover_any_schema(movie_kg):
    bank = bank_from([], movie_kg)
    schema = ("actor", "item")
    flow = [movie_kg.entity_id("Jonah Hill"), movie_kg.entity_id("Superbad")]
    out = rz.realize(flow, schema, bank, movie_kg, np.random.default_rng(0))
    assert out.dialogue.turns[0].text == "I am interested in Jonah Hill."
    assert out.dialogue.turns[1].text == "What about Superbad?"
    assert out.dialogue.turns[1].speaker == "recommender"
    flow2, schema2 = cp.extract_flow(out.dialogue, movie_kg)
    assert flow2.entities == flow and schema2 == schema


def test_realize_faithfulness_over_random_flows(movie_kg):
    bank = bank_from([two_turn_example()], movie_kg)
    rng = np.random.default_rng(33)
    type_pool = {t: movie_kg.entities_of_type(t)
                 for t in movie_kg.type_names}
    for _ in range(200):
        n = int(rng.integers(1, 7))
        schema = tuple(movie_kg.type_names[rng.integers(
            len(movie_kg.type_names))] for _ in range(n))
        flow = [type_pool[t][rng.integers(len(type_pool[t]))] for t in schema]
        out = rz.realize(flow, schema, bank, movie_kg, rng)
        flow2, schema2 = cp.extract_flow(out.dialogue, movie_kg)
        assert flow2.entities == flow
        assert schema2 == schema


def test_realized_turns_map_to_bank_templates(movie_kg):
    bank = bank_from([two_turn_example()], movie_kg)
    rng = np.random.default_rng(4)
    flow = [movie_kg.entity_id("comedy"), movie_kg.entity_id("Superbad")]
    out = rz.realize(flow, ("genre", "item"), bank, movie_kg, rng)
    pos = 0
    for turn, tid in zip(out.dialogue.turns, out.template_ids):
        tpl = bank.templates[tid]
        width = len(tpl.signature)
        names = [movie_kg.entity_names[e] for e in flow[pos:pos + width]]
        assert tpl.fill(names)[0] == turn.text
        pos += width


def test_to_rec_samples_movie_dialogue(movie_kg):
    d = cp.load_dialogues([json.dumps(two_turn_example())])[0]
    samples = rz.to_rec_samples(d, movie_kg)
    assert len(samples) == 2
    names = lambda ids: [movie_kg.entity_names[e] for e in ids]
    assert names(samples[0].context) == ["comedy"]
    assert movie_kg.entity_names[samples[0].label] == "21 Jump Street"
    assert names(samples[1].context) == ["comedy", "21 Jump Street",
                                         "Jonah Hill", "comedy"]
    assert movie_kg.entity_names[samples[1].label] == "Superbad"


def test_to_rec_samples_no_items(movie_kg):
    d = cp.load_dialogues([json.dumps(mk_dialogue("d", [
        ("seeker", "comedy!", ["comedy"]),
        ("recommender", "Jonah Hill?", ["Jonah Hill"]),
    ]))])[0]
    assert rz.to_rec_samples(d, movie_kg) == []


def test_to_rec_samples_ignores_seeker_items(movie_kg):
    d = cp.load_dialogues([json.dumps(mk_dialogue("d", [
        ("seeker", "I watched Superbad.", ["Superbad"]),
        ("recommender", "Nice, 21 Jump Street then.", ["21 Jump Street"]),
    ]))])[0]
    samples = rz.to_rec_samples(d, movie_kg)
    # hand-labeled: only the recommender's item yields a sample
    assert len(samples) == 1
    assert movie_kg.entity_names[samples[0].label] == "21 Jump Street"
    assert [movie_kg.entity_names[e] for e in samples[0].context] == \
        ["Superbad"]


def test_to_rec_samples_skips_re_mentions(movie_kg):
    d = cp.load_dialogues([json.dumps(mk_dialogue("d", [
        ("recommender", "Watch Superbad.", ["Superbad"]),
        ("recommender", "Superbad is really great.", ["Superbad"]),
    ]))])[0]
    samples = rz.to_rec_samples(d, movie_kg)
    assert len(samples) == 1
    assert samples[0].context == ()


def test_realize_optional_chitchat_interleaving(movie_kg):
    records = [mk_dialogue("src", [
        ("seeker", "Hello there!", []),
        ("seeker", "I love comedy.", ["comedy"]),
        ("recommender", "Watch Superbad!", ["Superbad"]),
    ])]
    bank = bank_without_fallbacks(records, movie_kg)
    flow = [movie_kg.entity_id("comedy"), movie_kg.entity_id("Superbad")]
    # the bank holds a mention-free template, but no mention-free turn
    # appears
    assert any(not tpl.signature for tpl in bank.templates)
    out = rz.realize(flow, ("genre", "item"), bank, movie_kg,
                     np.random.default_rng(0))
    assert all(t.mentions for t in out.dialogue.turns)


def test_rec_sample_label_never_in_context(movie_kg):
    bank = bank_from([two_turn_example()], movie_kg)
    rng = np.random.default_rng(9)
    items = movie_kg.entities_of_type("item")
    for _ in range(100):
        schema = ("item",) * int(rng.integers(1, 5))
        flow = [items[rng.integers(len(items))] for _ in schema]
        out = rz.realize(flow, schema, bank, movie_kg, rng)
        for s in rz.to_rec_samples(out, movie_kg):
            assert s.label not in s.context
