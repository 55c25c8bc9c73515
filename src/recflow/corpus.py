"""Dialogue corpus ingestion: flows, schemas, templates, interactions.

Dialogues arrive as JSON Lines, one per line:

    {"dialogue_id": str,
     "turns": [{"speaker": "seeker"|"recommender", "text": str,
                "mentions": [{"entity": str, "start": int, "end": int}]}]}

Optional top-level "seeker_id"/"recommender_id" give cross-dialogue user
identity; without them a user is identified per dialogue and role.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import kg as kgm

SEEKER = "seeker"
RECOMMENDER = "recommender"
ROLES = (SEEKER, RECOMMENDER)


class ParseError(ValueError):
    def __init__(self, record_index, detail=""):
        msg = f"unparseable dialogue record {record_index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.record_index = record_index


class SpanOutOfBounds(ValueError):
    def __init__(self, dialogue_id, turn_index, detail=""):
        msg = f"bad mention span in dialogue {dialogue_id!r} turn {turn_index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.dialogue_id = dialogue_id
        self.turn_index = turn_index


@dataclass
class Mention:
    entity: str
    start: int
    end: int


@dataclass
class Turn:
    speaker: str
    text: str
    mentions: list[Mention] = field(default_factory=list)


@dataclass
class Dialogue:
    dialogue_id: str
    turns: list[Turn]
    seeker_id: str | None = None
    recommender_id: str | None = None

    def user_of(self, role):
        if role == SEEKER:
            return self.seeker_id or f"{self.dialogue_id}:{SEEKER}"
        return self.recommender_id or f"{self.dialogue_id}:{RECOMMENDER}"

    def to_record(self):
        rec = {
            "dialogue_id": self.dialogue_id,
            "turns": [
                {"speaker": t.speaker, "text": t.text,
                 "mentions": [{"entity": m.entity, "start": m.start,
                               "end": m.end} for m in t.mentions]}
                for t in self.turns
            ],
        }
        if self.seeker_id is not None:
            rec["seeker_id"] = self.seeker_id
        if self.recommender_id is not None:
            rec["recommender_id"] = self.recommender_id
        return rec


@dataclass
class ConversationFlow:
    """Entities mentioned across a dialogue, in occurrence order."""

    entities: list[int]
    turn_index: list[int]
    speaker: list[str]

    def __len__(self):
        return len(self.entities)


@dataclass
class Template:
    """A delexicalized turn. ``segments`` are the text pieces around the
    slots (len(segments) == len(signature) + 1), so filling is exact."""

    speaker: str
    segments: tuple[str, ...]
    signature: tuple[str, ...]
    dialogue_id: str
    surfaces: tuple[str, ...] = ()

    @property
    def text(self):
        parts = [self.segments[0]]
        for t, seg in zip(self.signature, self.segments[1:]):
            parts.append(f"<{t}>")
            parts.append(seg)
        return "".join(parts)

    def fill(self, values):
        if len(values) != len(self.signature):
            raise ValueError(f"template needs {len(self.signature)} values, "
                             f"got {len(values)}")
        parts = [self.segments[0]]
        mentions = []
        pos = len(self.segments[0])
        for value, seg in zip(values, self.segments[1:]):
            mentions.append((pos, pos + len(value)))
            parts.append(value)
            pos += len(value) + len(seg)
            parts.append(seg)
        return "".join(parts), mentions


def _parse_turn(obj, record_index, dialogue_id, turn_index):
    def fail(detail):
        return ParseError(record_index, f"turn {turn_index}: {detail}")

    if not isinstance(obj, dict):
        raise fail("turn must be an object")
    speaker, text = obj.get("speaker"), obj.get("text")
    if speaker not in ROLES:
        raise fail(f"bad speaker {speaker!r}")
    if not isinstance(text, str):
        raise fail("turn text must be a string")
    raw = obj.get("mentions", [])
    # JSON integers only: bools are ints in Python, and int() would
    # truncate 1.5 and accept "22"
    if not isinstance(raw, list) or not all(
            isinstance(m, dict) and isinstance(m.get("entity"), str)
            and type(m.get("start")) is int and type(m.get("end")) is int
            for m in raw):
        raise fail("mentions must be objects with a string entity and "
                   "integer start and end")
    mentions = []
    prev_end = 0
    for m in sorted(raw, key=lambda m: (m["start"], m["end"])):
        start, end = m["start"], m["end"]
        if start < 0 or end > len(text) or start >= end:
            raise SpanOutOfBounds(dialogue_id, turn_index,
                                  f"span ({start}, {end}) vs len {len(text)}")
        if start < prev_end:
            raise SpanOutOfBounds(dialogue_id, turn_index, "overlapping spans")
        prev_end = end
        mentions.append(Mention(entity=m["entity"], start=start, end=end))
    return Turn(speaker=speaker, text=text, mentions=mentions)


def load_dialogues(lines):
    """Parse JSON Lines into Dialogue objects, preserving input order."""
    dialogues = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as e:  # or too deep
            raise ParseError(i, str(e)) from None
        if not isinstance(obj, dict) or "dialogue_id" not in obj \
                or not isinstance(obj.get("turns"), list):
            raise ParseError(i, "missing dialogue_id or a list of turns")
        users = [obj.get(key) for key in ("seeker_id", "recommender_id")]
        if not all(u is None or isinstance(u, str) for u in users):
            raise ParseError(i, "seeker_id and recommender_id must be strings")
        did = str(obj["dialogue_id"])
        turns = [_parse_turn(t, i, did, j) for j, t in enumerate(obj["turns"])]
        dialogues.append(Dialogue(dialogue_id=did, turns=turns,
                                  seeker_id=users[0],
                                  recommender_id=users[1]))
    return dialogues


def load_dialogues_file(path):
    return load_dialogues(kgm.read_lines(path))


def save_dialogues(path, dialogues):
    with open(path, "w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(json.dumps(d.to_record(), sort_keys=True) + "\n")


def extract_flow(dialogue, kg):
    """Derive the (flow, schema) pair from a dialogue's mentions in order."""
    entities, turn_idx, speakers, types = [], [], [], []
    for j, turn in enumerate(dialogue.turns):
        for m in turn.mentions:
            eid = kg.entity_id(m.entity)
            entities.append(eid)
            turn_idx.append(j)
            speakers.append(turn.speaker)
            types.append(kg.type_name_of(eid))
    flow = ConversationFlow(entities=entities, turn_index=turn_idx,
                            speaker=speakers)
    return flow, tuple(types)


def extract_templates(dialogue, kg):
    """Delexicalize every turn: mention spans become ``<type>`` placeholders.

    Turns without mentions yield an empty-signature template (connective
    chit-chat). Filling a template with its own surfaces reproduces the turn
    text byte for byte.
    """
    templates = []
    for turn in dialogue.turns:
        segments, signature, surfaces = [], [], []
        cursor = 0
        for m in turn.mentions:
            segments.append(turn.text[cursor:m.start])
            signature.append(kg.type_name_of(kg.entity_id(m.entity)))
            surfaces.append(turn.text[m.start:m.end])
            cursor = m.end
        segments.append(turn.text[cursor:])
        templates.append(Template(speaker=turn.speaker,
                                  segments=tuple(segments),
                                  signature=tuple(signature),
                                  dialogue_id=dialogue.dialogue_id,
                                  surfaces=tuple(surfaces)))
    return templates


def derive_interactions(dialogues):
    """Map each user to the entities they mentioned, deduplicated in
    first-occurrence order. Users with no mentions are left out."""
    interactions = {}
    for d in dialogues:
        for turn in d.turns:
            if not turn.mentions:
                continue
            user = d.user_of(turn.speaker)
            bucket = interactions.setdefault(user, [])
            for m in turn.mentions:
                if m.entity not in bucket:
                    bucket.append(m.entity)
    return interactions
