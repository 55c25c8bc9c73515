"""Turn generated flows into complete dialogues via template filling, and
dialogues into recommender training samples.

Realization tiles the schema with delexicalized templates (greedy
longest-signature-first), fills the slots with the flow's entity names, and
emits a corpus-format dialogue. Every emitted sentence is a bank template
with entity substitutions only, so fluency and flow faithfulness hold by
construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import corpus as cp
from .errors import DataError

logger = logging.getLogger(__name__)

ITEM_TYPE = "item"


@dataclass
class RealizedDialogue:
    dialogue: cp.Dialogue
    flow_entities: list
    schema: tuple
    template_ids: list


@dataclass
class RecSample:
    context: tuple      # entity ids mentioned before the label, in order
    label: int          # item entity id


class TemplateBank:
    """Templates indexed by slot signature, with role grouping.

    A single-slot fallback template is synthesized for every type in
    ``type_names`` so that any schema over those types can be tiled;
    fallback use is logged.
    """

    def __init__(self, templates, type_names=()):
        self.templates = list(templates)
        self.fallback_ids = set()
        for tname in type_names:
            if tname == ITEM_TYPE:
                text_parts = ("What about ", "?")
                role = cp.RECOMMENDER
            else:
                text_parts = ("I am interested in ", ".")
                role = cp.SEEKER
            self.fallback_ids.add(len(self.templates))
            self.templates.append(cp.Template(
                speaker=role, segments=text_parts, signature=(tname,),
                dialogue_id="fallback"))
        by_signature = {}
        for i, tpl in enumerate(self.templates):
            if tpl.signature:
                by_signature.setdefault(tpl.signature, []).append(i)
        # item-bearing signatures prefer the recommender role, the rest the
        # seeker; a signature with no template of its role keeps them all
        self.pools = {}
        for sig, ids in by_signature.items():
            role = cp.RECOMMENDER if ITEM_TYPE in sig else cp.SEEKER
            self.pools[sig] = ([i for i in ids
                                if self.templates[i].speaker == role] or ids)
        self.max_signature = max((len(s) for s in self.pools), default=0)


def build_template_bank(dialogues, kg):
    templates = [tpl for d in dialogues for tpl in cp.extract_templates(d, kg)]
    return TemplateBank(templates, type_names=kg.type_names)


def realize(flow_entities, schema, bank, kg, rng, dialogue_id="sim",
            user_pair=None):
    """Fill templates with the flow's entities, left to right.

    The tiling picks the longest template signature matching the upcoming
    schema slice; among templates sharing that signature, item-bearing ones
    prefer the recommender role and the rest prefer the seeker role, with a
    uniform choice inside the preferred group.
    """
    if len(flow_entities) != len(schema):
        raise ValueError("flow and schema must have equal length")
    turns = []
    template_ids = []
    pos = 0
    n = len(schema)
    while pos < n:
        for width in range(min(bank.max_signature, n - pos), 0, -1):
            sig = tuple(schema[pos:pos + width])
            pool = bank.pools.get(sig)
            if pool:
                break
        else:
            raise DataError(f"no template tiles schema {tuple(schema)} at "
                            f"position {pos}")
        tpl_id = pool[int(rng.integers(len(pool)))]
        if tpl_id in bank.fallback_ids:
            logger.info("fallback template used for signature %s", sig)
        tpl = bank.templates[tpl_id]
        entity_ids = flow_entities[pos:pos + len(sig)]
        names = [kg.entity_names[e] for e in entity_ids]
        text, spans = tpl.fill(names)
        mentions = [cp.Mention(entity=name, start=s, end=e)
                    for name, (s, e) in zip(names, spans)]
        turns.append(cp.Turn(speaker=tpl.speaker, text=text,
                             mentions=mentions))
        template_ids.append(tpl_id)
        pos += len(sig)
    dialogue = cp.Dialogue(dialogue_id=dialogue_id, turns=turns)
    if user_pair is not None:
        dialogue.seeker_id, dialogue.recommender_id = user_pair
    return RealizedDialogue(dialogue=dialogue,
                            flow_entities=list(flow_entities),
                            schema=tuple(schema), template_ids=template_ids)


def to_rec_samples(dialogue, kg):
    """One sample per fresh item mention in a recommender turn.

    The context is every mention strictly before the label mention, in flow
    order (same-turn mentions preceding the item included). Items already in
    their own context are re-mentions, not recommendations, and are skipped.
    """
    if isinstance(dialogue, RealizedDialogue):
        dialogue = dialogue.dialogue
    samples = []
    context = []
    for turn in dialogue.turns:
        for m in turn.mentions:
            eid = kg.entity_id(m.entity)
            if (turn.speaker == cp.RECOMMENDER
                    and kg.type_name_of(eid) == ITEM_TYPE
                    and eid not in context):
                samples.append(RecSample(context=tuple(context), label=eid))
            context.append(eid)
    return samples
