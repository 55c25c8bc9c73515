"""Desk-scale synthetic recommendation world.

Five latent clusters, each owning genres, actors, directors, and items; every
item carries its cluster's two genres, two of its actors, one director, and
one decorative attribute. Dialogues follow a handful of conversational
patterns whose consecutive mentions always stay within two hops on the graph,
so mined schemas are realizable by graph walks. The default sizing is 200
entities over 20 types and 500 dialogues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import corpus as cp
from . import kg as kgm
from .realization import ITEM_TYPE

GENRES_PER_CLUSTER = 2
DECORATIVE_TYPES = (["mood", "era", "country", "studio"]
                    + [f"tag{i}" for i in range(12)])

SEEKER_GENRE = [
    "I am looking for some {} movies.",
    "I love {} films.",
    "Any good {} movie tonight?",
    "In the mood for something {}.",
]
SEEKER_ACTOR = [
    "I really like {}.",
    "Movies with {} please.",
    "{} is my favorite actor.",
]
SEEKER_GENRE_ACTOR = [
    "I want a {} movie starring {}.",
    "Something {} with {} in it?",
]
REC_ITEM = [
    "Have you seen {}?",
    "You should watch {}.",
    "I recommend {}.",
    "Then try {}!",
]
REC_ACTOR_ITEM = [
    "If you like {}, watch {}.",
]


@dataclass
class SyntheticWorld:
    kg: kgm.KnowledgeGraph
    dialogues: list
    train: list
    val: list
    test: list

    def hkg(self, dialogues=None):
        """Heterogeneous graph with user nodes from the given dialogues
        (training split by default, so evaluation users never shape the
        entity table)."""
        interactions = cp.derive_interactions(
            self.train if dialogues is None else dialogues)
        return kgm.attach_users(self.kg, interactions)


def _fill(template, names, speaker):
    text = template.format(*names)
    mentions = []
    cursor = 0
    for name in names:
        start = text.index(name, cursor)
        mentions.append(cp.Mention(entity=name, start=start,
                                   end=start + len(name)))
        cursor = start + len(name)
    return cp.Turn(speaker=speaker, text=text, mentions=mentions)


def make_world(seed=0, num_clusters=5, items_per_cluster=20,
               actors_per_cluster=10,
               directors_per_cluster=4, num_dialogues=500,
               split=(7, 1, 2)):
    """``split`` gives train/val/test shares out of ten, applied round-robin
    over dialogue indices so the split is deterministic."""
    rng = np.random.default_rng(seed)
    triples = []
    types = {}

    genres = [[f"genre{c * GENRES_PER_CLUSTER + i}"
               for i in range(GENRES_PER_CLUSTER)]
              for c in range(num_clusters)]
    actors = [[f"actor{c * actors_per_cluster + i}"
               for i in range(actors_per_cluster)]
              for c in range(num_clusters)]
    directors = [[f"director{c * directors_per_cluster + i}"
                  for i in range(directors_per_cluster)]
                 for c in range(num_clusters)]
    for bucket, tname in ((genres, "genre"), (actors, "actor"),
                          (directors, "director")):
        for cluster in bucket:
            for name in cluster:
                types[name] = tname

    decorations = []
    for ti, tname in enumerate(DECORATIVE_TYPES):
        count = 2 if ti < 4 else 1
        for j in range(count):
            name = f"{tname}_{j}"
            types[name] = tname
            decorations.append(name)

    item_actors = {}
    item_genres = {}
    items_by_cluster = []
    deco_cursor = 0
    for c in range(num_clusters):
        cluster_items = []
        for j in range(items_per_cluster):
            name = f"item{c * items_per_cluster + j}"
            types[name] = ITEM_TYPE
            cluster_items.append(name)
            item_genres[name] = list(genres[c])
            for g in genres[c]:
                triples.append((name, "has_genre", g))
            pair = [actors[c][(2 * j) % actors_per_cluster],
                    actors[c][(2 * j + 1) % actors_per_cluster]]
            item_actors[name] = pair
            for a in pair:
                triples.append((name, "stars", a))
            triples.append((name, "directed_by",
                            directors[c][j % directors_per_cluster]))
            triples.append((name, "tagged", decorations[deco_cursor]))
            deco_cursor = (deco_cursor + 1) % len(decorations)
        items_by_cluster.append(cluster_items)

    kg = kgm.load_kg([f"{h}\t{r}\t{t}" for h, r, t in triples],
                     [f"{e}\t{t}" for e, t in types.items()])

    actor_items = {}
    for item, cast in item_actors.items():
        for a in cast:
            actor_items.setdefault(a, []).append(item)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    dialogues = []
    for i in range(num_dialogues):
        c = int(rng.integers(num_clusters))
        pattern = int(rng.choice(4, p=[0.3, 0.2, 0.3, 0.2]))
        turns = []
        if pattern == 0:  # genre -> item
            g = pick(genres[c])
            m = pick(items_by_cluster[c])
            turns.append(_fill(pick(SEEKER_GENRE), [g], cp.SEEKER))
            turns.append(_fill(pick(REC_ITEM), [m], cp.RECOMMENDER))
        elif pattern == 1:  # actor -> item
            a = pick(actors[c])
            m = pick(actor_items[a])
            turns.append(_fill(pick(SEEKER_ACTOR), [a], cp.SEEKER))
            turns.append(_fill(pick(REC_ITEM), [m], cp.RECOMMENDER))
        elif pattern == 2:  # genre -> item -> actor -> item
            g = pick(genres[c])
            m1 = pick(items_by_cluster[c])
            a = pick(item_actors[m1])
            others = [m for m in actor_items[a] if m != m1] or [m1]
            m2 = pick(others)
            turns.append(_fill(pick(SEEKER_GENRE), [g], cp.SEEKER))
            turns.append(_fill(pick(REC_ITEM), [m1], cp.RECOMMENDER))
            turns.append(_fill(pick(SEEKER_ACTOR), [a], cp.SEEKER))
            turns.append(_fill(pick(REC_ACTOR_ITEM), [a, m2],
                               cp.RECOMMENDER))
        else:  # (genre, actor) -> item
            a = pick(actors[c])
            m = pick(actor_items[a])
            g = pick(item_genres[m])
            turns.append(_fill(pick(SEEKER_GENRE_ACTOR), [g, a], cp.SEEKER))
            turns.append(_fill(pick(REC_ITEM), [m], cp.RECOMMENDER))
        dialogues.append(cp.Dialogue(dialogue_id=f"syn-{i:04d}", turns=turns))

    n_train, n_val, _ = split
    train = [d for i, d in enumerate(dialogues) if i % 10 < n_train]
    val = [d for i, d in enumerate(dialogues)
           if n_train <= i % 10 < n_train + n_val]
    test = [d for i, d in enumerate(dialogues) if i % 10 >= n_train + n_val]
    return SyntheticWorld(kg=kg, dialogues=dialogues, train=train, val=val,
                          test=test)


def write_world(world, out_dir):
    """Dump the world in the CLI's file formats; returns the path map."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    seen = set()
    triple_lines = []
    type_lines = []
    kg = world.kg
    for h, r, t in kg.triples:
        triple_lines.append(f"{kg.entity_names[h]}\t{kg.relation_names[r]}\t"
                            f"{kg.entity_names[t]}")
    for name, tid in zip(kg.entity_names, kg.entity_types):
        if name not in seen:
            seen.add(name)
            type_lines.append(f"{name}\t{kg.type_names[tid]}")
    paths["kg"] = os.path.join(out_dir, "kg.tsv")
    paths["types"] = os.path.join(out_dir, "types.tsv")
    with open(paths["kg"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(triple_lines) + "\n")
    with open(paths["types"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(type_lines) + "\n")
    for split in ("train", "val", "test"):
        paths[split] = os.path.join(out_dir, f"{split}.jsonl")
        cp.save_dialogues(paths[split], getattr(world, split))
    paths["dialogues"] = os.path.join(out_dir, "dialogues.jsonl")
    cp.save_dialogues(paths["dialogues"], world.dialogues)
    return paths


if __name__ == "__main__":
    import sys
    out = sys.argv[1] if len(sys.argv) > 1 else "synthetic_world"
    world = make_world(seed=int(sys.argv[2]) if len(sys.argv) > 2 else 0)
    locations = write_world(world, out)
    print(json.dumps(locations, indent=2, sort_keys=True))
