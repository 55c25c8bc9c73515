"""Knowledge graph store: typed entities, user attachment, path sampling.

The base graph is loaded from tab-separated triples plus an entity->type map.
Attaching users (one node per user, linked to every entity they interacted
with) yields the heterogeneous graph that entity encoders and path sampling
operate on. Both structures are immutable after construction and safe for
concurrent read-only use.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .autodiff import SegmentPlan
from .errors import DataError

INTERACTED = "interacted"
_NO_IDS = np.empty(0, dtype=np.intp)
_NO_IDS.flags.writeable = False


@dataclass
class KnowledgeGraph:
    """Typed entity graph. Entity/relation/type ids are dense ints assigned
    in first-appearance order over the triple source."""

    entity_names: list[str]
    entity_types: list[int]              # type id per entity
    type_names: list[str]
    relation_names: list[str]
    triples: list[tuple[int, int, int]]  # (head, relation, tail)

    _name_to_id: dict = field(default_factory=dict, repr=False)
    _type_to_id: dict = field(default_factory=dict, repr=False)
    _by_type: list = field(default_factory=list, repr=False)
    _adjacency: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._name_to_id = {n: i for i, n in enumerate(self.entity_names)}
        self._type_to_id = {n: i for i, n in enumerate(self.type_names)}
        self._by_type = [[] for _ in self.type_names]
        for eid, tid in enumerate(self.entity_types):
            self._by_type[tid].append(eid)
        self._adjacency = [set() for _ in self.entity_names]
        for h, _, t in self.triples:
            if h != t:
                self._adjacency[h].add(t)
                self._adjacency[t].add(h)

    @property
    def num_entities(self):
        return len(self.entity_names)

    def entity_id(self, name):
        try:
            return self._name_to_id[name]
        except KeyError:
            raise DataError(f"entity {name!r} is not in the knowledge "
                            "graph") from None

    def has_entity(self, name):
        return name in self._name_to_id

    def type_id(self, type_name):
        try:
            return self._type_to_id[type_name]
        except KeyError:
            raise DataError(f"unknown entity type {type_name!r}") from None

    def type_name_of(self, entity_id):
        return self.type_names[self.entity_types[entity_id]]

    def entities_of_type(self, type_name):
        return list(self._by_type[self.type_id(type_name)])

    def neighbors(self, entity_id):
        return self._adjacency[entity_id]


def _split_line(line, n_fields, line_number):
    parts = line.rstrip("\n").split("\t")
    if len(parts) != n_fields:
        raise DataError(f"malformed record at line {line_number}: expected "
                        f"{n_fields} fields, got {len(parts)}")
    if any(not p for p in parts):
        raise DataError(f"malformed record at line {line_number}: empty field")
    return parts


def load_kg(triple_lines, type_lines):
    """Build a KnowledgeGraph from TSV triples and an entity->type map.

    Entities are the ones appearing in triples (head before tail); entries in
    the type map that never occur in a triple are ignored. Duplicate triples
    collapse to one.
    """
    type_map = {}
    for i, line in enumerate(type_lines, start=1):
        if not line.strip():
            continue
        entity, type_name = _split_line(line, 2, i)
        type_map[entity] = type_name

    entity_names, entity_types = [], []
    type_names, type_to_id = [], {}
    relation_names, rel_to_id = [], {}
    name_to_id = {}
    triples, seen = [], set()

    def intern_entity(name):
        eid = name_to_id.get(name)
        if eid is not None:
            return eid
        if name not in type_map:
            raise DataError(f"no type for entity {name!r}")
        tname = type_map[name]
        tid = type_to_id.get(tname)
        if tid is None:
            tid = len(type_names)
            type_to_id[tname] = tid
            type_names.append(tname)
        eid = len(entity_names)
        name_to_id[name] = eid
        entity_names.append(name)
        entity_types.append(tid)
        return eid

    for i, line in enumerate(triple_lines, start=1):
        if not line.strip():
            continue
        head, rel, tail = _split_line(line, 3, i)
        h = intern_entity(head)
        t = intern_entity(tail)
        r = rel_to_id.get(rel)
        if r is None:
            r = len(relation_names)
            rel_to_id[rel] = r
            relation_names.append(rel)
        triple = (h, r, t)
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)

    return KnowledgeGraph(entity_names, entity_types, type_names,
                          relation_names, triples)


def read_lines(path):
    """The lines of UTF-8 text file ``path``, split as text-mode reading
    splits them; a byte that is not UTF-8 is a DataError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return list(io.StringIO(raw.decode("utf-8"), newline=None))
    except UnicodeDecodeError as err:
        line_number = raw.count(b"\n", 0, err.start) + 1
        raise DataError(f"malformed record at line {line_number}: {path} is "
                        "not valid UTF-8") from None


def load_kg_files(triples_path, types_path):
    return load_kg(read_lines(triples_path), read_lines(types_path))


@dataclass
class HeterogeneousKG:
    """Base graph plus user nodes attached to their interacted entities.

    Graph nodes are entities followed by users, so node id of user i is
    num_entities + i. Immutable after construction.
    """

    base: KnowledgeGraph
    users: list[str]
    interactions: dict[str, list[int]]   # user -> ordered entity ids

    _reach: dict = field(default_factory=dict, repr=False, compare=False)
    _plan: SegmentPlan = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self):
        return self.base.num_entities + len(self.users)

    @property
    def user_edges(self):
        first = self.base.num_entities
        return [(first + ui, eid) for ui, user in enumerate(self.users)
                for eid in self.interactions[user]]

    def rgcn_relations(self):
        """Directed edge lists per aggregation relation.

        Every base relation and the user-interaction relation contribute both
        their forward direction and an inverse, so messages flow both ways.
        Returns [(name, src_array, dst_array), ...].
        """
        triples = np.array(self.base.triples, dtype=np.intp).reshape(-1, 3)
        out = []
        for rid, name in enumerate(self.base.relation_names):
            src, _, dst = triples[triples[:, 1] == rid].T
            out.append((name, src, dst))
            out.append((name + "^inv", dst, src))
        users = np.array(self.user_edges, dtype=np.intp).reshape(-1, 2)
        u_src, u_dst = users.T
        out.append((INTERACTED, u_src, u_dst))
        out.append((INTERACTED + "^inv", u_dst, u_src))
        return out

    def rgcn_plan(self):
        """``rgcn_relations`` fused into one ``SegmentPlan`` from node rows
        to (node, relation) segments ``dst * R + r``, each edge weighted by
        1/deg_r(dst). Built on first use and kept on the instance."""
        if self._plan is None:
            rels = self.rgcn_relations()
            n, num_rel = self.num_nodes, len(rels)
            src = np.concatenate([s for _, s, _ in rels])
            seg = np.concatenate([d * num_rel + r
                                  for r, (_, _, d) in enumerate(rels)])
            deg = np.bincount(seg, minlength=n * num_rel)
            self._plan = SegmentPlan(src, seg, 1.0 / deg[seg], n * num_rel, n)
        return self._plan

    def rgcn_layer_plans(self, rows, num_layers):
        """Sub-plans of ``rgcn_plan`` for ``num_layers`` layers that compute
        the output ``rows`` (increasing node ids) and nothing more: layer l
        computes the rows within ``num_layers - 1 - l`` in-hops of ``rows``,
        the minibatch computation of GraphSAGE (Hamilton et al., 2017)
        without sampling.

        Returns per layer, first to last, (plan, keep): the sub-plan from the
        layer's input rows to its output rows' R segments each, and the
        positions of its output rows among its input rows. The first layer
        reads the whole node table; a later one reads the rows
        ``plan.sources`` that the layer below computes.
        """
        plan = self.rgcn_plan()
        num_rel = plan.num_segments // plan.num_sources
        layers = []
        for layer in reversed(range(num_layers)):
            segments = (rows[:, None] * num_rel + np.arange(num_rel)).ravel()
            if layer == 0:
                layers.append((plan.restrict(segments), rows))
            else:
                sub = plan.restrict(segments, rows)
                layers.append((sub, np.searchsorted(sub.sources, rows)))
                rows = sub.sources
        return layers[::-1]

    def reach(self, entity_id, type_name, hop_limit):
        """The entities of type ``type_name`` within ``hop_limit`` undirected
        base-graph edges of ``entity_id``, leaving out ``entity_id``: an
        increasing, read-only ``np.intp`` array, kept here. One search per
        (entity, hop limit) fills the arrays of the types it meets; every
        other type shares one empty array.

        The one source of reach sets. ``sample_path`` draws from it, so no
        entity of a pseudo flow follows itself, and an empty set is a dead
        end. ``FlowLM.step_mask`` adds ``entity_id`` back when it has the
        step's type, so a generated flow may name it twice in a row (as real
        flows do), and widens an empty set to the type class."""
        kg = self.base
        by_type = self._reach.get((entity_id, hop_limit))
        if by_type is None:
            seen = frontier = {entity_id}
            for _ in range(hop_limit):
                frontier = {nb for node in frontier
                            for nb in kg.neighbors(node)} - seen
                seen = seen | frontier
            by_type = {}
            for eid in sorted(seen - {entity_id}):
                by_type.setdefault(kg.entity_types[eid], []).append(eid)
            for tid, ids in by_type.items():
                by_type[tid] = np.array(ids, dtype=np.intp)
                by_type[tid].flags.writeable = False
            self._reach[entity_id, hop_limit] = by_type
        return by_type.get(kg.type_id(type_name), _NO_IDS)


def attach_users(kg, interactions):
    """Attach user nodes for each user -> entity-name list.

    The base graph is shared, not copied; user insertion order follows the
    mapping's iteration order.
    """
    users = []
    resolved = {}
    for user, entities in interactions.items():
        if not entities:
            raise DataError(f"user {user!r} has an empty interaction list")
        ids = []
        for name in entities:
            if not kg.has_entity(name):
                raise DataError(f"user {user!r} interacts with unknown "
                                f"entity {name!r}")
            ids.append(kg.entity_id(name))
        users.append(user)
        resolved[user] = ids
    return HeterogeneousKG(base=kg, users=users, interactions=resolved)


# attempts ``sample_path`` makes before it gives a schema up
PATH_RETRIES = 50


def sample_path(hkg, schema, rng, hop_limit):
    """Sample an entity sequence matching ``schema`` (type names) such that
    consecutive entities are within ``hop_limit`` undirected base-graph edges.

    Rejection sampling: a uniform draw per position from the previous
    entity's ``HeterogeneousKG.reach`` set, restart on a dead end. Returns
    the entity-id list, or None after ``PATH_RETRIES`` dead ends (the schema
    is treated as unreachable and the caller picks another one).
    """
    if not schema:
        raise ValueError("schema must be non-empty")
    if hop_limit < 1:
        raise ValueError("hop_limit must be >= 1")
    kg = hkg.base
    candidates0 = kg.entities_of_type(schema[0])  # DataError if unknown
    for type_name in schema[1:]:
        kg.type_id(type_name)  # DataError before any draw

    for _ in range(PATH_RETRIES):
        if not candidates0:
            return None
        flow = [candidates0[rng.integers(len(candidates0))]]
        for type_name in schema[1:]:
            options = hkg.reach(flow[-1], type_name, hop_limit)
            if not len(options):
                break
            flow.append(int(options[rng.integers(len(options))]))
        else:
            return flow
    return None


def validate_flow(hkg, flow, schema, hop_limit):
    """Independent check: position-wise type match plus hop-limited
    connectivity of consecutive entities (own BFS, not the sampler's)."""
    if len(flow) != len(schema):
        return False
    kg = hkg.base
    for eid, tname in zip(flow, schema):
        if kg.type_name_of(eid) != tname:
            return False
    for a, b in zip(flow, flow[1:]):
        if a == b:
            continue  # 0-hop path
        seen = {a}
        frontier = [a]
        found = False
        for _ in range(hop_limit):
            nxt = []
            for node in frontier:
                for nb in kg.neighbors(node):
                    if nb == b:
                        found = True
                        break
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
                if found:
                    break
            if found:
                break
            frontier = nxt
        if not found:
            return False
    return True
