"""Finite connected posets and the order/graph combinatorics built on them.

Conventions used across the package:
  - canonical element order = input order; every set, pair list and
    partition is reported sorted by it.
  - a "pair" is a tuple (x, y) of labels with x <= y; cover pairs always
    have x < y and no element strictly between.
"""

from collections import deque
from itertools import count

from .errors import (CapExceeded, CycleInOrder, InvalidWalk, NotConnected,
                     NotExtreme, ParseError, RedundantCover, TooSmall,
                     UnknownElement)


class Poset(object):
    """Immutable finite connected poset. Build through build_poset()."""

    def __init__(self, elements, leq, covers):
        self.elements = list(elements)
        self._idx = {x: i for i, x in enumerate(self.elements)}
        self._leq = frozenset(leq)
        self.covers = sorted(covers, key=self.pair_key)
        # basis order for the incidence algebra: all comparable pairs
        self.pairs = sorted(self._leq, key=self.pair_key)
        self.pair_index = {pr: k for k, pr in enumerate(self.pairs)}
        self.strict_pairs = [(x, y) for (x, y) in self.pairs if x != y]
        cover_set = set(self.covers)
        self.adjacency = {x: [] for x in self.elements}
        for x, y in self.covers:
            self.adjacency[x].append(y)
            self.adjacency[y].append(x)
        for x in self.elements:
            self.adjacency[x].sort(key=self._idx.__getitem__)
        self._cover_set = cover_set
        self._mins = [x for x in self.elements
                      if not any(self.less(z, x) for z in self.elements)]
        self._maxs = [x for x in self.elements
                      if not any(self.less(x, z) for z in self.elements)]

    def index(self, x):
        try:
            return self._idx[x]
        except KeyError:
            raise UnknownElement("unknown element %r" % (x,))

    def __contains__(self, x):
        return x in self._idx

    def pair_key(self, pair):
        return (self._idx[pair[0]], self._idx[pair[1]])

    def leq(self, x, y):
        return (x, y) in self._leq

    def less(self, x, y):
        return x != y and (x, y) in self._leq

    def is_cover(self, x, y):
        return (x, y) in self._cover_set

    def __repr__(self):
        return "Poset(%r)" % (self.elements,)


def closure(pairs, elements):
    """Reflexive-transitive closure as a set of (x, y) pairs, x <= y."""
    rel = {(x, x) for x in elements}
    rel.update(pairs)
    grown = True
    while grown:
        grown = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    grown = True
    return rel


def build_poset(labels, cover_pairs):
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate labels")
    if len(labels) < 2:
        raise TooSmall("a poset needs at least 2 elements, got %d" % len(labels))
    known = set(labels)
    for x, y in cover_pairs:
        if x not in known or y not in known:
            raise UnknownElement("cover pair (%r, %r) uses an unknown label" % (x, y))
        if x == y:
            raise CycleInOrder("reflexive pair (%r, %r) is not a strict cover" % (x, y))
    leq = closure(cover_pairs, labels)
    for x, y in leq:
        if x != y and (y, x) in leq:
            raise CycleInOrder("%r and %r are comparable both ways" % (x, y))
    # recompute the covers of the closed relation; the input must match
    strict = {(x, y) for (x, y) in leq if x != y}
    recovered = {(x, y) for (x, y) in strict
                 if not any((x, z) in strict and (z, y) in strict for z in labels)}
    given = set(cover_pairs)
    if given != recovered:
        extra = sorted(given - recovered, key=lambda pr: (labels.index(pr[0]), labels.index(pr[1])))
        raise RedundantCover("input pairs %s are not cover edges after closure" % (extra,))
    p = Poset(labels, leq, recovered)
    seen = _component_of(p, labels[0], None)
    if len(seen) != len(labels):
        raise NotConnected("cover graph is disconnected")
    return p


def _component_of(p, start, removed_edge):
    """Vertices reachable from start in the cover graph, optionally with one edge removed."""
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in p.adjacency[v]:
            if removed_edge is not None and {v, w} == removed_edge:
                continue
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def parse_poset(text):
    """Parse the line-oriented poset format.

    First meaningful line: `elements: a b c ...`; each later line `a < b`
    declares one cover pair; `#` starts a comment.
    """
    labels = None
    covers = {}   # insertion-ordered set of cover pairs
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if labels is None:
            if not line.startswith("elements:"):
                raise ParseError("line %d: expected 'elements:' header" % lineno)
            labels = line[len("elements:"):].split()
            if not labels:
                raise ParseError("line %d: empty element list" % lineno)
            continue
        parts = line.split("<")
        if len(parts) != 2:
            raise ParseError("line %d: expected 'a < b'" % lineno)
        x, y = parts[0].strip(), parts[1].strip()
        if not x or not y:
            raise ParseError("line %d: expected 'a < b'" % lineno)
        if x not in labels or y not in labels:
            raise ParseError("line %d: unknown label in %r" % (lineno, line))
        if (x, y) in covers:
            raise ParseError("line %d: repeated cover %r" % (lineno, line))
        covers[(x, y)] = None
    if labels is None:
        raise ParseError("missing 'elements:' header")
    return build_poset(labels, list(covers))


def min_max(p):
    """Minimal and maximal elements, each sorted canonically."""
    return list(p._mins), list(p._maxs)


class Walk(object):
    """Sequence of vertices where every step follows a cover edge up or down."""

    def __init__(self, owner, vertices):
        vertices = tuple(vertices)
        if not vertices:
            raise InvalidWalk("a walk needs at least one vertex")
        for v in vertices:
            owner.index(v)
        for a, b in zip(vertices, vertices[1:]):
            if not (owner.is_cover(a, b) or owner.is_cover(b, a)):
                raise InvalidWalk("step (%r, %r) is not a cover edge" % (a, b))
        self.owner = owner
        self.vertices = vertices

    @property
    def length(self):
        return len(self.vertices) - 1

    def is_closed(self):
        return self.vertices[0] == self.vertices[-1]

    def is_cycle(self):
        if not self.is_closed() or self.length < 4:
            return False
        interior = self.vertices[:-1]
        return len(set(interior)) == len(interior)

    def compose(self, other):
        if self.vertices[-1] != other.vertices[0]:
            raise InvalidWalk("walks are not composable")
        return Walk(self.owner, self.vertices + other.vertices[1:])

    def inverse(self):
        return Walk(self.owner, tuple(reversed(self.vertices)))

    def __eq__(self, other):
        return (isinstance(other, Walk) and other.owner is self.owner
                and other.vertices == self.vertices)

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "Walk(%s)" % (",".join(repr(v) for v in self.vertices))


def enumerate_cycles(p, cap=10000):
    """All simple cycles of the cover graph, one Walk per cycle.

    Test oracle only: exponential in general, capped. Each cycle is
    reported once, starting at its smallest vertex, in the direction whose
    second vertex is smaller than its last.
    """
    idx = p.index
    cycles = []
    for s in p.elements:
        si = idx(s)
        # depth-first paths s, v1, ..., vk with idx(vj) > si throughout
        stack = [(s, [s], {s})]
        while stack:
            v, path, onpath = stack.pop()
            for w in reversed(p.adjacency[v]):
                if w == s and len(path) >= 3:
                    if idx(path[1]) < idx(path[-1]):
                        if len(cycles) >= cap:
                            raise CapExceeded("more than %d cycles" % cap)
                        walk = Walk(p, path + [s])
                        # cover graphs carry no triangles
                        assert walk.length >= 4
                        cycles.append(walk)
                elif idx(w) > si and w not in onpath:
                    stack.append((w, path + [w], onpath | {w}))
    return cycles


def blocks_and_bridges(p):
    """Biconnected blocks (as sets of cover pairs) and the bridge set.

    A cover edge lies on some cycle iff it is not a bridge.
    """
    cover_of = {frozenset(e): e for e in p.covers}
    disc, low = {}, {}
    edge_stack = []
    raw_blocks = []
    timer = count()
    for root in p.elements:
        if root in disc:
            continue
        disc[root] = low[root] = next(timer)
        stack = [(root, None, iter(p.adjacency[root]))]
        while stack:
            v, parent, children = stack[-1]
            advanced = False
            for w in children:
                if w == parent:
                    continue
                if w not in disc:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = next(timer)
                    stack.append((w, v, iter(p.adjacency[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = []
                        while edge_stack:
                            e = edge_stack.pop()
                            block.append(cover_of[frozenset(e)])
                            if e == (u, v):
                                break
                        raw_blocks.append(block)
    blocks = [frozenset(b) for b in raw_blocks]
    blocks.sort(key=lambda b: min(p.pair_key(e) for e in b))
    bridges = {next(iter(b)) for b in blocks if len(b) == 1}
    return blocks, bridges


class PairClassPartition(object):
    """Finest partition of the strict pairs closed under chain and cycle identification."""

    def __init__(self, owner, classes):
        self.owner = owner
        self.classes = classes
        self.class_of = {}
        for k, cls in enumerate(classes):
            for pr in cls:
                self.class_of[pr] = k

    def representative(self, k):
        return self.classes[k][0]

    def __len__(self):
        return len(self.classes)


def pair_classes(p):
    pairs = p.strict_pairs
    parent = {pr: pr for pr in pairs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # (a) same-chain identification
    for i, pq in enumerate(pairs):
        for uv in pairs[i + 1:]:
            labels = set(pq) | set(uv)
            if all(p.leq(a, b) or p.leq(b, a) for a in labels for b in labels):
                union(pq, uv)
    # (b) cover edges sharing a non-bridge biconnected block
    blocks, _bridges = blocks_and_bridges(p)
    for block in blocks:
        if len(block) > 1:
            edges = sorted(block, key=p.pair_key)
            for e in edges[1:]:
                union(edges[0], e)

    grouped = {}
    for pr in pairs:
        grouped.setdefault(find(pr), []).append(pr)
    classes = [sorted(cls, key=p.pair_key) for cls in grouped.values()]
    classes.sort(key=lambda cls: p.pair_key(cls[0]))
    return PairClassPartition(p, classes)


def extreme_pairs(p):
    """Pairs (x, y) with x minimal, y maximal, (x, y) a bridge cover edge."""
    mins, maxs = set(p._mins), set(p._maxs)
    _blocks, bridges = blocks_and_bridges(p)
    return [e for e in p.covers
            if e in bridges and e[0] in mins and e[1] in maxs]


def sign_and_vset(p, u0, pair):
    """Orientation sign of an extreme pair seen from u0, and the far-side vertex set.

    Removing the bridge (x, y) splits the cover graph in two; the sign is +1
    iff u0 lands on x's side, and V is the component not containing u0.
    """
    p.index(u0)
    if pair not in set(extreme_pairs(p)):
        raise NotExtreme("%r is not an extreme pair" % (pair,))
    x, y = pair
    edge = {x, y}
    side_x = _component_of(p, x, edge)
    if u0 in side_x:
        return 1, frozenset(_component_of(p, y, edge))
    return -1, frozenset(side_x)


def walk_between(p, u, v):
    """Shortest cover-graph walk from u to v; breadth-first, canonical tie-break."""
    p.index(u), p.index(v)
    prev = {u: None}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        if a == v:
            break
        for b in p.adjacency[a]:
            if b not in prev:
                prev[b] = a
                queue.append(b)
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return Walk(p, reversed(path))
