"""Finite connected posets and the order/graph combinatorics built on them.

Conventions used across the package:
  - canonical element order = input order; every set, pair list and
    partition is reported sorted by it.
  - a "pair" is a tuple (x, y) of labels with x <= y; cover pairs always
    have x < y and no element strictly between.
"""

from collections import deque
from itertools import count

from .errors import (CapExceeded, CycleInOrder, NotConnected, NotExtreme,
                     ParseError, RedundantCover, TooSmall, UnknownElement)


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
        self._cover_set = set(self.covers)
        upper = _successors(self.elements, self.covers)
        lower = _successors(self.elements, [(y, x) for x, y in self.covers])
        self.adjacency = {x: sorted(lower[x] + upper[x], key=self._idx.__getitem__)
                          for x in self.elements}
        self._mins = [x for x in self.elements if not lower[x]]
        self._maxs = [x for x in self.elements if not upper[x]]
        self._memo = {}

    def memo(self, key, compute):
        """compute(self), computed on first use and kept under key.

        The poset never changes, so neither does the value; callers store
        only values they never mutate and hand out copies.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(self)
            return value

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


def _successors(elements, pairs):
    """{x: [y for each pair (x, y)]}, in the order of the pairs."""
    succ = {x: [] for x in elements}
    for x, y in pairs:
        succ[x].append(y)
    return succ


def closure(pairs, elements):
    """Reflexive-transitive closure as a set of (x, y) pairs, x <= y.

    One depth-first search from each element along the given pairs, whose
    labels must all be elements: O(n·E) for n elements and E pairs.
    """
    succ = _successors(elements, pairs)
    rel = set()
    for x in elements:
        seen = {x}
        stack = [x]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        rel.update((x, y) for y in seen)
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
    p = Poset(labels, closure(cover_pairs, labels), set(cover_pairs))
    # the first of the canonically sorted pairs that is comparable both ways
    for x, y in p.strict_pairs:
        if p.leq(y, x):
            raise CycleInOrder("%r and %r are comparable both ways" % (x, y))
    # the input must be exactly the covers of its closure: (x, y) is not a
    # cover iff another upper neighbour z of x lies below y
    upper = _successors(labels, p.covers)
    extra = [(x, y) for x, y in p.covers
             if any(z != y and p.leq(z, y) for z in upper[x])]
    if extra:
        raise RedundantCover("input pairs %s are not cover edges after closure" % (extra,))
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


def enumerate_cycles(p, cap=10000):
    """All simple cycles of the cover graph, each as a closed tuple of
    vertices (its first vertex repeated at the end).

    `lietp analyze` counts cycles with it.  The search is exponential in
    general: it raises CapExceeded past `cap` cycles, but the paths it
    explores are not capped, and on a random poset with 80 elements and
    110 covers it does not finish within 60 s (ROADMAP item 5).  Each
    cycle is reported once, starting at its smallest vertex, in the
    direction whose second vertex is smaller than its last.
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
                        # cover graphs carry no triangles
                        assert len(path) >= 4
                        cycles.append(tuple(path) + (s,))
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
    """Finest partition of the strict pairs that is constant on chains and
    on the cover edges of each cycle.

    (a) Chains, through covers: (x, y) is joined to (x, z) for every cover
    x ⋖ z with z < y, and a ⋖ b to b ⋖ c for every two consecutive covers.
    Each such join lies on a chain, and refining any chain to covers
    c0 ⋖ ... ⋖ ck links each (ci, cj) to (ci, ci+1) and those to each
    other, so this is the same partition as joining every two pairs of a
    common chain, in O(P·deg) instead of O(P²) for P strict pairs.
    (b) Cycles: the cover edges of each biconnected block of more than one
    edge are joined.
    """
    pidx, leq = p.pair_index, p._leq
    upper = _successors(p.elements, p.covers)
    parent = list(range(len(p.pairs)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # (a) chains, through covers
    for x, y in p.strict_pairs:
        k = pidx[(x, y)]
        for z in upper[x]:
            if z != y and (z, y) in leq:
                union(k, pidx[(x, z)])
    for a, b in p.covers:
        k = pidx[(a, b)]
        for c in upper[b]:
            union(k, pidx[(b, c)])
    # (b) cover edges sharing a non-bridge biconnected block
    cycle_blocks, _extreme = _cover_graph_data(p)
    for edges in cycle_blocks:
        for e in edges[1:]:
            union(pidx[edges[0]], pidx[e])

    grouped = {}
    for pr in p.strict_pairs:
        grouped.setdefault(find(pidx[pr]), []).append(pr)
    # strict_pairs is canonically sorted, so each class is, and classes
    # come out ordered by their first pair
    return PairClassPartition(p, list(grouped.values()))


def _cover_graph_data(p):
    """From one blocks_and_bridges(p) per poset: the blocks of more than one
    edge, each a canonically sorted tuple of its edges, and the extreme pairs
    as a dict with value None, in canonical order."""
    def compute(q):
        blocks, bridges = blocks_and_bridges(q)
        mins, maxs = set(q._mins), set(q._maxs)
        return (tuple(tuple(sorted(b, key=q.pair_key)) for b in blocks if len(b) > 1),
                dict.fromkeys(e for e in q.covers
                              if e in bridges and e[0] in mins and e[1] in maxs))
    return p.memo("blocks_and_bridges", compute)


def extreme_pairs(p):
    """Pairs (x, y) with x minimal, y maximal, (x, y) a bridge cover edge."""
    return list(_cover_graph_data(p)[1])


def is_extreme_pair(p, pair):
    """True iff pair is an extreme pair of p, in O(1)."""
    return pair in _cover_graph_data(p)[1]


def bridge_sides(p, u0):
    """The side sets of every extreme pair seen from u0, from one search.

    Returns (order, sides): order is a depth-first preorder of the cover
    graph from u0, and sides maps each extreme pair (x, y) to (sign, lo, hi)
    with far-side set order[lo:hi].  A bridge is an edge of every spanning
    tree, so removing it leaves the subtree of its deeper endpoint as the
    component away from u0, and a preorder lists each subtree contiguously;
    the sign is +1 iff the deeper endpoint is y, that is, u0 lies on x's
    side.  Computed once per poset and base point in O(n + E), kept in
    O(n) space.
    """
    p.index(u0)

    def compute(q):
        order, start, end = [u0], {u0: 0}, {}
        stack = [(u0, iter(q.adjacency[u0]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if w not in start:
                    start[w] = len(order)
                    order.append(w)
                    stack.append((w, iter(q.adjacency[w])))
                    break
            else:
                stack.pop()
                end[v] = len(order)
        sides = {}
        for x, y in _cover_graph_data(q)[1]:
            sgn, deeper = (1, y) if start[y] > start[x] else (-1, x)
            sides[(x, y)] = (sgn, start[deeper], end[deeper])
        return tuple(order), sides
    return p.memo(("bridge_sides", u0), compute)


def sign_and_vset(p, u0, pair):
    """Orientation sign of an extreme pair seen from u0, and the far-side vertex set.

    Removing the bridge (x, y) splits the cover graph in two; the sign is +1
    iff u0 lands on x's side, and V is the component not containing u0
    (read from bridge_sides).
    """
    order, sides = bridge_sides(p, u0)
    try:
        sgn, lo, hi = sides[pair]
    except (KeyError, TypeError):
        raise NotExtreme("%r is not an extreme pair" % (pair,))
    return sgn, frozenset(order[lo:hi])
