"""Finite connected posets and the order/graph combinatorics built on them.

Conventions used across the package:
  - canonical element order = input order; every set, pair list and
    partition is reported sorted by it.
  - a "pair" is a tuple (x, y) of labels with x <= y; cover pairs always
    have x < y and no element strictly between.
"""

from itertools import accumulate, repeat

from .errors import (CycleInOrder, NotConnected, NotExtreme, ParseError,
                     RedundantCover, TooSmall, UnknownElement)


class Poset(object):
    """Immutable finite connected poset. Build through build_poset()."""

    def __init__(self, elements, rows, upper, lower):
        """rows[i]: the indices j, ascending, with elements[i] <= elements[j];
        upper[i], lower[i]: those that cover i and that i covers, ascending."""
        self.elements = el = list(elements)
        self._idx = {x: i for i, x in enumerate(el)}
        self._rows, self._upper = rows, upper
        # basis order for the incidence algebra: all comparable pairs, read
        # off the closure rows already in canonical order
        self.pairs = pairs = []
        for x, row in zip(el, rows):
            pairs.extend(zip(repeat(x), map(el.__getitem__, row)))
        self.pair_index = dict(zip(pairs, range(len(pairs))))
        self.strict_pairs = [(x, y) for (x, y) in pairs if x != y]
        self.covers = [(x, el[j]) for x, up in zip(el, upper) for j in up]
        self._cover_set = set(self.covers)
        self._adj = [sorted(lo + up) for lo, up in zip(lower, upper)]
        self.adjacency = {x: list(map(el.__getitem__, adj))
                          for x, adj in zip(el, self._adj)}
        self._mins = [x for x, lo in zip(el, lower) if not lo]
        self._maxs = [x for x, up in zip(el, upper) if not up]
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
        return (x, y) in self.pair_index

    def less(self, x, y):
        return x != y and (x, y) in self.pair_index

    def is_cover(self, x, y):
        return (x, y) in self._cover_set

    def __repr__(self):
        return "Poset(%r)" % (self.elements,)


def closure(succ):
    """Reflexive-transitive closure of i -> j for j in succ[i] on indices
    0..n-1: rows[i] lists, ascending, every j reachable from i, i included.

    One depth-first search per index, O(n·E) for E relation pairs, that
    takes in whole the reachable set of any index already done.
    """
    reach = [None] * len(succ)
    for i in range(len(succ)):
        seen = reach[i] = {i}
        stack = [i]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    if reach[w] is None:
                        seen.add(w)
                        stack.append(w)
                    else:
                        seen |= reach[w]
    return [sorted(seen) for seen in reach]


def build_poset(labels, cover_pairs):
    labels, cover_pairs = list(labels), list(cover_pairs)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate labels")
    if len(labels) < 2:
        raise TooSmall("a poset needs at least 2 elements, got %d" % len(labels))
    idx = {x: i for i, x in enumerate(labels)}
    for x, y in cover_pairs:
        if x not in idx or y not in idx:
            raise UnknownElement("cover pair (%r, %r) uses an unknown label" % (x, y))
        if x == y:
            raise CycleInOrder("reflexive pair (%r, %r) is not a strict cover" % (x, y))
    upper, lower = [[] for _ in labels], [[] for _ in labels]
    for i, j in sorted({(idx[x], idx[y]) for x, y in cover_pairs}):
        upper[i].append(j)
        lower[j].append(i)
    rows = closure(upper)
    # the first canonical pair (i, j), j != i, comparable both ways: j in
    # rows[i] makes rows[j] a subset of rows[i], equal iff i is in rows[j]
    size = [len(row) for row in rows]
    for i, row in enumerate(rows):
        if list(map(size.__getitem__, row)).count(size[i]) > 1:
            j = next(j for j in row if j != i and size[j] == size[i])
            raise CycleInOrder("%r and %r are comparable both ways"
                               % (labels[i], labels[j]))
    # the input must be exactly the covers of its closure: (x, y) is not a
    # cover iff another upper neighbour z of x lies below y
    extra = [(labels[i], labels[j]) for i, up in enumerate(upper) for j in up
             if len(up) > 1 and any(z != j and j in rows[z] for z in up)]
    if extra:
        raise RedundantCover("input pairs %s are not cover edges after closure" % (extra,))
    p = Poset(labels, rows, upper, lower)
    # connected iff the one block search from element 0 reaches every element
    if len(_cover_graph_data(p)[2]) != len(labels):
        raise NotConnected("cover graph is disconnected")
    return p


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


def enumerate_cycles(p):
    """Yield every simple cycle of the cover graph, each as a closed tuple
    of vertices (its first vertex repeated at the end).

    `lietp analyze` counts cycles with it, up to a limit of its own.  The
    search is exponential in general: the paths it explores are not
    bounded by the cycles it yields, and on a random poset with 80
    elements and 110 covers it does not finish within 60 s (ROADMAP
    item 4).  Each cycle is yielded once, starting at its smallest vertex,
    in the direction whose second vertex is smaller than its last.
    """
    idx = p.index
    for s in p.elements:
        si = idx(s)
        # depth-first paths s, v1, ..., vk with idx(vj) > si throughout
        stack = [(s, [s], {s})]
        while stack:
            v, path, onpath = stack.pop()
            for w in reversed(p.adjacency[v]):
                if w == s and len(path) >= 3:
                    if idx(path[1]) < idx(path[-1]):
                        # cover graphs carry no triangles
                        assert len(path) >= 4
                        yield tuple(path) + (s,)
                elif idx(w) > si and w not in onpath:
                    stack.append((w, path + [w], onpath | {w}))


def _block_search(p):
    """The one depth-first search of the cover graph (Hopcroft–Tarjan),
    iterative, from element 0.  Returns (blocks, order, disc, end): the
    cover edges of each biconnected block, as index pairs in either
    direction; the indices reached, in preorder; and for each index i
    reached, its place disc[i] in order and the end of its subtree,
    order[disc[i]:end[i]].  The graph is connected iff order has every
    index."""
    adj = p._adj
    disc, low, end = [0] + [-1] * (len(adj) - 1), [0] * len(adj), [0] * len(adj)
    order, edge_stack, blocks = [0], [], []
    # frame: vertex, parent, neighbours left, edge-stack index of its tree edge
    stack = [(0, -1, iter(adj[0]), 0)]
    while stack:
        v, parent, children, mark = stack[-1]
        for w in children:
            if w == parent:
                continue
            if disc[w] < 0:
                stack.append((w, v, iter(adj[w]), len(edge_stack)))
                edge_stack.append((v, w))
                disc[w] = low[w] = len(order)
                order.append(w)
                break
            if disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            end[v] = len(order)
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    blocks.append(edge_stack[mark:])
                    del edge_stack[mark:]
    return blocks, order, disc, end


def _cover_graph_data(p):
    """From one _block_search(p) per poset: (cycle_blocks, extreme, order,
    disc).  cycle_blocks are the blocks of more than one edge, each a
    canonically sorted tuple of its edges, ordered by their first edge;
    order is the search's preorder, as labels, and disc[i] the place of
    element i in it.  extreme maps each extreme pair (x, y), in canonical
    order, to (sign, lo, hi): the deeper end's subtree is order[lo:hi], and
    the sign, seen from element 0, is +1 iff that end is y."""
    def compute(q):
        el, upper = q.elements, q._upper
        blocks, order, disc, end = _block_search(q)
        cycle_blocks = tuple(tuple((el[a], el[b]) for a, b in block) for block in sorted(
            sorted((a, b) if b in upper[a] else (b, a) for a, b in block)
            for block in blocks if len(block) > 1))
        on_cycle = {e for b in cycle_blocks for e in b}
        mins, maxs = set(q._mins), set(q._maxs)
        extreme = {}
        for e in q.covers:
            if e not in on_cycle and e[0] in mins and e[1] in maxs:
                i, j = q._idx[e[0]], q._idx[e[1]]
                sgn, deeper = (1, j) if disc[j] > disc[i] else (-1, i)
                extreme[e] = (sgn, disc[deeper], end[deeper])
        return cycle_blocks, extreme, tuple(map(el.__getitem__, order)), disc
    return p.memo("blocks_and_bridges", compute)


def blocks_and_bridges(p):
    """Biconnected blocks (as sets of cover pairs) and the bridge set,
    blocks ordered by their first edge.

    A cover edge lies on some cycle iff it is not a bridge, and a bridge is
    a block on its own.  Derived from the blocks of more than one edge that
    the one memoised search keeps (_cover_graph_data), with no new search.
    """
    cycle_blocks = _cover_graph_data(p)[0]
    on_cycle = {e for b in cycle_blocks for e in b}
    bridges = {e for e in p.covers if e not in on_cycle}
    blocks = list(cycle_blocks) + [(e,) for e in bridges]
    blocks.sort(key=lambda b: p.pair_key(b[0]))
    return [frozenset(b) for b in blocks], bridges


class PairClassPartition(object):
    """Finest partition of the strict pairs closed under chain and cycle identification."""

    def __init__(self, owner, classes):
        self.owner = owner
        self.classes = classes
        self.class_of = {pr: k for k, cls in enumerate(classes) for pr in cls}

    def representative(self, k):
        return self.classes[k][0]

    def __len__(self):
        return len(self.classes)


def pair_classes(p):
    """Finest partition of the strict pairs that is constant on chains and
    on the cover edges of each cycle.

    (a) Chains: refining a chain to covers c0 ⋖ ... ⋖ ck, each of its pairs
    (ci, cj) lies on the chain of covers ci ⋖ ci+1 ⋖ ... ⋖ cj, so joining
    every two consecutive covers a ⋖ b ⋖ c and then each strict pair
    (x, y) to a cover x ⋖ z with z <= y is the same as joining every two
    pairs of a common chain.
    (b) Cycles: the cover edges of each biconnected block of more than one
    edge are joined.
    The union-find therefore runs over the E cover edges, not the P strict
    pairs.  Which cover x ⋖ z <= y a pair takes does not matter: two covers
    x ⋖ z1 and x ⋖ z2 below y close, through two chains up to y, a simple
    cycle, so they already share a block.
    """
    el, rows, upper = p.elements, p._rows, p._upper
    cover_id = {e: k for k, e in enumerate(p.covers)}
    parent = list(range(len(cover_id)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # cover ids of element i's upper covers: first[i] to first[i + 1]
    first = list(accumulate(map(len, upper), initial=0))
    # (a) consecutive covers a ⋖ b ⋖ c
    for a, up in enumerate(upper):
        for k, b in enumerate(up, first[a]):
            for c in range(first[b], first[b + 1]):
                parent[find(k)] = find(c)
    # (b) cover edges sharing a non-bridge biconnected block
    for edges in _cover_graph_data(p)[0]:
        for e in edges[1:]:
            parent[find(cover_id[edges[0]])] = find(cover_id[e])

    grouped = {}
    for i, x in enumerate(el):
        # each j above i, mapped to the class of a cover of i below j
        cls = {}
        for k, z in enumerate(upper[i], first[i]):
            cls.update(dict.fromkeys(rows[z], find(k)))
        for j in rows[i]:
            if j != i:
                grouped.setdefault(cls[j], []).append((x, el[j]))
    # pairs are met in canonical order, so each class is canonically
    # sorted, and classes come out ordered by their first pair
    return PairClassPartition(p, list(grouped.values()))


def extreme_pairs(p):
    """Pairs (x, y) with x minimal, y maximal, (x, y) a bridge cover edge."""
    return list(_cover_graph_data(p)[1])


def is_extreme_pair(p, pair):
    """True iff pair is an extreme pair of p, in O(1)."""
    return pair in _cover_graph_data(p)[1]


def bridge_side(p, u0, pair):
    """sign_and_vset(p, u0, pair) with the far side a sequence of labels.

    A bridge is an edge of every spanning tree, so removing it leaves the
    subtree of its deeper end in the one search from element 0 as one
    component, and a preorder lists each subtree contiguously: the far side
    is that subtree, or, with the sign flipped, its complement when u0 lies
    inside it (see _cover_graph_data).
    """
    _, extreme, order, disc = _cover_graph_data(p)
    at = disc[p.index(u0)]
    try:
        sgn, lo, hi = extreme[pair]
    except (KeyError, TypeError):
        raise NotExtreme("%r is not an extreme pair" % (pair,))
    if lo <= at < hi:
        return -sgn, order[:lo] + order[hi:]
    return sgn, order[lo:hi]


def sign_and_vset(p, u0, pair):
    """Orientation sign of an extreme pair seen from u0, and the far-side vertex set.

    Removing the bridge (x, y) splits the cover graph in two; the sign is +1
    iff u0 lands on x's side, and V is the component not containing u0
    (read from bridge_side).
    """
    sgn, side = bridge_side(p, u0, pair)
    return sgn, frozenset(side)
