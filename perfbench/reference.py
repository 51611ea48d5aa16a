"""Independent expectations the benchmark checks the library against.

Nothing here calls the library's algorithms: the order, its blocks and pair
classes are recomputed from the cover list with different methods, and
corrupted product tables are shown to be wrong by an explicit witness found
with this module's own exact arithmetic.  All of it runs outside the timed
region.
"""

from fractions import Fraction


def upsets(labels, covers):
    """{x: the set of y >= x} of the order that ``covers`` generate, by search."""
    up = {x: [] for x in labels}
    for x, y in covers:
        up[x].append(y)
    above = {}
    for x in labels:
        seen, stack = {x}, [x]
        while stack:
            for y in up[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        above[x] = seen
    return above


class Order(object):
    """Combinatorics of the order generated by ``covers`` on ``labels``."""

    def __init__(self, labels, covers):
        self.labels = list(labels)
        self.covers = list(covers)
        self.nbrs = {x: set() for x in labels}
        for x, y in covers:
            self.nbrs[x].add(y)
            self.nbrs[y].add(x)
        self.above = upsets(labels, covers)
        self.leq = {(x, y) for x in labels for y in self.above[x]}
        self.mins = {x for x in labels if not any(x in self.above[z] for z in labels if z != x)}
        self.maxs = {x for x in labels if self.above[x] == {x}}
        self.bridges = {e for e in covers if not self._connected_without(e)}

    def _component(self, start, skip_edge=None, skip_vertex=None):
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for w in self.nbrs[v]:
                if w == skip_vertex or w in seen or {v, w} == skip_edge:
                    continue
                seen.add(w)
                stack.append(w)
        return seen

    def _connected_without(self, edge):
        x, y = edge
        return y in self._component(x, skip_edge={x, y})

    def blocks(self):
        """Cover edges grouped into biconnected blocks.

        Two edges at a vertex v lie in one block iff their far ends stay
        connected once v is removed; blocks are the closure of that relation.
        """
        parent = {e: e for e in self.covers}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        edge_at = {}
        for x, y in self.covers:
            edge_at[(x, y)] = edge_at[(y, x)] = (x, y)
        for v in self.labels:
            ends = sorted(self.nbrs[v])
            seen = {}
            for w in ends:
                if w in seen:
                    continue
                comp = self._component(w, skip_vertex=v)
                for u in ends:
                    if u in comp:
                        seen[u] = w
            for u in ends:
                parent[find(edge_at[(v, u)])] = find(edge_at[(v, seen[u])])
        groups = {}
        for e in self.covers:
            groups.setdefault(find(e), set()).add(e)
        return [frozenset(g) for g in groups.values()]

    def pair_classes(self):
        """Strict pairs under the chain and cycle identifications.

        Each strict pair (x, y) is joined to one cover x < z <= y and every
        two consecutive covers a < b < c are joined, so pairs of a common
        chain meet through that chain's covers; edges of one non-bridge block
        are joined as in the definition.
        """
        strict = [(x, y) for (x, y) in self.leq if x != y]
        parent = {pr: pr for pr in strict}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            parent[find(a)] = find(b)

        cover_up = {x: [] for x in self.labels}
        for x, y in self.covers:
            cover_up[x].append(y)
        for x, y in strict:
            z = next(z for z in cover_up[x] if y in self.above[z])
            union((x, y), (x, z))
        for a, b in self.covers:
            for c in cover_up[b]:
                union((a, b), (b, c))
        for block in self.blocks():
            edges = list(block)
            for e in edges[1:]:
                union(edges[0], e)
        groups = {}
        for pr in strict:
            groups.setdefault(find(pr), set()).add(pr)
        return {frozenset(g) for g in groups.values()}

    def extreme_pairs(self):
        return {(x, y) for (x, y) in self.bridges if x in self.mins and y in self.maxs}

    def sign_and_side(self, u0, pair):
        x, y = pair
        side_x = self._component(x, skip_edge={x, y})
        if u0 in side_x:
            return 1, frozenset(self._component(y, skip_edge={x, y}))
        return -1, frozenset(side_x)

    def minmax_pairs(self):
        return {(x, y) for (x, y) in self.leq if x != y and x in self.mins and y in self.maxs}

    def summary(self, u0):
        """Everything the poset-ladder op computes, in comparable form."""
        classes = self.pair_classes()
        mm = self.minmax_pairs()
        ext = self.extreme_pairs()
        return {
            "basis": len(self.leq),
            "classes": classes,
            "bridges": set(self.bridges),
            "extreme": {e: self.sign_and_side(u0, e) for e in ext},
            "min": set(self.mins), "max": set(self.maxs),
            "minmax": mm,
            "dimension": len(self.labels) + len(classes) + len(mm),
        }


# --- exact product-table arithmetic for corruption witnesses ----------------

def _add(acc, k, v):
    s = acc.get(k, 0) + v
    if s:
        acc[k] = s
    else:
        acc.pop(k, None)


class Table(object):
    """A commutative product on the basis ``pairs`` given as {(i, j): {r: Fraction}}, i <= j."""

    def __init__(self, pairs, table):
        self.pairs = pairs
        self.index = {pr: k for k, pr in enumerate(pairs)}
        self.table = table

    def times(self, u, v):
        acc = {}
        for i, a in u.items():
            for j, b in v.items():
                for r, c in self.table.get((i, j) if i <= j else (j, i), {}).items():
                    _add(acc, r, a * b * c)
        return acc

    def bracket(self, u, v):
        """[u, v] = uv - vu in the incidence algebra: e_ab e_cd = [b = c] e_ad."""
        acc = {}
        for i, a in u.items():
            for j, b in v.items():
                (w, x), (y, z) = self.pairs[i], self.pairs[j]
                if x == y:
                    _add(acc, self.index[(w, z)], a * b)
                if z == w:
                    _add(acc, self.index[(y, x)], -a * b)
        return acc

    def assoc_fails(self, a, b, c):
        ea, eb, ec = {a: 1}, {b: 1}, {c: 1}
        return self.times(self.times(ea, eb), ec) != self.times(ea, self.times(eb, ec))

    def leibniz_fails(self, z, x, y):
        ez, ex, ey = {z: 1}, {x: 1}, {y: 1}
        lhs = {k: 2 * v for k, v in self.times(ez, self.bracket(ex, ey)).items()}
        rhs = self.bracket(self.times(ez, ex), ey)
        for k, v in self.bracket(ex, self.times(ez, ey)).items():
            _add(rhs, k, v)
        return lhs != rhs

    def witness(self, key):
        """A failing identity among those that read the product at ``key``, or None."""
        i, j = key
        B = len(self.pairs)
        for c in range(B):
            for t in ((i, j, c), (c, i, j), (j, i, c), (c, j, i)):
                if self.assoc_fails(*t):
                    return ("associative",) + t
        for z, x in ((i, j), (j, i)):
            for y in range(B):
                if y != x and self.leibniz_fails(z, x, y):
                    return ("transposed_leibniz", z, x, y)
        return None


def corrupted(table, key, r):
    """Copy of {(i, j): {r: Fraction}} with 1 added to the coefficient of r at key."""
    out = {k: dict(v) for k, v in table.items()}
    row = out.setdefault(key, {})
    _add(row, r, Fraction(1))
    if not row:
        del out[key]
    return out
