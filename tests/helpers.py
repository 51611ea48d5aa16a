"""Shared test utilities.

Independent brute-force routes (iso-class catalogs, cycle-based pair rules,
walks and the walk formula, dense operator application) live here so the
tests never trust the code path under test.
"""

import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from lietp import algebra, poset, tpstruct
from lietp.errors import LietpError
from lietp.halfder import (CentralElement, KappaMap, LinearOperator, SigmaMap,
                           _normalize_int_row, _solve, central_valued, inner,
                           phi_sigma, unit_brackets)
from lietp.poset import build_poset, enumerate_cycles, pair_classes


def chain(n):
    labels = [str(i) for i in range(1, n + 1)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def crown(k):
    """The crown on 2k elements: a_i below b_i and b_(i+1 mod k)."""
    lows = ["a%d" % i for i in range(k)]
    highs = ["b%d" % i for i in range(k)]
    covers = [(lows[i], highs[(i + d) % k]) for i in range(k) for d in (0, 1)]
    return build_poset(lows + highs, covers)


# --- iso-class catalog of connected posets ---------------------------------

def _transitive(rel):
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c and (a, d) not in rel:
                return False
    return True


def _rel_connected(n, rel):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (a, b) in rel:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(n)}) == 1


def _canonical(n, rel):
    return min(tuple(sorted((pi[a], pi[b]) for (a, b) in rel))
               for pi in permutations(range(n)))


def _labeled_posets(n):
    # strict orders refining the natural order on range(n); every iso class
    # has such a representative (relabel along a linear extension)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for bits in range(1 << len(pairs)):
        rel = frozenset(pairs[k] for k in range(len(pairs)) if bits >> k & 1)
        if _transitive(rel):
            found.append(rel)
    return found


@lru_cache(maxsize=None)
def poset_counts(n):
    """(#iso classes, #connected iso classes) of posets on n elements."""
    seen, connected = set(), set()
    for rel in _labeled_posets(n):
        canon = _canonical(n, rel)
        seen.add(canon)
        if _rel_connected(n, rel):
            connected.add(canon)
    return len(seen), len(connected)


@lru_cache(maxsize=None)
def connected_catalog(n):
    """One Poset per iso class of connected posets on n elements."""
    chosen = {}
    for rel in _labeled_posets(n):
        if _rel_connected(n, rel):
            chosen.setdefault(_canonical(n, rel), rel)
    labels = [str(i) for i in range(1, n + 1)]
    out = []
    for canon in sorted(chosen):
        rel = chosen[canon]
        covers = [(labels[a], labels[b]) for (a, b) in sorted(rel)
                  if not any((a, c) in rel and (c, b) in rel
                             for c in range(n))]
        out.append(build_poset(labels, covers))
    return tuple(out)


@lru_cache(maxsize=None)
def full_catalog():
    """All connected posets with 2 to 5 elements, up to isomorphism."""
    out = []
    for n in range(2, 6):
        out.extend(connected_catalog(n))
    return tuple(out)


@lru_cache(maxsize=None)
def reversed_catalog():
    """full_catalog() with each element list reversed.  Every cover then
    runs from a later element to an earlier one, so no input order is a
    linear extension, and a table keys e_x . e_xy as (e_xy, e_x)."""
    return tuple(build_poset(p.elements[::-1], list(p.covers))
                 for p in full_catalog())


def random_connected_poset(rng, n, dense=False):
    """Seeded connected poset on labels 1..n from n-1 to 2n random
    comparabilities, or with dense=True from n to n(n-1)/2 of them."""
    labels = [str(i) for i in range(1, n + 1)]
    while True:
        gens = []
        high = n * (n - 1) // 2 if dense else 2 * n
        for _ in range(rng.randint(n if dense else n - 1, high)):
            i, j = sorted(rng.sample(range(n), 2))
            gens.append((labels[i], labels[j]))
        leq = reference_closure(gens, labels)
        covers = [(x, y) for (x, y) in sorted(leq) if x != y and not any(
            z != x and z != y and (x, z) in leq and (z, y) in leq
            for z in labels)]
        try:
            return build_poset(labels, covers)
        except LietpError:
            continue


# --- random structure generators -------------------------------------------

def random_fraction(rng, allow_zero=True):
    num = rng.randint(-3, 3)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-3, 3)
    return Fraction(num, rng.randint(1, 3))


def random_admissible_sigma(p, rng):
    part = pair_classes(p)
    return SigmaMap(part, [random_fraction(rng) for _ in part.classes])


def random_central(p, rng):
    return CentralElement(p, {pr: random_fraction(rng, allow_zero=False)
                              for pr in algebra.minmax_pairs(p)
                              if rng.random() < 0.6})


def random_kappa(p, rng):
    return KappaMap(p, {x: random_fraction(rng, allow_zero=False)
                        for x in p.elements if rng.random() < 0.6})


def random_half_derivation(p, rng, u0=None):
    """(operator, c, sigma, kappa, u0) with op built from the three parts."""
    if u0 is None:
        u0 = rng.choice(p.elements)
    c = random_central(p, rng)
    sigma = random_admissible_sigma(p, rng)
    kappa = random_kappa(p, rng)
    op = inner(c) + phi_sigma(sigma, u0) + central_valued(kappa)
    return op, c, sigma, kappa, u0


def plus_one(op, rng):
    """Copy of the operator with 1 added to one random matrix entry."""
    B = len(op.columns)
    cols = [dict(col) for col in op.columns]
    j, r = rng.randrange(B), rng.randrange(B)
    cols[j][r] = cols[j].get(r, 0) + 1
    if not cols[j][r]:
        del cols[j][r]
    return LinearOperator(op.owner, cols)


def operator_document(op):
    """The operator as a `lietp decompose` input: one image per nonzero
    column."""
    p = op.owner
    return {"images": [
        {"from": x, "to": y, "image": algebra.to_records(op.column(k))}
        for k, (x, y) in enumerate(p.pairs) if op.columns[k]]}


def poset_text(p):
    """The poset in the `.poset` file format."""
    return "elements: %s\n%s" % (" ".join(p.elements), "".join(
        "%s < %s\n" % cover for cover in p.covers))


def random_element(p, rng):
    return algebra.element(
        p, {pr: random_fraction(rng) for pr in p.pairs if rng.random() < 0.5})


# --- walks, the walk formula and dense operator application -----------------

class Walk(object):
    """Sequence of vertices where every step follows a cover edge up or down."""

    def __init__(self, owner, vertices):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("a walk needs at least one vertex")
        for v in vertices:
            owner.index(v)
        for a, b in zip(vertices, vertices[1:]):
            if not (owner.is_cover(a, b) or owner.is_cover(b, a)):
                raise ValueError("step (%r, %r) is not a cover edge" % (a, b))
        self.owner = owner
        self.vertices = vertices

    @property
    def length(self):
        return len(self.vertices) - 1

    def is_cycle(self):
        interior = self.vertices[:-1]
        return (self.vertices[0] == self.vertices[-1] and self.length >= 4
                and len(set(interior)) == len(interior))

    def compose(self, other):
        if self.vertices[-1] != other.vertices[0]:
            raise ValueError("walks are not composable")
        return Walk(self.owner, self.vertices + other.vertices[1:])

    def inverse(self):
        return Walk(self.owner, reversed(self.vertices))


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


def _sigma_value(sigma, x, y):
    if isinstance(sigma, SigmaMap):
        return sigma.value(x, y)
    return algebra.as_rational(sigma.get((x, y), 0))


def walk_functionals(sigma, walk, x):
    """The four edge sums (s+, s-, t+, t-) of a walk at the element x, for
    a SigmaMap or a raw {strict pair: value} map."""
    walk.owner.index(x)
    sp = sm = tp = tm = Fraction(0)
    verts = walk.vertices
    for a, b in zip(verts, verts[1:]):
        if a == x and walk.owner.less(a, b):
            sp += _sigma_value(sigma, x, b)
        if b == x and walk.owner.less(b, a):
            sm += _sigma_value(sigma, x, a)
        if a == x and walk.owner.less(b, a):
            tp += _sigma_value(sigma, b, x)
        if b == x and walk.owner.less(a, b):
            tm += _sigma_value(sigma, a, x)
    return sp, sm, tp, tm


def random_walk(p, rng, u, v):
    """A walk u -> v through 0 to 2 random intermediate stops."""
    stops = ([u] + [rng.choice(p.elements) for _ in range(rng.randint(0, 2))]
             + [v])
    walk = walk_between(p, stops[0], stops[1])
    for a, b in zip(stops[1:], stops[2:]):
        walk = walk.compose(walk_between(p, a, b))
    return walk


def walk_diag_value(sigma, walk, x):
    """Walk formula for the diagonal of phi_sigma: -s+ + s- - t+ + t-."""
    sp, sm, tp, tm = walk_functionals(sigma, walk, x)
    return -sp + sm - tp + tm


def identity_operator(p):
    return LinearOperator(p, [{j: Fraction(1)} for j in range(len(p.pairs))])


def apply(op, f):
    """The image of the element f under op, column by column."""
    acc = {}
    for j, c in f.coeffs.items():
        algebra.add_scaled(acc, op.columns[j], c)
    return algebra.IncidenceElement(op.owner, acc)


# --- brute-force half-derivation check ---------------------------------------

def _comm_with_unit(p, coeffs, unit_pair):
    """Sparse [f, e_cd] for f given as {pair index: Fraction}."""
    c, d = unit_pair
    pairs, pidx = p.pairs, p.pair_index
    res = {}
    for k, v in coeffs.items():
        a, b = pairs[k]
        if b == c:
            i = pidx[(a, d)]
            res[i] = res.get(i, 0) + v
        if a == d:
            i = pidx[(c, b)]
            res[i] = res.get(i, 0) - v
    return {k: v for k, v in res.items() if v}


def reference_is_half_derivation(op):
    """is_half_derivation by a scan of every unordered basis pair (i, j),
    in Fractions, with each bracket [b_i, b_j] worked out by _comm_with_unit:
    (True, None) or (False, the first violating pair of basis pairs)."""
    p = op.owner
    pairs = p.pairs
    B = len(pairs)
    cols = op.columns
    nonzero = {j for j in range(B) if cols[j]}
    for i in range(B):
        for j in range(i + 1, B):
            br = _comm_with_unit(p, {i: 1}, pairs[j])
            if i not in nonzero and j not in nonzero:
                if not any(r in nonzero for r in br):
                    continue
            lhs = {}
            for r, s in br.items():
                algebra.add_scaled(lhs, cols[r], 2 * s)
            rhs = algebra.add_scaled(_comm_with_unit(p, cols[i], pairs[j]),
                                     _comm_with_unit(p, cols[j], pairs[i]), -1)
            if lhs != rhs:
                return False, (pairs[i], pairs[j])
    return True, None


# --- brute-force routes for the combinatorics -------------------------------

def brute_extreme_pairs(p):
    """Min-to-max cover pairs lying on no enumerated cycle."""
    on_cycle = set()
    for cyc in enumerate_cycles(p):
        for a, b in zip(cyc, cyc[1:]):
            on_cycle.add(frozenset((a, b)))
    mins, maxs = poset.min_max(p)
    return [e for e in p.covers
            if frozenset(e) not in on_cycle
            and e[0] in set(mins) and e[1] in set(maxs)]


def _chain_rule_classes(p, edge_groups):
    """Strict pairs joined when their labels form a chain, O(P²), and the
    cover edges of each group joined; classes in canonical order."""
    pairs = p.strict_pairs
    parent = {pr: pr for pr in pairs}
    comparable = set(p.pairs) | {(y, x) for x, y in p.pairs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # (a, b) and (c, d) with a < b and c < d form a chain iff each of a, b
    # is comparable to each of c, d
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1:]:
            if ((a, c) in comparable and (a, d) in comparable
                    and (b, c) in comparable and (b, d) in comparable):
                union((a, b), (c, d))
    for edges in edge_groups:
        for e in edges[1:]:
            union(edges[0], e)
    grouped = {}
    for pr in pairs:
        grouped.setdefault(find(pr), []).append(pr)
    classes = [sorted(cls, key=p.pair_key) for cls in grouped.values()]
    classes.sort(key=lambda cls: p.pair_key(cls[0]))
    return classes


def brute_pair_classes(p):
    """Pair classes from first principles: chain rule plus enumerated cycles."""
    groups = []
    for cyc in enumerate_cycles(p):
        groups.append([(a, b) if p.less(a, b) else (b, a)
                       for a, b in zip(cyc, cyc[1:])])
    return _chain_rule_classes(p, groups)


def reference_blocks(p):
    """Biconnected blocks of the cover graph, each a canonically sorted
    list of cover pairs, ordered by their first edge.

    Two cover edges share a block iff no vertex separates them: for every
    vertex v, the ends of both other than v lie in one component of the
    cover graph with v removed.  One breadth-first search per vertex,
    O(n·(n + E)).
    """
    signature = {e: [] for e in p.covers}
    for v in p.elements:
        comp = {}
        for s in p.elements:
            if s != v and s not in comp:
                comp[s] = s
                queue = deque([s])
                while queue:
                    for w in p.adjacency[queue.popleft()]:
                        if w != v and w not in comp:
                            comp[w] = s
                            queue.append(w)
        for e in p.covers:
            signature[e].append(comp[e[1] if e[0] == v else e[0]])
    blocks = {}
    for e in p.covers:
        blocks.setdefault(tuple(signature[e]), []).append(e)
    return sorted(blocks.values(), key=lambda b: p.pair_key(b[0]))


def reference_pair_classes(p):
    """Pair classes by the pairwise same-chain rule plus the cover edges of
    each biconnected block (reference_blocks)."""
    return _chain_rule_classes(p, reference_blocks(p))


def component_without_edge(p, start, edge):
    """Vertices reachable from start in the cover graph with the cover edge
    `edge` removed, by breadth-first search."""
    removed = set(edge)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in p.adjacency[v]:
            if {v, w} != removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def reference_closure(pairs, elements):
    """Reflexive-transitive closure by a pairwise fixpoint."""
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


def data_catalog(data_dir):
    """The example posets shipped in data/, by file name."""
    return {path.name: poset.parse_poset(path.read_text())
            for path in sorted(data_dir.glob("*.poset"))}


# --- transposed Poisson products on elements --------------------------------

def tp_product(prod, f, g):
    """The bilinear extension of prod's table to the elements f and g."""
    acc = {}
    for i, a in f.coeffs.items():
        for j, b in g.coeffs.items():
            elem = prod.table.get(tpstruct._table_key(i, j))
            if elem is not None:
                algebra.add_scaled(acc, elem.coeffs, a * b)
    return algebra.IncidenceElement(prod.owner, acc)


def tp_left_mult(prod, pair):
    """Multiplication by the basis vector of pair, as an operator."""
    z = prod.owner.pair_index[pair]
    cols = []
    for j in range(len(prod.owner.pairs)):
        elem = prod.table.get(tpstruct._table_key(z, j))
        cols.append(dict(elem.coeffs) if elem is not None else {})
    return LinearOperator(prod.owner, cols)


def random_tp(p, seed):
    """Seeded sum of the three constructor families at the default base point."""
    mu, nu, lam, u0 = tpstruct.random_tp_components(p, seed)
    return tpstruct.TPDecomposition(mu, nu, lam, u0).reconstruct()


# --- brute-force transposed Poisson verifier ---------------------------------

class BruteForce(object):
    """The transposed Poisson identities on triples of basis indices,
    computed with Fractions and the algebra's own commutator."""

    def __init__(self, prod):
        self.prod = prod
        self.units = [algebra.unit(prod.owner, *pr) for pr in prod.owner.pairs]
        self._times = {}
        self._brackets = {}

    def times(self, i, j):
        if (i, j) not in self._times:
            self._times[(i, j)] = tp_product(self.prod, self.units[i],
                                             self.units[j])
        return self._times[(i, j)]

    def bracket(self, i, j):
        if (i, j) not in self._brackets:
            self._brackets[(i, j)] = algebra.commutator(self.units[i],
                                                        self.units[j])
        return self._brackets[(i, j)]

    def holds(self, check, triple):
        """(a.b).c = a.(b.c) for "associative", 2 z.[x,y] = [z.x, y] +
        [x, z.y] for "transposed_leibniz"."""
        a, b, c = triple
        prod, u = self.prod, self.units
        if check == "associative":
            return (tp_product(prod, self.times(a, b), u[c])
                    == tp_product(prod, u[a], self.times(b, c)))
        comm = algebra.commutator
        return (tp_product(prod, u[a], self.bracket(b, c)).scale(2)
                == comm(self.times(a, b), u[c]) + comm(u[b], self.times(a, c)))


def reference_orthogonal(a, b):
    """orthogonal(a, b) by brute force: every product b_i . b_j of one
    structure, multiplied by every basis vector under the other, is 0."""
    for first, second in ((BruteForce(a), BruteForce(b)),
                          (BruteForce(b), BruteForce(a))):
        B = len(first.units)
        for i in range(B):
            for j in range(i, B):
                f = first.times(i, j)
                if not f.is_zero() and any(
                        not tp_product(second.prod, f, u).is_zero()
                        for u in second.units):
                    return False
    return True


def reference_verify(prod):
    """verify_tp's report by brute force: every basis triple (a, b, c) for
    associativity and every (z, x, y) with x < y for the transposed Leibniz
    rule, first failure in index order."""
    brute = BruteForce(prod)
    B = len(prod.owner.pairs)
    triples = {
        "associative": product(range(B), repeat=3),
        "transposed_leibniz": ((z, x, y) for z in range(B) for x in range(B)
                               for y in range(x + 1, B)),
    }
    report = {"associative": True, "transposed_leibniz": True,
              "witness": None}
    for check, candidates in triples.items():
        for triple in candidates:
            if not brute.holds(check, triple):
                report[check] = False
                if report["witness"] is None:
                    report["witness"] = {"check": check, "triple": tuple(
                        prod.owner.pairs[i] for i in triple)}
                break
    return report


def corrupted(prod, rng):
    """Copy of the table with 1 added to one coefficient, at a random basis
    vector, of one of its products."""
    p = prod.owner
    table = {key: dict(elem.coeffs) for key, elem in prod.table.items()}
    coeffs = table[rng.choice(sorted(table))]
    r = rng.randrange(len(p.pairs))
    coeffs[r] = coeffs.get(r, 0) + 1
    return tpstruct.tp_from_table(p, {
        (p.pairs[i], p.pairs[j]): algebra.element(
            p, {p.pairs[k]: v for k, v in c.items()})
        for (i, j), c in table.items()})


def same_components(p, dec, mu, nu, lam):
    """Value-wise equality of a decomposition with generator components."""
    for i, x in enumerate(p.elements):
        for y in p.elements[i:]:
            if dec.mu.value(x, y) != mu.value(x, y):
                return False
    if any(dec.nu.value(*pr) != nu.value(*pr)
           for pr in algebra.minmax_pairs(p)):
        return False
    return all(dec.lam.value(*pr) == lam.value(*pr)
               for pr in poset.extreme_pairs(p))


# --- brute-force routes for the Poisson-type family ---------------------------

def reference_mu_condition(p, mu):
    """mu(x,y) r(z) == mu(y,z) r(x) on every triple, r the row sums."""
    rows = {x: sum((mu.value(x, v) for v in p.elements), Fraction(0))
            for x in p.elements}
    for x in p.elements:
        for y in p.elements:
            for z in p.elements:
                if mu.value(x, y) * rows[z] != mu.value(y, z) * rows[x]:
                    return False
    return True


MU_KINDS = ("rank-one", "zero-row-sum", "rank-one+1", "zero-row-sum+1",
            "sparse")


def random_raw_mu(p, rng, kind):
    """Symmetric {(x, y): Fraction}, x before y, of one of MU_KINDS: a a^T,
    a sum of c (e_x - e_y)(e_x - e_y)^T, either with +-1 added to one entry,
    or independent entries at about a third of the pairs."""
    els = p.elements
    upper = [(x, y) for i, x in enumerate(els) for y in els[i:]]
    vals = dict.fromkeys(upper, Fraction(0))
    if kind.startswith("rank-one"):
        a = {x: random_fraction(rng) for x in els}
        for x, y in upper:
            vals[(x, y)] = a[x] * a[y]
    elif kind.startswith("zero-row-sum"):
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(len(els)), 2))
            c = random_fraction(rng, allow_zero=False)
            vals[(els[i], els[i])] += c
            vals[(els[j], els[j])] += c
            vals[(els[i], els[j])] -= c
    else:
        for pr in upper:
            if rng.random() < 0.3:
                vals[pr] = random_fraction(rng)
    if kind.endswith("+1"):
        vals[rng.choice(upper)] += rng.choice((1, -1))
    return {pr: v for pr, v in vals.items() if v}


def reference_poisson_type(mu):
    """e_x . e_y = mu(x,y) times the identity, from a dense n^2 scan."""
    p = mu.owner
    diagonal = [(x, x) for x in p.elements]
    entries = {}
    for x in p.elements:
        for y in p.elements:
            v = mu.value(x, y)
            if v:
                entries[((x, x), (y, y))] = algebra.element(
                    p, {d: v for d in diagonal})
    return tpstruct.tp_from_table(p, entries)


# --- the exact kernels as they were before their set-up was trimmed ----------

def reference_assoc_failure(rows):
    """tpstruct._first_assoc_failure as it stood before it packed each
    product once: the same sweep, set up from the rows, both orders of every
    product, with the output slots in sorted order."""
    outs = sorted({r for row in rows.values() for vec in row.values()
                   for r in vec})
    slot = {r: n for n, r in enumerate(outs)}
    norm = max((sum(map(abs, vec.values())) for row in rows.values()
                for vec in row.values()), default=0)
    width = (2 * norm * norm).bit_length() + 1
    packed = {i: {j: sum(v << (width * slot[r]) for r, v in vec.items())
                  for j, vec in row.items()}
              for i, row in rows.items()}
    holders = {}
    for b, row in rows.items():
        for c, vec in row.items():
            for s, u in vec.items():
                holders.setdefault(s, []).append((b, c, u))
    for a in sorted(rows):
        diff = {}
        for b, ab in rows[a].items():
            for r, u in ab.items():
                for c, rc in packed.get(r, {}).items():
                    key = (b, c)
                    diff[key] = diff.get(key, 0) + u * rc
        for s, as_ in packed[a].items():
            for b, c, u in holders.get(s, ()):
                key = (b, c)
                diff[key] = diff.get(key, 0) - u * as_
        bad = [key for key, v in diff.items() if v]
        if bad:
            return (a,) + min(bad)
    return None


def reference_eliminate(pivots, row):
    """halfder._eliminate as it stood before it reduced in place: a scaled
    copy of the row at every step."""
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            pivots[c] = _normalize_int_row(row)
            return True
        a, b = row[c], prow[c]
        row = algebra.add_scaled({k: b * v for k, v in row.items()}, prow, -a)
    return False


def reference_half_derivation_space(p):
    """halfder.half_derivation_space as it stood before it split by weight
    and reduced rows in place: every equation row reduced against one pivot
    set, every free unknown back-substituted against all pivots."""
    B = len(p.pairs)
    by_left, _ = p.memo("unit_brackets", unit_brackets)
    pivots = {}
    for i in range(B):
        for j in range(i + 1, B):
            rows = {}
            for r, k, s in by_left[i]:
                if r == j:
                    for m in range(B):
                        row = rows.setdefault(m, {})
                        u = k * B + m
                        row[u] = row.get(u, 0) + 2 * s
                row = rows.setdefault(k, {})
                u = j * B + r
                row[u] = row.get(u, 0) - s
            for r, k, s in by_left[j]:
                row = rows.setdefault(k, {})
                u = i * B + r
                row[u] = row.get(u, 0) + s
            for k in sorted(rows):
                row = {u: v for u, v in rows[k].items() if v}
                if row:
                    reference_eliminate(pivots, row)
    free = [u for u in range(B * B) if u not in pivots]
    ops = []
    for f in free:
        vec = {f: Fraction(1)}
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            s = Fraction(0)
            for k, v in row.items():
                if k != c and k in vec:
                    s += v * vec[k]
            if s:
                vec[c] = -s / row[c]
        cols = [{} for _ in range(B)]
        for u, v in vec.items():
            if v:
                cols[u // B][u % B] = v
        ops.append(LinearOperator(p, cols))
    return ops


# --- brute-force transposed Leibniz products --------------------------------

def tp_oracle_space(p):
    """Basis of the commutative products whose left multiplications are
    all half-derivations, by brute-force exact nullspace, as tables
    {(i, j): {m: Fraction}}, i <= j.

    The entry (b_i b_j)_m, i <= j, is the unknown t * B + m, t the number
    of (i, j) among the keys in order, of weight deg b_m - deg b_i - deg
    b_j, with the degrees of half_derivation_space; the weight's
    coefficients lie in [-3, 3], so base 8 keeps distinct weights apart.
    The left multiplication by b_z has the entry phi(b_k)_m = (b_z b_k)_m,
    so its unknown map sends (k, m) to the unknown of the key (min(z, k),
    max(z, k)) at m, and halfder._solve solves the equations of all B of
    them together.
    """
    B = len(p.pairs)
    keys = [(i, j) for i in range(B) for j in range(i, B)]
    unknowns = {key: range(t * B, t * B + B) for t, key in enumerate(keys)}
    operators = [[unknowns[tpstruct._table_key(z, k)] for k in range(B)]
                 for z in range(B)]
    deg = [8 ** p.index(x) - 8 ** p.index(y) for x, y in p.pairs]
    weight = [deg[m] - deg[i] - deg[j] for i, j in keys for m in range(B)]
    tables = []
    for vec in _solve(p, operators, weight):
        table = {}
        for u, v in vec.items():
            table.setdefault(keys[u // B], {})[u % B] = v
        tables.append(table)
    return tables


def reference_assoc_condition(p, mu, lam, u0):
    """tpstruct._associative from a dense n^3 scan: A_abc == A_cba for
    every a, b, c, A_abc = mu(a,b) r(c) - sum_e w_e d_e(a) d_e(b) m_e(c),
    for values {(x, y): v} of a MuMap and a LambdaMap."""
    els = p.elements
    full = {}
    for (x, y), v in mu.items():
        full[(x, y)] = full[(y, x)] = v
    m = {}
    for e, q in lam.items():
        sgn, side = poset.sign_and_vset(p, u0, e)
        m[e] = (sgn * q, {c: sum(full.get((v, c), 0) for v in side)
                          for c in els})
    r = {c: sum(full.get((c, v), 0) for v in els) for c in els}

    def A(a, b, c):
        total = full.get((a, b), 0) * r[c]
        for (x, y), (w, mc) in m.items():
            d = {x: 1, y: -1}
            total -= w * d.get(a, 0) * d.get(b, 0) * mc[c]
        return total

    return all(A(a, b, c) == A(c, b, a)
               for a in els for b in els for c in els)
