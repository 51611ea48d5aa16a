"""Half-derivations of the Lie incidence algebra.

A linear operator phi is a half-derivation when
    2 phi([f, g]) = [phi(f), g] + [f, phi(g)]
for all f, g. The module provides the sparse integer check of that
identity (which verify_tp's sweep also runs, on every left multiplication),
the three canonical constructor families (inner, central-valued,
diagonality-preserving from an admissible sigma), a brute-force nullspace
solver for the whole space, and the unique (c, sigma, kappa) decomposition
relative to a base element u0.
"""

from collections import deque
from fractions import Fraction
from math import gcd

from . import algebra
from .errors import (NotCentralInCommutator, NotHalfDerivation,
                     OwnerMismatch, ReconstructionMismatch, UnknownElement)
from .poset import pair_classes


class LinearOperator(object):
    """Exact-rational endomorphism in the canonical e_xy basis.

    columns[j] is the sparse image of basis vector j as {row index: Fraction}.
    """

    def __init__(self, owner, columns):
        self.owner = owner
        self.columns = columns

    def column(self, j):
        return algebra.IncidenceElement(self.owner, dict(self.columns[j]))

    def image_of_pair(self, pair):
        return self.column(self.owner.pair_index[pair])

    def _check_owner(self, other):
        if self.owner is not other.owner:
            raise OwnerMismatch("operators of different posets")

    def __add__(self, other):
        self._check_owner(other)
        cols = zip(self.columns, other.columns)
        return LinearOperator(self.owner,
                              [algebra.add_scaled(dict(a), b) for a, b in cols])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        k = algebra.as_rational(k)
        if not k:
            return zero_operator(self.owner)
        return LinearOperator(self.owner,
                              [{r: k * v for r, v in col.items()} for col in self.columns])

    def __eq__(self, other):
        return (isinstance(other, LinearOperator)
                and other.owner is self.owner and other.columns == self.columns)

    __hash__ = None

    def __repr__(self):
        nz = sum(1 for col in self.columns if col)
        return "LinearOperator(%d basis vectors, %d nonzero columns)" % (
            len(self.columns), nz)


def zero_operator(p):
    return LinearOperator(p, [{} for _ in p.pairs])


def operator_from_images(p, images):
    """Operator with prescribed images {basis pair: IncidenceElement}; missing pairs map to 0."""
    cols = [{} for _ in p.pairs]
    for pair, img in images.items():
        k = p.pair_index.get(pair)
        if k is None:
            raise UnknownElement("(%r, %r) is not a comparable pair" % pair)
        if img.owner is not p:
            raise OwnerMismatch("image element belongs to a different poset")
        cols[k] = dict(img.coeffs)
    return LinearOperator(p, cols)


def _pair_ends(p):
    """({x: [(y, k)]}, {y: [(x, k)]}): the basis pairs b_k = (x, y) by their
    lower and by their upper end, in basis order."""
    starts = {x: [] for x in p.elements}
    ends = {x: [] for x in p.elements}
    for k, (x, y) in enumerate(p.pairs):
        starts[x].append((y, k))
        ends[y].append((x, k))
    return starts, ends


def unit_brackets(p):
    """The nonzero Lie brackets of basis pairs, as (by_left, by_output).

    by_left[k] lists (y, out, sign) with [b_k, b_y] = sign b_out, from
    [e_ab, e_cd] = (b=c) e_ad - (d=a) e_cb: y runs over the pairs (b, d),
    then over the pairs (c, a), skipping y = k, whose two terms cancel.
    by_output[r] lists (i, j, t), i < j, with 2 [b_i, b_j] = t b_r.  Both
    take time proportional to their size.  The half-derivation kernel and
    the nullspace oracle read the one table that Poset.memo keeps.
    """
    pidx = p.pair_index
    starts, ends = _pair_ends(p)
    by_left = [tuple([(y, pidx[(a, d)], 1) for d, y in starts[b] if y != k]
                     + [(y, pidx[(c, b)], -1) for c, y in ends[a] if y != k])
               for k, (a, b) in enumerate(p.pairs)]
    by_output = [[] for _ in p.pairs]
    for i, row in enumerate(by_left):
        for j, r, sign in row:
            if i < j:
                by_output[r].append((i, j, 2 * sign))
    return by_left, by_output


def _first_halfder_failure(p, operators):
    """Least (z, x, y), x < y, with 2 L_z[b_x, b_y] != [L_z b_x, b_y] +
    [b_x, L_z b_y], or None, for integer operators {z: {x: {r: int}}} given
    by their nonzero columns L_z b_x.

    For each z the defect (left side minus right side) is accumulated per
    (x, y, output) from the nonzero terms only, read off the bracket table:
    by_output[r] for the left side, by_left[k] for the right.  The defect
    is antisymmetric in (x, y), so it is kept for x < y only.
    """
    by_left, by_output = p.memo("unit_brackets", unit_brackets)
    for z in sorted(operators):
        defect = {}
        for r, vec in operators[z].items():
            for i, j, t in by_output[r]:
                for k, v in vec.items():
                    key = (i, j, k)
                    defect[key] = defect.get(key, 0) + t * v
        for x, vec in operators[z].items():
            for k, v in vec.items():
                for y, out, sign in by_left[k]:
                    if x < y:
                        key = (x, y, out)
                        defect[key] = defect.get(key, 0) - sign * v
                    elif y < x:
                        key = (y, x, out)
                        defect[key] = defect.get(key, 0) + sign * v
        bad = [key for key, v in defect.items() if v]
        if bad:
            return (z,) + min(bad)[:2]
    return None


def is_half_derivation(op):
    """Check the defining identity on all unordered basis pairs.

    Returns (True, None) or (False, first violating pair of basis pairs)
    in canonical order.  The check is _first_halfder_failure on the columns
    cleared of denominators; the identity is homogeneous of degree 1 in
    the operator, so that keeps both the verdict and the witness.
    """
    p = op.owner
    cols = algebra.cleared({x: col for x, col in enumerate(op.columns) if col})
    failure = _first_halfder_failure(p, {0: cols})
    if failure is None:
        return True, None
    return False, (p.pairs[failure[1]], p.pairs[failure[2]])


class CentralElement(algebra.RationalMap):
    """Element of Z([I,I]): coefficients on pairs (x, y), x minimal, y maximal."""

    def _key(self, pair):
        if pair not in algebra.minmax_pair_set(self.owner):
            raise NotCentralInCommutator(
                "(%r, %r) is not a minimal-maximal pair" % pair)
        return pair

    def as_element(self):
        return algebra.element(self.owner, self.values)


class KappaMap(algebra.RationalMap):
    """Rational weight per poset element."""

    rank = "index"

    def _key(self, x):
        self.owner.index(x)
        return x


class SigmaMap(object):
    """Rational per pair class; constancy on chains and cycles is structural."""

    def __init__(self, partition, class_values):
        if len(class_values) != len(partition.classes):
            raise ValueError("need one value per pair class")
        self.owner = partition.owner
        self.partition = partition
        self.class_values = [algebra.as_rational(v) for v in class_values]

    def value(self, x, y):
        k = self.partition.class_of.get((x, y))
        if k is None:
            raise UnknownElement("(%r, %r) is not a strict pair" % (x, y))
        return self.class_values[k]

    def by_representative(self):
        """(representative pair, value) per class, canonical order."""
        return [(cls[0], self.class_values[k])
                for k, cls in enumerate(self.partition.classes)]

    def __eq__(self, other):
        return (isinstance(other, SigmaMap) and other.owner is self.owner
                and other.partition.classes == self.partition.classes
                and other.class_values == self.class_values)

    __hash__ = None


def sigma_from_map(p, raw):
    """SigmaMap from a raw {strict pair: value} map; must be constant on each class."""
    partition = pair_classes(p)
    values = []
    for cls in partition.classes:
        vals = {algebra.as_rational(raw.get(pr, 0)) for pr in cls}
        if len(vals) != 1:
            raise ValueError("map is not constant on class %s" % (cls,))
        values.append(vals.pop())
    return SigmaMap(partition, values)


def inner(c):
    """The operator [c, -] for c in Z([I,I]); kills the whole commutator subspace.

    A minimal-maximal e_xy brackets to 0 with every basis pair except e_yy,
    to e_xy, and e_xx, to -e_xy.
    """
    p = c.owner
    pidx = p.pair_index
    cols = [{} for _ in p.pairs]
    for (x, y), v in c.values.items():
        cols[pidx[(y, y)]][pidx[(x, y)]] = v
        cols[pidx[(x, x)]][pidx[(x, y)]] = -v
    return LinearOperator(p, cols)


def central_valued(kappa):
    """e_x maps to kappa(x) times the identity element; strict pairs map to 0."""
    p = kappa.owner
    ident = algebra.identity(p)
    cols = []
    for (x, y) in p.pairs:
        if x == y and kappa.value(x):
            cols.append(dict(ident.scale(kappa.value(x)).coeffs))
        else:
            cols.append({})
    return LinearOperator(p, cols)


def phi_sigma(sigma, u0):
    """The diagonality-preserving half-derivation of an admissible sigma.

    Strict pairs are scaled by sigma; diagonal images follow the walk
    formula from u0 (value 0 at u0), propagated along a breadth-first tree.
    Walk independence is exactly the admissibility of sigma.
    """
    p = sigma.owner
    p.index(u0)
    diag = {u0: {x: Fraction(0) for x in p.elements}}
    queue = deque([u0])
    while queue:
        a = queue.popleft()
        for b in p.adjacency[a]:
            if b in diag:
                continue
            lo, hi = (a, b) if p.less(a, b) else (b, a)
            step = sigma.value(lo, hi)
            row = dict(diag[a])
            row[a] -= step
            row[b] += step
            diag[b] = row
            queue.append(b)
    pidx = p.pair_index
    cols = []
    for (x, y) in p.pairs:
        if x != y:
            v = sigma.value(x, y)
            cols.append({pidx[(x, y)]: v} if v else {})
        else:
            cols.append({pidx[(v, v)]: diag[v][x]
                         for v in p.elements if diag[v][x]})
    return LinearOperator(p, cols)


class HalfDerDecomposition(object):
    """phi = inner(c) + phi_sigma(sigma, u0) + central_valued(kappa)."""

    def __init__(self, c, sigma, kappa, u0):
        self.c = c
        self.sigma = sigma
        self.kappa = kappa
        self.u0 = u0

    def reconstruct(self):
        return (inner(self.c) + phi_sigma(self.sigma, self.u0)
                + central_valued(self.kappa))


def decompose(op, u0):
    """Unique (c, sigma, kappa) with op = inner(c) + phi_sigma + central_valued.

    The parts are read off op and their rebuilt sum decides: each part is a
    half-derivation (sigma, read off one e_xy per pair class, is
    class-constant) and the identity is linear, so an op equal to the sum
    is one.  A half-derivation is such a sum, and the read-off recovers it:
    inner(c) and central_valued(kappa) vanish on strict pairs, since a
    minimal-maximal pair brackets to 0 with every strict pair, so op(e_xy)
    = sigma(x, y) e_xy.  Only a mismatch runs the kernel, for the
    NotHalfDerivation witness; a mismatch the kernel passes is a
    ReconstructionMismatch.
    """
    p = op.owner
    p.index(u0)
    pidx = p.pair_index
    partition = pair_classes(p)
    reps = [pidx[cls[0]] for cls in partition.classes]
    sigma = SigmaMap(partition, [op.columns[k].get(k, 0) for k in reps])
    c = CentralElement(p, {
        (x, y): op.columns[pidx[(y, y)]].get(pidx[(x, y)], 0)
        for x, y in algebra.minmax_pairs(p)})
    ku = pidx[(u0, u0)]
    kappa = KappaMap(p, {x: op.columns[pidx[(x, x)]].get(ku, 0)
                         for x in p.elements})
    dec = HalfDerDecomposition(c, sigma, kappa, u0)
    if dec.reconstruct() != op:
        ok, witness = is_half_derivation(op)
        if not ok:
            raise NotHalfDerivation(witness)
        raise ReconstructionMismatch("decomposition failed to rebuild the operator")
    return dec


def decomposition_report(dec):
    """JSON-shaped report; rationals as reduced strings."""
    return {
        "u0": dec.u0,
        "c": [{"from": x, "to": y, "value": str(dec.c.values[(x, y)])}
              for x, y in dec.c.support()],
        "sigma": [{"from": x, "to": y, "value": str(v)}
                  for (x, y), v in dec.sigma.by_representative()],
        "kappa": [{"element": x, "value": str(dec.kappa.values[x])}
                  for x in dec.kappa.support()],
    }


def _normalize_int_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    if g > 1:
        row = {k: v // g for k, v in row.items()}
    c = min(row)
    if row[c] < 0:
        row = {k: -v for k, v in row.items()}
    return row


def _eliminate(pivots, row):
    """Reduce an integer row against the pivot rows, in place, by row = b
    row - a prow at its least unknown c (a = row[c], b = prow[c] > 0);
    install it if nonzero.  Returns True iff it installed a pivot."""
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            pivots[c] = _normalize_int_row(row)
            return True
        a, b = row[c], prow[c]
        if b != 1:
            for k, v in row.items():
                row[k] = b * v
        algebra.add_scaled(row, prow, -a)
    return False


def _solve(p, operators, weight):
    """Basis of the common solutions of the half-derivation equations of
    the given operators, as {unknown: nonzero Fraction} vectors, one per
    free unknown, in the order of the free unknowns.

    The entry phi(b_k)_m of operator t is the unknown operators[t][k][m],
    and weight[u] is the weight of unknown u.  One linear equation per
    operator, unordered basis pair and component, built from the nonzero
    brackets of unit_brackets only, in that order.  Fraction-free
    elimination with deterministic smallest-index pivoting.

    The system is solved one weight block at a time.  I(X) is graded by
    Z^X, with deg e_xy = eps_x - eps_y, and the bracket is homogeneous, so
    the equation of (b_i, b_j) at the component b_m holds only entries
    phi(b_k)_r with deg b_r - deg b_k = deg b_m - deg b_i - deg b_j, and
    the weights give those unknowns one weight.  A row is reduced only by
    the pivot row at its least unknown, of its own weight, so each block
    gets the pivots that eliminating the whole system in the same row
    order gives.  Once a block has as many pivots as unknowns, every later
    row of its weight reduces to zero, so its terms are dropped before the
    row is built.  Back-substitution of a free unknown never leaves its
    block, since a pivot row of another weight holds none of the unknowns
    set so far.  So the pivots, the basis and its order are those of the
    whole system.
    """
    B = len(p.pairs)
    by_left, _ = p.memo("unit_brackets", unit_brackets)
    weights = {}
    block = [weights.setdefault(w, len(weights)) for w in weight]
    room = [0] * len(weights)     # unknowns minus pivots, per block
    for w in block:
        room[w] += 1
    pivots = [{} for _ in weights]
    for unknown in operators:
        for i in range(B):
            for j in range(i + 1, B):
                rows = {}
                for r, k, s in by_left[i]:
                    if r == j:  # 2 phi[b_i, b_j] = 2s phi(b_k), each m
                        for m, u in enumerate(unknown[k]):
                            if room[block[u]]:
                                row = rows.setdefault(m, {})
                                row[u] = row.get(u, 0) + 2 * s
                    u = unknown[j][r]   # [b_i, phi b_j] at phi(b_j)_r
                    if room[block[u]]:
                        row = rows.setdefault(k, {})
                        row[u] = row.get(u, 0) - s
                for r, k, s in by_left[j]:  # [phi b_i, b_j] at phi(b_i)_r
                    u = unknown[i][r]
                    if room[block[u]]:
                        row = rows.setdefault(k, {})
                        row[u] = row.get(u, 0) + s
                for k in sorted(rows):
                    row = {u: v for u, v in rows[k].items() if v}
                    if row:
                        w = block[next(iter(row))]
                        if room[w] and _eliminate(pivots[w], row):
                            room[w] -= 1
    basis, order = [], {}
    for f, w in enumerate(block):
        piv = pivots[w]
        if f in piv:
            continue
        if w not in order:
            order[w] = sorted(piv, reverse=True)
        vec = {f: Fraction(1)}
        for c in order[w]:
            row = piv[c]
            s = sum(v * vec[k] for k, v in row.items() if k != c and k in vec)
            if s:
                vec[c] = -s / row[c]
        basis.append(vec)
    return basis


def half_derivation_space(p):
    """Basis of all half-derivations, by brute-force exact nullspace.

    Unknowns are all matrix entries of a candidate operator, u = k * B + m
    for the entry phi(b_k)_m, of weight deg b_m - deg b_k; the system is
    solved by _solve, which visits every basis pair whatever the weight
    blocks, so the work grows with all B**2 unknowns; `lietp halfder
    --oracle` limits their number.  The weights are kept as integers: eps_x
    is 8**index(x), and a weight's coefficients lie in [-2, 2], so distinct
    weights stay distinct.
    """
    B = len(p.pairs)
    deg = [8 ** p.index(x) - 8 ** p.index(y) for x, y in p.pairs]
    ops = []
    for vec in _solve(p, [[range(k * B, k * B + B) for k in range(B)]],
                      [dm - dk for dk in deg for dm in deg]):
        cols = [{} for _ in range(B)]
        for u, v in vec.items():
            cols[u // B][u % B] = v
        ops.append(LinearOperator(p, cols))
    return ops
