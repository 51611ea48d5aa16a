"""Transposed Poisson structures on the Lie incidence algebra.

A transposed Poisson structure is a commutative associative product that
satisfies 2 z.[f,g] = [z.f, g] + [f, z.g]. Three constructor families
(Poisson type from mu, mutational from nu, lambda-structure from an
extreme-pair weight), an axiom verifier, the (mu, nu, lambda) decomposer,
and nu-normalization by a diagonal basis rescaling.
"""

import random
from fractions import Fraction

from . import algebra, halfder
from .errors import (NotTransposedPoisson, OwnerMismatch, ParseError,
                     ReconstructionMismatch, UnknownElement)
from .poset import bridge_side, extreme_pairs, is_extreme_pair, sign_and_vset

NuElement = halfder.CentralElement


def _table_key(i, j):
    """Key of the product of basis vectors i and j in a table: (min, max)."""
    return (i, j) if i <= j else (j, i)


class TPProduct(object):
    """Commutative product table on the e_xy basis.

    table maps (i, j) with i <= j (basis indices) to the nonzero product
    of basis vectors i and j; symmetry is structural.
    """

    def __init__(self, owner, table):
        self.owner = owner
        self.table = table

    def is_zero(self):
        return not self.table

    def entries(self):
        """((pair, pair), element) rows in canonical order."""
        pairs = self.owner.pairs
        for (i, j) in sorted(self.table):
            yield (pairs[i], pairs[j]), self.table[(i, j)]

    def __add__(self, other):
        return sum_products(self, other)

    def __eq__(self, other):
        return (isinstance(other, TPProduct)
                and other.owner is self.owner and other.table == self.table)

    __hash__ = None

    def __repr__(self):
        return "TPProduct(%d nonzero products)" % len(self.table)


def tp_from_table(p, entries):
    """TPProduct from {(pair, pair): element-like}; reversed duplicate keys
    must agree, zero products are dropped."""
    table = {}
    for (pr1, pr2), val in entries.items():
        i = p.pair_index.get(pr1)
        j = p.pair_index.get(pr2)
        if i is None or j is None:
            raise KeyError("product key is not a pair of comparable pairs")
        if not isinstance(val, algebra.IncidenceElement):
            val = algebra.element(p, val)
        if val.owner is not p:
            raise OwnerMismatch("product entry belongs to a different poset")
        if table.setdefault(_table_key(i, j), val) != val:
            raise ValueError("conflicting values for a product and its transpose")
    return TPProduct(p, {key: val for key, val in table.items()
                         if not val.is_zero()})


def _accumulate(entries, key, coeffs):
    """Add the nonzero coefficients {r: v} into entries[key]."""
    acc = entries.get(key)
    if acc is None:
        entries[key] = dict(coeffs)
    else:
        algebra.add_scaled(acc, coeffs)


def _build(p, entries):
    table = {}
    for key, coeffs in entries.items():
        if coeffs:
            table[key] = algebra.IncidenceElement(p, coeffs)
    return TPProduct(p, table)


class MuMap(algebra.RationalMap):
    """Symmetric rational function on X x X: one value per unordered pair,
    spelled either way round.

    It is judged only jointly with lambda, by the certificate in verify_tp
    (see _associative): the mu read off a transposed Poisson table next to
    a nonzero lambda need not pass the lambda = 0 condition on its own, as
    moving the base point across an extreme bridge shifts mu by a
    zero-row-sum term.
    """

    clash = "mu given asymmetric values at (%r, %r)"

    def _key(self, pair):
        x, y = pair
        return (x, y) if self.owner.index(x) <= self.owner.index(y) else (y, x)

    def value(self, x, y):
        return self.values.get(self._key((x, y)), Fraction(0))


def _associative(p, mu, lam, u0):
    """True iff poisson_type(mu) + lambda_structure(lam, u0), plus any
    mutational part, is associative: A_abc = A_cba for all a, b, c (see
    verify_tp), for values {(x, y): v} with one key per symmetric pair of
    mu.  With lam empty, u0 is not read, and the condition is the
    Poisson-type condition mu(x,y) r(z) = mu(y,z) r(x), r the row sums of
    mu: r is identically 0 or every column of mu is a multiple of r.

    Fix the middle index b.  Unless b is an end of an extreme pair in lam's
    support, the condition reads mu(a,b) r(c) = mu(c,b) r(a) for all a, c:
    the column mu(., b) is a multiple of r.  When r != 0 and x0 has r(x0)
    != 0, that column is mu(x0,b) r / r(x0), so its nonzero entries lie
    exactly where r's do, or there are none; this is checked over mu's
    nonzero values, in O(n + |mu|).  At each of the at most 2 |lam| end
    columns b, A_abc is summed sparsely over (a, c) and checked symmetric.
    A is homogeneous of degree 2 in (mu, lam), so the values may be scaled
    by any positive constant.
    """
    rows, cols = {}, {}
    for (x, y), v in mu.items():
        rows[x] = rows.get(x, 0) + v
        cols.setdefault(y, {})[x] = v
        if x != y:
            rows[y] = rows.get(y, 0) + v
            cols.setdefault(x, {})[y] = v
    if not cols:
        return True
    r = {x: v for x, v in rows.items() if v}
    ends = {x for pair in lam for x in pair}
    if r:
        x0, r0 = next(iter(r.items()))
        for b, col in cols.items():
            c = col.get(x0)
            if b not in ends and (c is None or len(col) != len(r) or any(
                    v * r0 != c * r.get(a, 0) for a, v in col.items())):
                return False
    if not ends:
        return True
    A = {b: {(a, c): v * rc for a, v in cols.get(b, {}).items()
             for c, rc in r.items()} for b in ends}
    for (x, y), q in lam.items():
        sgn, side = bridge_side(p, u0, (x, y))
        m = {}
        for v in side:
            algebra.add_scaled(m, cols.get(v, {}))
        for b in (x, y):        # w_e d_e(a) d_e(b) is sgn q if a == b
            for a in (x, y):
                w = sgn * q if a == b else -sgn * q
                for c, mc in m.items():
                    A[b][(a, c)] = A[b].get((a, c), 0) - w * mc
    return all(v == Ab.get((c, a), 0)
               for Ab in A.values() for (a, c), v in Ab.items())


# The _*_entries functions add a family's products, from its values
# {key: v}, into entries {(i, j): {r: v}}; the values may be Fractions or
# the integers of a table cleared of denominators.

def _poisson_entries(p, values, entries):
    pidx = p.pair_index
    diagonal = [pidx[(x, x)] for x in p.elements]
    for (x, y), v in values.items():
        _accumulate(entries, _table_key(pidx[(x, x)], pidx[(y, y)]),
                    dict.fromkeys(diagonal, v))


def poisson_type(mu):
    """e_x . e_y = mu(x,y) delta; strict basis vectors annihilate everything."""
    entries = {}
    _poisson_entries(mu.owner, mu.values, entries)
    return _build(mu.owner, entries)


def _mutational_entries(p, values, entries):
    pidx = p.pair_index
    for (x, y), v in values.items():
        kxy = pidx[(x, y)]
        dx, dy = pidx[(x, x)], pidx[(y, y)]
        _accumulate(entries, _table_key(dx, dy), {kxy: v})
        _accumulate(entries, (dx, dx), {kxy: -v})
        _accumulate(entries, (dy, dy), {kxy: -v})


def mutational(nu):
    """The product e_x . e_y = [[e_x, nu], e_y] written out per basis pair:
    nu(x,y) e_xy on a minimal-maximal pair, the negated row and column sums
    on the diagonal, zero elsewhere."""
    entries = {}
    _mutational_entries(nu.owner, nu.values, entries)
    return _build(nu.owner, entries)


class LambdaMap(algebra.RationalMap):
    """Rational weight on the extreme pairs, total with default 0."""

    def _key(self, pair):
        if not is_extreme_pair(self.owner, pair):
            raise ValueError("(%r, %r) is not an extreme pair" % tuple(pair))
        return pair


def _lambda_entries(p, values, u0, entries):
    pidx = p.pair_index
    p.index(u0)     # an unknown u0 raises with no weights too
    for (x, y), q in values.items():
        sgn, far = bridge_side(p, u0, (x, y))
        side = [pidx[(v, v)] for v in far]
        kxy = pidx[(x, y)]
        dx, dy = pidx[(x, x)], pidx[(y, y)]
        _accumulate(entries, _table_key(dx, kxy), {kxy: q})
        _accumulate(entries, _table_key(dy, kxy), {kxy: -q})
        _accumulate(entries, _table_key(dx, dy), dict.fromkeys(side, sgn * q))
        away = dict.fromkeys(side, -sgn * q)
        _accumulate(entries, (dx, dx), away)
        _accumulate(entries, (dy, dy), away)


def lambda_structure(lam, u0):
    """The lambda-structure based at u0.

    For each extreme pair (x, y) with weight q and side set V (the component
    of the cut bridge not containing u0, sign positive when u0 sits on the
    x side): e_x.e_xy = q e_xy, e_y.e_xy = -q e_xy, e_x.e_y = sgn q e_V,
    and -sgn q e_V is added to both e_x.e_x and e_y.e_y.
    """
    entries = {}
    _lambda_entries(lam.owner, lam.values, u0, entries)
    return _build(lam.owner, entries)


def sum_products(a, b):
    if a.owner is not b.owner:
        raise OwnerMismatch("products over different posets")
    entries = {}
    for key, elem in a.table.items():
        _accumulate(entries, key, elem.coeffs)
    for key, elem in b.table.items():
        _accumulate(entries, key, elem.coeffs)
    return _build(a.owner, entries)


def _first_assoc_failure(table, rows):
    """Least (a, b, c) with (b_a b_b) b_c != b_a (b_b b_c), or None, for a
    table {(i, j): {r: int}}, i <= j, and its rows (see _rows).

    Both sides vanish unless b_a . b_b or b_b . b_c is in the table, so for
    each a the difference is accumulated per (b, c) from the nonzero terms
    only: (b_a b_b) b_c = sum_r (b_a b_b)_r b_r b_c and b_a (b_b b_c) =
    sum_s (b_b b_c)_s b_a b_s.  Each product is packed into one integer with
    a slot of `width` bits per output basis vector, so one term costs one
    integer operation.  Every output coefficient of the difference is at most
    2 * norm**2 in absolute value, below 2**(width - 1), so a packed
    difference is zero exactly when each of its slots is.

    The set-up reads the norm bound, which fixes the width, and then makes
    one pass over the table's products: it numbers the output slots in
    order of first sight, packs each product once, files it under both
    orders, and lists the holders (b, c, coefficient) of each output.  The
    zero test reads every slot on its own, so the order of the slots does
    not matter.
    """
    norm = max((sum(map(abs, vec.values())) for vec in table.values()),
               default=0)
    width = (2 * norm * norm).bit_length() + 1
    slot, packed, holders = {}, {}, {}
    for (b, c), vec in table.items():
        bc = 0
        for s, u in vec.items():
            bc += u << (width * slot.setdefault(s, len(slot)))
            held = holders.setdefault(s, [])
            held.append((b, c, u))
            if b != c:
                held.append((c, b, u))
        packed.setdefault(b, {})[c] = bc
        packed.setdefault(c, {})[b] = bc
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


def _rows(table):
    """The products of a table {(i, j): vec}, i <= j, as rows: rows[i][j]
    is the product b_i . b_j, stored under both orders."""
    rows = {}
    for (i, j), vec in table.items():
        rows.setdefault(i, {})[j] = vec
        rows.setdefault(j, {})[i] = vec
    return rows


def _sweep(p, table):
    """The axiom report from the sweeps of every triple over the table
    cleared of denominators and its rows (see _rows).  The transposed
    Leibniz rule says that every left multiplication, rows[z] as an
    operator, is a half-derivation.

    Scaling every product by one positive constant keeps both axioms'
    verdicts and witnesses: associativity is homogeneous of degree 2 in the
    table and the transposed Leibniz rule of degree 1.
    """
    rows = _rows(table)
    report = {"associative": True, "transposed_leibniz": True, "witness": None}
    for check, triple in (("associative", _first_assoc_failure(table, rows)),
                          ("transposed_leibniz",
                           halfder._first_halfder_failure(p, rows))):
        if triple is not None:
            report[check] = False
            if report["witness"] is None:
                report["witness"] = {"check": check, "triple":
                                     tuple(p.pairs[i] for i in triple)}
    return report


def verify_tp(prod):
    """Complete, exact axiom report for a commutative product table.

    The report is {"associative", "transposed_leibniz", "witness"}; the
    witness is None or the least failing triple of basis pairs in canonical
    order, associativity first.  Commutativity holds by construction (see
    tp_from_table).  Two paths give the same report:

    - Certificate (_certified at the first element u): the table equals
      poisson_type(mu) + mutational(nu) + lambda_structure(lam, u) for the
      (mu, nu, lam) read off it, and (mu, lam) pass the condition on A
      below (_associative).  That proves both axioms, so the all-pass
      report is returned after one pass over the table and one rebuild of
      it, with no sweep.  This joint condition is the only judge of mu: a
      mu that fails it with lambda = 0 can still sit next to a nonzero
      lambda in a transposed Poisson table.
    - Sweep: otherwise the table is not transposed Poisson (see below), and
      associativity and the transposed Leibniz rule 2 z.[x,y] = [z.x, y] +
      [x, z.y] are checked on every basis triple to find the witness, in
      integer arithmetic after clearing denominators, skipping without
      enumerating the triples on which both sides vanish.

    Why the certificate is sound.  Write D_ab f = f_aa - f_bb, f_ab for the
    e_ab coefficient and f_a = f_aa.  In closed form the three families are
      P(f, g) = (sum_ab mu(a,b) f_a g_b) delta,  delta the identity,
      M(f, g) = -sum_ab nu(a,b) D_ab f D_ab g e_ab  over min-max pairs,
      L(f, g) = sum_e q_e (-s_e D_e f D_e g e_V(e)
                           + (D_e f g_e + D_e g f_e) e_e)
    over extreme pairs e with weight q_e, sign s_e and side set V(e).  Two
    facts carry the argument: D kills delta and every strict element, and
    a comparable pair (a, b) whose ends lie on two sides of an extreme
    bridge e is e itself (a chain from a to b must cross the bridge, whose
    ends are minimal and maximal), so D_ab e_V(e) is -s_e if (a, b) = e
    and 0 otherwise.
    - The transposed Leibniz rule is linear in the product, and each family
      satisfies it: P's values are central and P kills the strict
      commutators; M and L check out term by term from the forms above
      (the paper's structure theorem, arXiv 2309.00332, has the three
      families as transposed Poisson structures).
    - Associativity: (f.g).h - f.(g.h) for a sum of products is the sum of
      that expression over every ordered pair (F, G) of families, F applied
      outermost.  M with itself vanishes, as M's values are strict.  L
      with itself is sum_e q_e^2 (-s_e D_e f D_e g D_e h e_V(e) + (D_e f
      D_e g h_e + D_e g D_e h f_e + D_e h D_e f g_e) e_e), symmetric in f,
      g, h.
    - P and M are orthogonal: M kills delta and P kills M's strict values.
    - M and L are not orthogonal (test_lambda_plus_mutational_sums), but
      their cross terms cancel.  L(M(f,g), h) = -sum_e q_e nu_e D_e f D_e g
      D_e h e_e is symmetric in f, g, h, so it cancels against
      L(f, M(g,h)); and M(L(f,g), h) - M(f, L(g,h)) is a sum over min-max
      pairs (a, b) and extreme pairs e of terms with the factor D_ab e_V(e),
      nonzero only for (a, b) = e, where the remaining factor
      D_e f D_e g D_e h - D_e f D_e g D_e h is 0.
    - So only the P.P and P.L terms are left, all multiples of delta, as L
      kills delta.  Let r be mu's row sums, d_e = 1_x - 1_y for e = (x, y),
      w_e = q_e s_e and m_e(c) = sum_{v in V(e)} mu(v,c).  P(P(f,g), h) =
      sum_abc mu(a,b) r_c f_a g_b h_c delta; the diagonal part of L(f, g)
      is -sum_e w_e D_e f D_e g e_V(e), and P(e_V(e), h) = sum_c m_e(c) h_c
      delta.  So with A_abc = mu(a,b) r_c - sum_e w_e d_e(a) d_e(b) m_e(c)
      these terms sum to sum_abc (A_abc - A_cba) f_a g_b h_c delta, and the
      sum of the families is associative exactly when A_abc = A_cba.
    nu is read on min-max pairs and lam on extreme pairs only, and the
    exact comparison with the table makes the read-off itself carry no
    assumption.  The certificate runs on the table cleared of denominators
    (see algebra.cleared): a positive multiple of a sum of the three
    families is the sum of the same multiples, and A is homogeneous.

    Why a rejected certificate proves that a table is not transposed
    Poisson.  By the paper's second theorem such a table is a sum of the
    three families at some base point, mu any symmetric function (the
    brute-force oracle in the tests finds exactly that span of products
    with the transposed Leibniz rule on every poset of up to 5 elements
    and random ones of up to 8).  Moving the base point across an extreme
    bridge shifts mu by a zero-row-sum term, so it is such a sum at u too,
    and the read-off at u is exact: it rebuilds, and as the table is
    associative, A_abc = A_cba.
    """
    p = prod.owner
    table = algebra.cleared(
        {key: elem.coeffs for key, elem in prod.table.items()})
    if _certified(p, table, p.elements[0]):
        return {"associative": True, "transposed_leibniz": True,
                "witness": None}
    return _sweep(p, table)


def tp_passes(report):
    return report["associative"] and report["transposed_leibniz"]


class TPDecomposition(object):
    """prod = poisson_type(mu) + mutational(nu) + lambda_structure(lam, u0)."""

    def __init__(self, mu, nu, lam, u0):
        self.mu = mu
        self.nu = nu
        self.lam = lam
        self.u0 = u0

    def reconstruct(self):
        """The three families summed into one table in a single pass."""
        p = self.mu.owner
        if self.nu.owner is not p or self.lam.owner is not p:
            raise OwnerMismatch("products over different posets")
        return _build(p, _family_entries(p, self.mu.values, self.nu.values,
                                         self.lam.values, self.u0))


def _family_entries(p, mu, nu, lam, u0):
    """The three families, from their values, summed into one entries dict."""
    entries = {}
    _poisson_entries(p, mu, entries)
    _mutational_entries(p, nu, entries)
    _lambda_entries(p, lam, u0, entries)
    return entries


def _read_off(p, table, u0):
    """(mu, nu, lambda) values read off a table {(i, j): {r: v}} at base
    point u0, in one pass over its keys, or None if the table has a
    product of a shape that no sum of the three families gives it.

    e_x . e_y has outputs on the diagonal (Poisson type, lambda) and on the
    strict pair between x and y (mutational), e_x . e_x also on strict
    pairs with an end at x (mutational), and e_x . e_xy or e_y . e_xy, for
    an extreme pair (x, y), on e_xy only (lambda); every other product of
    basis vectors is 0.

    lambda(x,y) is the e_xy coefficient of e_x . e_xy on extreme pairs,
    nu(x,y) the e_xy coefficient of e_x . e_y on minimal-maximal pairs, and
    mu(x,y) the (u0,u0) coefficient of e_x . e_y.  A lambda structure based
    at u0 contributes nothing at (u0,u0), so for a table in the span of the
    three families at u0 the read-off is exact.
    """
    pairs = p.pairs
    du = p.pair_index[(u0, u0)]
    minmax = algebra.minmax_pair_set(p)
    mu, nu, lam = {}, {}, {}
    for (i, j), coeffs in table.items():
        (a, b), (c, d) = pairs[i], pairs[j]
        if a == b and c == d:
            for r in coeffs:
                x, y = pairs[r]
                if x == y:
                    continue
                if not ((x == a or y == a) if a == c
                        else x in (a, c) and y in (a, c)):
                    return None
                if a != c and (x, y) in minmax:     # the pair joining a, c
                    nu[(x, y)] = coeffs[r]
            v = coeffs.get(du)
            if v:
                mu[(a, c)] = v
        elif a == b or c == d:
            w, k = (a, j) if a == b else (c, i)
            pair = pairs[k]
            if (w not in pair or len(coeffs) != 1 or k not in coeffs
                    or not is_extreme_pair(p, pair)):
                return None
            if w == pair[0]:
                lam[pair] = coeffs[k]
        else:
            return None
    return mu, nu, lam


def _rebuilds(p, table, parts, u0):
    """True iff the three families with values parts = (mu, nu, lam) sum to
    the table {(i, j): {r: v}}, compared key by key."""
    entries = _family_entries(p, *parts, u0)
    return {key: c for key, c in entries.items() if c} == table


def _certified(p, table, u0):
    """True iff the certificate at u0 proves the table, cleared of
    denominators, transposed Poisson; False proves that it is not (see
    verify_tp).  The steps run cheapest first: the read-off with its shape
    check, the condition on (mu, lambda), the rebuild."""
    parts = _read_off(p, table, u0)
    return (parts is not None and _associative(p, parts[0], parts[2], u0)
            and _rebuilds(p, table, parts, u0))


def decompose_tp(prod, u0):
    """Read (mu, nu, lambda) off a transposed Poisson product at u0 (see
    _read_off) and rebuild it exactly.

    The certificate at u0 (see verify_tp) decides: it proves the table
    transposed Poisson and rebuilds it in one pass, or proves that it is
    not, and then NotTransposedPoisson carries the sweep's report, the one
    verify_tp gives.  The mu read off is judged jointly with the lambda
    read off, not on its own (see MuMap).  The values returned are the
    table's own coefficients.
    """
    p = prod.owner
    p.index(u0)
    coeffs = {key: elem.coeffs for key, elem in prod.table.items()}
    table = algebra.cleared(coeffs)
    if not _certified(p, table, u0):
        report = _sweep(p, table)
        if tp_passes(report):   # never, if the certificate is complete
            raise ReconstructionMismatch("the sweep passes a table that "
                                         "the certificate rejects")
        raise NotTransposedPoisson(report)
    mu, nu, lam = _read_off(p, coeffs, u0)
    return TPDecomposition(MuMap(p, mu), NuElement(p, nu),
                           LambdaMap(p, lam), u0)


def normalize_nu(dec):
    """Rescale e_xy by 1/nu(x,y) wherever nu is nonzero.

    Returns the decomposition with indicator-valued nu (mu and lambda are
    untouched) and the automorphism as {pair: scale factor on e_xy}.
    """
    p = dec.mu.owner
    scales = {pair: 1 / v for pair, v in dec.nu.values.items()}
    nu_new = NuElement(p, {pair: Fraction(1) for pair in dec.nu.values})
    return TPDecomposition(dec.mu, nu_new, dec.lam, dec.u0), scales


def transport_product(prod, scales):
    """Push a product through the diagonal automorphism e_k -> s_k e_k.

    Products that involve no rescaled basis vector, as a factor or in their
    value, are carried over as they are.
    """
    p = prod.owner
    s = {}
    for pair, v in scales.items():
        v = algebra.as_rational(v)
        if not v:
            raise ParseError("scale factor for %r is 0, which is not an "
                             "automorphism" % (pair,))
        k = p.pair_index.get(pair)
        if k is None:
            raise UnknownElement("%r is not a comparable pair" % (pair,))
        s[k] = v
    one = Fraction(1)
    table = {}
    for (i, j), elem in prod.table.items():
        if i in s or j in s:
            factor = 1 / (s.get(i, one) * s.get(j, one))
        elif s.keys().isdisjoint(elem.coeffs):
            table[(i, j)] = elem
            continue
        else:
            factor = None
        coeffs = {}
        for r, v in elem.coeffs.items():
            if factor is not None:
                v *= factor
            if r in s:
                v *= s[r]
            if v:
                coeffs[r] = v
        if coeffs:
            table[(i, j)] = algebra.IncidenceElement(p, coeffs)
    return TPProduct(p, table)


def _random_rational(rng, allow_zero=True):
    num = rng.randint(-3, 3)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-3, 3)
    return Fraction(num, rng.randint(1, 3))


def random_mu(p, rng, side_sets=()):
    """Random mu, zero or from the rank-one or the zero-row-sum family; each
    passes the Poisson-type condition (_associative with lambda = 0).

    A lambda-structure and a Poisson-type structure sum to something
    associative when every product e_V . e_z of a side-set idempotent
    vanishes, i.e. sum_{v in V} mu(v, z) = 0 for each side set V and all z
    (sufficient, not necessary: see _associative).  Passing the side sets
    of the lambda part restricts the draw to such mu, so that (mu, lambda)
    pass the joint condition:
    rank-one vectors vanish on the union of the side sets, and zero-row-sum
    generator pairs are taken within one signature class (elements lying in
    exactly the same side sets).
    """
    kind = rng.randrange(3)
    vals = {}
    if kind == 1:
        blocked = set()
        for vset in side_sets:
            blocked.update(vset)
        a = {x: Fraction(0) if x in blocked else _random_rational(rng)
             for x in p.elements}
        for i, x in enumerate(p.elements):
            for y in p.elements[i:]:
                vals[(x, y)] = a[x] * a[y]
    elif kind == 2:
        classes = {}
        for x in p.elements:
            classes.setdefault(tuple(x in v for v in side_sets), []).append(x)
        pools = [c for _, c in sorted(classes.items()) if len(c) >= 2]
        if pools:
            for _ in range(rng.randint(1, 3)):
                x, y = rng.sample(pools[rng.randrange(len(pools))], 2)
                c = _random_rational(rng, allow_zero=False)
                for (u, w), d in (((x, x), c), ((y, y), c), ((x, y), -c)):
                    key = (u, w) if p.index(u) <= p.index(w) else (w, u)
                    vals[key] = vals.get(key, Fraction(0)) + d
    return MuMap(p, vals)


def random_tp_components(p, seed):
    """Deterministic (mu, nu, lambda, u0) from the seed; u0 is the first element.

    lambda is drawn first so that mu can be conditioned on its side sets,
    which keeps the three-family sum associative.
    """
    rng = random.Random(seed)
    u0 = p.elements[0]
    lam_vals = {pr: _random_rational(rng)
                for pr in extreme_pairs(p) if rng.random() < 0.7}
    lam = LambdaMap(p, lam_vals)
    nu_vals = {pr: _random_rational(rng)
               for pr in algebra.minmax_pairs(p) if rng.random() < 0.7}
    sides = [sign_and_vset(p, u0, pr)[1] for pr in lam.support()]
    mu = random_mu(p, rng, sides)
    return mu, NuElement(p, nu_vals), lam, u0
