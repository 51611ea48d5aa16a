"""Exact-rational incidence algebra I(X,K) of a finite connected poset.

Elements are sparse vectors over the basis {e_xy : x <= y} in canonical
pair order; coefficients are Fractions and zeros are never stored, so
equality is structural equality.
"""

import numbers
from fractions import Fraction
from math import lcm

from .errors import OwnerMismatch, ParseError, UnknownElement


def as_rational(v):
    """v as a Fraction, from a Rational such as an int, or a "p/q" string.

    Floats are refused because they are not exact, and booleans because a
    JSON true is not a number.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool) or not isinstance(v, (numbers.Rational, str)):
        raise ParseError("rational values must be integers or 'p/q' strings, "
                         "got %r" % (v,))
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational value %r: %s" % (v, exc))


def add_scaled(acc, vec, c=1):
    """acc += c * vec in place, for sparse {index: value} dicts; returns acc.

    An entry that cancels to exactly 0 is deleted, so acc stores no zero
    as long as vec stores none and c != 0.
    """
    scaled = c != 1
    for k, v in vec.items():
        if scaled:
            v = c * v
        old = acc.get(k)
        if old is None:
            acc[k] = v
            continue
        v += old
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc


def cleared(vectors):
    """{key: {r: int}}: the sparse vectors {key: {r: Fraction}} times the
    lcm of all their denominators, one positive constant for all of them."""
    scale = lcm(*(v.denominator for vec in vectors.values()
                  for v in vec.values()))
    return {key: {r: v.numerator * (scale // v.denominator)
                  for r, v in vec.items()}
            for key, vec in vectors.items()}


class RationalMap(object):
    """Exact rational values on validated keys; zeros are never stored.

    A subclass gives its key rule as _key(key), which raises the class's
    own error on a bad key and returns the key as stored.  Values are read
    through as_rational.  A rule that stores two given keys as one (MuMap's
    symmetric pairs) names in `clash` the error for values that differ.
    support() orders keys by the owner's method named in `rank`.
    """

    rank = "pair_key"

    def __init__(self, owner, values):
        self.owner = owner
        clean = {}
        for key, v in values.items():
            k, v = self._key(key), as_rational(v)
            old = clean.setdefault(k, v)
            if old is not v and old != v:
                raise ValueError(self.clash % key)
        self.values = {k: v for k, v in clean.items() if v}

    def value(self, *key):
        """The value at a key (an element or a pair), 0 where none is stored."""
        return self.values.get(key if len(key) > 1 else key[0], Fraction(0))

    def support(self):
        """The keys with a nonzero value, in canonical order."""
        return sorted(self.values, key=getattr(self.owner, self.rank))

    def __eq__(self, other):
        return (type(other) is type(self) and other.owner is self.owner
                and other.values == self.values)

    __hash__ = None


class IncidenceElement(object):

    def __init__(self, owner, coeffs):
        # internal: coeffs is {pair index: nonzero Fraction}, already canonical
        self.owner = owner
        self.coeffs = coeffs

    def coeff(self, x, y):
        k = self.owner.pair_index.get((x, y))
        if k is None:
            self.owner.index(x), self.owner.index(y)
            raise UnknownElement("(%r, %r) is not a comparable pair" % (x, y))
        return self.coeffs.get(k, Fraction(0))

    def items(self):
        """(pair, coefficient) in canonical order."""
        pairs = self.owner.pairs
        for k in sorted(self.coeffs):
            yield pairs[k], self.coeffs[k]

    def is_zero(self):
        return not self.coeffs

    def _check_owner(self, other):
        if self.owner is not other.owner:
            raise OwnerMismatch("elements of different posets")

    def __add__(self, other):
        self._check_owner(other)
        return IncidenceElement(self.owner,
                                add_scaled(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IncidenceElement(self.owner, {k: -c for k, c in self.coeffs.items()})

    def scale(self, k):
        k = as_rational(k)
        if not k:
            return IncidenceElement(self.owner, {})
        return IncidenceElement(self.owner, {i: k * c for i, c in self.coeffs.items()})

    def __mul__(self, k):
        if isinstance(k, IncidenceElement):
            raise TypeError("use multiply() for the algebra product")
        return self.scale(k)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, IncidenceElement)
                and other.owner is self.owner and other.coeffs == self.coeffs)

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "<0>"
        terms = []
        for (x, y), c in self.items():
            name = "e_%s" % (x,) if x == y else "e_%s.%s" % (x, y)
            terms.append(name if c == 1 else "%s*%s" % (c, name))
        return "<" + " + ".join(terms) + ">"


def element(p, mapping):
    """Element with the given {(x, y): value} coefficients."""
    coeffs = {}
    for (x, y), v in mapping.items():
        k = p.pair_index.get((x, y))
        if k is None:
            p.index(x), p.index(y)
            raise UnknownElement("(%r, %r) is not a comparable pair" % (x, y))
        v = as_rational(v)
        if v:
            coeffs[k] = v
    return IncidenceElement(p, coeffs)


def zero(p):
    return IncidenceElement(p, {})


def unit(p, x, y):
    """Basis element e_xy."""
    return element(p, {(x, y): 1})


def diag_unit(p, x):
    return element(p, {(x, x): 1})


def identity(p):
    """The multiplicative identity, the sum of all e_x."""
    return element(p, {(x, x): 1 for x in p.elements})


def multiply(f, g):
    """Associative product: (fg)(x,y) = sum over x<=z<=y of f(x,z)g(z,y)."""
    f._check_owner(g)
    p = f.owner
    pairs = p.pairs
    by_start = {}
    for k, c in g.coeffs.items():
        z, y = pairs[k]
        by_start.setdefault(z, []).append((y, c))
    res = {}
    for k, c in f.coeffs.items():
        x, z = pairs[k]
        for y, c2 in by_start.get(z, ()):
            i = p.pair_index[(x, y)]
            s = res.get(i, 0) + c * c2
            if s:
                res[i] = s
            else:
                del res[i]
    return IncidenceElement(p, res)


def commutator(f, g):
    return multiply(f, g) - multiply(g, f)


def minmax_pairs(p):
    """Strict pairs (x, y) with x minimal and y maximal, canonical order."""
    mins, maxs = set(p._mins), set(p._maxs)
    return [(x, y) for x, y in p.strict_pairs if x in mins and y in maxs]


def minmax_pair_set(p):
    """The minimal-maximal pairs as a frozenset, computed once per poset."""
    return p.memo("minmax_pairs", lambda q: frozenset(minmax_pairs(q)))


def to_records(f):
    """JSON-shaped serialization; bit-exact round trip with from_records."""
    return [{"from": x, "to": y,
             "numerator": c.numerator, "denominator": c.denominator}
            for (x, y), c in f.items()]


def from_records(p, records):
    coeffs = {}
    for rec in records:
        num, den = rec["numerator"], rec["denominator"]
        if any(isinstance(v, bool) or not isinstance(v, numbers.Rational)
               for v in (num, den)) or not den:
            raise ParseError("record %r needs an integer numerator and a "
                             "nonzero integer denominator" % (rec,))
        key = (rec["from"], rec["to"])
        if key in coeffs:
            raise ParseError("record %r repeats the pair (%r, %r)"
                             % ((rec,) + key))
        coeffs[key] = Fraction(num, den)
    return element(p, coeffs)
