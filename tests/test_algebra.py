import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (apply, chain, full_catalog, random_element,
                     tp_product, walk_between, walk_functionals)
from lietp.algebra import (add_scaled, commutator, diag_unit, element,
                           from_records, identity, minmax_pairs, multiply,
                           to_records, unit, zero)
from lietp.errors import (NotCentralInCommutator, OwnerMismatch, ParseError,
                          UnknownElement)
from lietp.halfder import (CentralElement, KappaMap, SigmaMap,
                           operator_from_images, phi_sigma, sigma_from_map,
                           zero_operator)
from lietp.poset import build_poset, pair_classes
from lietp.tpstruct import (LambdaMap, MuMap, NuElement, mutational,
                            tp_from_table, transport_product)

CATALOG = full_catalog()


def test_unit_multiplication_rule(chain3):
    e12 = unit(chain3, "1", "2")
    e23 = unit(chain3, "2", "3")
    assert multiply(e12, e23) == unit(chain3, "1", "3")
    assert multiply(e23, e12).is_zero()
    assert multiply(e12, e12).is_zero()
    d2 = diag_unit(chain3, "2")
    assert multiply(e12, d2) == e12
    assert multiply(d2, e12).is_zero()


def test_identity_is_two_sided(vee):
    d = identity(vee)
    f = element(vee, {("1", "2"): Fraction(3, 7), ("1", "1"): -2,
                      ("1", "3"): 1})
    assert multiply(d, f) == f
    assert multiply(f, d) == f
    assert commutator(d, f).is_zero()


def test_element_constructors_reject_bad_pairs(chain3):
    with pytest.raises(UnknownElement):
        element(chain3, {("3", "1"): 1})
    with pytest.raises(UnknownElement):
        unit(chain3, "1", "9")


def test_element_arithmetic(chain3):
    f = unit(chain3, "1", "2")
    g = unit(chain3, "1", "3")
    h = f + g.scale(2) - f
    assert h == g * 2 == 2 * g
    assert (f - f).is_zero()
    assert (-f).coeff("1", "2") == -1
    assert zero(chain3).is_zero()


def test_owner_mismatch(chain3, vee):
    f = unit(chain3, "1", "2")
    g = unit(vee, "1", "2")
    with pytest.raises(OwnerMismatch):
        f + g
    with pytest.raises(OwnerMismatch):
        multiply(f, g)


def test_minmax_pairs_frozen(chain2, chain5, vee, zigzag, crown, branch4):
    assert minmax_pairs(chain2) == [("1", "2")]
    assert minmax_pairs(chain5) == [("1", "5")]
    assert minmax_pairs(vee) == [("1", "2"), ("1", "3")]
    assert minmax_pairs(zigzag) == [("1", "3"), ("2", "3"), ("2", "4")]
    assert minmax_pairs(crown) == [("1", "3"), ("1", "4"), ("2", "3"),
                                   ("2", "4")]
    assert minmax_pairs(branch4) == [("1", "3"), ("1", "4")]


def test_zigzag_minmax_includes_incomparable_extremes(zigzag):
    # (1, 4) is NOT a comparable pair in the zigzag, so it is absent
    assert ("1", "4") not in zigzag.pair_index
    assert ("1", "4") not in minmax_pairs(zigzag)


def test_records_round_trip(twochains):
    f = element(twochains, {("1", "4"): Fraction(-3, 7), ("2", "2"): 5})
    recs = to_records(f)
    assert from_records(twochains, recs) == f
    assert all(isinstance(r["numerator"], int)
               and isinstance(r["denominator"], int) for r in recs)
    assert from_records(twochains, []) == zero(twochains)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=len(CATALOG) - 1))
def test_multiplication_is_associative(seed, pidx):
    rng = random.Random(seed)
    p = CATALOG[pidx]
    f, g, h = (random_element(p, rng) for _ in range(3))
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=len(CATALOG) - 1))
def test_commutator_is_a_lie_bracket(seed, pidx):
    rng = random.Random(seed)
    p = CATALOG[pidx]
    f, g, h = (random_element(p, rng) for _ in range(3))
    assert commutator(f, g) == -commutator(g, f)
    jacobi = (commutator(f, commutator(g, h))
              + commutator(g, commutator(h, f))
              + commutator(h, commutator(f, g)))
    assert jacobi.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=len(CATALOG) - 1))
def test_commutators_have_no_diagonal_part(seed, pidx):
    # [I, I] is spanned by the strictly ordered units
    rng = random.Random(seed)
    p = CATALOG[pidx]
    f, g = random_element(p, rng), random_element(p, rng)
    assert all(x != y for (x, y), _ in commutator(f, g).items())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=len(CATALOG) - 1))
def test_center_of_commutator_annihilates_brackets(seed, pidx):
    # elements on minmax pairs bracket to zero with every strict unit
    rng = random.Random(seed)
    p = CATALOG[pidx]
    for x, y in minmax_pairs(p):
        c = unit(p, x, y)
        for u, v in p.strict_pairs:
            assert commutator(c, unit(p, u, v)).is_zero()


def test_record_round_trip_is_bit_exact(chain3):
    f = element(chain3, {("1", "3"): Fraction(22, 7)})
    recs = to_records(f)
    assert recs == [{"from": "1", "to": "3", "numerator": 22,
                     "denominator": 7}]


# --- the sparse kernel: cancelled entries are deleted ------------------------

def test_add_scaled_deletes_cancelled_entries():
    acc = {0: Fraction(1), 1: Fraction(2)}
    assert add_scaled(acc, {0: Fraction(-1), 2: Fraction(3)}) is acc
    assert acc == {1: 2, 2: 3}
    add_scaled(acc, {1: 1, 2: Fraction(3, 2), 4: 5}, -2)
    assert acc == {4: -10}
    assert add_scaled({3: 7}, {}, 9) == {3: 7}


def test_cancellation_stores_no_zeros(twochains, chain2):
    rng = random.Random(5)
    f = random_element(twochains, rng)
    assert not f.is_zero()
    assert (f + (-f)).coeffs == {} and (f - f).coeffs == {}

    op = phi_sigma(SigmaMap(pair_classes(twochains), [Fraction(2), 3]), "1")
    diff = op + op.scale(-1)
    assert diff == zero_operator(twochains)
    assert all(col == {} for col in diff.columns)
    assert (op - op).columns == diff.columns

    # both columns send their basis vector to e_1, so e_1 - e_12 maps to 0
    shared = operator_from_images(chain2, {
        ("1", "1"): diag_unit(chain2, "1"), ("1", "2"): diag_unit(chain2, "1")})
    assert apply(shared, element(chain2, {("1", "1"): 1,
                                          ("1", "2"): -1})).coeffs == {}

    e1, e12, e2 = ("1", "1"), ("1", "2"), ("2", "2")
    prod = tp_from_table(chain2, {
        (e1, e1): element(chain2, {e1: 1, e2: 2}),
        (e1, e12): element(chain2, {e1: -1, e12: 1})})
    cancel = tp_product(prod, unit(chain2, *e1),
                        element(chain2, {e1: 1, e12: 1}))
    assert cancel.coeffs == {chain2.pair_index[e12]: 1,
                             chain2.pair_index[e2]: 2}
    prod = tp_from_table(chain2, {
        (e1, e1): unit(chain2, *e1), (e1, e12): unit(chain2, *e1).scale(-1)})
    assert tp_product(prod, unit(chain2, *e1),
                      element(chain2, {e1: 1, e12: 1})).coeffs == {}


# --- one value rule: integers, Fractions or "p/q" strings --------------------

def _transported(p, v):
    moved = transport_product(mutational(NuElement(p, {("1", "2"): 1})),
                              {("1", "2"): v})
    return tp_product(moved, diag_unit(p, "1"),
                      diag_unit(p, "2")).coeff("1", "2")


VALUE_ENTRY_POINTS = {
    "element": lambda p, v: element(p, {("1", "2"): v}).coeff("1", "2"),
    "IncidenceElement.scale":
        lambda p, v: unit(p, "1", "2").scale(v).coeff("1", "2"),
    "MuMap": lambda p, v: MuMap(p, {("1", "1"): v}).value("1", "1"),
    "CentralElement":
        lambda p, v: CentralElement(p, {("1", "2"): v}).value("1", "2"),
    "KappaMap": lambda p, v: KappaMap(p, {"1": v}).value("1"),
    "LambdaMap": lambda p, v: LambdaMap(p, {("1", "2"): v}).value("1", "2"),
    "SigmaMap":
        lambda p, v: SigmaMap(pair_classes(p), [v]).value("1", "2"),
    "sigma_from_map":
        lambda p, v: sigma_from_map(p, {("1", "2"): v}).value("1", "2"),
    "walk_functionals": lambda p, v: walk_functionals(
        {("1", "2"): v}, walk_between(p, "1", "2"), "1")[0],
    "LinearOperator.scale": lambda p, v: operator_from_images(
        p, {("1", "2"): unit(p, "1", "2")}).scale(v).columns[1][1],
    "transport_product": _transported,
}


@pytest.mark.parametrize("entry", sorted(VALUE_ENTRY_POINTS))
def test_library_values_follow_the_cli_rule(entry):
    read = VALUE_ENTRY_POINTS[entry]
    for good in (1, "3/2", Fraction(3, 2)):
        got = read(chain(2), good)
        assert got == Fraction(good) and isinstance(got, Fraction)
    for bad in (0.1, True, "1/0"):
        with pytest.raises(ParseError):
            read(chain(2), bad)


# --- the validated value maps ------------------------------------------------

MAP_RULES = [
    # class, a valid key, another valid key, a bad key, its error and text
    (CentralElement, ("1", "2"), ("1", "3"), ("1", "1"),
     NotCentralInCommutator, "('1', '1') is not a minimal-maximal pair"),
    (KappaMap, "2", "3", "9", UnknownElement, "unknown element '9'"),
    (LambdaMap, ("1", "3"), ("1", "2"), ("2", "2"), ValueError,
     "('2', '2') is not an extreme pair"),
    (MuMap, ("1", "1"), ("2", "3"), ("1", "9"), UnknownElement,
     "unknown element '9'"),
]


def _at(m, key):
    return m.value(*key) if isinstance(key, tuple) else m.value(key)


@pytest.mark.parametrize("cls, key, other, bad, error, text", MAP_RULES,
                         ids=[rule[0].__name__ for rule in MAP_RULES])
def test_value_maps_share_one_rule(vee, cls, key, other, bad, error, text):
    assert cls(vee, {key: 0}).values == {}
    m = cls(vee, {key: Fraction(3, 2), other: 0})
    assert m.values == {key: Fraction(3, 2)} and m.support() == [key]
    assert _at(m, other) == 0 and isinstance(_at(m, other), Fraction)
    assert m == cls(vee, {key: "3/2"})
    assert m != cls(vee, {key: 2})
    again = build_poset(list(vee.elements), list(vee.covers))
    assert m != cls(again, {key: Fraction(3, 2)})
    with pytest.raises(TypeError):
        hash(m)
    with pytest.raises(error) as exc:
        cls(vee, {key: 1, bad: 1})
    assert str(exc.value) == text


def test_value_map_equality_order_and_mu_symmetry(vee):
    central = CentralElement(vee, {("1", "2"): 2})
    lam = LambdaMap(vee, {("1", "2"): 2})
    assert central.values == lam.values
    assert central != lam and lam != central
    assert NuElement(vee, {("1", "2"): 2}) == central
    assert KappaMap(vee, {"3": 1, "1": 2}).support() == ["1", "3"]
    assert LambdaMap(vee, {("1", "3"): 1, ("1", "2"): 1}).support() == [
        ("1", "2"), ("1", "3")]
    mu = MuMap(vee, {("2", "1"): 1, ("1", "2"): 1, ("1", "1"): 1,
                     ("2", "2"): 1})
    assert mu.values == {("1", "2"): 1, ("1", "1"): 1, ("2", "2"): 1}
    assert mu.value("2", "1") == 1 and mu.value("3", "1") == 0
    with pytest.raises(ValueError) as exc:
        MuMap(vee, {("1", "2"): 1, ("2", "1"): 2})
    assert str(exc.value) == "mu given asymmetric values at ('2', '1')"
    with pytest.raises(UnknownElement):
        mu.value("1", "9")
