import functools
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (MU_KINDS, BruteForce, chain, corrupted, data_catalog,
                     full_catalog, random_central, random_connected_poset,
                     random_fraction, random_raw_mu, reference_assoc_condition,
                     reference_assoc_failure, reference_mu_condition,
                     reference_orthogonal, reference_poisson_type,
                     random_tp, reference_verify, reversed_catalog,
                     same_components, tp_left_mult, tp_oracle_space,
                     tp_product)
from lietp import algebra, tpstruct
from lietp.algebra import (commutator, diag_unit, element, identity,
                           minmax_pairs, unit)
from lietp.errors import (NotCentralInCommutator, NotTransposedPoisson,
                          ParseError, UnknownElement)
from lietp.halfder import (CentralElement, inner, is_half_derivation,
                           operator_from_images, phi_sigma, sigma_from_map,
                           zero_operator)
from lietp.poset import build_poset, extreme_pairs, sign_and_vset
from lietp.tpstruct import (LambdaMap, MuMap, NuElement, TPDecomposition,
                            TPProduct, decompose_tp, lambda_structure,
                            mutational, normalize_nu, poisson_type,
                            random_tp_components, sum_products, tp_from_table,
                            tp_passes, transport_product, verify_tp)

CATALOG = full_catalog()


# --- mu: the Poisson-type family --------------------------------------------

def _mu_passes(p, raw):
    """Whether raw passes the Poisson-type condition: _associative with
    lambda = 0, on the values cleared of denominators."""
    return tpstruct._associative(
        p, algebra.cleared({0: MuMap(p, raw).values})[0], {}, p.elements[0])


def test_validate_mu(chain2, vee):
    assert _mu_passes(chain2, {("1", "1"): 1, ("1", "2"): 1, ("2", "2"): 1})
    # symmetric lookups may be spelled either way, but values must agree
    with pytest.raises(ValueError):
        MuMap(vee, {("1", "2"): 1, ("2", "1"): 2})
    # a bare off-diagonal entry breaks the associativity condition
    assert not _mu_passes(chain2, {("1", "2"): Fraction(1)})


def _shipped_and_random_posets(data_dir, rng, count=30):
    """The data/ posets and `count` seeded random connected ones, n 3-8."""
    posets = list(data_catalog(data_dir).values())
    for _ in range(count):
        posets.append(random_connected_poset(rng, rng.randint(3, 8),
                                             dense=rng.random() < 0.5))
    return posets


def _large_denominators(rng, raw):
    """raw with each value divided by its own large denominator."""
    return {pr: v / rng.randrange(10 ** 30, 10 ** 31) for pr, v in raw.items()}


def test_mu_condition_matches_reference(data_dir):
    # the Poisson-type condition is _associative with lambda = 0, on the
    # values cleared of denominators; rank-one mu from a vector with large
    # distinct denominators, and draws divided entry by entry by such
    # denominators, make that clearing scale by hundreds of digits
    rng = random.Random(4)
    verdicts = {kind: set() for kind in MU_KINDS + ("large", "large+1")}
    for p in _shipped_and_random_posets(data_dir, rng):
        raws = [(kind, random_raw_mu(p, rng, kind))
                for kind in MU_KINDS for _ in range(4)]
        raws += [("large", _large_denominators(rng, raw))
                 for _kind, raw in raws]
        els = p.elements
        a = _large_denominators(rng, {x: random_fraction(rng) for x in els})
        rank_one = {(x, y): a[x] * a[y]
                    for i, x in enumerate(els) for y in els[i:]}
        bumped = dict(rank_one)
        bumped[rng.choice(sorted(rank_one))] += _large_denominators(
            rng, {0: Fraction(1)})[0]
        raws += [("large", rank_one), ("large+1", bumped)]
        for kind, raw in raws:
            expected = reference_mu_condition(p, MuMap(p, raw))
            assert _mu_passes(p, raw) == expected, (p.covers, raw)
            verdicts[kind].add(expected)
    assert verdicts["rank-one"] == verdicts["zero-row-sum"] == {True}
    assert False in verdicts["rank-one+1"] and False in verdicts[
        "zero-row-sum+1"]
    assert verdicts["sparse"] == verdicts["large"] == {True, False}
    assert False in verdicts["large+1"]


def test_assoc_condition_matches_dense_reference():
    # the sparse condition on (mu, lambda) against the n^3 definition of A,
    # for every MU_KINDS mu with random lambda at every base point
    rng = random.Random(6)
    posets = list(CATALOG) + [
        random_connected_poset(rng, rng.randint(5, 9),
                               dense=rng.random() < 0.5) for _ in range(20)]
    verdicts = set()
    for p in posets:
        extreme = extreme_pairs(p)
        for kind in MU_KINDS:
            mu = MuMap(p, random_raw_mu(p, rng, kind)).values
            lam = LambdaMap(p, {pr: random_fraction(rng) for pr in extreme
                                if rng.random() < 0.7}).values
            for u0 in p.elements:
                expected = reference_assoc_condition(p, mu, lam, u0)
                assert tpstruct._associative(p, mu, lam, u0) == expected, (
                    p.covers, mu, lam, u0)
                verdicts.add((bool(lam), expected))
    assert verdicts == {(False, False), (False, True), (True, False),
                        (True, True)}


def _coeffs(prod):
    return {key: elem.coeffs for key, elem in prod.table.items()}


def test_reconstruct_equals_summed_families(data_dir):
    rng = random.Random(5)
    for p in _shipped_and_random_posets(data_dir, rng, count=20):
        for _ in range(3):
            mu, nu, lam, _u0 = random_tp_components(p, rng.randrange(1 << 30))
            assert _coeffs(poisson_type(mu)) == _coeffs(
                reference_poisson_type(mu))
            for u0 in p.elements:
                whole = TPDecomposition(mu, nu, lam, u0).reconstruct()
                parts = sum_products(sum_products(poisson_type(mu),
                                                  mutational(nu)),
                                     lambda_structure(lam, u0))
                assert _coeffs(whole) == _coeffs(parts), (p.covers, u0)


def test_poisson_type_all_ones(chain2):
    # every product of diagonal units is the identity element
    mu = MuMap(chain2, {("1", "1"): 1, ("1", "2"): 1, ("2", "2"): 1})
    prod = poisson_type(mu)
    for x in chain2.elements:
        for y in chain2.elements:
            assert tp_product(prod, diag_unit(chain2, x),
                              diag_unit(chain2, y)) == identity(chain2)
    assert tp_passes(verify_tp(prod))


def test_poisson_row_sum_identity(vee):
    mu = MuMap(vee, {("1", "1"): 4, ("1", "2"): 2, ("2", "2"): 1,
                     ("1", "3"): 2, ("2", "3"): 1, ("3", "3"): 1})
    prod = poisson_type(mu)
    for x in vee.elements:
        assert tp_product(prod, diag_unit(vee, x), identity(vee)) == (
            identity(vee) * sum(mu.value(x, v) for v in vee.elements))


# --- mutational structures ---------------------------------------------------

def test_mutational_frozen_table(vee):
    nu = NuElement(vee, {("1", "2"): Fraction(2), ("1", "3"): Fraction(3)})
    prod = mutational(nu)
    expected = {
        (("1", "1"), ("1", "1")): {("1", "2"): -2, ("1", "3"): -3},
        (("1", "1"), ("2", "2")): {("1", "2"): 2},
        (("1", "1"), ("3", "3")): {("1", "3"): 3},
        (("2", "2"), ("2", "2")): {("1", "2"): -2},
        (("3", "3"), ("3", "3")): {("1", "3"): -3},
    }
    assert prod == tp_from_table(
        vee, {k: element(vee, v) for k, v in expected.items()})
    assert tp_passes(verify_tp(prod))


def test_mutational_matches_double_bracket(zigzag):
    rng = random.Random(3)
    nu = NuElement(zigzag, {pr: Fraction(rng.randint(1, 5))
                            for pr in minmax_pairs(zigzag)})
    prod = mutational(nu)
    nu_elem = nu.as_element()
    for x in zigzag.elements:
        for y in zigzag.elements:
            direct = commutator(commutator(diag_unit(zigzag, x), nu_elem),
                                diag_unit(zigzag, y))
            assert tp_product(prod, diag_unit(zigzag, x),
                              diag_unit(zigzag, y)) == direct


def test_mutational_left_multiplications_are_inner(branch4):
    nu = NuElement(branch4, {("1", "3"): Fraction(2), ("1", "4"): Fraction(-1)})
    prod = mutational(nu)
    for x in branch4.elements:
        bracket = commutator(diag_unit(branch4, x), nu.as_element())
        expected = inner(CentralElement(branch4, dict(bracket.items())))
        assert tp_left_mult(prod, (x, x)) == expected
    # strictly ordered units multiply to zero in a mutational structure
    for pr in branch4.strict_pairs:
        assert tp_left_mult(prod, pr) == zero_operator(branch4)


def test_mutational_annihilates_identity(crown):
    nu = NuElement(crown, {("1", "3"): 1, ("2", "4"): 2})
    prod = mutational(nu)
    for x in crown.elements:
        assert tp_product(prod, diag_unit(crown, x),
                          identity(crown)).is_zero()


# --- lambda structures -------------------------------------------------------

def test_lambda_map_requires_extreme_pairs(chain5, vee):
    with pytest.raises(ValueError):
        LambdaMap(chain5, {("1", "5"): 1})
    lam = LambdaMap(vee, {("1", "3"): Fraction(4)})
    assert lam.value("1", "3") == 4 and lam.value("1", "2") == 0


def test_lambda_frozen_table(chain2):
    q = Fraction(5)
    prod = lambda_structure(LambdaMap(chain2, {("1", "2"): q}), "1")
    expected = {
        (("1", "1"), ("1", "2")): {("1", "2"): q},
        (("2", "2"), ("1", "2")): {("1", "2"): -q},
        (("1", "1"), ("1", "1")): {("2", "2"): -q},
        (("1", "1"), ("2", "2")): {("2", "2"): q},
        (("2", "2"), ("2", "2")): {("2", "2"): -q},
    }
    assert prod == tp_from_table(
        chain2, {k: element(chain2, v) for k, v in expected.items()})
    assert tp_passes(verify_tp(prod))


def test_lambda_annihilates_identity(zigzag):
    lam = LambdaMap(zigzag, {("1", "3"): 1, ("2", "3"): 2, ("2", "4"): 3})
    prod = lambda_structure(lam, "1")
    for x in zigzag.elements:
        assert tp_product(prod, diag_unit(zigzag, x),
                          identity(zigzag)).is_zero()
    assert tp_passes(verify_tp(prod))


def test_lambda_diagonal_left_mults_are_phi_sigma(zigzag):
    lam = LambdaMap(zigzag, {("1", "3"): 1, ("2", "3"): 2, ("2", "4"): 3})
    u0 = "1"
    prod = lambda_structure(lam, u0)
    xset = set(extreme_pairs(zigzag))
    for x in zigzag.elements:
        raw = {}
        for (u, v) in zigzag.strict_pairs:
            if (u, v) not in xset:
                continue
            if u == x:
                raw[(u, v)] = lam.value(u, v)
            elif v == x:
                raw[(u, v)] = -lam.value(u, v)
        sigma = sigma_from_map(zigzag, raw)
        assert tp_left_mult(prod, (x, x)) == phi_sigma(sigma, u0)


def test_lambda_strict_left_mults(zigzag):
    lam = LambdaMap(zigzag, {("1", "3"): 1, ("2", "3"): 2, ("2", "4"): 3})
    prod = lambda_structure(lam, "1")
    for (x, y) in extreme_pairs(zigzag):
        q = lam.value(x, y)
        expected = operator_from_images(zigzag, {
            (x, x): unit(zigzag, x, y).scale(q),
            (y, y): unit(zigzag, x, y).scale(-q),
        })
        op = tp_left_mult(prod, (x, y))
        assert op == expected
        assert is_half_derivation(op)[0]
    # strict pairs that are not extreme multiply to zero
    for pr in zigzag.strict_pairs:
        if pr not in set(extreme_pairs(zigzag)):
            assert tp_left_mult(prod, pr) == zero_operator(zigzag)


# --- sums, orthogonality and the compatibility condition ---------------------

def _vee_lambda(vee):
    return lambda_structure(LambdaMap(vee, {("1", "2"): Fraction(1)}), "1")


def _rank_one_mu(p, a):
    vals = {}
    for i, x in enumerate(p.elements):
        for y in p.elements[i:]:
            vals[(x, y)] = a[x] * a[y]
    return MuMap(p, vals)


def test_lambda_poisson_compatibility_characterization(vee):
    lstr = _vee_lambda(vee)
    side = sign_and_vset(vee, "1", ("1", "2"))[1]
    cases = [
        _rank_one_mu(vee, {"1": Fraction(1), "2": Fraction(0),
                           "3": Fraction(1)}),
        _rank_one_mu(vee, {"1": Fraction(0), "2": Fraction(1),
                           "3": Fraction(-1)}),
        _rank_one_mu(vee, {"1": Fraction(1), "2": Fraction(0),
                           "3": Fraction(-1)}),
    ]
    for mu in cases:
        vanishes = all(
            sum((mu.value(v, z) for v in side), Fraction(0)) == 0
            for z in vee.elements)
        pstr = poisson_type(mu)
        assert reference_orthogonal(lstr, pstr) == vanishes
        report = verify_tp(sum_products(lstr, pstr))
        assert tp_passes(report) == vanishes
        if not vanishes:
            # the Leibniz law is linear in the product, so only
            # associativity can break on an incompatible sum
            assert report["associative"] is False
            assert report["transposed_leibniz"] is True


def test_incompatible_lambda_poisson_witness(chain2):
    lam = LambdaMap(chain2, {("1", "2"): Fraction(1)})
    mu = MuMap(chain2, {("1", "1"): 1, ("1", "2"): 1, ("2", "2"): 1})
    total = sum_products(lambda_structure(lam, "1"), poisson_type(mu))
    report = verify_tp(total)
    assert not tp_passes(report)
    assert report["witness"] == {
        "check": "associative",
        "triple": (("1", "1"), ("1", "1"), ("2", "2"))}
    with pytest.raises(NotTransposedPoisson):
        decompose_tp(total, "1")


def test_mutational_orthogonal_to_poisson(branch4):
    mu = MuMap(branch4, {(x, y): 1 for i, x in enumerate(branch4.elements)
                         for y in branch4.elements[i:]})
    nu = NuElement(branch4, {("1", "3"): 2, ("1", "4"): 3})
    assert reference_orthogonal(mutational(nu), poisson_type(mu))
    assert tp_passes(verify_tp(sum_products(mutational(nu),
                                            poisson_type(mu))))


def test_lambda_plus_mutational_sums(vee):
    lam = LambdaMap(vee, {("1", "2"): 1, ("1", "3"): 1})
    nu = NuElement(vee, {("1", "2"): 1, ("1", "3"): 1})
    lstr = lambda_structure(lam, "1")
    mstr = mutational(nu)
    # not orthogonal (the cross products do not annihilate), yet the sum
    # is still a transposed Poisson structure
    assert not reference_orthogonal(lstr, mstr)
    assert tp_passes(verify_tp(sum_products(lstr, mstr)))


def test_unit_weight_sum_round_trips_vee(vee):
    # nu = lambda = 1 on both pairs, mu = 0: sum passes and decomposes back
    lam = LambdaMap(vee, {("1", "2"): 1, ("1", "3"): 1})
    nu = NuElement(vee, {("1", "2"): 1, ("1", "3"): 1})
    total = sum_products(mutational(nu), lambda_structure(lam, "1"))
    assert tp_passes(verify_tp(total))
    dec = decompose_tp(total, "1")
    assert dec.nu.values == nu.values
    assert dec.lam.values == lam.values
    assert not any(dec.mu.values.values())


# --- product container mechanics ---------------------------------------------

def test_tp_from_table_rejects_transpose_conflicts(chain2):
    entries = {
        (("1", "1"), ("2", "2")): element(chain2, {("1", "2"): 1}),
        (("2", "2"), ("1", "1")): element(chain2, {("1", "2"): 2}),
    }
    with pytest.raises(ValueError):
        tp_from_table(chain2, entries)


def test_tp_from_table_compares_zero_values_too(chain2):
    # a zero product conflicts with a nonzero transpose in either order
    e1, e2 = ("1", "1"), ("2", "2")
    zero, e12 = element(chain2, {}), element(chain2, {("1", "2"): 1})
    for entries in ({(e1, e2): zero, (e2, e1): e12},
                    {(e2, e1): e12, (e1, e2): zero}):
        with pytest.raises(ValueError, match="conflicting values"):
            tp_from_table(chain2, entries)
    agreed = tp_from_table(chain2, {(e1, e2): {}, (e2, e1): zero, (e1, e1): e12})
    assert agreed == tp_from_table(chain2, {(e1, e1): e12})
    assert list(agreed.table) == [(0, 0)]


def test_product_is_symmetric_and_bilinear(vee):
    prod = mutational(NuElement(vee, {("1", "2"): 2, ("1", "3"): 5}))
    f = element(vee, {("1", "1"): 2, ("2", "2"): Fraction(1, 2)})
    g = element(vee, {("1", "1"): -1, ("3", "3"): 3, ("1", "2"): 4})
    assert tp_product(prod, f, g) == tp_product(prod, g, f)
    h = element(vee, {("2", "2"): 1})
    assert (tp_product(prod, f + h, g)
            == tp_product(prod, f, g) + tp_product(prod, h, g))
    assert (tp_product(prod, f.scale(3), g)
            == tp_product(prod, f, g).scale(3))


def test_zero_product(crown):
    z = TPProduct(crown, {})
    assert z.is_zero()
    assert tp_passes(verify_tp(z))
    nu = NuElement(crown, {("1", "3"): 1})
    assert sum_products(z, mutational(nu)) == mutational(nu)


def test_non_central_nu_table_fails_with_witness(chain3):
    # the mutational recipe applied to e_12, which is not in Z([L,L])
    entries = {
        (("1", "1"), ("2", "2")): element(chain3, {("1", "2"): 1}),
        (("1", "1"), ("1", "1")): element(chain3, {("1", "2"): -1}),
        (("2", "2"), ("2", "2")): element(chain3, {("1", "2"): -1}),
    }
    report = verify_tp(tp_from_table(chain3, entries))
    assert not tp_passes(report)
    assert report["witness"] == {
        "check": "transposed_leibniz",
        "triple": (("1", "1"), ("1", "1"), ("2", "3"))}


def test_nu_element_must_be_central(chain3):
    with pytest.raises(NotCentralInCommutator):
        NuElement(chain3, {("1", "2"): 1})


# --- verify_tp: complete and exact at every size ------------------------------

def test_verify_is_complete_and_exact_above_forty_pairs():
    p = chain(9)
    assert len(p.pairs) == 45
    good = random_tp(p, seed=3)
    assert verify_tp(good) == {"associative": True, "transposed_leibniz": True,
                               "witness": None}
    bad = corrupted(good, random.Random(0))
    expected = {"associative": False, "transposed_leibniz": False,
                "witness": {"check": "associative",
                            "triple": (("1", "1"), ("1", "1"), ("4", "4"))}}
    assert verify_tp(bad) == expected == reference_verify(bad)


def test_verify_takes_only_the_product(vee):
    assert list(inspect.signature(verify_tp).parameters) == ["prod"]
    assert set(verify_tp(random_tp(vee, seed=0))) == {
        "associative", "transposed_leibniz", "witness"}


def test_verify_rejects_every_one_coefficient_corruption():
    # a nu-only table on chain-12 (B = 78) has three products, so most
    # corruptions break the axioms on a handful of triples only
    p = chain(12)
    good = random_tp(p, seed=9)
    assert tp_passes(verify_tp(good))
    for k in range(30):
        bad = corrupted(good, random.Random(k))
        report = verify_tp(bad)
        assert not tp_passes(report)
        witness = report["witness"]
        triple = [p.pair_index[pr] for pr in witness["triple"]]
        assert not BruteForce(bad).holds(witness["check"], triple)
        with pytest.raises(NotTransposedPoisson):
            decompose_tp(bad, "1")


def test_verify_matches_brute_force_on_catalog():
    # the catalog in its linear-extension order and reversed
    kinds = set()
    for k, p in enumerate(CATALOG + reversed_catalog()):
        rng = random.Random(k)
        good = random_tp(p, seed=k)
        tables = [good]
        if good.table:
            tables += [corrupted(good, rng), corrupted(good, rng)]
        for prod in tables:
            report = verify_tp(prod)
            assert report == reference_verify(prod)
            assert report["transposed_leibniz"] == all(
                is_half_derivation(tp_left_mult(prod, pr))[0]
                for pr in p.pairs)
            kinds.add(report["witness"] and report["witness"]["check"])
    assert kinds == {None, "associative", "transposed_leibniz"}


# --- the certificate path of verify_tp and decompose_tp ----------------------

def _soundness_tables(p, rng, seed):
    """A random_tp draw; for every MU_KINDS a symmetric mu, not held to the
    lambda = 0 condition, with random nu and lambda based at a random
    element; two corrupted copies."""
    good = random_tp(p, seed)
    tables = [good]
    for kind in MU_KINDS:
        lam = LambdaMap(p, {pr: random_fraction(rng)
                            for pr in extreme_pairs(p) if rng.random() < 0.7})
        tables.append(TPDecomposition(
            MuMap(p, random_raw_mu(p, rng, kind)),
            random_central(p, rng), lam, rng.choice(p.elements)).reconstruct())
    if good.table:
        tables += [corrupted(good, rng), corrupted(good, rng)]
    return tables


def _cleared(prod):
    """The product's table cleared of denominators, as verify_tp reads it."""
    return algebra.cleared(
        {key: elem.coeffs for key, elem in prod.table.items()})


def _check_certificate(prod, reference):
    """The certificate accepts the table at every base point if the
    reference passes it, and rebuilds it there, and at no base point if
    not; verify_tp and decompose_tp agree with the reference."""
    p = prod.owner
    passes = tp_passes(reference)
    for u0 in p.elements:
        assert tpstruct._certified(p, _cleared(prod), u0) == passes, (
            p.covers, u0, reference)
        if passes:
            assert decompose_tp(prod, u0).reconstruct() == prod
    assert verify_tp(prod) == reference
    if not passes:
        with pytest.raises(NotTransposedPoisson) as exc:
            decompose_tp(prod, p.elements[-1])
        assert exc.value.report == verify_tp(prod)


def _certificate_corpus():
    """(poset, whether it is a catalog poset, draw number, product) for
    every table of the certificate's soundness test: _soundness_tables on
    the catalog and on 20 random posets of 6 to 8 elements."""
    rng = random.Random(12)
    posets = [(p, True) for p in CATALOG] + [
        (random_connected_poset(rng, rng.randint(6, 8),
                                dense=rng.random() < 0.5), False)
        for _ in range(20)]
    for k, (p, brute) in enumerate(posets):
        for t, prod in enumerate(_soundness_tables(p, rng, k)):
            yield p, brute, t, prod


def _check_corpus(corpus):
    """_check_certificate on every table, with the sweep as the reference;
    returns how many tables there were and how many were transposed
    Poisson.  On catalog posets the brute-force verifier confirms every
    transposed Poisson table; the random_tp draws there, and corrupted
    copies of them, are test_verify_matches_brute_force_on_catalog's."""
    tables = tp = 0
    for p, brute, t, prod in corpus:
        reference = tpstruct._sweep(p, _cleared(prod))
        if brute and t > 0 and tp_passes(reference):
            assert reference_verify(prod) == reference
        _check_certificate(prod, reference)
        tables += 1
        tp += tp_passes(reference)
    return tables, tp


def test_certificate_never_accepts_a_rejected_table():
    # the certificate is exact: it accepts every transposed Poisson table
    # at every base point and no other table at any
    tables, tp = _check_corpus(_certificate_corpus())
    assert tables == 620 and tp == 203


def test_certificate_is_exact_on_larger_random_posets():
    def corpus():
        for seed in range(100, 140):
            rng = random.Random(seed)
            p = random_connected_poset(rng, rng.randint(5, 10),
                                       dense=rng.random() < 0.5)
            for t, prod in enumerate(_soundness_tables(p, rng, seed)):
                yield p, False, t, prod

    tables, tp = _check_corpus(corpus())
    assert tables == 318 and tp == 106


def test_certificate_on_orders_that_are_not_linear_extensions():
    # on the reversed catalog a table keys e_x . e_xy as (e_xy, e_x); the
    # brute-force verifier judges its random_tp draws and their corrupted
    # copies in test_verify_matches_brute_force_on_catalog
    rng = random.Random(14)
    tables, tp = _check_corpus(
        (p, False, t, prod) for k, p in enumerate(reversed_catalog())
        for t, prod in enumerate(_soundness_tables(p, rng, k)))
    assert tables == 460 and tp == 145


# --- the brute-force oracle of the paper's second theorem --------------------

@functools.lru_cache(maxsize=None)
def _tp_oracle_cases():
    """(poset, tp_oracle_space basis) on the catalog and on 8 seeded random
    posets of 5 to 8 elements."""
    rng = random.Random(41)
    posets = list(CATALOG) + [
        random_connected_poset(rng, rng.randint(5, 8),
                               dense=rng.random() < 0.5) for _ in range(8)]
    return tuple((p, tp_oracle_space(p)) for p in posets)


def test_tp_oracle_dimension_law():
    # the products satisfying the transposed Leibniz rule: Poisson type
    # with any symmetric mu, mutational and lambda, and nothing else
    for p, space in _tp_oracle_cases():
        n = len(p.elements)
        assert len(space) == (n * (n + 1) // 2 + len(minmax_pairs(p))
                              + len(extreme_pairs(p))), p.covers


def test_tp_oracle_basis_rebuilds():
    # with the dimension law, this proves on these posets that every such
    # product is a sum of the three families at every base point
    for p, space in _tp_oracle_cases():
        for table in space:
            for u0 in p.elements:
                parts = tpstruct._read_off(p, table, u0)
                assert parts is not None, (p.covers, table)
                assert tpstruct._rebuilds(p, table, parts, u0), (p.covers, u0)


# --- the associativity kernel against its reference --------------------------

def _certificate_reads(p):
    """(key, output) of every coefficient the certificate reads off a table:
    mu at the first element's diagonal, nu on minimal-maximal pairs and
    lambda on extreme pairs."""
    pidx = p.pair_index
    d = {x: pidx[(x, x)] for x in p.elements}
    du = d[p.elements[0]]
    reads = [(tpstruct._table_key(d[x], d[y]), du)
             for x in p.elements for y in p.elements]
    reads += [(tpstruct._table_key(d[x], d[y]), pidx[(x, y)])
              for x, y in minmax_pairs(p)]
    reads += [(tpstruct._table_key(d[x], pidx[(x, y)]), pidx[(x, y)])
              for x, y in extreme_pairs(p)]
    return reads


def _changed(p, table, rng, step=1):
    """Copy of a cleared table with 1 to 6 random changes, each adding
    +-step or +-2 step to one coefficient: of a product in the table, of a
    product at a new key, or one the certificate reads."""
    B = len(p.pairs)
    reads = _certificate_reads(p)
    out = {key: dict(vec) for key, vec in table.items()}
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(3)
        if kind == 0 and out:
            key, r = rng.choice(sorted(out)), rng.randrange(B)
        elif kind == 1:
            key = tpstruct._table_key(rng.randrange(B), rng.randrange(B))
            r = rng.randrange(B)
        else:
            key, r = rng.choice(reads)
        vec = out.setdefault(key, {})
        vec[r] = vec.get(r, 0) + rng.choice((-2, -1, 1, 2)) * step
        if not vec[r]:
            del vec[r]
        if not vec:
            del out[key]
    return out


def _outcomes(prods):
    """verify_tp's report and decompose_tp's values, or the report it
    raises, at the last element, per product."""
    out = []
    for prod in prods:
        try:
            dec = decompose_tp(prod, prod.owner.elements[-1])
            got = (dec.mu.values, dec.nu.values, dec.lam.values)
        except NotTransposedPoisson as exc:
            got = exc.report
        out.append((verify_tp(prod), got))
    return out


def _assoc_failure_as_reference(table):
    rows = tpstruct._rows(table)
    got = tpstruct._first_assoc_failure(table, rows)
    assert got == reference_assoc_failure(rows), table
    return got


def test_assoc_kernel_matches_reference(monkeypatch):
    # the soundness test's tables, changed copies of them, and copies
    # scaled past 2**64, some then changed by a small or a wide step, so
    # that slots of very different size sit side by side
    rng = random.Random(29)
    changed, wide, found = [], 0, set()
    for n, (p, _brute, _t, prod) in enumerate(_certificate_corpus()):
        table = _cleared(prod)
        tables = [table, _changed(p, table, rng)]
        if n % 4 == 0:
            scale = rng.randrange(2 ** 64, 2 ** 66)
            big = {key: {r: v * scale for r, v in vec.items()}
                   for key, vec in table.items()}
            tables += [big, _changed(p, big, rng),
                       _changed(p, big, rng, step=scale)]
            wide += any(abs(v) >> 64 for vec in big.values()
                        for v in vec.values())
        found.update(_assoc_failure_as_reference(t) is None for t in tables)
        if n % 2 == 0:
            changed.append(tpstruct._build(p, tables[1]))
    assert wide > 100 and found == {True, False}
    # with b_0 b_0 = a b_0 and b_0 b_2 = g b_0 + d b_2, the difference at
    # (b_0, b_0, b_2) is -d g b_0 + d (a - d) b_2: slot values -2**k and 1,
    # and then, with b_2 seen first, 2**(2k) and -2**k, which a packing
    # k bits wide would take for zero
    for k in range(1, 200):
        for table in ({(0, 0): {0: 2}, (0, 2): {0: 2 ** k, 2: 1}},
                      {(0, 2): {2: 2 ** k, 0: 1}, (0, 0): {0: 2 ** (k + 1)}}):
            assert _assoc_failure_as_reference(table) == (0, 0, 2)
    new = _outcomes(changed)
    monkeypatch.setattr(tpstruct, "_first_assoc_failure",
                        lambda table, rows: reference_assoc_failure(rows))
    assert new == _outcomes(changed)


def test_certificate_rejects_out_of_shape_tables(vee):
    table = _cleared(random_tp(vee, seed=4))
    assert tpstruct._read_off(vee, table, "1") is not None
    d1, e12, d2, d3 = (vee.pair_index[pr] for pr in (
        ("1", "1"), ("1", "2"), ("2", "2"), ("3", "3")))
    # two strict factors; a diagonal factor times a strict one with another
    # output; e_2 . e_3 with an output on a pair that does not join 2 and 3
    for key, coeffs in (((e12, e12), {e12: 1}), ((d1, e12), {d1: 1}),
                        ((d2, d3), {e12: 1})):
        bad = dict(table)
        bad[key] = coeffs
        assert tpstruct._read_off(vee, bad, "1") is None
        assert not tpstruct._certified(vee, bad, "1")


def test_decompose_runs_no_sweep_on_a_certified_table(monkeypatch, branch4):
    prod = random_tp(branch4, seed=9)
    expected = decompose_tp(prod, "1")
    rebuilds = []

    def no_sweep(*_args):
        raise AssertionError("swept a certified table")

    def counted(*args):
        rebuilds.append(args)
        return original(*args)

    original = tpstruct._rebuilds
    monkeypatch.setattr(tpstruct, "_sweep", no_sweep)
    monkeypatch.setattr(tpstruct, "_rebuilds", counted)
    assert tp_passes(verify_tp(prod))
    del rebuilds[:]
    dec = decompose_tp(prod, "1")
    assert len(rebuilds) == 1
    assert (dec.mu, dec.nu, dec.lam) == (expected.mu, expected.nu,
                                         expected.lam)


# --- random generation, decomposition, normalization -------------------------

def test_random_tp_is_deterministic(branch4):
    assert random_tp(branch4, seed=42) == random_tp(branch4, seed=42)
    assert random_tp(branch4, seed=42) != random_tp(branch4, seed=43)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=len(CATALOG) - 1))
def test_random_tp_verifies_and_round_trips(seed, pidx):
    p = CATALOG[pidx]
    mu, nu, lam, u0 = random_tp_components(p, seed)
    total = TPDecomposition(mu, nu, lam, u0).reconstruct()
    assert tp_passes(verify_tp(total))
    dec = decompose_tp(total, u0)
    assert same_components(p, dec, mu, nu, lam)


def test_two_u0_decompositions_rebuild_the_same_table(branch4):
    prod = random_tp(branch4, seed=9)
    decs = [decompose_tp(prod, u0) for u0 in ("1", "3")]
    assert decs[0].reconstruct() == prod
    assert decs[1].reconstruct() == prod


def test_rebasing_shifts_mu_by_zero_row_sums(vee):
    # moving the base across the bridge of an extreme pair turns its side
    # contributions into a zero-row-sum correction on mu; the corrected mu
    # can leave the two standalone families even though the rebuilt table
    # is unchanged
    mu = _rank_one_mu(vee, {"1": Fraction(1), "2": Fraction(0),
                            "3": Fraction(1)})
    lam = LambdaMap(vee, {("1", "2"): Fraction(3)})
    total = TPDecomposition(mu, NuElement(vee, {}), lam, "1").reconstruct()
    assert tp_passes(verify_tp(total))
    dec = decompose_tp(total, "2")
    assert dec.reconstruct() == total
    expected = {("1", "1"): Fraction(-2), ("1", "2"): Fraction(3),
                ("2", "2"): Fraction(-3), ("1", "3"): Fraction(1),
                ("3", "3"): Fraction(1)}
    assert dec.mu.values == expected
    corr = {k: dec.mu.value(*k) - mu.value(*k) for k in expected}
    assert corr == {("1", "1"): Fraction(-3), ("1", "2"): Fraction(3),
                    ("2", "2"): Fraction(-3), ("1", "3"): Fraction(0),
                    ("3", "3"): Fraction(0)}
    # the shift has zero row sums, so it is itself a valid family member,
    # but the corrected total is not
    corr_rows = {x: sum(corr.get((min(x, y), max(x, y)), Fraction(0))
                        for y in vee.elements) for x in vee.elements}
    assert set(corr_rows.values()) == {Fraction(0)}
    assert _mu_passes(vee, corr)
    assert not _mu_passes(vee, dec.mu.values)


def test_decompose_rejects_non_tp_tables(vee):
    good = random_tp(vee, seed=1)
    table = dict(good.table)
    # sabotage one entry so associativity must break
    pidx = vee.pair_index[("1", "2")]
    didx = vee.pair_index[("1", "1")]
    table[(didx, pidx)] = identity(vee)
    bad = tp_from_table(
        vee, {(vee.pairs[i], vee.pairs[j]): e for (i, j), e in table.items()})
    with pytest.raises(NotTransposedPoisson) as exc:
        decompose_tp(bad, "1")
    assert exc.value.report["witness"] is not None


def test_normalize_nu_frozen(chain3):
    dec = TPDecomposition(
        MuMap(chain3, {}), NuElement(chain3, {("1", "3"): Fraction(5)}),
        LambdaMap(chain3, {}), "1")
    norm, scales = normalize_nu(dec)
    assert norm.nu.values == {("1", "3"): Fraction(1)}
    assert scales == {("1", "3"): Fraction(1, 5)}
    transported = transport_product(dec.reconstruct(), scales)
    assert transported == norm.reconstruct()
    assert tp_passes(verify_tp(transported))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=len(CATALOG) - 1))
def test_normalize_nu_random(seed, pidx):
    p = CATALOG[pidx]
    mu, nu, lam, u0 = random_tp_components(p, seed)
    dec = TPDecomposition(mu, nu, lam, u0)
    norm, scales = normalize_nu(dec)
    assert set(norm.nu.values.values()) <= {Fraction(1)}
    assert norm.nu.support() == nu.support()
    assert norm.mu is mu and norm.lam is lam
    transported = transport_product(dec.reconstruct(), scales)
    assert transported == norm.reconstruct()
    assert tp_passes(verify_tp(transported))


def test_transport_refuses_a_zero_scale(chain2):
    prod = mutational(NuElement(chain2, {("1", "2"): 1}))
    with pytest.raises(ParseError, match=r"\('1', '1'\)"):
        transport_product(prod, {("1", "1"): 0})


def test_transport_refuses_a_pair_that_is_not_comparable(chain2):
    prod = mutational(NuElement(chain2, {("1", "2"): 1}))
    with pytest.raises(UnknownElement, match=r"\('2', '1'\)"):
        transport_product(prod, {("2", "1"): 2})


def test_unknown_base_point_is_refused_without_lambda(vee):
    # with no lambda weight nothing reads the side sets, yet u0 is checked
    empty = LambdaMap(vee, {})
    with pytest.raises(UnknownElement):
        lambda_structure(empty, "nope")
    dec = TPDecomposition(MuMap(vee, {("1", "1"): 1}),
                          NuElement(vee, {("1", "2"): 1}), empty, "nope")
    with pytest.raises(UnknownElement):
        dec.reconstruct()
    with pytest.raises(UnknownElement):
        sign_and_vset(vee, "nope", extreme_pairs(vee)[0])
