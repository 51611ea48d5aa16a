"""Acceptance gate: one test per advertised guarantee.

Each test prints as a single pass/fail line under pytest -v.  Time budgets
are asserted where a guarantee carries one; everything else is exact
equality of rationals, so there are no tolerances anywhere.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import (brute_extreme_pairs, brute_pair_classes, chain, crown,
                     full_catalog, operator_document, poset_text,
                     random_admissible_sigma, random_connected_poset,
                     random_half_derivation, random_walk, same_components,
                     walk_diag_value)
from lietp import algebra, cli
from lietp.halfder import (decompose, half_derivation_space,
                           is_half_derivation, operator_from_images,
                           pair_classes, phi_sigma)
from lietp.poset import build_poset, extreme_pairs
from lietp.tpstruct import (TPDecomposition, decompose_tp, lambda_structure,
                            mutational, normalize_nu, poisson_type,
                            random_tp_components, tp_passes, transport_product,
                            verify_tp)

CATALOG = full_catalog()


def _constructor_cases():
    for i in range(500):
        p = CATALOG[i % len(CATALOG)]
        mu, nu, lam, u0 = random_tp_components(p, seed=i)
        yield p, mu, nu, lam, u0


def test_criterion_1_golden_examples_cli():
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "lietp.cli", "examples"],
                         capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stdout + res.stderr
    assert '"status": "PASS"' in res.stdout
    assert res.stdout.count('"name"') == 6
    assert elapsed < 1.0


def test_criterion_2_worked_half_derivation_decomposes():
    start = time.perf_counter()
    p = build_poset(["1", "2", "3", "4", "5"],
                    [("1", "2"), ("1", "3"), ("2", "4"), ("3", "5")])
    phi = operator_from_images(p, {
        ("1", "1"): algebra.element(p, {("1", "1"): 1, ("3", "3"): 1,
                                        ("5", "5"): 1}),
        ("1", "2"): algebra.unit(p, "1", "2"),
        ("1", "4"): algebra.unit(p, "1", "4"),
        ("2", "2"): algebra.diag_unit(p, "2"),
        ("2", "4"): algebra.unit(p, "2", "4"),
        ("4", "4"): algebra.diag_unit(p, "4"),
    })
    ok, witness = is_half_derivation(phi)
    assert ok and witness is None
    dec = decompose(phi, "1")
    assert dec.c.values == {}
    assert dec.sigma.class_values == [Fraction(1), Fraction(0)]
    assert [cls[0] for cls in dec.sigma.partition.classes] == [
        ("1", "2"), ("1", "3")]
    assert dec.kappa.values == {"1": Fraction(1)}
    assert dec.reconstruct() == phi
    assert time.perf_counter() - start < 0.1


def test_criterion_3_dimension_law_against_oracle():
    start = time.perf_counter()
    posets = list(CATALOG)
    for i in range(200):
        rng = random.Random(1000 + i)
        posets.append(random_connected_poset(rng, 6 + i % 2))
    posets += [chain(n) for n in range(2, 17)]
    posets += [crown(k) for k in range(2, 6)]
    for i in range(9):
        rng = random.Random(3000 + i)
        posets.append(random_connected_poset(rng, 8 + i % 3,
                                             dense=i % 2 == 1))
    for p in posets:
        predicted = (len(p.elements) + len(pair_classes(p))
                     + len(algebra.minmax_pairs(p)))
        basis = half_derivation_space(p)
        assert len(basis) == predicted
    assert time.perf_counter() - start < 120.0


def test_criterion_4_constructor_families_verify():
    start = time.perf_counter()
    for p, mu, nu, lam, u0 in _constructor_cases():
        parts = [poisson_type(mu), mutational(nu), lambda_structure(lam, u0)]
        total = TPDecomposition(mu, nu, lam, u0).reconstruct()
        for prod in parts + [total]:
            assert tp_passes(verify_tp(prod))
    assert time.perf_counter() - start < 120.0


def test_criterion_5_decomposition_round_trip():
    for p, mu, nu, lam, u0 in _constructor_cases():
        total = TPDecomposition(mu, nu, lam, u0).reconstruct()
        dec = decompose_tp(total, u0)
        assert same_components(p, dec, mu, nu, lam)
        other = decompose_tp(total, p.elements[1])
        assert other.reconstruct() == total
        assert dec.reconstruct() == total


def test_criterion_6_combinatorics_against_cycle_enumeration():
    for p in CATALOG:
        assert extreme_pairs(p) == brute_extreme_pairs(p)
        assert pair_classes(p).classes == brute_pair_classes(p)


def test_criterion_7_walk_formula_is_walk_independent():
    for i in range(200):
        p = CATALOG[i % len(CATALOG)]
        rng = random.Random(5000 + i)
        sigma = random_admissible_sigma(p, rng)
        u0 = rng.choice(p.elements)
        v = rng.choice(p.elements)
        op = phi_sigma(sigma, u0)
        for x in p.elements:
            reference = op.image_of_pair((x, x)).coeff(v, v)
            for _ in range(5):
                walk = random_walk(p, rng, u0, v)
                assert walk_diag_value(sigma, walk, x) == reference


def test_criterion_8_nu_normalization():
    nonzero = 0
    for p, mu, nu, lam, u0 in _constructor_cases():
        if not nu.values:
            continue
        nonzero += 1
        dec = TPDecomposition(mu, nu, lam, u0)
        norm, scales = normalize_nu(dec)
        assert set(norm.nu.values.values()) == {Fraction(1)}
        assert norm.nu.support() == nu.support()
        assert norm.mu is mu and norm.lam is lam
        transported = transport_product(dec.reconstruct(), scales)
        assert transported == norm.reconstruct()
        assert tp_passes(verify_tp(transported))
    assert nonzero > 100


def test_criterion_9_decompose_chain48_in_half_a_second(tmp_path):
    p = chain(48)
    op = random_half_derivation(p, random.Random(48), u0="1")[0]
    bad = op + operator_from_images(p, {("1", "2"): algebra.diag_unit(p, "1")})
    (tmp_path / "chain48.poset").write_text(poset_text(p))
    runs = []
    for name, operator in (("op.json", op), ("bad.json", bad)):
        (tmp_path / name).write_text(json.dumps(operator_document(operator)))
        start = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "lietp.cli", "decompose",
                              str(tmp_path / "chain48.poset"),
                              str(tmp_path / name)],
                             capture_output=True, text=True)
        runs.append((res, time.perf_counter() - start))
    (good, elapsed), (rejected, _) = runs
    assert good.returncode == 0, good.stdout + good.stderr
    assert '"reconstruction": "ok"' in good.stdout
    assert elapsed < 0.5
    assert rejected.returncode == 1, rejected.stdout + rejected.stderr
    assert json.loads(rejected.stdout)["error"]["type"] == "NotHalfDerivation"
