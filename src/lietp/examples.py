"""The worked examples behind `lietp examples`.

Each example is frozen as literal data and re-derived by the library: the
poset, its extreme pairs with sign and far-side set at u0 = the first
element, and the full product tables of the mutational structure (all nu
values 1) and of the lambda structure with the coefficients listed in
"lam".  Tables are rows (left pair, right pair, cells).  The library is
called through its modules, so that a tracer wrapping a module's function
sees the call.
"""

from fractions import Fraction

from . import algebra, poset, tpstruct
from .errors import GoldenMismatch, NotTransposedPoisson

GOLDEN_EXAMPLES = (
    {
        "name": "chain n=2",
        "elements": ("1", "2"),
        "covers": ((("1", "2")),),
        "extreme": (("1", "2"),),
        "sign_v": {("1", "2"): (1, ("2",))},
        "nu": {("1", "2"): 1},
        "lam": {("1", "2"): 1},
        "mutational": (
            (("1", "1"), ("1", "1"), (("1", "2", -1),)),
            (("1", "1"), ("2", "2"), (("1", "2", 1),)),
            (("2", "2"), ("2", "2"), (("1", "2", -1),)),
        ),
        "lambda_table": (
            (("1", "1"), ("1", "2"), (("1", "2", 1),)),
            (("2", "2"), ("1", "2"), (("1", "2", -1),)),
            (("1", "1"), ("1", "1"), (("2", "2", -1),)),
            (("1", "1"), ("2", "2"), (("2", "2", 1),)),
            (("2", "2"), ("2", "2"), (("2", "2", -1),)),
        ),
    },
    {
        "name": "chain n=5",
        "elements": ("1", "2", "3", "4", "5"),
        "covers": (("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")),
        "extreme": (),
        "sign_v": {},
        "nu": {("1", "5"): 1},
        "lam": {},
        "mutational": (
            (("1", "1"), ("1", "1"), (("1", "5", -1),)),
            (("1", "1"), ("5", "5"), (("1", "5", 1),)),
            (("5", "5"), ("5", "5"), (("1", "5", -1),)),
        ),
        "lambda_table": (),
    },
    {
        "name": "two atoms over a root",
        "elements": ("1", "2", "3"),
        "covers": (("1", "2"), ("1", "3")),
        "extreme": (("1", "2"), ("1", "3")),
        "sign_v": {("1", "2"): (1, ("2",)), ("1", "3"): (1, ("3",))},
        "nu": {("1", "2"): 1, ("1", "3"): 1},
        "lam": {("1", "2"): 1, ("1", "3"): 2},
        "mutational": (
            (("1", "1"), ("1", "1"), (("1", "2", -1), ("1", "3", -1))),
            (("1", "1"), ("2", "2"), (("1", "2", 1),)),
            (("1", "1"), ("3", "3"), (("1", "3", 1),)),
            (("2", "2"), ("2", "2"), (("1", "2", -1),)),
            (("3", "3"), ("3", "3"), (("1", "3", -1),)),
        ),
        "lambda_table": (
            (("1", "1"), ("1", "2"), (("1", "2", 1),)),
            (("2", "2"), ("1", "2"), (("1", "2", -1),)),
            (("1", "1"), ("1", "3"), (("1", "3", 2),)),
            (("3", "3"), ("1", "3"), (("1", "3", -2),)),
            (("1", "1"), ("1", "1"), (("2", "2", -1), ("3", "3", -2))),
            (("1", "1"), ("2", "2"), (("2", "2", 1),)),
            (("1", "1"), ("3", "3"), (("3", "3", 2),)),
            (("2", "2"), ("2", "2"), (("2", "2", -1),)),
            (("3", "3"), ("3", "3"), (("3", "3", -2),)),
        ),
    },
    {
        "name": "chain with a branch",
        "elements": ("1", "2", "3", "4"),
        "covers": (("1", "2"), ("2", "3"), ("1", "4")),
        "extreme": (("1", "4"),),
        "sign_v": {("1", "4"): (1, ("4",))},
        "nu": {("1", "3"): 1, ("1", "4"): 1},
        "lam": {("1", "4"): 7},
        "mutational": (
            (("1", "1"), ("1", "1"), (("1", "3", -1), ("1", "4", -1))),
            (("1", "1"), ("3", "3"), (("1", "3", 1),)),
            (("1", "1"), ("4", "4"), (("1", "4", 1),)),
            (("3", "3"), ("3", "3"), (("1", "3", -1),)),
            (("4", "4"), ("4", "4"), (("1", "4", -1),)),
        ),
        "lambda_table": (
            (("1", "1"), ("1", "4"), (("1", "4", 7),)),
            (("4", "4"), ("1", "4"), (("1", "4", -7),)),
            (("1", "1"), ("1", "1"), (("4", "4", -7),)),
            (("1", "1"), ("4", "4"), (("4", "4", 7),)),
            (("4", "4"), ("4", "4"), (("4", "4", -7),)),
        ),
    },
    {
        "name": "zigzag on four elements",
        "elements": ("1", "2", "3", "4"),
        "covers": (("1", "3"), ("2", "3"), ("2", "4")),
        "extreme": (("1", "3"), ("2", "3"), ("2", "4")),
        "sign_v": {("1", "3"): (1, ("2", "3", "4")),
                   ("2", "3"): (-1, ("2", "4")),
                   ("2", "4"): (1, ("4",))},
        "nu": {("1", "3"): 1, ("2", "3"): 1, ("2", "4"): 1},
        "lam": {("1", "3"): 1, ("2", "3"): 2, ("2", "4"): 3},
        "mutational": (
            (("1", "1"), ("1", "1"), (("1", "3", -1),)),
            (("1", "1"), ("3", "3"), (("1", "3", 1),)),
            (("2", "2"), ("2", "2"), (("2", "3", -1), ("2", "4", -1))),
            (("2", "2"), ("3", "3"), (("2", "3", 1),)),
            (("2", "2"), ("4", "4"), (("2", "4", 1),)),
            (("3", "3"), ("3", "3"), (("1", "3", -1), ("2", "3", -1))),
            (("4", "4"), ("4", "4"), (("2", "4", -1),)),
        ),
        "lambda_table": (
            (("1", "1"), ("1", "3"), (("1", "3", 1),)),
            (("3", "3"), ("1", "3"), (("1", "3", -1),)),
            (("2", "2"), ("2", "3"), (("2", "3", 2),)),
            (("3", "3"), ("2", "3"), (("2", "3", -2),)),
            (("2", "2"), ("2", "4"), (("2", "4", 3),)),
            (("4", "4"), ("2", "4"), (("2", "4", -3),)),
            (("1", "1"), ("1", "1"),
             (("2", "2", -1), ("3", "3", -1), ("4", "4", -1))),
            (("1", "1"), ("3", "3"),
             (("2", "2", 1), ("3", "3", 1), ("4", "4", 1))),
            (("2", "2"), ("2", "2"), (("2", "2", 2), ("4", "4", -1))),
            (("2", "2"), ("3", "3"), (("2", "2", -2), ("4", "4", -2))),
            (("2", "2"), ("4", "4"), (("4", "4", 3),)),
            (("3", "3"), ("3", "3"),
             (("2", "2", 1), ("3", "3", -1), ("4", "4", 1))),
            (("4", "4"), ("4", "4"), (("4", "4", -3),)),
        ),
    },
    {
        "name": "crown on four elements",
        "elements": ("1", "2", "3", "4"),
        "covers": (("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")),
        "extreme": (),
        "sign_v": {},
        "nu": {("1", "3"): 1, ("1", "4"): 1, ("2", "3"): 1, ("2", "4"): 1},
        "lam": {},
        "mutational": (
            (("1", "1"), ("1", "1"), (("1", "3", -1), ("1", "4", -1))),
            (("1", "1"), ("3", "3"), (("1", "3", 1),)),
            (("1", "1"), ("4", "4"), (("1", "4", 1),)),
            (("2", "2"), ("2", "2"), (("2", "3", -1), ("2", "4", -1))),
            (("2", "2"), ("3", "3"), (("2", "3", 1),)),
            (("2", "2"), ("4", "4"), (("2", "4", 1),)),
            (("3", "3"), ("3", "3"), (("1", "3", -1), ("2", "3", -1))),
            (("4", "4"), ("4", "4"), (("1", "4", -1), ("2", "4", -1))),
        ),
        "lambda_table": (),
    },
)


def _golden_product(p, rows):
    entries = {}
    for left, right, cells in rows:
        entries[(tuple(left), tuple(right))] = algebra.element(
            p, {(a, b): Fraction(v) for a, b, v in cells})
    return tpstruct.tp_from_table(p, entries)


def _check_example(ex):
    name = ex["name"]
    p = poset.build_poset(list(ex["elements"]),
                          [tuple(c) for c in ex["covers"]])
    u0 = p.elements[0]
    expected_extreme = [tuple(pr) for pr in ex["extreme"]]
    if poset.extreme_pairs(p) != expected_extreme:
        raise GoldenMismatch("%s: extreme pair set differs" % name)
    for pr, (sgn, side) in sorted(ex["sign_v"].items(),
                                  key=lambda it: p.pair_key(it[0])):
        got_sgn, got_side = poset.sign_and_vset(p, u0, tuple(pr))
        if got_sgn != sgn or got_side != frozenset(side):
            raise GoldenMismatch("%s: sign or side set differs at %r"
                                 % (name, pr))
    nu = tpstruct.NuElement(
        p, {tuple(k): Fraction(v) for k, v in ex["nu"].items()})
    lam = tpstruct.LambdaMap(
        p, {tuple(k): Fraction(v) for k, v in ex["lam"].items()})
    mut = tpstruct.mutational(nu)
    if mut != _golden_product(p, ex["mutational"]):
        raise GoldenMismatch("%s: mutational product table differs" % name)
    lst = tpstruct.lambda_structure(lam, u0)
    if lst != _golden_product(p, ex["lambda_table"]):
        raise GoldenMismatch("%s: lambda product table differs" % name)
    try:
        dec = tpstruct.decompose_tp(tpstruct.sum_products(mut, lst), u0)
    except NotTransposedPoisson:
        raise GoldenMismatch("%s: summed table fails verification" % name)
    if any(dec.mu.values.values()):
        raise GoldenMismatch("%s: decomposition has a spurious mu part" % name)
    if dec.nu.values != nu.values or dec.lam.values != lam.values:
        raise GoldenMismatch("%s: decomposition does not recover the inputs"
                             % name)
    return {"name": name, "status": "PASS"}


def _run_examples(golden=GOLDEN_EXAMPLES):
    results = [_check_example(ex) for ex in golden]
    return {"command": "examples", "results": results, "status": "PASS"}
