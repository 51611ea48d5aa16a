"""Seeded input generators for the benchmark workloads.

Every generator takes an explicit ``random.Random`` (or none at all), so one
workload seed always yields the same inputs.  Posets are returned as
``(labels, covers)``: the label list in input order and the cover pairs
``(lower, upper)``, ready for ``build_poset`` or for a poset file.
"""

import json
import math
import random

import reference

# the B window of typical_random: a share of the median B either side of it
WINDOW = 0.05
CALIBRATION_DRAWS = 25


def chain(n, prefix="c"):
    labels = ["%s%d" % (prefix, i) for i in range(n)]
    return labels, list(zip(labels, labels[1:]))


def fence(n):
    """Zigzag f0 < f1 > f2 < f3 ...: a path whose every cover is an extreme pair."""
    labels = ["f%d" % i for i in range(n)]
    covers = [(labels[i], labels[i + 1]) if i % 2 == 0 else (labels[i + 1], labels[i])
              for i in range(n - 1)]
    return labels, covers


def crown(k):
    """2k elements a_i < b_i, a_i < b_(i+1 mod k): one cover cycle of length 2k."""
    lows = ["a%d" % i for i in range(k)]
    highs = ["b%d" % i for i in range(k)]
    covers = []
    for i in range(k):
        covers.append((lows[i], highs[i]))
        covers.append((lows[i], highs[(i + 1) % k]))
    return lows + highs, covers


def dense_crown(a, b):
    """Complete bipartite order: every one of a minimal elements below every one of b maximal ones."""
    lows = ["a%d" % i for i in range(a)]
    highs = ["b%d" % j for j in range(b)]
    return lows + highs, [(x, y) for x in lows for y in highs]


def random_connected(rng, n, extra):
    """Random connected poset on n elements.

    A random recursive tree on a hidden linear extension keeps the order
    connected; ``extra`` further random relations along that extension add
    cycles and height.  The covers are the transitive reduction, and labels
    and covers are shuffled so input order says nothing about the order.
    """
    succ = [set() for _ in range(n)]
    for j in range(1, n):
        succ[rng.randrange(j)].add(j)
    for _ in range(extra):
        i, j = sorted(rng.sample(range(n), 2))
        succ[i].add(j)
    above = [0] * n
    for i in range(n - 1, -1, -1):
        for j in succ[i]:
            above[i] |= (1 << j) | above[j]
    covers = [(i, j) for i in range(n) for j in succ[i]
              if not any(above[k] >> j & 1 for k in succ[i] if k != j)]
    names = ["v%d" % i for i in range(n)]
    rng.shuffle(names)
    labels = list(names)
    rng.shuffle(labels)
    covers = [(names[i], names[j]) for i, j in covers]
    rng.shuffle(covers)
    return labels, covers


def basis_count(labels, covers):
    """Number of basis pairs B = |{(x, y): x <= y}| of the order the covers generate."""
    return sum(len(up) for up in reference.upsets(labels, covers).values())


def basis_window(n, extra, width=WINDOW):
    """[lo, hi] within ``width`` of the median B of random_connected(n, extra).

    The median comes from a fixed calibration seed, so the window is the
    same whatever the workload seed.
    """
    rng = random.Random(1000 * n + extra)
    found = sorted(basis_count(*random_connected(rng, n, extra)) for _ in range(CALIBRATION_DRAWS))
    median = found[CALIBRATION_DRAWS // 2]
    return int(math.floor(median * (1 - width))), int(math.ceil(median * (1 + width)))


def typical_random(rng, n, extra):
    """A random_connected(rng, n, extra) poset whose B lies in basis_window(n, extra).

    The library's work on a poset grows with B (the poset layer with about
    B squared), so holding B near its typical value keeps the work of every
    op the same from seed to seed; only the order's shape changes.
    """
    lo, hi = basis_window(n, extra)
    while True:
        labels, covers = random_connected(rng, n, extra)
        if lo <= basis_count(labels, covers) <= hi:
            return labels, covers


def corruption(rng, B, stratum=0, strata=1):
    """One seeded +1 on the coefficient of basis r in the product of basis i <= j.

    The coefficient may be zero beforehand (off-table), so the corruption
    can add a new product as well as change an existing one.  How far a
    verifier's sweep runs before it meets the corruption depends mostly on
    i, so i is drawn from a narrow window (a twentieth of B) at the middle
    of the given stratum of [0, B): the cost of rejecting the copy then
    barely depends on the seed, and copies of one table drawn from
    different strata make the verifier meet their corruptions at different
    depths.
    """
    mid = (2 * stratum + 1) * B // (2 * strata)
    half = max(1, B // 40)
    i = rng.randrange(max(0, mid - half), min(B, mid + half + 1))
    return (i, rng.randrange(i, B)), rng.randrange(B)


def poset_text(labels, covers, extra_lines=()):
    lines = ["elements: " + " ".join(labels)]
    lines += ["%s < %s" % c for c in covers]
    lines += list(extra_lines)
    return "\n".join(lines) + "\n"


def records(coeffs, pairs):
    """Element records, as the command line reads them, from {basis index: Fraction}."""
    return [{"from": pairs[k][0], "to": pairs[k][1],
             "numerator": v.numerator, "denominator": v.denominator}
            for k, v in sorted(coeffs.items())]


def table_json(pairs, table):
    """The ``tp verify`` / ``tp decompose`` input for {(i, j): {r: Fraction}}."""
    rows = []
    for (i, j), coeffs in sorted(table.items()):
        rows.append({"left": {"from": pairs[i][0], "to": pairs[i][1]},
                     "right": {"from": pairs[j][0], "to": pairs[j][1]},
                     "product": records(coeffs, pairs)})
    return json.dumps({"table": rows})


def components_json(mu, nu, lam, u0):
    """The ``tp build`` / ``tp normalize`` input for (mu, nu, lambda) at u0."""
    def rows(vals):
        return [{"x": x, "y": y, "value": str(v)} for (x, y), v in sorted(vals.items())]
    return json.dumps({"u0": u0, "mu": rows(mu), "nu": rows(nu), "lambda": rows(lam)})


def malformed_inputs(labels, covers, nu_pair):
    """The malformed command-line inputs, as (name, command, poset text, data text or None).

    Each must be rejected with exit 1 and one JSON error document: a data
    file holding ``[]``, a ``"1/0"`` value, a JSON ``true`` value, and a
    poset file that repeats a cover line.
    """
    text = poset_text(labels, covers)
    x, y = nu_pair

    def nu_value(v):
        return json.dumps({"mu": [], "nu": [{"x": x, "y": y, "value": v}], "lambda": []})

    return [
        ("empty-list-data", ["tp", "verify"], text, "[]"),
        ("zero-denominator", ["tp", "build"], text, nu_value("1/0")),
        ("json-true-value", ["tp", "build"], text, nu_value(True)),
        ("duplicate-cover", ["analyze"], poset_text(labels, covers, ["%s < %s" % covers[0]]),
         None),
    ]
