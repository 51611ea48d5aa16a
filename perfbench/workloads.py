"""The four benchmark workloads.

``SETUPS[name](rng, ctx)`` draws the workload's inputs from ``rng`` and
works out their expectations, then returns ``build``.  ``build()`` makes the
library objects the ops start from and returns one pass of the workload: a
list of timed ops plus untimed probes.  Only ``build`` counts as set-up
time, so the benchmark's own search for inputs and expectations does not.
An op's ``run`` makes the library calls that are timed; its ``check``
compares their output with an expectation fixed before the call (a closed
form, the independent reference, the generating inputs, or a verdict proven
by a witness) and returns None or a failure message.
``defect`` names the known open defect an op exposes when it fails.
"""

import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from lietp import algebra, halfder, poset, tpstruct

import gen
import reference

ITEM2 = "ROADMAP item 2: verify_tp samples triples above 40 basis pairs"
# corrupted copies of each tp-verify-large table, one op each: the sweep stops
# at the first witness, so the copies come from different strata of the basis
CORRUPTED_COPIES = 2
ANY_WITNESS = ("associative", "transposed_leibniz")
ITEM5 = "ROADMAP item 5: malformed command-line input is not rejected cleanly"


class Op(object):

    def __init__(self, name, run, check, defect=None):
        self.name = name
        self.run = run
        self.check = check
        self.defect = defect


class Plan(object):
    """One pass of a workload; ``tracer`` is set while a traced pass runs."""

    def __init__(self, ops, probes=()):
        self.ops = ops
        self.probes = list(probes)
        self.tracer = None


class Context(object):
    """Where a run lives: the checkout root and a scratch directory inside it."""

    def __init__(self, root, work, tiny=False):
        self.root = root
        self.work = work
        self.tiny = tiny


def _pick(ctx, full, tiny):
    return tiny if ctx.tiny else full


def _expect(cond, message):
    return None if cond else message


# the nonzero-count window of _components: a share of the typical count either side
NNZ_WINDOW = 0.1
CALIBRATION_DRAWS = 9
ANY_SIZE = (0, float("inf"))


def _nnz(prod):
    return sum(len(e.coeffs) for e in prod.table.values())


def _draws(p, rng, mu_lo, mu_hi):
    """Seeds whose random_tp_components on p have a nonzero nu and mu_lo..mu_hi mu values.

    A dense rank-one mu makes a table 10 to 100 times dearer to verify, and
    a zero nu can leave a chain's table empty, so a few such draws would set
    a run's time; fixing the class of every op's draw keeps the op mix the
    same from seed to seed.
    """
    for _ in range(10000):
        cseed = rng.randrange(1 << 31)
        comps = tpstruct.random_tp_components(p, cseed)
        if comps[1].values and mu_lo <= len(comps[0].values) <= mu_hi:
            yield cseed, comps
    raise RuntimeError("no mu with %d..%d values on %r" % (mu_lo, mu_hi, p))


def _nnz_window(p, mu_lo, mu_hi):
    """[lo, hi] within NNZ_WINDOW of the median table size of _draws on p.

    The median comes from a fixed calibration seed, so the window depends
    on the poset alone, not on the workload seed.
    """
    draws = _draws(p, random.Random(len(p.pairs)), mu_lo, mu_hi)
    found = sorted(_nnz(_built(p, next(draws)[0])) for _ in range(CALIBRATION_DRAWS))
    median = found[CALIBRATION_DRAWS // 2]
    return int(math.floor(median * (1 - NNZ_WINDOW))), int(math.ceil(median * (1 + NNZ_WINDOW)))


def _components(p, rng, mu_lo, mu_hi, window):
    """The first seed of _draws, and its components, whose table's nonzero
    count lies in ``window``.

    The verifier's and the decomposer's work grows with the table, so where
    the class leaves its size open, a _nnz_window holds it near the typical
    size and each op's work stays the same from seed to seed; only the
    coefficients change.
    """
    lo, hi = window
    for cseed, comps in _draws(p, rng, mu_lo, mu_hi):
        if lo <= _nnz(_built(p, cseed)) <= hi:
            return cseed, comps


def _table(prod):
    return {k: dict(e.coeffs) for k, e in prod.table.items()}


def _corruption(rng, prod, stratum=0, strata=1, kinds=ANY_WITNESS):
    """A +1 corruption (key, r) that a witness proves leaves no transposed Poisson table.

    The witness's identity must be one of ``kinds``.  The reference looks
    for a failing associativity first, so a transposed-Leibniz witness means
    the corrupted table is still associative.
    """
    pairs, table = prod.owner.pairs, _table(prod)
    for _ in range(10000):
        key, r = gen.corruption(rng, len(pairs), stratum, strata)
        witness = reference.Table(pairs, reference.corrupted(table, key, r)).witness(key)
        if witness is not None and witness[0] in kinds:
            return key, r
    raise RuntimeError("no corruption with a %s witness" % " or ".join(kinds))


def _corrupted(prod, key, r):
    p = prod.owner
    return tpstruct.TPProduct(p, {k: algebra.IncidenceElement(p, c) for k, c in
                                  reference.corrupted(_table(prod), key, r).items()})


def _built(p, cseed):
    return tpstruct.TPDecomposition(*tpstruct.random_tp_components(p, cseed)).reconstruct()


# --- tp-small ------------------------------------------------------------

def _data_posets(root):
    folder = os.path.join(root, "data")
    out = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".poset"):
            with open(os.path.join(folder, name)) as fh:
                out.append((name[:-6], fh.read()))
    return out


def _tp_small_run(p, cseed, u1, bad):
    mu, nu, lam, u0 = tpstruct.random_tp_components(p, cseed)
    prod = tpstruct.TPDecomposition(mu, nu, lam, u0).reconstruct()
    good = tpstruct.verify_tp(prod)
    rejected = tpstruct.verify_tp(bad)
    d0 = tpstruct.decompose_tp(prod, u0)
    d1 = tpstruct.decompose_tp(prod, u1)
    norm, scales = tpstruct.normalize_nu(d0)
    moved = tpstruct.transport_product(prod, scales)
    again = tpstruct.verify_tp(moved)
    return prod, good, rejected, d0, d1, norm, moved, again


def _tp_small_check(comps, out):
    mu, nu, lam = comps
    prod, good, rejected, d0, d1, norm, moved, again = out
    return (_expect(tpstruct.tp_passes(good), "valid table rejected")
            or _expect(not tpstruct.tp_passes(rejected), "corrupted table accepted")
            or _expect((d0.mu.values, d0.nu.values, d0.lam.values)
                       == (mu.values, nu.values, lam.values), "generators not recovered at u0")
            or _expect(d0.reconstruct() == prod and d1.reconstruct() == prod,
                       "decomposition does not rebuild the table")
            or _expect(set(norm.nu.values) == set(nu.values)
                       and all(v == 1 for v in norm.nu.values.values()), "nu not normalized")
            or _expect(moved == norm.reconstruct(), "transported table differs")
            or _expect(tpstruct.tp_passes(again), "transported table rejected"))


def setup_tp_small(rng, ctx):
    shapes = [(name, lambda t=text: poset.parse_poset(t)) for name, text in _data_posets(ctx.root)]
    for n in _pick(ctx, (4, 5, 6, 7, 8), (5,)):
        shapes.append(("fence-%d" % n, lambda n=n: poset.build_poset(*gen.fence(n))))
    for k in _pick(ctx, (2, 3, 4), (3,)):
        shapes.append(("crown-%d" % k, lambda k=k: poset.build_poset(*gen.crown(k))))
    # random posets stop at n = 7: the ops near the 90th percentile are then
    # those on the fixed shapes of 7 and 8 elements, whose cost the seed does
    # not move, where random n = 8 posets moved it by a tenth
    for i, n in enumerate(_pick(ctx, (4, 5, 6, 7) * 4, (5,))):
        labels, covers = gen.typical_random(rng, n, n // 2)
        shapes.append(("random-%d-n%d" % (i, n), lambda l=labels, c=covers: poset.build_poset(l, c)))
    chosen = []
    for name, make in shapes:
        p = make()
        # four draws per poset, 124 ops: enough that the median and the 90th
        # percentile hold still from seed to seed
        window = _nnz_window(p, 1, 6)
        for k in range(_pick(ctx, 4, 1)):
            cseed, (mu, nu, lam, _u0) = _components(p, rng, 1, 6, window)
            key, r = _corruption(rng, _built(p, cseed))
            chosen.append(("%s#%d" % (name, k), make, cseed, key, r,
                           rng.choice(p.elements[1:]), (mu, nu, lam)))

    def build():
        ops, posets = [], {}
        for name, make, cseed, key, r, u1, comps in chosen:
            p = posets.setdefault(make, make())
            bad = _corrupted(_built(p, cseed), key, r)
            ops.append(Op(name, lambda p=p, c=cseed, u1=u1, bad=bad: _tp_small_run(p, c, u1, bad),
                          lambda out, comps=comps: _tp_small_check(comps, out)))
        return Plan(ops)
    return build


# --- tp-verify-large -------------------------------------------------------

def _full_sweep():
    """verify_tp over every identity: full_cap=B while that parameter exists."""
    if "full_cap" in inspect.signature(tpstruct.verify_tp).parameters:
        return lambda prod: tpstruct.verify_tp(prod, full_cap=len(prod.owner.pairs))
    # looked up per call, so that a tracer's wrapper is the one called
    return lambda prod: tpstruct.verify_tp(prod)


def _sweep_check(expect_pass):
    def check(rep):
        return (_expect(not rep.get("sampled"), "sweep was sampled")
                or _expect(tpstruct.tp_passes(rep) == expect_pass,
                           "valid table rejected" if expect_pass else "corrupted table accepted"))
    return check


# sparse tables (mu = 0): nu and lambda only, few products per key
SPARSE = ((0, 0), ANY_WITNESS)


def _dense(labels):
    """Dense tables: a rank-one mu with every value nonzero puts a product on
    every key, and Fraction arithmetic does most of the sweep's work.

    Their corrupted copies break associativity, which the sweep meets within
    its first triples.  About half the draws on such a table only break the
    transposed Leibniz rule, found anywhere in that pass, so letting both
    kinds in would double or halve the op's cost from seed to seed.
    """
    n = len(labels)
    return (n * (n + 1) // 2, n * (n + 1) // 2), ("associative",)


def setup_tp_verify_large(rng, ctx):
    # (name, poset, class, whether the table's size needs a window): a
    # chain's sparse table is nu on its one minimal-maximal pair, as it has no
    # extreme pairs; nu on a dense crown's a*b such pairs varies by a few
    # percent only; a rank-one mu fills every key
    shapes = [("chain-%d" % n, gen.chain(n), SPARSE, False)
              for n in _pick(ctx, (11, 12, 14, 16), (11,))]
    shapes += [("dense-crown-%dx%d" % ab, gen.dense_crown(*ab), SPARSE, False)
               for ab in _pick(ctx, ((7, 8), (9, 10)), ((7, 8),))]
    for i in range(_pick(ctx, 4, 1)):
        shapes.append(("random-%d-n15" % i, gen.typical_random(rng, 15, 45), SPARSE, True))
    for name, (labels, covers) in _pick(ctx, (("chain-9", gen.chain(9)),
                                             ("dense-crown-4x5", gen.dense_crown(4, 5))),
                                        (("chain-6", gen.chain(6)),)):
        shapes.append(("rank-one-mu:" + name, (labels, covers), _dense(labels), False))
    chosen = []
    for name, (labels, covers), ((mu_lo, mu_hi), kinds), sized in shapes:
        p = poset.build_poset(labels, covers)
        window = _nnz_window(p, mu_lo, mu_hi) if sized else ANY_SIZE
        cseed, _comps = _components(p, rng, mu_lo, mu_hi, window)
        prod = _built(p, cseed)
        chosen.append((name, labels, covers, cseed, [
            _corruption(rng, prod, k, CORRUPTED_COPIES, kinds) for k in range(CORRUPTED_COPIES)]))
    sweep = _full_sweep()

    def build():
        ops, probes = [], []
        for name, labels, covers, cseed, corruptions in chosen:
            prod = _built(poset.build_poset(labels, covers), cseed)
            ops.append(Op(name, lambda g=prod: sweep(g), _sweep_check(True)))
            for k, (key, r) in enumerate(corruptions):
                bad = _corrupted(prod, key, r)
                ops.append(Op("%s:corrupted-%d" % (name, k), lambda b=bad: sweep(b),
                              _sweep_check(False)))
                probes.append(Op("default-verify:%s:corrupted-%d" % (name, k),
                                 lambda b=bad: tpstruct.verify_tp(b),
                                 lambda rep: _expect(not tpstruct.tp_passes(rep), "default verify_tp "
                                                     "accepted a corrupted table"), ITEM2))
        return Plan(ops, probes)
    return build


# --- poset-ladder ------------------------------------------------------------

def _chain_summary(labels, covers):
    n = len(labels)
    strict = {(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)}
    extreme = {covers[0]: (1, frozenset(labels[1:]))} if n == 2 else {}
    return {"basis": n * (n + 1) // 2, "classes": {frozenset(strict)},
            "bridges": set(covers), "extreme": extreme,
            "min": {labels[0]}, "max": {labels[-1]},
            "minmax": {(labels[0], labels[-1])}, "dimension": n + 2}


def _fence_summary(labels, covers):
    n = len(labels)
    extreme = {}
    for i, cover in enumerate(covers):
        # u0 = f0 sits on the prefix side, which holds the lower end iff i is even
        extreme[cover] = (1 if i % 2 == 0 else -1, frozenset(labels[i + 1:]))
    return {"basis": 2 * n - 1, "classes": {frozenset([c]) for c in covers},
            "bridges": set(covers), "extreme": extreme,
            "min": set(labels[0::2]), "max": set(labels[1::2]),
            "minmax": set(covers), "dimension": 3 * n - 2}


def _crown_summary(labels, covers):
    k = len(labels) // 2
    return {"basis": 4 * k, "classes": {frozenset(covers)}, "bridges": set(),
            "extreme": {}, "min": set(labels[:k]), "max": set(labels[k:]),
            "minmax": set(covers), "dimension": 4 * k + 1}


def _ladder_run(labels, covers):
    p = poset.build_poset(labels, covers)
    classes = poset.pair_classes(p)
    _blocks, bridges = poset.blocks_and_bridges(p)
    extreme = poset.extreme_pairs(p)
    u0 = p.elements[0]
    signs = {e: poset.sign_and_vset(p, u0, e) for e in extreme}
    mins, maxs = poset.min_max(p)
    mm = algebra.minmax_pairs(p)
    return {"basis": len(p.pairs), "classes": {frozenset(c) for c in classes.classes},
            "bridges": set(bridges), "extreme": signs, "min": set(mins), "max": set(maxs),
            "minmax": set(mm), "dimension": len(p.elements) + len(classes) + len(mm)}


def _ladder_check(expected, got):
    bad = [k for k in expected if got[k] != expected[k]]
    return "differs from the reference in " + ", ".join(bad) if bad else None


# (n, how many random posets of n elements) per poset-ladder pass
LADDER_RANDOM = ((12, 10), (24, 14), (36, 30), (48, 24), (60, 4))


def setup_poset_ladder(rng, ctx):
    cases = [("chain-%d" % n, gen.chain(n), _chain_summary)
             for n in _pick(ctx, (2, 8, 16, 32, 40), (2, 8))]
    cases += [("fence-%d" % n, gen.fence(n), _fence_summary)
              for n in _pick(ctx, (16, 32, 64, 128), (9,))]
    cases += [("crown-%d" % (2 * k), gen.crown(k), _crown_summary)
              for k in _pick(ctx, (4, 8, 16), (3,))]
    # many random posets at a few sizes, half sparse and half denser: the
    # median and the 90th percentile op then each fall inside one size, where
    # enough draws sit that their order statistics barely move with the seed
    for n, count in _pick(ctx, LADDER_RANDOM, ((12, 2),)):
        for k in range(count):
            extra = n // 6 if k % 2 == 0 else n // 3
            cases.append(("random-n%d-e%d-%d" % (n, extra, k), gen.typical_random(rng, n, extra),
                          lambda l, c: reference.Order(l, c).summary(l[0])))
    expected = [expect(labels, covers) for _name, (labels, covers), expect in cases]

    def build():
        return Plan([Op(name, lambda l=labels, c=covers: _ladder_run(l, c),
                        lambda got, e=e: _ladder_check(e, got))
                     for (name, (labels, covers), _expect), e in zip(cases, expected)])
    return build


# --- cli-mixed ---------------------------------------------------------------

class CliCall(object):
    """One ``lietp`` process; under a tracer it runs through the tracing shim."""

    def __init__(self, ctx, plan, args):
        self.ctx = ctx
        self.plan = plan
        self.args = args

    def __call__(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.ctx.root, "src"))
        tracer = self.plan.tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "lietp.cli"] + self.args
        else:
            spans = os.path.join(self.ctx.work, "child-spans.json")
            shim = os.path.join(self.ctx.root, "perfbench", "cli_child.py")
            cmd = [sys.executable, shim, spans] + self.args
        start = time.perf_counter()
        res = subprocess.run(cmd, cwd=self.ctx.root, env=env, capture_output=True,
                             text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            with open(spans) as fh:
                child = json.load(fh)
            main = [s for s in child["spans"] if s[0] == "cli.main"]
            tracer.counts["cli.process_s"] += elapsed
            tracer.counts["cli.startup_s"] += elapsed - sum(s[2] - s[1] for s in main)
            tracer.merge(child["spans"], child["counts"], tracer.op)
        return res


class CliCheck(object):
    """Exactly one JSON document, no traceback, exit 0 iff ``expect_pass``, then ``detail``."""

    def __init__(self, expect_pass, detail=None):
        self.expect_pass = expect_pass
        self.detail = detail

    def __call__(self, res):
        if "Traceback" in res.stderr:
            return "traceback: " + res.stderr.strip().splitlines()[-1]
        try:
            doc = json.loads(res.stdout)
        except ValueError:
            return "stdout is not exactly one JSON document"
        if (res.returncode == 0) != self.expect_pass:
            return "exit %d, expected %s" % (res.returncode, "0" if self.expect_pass else "1")
        return self.detail(doc) if self.detail else None


def _rows(rows):
    return {(r["x"], r["y"]): Fraction(r["value"]) for r in rows}


def _write(ctx, name, text):
    path = os.path.join(ctx.work, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _random_operator(rng, p):
    """inner(c) + phi_sigma + central_valued(kappa) with seeded rational parts."""
    def q():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    c = halfder.CentralElement(p, {pr: q() for pr in algebra.minmax_pairs(p)})
    part = poset.pair_classes(p)
    sigma = halfder.SigmaMap(part, [q() for _ in part.classes])
    kappa = halfder.KappaMap(p, {x: q() for x in p.elements})
    u0 = p.elements[0]
    op = halfder.inner(c) + halfder.phi_sigma(sigma, u0) + halfder.central_valued(kappa)
    images = [{"from": x, "to": y, "image": gen.records(op.columns[k], p.pairs)}
              for k, (x, y) in enumerate(p.pairs)]
    expected = {"c": {k: str(v) for k, v in c.values.items()},
                "sigma": {r: str(v) for r, v in sigma.by_representative()},
                "kappa": {x: str(v) for x, v in kappa.values.items()}}
    return json.dumps({"images": images}), expected


def _decomposition_matches(expected):
    def check(doc):
        dec = doc["decomposition"]
        got = {"c": {(r["from"], r["to"]): r["value"] for r in dec["c"]},
               "sigma": {(r["from"], r["to"]): r["value"] for r in dec["sigma"]},
               "kappa": {r["element"]: r["value"] for r in dec["kappa"]}}
        return _expect(got == expected, "decomposition differs from the generating operator")
    return check


def setup_cli_mixed(rng, ctx):
    calls = []

    def add(name, args, expect_pass, detail=None, defect=None):
        calls.append((name, args, expect_pass, detail, defect))

    add("examples", ["examples"], True,
        lambda doc: _expect(doc["status"] == "PASS" and len(doc["results"]) == 6,
                            "examples did not all pass"))
    posets = [(name, (p.elements, p.covers)) for name, p in
              ((name, poset.parse_poset(text)) for name, text in _data_posets(ctx.root))]
    for n in _pick(ctx, (5, 6, 8), (5,)):
        posets.append(("random-n%d" % n, gen.typical_random(rng, n, n // 2)))
    for name, (labels, covers) in posets[:_pick(ctx, len(posets), 2)]:
        ref = reference.Order(labels, covers).summary(labels[0])
        path = _write(ctx, "analyze-%s.poset" % name, gen.poset_text(labels, covers))
        add("analyze:" + name, ["analyze", path], True,
            lambda doc, ref=ref: _expect(
                doc["predicted_dimension"] == ref["dimension"]
                and {(e["from"], e["to"]) for e in doc["extreme_pairs"]} == set(ref["extreme"]),
                "analyze report differs from the reference"))

    twochains = os.path.join(ctx.root, "data", "twochains5")
    add("decompose:twochains5", ["decompose", twochains + ".poset", twochains + "_op.json"],
        True, lambda doc: _expect(doc["reconstruction"] == "ok", "no reconstruction"))
    for i, n in enumerate(_pick(ctx, (6, 8), (5,))):
        labels, covers = gen.typical_random(rng, n, n // 2)
        p = poset.build_poset(labels, covers)
        text, expected = _random_operator(rng, p)
        ppath = _write(ctx, "op-%d.poset" % i, gen.poset_text(labels, covers))
        opath = _write(ctx, "op-%d.json" % i, text)
        add("decompose:random-%d" % i, ["decompose", ppath, opath], True,
            _decomposition_matches(expected))

    for i, n in enumerate(_pick(ctx, (5, 6, 8), (5,))):
        labels, covers = gen.typical_random(rng, n, n // 2)
        p = poset.build_poset(labels, covers)
        cseed, (mu, nu, lam, u0) = _components(p, rng, 1, 6, _nnz_window(p, 1, 6))
        prod = _built(p, cseed)
        bad = _corrupted(prod, *_corruption(rng, prod))
        ppath = _write(ctx, "tp-%d.poset" % i, gen.poset_text(labels, covers))
        comps = _write(ctx, "tp-%d-components.json" % i,
                       gen.components_json(mu.values, nu.values, lam.values, u0))
        good_t = _write(ctx, "tp-%d-table.json" % i, gen.table_json(
            p.pairs, {k: e.coeffs for k, e in prod.table.items()}))
        bad_t = _write(ctx, "tp-%d-corrupted.json" % i, gen.table_json(
            p.pairs, {k: e.coeffs for k, e in bad.table.items()}))
        want = {"mu": mu.values, "nu": nu.values, "lambda": lam.values}
        add("tp-build:%d" % i, ["tp", "build", ppath, comps], True)
        add("tp-verify:%d" % i, ["tp", "verify", ppath, good_t], True)
        add("tp-verify-corrupted:%d" % i, ["tp", "verify", ppath, bad_t], False,
            lambda doc: _expect("verify" in doc, "no verify report"))
        add("tp-decompose:%d" % i, ["tp", "decompose", ppath, good_t, "--u0", u0], True,
            lambda doc, want=want: _expect(
                all(_rows(doc["decomposition"][k]) == v for k, v in want.items()),
                "decomposition differs from the generating components"))
        add("tp-normalize:%d" % i, ["tp", "normalize", ppath, comps], True,
            lambda doc, nu=nu: _expect(
                doc["consistent"] is True
                and _rows(doc["decomposition"]["nu"]) == {k: 1 for k in nu.values},
                "nu not normalized"))

    oracle = [("chain-%d" % n, gen.chain(n)) for n in _pick(ctx, (6, 8, 11), (6,))]
    for n in _pick(ctx, (5, 6, 8), (5,)):
        oracle.append(("random-n%d" % n, gen.typical_random(rng, n, n // 2)))
    for name, (labels, covers) in oracle:
        dim = reference.Order(labels, covers).summary(labels[0])["dimension"]
        path = _write(ctx, "oracle-%s.poset" % name, gen.poset_text(labels, covers))
        add("halfder-oracle:" + name, ["halfder", path, "--oracle"], True,
            lambda doc, dim=dim: _expect(doc["oracle"] == {"dimension": dim, "verdict": "EQUAL"},
                                         "oracle dimension differs from the reference"))

    labels, covers = gen.typical_random(rng, 6, 3)
    nu_pair = sorted(reference.Order(labels, covers).minmax_pairs())[0]
    for name, command, ptext, dtext in gen.malformed_inputs(labels, covers, nu_pair):
        args = command + [_write(ctx, "bad-%s.poset" % name, ptext)]
        if dtext is not None:
            args.append(_write(ctx, "bad-%s.json" % name, dtext))
        add("malformed:" + name, args, False,
            lambda doc: _expect("error" in doc, "no error report"), ITEM5)

    def build():
        plan = Plan([])
        plan.ops = [Op(name, CliCall(ctx, plan, args), CliCheck(expect_pass, detail), defect)
                    for name, args, expect_pass, detail, defect in calls]
        return plan
    return build


SETUPS = {
    "tp-small": setup_tp_small,
    "tp-verify-large": setup_tp_verify_large,
    "poset-ladder": setup_poset_ladder,
    "cli-mixed": setup_cli_mixed,
}
