"""Benchmark of the lietp library and its command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: each op starts when the previous one ends.
A pass runs every op of the workload once; passes repeat until the next one
would end after S seconds (at least one pass runs).  ``wall_s`` is the
median pass time, and the op percentiles are taken over every timed op
execution.  ``setup_s`` is the median import time of the library in five
fresh interpreters plus the median of five set-ups.  The run
re-executes itself with a fixed PYTHONHASHSEED so that every run hashes
alike.  With ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the per-layer figures come from the traced passes;
spans are written to ``.perfbench/``.

The last stdout line is the result JSON; the line before it records the
environment, the sample counts and every failed op by name.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up and the library's import are timed this many times each; a single
# import reading moves by half between runs on a shared host
SETUP_REPEATS = 5
IMPORT_LIBRARY = ("import time; start = time.perf_counter(); import lietp.cli; "
                  "print(time.perf_counter() - start)")
HASH_SEED = "0"
SWEEP_RULE = ("complete sweeps call verify_tp(prod, full_cap=B) while that parameter "
              "exists, else verify_tp(prod)")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER_TIMED = ("poset.build_poset", "poset.pair_classes", "poset.blocks_and_bridges",
                   "poset.extreme_pairs", "poset.sign_and_vset", "tpstruct.verify_tp",
                   "halfder.is_half_derivation", "halfder.unit_brackets",
                   "tpstruct.decompose_tp", "halfder.half_derivation_space")
PER_LAYER_GROUPS = {
    "algebra.from_records": ("algebra.from_records",),
    "tpstruct.constructors": ("tpstruct.poisson_type", "tpstruct.mutational",
                              "tpstruct.lambda_structure", "tpstruct.sum_products"),
    "tpstruct.normalize": ("tpstruct.normalize_nu", "tpstruct.transport_product"),
    "cli.main": ("cli.main",),
}


class Stats(object):
    """What timed passes produced: each op's times, each pass's time, and failures."""

    def __init__(self, ops):
        self.times = [[] for _ in ops]
        self.pass_s = []
        self.attempted = 0
        self.failures = []   # (op name, message, defect or None)

    @property
    def passes(self):
        return len(self.pass_s)

    def samples(self):
        """Every timed op execution of the run."""
        return [t for times in self.times for t in times]


def run_op(op, stats, times, tracer=None):
    """Time one op into ``times``, then check its output untimed and untraced."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op, the run goes on
        out, msg = None, "raised %s: %s" % (type(exc).__name__, exc)
    else:
        msg = None
    times.append(time.perf_counter() - start)
    stats.attempted += 1
    if msg is None:
        if tracer is not None:
            tracer.recording = False
        try:
            msg = op.check(out)
        finally:
            if tracer is not None:
                tracer.recording = True
    if msg is not None:
        stats.failures.append((op.name, msg, op.defect))


def measure(plan, seconds, stats, tracer=None):
    """Run whole passes of ``plan`` until the next one would overrun ``seconds``."""
    start = time.perf_counter()
    plan.tracer = tracer
    if tracer is not None:
        tracer.install()
    try:
        while True:
            t0 = time.perf_counter()
            for op, times in zip(plan.ops, stats.times):
                if tracer is not None:
                    tracer.op = "%d:%s" % (stats.passes, op.name)
                run_op(op, stats, times, tracer)
            # a pass's time is that of its ops, without their checks
            stats.pass_s.append(sum(times[-1] for times in stats.times))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        plan.tracer = None


def percentile(values, q):
    """Inclusive quantile q of values (the value itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s, stats, workload):
    usage = resource.RUSAGE_CHILDREN if workload == "cli-mixed" else resource.RUSAGE_SELF
    samples = stats.samples()
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(stats.pass_s),
        "op_p50_ms": 1000 * statistics.median(samples),
        "op_p90_ms": 1000 * percentile(samples, 90),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, traced, untraced):
    passes = traced.passes
    totals = tracer.totals()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in PER_LAYER_TIMED:
        calls, self_s = totals.get(name, (0, 0.0))
        put(name + ".calls", calls / passes, "count")
        put(name + ".self_s", self_s / passes, "s")
    for group, names in PER_LAYER_GROUPS.items():
        put(group + ".self_s", sum(totals.get(n, (0, 0.0))[1] for n in names) / passes, "s")
    calls = totals.get("tpstruct.verify_tp", (0, 0.0))[0]
    put("tpstruct.verify_tp.table_nnz",
        counts["tpstruct.verify_tp.table_nnz"] / calls if calls else 0, "count")
    put("algebra.coeff_max_bits", counts["algebra.coeff_max_bits"], "bits")
    put("halfder.half_derivation_space.unknowns",
        counts["halfder.half_derivation_space.unknowns"] / passes, "count")
    put("cli.process_s", counts["cli.process_s"] / passes, "s")
    put("cli.startup_s", counts["cli.startup_s"] / passes, "s")
    put("trace.overhead",
        statistics.median(traced.pass_s) / statistics.median(untraced.pass_s) - 1, "ratio")
    return out


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lietp")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def import_s():
    """Median time to import the whole library in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", IMPORT_LIBRARY], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(res.stdout))
    return statistics.median(times)


def run(workload, seed, seconds, trace, tiny=False, plan_hook=None):
    """Set up and measure one workload; returns (info, result) as printed."""
    import tracing
    import workloads

    base = os.path.join(ROOT, ".perfbench")
    ctx = workloads.Context(ROOT, os.path.join(base, "work-%d" % os.getpid()), tiny)
    os.makedirs(ctx.work, exist_ok=True)
    try:
        build = workloads.SETUPS[workload](random.Random(seed), ctx)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            plan = build()
            setups.append(time.perf_counter() - start)
        if plan_hook is not None:
            plan_hook(plan)
        setup_s = import_s() + statistics.median(setups)

        untraced = Stats(plan.ops)
        measure(plan, seconds / 2.0 if trace else seconds, untraced)
        traced = None
        if trace:
            tracer = tracing.Tracer()
            traced = Stats(plan.ops)
            measure(plan, seconds / 2.0, traced, tracer)
            tracer.write(os.path.join(base, "trace-%s-%d.json" % (workload, seed)))
            metrics = per_layer(tracer, traced, untraced)
        else:
            # read the peak before the probes run and before commit() starts git
            metrics = end_to_end(setup_s, untraced, workload)
        probes = Stats(plan.probes)
        for op in plan.probes:
            run_op(op, probes, [])
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    runs = [s for s in (untraced, traced, probes) if s is not None]
    attempted = sum(s.attempted for s in runs)
    failures = [f for s in runs for f in s.failures]
    failed = [f for f in failures if f[2] is None]
    known = [f for f in failures if f[2] is not None]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "commit": commit(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "sweep_rule": SWEEP_RULE, "peak_rss_scope": (
            "the largest child: a lietp command or a smaller import-timing "
            "interpreter" if workload == "cli-mixed" else
            "set-up, the untimed reference and the timed passes"),
        "passes": untraced.passes, "ops_per_pass": len(plan.ops),
        "op_samples": len(untraced.samples()), "probes": len(plan.probes),
        "attempted": attempted, "failed": len(failed),
        "known_defect_failures": len(known),
        "fail_ratio": len(failures) / attempted,
        "failed_ops": [{"op": n, "reason": m, "defect": d, "count": c}
                       for (n, m, d), c in collections.Counter(failures).items()],
    }
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    return info, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        ("tp-small", "tp-verify-large", "poset-ladder", "cli-mixed")))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lietp", "__init__.py")):
        sys.stderr.write("perfbench: no lietp sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set and dict orders of string keys move the library's cost by up to
        # half, so every run, and every command-line child, hashes alike
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in sorted(result["metrics"].items()):
        sys.stderr.write("%-44s %14.6g %s\n" % (name, m["value"], m["unit"]))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
