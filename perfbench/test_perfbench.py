"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(workload, trace=False, plan_hook=None):
    return run.run(workload, seed=7, seconds=0.01, trace=trace, tiny=True, plan_hook=plan_hook)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_named_metric(workload, trace):
    info, result = tiny(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0
    # the only failures allowed are the known defects, each named with its item
    assert all(f["defect"].startswith("ROADMAP item") for f in info["failed_ops"])
    if workload in ("tp-small", "poset-ladder"):
        assert info["failed_ops"] == []
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_sees_each_layer():
    _info, ladder = tiny("poset-ladder", trace=True)
    assert ladder["metrics"]["poset.pair_classes.calls"]["value"] > 0
    assert ladder["metrics"]["tpstruct.verify_tp.calls"]["value"] == 0
    _info, verify = tiny("tp-verify-large", trace=True)
    assert verify["metrics"]["tpstruct.verify_tp.table_nnz"]["value"] > 0
    assert verify["metrics"]["halfder.is_half_derivation.self_s"]["value"] > 0
    _info, cli = tiny("cli-mixed", trace=True)
    m = cli["metrics"]
    assert m["cli.process_s"]["value"] > m["cli.startup_s"]["value"] > 0
    assert m["cli.main.self_s"]["value"] > 0
    assert m["halfder.half_derivation_space.unknowns"]["value"] > 0
    assert m["algebra.coeff_max_bits"]["value"] > 0
    assert os.path.isfile(os.path.join(ROOT, ".perfbench", "trace-cli-mixed-7.json"))


def test_checks_leave_no_spans():
    from lietp import poset

    def busy_checks(plan):
        for op in plan.ops:
            op.check = lambda out, check=op.check: (
                poset.pair_classes(poset.build_poset(*gen.chain(4))), check(out))[1]

    name = "poset.pair_classes.calls"
    _info, plain = tiny("poset-ladder", trace=True)
    _info, busy = tiny("poset-ladder", trace=True, plan_hook=busy_checks)
    assert busy["metrics"][name]["value"] == plain["metrics"][name]["value"] > 0


def test_wrong_expected_exit_code_is_a_failure():
    def flip(plan):
        next(op for op in plan.ops if op.name == "examples").check.expect_pass = False

    info, result = tiny("cli-mixed", plan_hook=flip)
    assert not result["correct"] and result["failed"] >= 1
    assert any(f["op"] == "examples" and f["defect"] is None for f in info["failed_ops"])


def test_wrong_expected_verdict_is_a_failure():
    def flip(plan):
        for op in plan.ops:
            op.check = lambda out, check=op.check: None if check(out) else "verdict as expected"

    info, result = tiny("tp-verify-large", plan_hook=flip)
    assert result["failed"] == info["passes"] * info["ops_per_pass"]
    assert not result["correct"]


def test_full_sweep_calls_the_verifier_installed_at_call_time(monkeypatch):
    # a tracer installs its wrapper after set-up; the sweep must still reach it
    import workloads
    from lietp import tpstruct

    monkeypatch.setattr(tpstruct, "verify_tp", lambda prod: "at set-up")
    sweep = workloads._full_sweep()
    monkeypatch.setattr(tpstruct, "verify_tp", lambda prod: "wrapped")
    assert sweep(None) == "wrapped"


def test_same_seed_same_inputs():
    assert gen.random_connected(random.Random(5), 20, 6) == gen.random_connected(
        random.Random(5), 20, 6)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tp-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=str(tmp_path), capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
