"""Byte-for-byte pins of the `lietp tp` and `lietp decompose` reports on
the shipped posets.

`cli_tp_pinned.json` holds, for every `data/` poset, seeded components
files (from `random_tp_components`, plus one whose mu, (x,x) = (x,y) = 1
on the first two elements, fails the Poisson-type condition, so that
`tp build` prints a table whose verify report fails), the tables `tp
build` printed for them and a copy of each with one coefficient raised by
1.  For every `tp build`, `tp verify`, `tp decompose` (at every base
point) and `tp normalize` invocation it records the exit code and the
exact stdout.  The expected outputs were recorded from the code as it
stood before the constructor layer was rewritten for speed, except for
the failing-mu cases, recorded again when mu stopped being judged on its
own: `build` now prints the table and a failing report where it printed
an error.  The `normalize` cases were recorded again when normalize began
to judge the rescaled table with `build`'s certificate: the failing-mu
files and three seeded files at their last base point (chain2-s1, en-s3,
vee-s3), which are not transposed Poisson there, now exit 1 with
`consistent: false`.

`cli_decompose_pinned.json` holds, for every `data/` poset, seeded
operators from `random_half_derivation` decomposed at every base point, a
copy of each with one coefficient raised by 1 so that it is no longer a
half-derivation, and one with a strict basis vector's image moved off that
vector, with the exit code and the exact stdout of each `lietp decompose`.
It was recorded from the code as it stood before the half-derivation check
was replaced by the verifier's sparse kernel.

`cli_analyze_pinned.json` holds, for every `data/` poset, the exit code and
the exact stdout of `lietp analyze` at every base point and of `lietp
halfder` with and without `--oracle`.  It was recorded from the code as it
stood before the poset layer was rewritten on element indices.

Regenerate the files (run this module as a script with `src` on the path)
only for an intended change of output.
"""

import contextlib
import io
import json
import pathlib
import random

from lietp import cli

PIN = pathlib.Path(__file__).with_name("cli_tp_pinned.json")
DECOMPOSE_PIN = pathlib.Path(__file__).with_name("cli_decompose_pinned.json")
ANALYZE_PIN = pathlib.Path(__file__).with_name("cli_analyze_pinned.json")
SEEDS = (1, 2, 3)
DECOMPOSE_SEEDS = (1, 2)


def _run(words, argv, data_dir, folder):
    """(exit code, stdout) of `lietp *words *argv`, argv starting with the
    poset file name (read from data_dir) and the data file name (from
    folder)."""
    poset_name, doc = argv[:2]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(words + [str(data_dir / poset_name), str(folder / doc)]
                      + argv[2:])
    return rc, buf.getvalue()


def _invoke(case, data_dir, folder):
    """(exit code, stdout) of one `lietp tp` case, its data file read from
    folder."""
    return _run(["tp", case["argv"][0]], case["argv"][1:], data_dir, folder)


def test_tp_stdout_matches_pinned_bytes(data_dir, tmp_path):
    pin = json.loads(PIN.read_text())
    for name, doc in pin["inputs"].items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert {c["argv"][1] for c in pin["cases"]} == {
        path.name for path in data_dir.glob("*.poset")}
    for case in pin["cases"]:
        assert _invoke(case, data_dir, tmp_path) == (
            case["exit"], case["stdout"]), case["argv"]


def test_tp_normalize_agrees_with_build(data_dir, tmp_path):
    # normalize judges with build's certificate: on every pinned components
    # file at every base point, normalize's (exit, consistent) is build's
    # (exit, verdict)
    from lietp import poset, tpstruct

    pin = json.loads(PIN.read_text())
    files = {c["argv"][2]: c["argv"][1] for c in pin["cases"]
             if c["argv"][2].endswith("-components.json")}
    assert len(files) == 4 * len(list(data_dir.glob("*.poset")))
    for name, poset_name in sorted(files.items()):
        (tmp_path / name).write_text(json.dumps(pin["inputs"][name]))
        p = poset.parse_poset((data_dir / poset_name).read_text())
        for u in p.elements:
            argv = [poset_name, name, "--u0", u]
            rc, out = _run(["tp", "build"], argv, data_dir, tmp_path)
            verdict = tpstruct.tp_passes(json.loads(out)["verify"])
            rc_norm, out = _run(["tp", "normalize"], argv, data_dir, tmp_path)
            assert (rc_norm, json.loads(out)["consistent"]) == (
                rc, verdict), argv


def test_decompose_stdout_matches_pinned_bytes(data_dir, tmp_path):
    pin = json.loads(DECOMPOSE_PIN.read_text())
    for name, doc in pin["inputs"].items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert {c["argv"][0] for c in pin["cases"]} == {
        path.name for path in data_dir.glob("*.poset")}
    assert {json.loads(c["stdout"]).get("error", {}).get("type")
            for c in pin["cases"]} == {None, "NotHalfDerivation"}
    for case in pin["cases"]:
        assert _run(["decompose"], case["argv"], data_dir, tmp_path) == (
            case["exit"], case["stdout"]), case["argv"]


def _analyze_argvs(data_dir):
    """Every `lietp analyze` (at each base point) and `lietp halfder`
    (with and without the oracle) argv, by poset file name."""
    from lietp import poset

    argvs = []
    for path in sorted(data_dir.glob("*.poset")):
        p = poset.parse_poset(path.read_text())
        argvs += [["analyze", path.name, "--u0", u] for u in p.elements]
        argvs += [["halfder", path.name], ["halfder", path.name, "--oracle"]]
    return argvs


def _run_analyze(argv, data_dir):
    """(exit code, stdout) of one analyze or halfder argv."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([argv[0], str(data_dir / argv[1])] + argv[2:])
    return rc, buf.getvalue()


def test_analyze_and_halfder_stdout_match_pinned_bytes(data_dir):
    cases = json.loads(ANALYZE_PIN.read_text())["cases"]
    assert [c["argv"] for c in cases] == _analyze_argvs(data_dir)
    for case in cases:
        assert _run_analyze(case["argv"], data_dir) == (
            case["exit"], case["stdout"]), case["argv"]


def _generate_analyze(data_dir, tmp):
    """(inputs, cases) for the analyze pin: no inputs beyond data/."""
    cases = []
    for argv in _analyze_argvs(data_dir):
        rc, out = _run_analyze(argv, data_dir)
        cases.append({"argv": argv, "exit": rc, "stdout": out})
    return {}, cases


def _generate(data_dir, tmp):
    """(inputs, cases) for the pin, each case run once against this tree."""
    from lietp import poset, tpstruct

    inputs, cases = {}, []

    def record(poset_name, name, doc, invocations):
        inputs[name] = doc
        (tmp / name).write_text(json.dumps(doc))
        for mode, extra in invocations:
            case = {"argv": [mode, poset_name, name] + extra}
            case["exit"], case["stdout"] = _invoke(case, data_dir, tmp)
            cases.append(case)
        return cases[-len(invocations):]

    for path in sorted(data_dir.glob("*.poset")):
        p = poset.parse_poset(path.read_text())
        stem, last = path.stem, p.elements[-1]
        for seed in SEEDS:
            comps = json.loads(cli._dumps(cli._decomposition_payload(
                tpstruct.TPDecomposition(
                    *tpstruct.random_tp_components(p, seed)))))
            built = record(path.name, "%s-s%d-components.json" % (stem, seed),
                           comps, [("build", []), ("normalize", []),
                                   ("normalize", ["--u0", last])])
            table = json.loads(built[0]["stdout"])["table"]
            record(path.name, "%s-s%d-table.json" % (stem, seed),
                   {"table": table}, [("verify", [])] + [
                       ("decompose", ["--u0", u]) for u in p.elements])
            if not table:
                continue
            bad = json.loads(json.dumps(table))
            rec = bad[seed % len(bad)]["product"][0]
            rec["numerator"] += rec["denominator"]
            record(path.name, "%s-s%d-corrupt.json" % (stem, seed),
                   {"table": bad}, [("verify", []), ("decompose", [])])
        x, y = p.elements[:2]
        record(path.name, "%s-badmu-components.json" % stem,
               {"mu": [{"x": x, "y": x, "value": 1},
                       {"x": x, "y": y, "value": 1}]},
               [("build", []), ("normalize", [])])
    return inputs, cases


def _generate_decompose(data_dir, tmp):
    """(inputs, cases) for the decompose pin, each case run once against
    this tree."""
    from helpers import operator_document, plus_one, random_half_derivation
    from lietp import algebra, halfder, poset

    inputs, cases = {}, []

    def record(poset_name, name, op, extras):
        doc = inputs[name] = operator_document(op)
        (tmp / name).write_text(json.dumps(doc))
        for extra in extras:
            case = {"argv": [poset_name, name] + extra}
            case["exit"], case["stdout"] = _run(
                ["decompose"], case["argv"], data_dir, tmp)
            cases.append(case)

    for path in sorted(data_dir.glob("*.poset")):
        p = poset.parse_poset(path.read_text())
        stem = path.stem
        for seed in DECOMPOSE_SEEDS:
            rng = random.Random(seed)
            op = random_half_derivation(p, rng)[0]
            record(path.name, "%s-s%d-op.json" % (stem, seed), op,
                   [["--u0", u] for u in p.elements])
            bad = plus_one(op, rng)
            while halfder.is_half_derivation(bad)[0]:
                bad = plus_one(op, rng)
            record(path.name, "%s-s%d-corrupt.json" % (stem, seed), bad, [[]])
        x, y = p.strict_pairs[0]
        moved = op + halfder.operator_from_images(
            p, {(x, y): algebra.diag_unit(p, x)})
        record(path.name, "%s-strict-image.json" % stem, moved, [[]])
    return inputs, cases


if __name__ == "__main__":
    import sys
    import tempfile

    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    for pin, generate in ((PIN, _generate),
                          (DECOMPOSE_PIN, _generate_decompose),
                          (ANALYZE_PIN, _generate_analyze)):
        with tempfile.TemporaryDirectory() as tmp:
            inputs, cases = generate(here.parent / "data", pathlib.Path(tmp))
        pin.write_text(json.dumps({"inputs": inputs, "cases": cases},
                                  indent=1) + "\n")
