"""Byte-for-byte pin of the `lietp tp` reports on the shipped posets.

`cli_tp_pinned.json` holds, for every `data/` poset, seeded components
files (from `random_tp_components`, plus one mu that fails the Poisson-type
condition), the tables `tp build` printed for them and a copy of each with
one coefficient raised by 1.  For every `tp build`, `tp verify`,
`tp decompose` (at every base point) and `tp normalize` invocation it
records the exit code and the exact stdout.  The expected outputs were
recorded from the code as it stood before the constructor layer was
rewritten for speed; regenerate the file (run this module as a script with
`src` on the path) only for an intended change of output.
"""

import contextlib
import io
import json
import pathlib

from lietp import cli

PIN = pathlib.Path(__file__).with_name("cli_tp_pinned.json")
SEEDS = (1, 2, 3)


def _invoke(case, data_dir, folder):
    """(exit code, stdout) of one case, its data file read from folder."""
    mode, poset_name, doc = case["argv"][:3]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["tp", mode, str(data_dir / poset_name),
                       str(folder / doc)] + case["argv"][3:])
    return rc, buf.getvalue()


def test_tp_stdout_matches_pinned_bytes(data_dir, tmp_path):
    pin = json.loads(PIN.read_text())
    for name, doc in pin["inputs"].items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert {c["argv"][1] for c in pin["cases"]} == {
        path.name for path in data_dir.glob("*.poset")}
    for case in pin["cases"]:
        assert _invoke(case, data_dir, tmp_path) == (
            case["exit"], case["stdout"]), case["argv"]


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
            comps = cli._decomposition_payload(tpstruct.TPDecomposition(
                *tpstruct.random_tp_components(p, seed)))
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


if __name__ == "__main__":
    import tempfile

    data_dir = pathlib.Path(__file__).resolve().parent.parent / "data"
    with tempfile.TemporaryDirectory() as tmp:
        inputs, cases = _generate(data_dir, pathlib.Path(tmp))
    PIN.write_text(json.dumps({"inputs": inputs, "cases": cases}, indent=1)
                   + "\n")
