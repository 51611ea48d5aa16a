import copy
import json
import os
import subprocess
import sys

import pytest

from lietp import algebra, cli, examples, poset, tpstruct
from lietp.errors import GoldenMismatch, ParseError


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, json.loads(capsys.readouterr().out)


def test_analyze_vee_frozen(capsys, data_dir):
    rc, rep = run_cli(capsys, "analyze", str(data_dir / "vee.poset"))
    assert rc == 0
    assert rep["command"] == "analyze"
    assert rep["poset"]["min"] == ["1"] and rep["poset"]["max"] == ["2", "3"]
    assert rep["u0"] == "1"
    assert rep["bridges"] == [{"from": "1", "to": "2"},
                              {"from": "1", "to": "3"}]
    assert rep["cycle_count"] == 0
    assert rep["extreme_pairs"] == [
        {"from": "1", "to": "2", "sign": 1, "side": ["2"]},
        {"from": "1", "to": "3", "sign": 1, "side": ["3"]}]
    assert rep["pair_classes"] == [
        {"representative": {"from": "1", "to": "2"}, "size": 1},
        {"representative": {"from": "1", "to": "3"}, "size": 1}]
    assert rep["commutator_center_basis"] == [
        {"from": "1", "to": "2"}, {"from": "1", "to": "3"}]
    assert rep["predicted_dimension"] == 7


def test_analyze_u0_flag(capsys, data_dir):
    rc, rep = run_cli(capsys, "analyze", str(data_dir / "vee.poset"),
                      "--u0", "2")
    assert rc == 0
    assert rep["u0"] == "2"
    # the side set is the component away from u0, so it flips with the base
    assert rep["extreme_pairs"] == [
        {"from": "1", "to": "2", "sign": -1, "side": ["1", "3"]},
        {"from": "1", "to": "3", "sign": 1, "side": ["3"]}]


def test_analyze_unknown_u0(capsys, data_dir):
    rc, rep = run_cli(capsys, "analyze", str(data_dir / "vee.poset"),
                      "--u0", "99")
    assert rc == 1
    assert rep["error"]["type"] == "UnknownElement"


def test_missing_poset_file(capsys, tmp_path):
    rc, rep = run_cli(capsys, "analyze", str(tmp_path / "nope.poset"))
    assert rc == 1
    assert rep["error"]["type"] == "ParseError"


def test_halfder_structural_only(capsys, data_dir):
    rc, rep = run_cli(capsys, "halfder", str(data_dir / "vee.poset"))
    assert rc == 0
    assert "oracle" not in rep
    st = rep["structural"]
    assert st["dimension"] == 7
    assert st["inner_basis"] == [{"from": "1", "to": "2"},
                                 {"from": "1", "to": "3"}]
    assert st["sigma_classes"] == [{"from": "1", "to": "2"},
                                   {"from": "1", "to": "3"}]
    assert st["kappa_elements"] == ["1", "2", "3"]


def test_halfder_oracle_agreement(capsys, data_dir):
    rc, rep = run_cli(capsys, "halfder", str(data_dir / "vee.poset"),
                      "--oracle")
    assert rc == 0
    assert rep["oracle"] == {"dimension": 7, "verdict": "EQUAL"}


def _write_poset(path, labels, covers):
    path.write_text("elements: %s\n" % " ".join(labels)
                    + "".join("%s < %s\n" % c for c in covers))
    return str(path)


def test_halfder_oracle_default_cap(capsys, tmp_path):
    # the cap admits B**2 <= 20000 unknowns: a 16-chain has B = 136
    # comparable pairs, a 17-chain B = 153
    def chain_file(n):
        labels = ["c%d" % i for i in range(n)]
        return _write_poset(tmp_path / ("chain%d.poset" % n), labels,
                            zip(labels, labels[1:]))

    rc, rep = run_cli(capsys, "halfder", chain_file(16), "--oracle")
    assert rc == 0
    assert rep["oracle"] == {"dimension": 18, "verdict": "EQUAL"}
    rc, rep = run_cli(capsys, "halfder", chain_file(17), "--oracle")
    assert rc == 1
    assert rep["error"] == {
        "type": "TooLarge", "detail": "system has 23409 unknowns, cap is 20000"}


def test_analyze_cycle_count_limit(capsys, tmp_path):
    # the complete bipartite cover graph K_{k,k} has 3940 simple cycles at
    # k = 5, and more than the 10,000 that analyze counts at k = 6
    for k, expected in ((5, 3940), (6, None)):
        below = ["a%d" % i for i in range(k)]
        above = ["b%d" % i for i in range(k)]
        path = _write_poset(tmp_path / ("k%d.poset" % k), below + above,
                            [(a, b) for a in below for b in above])
        rc, rep = run_cli(capsys, "analyze", path)
        assert rc == 0
        assert rep["cycle_count"] == expected


def test_decompose_frozen(capsys, data_dir):
    rc, rep = run_cli(capsys, "decompose",
                      str(data_dir / "twochains5.poset"),
                      str(data_dir / "twochains5_op.json"))
    assert rc == 0
    assert rep["decomposition"] == {
        "u0": "1",
        "c": [],
        "sigma": [{"from": "1", "to": "2", "value": "1"},
                  {"from": "1", "to": "3", "value": "0"}],
        "kappa": [{"element": "1", "value": "1"}],
    }
    assert rep["reconstruction"] == "ok"


def test_decompose_rejects_unknown_pair(capsys, data_dir, tmp_path):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"images": [
        {"from": "2", "to": "1",
         "image": [{"from": "1", "to": "1", "numerator": 1,
                    "denominator": 1}]}]}))
    rc, rep = run_cli(capsys, "decompose", str(data_dir / "vee.poset"),
                      str(op))
    assert rc == 1
    assert rep["error"]["type"] == "UnknownElement"


def test_decompose_rejects_an_operator_that_repeats_a_pair(capsys, data_dir,
                                                          tmp_path):
    # e_12 -> e_11 alone is no half-derivation; a second, empty row for
    # e_12 used to replace it and decompose the zero operator
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"images": [
        {"from": "1", "to": "2",
         "image": [{"from": "1", "to": "1", "numerator": 1,
                    "denominator": 1}]},
        {"from": "1", "to": "2", "image": []}]}))
    err = _rejected(capsys, "decompose", str(data_dir / "chain2.poset"),
                    str(op))
    assert err["type"] == "ParseError"
    assert "is given twice" in err["detail"]


def test_tp_build_verify_decompose_roundtrip(capsys, data_dir, tmp_path):
    comps = {"u0": "1",
             "nu": [{"x": "1", "y": "2", "value": 1},
                    {"x": "1", "y": "3", "value": 1}],
             "lambda": [{"x": "1", "y": "2", "value": 1},
                        {"x": "1", "y": "3", "value": 1}]}
    cfile = tmp_path / "components.json"
    cfile.write_text(json.dumps(comps))
    vee = str(data_dir / "vee.poset")

    rc, rep = run_cli(capsys, "tp", "build", vee, str(cfile))
    assert rc == 0
    assert rep["verify"] == {"associative": True, "transposed_leibniz": True,
                             "witness": None}

    tfile = tmp_path / "table.json"
    tfile.write_text(json.dumps({"table": rep["table"]}))
    rc, rep2 = run_cli(capsys, "tp", "verify", vee, str(tfile))
    assert rc == 0 and rep2["verify"]["witness"] is None

    rc, rep3 = run_cli(capsys, "tp", "decompose", vee, str(tfile))
    assert rc == 0
    assert rep3["decomposition"] == {
        "u0": "1", "mu": [],
        "nu": [{"x": "1", "y": "2", "value": "1"},
               {"x": "1", "y": "3", "value": "1"}],
        "lambda": [{"x": "1", "y": "2", "value": "1"},
                   {"x": "1", "y": "3", "value": "1"}]}
    assert rep3["reconstruction"] == "ok"


def test_tp_build_incompatible_sum_fails(capsys, data_dir, tmp_path):
    # a lambda structure and an everywhere-positive Poisson part can each
    # pass alone, but their sum breaks associativity
    comps = {"u0": "1",
             "mu": [{"x": "1", "y": "1", "value": 1},
                    {"x": "1", "y": "2", "value": 1},
                    {"x": "2", "y": "2", "value": 1}],
             "lambda": [{"x": "1", "y": "2", "value": 1}]}
    cfile = tmp_path / "components.json"
    cfile.write_text(json.dumps(comps))
    rc, rep = run_cli(capsys, "tp", "build", str(data_dir / "chain2.poset"),
                      str(cfile))
    assert rc == 1
    assert rep["verify"]["associative"] is False
    assert rep["verify"]["transposed_leibniz"] is True
    assert rep["verify"]["witness"] == {
        "check": "associative",
        "triple": [["1", "1"], ["1", "1"], ["2", "2"]]}


def test_tp_decompose_output_builds_and_normalizes(capsys, data_dir,
                                                   tmp_path):
    # the decomposition that `tp decompose` prints at any base point is a
    # components file that `tp build` turns back into the same table; its
    # mu is judged jointly with its lambda, so a mu that fails the lambda = 0
    # condition on its own still builds
    cfile, tfile = tmp_path / "components.json", tmp_path / "table.json"
    for path in sorted(data_dir.glob("*.poset")):
        p = poset.parse_poset(path.read_text())
        for seed in range(10):
            cfile.write_text(cli._dumps(cli._decomposition_payload(
                tpstruct.TPDecomposition(
                    *tpstruct.random_tp_components(p, seed)))))
            rc, built = run_cli(capsys, "tp", "build", str(path), str(cfile))
            assert rc == 0, (path.name, seed)
            tfile.write_text(json.dumps({"table": built["table"]}))
            for u in p.elements:
                rc, rep = run_cli(capsys, "tp", "decompose", str(path),
                                  str(tfile), "--u0", u)
                assert rc == 0, (path.name, seed, u)
                cfile.write_text(json.dumps(rep["decomposition"]))
                rc, rebuilt = run_cli(capsys, "tp", "build", str(path),
                                      str(cfile))
                assert (rc, rebuilt.get("table")) == (0, built["table"]), (
                    path.name, seed, u)
                rc, norm = run_cli(capsys, "tp", "normalize", str(path),
                                   str(cfile))
                assert (rc, norm.get("consistent")) == (0, True), (
                    path.name, seed, u)


def test_tp_normalize(capsys, data_dir, tmp_path):
    comps = {"u0": "1", "nu": [{"x": "1", "y": "5", "value": 5}]}
    cfile = tmp_path / "components.json"
    cfile.write_text(json.dumps(comps))
    rc, rep = run_cli(capsys, "tp", "normalize", str(data_dir / "chain5.poset"),
                      str(cfile))
    assert rc == 0
    assert rep["decomposition"]["nu"] == [{"x": "1", "y": "5", "value": "1"}]
    assert rep["automorphism"] == [{"from": "1", "to": "5", "scale": "1/5"}]
    assert rep["consistent"] is True


def test_tp_rejects_float_values(capsys, data_dir, tmp_path):
    cfile = tmp_path / "components.json"
    cfile.write_text(json.dumps(
        {"u0": "1", "nu": [{"x": "1", "y": "2", "value": 0.5}]}))
    rc, rep = run_cli(capsys, "tp", "build", str(data_dir / "chain2.poset"),
                      str(cfile))
    assert rc == 1
    assert rep["error"]["type"] == "ParseError"


def test_tp_verify_malformed_table(capsys, data_dir, tmp_path):
    tfile = tmp_path / "table.json"
    tfile.write_text(json.dumps({"table": [{"left": "oops"}]}))
    rc, rep = run_cli(capsys, "tp", "verify", str(data_dir / "chain2.poset"),
                      str(tfile))
    assert rc == 1
    assert rep["error"]["type"] == "ParseError"


def _rejected(capsys, *argv):
    rc, rep = run_cli(capsys, *argv)
    assert rc == 1
    assert set(rep) == {"command", "error"}
    return rep["error"]


def test_tp_rejects_non_object_data_file(capsys, data_dir, tmp_path):
    dfile = tmp_path / "data.json"
    dfile.write_text("[]")
    for mode in ("build", "verify", "decompose", "normalize"):
        err = _rejected(capsys, "tp", mode, str(data_dir / "vee.poset"),
                        str(dfile))
        assert err["type"] == "ParseError"


def test_tp_rejects_zero_denominators(capsys, data_dir, tmp_path):
    vee = str(data_dir / "vee.poset")
    comps = tmp_path / "components.json"
    comps.write_text(json.dumps(
        {"nu": [{"x": "1", "y": "2", "value": "1/0"}]}))
    assert _rejected(capsys, "tp", "build", vee, str(comps))["type"] == (
        "ParseError")
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": [
        {"left": {"from": "1", "to": "1"}, "right": {"from": "1", "to": "1"},
         "product": [{"from": "1", "to": "2", "numerator": 1,
                      "denominator": 0}]}]}))
    assert _rejected(capsys, "tp", "verify", vee, str(table))["type"] == (
        "ParseError")


def test_tp_rejects_json_booleans_as_rationals(capsys, data_dir, tmp_path):
    vee = str(data_dir / "vee.poset")
    for flag in (True, False):
        comps = tmp_path / "components.json"
        comps.write_text(json.dumps(
            {"nu": [{"x": "1", "y": "2", "value": flag}]}))
        assert _rejected(capsys, "tp", "build", vee, str(comps))["type"] == (
            "ParseError")
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": [
        {"left": {"from": "1", "to": "1"}, "right": {"from": "1", "to": "1"},
         "product": [{"from": "1", "to": "2", "numerator": True,
                      "denominator": 1}]}]}))
    assert _rejected(capsys, "tp", "verify", vee, str(table))["type"] == (
        "ParseError")


def test_tp_rejects_non_string_u0(capsys, data_dir, tmp_path):
    dfile = tmp_path / "data.json"
    dfile.write_text(json.dumps({"u0": ["1"]}))
    for mode in ("build", "verify", "decompose", "normalize"):
        err = _rejected(capsys, "tp", mode, str(data_dir / "vee.poset"),
                        str(dfile))
        assert err == {"type": "ParseError",
                       "detail": "u0 must be an element label, got ['1']"}


def _cell(left, right, product):
    return {"left": {"from": left[0], "to": left[1]},
            "right": {"from": right[0], "to": right[1]},
            "product": [{"from": x, "to": y, "numerator": n, "denominator": 1}
                        for x, y, n in product]}


def test_tp_rejects_a_product_that_repeats_a_pair(capsys, data_dir, tmp_path):
    # e_1.2 listed twice, with 1 and -1, used to read as a zero product
    chain2 = str(data_dir / "chain2.poset")
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": [_cell(
        ("1", "1"), ("2", "2"), [("1", "2", 1), ("1", "2", -1)])]}))
    for mode in ("verify", "decompose"):
        err = _rejected(capsys, "tp", mode, chain2, str(table))
        assert err["type"] == "ParseError"
        assert "repeats the pair ('1', '2')" in err["detail"]
    p = poset.parse_poset((data_dir / "chain2.poset").read_text())
    with pytest.raises(ParseError):
        algebra.from_records(p, [{"from": "1", "to": "2", "numerator": 1,
                                  "denominator": 1}] * 2)


def test_tp_rejects_a_table_that_repeats_a_product(capsys, data_dir,
                                                   tmp_path):
    chain2 = str(data_dir / "chain2.poset")
    once = _cell(("1", "1"), ("2", "2"), [("1", "2", 1)])
    again = _cell(("1", "1"), ("2", "2"), [("1", "2", 1)])
    transposed = _cell(("2", "2"), ("1", "1"), [("1", "2", 1)])
    for rows in ([once, again], [once, transposed]):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"table": rows}))
        for mode in ("verify", "decompose"):
            err = _rejected(capsys, "tp", mode, chain2, str(table))
            assert err["type"] == "ParseError"
            assert "is given twice" in err["detail"]
    # each row alone is a valid mutational table
    table.write_text(json.dumps({"table": [
        once, _cell(("1", "1"), ("1", "1"), [("1", "2", -1)]),
        _cell(("2", "2"), ("2", "2"), [("1", "2", -1)])]}))
    rc, rep = run_cli(capsys, "tp", "verify", chain2, str(table))
    assert rc == 0 and rep["verify"]["witness"] is None


def test_row_fields_must_be_lists(capsys, data_dir, tmp_path):
    # {"mu": 5} used to escape as "TypeError: 'int' object is not iterable"
    vee = str(data_dir / "vee.poset")
    dfile = tmp_path / "data.json"
    cases = [(["tp", mode], field) for mode in ("build", "normalize")
             for field in ("mu", "nu", "lambda")]
    cases += [(["tp", mode], "table") for mode in ("verify", "decompose")]
    cases += [(["decompose"], "images")]
    for command, field in cases:
        for value in (5, 0.5, True, None, "1/2", {"x": "1"}):
            dfile.write_text(json.dumps({field: value}))
            err = _rejected(capsys, *command, vee, str(dfile))
            assert err == {"type": "ParseError",
                           "detail": "%s must be a list of rows" % field}


def test_tp_rejects_a_component_row_given_twice(capsys, data_dir, tmp_path):
    # nu(1, 2) given as 1 and then 5 used to keep 5 and exit 0
    vee = str(data_dir / "vee.poset")
    dfile = tmp_path / "data.json"
    for field in ("mu", "nu", "lambda"):
        dfile.write_text(json.dumps({field: [
            {"x": "1", "y": "2", "value": 1},
            {"x": "1", "y": "2", "value": 5}]}))
        for mode in ("build", "normalize"):
            err = _rejected(capsys, "tp", mode, vee, str(dfile))
            assert err == {"type": "ParseError", "detail":
                           "%s row ('1', '2') is given twice" % field}


def test_deeply_nested_json_is_malformed(capsys, data_dir, tmp_path):
    # used to escape as a RecursionError
    dfile = tmp_path / "deep.json"
    dfile.write_text('{"table": ' + "[" * 100000)
    err = _rejected(capsys, "tp", "verify", str(data_dir / "vee.poset"),
                    str(dfile))
    assert err["type"] == "ParseError"
    assert err["detail"].startswith("malformed JSON in %s: " % dfile)


def test_input_files_must_be_utf8(capsys, data_dir, tmp_path):
    # a poset file used to escape as a UnicodeDecodeError
    pfile = tmp_path / "bad.poset"
    pfile.write_bytes(b"elements: 1 2\n1 < 2 \xff\n")
    dfile = tmp_path / "bad.json"
    dfile.write_bytes(b'{"nu": "\xff"}')
    for argv, path in ((["analyze", str(pfile)], pfile),
                       (["tp", "build", str(data_dir / "vee.poset"),
                         str(dfile)], dfile)):
        err = _rejected(capsys, *argv)
        assert err["type"] == "ParseError"
        assert err["detail"].startswith("cannot read %s: " % path)


def test_poset_file_rejects_repeated_cover(capsys, tmp_path):
    pfile = tmp_path / "dup.poset"
    pfile.write_text("elements: 1 2 3\n1 < 2\n1 < 3\n1 < 2\n")
    err = _rejected(capsys, "analyze", str(pfile))
    assert err == {"type": "ParseError",
                   "detail": "line 4: repeated cover '1 < 2'"}


def test_bad_command_lines_are_parse_errors(capsys, data_dir):
    # argparse used to print usage on stderr and exit 2 with no stdout
    vee = str(data_dir / "vee.poset")
    for argv, detail in (
            ([], "lietp: the following arguments are required: command"),
            (["analyze"],
             "lietp analyze: the following arguments are required: poset"),
            (["tp", "bogus", vee, "x"],
             "lietp tp: argument mode: invalid choice: 'bogus'")):
        err = _rejected(capsys, *argv)
        assert err["type"] == "ParseError"
        assert err["detail"].startswith(detail)


def test_help_is_usage_text(capsys):
    for argv in (["--help"], ["tp", "-h"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lietp")


def test_a_result_too_long_to_print_is_too_large(capsys, data_dir,
                                                 tmp_path):
    # each value is read, but their sum has over 4,300 digits, and printing
    # it used to escape as a ValueError
    comps = tmp_path / "components.json"
    comps.write_text(json.dumps(
        {"u0": "1",
         "mu": [{"x": "2", "y": "2", "value": "1/%d" % (10 ** 2501 + 1)}],
         "lambda": [{"x": "1", "y": "2",
                     "value": "1/%d" % (10 ** 2500 + 3)}]}))
    chain2 = str(data_dir / "chain2.poset")
    assert _rejected(capsys, "tp", "build", chain2, str(comps)) == {
        "type": "TooLarge",
        "detail": "a result value has too many digits to print"}
    # the input limit stays: a literal of 10^6 digits is refused as read
    comps.write_text(json.dumps(
        {"mu": [{"x": "1", "y": "1", "value": "7" * 10 ** 6}]}))
    assert _rejected(capsys, "tp", "build", chain2, str(comps))["type"] == (
        "ParseError")


def test_examples_pass(capsys):
    rc, rep = run_cli(capsys, "examples")
    assert rc == 0
    assert rep["status"] == "PASS"
    assert [r["status"] for r in rep["results"]] == ["PASS"] * 6
    assert [r["name"] for r in rep["results"]] == [
        "chain n=2", "chain n=5", "two atoms over a root",
        "chain with a branch", "zigzag on four elements",
        "crown on four elements"]


def test_examples_catch_table_corruption():
    golden = copy.deepcopy(examples.GOLDEN_EXAMPLES)
    # flip one coefficient in a frozen mutational table
    left, right, cells = golden[0]["mutational"][0]
    golden[0]["mutational"] = ((left, right, (("1", "2", 99),)),) + tuple(
        golden[0]["mutational"][1:])
    with pytest.raises(GoldenMismatch):
        examples._run_examples(golden)


def test_examples_catch_extreme_pair_corruption():
    golden = copy.deepcopy(examples.GOLDEN_EXAMPLES)
    golden[1]["extreme"] = (("1", "5"),)
    with pytest.raises(GoldenMismatch):
        examples._run_examples(golden)


def test_reports_are_hash_seed_independent(data_dir, tmp_path):
    comps = tmp_path / "components.json"
    comps.write_text(json.dumps(
        {"u0": "1",
         "nu": [{"x": "1", "y": "3", "value": 1},
                {"x": "2", "y": "4", "value": 1}]}))
    # two 3-cycles: the error names one of six pairs comparable both ways
    cyclic = tmp_path / "cyclic.poset"
    cyclic.write_text("elements: 1 2 3 4 5 6\n1 < 2\n2 < 3\n3 < 1\n"
                      "4 < 5\n5 < 6\n6 < 4\n3 < 4\n")
    jobs = [
        (["analyze", str(data_dir / "en.poset")], 0),
        (["halfder", str(data_dir / "crown.poset"), "--oracle"], 0),
        (["tp", "build", str(data_dir / "en.poset"), str(comps)], 0),
        (["analyze", str(cyclic)], 1),
    ]
    for argv, code in jobs:
        outputs = set()
        for seed in ("0", "1", "2", "3", "4", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            res = subprocess.run([sys.executable, "-m", "lietp.cli"] + argv,
                                 capture_output=True, text=True, env=env)
            assert res.returncode == code, res.stdout + res.stderr
            outputs.add(res.stdout)
        assert len(outputs) == 1
    assert json.loads(outputs.pop())["error"] == {
        "type": "CycleInOrder",
        "detail": "'1' and '2' are comparable both ways"}
