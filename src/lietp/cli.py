"""Command line front end.

Subcommands: analyze, halfder, decompose, tp {build,verify,decompose,normalize},
examples.  Every report is a JSON document on stdout, deterministic byte for
byte across runs; the exit code is 0 exactly when every check in the report
passed.  A bad command line gets an error report too; only --help prints
argparse's usage text instead.  Each command imports only the library
modules it runs, so that a process loads no code its command does not need.
"""

import argparse
import json
import sys
from itertools import islice

from .errors import LietpError, ParseError, TooLarge


def _read(path):
    """The text of a UTF-8 input file; a failure to read it is a ParseError.

    open() raises ValueError for a path with a NUL byte, and reading
    raises UnicodeDecodeError, a ValueError, for a file that is not UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _load_json(path):
    try:
        data = json.loads(_read(path))
    except (ValueError, RecursionError) as exc:
        raise ParseError("malformed JSON in %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ParseError("%s must hold a JSON object" % path)
    return data


def _rows(what, rows, key, value):
    """{key(row): value(row)} over the JSON row list `rows` of the field
    `what`.  A value that is not a list, a row that lacks or mistypes a
    field, and a key given twice are each a ParseError naming the field."""
    if not isinstance(rows, list):
        raise ParseError("%s must be a list of rows" % what)
    out = {}
    for n, row in enumerate(rows):
        try:
            k = key(row)
            if k in out:
                raise ParseError("%s row %r is given twice" % (what, k))
            out[k] = value(row)
        except (KeyError, TypeError) as exc:
            raise ParseError("bad %s row %d: %r" % (what, n, exc))
    return out


def _poset_summary(p):
    from . import poset
    mins, maxs = poset.min_max(p)
    return {
        "size": len(p.elements),
        "elements": list(p.elements),
        "covers": [{"from": a, "to": b} for a, b in p.covers],
        "min": mins,
        "max": maxs,
    }


def _table_payload(prod):
    from . import algebra
    rows = []
    for (pr1, pr2), elem in prod.entries():
        rows.append({
            "left": {"from": pr1[0], "to": pr1[1]},
            "right": {"from": pr2[0], "to": pr2[1]},
            "product": algebra.to_records(elem),
        })
    return rows


def _pair(rec):
    return (rec["from"], rec["to"])


def _product_key(row):
    """A table row's key: its (left, right) pairs, in the order that makes a
    product and its transpose one key."""
    left, right = _pair(row["left"]), _pair(row["right"])
    return min((left, right), (right, left))


def _product_from_data(p, data):
    from . import algebra, tpstruct
    entries = _rows("table", data.get("table", []), _product_key,
                    lambda row: algebra.from_records(p, row["product"]))
    try:
        return tpstruct.tp_from_table(p, entries)
    except KeyError as exc:
        raise ParseError("bad product table: %s" % exc)


def _decomposition_from_data(p, data, u0):
    from . import algebra, tpstruct
    mu, nu, lam = (
        _rows(field, data.get(field, []), lambda row: (row["x"], row["y"]),
              lambda row: algebra.as_rational(row["value"]))
        for field in ("mu", "nu", "lambda"))
    try:
        return tpstruct.TPDecomposition(
            tpstruct.MuMap(p, mu), tpstruct.NuElement(p, nu),
            tpstruct.LambdaMap(p, lam), u0)
    except ValueError as exc:
        raise ParseError(str(exc))


def _decomposition_payload(dec):
    def rows(m):
        return [{"x": x, "y": y, "value": m.values[(x, y)]}
                for x, y in m.support()]

    return {"u0": dec.u0, "mu": rows(dec.mu), "nu": rows(dec.nu),
            "lambda": rows(dec.lam)}


def _resolve_u0(p, flag, data=None):
    u0 = flag
    if u0 is None and data is not None:
        u0 = data.get("u0")
    if u0 is None:
        u0 = p.elements[0]
    if not isinstance(u0, str):
        raise ParseError("u0 must be an element label, got %r" % (u0,))
    p.index(u0)
    return u0


# What one process computes: analyze counts up to CYCLE_LIMIT cycles, and
# halfder --oracle solves up to ORACLE_CAP unknowns.
CYCLE_LIMIT = 10000
ORACLE_CAP = 20000


def cmd_analyze(args):
    from . import algebra, poset
    p = poset.parse_poset(_read(args.poset))
    u0 = _resolve_u0(p, args.u0)
    part = poset.pair_classes(p)
    _blocks, bridges = poset.blocks_and_bridges(p)
    cycle_count = sum(
        1 for _ in islice(poset.enumerate_cycles(p), CYCLE_LIMIT + 1))
    mm = algebra.minmax_pairs(p)
    report = {
        "command": "analyze",
        "poset": _poset_summary(p),
        "u0": u0,
        "bridges": [{"from": a, "to": b}
                    for a, b in sorted(bridges, key=p.pair_key)],
        "cycle_count": cycle_count if cycle_count <= CYCLE_LIMIT else None,
        "extreme_pairs": [
            {"from": x, "to": y, "sign": sgn,
             "side": sorted(vset, key=p.index)}
            for (x, y) in poset.extreme_pairs(p)
            for sgn, vset in [poset.sign_and_vset(p, u0, (x, y))]],
        "pair_classes": [
            {"representative": {"from": r[0], "to": r[1]}, "size": len(cls)}
            for k, cls in enumerate(part.classes)
            for r in [part.representative(k)]],
        "commutator_center_basis": [{"from": x, "to": y} for x, y in mm],
        "predicted_dimension": len(p.elements) + len(part) + len(mm),
    }
    return report, True


def cmd_halfder(args):
    from . import algebra, poset
    p = poset.parse_poset(_read(args.poset))
    part = poset.pair_classes(p)
    mm = algebra.minmax_pairs(p)
    structural_dim = len(p.elements) + len(part) + len(mm)
    report = {
        "command": "halfder",
        "poset": _poset_summary(p),
        "structural": {
            "inner_basis": [{"from": x, "to": y} for x, y in mm],
            "sigma_classes": [
                {"from": r[0], "to": r[1]}
                for k in range(len(part))
                for r in [part.representative(k)]],
            "kappa_elements": list(p.elements),
            "dimension": structural_dim,
        },
    }
    ok = True
    if args.oracle:
        from . import halfder
        n = len(p.pairs) ** 2
        if n > ORACLE_CAP:
            raise TooLarge("system has %d unknowns, cap is %d"
                           % (n, ORACLE_CAP))
        basis = halfder.half_derivation_space(p)
        verdict = "EQUAL" if len(basis) == structural_dim else "UNEQUAL"
        report["oracle"] = {"dimension": len(basis), "verdict": verdict}
        ok = verdict == "EQUAL"
    return report, ok


def cmd_decompose(args):
    from . import algebra, halfder, poset
    p = poset.parse_poset(_read(args.poset))
    data = _load_json(args.operator)
    u0 = _resolve_u0(p, args.u0)
    images = _rows("images", data.get("images"), _pair,
                   lambda row: algebra.from_records(p, row["image"]))
    op = halfder.operator_from_images(p, images)
    dec = halfder.decompose(op, u0)
    report = {
        "command": "decompose",
        "poset": _poset_summary(p),
        "u0": u0,
        "decomposition": halfder.decomposition_report(dec),
        "reconstruction": "ok",
    }
    return report, True


def cmd_tp(args):
    from . import poset, tpstruct
    p = poset.parse_poset(_read(args.poset))
    data = _load_json(args.data)
    u0 = _resolve_u0(p, args.u0, data)
    report = {"command": "tp %s" % args.mode, "poset": _poset_summary(p)}
    if args.mode == "build":
        dec = _decomposition_from_data(p, data, u0)
        prod = dec.reconstruct()
        ver = tpstruct.verify_tp(prod)
        report.update({"u0": u0, "table": _table_payload(prod),
                       "verify": ver})
        return report, tpstruct.tp_passes(ver)
    if args.mode == "verify":
        prod = _product_from_data(p, data)
        ver = tpstruct.verify_tp(prod)
        report["verify"] = ver
        return report, tpstruct.tp_passes(ver)
    if args.mode == "decompose":
        prod = _product_from_data(p, data)
        dec = tpstruct.decompose_tp(prod, u0)
        report.update({"u0": u0,
                       "decomposition": _decomposition_payload(dec),
                       "reconstruction": "ok"})
        return report, True
    # normalize: rescale nu to an indicator, report the automorphism, and
    # judge the rescaled table with the certificate that build runs
    dec = _decomposition_from_data(p, data, u0)
    norm, scales = tpstruct.normalize_nu(dec)
    consistent = tpstruct.tp_passes(tpstruct.verify_tp(norm.reconstruct()))
    report.update({
        "u0": u0,
        "decomposition": _decomposition_payload(norm),
        "automorphism": [
            {"from": x, "to": y, "scale": scales[(x, y)]}
            for x, y in norm.nu.support()],
        "consistent": consistent,
    })
    return report, consistent


def cmd_examples(args):
    from . import examples
    return examples._run_examples(), True


class _Parser(argparse.ArgumentParser):
    """argparse that raises a ParseError for a bad command line, in place
    of printing usage on stderr and exiting 2, so that the command line
    gets the same JSON error report as a bad input file."""

    def error(self, message):
        raise ParseError("%s: %s" % (self.prog, message))


def _build_parser():
    parser = _Parser(
        prog="lietp",
        description="Half-derivations and transposed Poisson structures "
                    "on the Lie incidence algebra of a finite poset.")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="poset combinatorics report")
    a.add_argument("poset")
    a.add_argument("--u0", default=None)
    a.set_defaults(func=cmd_analyze)

    h = sub.add_parser("halfder", help="half-derivation space description")
    h.add_argument("poset")
    h.add_argument("--oracle", action="store_true",
                   help="cross-check the dimension by brute force")
    h.set_defaults(func=cmd_halfder)

    d = sub.add_parser("decompose",
                       help="split an operator into inner, grading and "
                            "central parts")
    d.add_argument("poset")
    d.add_argument("operator")
    d.add_argument("--u0", default=None)
    d.set_defaults(func=cmd_decompose)

    t = sub.add_parser("tp", help="transposed Poisson structure tools")
    t.add_argument("mode", choices=["build", "verify", "decompose",
                                    "normalize"])
    t.add_argument("poset")
    t.add_argument("data")
    t.add_argument("--u0", default=None)
    t.set_defaults(func=cmd_tp)

    e = sub.add_parser("examples", help="re-run the worked examples against "
                                        "their frozen tables")
    e.set_defaults(func=cmd_examples)
    return parser


def _dumps(report):
    """The report as JSON text, with Fractions as "p/q" strings.

    An integer of more digits than Python converts to decimal (4,300 by
    default, sys.get_int_max_str_digits) makes json.dumps raise ValueError,
    the only ValueError it raises on a report; that result is refused with
    TooLarge.  The limit stays in force, so a huge input literal is still
    refused as soon as it is read, before any work is done on it.
    """
    try:
        return json.dumps(report, indent=2, default=str)
    except ValueError:
        raise TooLarge("a result value has too many digits to print")


def main(argv=None):
    """Run one command; print its report, or one error report for a bad
    command line or input, as one JSON document; return the exit code."""
    command = None
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        report, ok = args.func(args)
        text = _dumps(report)
    except LietpError as exc:
        text, ok = _dumps({"command": command, "error": {
            "type": type(exc).__name__, "detail": str(exc)}}), False
    sys.stdout.write(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
