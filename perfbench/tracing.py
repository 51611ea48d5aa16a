"""Span recording around the library's public functions.

``Tracer.install`` replaces each traced function on its module, and on every
other ``lietp`` module that imported the same function object by name, with
a wrapper that records a span (name, start, end, parent span, op id).
``uninstall`` puts the originals back.  While ``recording`` is False the
wrappers call straight through, so that the benchmark's own checks of an
op's output leave no spans.  Spans stay in memory until ``write``.  A
span's self time is its duration minus its child spans.
"""

import functools
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "poset": ("build_poset", "pair_classes", "blocks_and_bridges",
              "extreme_pairs", "sign_and_vset"),
    "algebra": ("from_records",),
    "halfder": ("is_half_derivation", "unit_brackets", "half_derivation_space"),
    "tpstruct": ("verify_tp", "poisson_type", "mutational", "lambda_structure",
                 "sum_products", "decompose_tp", "normalize_nu", "transport_product"),
    "cli": ("main",),
}


def _bits(v):
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _count_verify(counts, args):
    table = args[0].table
    counts["tpstruct.verify_tp.table_nnz"] += len(table)
    bits = max((_bits(v) for elem in table.values() for v in elem.coeffs.values()), default=0)
    counts["algebra.coeff_max_bits"] = max(counts["algebra.coeff_max_bits"], bits)


def _count_records(counts, args):
    # malformed records are the library's to reject, so they count as nothing here
    try:
        bits = max((abs(int(rec[k])).bit_length() for rec in args[1]
                    for k in ("numerator", "denominator")), default=0)
    except (KeyError, TypeError, ValueError):
        return
    counts["algebra.coeff_max_bits"] = max(counts["algebra.coeff_max_bits"], bits)


def _count_space(counts, args):
    counts["halfder.half_derivation_space.unknowns"] += len(args[0].pairs) ** 2


COUNTERS = {
    "tpstruct.verify_tp": _count_verify,
    "algebra.from_records": _count_records,
    "halfder.half_derivation_space": _count_space,
}


class Tracer(object):

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None, op id]
        self.counts = defaultdict(int)
        self.op = None
        self.recording = True
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(counts, args)
            rec = [name, clock(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def install(self):
        mods = [m for k, m in sys.modules.items() if k == "lietp" or k.startswith("lietp.")]
        for short, names in TRACED.items():
            home = sys.modules.get("lietp." + short)
            if home is None:
                continue
            for name in names:
                orig = getattr(home, name)
                wrapped = self._wrap("%s.%s" % (short, name), orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    def totals(self):
        """{name: [calls, self seconds]} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for k, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[k]
        return out

    def merge(self, spans, counts, op):
        """Add spans and counts recorded by a traced child process."""
        base = len(self.spans)
        for name, start, end, parent, _op in spans:
            self.spans.append([name, start, end, None if parent is None else base + parent, op])
        for k, v in counts.items():
            if k == "algebra.coeff_max_bits":
                self.counts[k] = max(self.counts[k], v)
            else:
                self.counts[k] += v

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
