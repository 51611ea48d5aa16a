"""The CLI contract under mutated input documents.

For any data file, `lietp` prints exactly one JSON document on stdout,
exits 0 or 1, and raises nothing.  The documents mutated here are the
pinned inputs of `test_cli_pin.py`: components, product tables and
operators over the `data/` posets.  Each mutation drops or duplicates a
field or a row, or puts a float, a boolean, null, a string such as "p/0",
a huge integer or a nested list in its place.  The command a document is
fed to is drawn too, so a table also reaches `tp build` and an operator
`tp verify`.
"""

import contextlib
import copy
import io
import json
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from lietp import cli

PINS = [pathlib.Path(__file__).with_name(name)
        for name in ("cli_tp_pinned.json", "cli_decompose_pinned.json")]
DOCUMENTS = [item for pin in PINS
             for item in json.loads(pin.read_text())["inputs"].items()]

COMMANDS = (["tp", "build"], ["tp", "verify"], ["tp", "decompose"],
            ["tp", "normalize"], ["decompose"])

# stands for an integer literal of 5000 digits, more than json.loads reads
HUGE = "<5000 digits>"
INJECTED = (0.5, -2.0, True, False, None, "p/0", "1/0", "1/2", "x", "",
            0, -1, 2 ** 64, -(10 ** 40), HUGE, "7" * 5000, [], [[[[]]]],
            {}, {"x": "1"}, ["1", "2"])


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _nodes(value, path + (k,))


def _mutate(doc, choice, kind, injected):
    """Drop (kind 0), duplicate (1) or replace by `injected` (2 and 3) the
    node numbered `choice` of doc, in place.  Duplicating a list item
    repeats it; duplicating a field copies its value into a sibling field."""
    nodes = list(_nodes(doc))[1:]
    if not nodes:
        return
    path, value = nodes[choice % len(nodes)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if kind == 0:
        del parent[last]
    elif kind == 1 and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(value))
    elif kind == 1:
        parent[sorted(parent)[choice % len(parent)]] = copy.deepcopy(value)
    else:
        parent[last] = injected


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DOCUMENTS), st.sampled_from(COMMANDS),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                          st.sampled_from(INJECTED)),
                min_size=1, max_size=3))
def test_mutated_documents_keep_the_cli_contract(data_dir, tmp_path_factory,
                                                 document, command,
                                                 mutations):
    name, doc = document
    doc = copy.deepcopy(doc)
    for choice, kind, injected in mutations:
        _mutate(doc, choice, kind, injected)
    path = tmp_path_factory.mktemp("contract") / name
    path.write_text(json.dumps(doc).replace(json.dumps(HUGE), "7" * 5000))
    poset_file = data_dir / (name.split("-")[0] + ".poset")
    rc, out = _run(command + [str(poset_file), str(path)])
    assert rc in (0, 1)
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
