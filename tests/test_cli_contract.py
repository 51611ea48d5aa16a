"""The CLI contract under mutated input documents, poset files and argv.

For any command line and any input files, `lietp` prints exactly one JSON
document on stdout, exits 0 or 1, and raises nothing.  The documents
mutated here are the pinned inputs of `test_cli_pin.py`: components,
product tables and operators over the `data/` posets.  Each mutation drops
or duplicates a field or a row, or puts a float, a boolean, null, a string
such as "p/0", a huge integer or a nested list in its place, or puts
values of 4,300 digits in every value field of a components document:
such values are read, but a sum of two of them can have more digits than
Python prints.  The command a document is fed to is drawn too, so a table
also reaches `tp build` and an operator `tp verify`.  The poset file's
lines and the command line's words are mutated the same way: a line or
word is dropped, duplicated, replaced or preceded by one with a `<`, a
`#`, an `elements:` header, a NUL byte or non-ASCII text, or by a command
word or an option.
"""

import contextlib
import copy
import io
import json
import pathlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lietp import cli

PINS = [pathlib.Path(__file__).with_name(name)
        for name in ("cli_tp_pinned.json", "cli_decompose_pinned.json")]
DOCUMENTS = [item for pin in PINS
             for item in json.loads(pin.read_text())["inputs"].items()]

COMMANDS = (["tp", "build"], ["tp", "verify"], ["tp", "decompose"],
            ["tp", "normalize"], ["decompose"])
# the input files a command reads when it is not given two
FILES = {"analyze": 1, "halfder": 1, "examples": 0}

# stands for an integer literal of 5000 digits, more than json.loads reads
HUGE = "<5000 digits>"
# the longest integer json.loads and Fraction read: 4,300 digits
LONGEST = 10 ** 4300 - 1
INJECTED = (0.5, -2.0, True, False, None, "p/0", "1/0", "1/2", "x", "",
            0, -1, 2 ** 64, -(10 ** 40), HUGE, "7" * 5000, LONGEST,
            "1/%d" % LONGEST, [], [[[[]]]], {}, {"x": "1"}, ["1", "2"])
LINES = ("<", "1 < 2 < 3", "2 < 1", "1 < 1", "1 < 9", "#", "# 1 < 2",
         "elements:", "elements: 1 2", "elements: 1 1", "elements: 1 2 <",
         "1 <\0 2", "\0", "é < ü", "elements: é ü", "1 < é", "")
WORDS = ("analyze", "halfder", "decompose", "tp", "build", "examples",
         "bogus", "--u0", "--u0=1", "--u0=9", "--oracle", "-x", "--", "",
         "\0", "é")


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
    """Drop (kind 0), duplicate (1) or replace by `injected` (2) the node
    numbered `choice` of doc, or put LONGEST and 1/LONGEST in turn in every
    value field (3), in place.  Duplicating a list item repeats it;
    duplicating a field copies its value into a sibling field."""
    if kind == 3:
        rows = [row for _, row in _nodes(doc)
                if isinstance(row, dict) and "value" in row]
        for k, row in enumerate(rows):
            row["value"] = "1/%d" % LONGEST if k % 2 else LONGEST
        return
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
        parent[last] = copy.deepcopy(injected)


def _mutate_items(items, choice, kind, injected):
    """Drop (kind 0), duplicate (1) or replace by `injected` (2) the item
    numbered `choice` of the list, or insert `injected` before it (3)."""
    k = choice % (len(items) or 1)
    if kind == 3 or not items:
        items.insert(k, injected)
    elif kind == 0:
        del items[k]
    elif kind == 1:
        items.insert(k, items[k])
    else:
        items[k] = injected


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _document_file(folder, name, doc):
    path = folder / name
    path.write_text(json.dumps(doc).replace(json.dumps(HUGE), "7" * 5000))
    return path


def _keeps_the_contract(argv):
    rc, out = _run(argv)
    assert rc in (0, 1)
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"


def _edits(injected, min_size=0):
    return st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                              st.sampled_from(injected)),
                    min_size=min_size, max_size=3)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DOCUMENTS), st.sampled_from(COMMANDS),
       _edits(INJECTED, min_size=1))
# mu(1,1) = LONGEST and lambda(1,2) = 1/LONGEST add up to a coefficient of
# 8,600 digits in e_1 . e_1
@example(document=next(item for item in DOCUMENTS
                       if item[0] == "chain2-s1-components.json"),
         command=["tp", "build"], mutations=[(0, 3, None)])
def test_mutated_documents_keep_the_cli_contract(data_dir, tmp_path_factory,
                                                 document, command,
                                                 mutations):
    name, doc = document
    doc = copy.deepcopy(doc)
    for choice, kind, injected in mutations:
        _mutate(doc, choice, kind, injected)
    path = _document_file(tmp_path_factory.mktemp("contract"), name, doc)
    poset_file = data_dir / (name.split("-")[0] + ".poset")
    _keeps_the_contract(command + [str(poset_file), str(path)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DOCUMENTS), st.sampled_from(COMMANDS + (
           ["analyze"], ["halfder"], ["halfder", "--oracle"], ["examples"])),
       _edits(LINES), _edits(WORDS))
def test_mutated_posets_and_command_lines_keep_the_cli_contract(
        data_dir, tmp_path_factory, document, command, line_edits,
        word_edits):
    name, doc = document
    folder = tmp_path_factory.mktemp("contract")
    poset_file = data_dir / (name.split("-")[0] + ".poset")
    lines = poset_file.read_text().splitlines()
    for choice, kind, injected in line_edits:
        _mutate_items(lines, choice, kind, injected)
    poset_file = folder / "mutated.poset"
    poset_file.write_text("\n".join(lines), encoding="utf-8")
    files = [str(poset_file), str(_document_file(folder, name, doc))]
    argv = command + files[:FILES.get(command[0], 2)]
    for choice, kind, injected in word_edits:
        _mutate_items(argv, choice, kind, injected)
    _keeps_the_contract(argv)
