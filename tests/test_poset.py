import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Walk, brute_extreme_pairs, brute_pair_classes, chain,
                     component_without_edge, data_catalog, full_catalog,
                     random_connected_poset, random_tp, reference_blocks,
                     reference_closure, reference_pair_classes,
                     reversed_catalog, tp_left_mult, walk_between)
from lietp import algebra, poset, tpstruct
from lietp.errors import (CycleInOrder, NotConnected, NotExtreme, ParseError,
                          RedundantCover, TooSmall, UnknownElement)
from lietp.halfder import (half_derivation_space, is_half_derivation,
                           unit_brackets)
from lietp.poset import (blocks_and_bridges, build_poset, closure,
                         enumerate_cycles, extreme_pairs, min_max,
                         pair_classes, parse_poset, sign_and_vset)


def test_parse_poset_basic():
    p = parse_poset("# comment\nelements: a b c\na < b  # inline\nb < c\n")
    assert list(p.elements) == ["a", "b", "c"]
    assert list(p.covers) == [("a", "b"), ("b", "c")]
    assert p.leq("a", "c") and not p.leq("c", "a")


def test_parse_poset_errors():
    with pytest.raises(ParseError):
        parse_poset("a < b\n")
    with pytest.raises(ParseError):
        parse_poset("elements:\n")
    with pytest.raises(ParseError):
        parse_poset("elements: a b\na b\n")
    with pytest.raises(ParseError):
        parse_poset("elements: a b\na < c\n")
    with pytest.raises(ParseError):
        parse_poset("   \n# nothing\n")


def test_build_rejects_too_small():
    with pytest.raises(TooSmall):
        build_poset(["1"], [])


def test_build_rejects_disconnected():
    with pytest.raises(NotConnected):
        build_poset(["1", "2", "3", "4"], [("1", "2"), ("3", "4")])
    # the block search runs from element 0: isolated, in the smaller
    # component and in the larger one
    labels = ["1", "2", "3", "4", "5"]
    for covers in ([("2", "3"), ("3", "4"), ("2", "5")],
                   [("1", "2"), ("3", "4"), ("4", "5")],
                   [("1", "2"), ("2", "3"), ("4", "5")]):
        with pytest.raises(NotConnected):
            build_poset(labels, covers)
        with pytest.raises(NotConnected):
            build_poset(labels[::-1], covers)


def test_build_rejects_cycle_in_order():
    with pytest.raises(CycleInOrder):
        build_poset(["1", "2"], [("1", "2"), ("2", "1")])


def test_build_rejects_redundant_cover():
    with pytest.raises(RedundantCover):
        build_poset(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])


def _error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value).__name__, str(info.value)


def test_build_poset_error_messages():
    # the exact texts the CLI prints in its JSON error document
    chain5 = ["1", "2", "3", "4", "5"]
    path5 = list(zip(chain5, chain5[1:]))
    assert _error(build_poset, chain5, path5 + [("3", "5"), ("1", "3")]) == (
        "RedundantCover", "input pairs [('1', '3'), ('3', '5')] are not "
        "cover edges after closure")
    assert _error(build_poset, ["1", "2", "3", "4"],
                  [("1", "3"), ("2", "4")]) == (
        "NotConnected", "cover graph is disconnected")
    assert _error(build_poset, ["1"], []) == (
        "TooSmall", "a poset needs at least 2 elements, got 1")
    assert _error(build_poset, ["1", "2"], [("1", "9")]) == (
        "UnknownElement", "cover pair ('1', '9') uses an unknown label")
    assert _error(build_poset, ["1", "2"], [("1", "2"), ("2", "2")]) == (
        "CycleInOrder", "reflexive pair ('2', '2') is not a strict cover")
    assert _error(build_poset, ["1", "1"], [("1", "1")]) == (
        "ParseError", "duplicate labels")
    # a repeated pair is one cover to build_poset; the file format refuses it
    twice = build_poset(chain5, path5 + [("2", "3")])
    assert twice.covers == path5 and twice.pairs == chain(5).pairs
    assert _error(parse_poset, "elements: 1 2 3\n1 < 2\n2 < 3\n1 < 2\n") == (
        "ParseError", "line 4: repeated cover '1 < 2'")
    assert _error(parse_poset, "elements: 1 2\n1 < 1\n") == (
        "CycleInOrder", "reflexive pair ('1', '1') is not a strict cover")


def test_cycle_error_names_least_pair():
    # two 3-cycles joined by c < d: six pairs are comparable both ways, and
    # the error names the least of them in canonical order, whatever the
    # iteration order of the closure
    labels = ["a", "b", "c", "d", "e", "f"]
    cyc = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"),
           ("f", "d"), ("c", "d")]
    for k in range(len(cyc)):
        rotated = cyc[k:] + cyc[:k]
        assert _error(build_poset, labels, rotated) == (
            "CycleInOrder", "'a' and 'b' are comparable both ways")
        assert _error(build_poset, labels[::-1], rotated) == (
            "CycleInOrder", "'f' and 'e' are comparable both ways")


def test_closure_is_reflexive_and_transitive():
    # rows of indices, each ascending: 2 -> 0 -> 1 is the chain 2 < 0 < 1
    assert closure([[1], [], [0]]) == [[0, 1], [1], [0, 1, 2]]
    # on a cycle every index reaches every other
    assert closure([[1], [2], [0], [0]]) == [[0, 1, 2]] * 3 + [[0, 1, 2, 3]]


def test_build_poset_reads_covers_given_once():
    covers = [("1", "2"), ("2", "3")]
    p = build_poset(["1", "2", "3"], (c for c in covers))
    assert p.covers == covers and p.pairs == chain(3).pairs


def test_min_max(branch4, crown):
    assert min_max(branch4) == (["1"], ["3", "4"])
    assert min_max(crown) == (["1", "2"], ["3", "4"])


def test_order_predicates(chain3):
    assert chain3.leq("1", "3") and chain3.less("1", "3")
    assert chain3.leq("2", "2") and not chain3.less("2", "2")
    assert chain3.is_cover("1", "2") and not chain3.is_cover("1", "3")
    with pytest.raises(UnknownElement):
        chain3.index("9")


def test_pairs_are_canonically_sorted(twochains):
    keys = [twochains.pair_key(pr) for pr in twochains.pairs]
    assert keys == sorted(keys)
    assert set(twochains.strict_pairs) == {
        pr for pr in twochains.pairs if pr[0] != pr[1]}


def test_walk_step_validation(chain3):
    with pytest.raises(ValueError):
        Walk(chain3, ("1", "3"))
    with pytest.raises(ValueError):
        Walk(chain3, ())
    assert Walk(chain3, ("2",)).length == 0


def test_walk_compose_inverse_cycle(crown):
    w1 = Walk(crown, ("3", "1", "4"))
    w2 = Walk(crown, ("4", "2", "3"))
    loop = w1.compose(w2)
    assert loop.vertices == ("3", "1", "4", "2", "3")
    assert loop.is_cycle()
    assert loop.inverse().vertices == ("3", "2", "4", "1", "3")
    assert not Walk(crown, ("3", "1", "3")).is_cycle()
    with pytest.raises(ValueError):
        w1.compose(w1)


def test_enumerate_cycles(crown, chain5, branch4):
    assert list(enumerate_cycles(crown)) == [("1", "3", "2", "4", "1")]
    assert list(enumerate_cycles(chain5)) == []
    assert list(enumerate_cycles(branch4)) == []


def test_enumerate_cycles_against_networkx():
    # the oracle behind brute_extreme_pairs and brute_pair_classes, checked
    # by an independent cycle search on the undirected cover graph
    rng = random.Random(20261019)
    posets = list(full_catalog()) + [
        random_connected_poset(rng, rng.randint(6, 12),
                               dense=rng.random() < 0.5)
        for _ in range(60)]
    for p in posets:
        ours = [frozenset(map(frozenset, zip(c, c[1:])))
                for c in enumerate_cycles(p)]
        theirs = {frozenset(map(frozenset, zip(c, c[1:] + c[:1])))
                  for c in nx.simple_cycles(nx.Graph(list(p.covers)))}
        assert len(ours) == len(set(ours)) == len(theirs), p.covers
        assert set(ours) == theirs, p.covers


def test_blocks_and_bridges_frozen(vee, crown, twochains):
    blocks, bridges = blocks_and_bridges(vee)
    assert bridges == {("1", "2"), ("1", "3")}
    assert sorted(len(b) for b in blocks) == [1, 1]
    blocks, bridges = blocks_and_bridges(crown)
    assert bridges == set()
    assert [sorted(b) for b in blocks] == [
        [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")]]
    _, bridges = blocks_and_bridges(twochains)
    assert bridges == set(twochains.covers)


def test_extreme_pairs_frozen(chain2, chain5, vee, branch4, zigzag, crown):
    assert extreme_pairs(chain2) == [("1", "2")]
    assert extreme_pairs(chain5) == []
    assert extreme_pairs(vee) == [("1", "2"), ("1", "3")]
    assert extreme_pairs(branch4) == [("1", "4")]
    assert extreme_pairs(zigzag) == [("1", "3"), ("2", "3"), ("2", "4")]
    assert extreme_pairs(crown) == []


def test_sign_and_vset_zigzag(zigzag):
    assert sign_and_vset(zigzag, "1", ("1", "3")) == (
        1, frozenset(("2", "3", "4")))
    assert sign_and_vset(zigzag, "1", ("2", "3")) == (-1, frozenset(("2", "4")))
    assert sign_and_vset(zigzag, "1", ("2", "4")) == (1, frozenset(("4",)))


def test_sign_depends_on_u0(zigzag, chain2):
    # moving u0 across the bridge flips the sign and the side set
    assert sign_and_vset(zigzag, "2", ("2", "3")) == (1, frozenset(("1", "3")))
    assert sign_and_vset(chain2, "1", ("1", "2")) == (1, frozenset(("2",)))
    assert sign_and_vset(chain2, "2", ("1", "2")) == (-1, frozenset(("1",)))


def test_sign_and_vset_rejects_non_extreme(chain5):
    with pytest.raises(NotExtreme):
        sign_and_vset(chain5, "1", ("1", "2"))


def test_pair_classes_frozen(chain5, vee, zigzag, crown, twochains):
    assert [len(c) for c in pair_classes(chain5).classes] == [10]
    assert pair_classes(vee).classes == [[("1", "2")], [("1", "3")]]
    assert pair_classes(zigzag).classes == [
        [("1", "3")], [("2", "3")], [("2", "4")]]
    assert pair_classes(crown).classes == [
        [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")]]
    assert pair_classes(twochains).classes == [
        [("1", "2"), ("1", "4"), ("2", "4")],
        [("1", "3"), ("1", "5"), ("3", "5")]]


def test_walk_between(chain3, crown):
    assert walk_between(chain3, "1", "3").vertices == ("1", "2", "3")
    assert walk_between(chain3, "2", "2").vertices == ("2",)
    # ties broken by canonical element order: goes through 1, not 2
    assert walk_between(crown, "3", "4").vertices == ("3", "1", "4")


def test_extreme_pairs_against_cycle_definition_on_catalog():
    # the catalog in its linear-extension order and reversed
    for p in full_catalog() + reversed_catalog():
        assert extreme_pairs(p) == brute_extreme_pairs(p)


def test_pair_classes_against_cycle_definition_on_catalog():
    for p in full_catalog() + reversed_catalog():
        assert pair_classes(p).classes == brute_pair_classes(p)


def test_bridges_against_networkx_on_catalog():
    # third, independent route for the bridge and block machinery
    for p in full_catalog():
        g = nx.Graph(list(p.covers))
        nx_bridges = {frozenset(e) for e in nx.bridges(g)}
        _, bridges = blocks_and_bridges(p)
        assert {frozenset(e) for e in bridges} == nx_bridges
        nx_blocks = {frozenset(frozenset(e) for e in comp)
                     for comp in nx.biconnected_component_edges(g)}
        blocks, _ = blocks_and_bridges(p)
        assert {frozenset(frozenset(e) for e in b) for b in blocks} == nx_blocks


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_posets_classes_partition_strict_pairs(seed):
    rng = random.Random(seed)
    p = random_connected_poset(rng, rng.randint(4, 7))
    part = pair_classes(p)
    flat = [pr for cls in part.classes for pr in cls]
    assert sorted(flat, key=p.pair_key) == list(p.strict_pairs)
    assert len(set(flat)) == len(flat)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_posets_bridges_and_cycles_agree(seed):
    rng = random.Random(seed)
    p = random_connected_poset(rng, rng.randint(4, 6))
    on_cycle = set()
    for cyc in enumerate_cycles(p):
        on_cycle.update(frozenset(e) for e in zip(cyc, cyc[1:]))
    _, bridges = blocks_and_bridges(p)
    assert {frozenset(e) for e in p.covers} - on_cycle == {
        frozenset(e) for e in bridges}


def _random_posets():
    rng = random.Random(20261018)
    for n in range(6, 17):
        for dense in (False, True):
            for _ in range(4):
                yield random_connected_poset(rng, n, dense)


def _ladder_posets():
    """The shapes of the benchmark's poset ladder: its largest chain, fence
    and crown, and random posets of 24 to 60 elements."""
    crown = ["a%d" % i for i in range(16)] + ["b%d" % i for i in range(16)]
    yield chain(40)
    yield _fence(128)
    yield build_poset(crown, [(crown[i], crown[16 + (i + k) % 16])
                              for i in range(16) for k in (0, 1)])
    rng = random.Random(20261019)
    for n in (24, 36, 48, 60):
        for _ in range(2):
            yield random_connected_poset(rng, n)


def test_pair_classes_and_closure_match_references(data_dir):
    posets = (list(data_catalog(data_dir).values()) + list(_random_posets())
              + list(_ladder_posets()))
    assert max(len(p.pairs) for p in posets) > 800
    for p in posets:
        assert pair_classes(p).classes == reference_pair_classes(p)
        blocks, bridges = blocks_and_bridges(p)
        expected = reference_blocks(p)
        assert [sorted(b, key=p.pair_key) for b in blocks] == expected
        assert bridges == {b[0] for b in expected if len(b) == 1}
        covers, el = list(p.covers), p.elements
        succ = [[el.index(y) for (x, y) in covers if x == v] for v in el]
        assert {(el[i], el[j]) for i, row in enumerate(closure(succ))
                for j in row} == reference_closure(covers, el) == set(p.pairs)


def test_combinatorics_computed_once_per_poset(monkeypatch, data_dir):
    # counts the one block search, through every public entry point and
    # `lietp analyze`'s sequence of calls
    calls = {}
    original = poset._block_search

    def counted(p):
        calls[id(p)] = calls.get(id(p), 0) + 1
        return original(p)

    monkeypatch.setattr(poset, "_block_search", counted)
    posets = list(data_catalog(data_dir).values()) + [chain(6)]
    for p in posets:
        prod = random_tp(p, 3)
        for _ in range(2):
            pair_classes(p)
            blocks_and_bridges(p)
            list(enumerate_cycles(p))
            algebra.minmax_pairs(p)
            pairs = extreme_pairs(p)
            for u0 in p.elements:
                for pr in pairs:
                    sign_and_vset(p, u0, pr)
            tpstruct.LambdaMap(p, {pr: 1 for pr in pairs})
            tpstruct.decompose_tp(prod, p.elements[-1])
    assert sorted(calls) == sorted(id(p) for p in posets)
    assert set(calls.values()) == {1}


def _fence(n):
    """Zigzag f0 < f1 > f2 < f3 ...: a path whose every cover is extreme."""
    labels = ["f%d" % i for i in range(n)]
    return build_poset(labels, [
        (labels[i], labels[i + 1]) if i % 2 == 0 else (labels[i + 1], labels[i])
        for i in range(n - 1)])


def _reference_sign_and_vset(p, u0, pair):
    """Two breadth-first searches with the bridge removed."""
    side_x = component_without_edge(p, pair[0], pair)
    if u0 in side_x:
        return 1, frozenset(component_without_edge(p, pair[1], pair))
    return -1, frozenset(side_x)


def test_side_sets_match_component_search(data_dir):
    rng = random.Random(6)
    posets = (list(full_catalog()) + list(reversed_catalog())
              + list(data_catalog(data_dir).values()))
    posets += [_fence(n) for n in (2, 3, 8, 33, 128)]
    posets += [random_connected_poset(rng, rng.randint(6, 40)) for _ in range(40)]
    seen = 0
    for p in posets:
        bases = p.elements if len(p.elements) <= 40 else p.elements[::9]
        pairs = extreme_pairs(p)
        keys = set(p._memo)
        for u0 in bases:
            for pair in pairs:
                got = sign_and_vset(p, u0, pair)
                assert got == _reference_sign_and_vset(p, u0, pair)
                assert len(poset.bridge_side(p, u0, pair)[1]) == len(got[1])
                seen += 1
        # every base point reads the one search from element 0
        assert set(p._memo) == keys
    assert seen > 4000


def test_returned_values_do_not_alias_the_cache(zigzag):
    p = zigzag
    before = (extreme_pairs(p), pair_classes(p).classes, min_max(p),
              blocks_and_bridges(p), sign_and_vset(p, "1", ("1", "3")))
    extreme_pairs(p).clear()
    pair_classes(p).classes.clear()
    mins, maxs = min_max(p)
    mins.clear()
    maxs.append("9")
    blocks, bridges = blocks_and_bridges(p)
    blocks.clear()
    bridges.clear()
    assert isinstance(sign_and_vset(p, "1", ("1", "3"))[1], frozenset)
    assert (extreme_pairs(p), pair_classes(p).classes, min_max(p),
            blocks_and_bridges(p), sign_and_vset(p, "1", ("1", "3"))) == before
    # the kernel's and the oracle's bracket table is not the one handed out
    ok = is_half_derivation(tp_left_mult(random_tp(p, 1), p.pairs[0]))
    space = half_derivation_space(p)
    for rows in unit_brackets(p):
        rows.clear()
    assert is_half_derivation(
        tp_left_mult(random_tp(p, 1), p.pairs[0])) == ok == (True, None)
    assert half_derivation_space(p) == space and len(space) == 10
