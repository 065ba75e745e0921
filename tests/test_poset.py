import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ppiprep.errors import InputError
from ppiprep.gflin import subspace_lattice
from ppiprep.poset import Poset
from ppiprep.semilattice import inclusion_matrix


def diamond():
    return Poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def test_transitive_closure_from_covers():
    p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert p.lt("a", "c")
    assert not p.leq("c", "a")
    assert p.comparable("a", "c")


def test_reflexive():
    p = diamond()
    for el in p.elements:
        assert p.leq(el, el)
        assert not p.lt(el, el)


def test_cycle_rejected():
    with pytest.raises(InputError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(InputError):
        Poset(["a", "b", "c"], np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool))


def test_unknown_element_in_relation_rejected():
    with pytest.raises(InputError):
        Poset(["a"], [("a", "q")])


def test_matrix_relations():
    # entry (i, j) says element i lies below element j; the diagonal is ignored
    m = np.array([[True, True, False], [False, True, True], [False, False, False]])
    p = Poset(["a", "b", "c"], m)
    assert p == Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.covers == [("a", "b"), ("b", "c")]


@pytest.mark.parametrize("shape", [(3, 3), (2,), (2, 3), (1, 2, 2)])
def test_matrix_of_wrong_size_rejected(shape):
    with pytest.raises(InputError):
        Poset(["a", "b"], np.zeros(shape, dtype=bool))


def test_redundant_relations_reduce_to_covers():
    # the full order relation of a chain reduces back to the two cover edges
    p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(p.covers) == {("a", "b"), ("b", "c")}


def test_bounds():
    p = diamond()
    assert p.minimal_elements(["a", "b", "1"]) == ["a", "b"]
    assert p.maximal_elements(["0", "a", "b"]) == ["a", "b"]


def test_covers():
    p = diamond()
    assert p.lower_covers("1") == ["a", "b"]
    assert p.upper_covers("0") == ["a", "b"]
    assert p.lower_covers("0") == []


def test_subposet_restricts_order():
    p = diamond()
    q = p.subposet(["a", "b", "1"])
    assert q.elements == ("a", "b", "1") or list(q.elements) == ["a", "b", "1"]
    assert q.leq("a", "1")
    assert not q.comparable("a", "b")


def test_json_roundtrip():
    p = diamond()
    data = p.to_json()
    assert Poset.from_json(json.loads(json.dumps(data))) == p


def test_from_json_missing_elements():
    with pytest.raises(InputError):
        Poset.from_json({"covers": []})


def test_from_json_covers_optional():
    p = Poset.from_json({"elements": ["a", "b"]})
    assert not p.comparable("a", "b")


def test_dot_output():
    text = diamond().to_dot()
    assert text.startswith("digraph")
    assert text.count("->") == 4
    assert text.count("{") == text.count("}")


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = [f"e{i}" for i in range(n)]
    rel = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rel.append((labels[i], labels[j]))
    return Poset(labels, rel)


@given(random_posets())
def test_leq_is_a_partial_order(p):
    els = p.elements
    for a in els:
        assert p.leq(a, a)
    for a in els:
        for b in els:
            if p.leq(a, b) and p.leq(b, a):
                assert a == b
            for c in els:
                if p.leq(a, b) and p.leq(b, c):
                    assert p.leq(a, c)


@given(random_posets())
def test_covers_match_order(p):
    # b covers a iff a < b with nothing strictly between
    for a in p.elements:
        for b in p.elements:
            strictly_between = any(p.lt(a, m) and p.lt(m, b) for m in p.elements)
            is_cover = (a, b) in set(p.covers)
            assert is_cover == (p.lt(a, b) and not strictly_between)


@st.composite
def random_relations(draw):
    """Labels plus arbitrary pairs of distinct indices; cycles are likely."""
    n = draw(st.integers(min_value=0, max_value=7))
    if n < 2:
        return [f"e{i}" for i in range(n)], []
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return [f"e{i}" for i in range(n)], draw(st.lists(edge, max_size=10))


@given(random_relations())
def test_matrix_form_equals_pair_form(case):
    labels, edges = case
    matrix = np.zeros((len(labels), len(labels)), dtype=bool)
    for i, j in edges:
        matrix[i, j] = True
    pairs = [(labels[i], labels[j]) for i, j in edges]
    try:
        want = Poset(labels, pairs)
    except InputError:
        with pytest.raises(InputError):
            Poset(labels, matrix)
        return
    got = Poset(labels, matrix)
    assert got == want
    assert got.covers == want.covers


def warshall(n: int, pairs) -> tuple[list[int], list[tuple[int, int]]]:
    """Strict order rows as bitsets, and the covers in row-major order."""
    above = [0] * n
    for i, j in pairs:
        above[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if above[i] >> k & 1:
                above[i] |= above[k]
    below = [sum(1 << i for i in range(n) if above[i] >> j & 1) for j in range(n)]
    covers = [(i, j) for i in range(n) for j in range(n)
              if above[i] >> j & 1 and not above[i] & below[j]]
    return above, covers


def _closure_matches_warshall(elements, pairs):
    p = Poset(elements, [(elements[i], elements[j]) for i, j in pairs])
    above, covers = warshall(len(elements), pairs)
    assert [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in p._lt] == above
    assert p.covers == [(elements[i], elements[j]) for i, j in covers]


def test_float_closure_is_exact_on_a_long_chain():
    # 400 elements in shuffled order, related by their 399 covers only:
    # nine squarings, with counts up to 398
    rng = random.Random(400)
    chain = list(range(400))
    rng.shuffle(chain)
    _closure_matches_warshall([f"c{k}" for k in range(400)], list(zip(chain, chain[1:])))


def test_float_closure_is_exact_on_subspace_lattice_5_2():
    lat = subspace_lattice(5, 2)
    _closure_matches_warshall(lat.elements, [(lat.index(a), lat.index(b)) for a, b in lat.covers])


@given(st.lists(st.frozensets(st.integers(0, 7)), min_size=1, max_size=12))
def test_inclusion_matrix_is_set_inclusion(sets):
    assert inclusion_matrix(sets).tolist() == [[a <= b for b in sets] for a in sets]
