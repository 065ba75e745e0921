import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ppiprep.errors import InputError, NotSemilatticeError
from ppiprep.poset import Poset
from ppiprep.semilattice import Semilattice

from helpers import make_c3, make_m3, make_n5_poset_json, make_s2, make_s3


def brute_meet(p: Poset, a, b):
    lower = [x for x in p.elements if p.leq(x, a) and p.leq(x, b)]
    tops = [x for x in lower if all(not p.lt(x, y) for y in lower)]
    return tops[0] if len(tops) == 1 else None


def brute_join(p: Poset, a, b):
    upper = [x for x in p.elements if p.leq(a, x) and p.leq(b, x)]
    bots = [x for x in upper if all(not p.lt(y, x) for y in upper)]
    return bots[0] if len(bots) == 1 and all(p.leq(bots[0], y) for y in upper) else None


def test_meetless_pair_rejected():
    # bowtie: c and d share two maximal lower bounds
    with pytest.raises(NotSemilatticeError) as exc:
        Semilattice(["a", "b", "c", "d"],
                    [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert isinstance(exc.value.witness, tuple) and len(exc.value.witness) == 2


def test_meetless_pair_is_the_witness_although_an_earlier_row_has_joinless_bounds():
    # e1 and e2 have upper bounds e3 and e4 but no least one, because e3 and
    # e4 have no greatest lower bound; the witness is the meetless pair
    with pytest.raises(NotSemilatticeError, match="no greatest common lower bound") as exc:
        Semilattice(["e2", "e1", "e3", "e4", "e0"],
                    [("e0", "e1"), ("e0", "e2"), ("e0", "e3"),
                     ("e1", "e3"), ("e1", "e4"), ("e2", "e3"), ("e2", "e4")])
    assert exc.value.witness == ("e3", "e4")


def test_meet_join_tables_match_brute_force():
    for lat in (make_s2(), make_s3(), make_m3(), make_c3()):
        for a in lat.elements:
            for b in lat.elements:
                assert lat.meet(a, b) == brute_meet(lat, a, b)
                assert lat.join(a, b) == brute_join(lat, a, b)
                assert lat.has_join(a, b) == (brute_join(lat, a, b) is not None)


@st.composite
def random_orders(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = [f"e{i}" for i in range(n)]
    rel = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return Poset(draw(st.permutations(labels)), rel)


@settings(max_examples=200, deadline=None)
@given(random_orders())
def test_meet_join_tables_match_brute_force_on_random_posets(p):
    # either the tables agree with the definitions, or the witness pair
    # really has no greatest common lower bound
    try:
        lat = Semilattice.from_poset(p)
    except NotSemilatticeError as exc:
        a, b = exc.witness
        assert brute_meet(p, a, b) is None
        return
    for a in lat.elements:
        for b in lat.elements:
            assert lat.meet(a, b) == brute_meet(p, a, b)
            assert lat.join(a, b) == brute_join(p, a, b)


def test_min_element():
    assert make_m3().min_element == "0"
    assert make_s3().min_element == "bot"


def test_join_all_and_meet_all():
    m3 = make_m3()
    assert m3.join_all([]) == "0"
    assert m3.join_all(["x", "y"]) == "1"
    assert m3.meet_all(["x", "y", "z"]) == "0"
    with pytest.raises(ValueError):
        m3.meet_all([])
    s3 = make_s3()
    assert s3.join_all(["a", "b"]) is None


def test_join_irreducibles():
    assert make_m3().join_irreducibles() == ["x", "y", "z"]
    assert make_c3().join_irreducibles() == ["m", "1"]
    assert make_s2().join_irreducibles() == ["a", "b"]


def test_modular_fixtures():
    for lat in (make_s2(), make_s3(), make_m3(), make_c3()):
        ok, witness = lat.is_modular_semilattice()
        assert ok and witness is None


def test_pentagon_fails_modular_law():
    lat = Semilattice.from_poset(Poset.from_json(make_n5_poset_json()))
    ok, witness = lat.is_modular_semilattice()
    assert not ok
    assert witness["condition"] == "modular-law"
    assert set(witness["triple"]) <= set(lat.elements)


def test_missing_triple_join_detected():
    # pairwise joins exist, the triple join does not
    lat = Semilattice(
        ["bot", "a", "b", "c", "ab", "bc", "ca"],
        [("bot", "a"), ("bot", "b"), ("bot", "c"),
         ("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"),
         ("c", "ca"), ("a", "ca")])
    ok, witness = lat.is_modular_semilattice()
    assert not ok
    assert witness["condition"] == "triple-join"


def test_median_fixtures():
    assert make_c3().is_median_semilattice()[0]
    assert make_s2().is_median_semilattice()[0]
    ok, witness = make_m3().is_median_semilattice()
    assert not ok and witness is not None


def test_from_poset_equivalent_to_ctor():
    p = Poset(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert Semilattice.from_poset(p) == Semilattice(["0", "a", "b"], [("0", "a"), ("0", "b")])


def modular_by_definition(lat: Semilattice) -> bool:
    """Direct transcription of the two conditions, as an independent oracle."""
    els = lat.elements
    for a, b, c in itertools.product(els, repeat=3):
        if lat.leq(a, c) and lat.has_join(b, c):
            lhs = lat.join(a, lat.meet(b, c))
            rhs = lat.meet(lat.join(a, b), c)
            if lhs != rhs:
                return False
    for a, b, c in itertools.combinations(els, 3):
        if lat.has_join(a, b) and lat.has_join(b, c) and lat.has_join(a, c):
            top = [u for u in els if lat.leq(a, u) and lat.leq(b, u) and lat.leq(c, u)]
            if not top:
                return False
    return True


@st.composite
def meet_closed_families(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    ground = list(range(n))
    subsets = [frozenset(s) for k in range(n + 1) for s in itertools.combinations(ground, k)]
    picked = {frozenset(ground)} | {s for s in subsets if draw(st.booleans())}
    # close under intersection so meets exist
    changed = True
    family = set(picked)
    while changed:
        changed = False
        for s, t in itertools.combinations(list(family), 2):
            if s & t not in family:
                family.add(s & t)
                changed = True
    ordered = sorted(family, key=lambda s: (len(s), sorted(s)))
    ids = [tuple(sorted(s)) for s in ordered]
    rel = [(a, b) for a in ids for b in ids if a != b and set(a) <= set(b)]
    return Semilattice(ids, rel)


@settings(max_examples=60, deadline=None)
@given(meet_closed_families())
def test_modular_check_matches_definition(lat):
    assert lat.is_modular_semilattice()[0] == modular_by_definition(lat)


@settings(max_examples=40, deadline=None)
@given(meet_closed_families())
def test_witness_names_a_real_violation(lat):
    ok, witness = lat.is_modular_semilattice()
    if ok:
        return
    a, b, c = witness["triple"]
    if witness["condition"] == "modular-law":
        assert lat.leq(a, c) and lat.has_join(b, c)
        assert lat.join(a, lat.meet(b, c)) != lat.meet(lat.join(a, b), c)
    else:
        assert lat.has_join(a, b) and lat.has_join(b, c) and lat.has_join(a, c)
        assert not any(lat.leq(a, u) and lat.leq(b, u) and lat.leq(c, u)
                       for u in lat.elements)


def modular_by_search(lat: Semilattice) -> dict | None:
    """The first violation in canonical order: over triples (a, b, c) the
    modular law, then over triples (x, y, z) the triple-join condition."""
    els = lat.elements
    for a, b, c in itertools.product(els, repeat=3):
        if lat.leq(a, c) and lat.has_join(b, c) \
                and lat.join(a, lat.meet(b, c)) != lat.meet(lat.join(a, b), c):
            return {"condition": "modular-law", "triple": (a, b, c)}
    for x, y, z in itertools.product(els, repeat=3):
        if lat.has_join(x, y) and lat.has_join(x, z) and lat.has_join(y, z) \
                and not lat.has_join(lat.join(x, y), z):
            return {"condition": "triple-join", "triple": (x, y, z)}
    return None


@st.composite
def orders_with_bottom(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    labels = [f"e{i}" for i in range(n)]
    rel = [(labels[0], b) for b in labels[1:]]
    rel += [(labels[i], labels[j]) for i in range(1, n) for j in range(i + 1, n) if draw(st.booleans())]
    return Poset(draw(st.permutations(labels)), rel)


@settings(max_examples=150, deadline=None)
@given(orders_with_bottom())
def test_rank_route_matches_definition_search_and_brute_tables(p):
    try:
        lat = Semilattice.from_poset(p)
    except NotSemilatticeError as exc:
        assert brute_meet(p, *exc.witness) is None
        return
    for a in lat.elements:
        for b in lat.elements:
            assert lat.meet(a, b) == brute_meet(p, a, b)
            assert lat.join(a, b) == brute_join(p, a, b)
    ok, witness = lat.is_modular_semilattice()
    assert ok == modular_by_definition(lat)
    assert witness == modular_by_search(lat)
