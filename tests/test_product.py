import itertools
import random

import pytest

from ppiprep.errors import InputError, NotModularError
from ppiprep.gflin import subspace_lattice
from ppiprep.ppip import birkhoff_roundtrip, consistent_subspaces, induced_ppip
from ppiprep.semilattice import Semilattice
from ppiprep.product import (
    MembershipOracle,
    build_ppip,
    compute_bases,
    join_irreducible_elements,
    lcp_leq,
    oracle_from_minimizers,
    oracle_from_set,
)

from helpers import as_semilattice, close_set, make_c3, make_m3, make_s2, make_s3, product_universe


def square_oracle():
    """The closed quadrant {bot,a} x {bot,b} inside S2^2."""
    members = [("bot", "bot"), ("a", "bot"), ("bot", "b"), ("a", "b")]
    return oracle_from_set(members, make_s2())


# -- oracle basics -------------------------------------------------------

def test_oracle_query_and_cache_counter():
    O = square_oracle()
    before = O.call_counter
    assert O.query(0, 1, "a", "b") is True
    mid = O.call_counter
    assert O.query(0, 1, "a", "b") is True
    assert O.query(1, 0, "b", "a") is True  # symmetric normal form, same entry
    assert O.call_counter == mid and mid == before + 1


def test_oracle_coordinate_range_checked():
    O = square_oracle()
    with pytest.raises(InputError):
        O.query(0, 2, "a", "b")


def test_oracle_from_set_rejects_non_closed():
    with pytest.raises(InputError) as exc:
        oracle_from_set([("a", "bot"), ("bot", "b")], make_s2())
    assert "closed" in str(exc.value)


def test_oracle_from_set_rejects_empty():
    with pytest.raises(InputError):
        oracle_from_set([], make_s2(), n=2)


def test_single_factor_requires_count():
    with pytest.raises(InputError):
        MembershipOracle(make_s2())


@pytest.mark.parametrize("build", [
    lambda s2: MembershipOracle([s2, s2], n=3),
    lambda s2: oracle_from_set([("bot", "bot")], [s2, s2], n=3),
    lambda s2: oracle_from_minimizers([], [s2, s2], n=3),
], ids=["oracle", "from-set", "from-minimizers"])
def test_coordinate_count_must_match_factor_list(build):
    with pytest.raises(InputError, match="coordinate count 3 does not match 2 factors"):
        build(make_s2())


def test_query_matches_member_scan():
    rng = random.Random(31)
    pool = [make_s2(), make_s3(), make_m3(), make_c3(), subspace_lattice(2, 2)]
    checked = 0
    while checked < 20:
        lats = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        universe = product_universe(lats)
        B = close_set(rng.sample(universe, rng.randint(1, min(4, len(universe)))), lats)
        if len(B) > 60:
            continue
        O = oracle_from_set(B, lats)
        for i, j in itertools.product(range(len(lats)), repeat=2):
            for l, l2 in itertools.product(lats[i].elements, lats[j].elements):
                # the reference: scan the members for one taking l at i and l2 at j
                assert O.query(i, j, l, l2) == any(m[i] == l and m[j] == l2 for m in O.members)
        checked += 1


# -- bases ---------------------------------------------------------------

def test_bases_of_square():
    O = square_oracle()
    bases = compute_bases(O)
    assert bases[(0, "a")].vector == ("a", "bot")
    assert bases[(1, "b")].vector == ("bot", "b")
    assert bases[(0, "bot")].vector == ("bot", "bot")
    assert (0, "b") not in bases


def test_base_comparison_single_coordinate():
    O = square_oracle()
    e = compute_bases(O)[(0, "a")]
    assert lcp_leq(e, ("a", "b")) is True
    assert lcp_leq(e, ("bot", "b")) is False
    assert lcp_leq(e, ("a", "bot")) is True


def test_call_count_bound_on_bases():
    O = square_oracle()
    compute_bases(O)
    bound = sum(len(l) for l in O.lattices) ** 2
    assert O.call_counter <= bound


def test_call_count_bound_is_checked(monkeypatch):
    # accounting that overspends is caught, also under python -O
    O = square_oracle()
    answer = O._fn

    def overspending(*args):
        O.call_counter += 100
        return answer(*args)

    monkeypatch.setattr(O, "_fn", overspending)
    with pytest.raises(AssertionError, match="oracle call accounting broken"):
        compute_bases(O)


# -- irreducibles and the represented structure --------------------------

def test_join_irreducibles_of_square():
    irr = join_irreducible_elements(square_oracle())
    assert {p.vector for p in irr} == {("a", "bot"), ("bot", "b")}


def test_join_irreducibles_of_singleton():
    O = oracle_from_set([("bot",)], make_s2(), n=1)
    assert join_irreducible_elements(O) == []


def test_build_ppip_square():
    pp = build_ppip(square_oracle())
    assert len(pp.poset) == 2
    assert not pp.inconsistent and not pp.collinear
    assert len(consistent_subspaces(pp)) == 4


def test_build_ppip_antichain_inconsistency():
    O = oracle_from_set([("bot",), ("a",), ("b",)], make_s2(), n=1)
    pp = build_ppip(O)
    assert len(pp.poset) == 2
    assert len(pp.inconsistent) == 1
    assert not pp.collinear


def test_build_ppip_diamond_collinearity():
    m3 = make_m3()
    O = oracle_from_set([(e,) for e in m3.elements], m3, n=1)
    pp = build_ppip(O)
    assert len(pp.poset) == 3
    assert not pp.inconsistent
    assert len(pp.collinear) == 1


def test_build_ppip_rejects_non_modular_factor():
    n5 = Semilattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
    O = oracle_from_set([(e,) for e in n5.elements], n5, n=1)
    with pytest.raises(NotModularError):
        build_ppip(O)


# -- minimizer-backed oracles --------------------------------------------

def test_minimizers_of_zero_function():
    O = oracle_from_minimizers([], make_s2(), n=2)
    assert len(O.members) == 9
    assert O.minimum == 0


def test_minimizers_of_separable_indicator():
    terms = [((0,), lambda x: 0.0 if x == "bot" else 1.0),
             ((1,), lambda y: 0.0 if y == "bot" else 1.0)]
    O = oracle_from_minimizers(terms, make_s2(), n=2)
    assert O.members == [("bot", "bot")]
    assert O.minimum == 0


def test_minimizers_non_closed_rejected():
    # max(x, y)-style coupling whose argmin set is not join-closed
    s2 = make_s2()
    terms = [((0, 1), lambda x, y: 0.0 if (x == "bot") != (y == "bot") else 1.0)]
    with pytest.raises(InputError) as exc:
        oracle_from_minimizers(terms, s2, n=2)
    assert "submodular" in str(exc.value)


# -- randomized equivalence against the direct construction --------------

def test_random_closed_sets_match_induced_structure():
    rng = random.Random(4242)
    pool = [make_s2(), make_s3(), make_m3(), make_c3()]
    checked = 0
    while checked < 40:
        L = rng.choice(pool)
        n = rng.randint(1, 4)
        if len(L) ** n > 4000:
            continue
        universe = product_universe([L] * n)
        B = close_set(rng.sample(universe, rng.randint(1, min(8, len(universe)))), [L] * n)
        if len(B) > 200:
            continue
        O = oracle_from_set(B, L, n=n)
        got = build_ppip(O)
        want = induced_ppip(as_semilattice(B, [L] * n))
        assert got == want
        assert O.call_counter <= n * n * len(L) ** 2
        assert len(join_irreducible_elements(O)) <= n * len(L.join_irreducibles())
        assert len(consistent_subspaces(got)) == len(B)
        checked += 1


def test_mixed_factor_products():
    rng = random.Random(7)
    pool = [make_s2(), make_s3(), make_m3(), make_c3(), subspace_lattice(2, 3), subspace_lattice(2, 5)]
    for _ in range(40):
        lats = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        universe = product_universe(lats)
        if len(universe) > 2000:
            continue
        B = close_set(rng.sample(universe, rng.randint(1, min(6, len(universe)))), lats)
        if len(B) > 200:
            continue
        O = oracle_from_set(B, lats)
        assert build_ppip(O) == induced_ppip(as_semilattice(B, lats))


def test_closed_sets_roundtrip():
    rng = random.Random(11)
    s2, m3 = make_s2(), make_m3()
    for _ in range(10):
        universe = product_universe([s2, m3])
        B = close_set(rng.sample(universe, 4), [s2, m3])
        rt = birkhoff_roundtrip(as_semilattice(B, [s2, m3]))
        assert rt["ok"]
