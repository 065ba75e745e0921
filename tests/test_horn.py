import itertools
import json
import random
from functools import partial

import pytest

import ppiprep.horn as horn
from ppiprep.errors import BudgetError, InputError
from ppiprep.gflin import subspace_lattice
from ppiprep.horn import (
    ImplicationalSystem,
    irreducible_ppip,
    optimal_base,
    optimal_base_from_implications,
    pseudoclosed_sets,
    quasiclosure,
    recognize_modular_semilattice,
)
from ppiprep.ppip import check_axioms, induced_ppip
from ppiprep.semilattice import Semilattice

from helpers import DATA, make_c2, make_c3, make_mk, make_s2, make_s3, pairwise_join_system, product_of

SIGMA_NINE = (DATA / "sigma_nine.txt").read_text()


def nine_system() -> ImplicationalSystem:
    return ImplicationalSystem.from_text(SIGMA_NINE)


def m3_system() -> ImplicationalSystem:
    return ImplicationalSystem(
        ["x", "y", "z"],
        [(["x", "y"], ["z"]), (["y", "z"], ["x"]), (["x", "z"], ["y"])])


def brute_closure(sigma: ImplicationalSystem, xs) -> frozenset | None:
    """Independent fixpoint oracle: apply implications until stable."""
    current = set(xs)
    changed = True
    while changed:
        changed = False
        for prem, concl in sigma.implications:
            if set(prem) <= current:
                if not concl:
                    return None
                if not set(concl) <= current:
                    current |= set(concl)
                    changed = True
    return frozenset(current)


# -- parsing and serialization -------------------------------------------

def test_parse_nine_system():
    sp = nine_system()
    assert sp.ground == ("1", "2", "3", "4", "5", "6", "7", "8")
    assert sp.size() == 24
    assert len(sp.implications) == 9


def test_text_roundtrip():
    sp = nine_system()
    assert ImplicationalSystem.from_text(sp.to_text()) == sp


def test_json_roundtrip():
    sp = nine_system()
    assert ImplicationalSystem.from_json(json.loads(json.dumps(sp.to_json()))) == sp


def test_parse_rejects_missing_arrow():
    with pytest.raises(InputError):
        ImplicationalSystem.from_text("a b c\n")


def test_json_rejects_missing_keys():
    with pytest.raises(InputError):
        ImplicationalSystem.from_json({"implications": []})


def test_unknown_element_in_closure_query():
    with pytest.raises(InputError):
        nine_system().closure(["no-such"])


# -- closure -------------------------------------------------------------

def test_singleton_closures_match_hand_computation():
    sp = nine_system()
    expected = {"4": {"1", "3", "4", "5"}, "5": {"1", "3", "5"},
                "6": {"1", "2", "6"}, "7": {"2", "3", "7"}}
    for e in sp.ground:
        r = sp.closure([e])
        assert r.exists and r.value == frozenset(expected.get(e, {e}))


def test_forbidden_pairs_have_no_closure():
    sp = nine_system()
    assert not sp.closure(["1", "8"]).exists
    assert not sp.closure(["2", "4"]).exists
    assert not sp.closure(["2", "3", "4"]).exists


def test_closure_equals_brute_force_on_every_subset():
    sp = nine_system()
    for k in range(len(sp.ground) + 1):
        for xs in itertools.combinations(sp.ground, k):
            want = brute_closure(sp, xs)
            got = sp.closure(xs)
            assert got.value == want


def test_closure_with_empty_premises_equals_brute_force():
    # implications without premise, proper (-> a) or improper (-> _|_),
    # hold in every closure or forbid them all
    rng = random.Random(20261021)
    axioms = improper = 0
    for _ in range(400):
        ground = [str(i) for i in range(rng.randint(1, 7))]
        imps = []
        for _ in range(rng.randint(1, 7)):
            prem = rng.sample(ground, min(rng.choice([0, 0, 1, 2, 3]), len(ground)))
            concl = [] if rng.random() < 0.15 else rng.sample(ground, rng.randint(1, min(2, len(ground))))
            imps.append((prem, concl))
        sigma = ImplicationalSystem(ground, imps)
        for a, b in sigma.implications:
            axioms += not a
            improper += not a and not b
        for k in range(len(ground) + 1):
            for xs in itertools.combinations(ground, k):
                assert sigma.closure(xs).value == brute_closure(sigma, xs), (sigma.to_text(), xs)
    assert axioms > 300 and improper > 30


def test_closure_idempotent_and_extensive():
    sp = nine_system()
    rng = random.Random(5)
    for _ in range(50):
        xs = rng.sample(sp.ground, rng.randint(0, 5))
        r = sp.closure(xs)
        if r.exists:
            assert set(xs) <= r.value
            assert sp.closure(r.value).value == r.value


# -- family and induced structure ----------------------------------------

def test_family_of_nine_system():
    L = nine_system().family()
    assert len(L) == 21
    assert L.is_modular_semilattice()[0]


def test_family_budget():
    with pytest.raises(BudgetError):
        nine_system().closed_sets(budget=16)


def line_system(points: str) -> ImplicationalSystem:
    """One line: any two of its points imply all the others."""
    return ImplicationalSystem(list(points), [(pair, [x for x in points if x not in pair])
                                              for pair in itertools.combinations(points, 2)])


def fano_system() -> ImplicationalSystem:
    """The subspaces of the projective plane over GF(2), on its 7 points."""
    lines = ["124", "235", "346", "457", "561", "672", "713"]
    return ImplicationalSystem(list("1234567"), [([a, b], [c]) for line in lines
                                                 for a, b, c in itertools.permutations(line)])


def random_system(seed: int) -> ImplicationalSystem:
    rng = random.Random(seed)
    ground = [str(i) for i in range(rng.randint(2, 7))]
    imps = [(rng.sample(ground, rng.randint(1, min(3, len(ground)))), rng.sample(ground, rng.randint(1, 2)))
            for _ in range(rng.randint(0, 8))]
    return ImplicationalSystem(ground, imps)


def test_irreducible_ppip_matches_family_route():
    cases = [(nine_system(), 8), (line_system("abcd"), 4), (line_system("abcdef"), 6), (fano_system(), 7)]
    cases += [(random_system(seed), None) for seed in range(20)]
    for sp, points in cases:
        direct = irreducible_ppip(sp)
        assert direct == induced_ppip(sp.family()), sp.to_text()
        if points is not None:
            assert len(direct.poset) == points
            assert check_axioms(direct)[0]


# -- recognition ---------------------------------------------------------

def test_recognize_nine_system_yes():
    ok, witness = recognize_modular_semilattice(nine_system())
    assert ok and witness is None


def test_recognize_never_enumerates_family():
    before = horn.FAMILY_ENUMERATIONS
    recognize_modular_semilattice(nine_system())
    recognize_modular_semilattice(m3_system())
    assert horn.FAMILY_ENUMERATIONS == before


def test_family_call_bumps_instrumentation():
    before = horn.FAMILY_ENUMERATIONS
    nine_system().family()
    assert horn.FAMILY_ENUMERATIONS == before + 1


def test_recognize_pentagon_encoding_no():
    n5 = ImplicationalSystem(["a", "b", "c"], [(["c"], ["a"]), (["a", "b"], ["c"])])
    ok, witness = recognize_modular_semilattice(n5)
    assert not ok
    assert witness["condition"] == "implication-generation"


def test_recognize_sole_improper_no():
    imp = ImplicationalSystem(["a", "b", "c"], [(["a", "b", "c"], [])])
    ok, witness = recognize_modular_semilattice(imp)
    assert not ok
    assert witness["condition"] == "improper-premise-consistent"


def test_recognize_small_fixtures_yes():
    assert recognize_modular_semilattice(m3_system())[0]
    chain = ImplicationalSystem(["a", "b"], [(["b"], ["a"])])
    assert recognize_modular_semilattice(chain)[0]
    empty = ImplicationalSystem(["a", "b"], [])
    assert recognize_modular_semilattice(empty)[0]


def test_recognize_matches_brute_force_sample():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(1, 6)
        ground = [str(i) for i in range(n)]
        imps = []
        for _ in range(rng.randint(0, 8)):
            prem = rng.sample(ground, min(rng.choice([1, 1, 2, 2, 3, 0]), n))
            concl = [] if rng.random() < 0.1 else rng.sample(ground, min(rng.choice([1, 1, 2]), n))
            imps.append((prem, concl))
        sigma = ImplicationalSystem(ground, imps)
        got, _ = recognize_modular_semilattice(sigma)
        try:
            want, _ = sigma.family().is_modular_semilattice()
        except InputError:
            want = False
        assert got == want, sigma.to_text()


# -- pseudoclosed sets and quasiclosure ----------------------------------

def test_pseudoclosed_m3():
    got = {frozenset(s) for s in pseudoclosed_sets(m3_system())}
    assert got == {frozenset({"x", "y"}), frozenset({"x", "z"}), frozenset({"y", "z"})}


def test_pseudoclosed_nine_system():
    got = {frozenset(s) for s in pseudoclosed_sets(nine_system())}
    expected = [{"4"}, {"5"}, {"6"}, {"7"}, {"1", "8"},
                {"1", "2", "3", "5", "6"}, {"1", "2", "3", "5", "7"},
                {"1", "2", "3", "6", "7"}, {"1", "2", "3", "4", "5"}]
    assert got == {frozenset(s) for s in expected}


def brute_pseudoclosed(sigma: ImplicationalSystem) -> set[frozenset]:
    """The recursive definition: P is pseudoclosed when it is not closed
    and contains the closure of every smaller pseudoclosed set.  A set
    without closure is never closed and contains no closure."""
    found = []
    for size in range(len(sigma.ground) + 1):
        for xs in itertools.combinations(sigma.ground, size):
            p = frozenset(xs)
            if brute_closure(sigma, p) == p:
                continue
            if all((c := brute_closure(sigma, q)) is not None and c <= p for q in found if q < p):
                found.append(p)
    return set(found)


MODULAR_FAMILIES = {
    **{f"M{k}": partial(make_mk, k) for k in range(3, 8)},
    **{f"L({d},{p})": partial(subspace_lattice, d, p) for d, p in [(2, 2), (3, 2), (2, 3), (2, 5), (2, 7)]},
    "M3xC2": lambda: product_of(make_mk(3), make_c2()),
    "M3xC3": lambda: product_of(make_mk(3), make_c3()),
    "M3xM3": lambda: product_of(make_mk(3), make_mk(3)),
    "S3xS2": lambda: product_of(make_s3(), make_s2()),
    "M3xS2xC2": lambda: product_of(make_mk(3), make_s2(), make_c2()),
    "M4xC2": lambda: product_of(make_mk(4), make_c2()),
    "M3xM4": lambda: product_of(make_mk(3), make_mk(4)),
    "S3xS3": lambda: product_of(make_s3(), make_s3()),
}


@pytest.mark.parametrize("family", MODULAR_FAMILIES)
def test_pseudoclosed_matches_definition_on_relabelled_modular_families(family):
    L = MODULAR_FAMILIES[family]()
    for seed in range(3):
        sigma = pairwise_join_system(L, random.Random(seed))
        got = {frozenset(s) for s in pseudoclosed_sets(sigma)}
        assert got == brute_pseudoclosed(sigma), (family, seed)


def test_pseudoclosed_crosscheck_catches_a_dropped_implication(monkeypatch):
    build = horn._build_optimal_base

    def drop_last(L):
        base = build(L)
        return ImplicationalSystem(base.ground, base.implications[:-1])

    monkeypatch.setattr(horn, "_build_optimal_base", drop_last)
    with pytest.raises(AssertionError, match="pseudoclosed routes disagree"):
        pseudoclosed_sets(nine_system())


def test_quasiclosure_spots():
    sp = nine_system()
    assert quasiclosure(sp, ["1", "8"]) == frozenset({"1", "8"})
    assert quasiclosure(sp, ["2", "4"]) == frozenset({"1", "2", "3", "4", "5"})


# -- optimal bases -------------------------------------------------------

@pytest.mark.parametrize("k", range(3, 7))
def test_mn_intervals_of_mk(k):
    assert horn._mn_intervals(make_mk(k)) == [("0", "1", [f"a{i}" for i in range(k)])]


def test_mn_intervals_skip_an_interior_chain():
    # 0 < a < a2 < 1 next to the atoms b, c: the interior of [0, 1] is not
    # an antichain, and no other interval has three intermediates
    L = Semilattice(["0", "a", "b", "c", "a2", "1"],
                    [("0", "a"), ("a", "a2"), ("a2", "1"), ("0", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
    assert horn._mn_intervals(L) == []


def test_optimal_base_of_nine_family():
    base = optimal_base(nine_system().family())
    assert base.size() == 24
    assert len(base.implications) == 9


def test_optimal_base_pulled_back_reproduces_nine_base():
    sp = nine_system()
    opt = optimal_base_from_implications(sp)
    assert opt == sp


def test_optimal_base_m3_and_chain():
    m3 = m3_system()
    assert optimal_base_from_implications(m3) == m3
    chain = ImplicationalSystem(["a", "b"], [(["b"], ["a"])])
    assert optimal_base_from_implications(chain) == chain


def test_optimal_base_drops_redundancy():
    redundant = ImplicationalSystem(
        ["x", "y", "z"],
        [(["x", "y"], ["z"]), (["y", "z"], ["x"]), (["x", "z"], ["y"]),
         (["x", "y", "z"], ["x"]), (["x", "y"], ["z"])])
    assert optimal_base_from_implications(redundant) == m3_system()


def test_optimal_base_family_equality():
    sp = nine_system()
    opt = optimal_base_from_implications(sp)
    want = {frozenset(s) for s in sp.closed_sets()}
    got = {frozenset(s) for s in opt.closed_sets()}
    assert got == want


def test_optimal_base_from_implications_enumerates_twice():
    before = horn.FAMILY_ENUMERATIONS
    optimal_base_from_implications(nine_system())
    assert horn.FAMILY_ENUMERATIONS == before + 2


def test_regeneration_check_catches_a_dropped_implication(monkeypatch):
    build = horn._build_optimal_base

    def lossy(L):
        base = build(L)
        return ImplicationalSystem(base.ground, base.implications[1:])

    monkeypatch.setattr(horn, "_build_optimal_base", lossy)
    with pytest.raises(AssertionError, match="optimal base does not regenerate the family"):
        optimal_base_from_implications(nine_system())
    with pytest.raises(AssertionError, match="optimal base does not regenerate the family"):
        optimal_base(nine_system().family())


def test_optimal_base_budget():
    with pytest.raises(BudgetError):
        optimal_base_from_implications(nine_system(), budget=4)
