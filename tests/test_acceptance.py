"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion runs at its stated tolerance; timings use wall-clock
budgets generous enough for CI noise but tight enough to catch
regressions of the intended complexity.
"""

import itertools
import json
import random
import time

import ppiprep.horn as horn
from ppiprep.errors import InputError
from ppiprep.gflin import (
    GFMatrix,
    PartitionedMatrix,
    Subspace,
    VanishingTuple,
    dm_decompose,
    mvsp_solve,
    polar_space_ppip,
    subspace_lattice,
    vanishes,
)
from ppiprep.horn import ImplicationalSystem, optimal_base_from_implications, recognize_modular_semilattice
from ppiprep.ppip import birkhoff_roundtrip, check_axioms, consistent_subspaces, induced_ppip
from ppiprep.product import build_ppip, join_irreducible_elements, oracle_from_set
from ppiprep.semilattice import Semilattice

from helpers import (DATA, as_semilattice, close_set, make_c2, make_c3, make_m3, make_s2, make_s3, product_universe,
                     random_system)


def report(num, elapsed, detail):
    print(f"criterion {num}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_nine_implication_base_recognized_and_reoptimized():
    t0 = time.monotonic()
    sigma = ImplicationalSystem.from_text((DATA / "sigma_nine.txt").read_text())
    ok, witness = recognize_modular_semilattice(sigma)
    assert ok and witness is None
    base = optimal_base_from_implications(sigma)
    assert len(base.implications) == 9
    assert base.size() == 24
    want = {frozenset(s) for s in sigma.closed_sets()}
    got = {frozenset(s) for s in base.closed_sets()}
    assert got == want
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, elapsed, "recognize yes; optimal base has 9 implications, size 24, same family")


def test_criterion_2_polar_space_fixture():
    t0 = time.monotonic()
    ppip = polar_space_ppip([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2)
    assert len(ppip.poset) == 7
    ok, witness = check_axioms(ppip)
    assert ok and witness is None
    lattice = consistent_subspaces(ppip)
    assert lattice.is_modular_semilattice()[0]
    assert birkhoff_roundtrip(lattice)["ok"]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, elapsed, "7 points, all eight axioms, modular subspace lattice, round trip")


def test_criterion_3_dm_decomposition_fixture():
    t0 = time.monotonic()
    A = PartitionedMatrix.from_json(json.loads((DATA / "matrix_6x6.json").read_text()))

    # (a) the displayed identity, by direct multiplication
    left = GFMatrix([
        [1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 1, 1, 0, 0]], 2)
    right = GFMatrix([
        [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], 2)
    displayed = GFMatrix([
        [1, 1, 0, 0, 1, 0], [1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], 2)
    assert left @ A.matrix @ right == displayed

    # (b) optimum total dimension
    optimum, oracle = mvsp_solve(A)
    assert optimum == 6

    # (c) the six listed tuples vanish at dimension 6 and are the irreducibles
    F2, Z2 = Subspace.full(2, 2), Subspace.zero(2, 2)
    e1 = Subspace.from_vectors([(0, 1)], 2, 2)
    e2 = Subspace.from_vectors([(1, 1)], 2, 2)
    e3 = Subspace.from_vectors([(1, 0)], 2, 2)
    listed = [
        (Z2, e1, Z2, F2, F2, e1),
        (Z2, e2, Z2, F2, F2, e3),
        (Z2, e3, Z2, F2, F2, e2),
        (e2, F2, e2, e1, e3, Z2),
        (e1, e3, Z2, e3, F2, e2),
        (e1, e3, e1, e3, e1, e2),
    ]
    points = set(build_ppip(oracle).poset.elements)
    for tup in listed:
        vt = VanishingTuple(tup[:3], tup[3:])
        assert vt.total_dim == 6
        assert vanishes(A, vt)
        assert tup in points
    assert len(points) == 6

    # (d) invertible transforms, zero below the stage diagonal
    dm = dm_decompose(A)
    assert all(E.is_invertible() for E in dm.E_blocks)
    assert all(F.is_invertible() for F in dm.F_blocks)
    assert dm.P.is_invertible() and dm.Q.is_invertible()
    rstage = [k for k, (r, _) in enumerate(dm.stages) for _ in range(r)]
    cstage = [k for k, (_, c) in enumerate(dm.stages) for _ in range(c)]
    for r in range(6):
        for c in range(6):
            if cstage[c] < rstage[r]:
                assert dm.transformed.entries[r][c] == 0

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, elapsed, "displayed identity bit-exact; optimum 6; six listed irreducibles; "
                       "invertible transforms with zero lower blocks")


def test_criterion_4_roundtrip_suite():
    t0 = time.monotonic()
    rng = random.Random(20260822)
    s2, s3, m3, c3, c2 = make_s2(), make_s3(), make_m3(), make_c3(), make_c2()
    ambients = [
        [subspace_lattice(2, 2)],
        [subspace_lattice(3, 2)],
        [subspace_lattice(2, 3)],
        [m3, c3],
        [s3, s2],
        [m3, m3],
        [c2, c2, c2],
        [c3, c3],
    ]
    checked = 0
    while checked < 200:
        lats = ambients[checked % len(ambients)]
        universe = product_universe(lats)
        seeds = rng.sample(universe, rng.randint(1, min(5, len(universe))))
        members = close_set(seeds, lats)
        if len(members) > 20:
            continue
        lattice = as_semilattice(members, lats)
        assert lattice.is_modular_semilattice()[0]
        rt = birkhoff_roundtrip(lattice)
        assert rt["ok"], rt
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(4, elapsed, f"{checked} generated modular semilattices round trip both directions")


def test_criterion_5_product_representation_equivalence():
    rng = random.Random(4242)
    pool = [make_s2(), make_s3(), make_m3(), make_c3()]
    checked = 0
    t0 = time.monotonic()
    while checked < 100:
        L = rng.choice(pool)
        n = rng.randint(1, 5)
        if len(L) ** n > 4000:
            continue
        universe = product_universe([L] * n)
        B = close_set(rng.sample(universe, rng.randint(1, min(7, len(universe)))), [L] * n)
        if len(B) > 200:
            continue
        oracle = oracle_from_set(B, L, n=n)
        got = build_ppip(oracle)
        want = induced_ppip(as_semilattice(B, [L] * n))
        assert got == want
        assert oracle.call_counter <= n * n * len(L) ** 2
        assert len(join_irreducible_elements(oracle)) <= n * len(L.join_irreducibles())
        checked += 1
    elapsed = time.monotonic() - t0
    report(5, elapsed, f"{checked} closed sets: representation equals the direct construction, "
                       "call and irreducible bounds hold")


def test_criterion_6_recognition_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260822)
    agree = 0
    for _ in range(500):
        sigma = random_system(rng)
        got, _ = recognize_modular_semilattice(sigma)
        try:
            want, _ = sigma.family().is_modular_semilattice()
        except InputError:
            want = False
        assert got == want, sigma.to_text()
        agree += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(6, elapsed, f"{agree} random systems: recognition equals brute force in every case")


def intersection_closure(closed_sets, xs):
    supers = [c for c in closed_sets if xs <= c]
    if not supers:
        return None
    out = supers[0]
    for c in supers[1:]:
        out &= c
    return out


def test_criterion_7_closure_oracle_equivalence():
    t0 = time.monotonic()
    systems = [
        ImplicationalSystem.from_text((DATA / "sigma_nine.txt").read_text()),
        ImplicationalSystem(
            [str(i) for i in range(10)],
            [(["0", "1"], ["2"]), (["2"], ["3", "4"]), (["5"], ["6"]),
             (["6", "7"], ["8"]), (["3", "5"], []), (["9"], ["0"]),
             (["4", "8"], ["9"]), (["1", "6"], ["7"])]),
    ]
    rng = random.Random(7)
    for _ in range(3):
        n = rng.randint(6, 10)
        ground = [str(i) for i in range(n)]
        imps = []
        for _ in range(rng.randint(2, 9)):
            prem = rng.sample(ground, min(rng.choice([1, 2, 2, 3]), n))
            concl = [] if rng.random() < 0.12 else rng.sample(ground, min(rng.choice([1, 1, 2]), n))
            imps.append((prem, concl))
        systems.append(ImplicationalSystem(ground, imps))

    total = missing = 0
    for sigma in systems:
        closed = [frozenset(c) for c in sigma.closed_sets()]
        for k in range(len(sigma.ground) + 1):
            for xs in itertools.combinations(sigma.ground, k):
                want = intersection_closure(closed, frozenset(xs))
                assert sigma.closure(xs).value == want
                total += 1
                missing += want is None
    assert missing > 0
    elapsed = time.monotonic() - t0
    report(7, elapsed, f"{total} subsets across {len(systems)} systems, "
                       f"{missing} with no closure")


def test_criterion_8_complexity_claims_covered_structurally():
    t0 = time.monotonic()
    # recognition must never enumerate the closed family
    before = horn.FAMILY_ENUMERATIONS
    rng = random.Random(8)
    for _ in range(25):
        recognize_modular_semilattice(random_system(rng))
    assert horn.FAMILY_ENUMERATIONS == before

    # the representation's oracle complexity shows up as a hard call bound
    s3 = make_s3()
    n = 4
    members = close_set({("a", "bot", "bot", "c"), ("bot", "b", "c", "bot")}, [s3] * n)
    oracle = oracle_from_set(members, s3, n=n)
    build_ppip(oracle)
    assert oracle.call_counter <= n * n * len(s3) ** 2
    elapsed = time.monotonic() - t0
    report(8, elapsed, "no timing reproductions: enumeration flag flat during recognition, "
                       "oracle call bound enforced")
