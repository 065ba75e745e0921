import itertools
import json
import random
from itertools import combinations

import pytest

import ppiprep.gflin as gflin_module
import ppiprep.ppip as ppip_module
from ppiprep.errors import BudgetError, InputError
from ppiprep.gflin import (
    GFMatrix,
    PartitionedMatrix,
    Subspace,
    VanishingTuple,
    _kernel,
    _rref,
    all_subspaces,
    dm_decompose,
    maximal_chain,
    mvsp_solve,
    polar_space_ppip,
    subspace_lattice,
    vanishes,
)
from ppiprep.gflin import _block_diag
from ppiprep.poset import Poset
from ppiprep.ppip import (
    Ppip,
    birkhoff_roundtrip,
    check_axioms,
    consistent_subspaces,
    induced_ppip,
)
from ppiprep.product import build_ppip
from ppiprep.semilattice import Semilattice

from helpers import DATA, make_m3


def matrix_6x6() -> PartitionedMatrix:
    return PartitionedMatrix.from_json(json.loads((DATA / "matrix_6x6.json").read_text()))


FORM_3X3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def form_val(u, v, B, p):
    d = len(u)
    return sum(u[i] * B[i][j] * v[j] for i in range(d) for j in range(d)) % p


# -- row reduction -------------------------------------------------------

def test_rref_canonical_form():
    rows, pivots = _rref([(1, 2, 3), (2, 4, 6), (0, 1, 1)], 3, 5)
    assert pivots == [0, 1]
    assert rows == [(1, 0, 1), (0, 1, 1)]


def test_kernel_spans_solutions():
    K = _kernel([(1, 0, 1), (0, 1, 1)], 3, 5)
    assert len(K) == 1
    v = K[0]
    assert (v[0] + v[2]) % 5 == 0 and (v[1] + v[2]) % 5 == 0


def test_rref_random_idempotent():
    rng = random.Random(3)
    for _ in range(60):
        d, p = rng.choice([(3, 2), (4, 3), (2, 5)])
        rows = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(rng.randint(0, d + 1))]
        red, piv = _rref(rows, d, p)
        again, piv2 = _rref(red, d, p)
        assert red == again and piv == piv2


# -- matrices ------------------------------------------------------------

def test_matmul_and_transpose():
    A = GFMatrix([[1, 2], [3, 4]], 5)
    assert A @ GFMatrix.identity(2, 5) == A
    assert A.transpose().entries == ((1, 3), (2, 4))


def test_empty_shapes():
    E = GFMatrix([], 2, cols=3)
    prod = E @ GFMatrix.identity(3, 2)
    assert prod.rows == 0 and prod.cols == 3
    T = E.transpose()
    assert T.rows == 3 and T.cols == 0
    wide = GFMatrix([[1, 1, 0]], 2) @ GFMatrix([[ ], [ ], [ ]], 2, cols=0)
    assert wide.rows == 1 and wide.cols == 0


def test_invertibility():
    assert GFMatrix([[1, 1], [0, 1]], 2).is_invertible()
    assert not GFMatrix([[1, 1], [1, 1]], 2).is_invertible()
    assert GFMatrix.zeros(2, 2, 3).is_zero()


def test_non_prime_field_rejected():
    with pytest.raises(InputError):
        GFMatrix([[1]], 4)
    with pytest.raises(InputError):
        subspace_lattice(2, 6)


# -- subspaces -----------------------------------------------------------

def test_subspace_algebra():
    s1 = Subspace.from_vectors([(1, 1, 0), (0, 1, 1)], 3, 2)
    s2 = Subspace.from_vectors([(1, 0, 0)], 3, 2)
    assert s1.dim == 2 and s2.dim == 1
    assert s1.plus(s2) == Subspace.full(3, 2)
    assert not s2.leq(s1)
    assert s2.leq(Subspace.full(3, 2))
    other = Subspace.from_vectors([(1, 1, 0), (1, 0, 0)], 3, 2)
    assert s1.intersect(other) == Subspace.from_vectors([(1, 1, 0)], 3, 2)
    assert Subspace.zero(3, 2).perp() == Subspace.full(3, 2)


def test_subspace_vectors_enumeration():
    s = Subspace.from_vectors([(1, 0), (0, 1)], 2, 3)
    assert len(set(s.vectors())) == 9
    assert len(set(Subspace.zero(2, 3).vectors())) == 1


def test_non_canonical_basis_rejected():
    with pytest.raises(InputError):
        Subspace(2, 2, ((1, 1), (0, 1)))


def test_dimension_formula_random():
    rng = random.Random(7)
    for _ in range(120):
        d, p = rng.choice([(3, 2), (4, 2), (3, 3)])
        U = Subspace.from_vectors(
            [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randint(0, d))], d, p)
        V = Subspace.from_vectors(
            [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randint(0, d))], d, p)
        assert U.dim + V.dim == U.plus(V).dim + U.intersect(V).dim
        assert U.perp().perp() == U


# -- subspace lattices ---------------------------------------------------

def test_lattice_counts():
    assert len(subspace_lattice(1, 2)) == 2
    assert len(subspace_lattice(2, 2)) == 5
    assert len(subspace_lattice(3, 2)) == 16
    assert len(subspace_lattice(2, 3)) == 6
    assert len(all_subspaces(3, 3)) == 28


def test_lattice_is_modular_non_median():
    L = subspace_lattice(2, 2)
    assert len(L.join_irreducibles()) == 3
    assert L.is_modular_semilattice()[0]
    assert not L.is_median_semilattice()[0]
    assert subspace_lattice(3, 2).is_modular_semilattice()[0]


def test_lattice_operations_are_sum_and_intersection():
    L = subspace_lattice(2, 3)
    for a in L.elements:
        for b in L.elements:
            assert L.meet(a, b) == a.intersect(b)
            assert L.join(a, b) == a.plus(b)


def test_reverse_lattice():
    R = subspace_lattice(2, 2, reverse=True)
    assert R.min_element == Subspace.full(2, 2)
    assert R.is_modular_semilattice()[0]
    x = Subspace.from_vectors([(1, 0)], 2, 2)
    y = Subspace.from_vectors([(0, 1)], 2, 2)
    assert R.join(x, y) == Subspace.zero(2, 2)
    assert R.meet(x, y) == Subspace.full(2, 2)


def test_lattice_budget():
    with pytest.raises(BudgetError):
        subspace_lattice(14, 2)


# -- polar spaces --------------------------------------------------------

def polar_brute(B, p):
    """Line oracle from totally isotropic planes, independent of the library route."""
    d = len(B)
    subs = all_subspaces(d, p)
    pts = [s for s in subs if s.dim == 1 and form_val(s.basis[0], s.basis[0], B, p) == 0]
    lines = []
    for w in (s for s in subs if s.dim == 2):
        if not all(form_val(u, v, B, p) == 0 for u in w.basis for v in w.basis):
            continue
        on = [s.basis[0] for s in pts if s.leq(w)]
        if len(on) >= 2:
            lines.append(on)
    vecs = [s.basis[0] for s in pts]
    inc = {frozenset((a, b)) for a, b in combinations(vecs, 2)
           if not any(a in ln and b in ln for ln in lines)}
    coll = {frozenset(t) for ln in lines for t in combinations(ln, 3)}
    return set(vecs), inc, coll


def test_fixture_polar_space():
    pp = polar_space_ppip(FORM_3X3, 2)
    assert len(pp.poset) == 7
    assert set(pp.poset.elements) == {(1, 1, 1), (0, 0, 1), (1, 1, 0), (0, 1, 0),
                                      (1, 0, 1), (1, 0, 0), (0, 1, 1)}
    assert check_axioms(pp)[0]
    # the worked consistency example
    assert form_val((1, 1, 1), (0, 0, 1), FORM_3X3, 2) == 0
    assert pp.consistent((1, 1, 1), (0, 0, 1))


def test_fixture_polar_matches_brute_force():
    pp = polar_space_ppip(FORM_3X3, 2)
    pts, inc, coll = polar_brute(FORM_3X3, 2)
    assert pts == set(pp.poset.elements)
    assert inc == set(pp.inconsistent)
    assert coll == set(pp.collinear)


def test_fixture_polar_consistent_subspaces():
    pp = polar_space_ppip(FORM_3X3, 2)
    cs = consistent_subspaces(pp)
    # empty set, 7 points, 3 totally isotropic lines
    assert len(cs) == 11
    assert cs.is_modular_semilattice()[0]
    assert birkhoff_roundtrip(cs)["ok"]


def test_polar_space_axioms_checked_once(monkeypatch):
    # polar_space_ppip certifies the structure; consistent_subspaces reuses that verdict
    calls = []
    check = ppip_module.check_weak_triangle
    monkeypatch.setattr(ppip_module, "check_weak_triangle", lambda pp: calls.append(pp) or check(pp))
    pp = polar_space_ppip([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 2)
    assert len(consistent_subspaces(pp)) == 31     # the empty set, 15 points, 15 lines
    assert calls == [pp]


def test_degenerate_form_accepted():
    pp = polar_space_ppip([[0, 0], [0, 0]], 2)
    assert len(pp.poset) == 3
    assert len(pp.collinear) == 1
    assert not pp.inconsistent


def test_non_alternating_rejected():
    with pytest.raises(InputError) as exc:
        polar_space_ppip([[0, 1], [1, 1]], 2)
    assert "diagonal" in str(exc.value)
    with pytest.raises(InputError) as exc:
        polar_space_ppip([[0, 1], [1, 0]], 3)
    assert "not opposite" in str(exc.value)


def test_gf3_polar_space():
    B = [[0, 1, 0], [2, 0, 1], [0, 2, 0]]
    pp = polar_space_ppip(B, 3)
    assert check_axioms(pp)[0]
    pts, inc, coll = polar_brute(B, 3)
    assert pts == set(pp.poset.elements)
    assert inc == set(pp.inconsistent) and coll == set(pp.collinear)


def test_random_alternating_forms_match_brute_force():
    rng = random.Random(11)
    for _ in range(8):
        d = rng.choice([2, 3, 4])
        p = rng.choice([2, 3])
        B = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                B[i][j] = rng.randrange(p)
                B[j][i] = (-B[i][j]) % p
        pp = polar_space_ppip(B, p)
        pts, inc, coll = polar_brute(B, p)
        assert pts == set(pp.poset.elements)
        assert inc == set(pp.inconsistent) and coll == set(pp.collinear)


# -- partitioned matrices and vanishing ----------------------------------

def test_partitioned_block_access():
    A = matrix_6x6()
    assert A.block(0, 1).entries == ((0, 1), (0, 0))
    assert A.block(2, 0).entries == ((1, 1), (0, 1))


def test_partitioned_json_roundtrip():
    A = matrix_6x6()
    again = PartitionedMatrix.from_json(json.loads(json.dumps(A.to_json())))
    assert again.matrix == A.matrix
    assert again.row_blocks == A.row_blocks and again.col_blocks == A.col_blocks


def test_partitioned_validation():
    with pytest.raises(InputError):
        PartitionedMatrix([[1, 0]], [1], [1], 2)  # blocks do not cover columns
    with pytest.raises(InputError):
        PartitionedMatrix.from_json({"p": 2, "entries": [[1]]})


def test_fixture_tuple_vanishes():
    A = matrix_6x6()
    F2, Z2 = Subspace.full(2, 2), Subspace.zero(2, 2)
    e1 = Subspace.from_vectors([(0, 1)], 2, 2)
    e2 = Subspace.from_vectors([(1, 1)], 2, 2)
    e3 = Subspace.from_vectors([(1, 0)], 2, 2)
    t = VanishingTuple((e2, F2, e2), (e1, e3, Z2))
    assert t.total_dim == 6
    assert vanishes(A, t)
    assert not vanishes(A, VanishingTuple((F2,) * 3, (F2,) * 3))
    assert vanishes(A, VanishingTuple((Z2,) * 3, (F2,) * 3))


def test_vanishing_tuple_shape_checked():
    A = matrix_6x6()
    F2 = Subspace.full(2, 2)
    with pytest.raises(InputError):
        vanishes(A, VanishingTuple((F2, F2), (F2, F2, F2)))
    with pytest.raises(InputError):
        vanishes(A, VanishingTuple((Subspace.full(3, 2), F2, F2), (F2, F2, F2)))


# -- MVSP ----------------------------------------------------------------

def bilinear_vanishes(A: PartitionedMatrix, X, Y) -> bool:
    """u^T A_{alpha beta} v = 0 for all basis vectors, read off the matrix entries."""
    M = A.matrix.entries
    r0s = [sum(A.row_blocks[:a]) for a in range(A.mu)]
    c0s = [sum(A.col_blocks[:b]) for b in range(A.nu)]
    return all(sum(u[i] * M[r0 + i][c0 + j] * v[j]
                   for i in range(len(u)) for j in range(len(v))) % A.p == 0
               for r0, x in zip(r0s, X) for u in x.basis
               for c0, y in zip(c0s, Y) for v in y.basis)


def brute_mvsp(A: PartitionedMatrix) -> set:
    """Every vanishing tuple of maximum total dimension, over the full product."""
    factors = [all_subspaces(m, A.p) for m in A.row_blocks] + \
              [all_subspaces(n, A.p) for n in A.col_blocks]
    best, argmax = -1, set()
    for combo in itertools.product(*factors):
        if bilinear_vanishes(A, combo[:A.mu], combo[A.mu:]):
            total = sum(s.dim for s in combo)
            if total > best:
                best, argmax = total, {combo}
            elif total == best:
                argmax.add(combo)
    return argmax


def expected_irreducibles():
    F2, Z2 = Subspace.full(2, 2), Subspace.zero(2, 2)
    e1 = Subspace.from_vectors([(0, 1)], 2, 2)
    e2 = Subspace.from_vectors([(1, 1)], 2, 2)
    e3 = Subspace.from_vectors([(1, 0)], 2, 2)
    return {
        (Z2, e1, Z2, F2, F2, e1),
        (Z2, e2, Z2, F2, F2, e3),
        (Z2, e3, Z2, F2, F2, e2),
        (e2, F2, e2, e1, e3, Z2),
        (e1, e3, Z2, e3, F2, e2),
        (e1, e3, e1, e3, e1, e2),
    }


def test_fixture_mvsp_optimum():
    optimum, oracle = mvsp_solve(matrix_6x6())
    assert optimum == 6
    assert len(oracle.members) == 12


def test_fixture_irreducible_tuples():
    _, oracle = mvsp_solve(matrix_6x6())
    pp = build_ppip(oracle)
    assert set(pp.poset.elements) == expected_irreducibles()
    assert len(pp.collinear) == 1 and not pp.inconsistent


def test_identity_1x1():
    optimum, oracle = mvsp_solve(PartitionedMatrix([[1]], [1], [1], 2))
    assert optimum == 1
    assert len(oracle.members) == 2


def test_zero_matrix_mvsp():
    optimum, oracle = mvsp_solve(PartitionedMatrix([[0, 0], [0, 0]], [2], [2], 2))
    assert optimum == 4
    assert len(oracle.members) == 1


def test_mvsp_budget():
    # the budget caps the row tuples: the fixture has 5^3 = 125 of them
    with pytest.raises(BudgetError):
        mvsp_solve(matrix_6x6(), budget=100)
    optimum, _ = mvsp_solve(matrix_6x6(), budget=125)
    assert optimum == 6


def test_five_by_five_blocks_within_default_budget():
    # 5^10 tuples in the full product, 5^5 row tuples
    rng = random.Random(20261018)
    ent = [[rng.randrange(2) for _ in range(10)] for _ in range(10)]
    A = PartitionedMatrix(ent, [2] * 5, [2] * 5, 2)
    optimum, oracle = mvsp_solve(A)
    assert oracle.members
    for m in oracle.members:
        assert sum(s.dim for s in m) == optimum
        assert bilinear_vanishes(A, m[:A.mu], m[A.mu:])


MVSP_SHAPES = [([1], [1]), ([2], [2]), ([1, 1], [2]), ([2, 1], [1, 2]), ([1, 2], [2, 1]),
               ([3], [2]), ([1], [3])]


def random_partitioned(rng) -> PartitionedMatrix:
    rb, cb = rng.choice(MVSP_SHAPES)
    p = rng.choice([2, 2, 3, 5])
    ent = [[rng.randrange(p) for _ in range(sum(cb))] for _ in range(sum(rb))]
    return PartitionedMatrix(ent, rb, cb, p)


def test_random_mvsp_matches_brute_force():
    rng = random.Random(20260822)
    for _ in range(16):
        A = random_partitioned(rng)
        optimum, oracle = mvsp_solve(A)
        expected = brute_mvsp(A)
        assert set(oracle.members) == expected
        assert {sum(s.dim for s in m) for m in expected} == {optimum}


def test_each_small_lattice_built_once(monkeypatch):
    # GF(2) 2+2+2 x 2+2+2+2: one lattice per side, and one projection per coordinate
    rng = random.Random(20261019)
    A = PartitionedMatrix([[rng.randrange(2) for _ in range(8)] for _ in range(6)],
                          [2, 2, 2], [2, 2, 2, 2], 2)
    lattices, semilattices = [], []
    build, init = gflin_module.subspace_lattice, Semilattice.__init__
    monkeypatch.setattr(gflin_module, "subspace_lattice",
                        lambda *args, **kw: lattices.append(args) or build(*args, **kw))
    monkeypatch.setattr(Semilattice, "__init__",
                        lambda self, *args, **kw: semilattices.append(self) or init(self, *args, **kw))
    dm_decompose(A)
    assert (len(lattices), len(semilattices)) == (2, 9)

    _, oracle = mvsp_solve(A)
    rows, cols = oracle.lattices[:3], oracle.lattices[3:]
    assert all(lat is rows[0] for lat in rows) and all(lat is cols[0] for lat in cols)
    semilattices.clear()
    build_ppip(oracle)
    assert len(semilattices) == oracle.n


def test_vanishes_matches_bilinear_evaluation():
    rng = random.Random(7)
    seen = set()
    for _ in range(40):
        A = random_partitioned(rng)
        X = tuple(rng.choice(all_subspaces(m, A.p)) for m in A.row_blocks)
        Y = tuple(rng.choice(all_subspaces(n, A.p)) for n in A.col_blocks)
        want = bilinear_vanishes(A, X, Y)
        assert vanishes(A, VanishingTuple(X, Y)) == want
        seen.add(want)
    assert seen == {True, False}


# -- maximal chains ------------------------------------------------------

def test_chain_on_diamond():
    chain = maximal_chain(induced_ppip(make_m3()))
    assert chain == [frozenset(), frozenset({"x"}), frozenset({"x", "y", "z"})]


def test_chain_on_empty_structure():
    assert maximal_chain(Ppip(Poset([], []), (), ())) == [frozenset()]


def test_fixture_chain_steps_are_covers():
    _, oracle = mvsp_solve(matrix_6x6())
    pp = build_ppip(oracle)
    chain = maximal_chain(pp)
    assert chain[0] == frozenset()
    assert chain[-1] == frozenset(pp.poset.elements)
    cs = consistent_subspaces(pp)
    for s, t in zip(chain, chain[1:]):
        sid = tuple(pp.poset.sort_canonical(s))
        tid = tuple(pp.poset.sort_canonical(t))
        assert sid in cs.lower_covers(tid)


# -- DM decomposition ----------------------------------------------------

def stage_positions(stages):
    rows, cols = [], []
    for k, (r, c) in enumerate(stages):
        rows.extend([k] * r)
        cols.extend([k] * c)
    return rows, cols


def test_fixture_decomposition():
    A = matrix_6x6()
    dm = dm_decompose(A)
    assert dm.optimum == 6
    assert all(E.is_invertible() for E in dm.E_blocks)
    assert all(F.is_invertible() for F in dm.F_blocks)
    # P and Q are permutations
    assert dm.P.is_invertible() and all(sum(r) == 1 for r in dm.P.entries)
    assert dm.Q.is_invertible() and all(sum(r) == 1 for r in dm.Q.entries)
    # the product identity
    recomputed = (dm.P @ _block_diag(list(dm.E_blocks), 2) @ A.matrix
                  @ _block_diag(list(dm.F_blocks), 2) @ dm.Q)
    assert recomputed == dm.transformed
    # strictly below the stage diagonal everything is zero
    rstage, cstage = stage_positions(dm.stages)
    for r in range(6):
        for c in range(6):
            if cstage[c] < rstage[r]:
                assert dm.transformed.entries[r][c] == 0


def test_fixture_stage_sizes_refine_displayed_blocks():
    dm = dm_decompose(matrix_6x6())
    assert dm.stages == ((2, 2), (1, 1), (1, 1), (1, 1), (1, 1))
    # consecutive runs regroup to the displayed three (2,2) diagonal blocks
    acc, blocks = [0, 0], []
    for r, c in dm.stages:
        acc = [acc[0] + r, acc[1] + c]
        if acc == [2, 2]:
            blocks.append(tuple(acc))
            acc = [0, 0]
    assert blocks == [(2, 2), (2, 2), (2, 2)] and acc == [0, 0]


def test_fixture_displayed_identity():
    A = matrix_6x6()
    left = GFMatrix([
        [1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 1, 0, 0],
    ], 2)
    right = GFMatrix([
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ], 2)
    result = GFMatrix([
        [1, 1, 0, 0, 1, 0],
        [1, 1, 0, 0, 0, 1],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ], 2)
    assert left @ A.matrix @ right == result


def test_zero_matrix_decomposition():
    dm = dm_decompose(PartitionedMatrix([[0, 0], [0, 0]], [2], [2], 2))
    assert dm.transformed.is_zero()
    assert dm.stages == ((0, 2), (2, 0))


def test_invertible_block_decomposition():
    dm = dm_decompose(PartitionedMatrix([[1, 1], [0, 1]], [2], [2], 2))
    assert dm.transformed.is_invertible()
    assert all(r == c for r, c in dm.stages)


def test_random_decompositions_hold_invariants():
    rng = random.Random(5150)
    shapes = [([1], [1]), ([2], [2]), ([1, 1], [2]), ([2, 1], [1, 2]), ([2, 2], [2])]
    for _ in range(10):
        rb, cb = rng.choice(shapes)
        p = rng.choice([2, 3])
        ent = [[rng.randrange(p) for _ in range(sum(cb))] for _ in range(sum(rb))]
        A = PartitionedMatrix(ent, rb, cb, p)
        dm = dm_decompose(A)  # identity and zero blocks asserted inside
        expected = brute_mvsp(A)
        assert all(t.X + t.Y in expected for t in dm.chain)
        assert all(t.total_dim == dm.optimum for t in dm.chain)
        assert sum(r for r, _ in dm.stages) == sum(rb)
        assert sum(c for _, c in dm.stages) == sum(cb)
