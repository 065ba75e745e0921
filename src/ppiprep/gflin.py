"""Finite-field linear algebra behind the matrix applications.

Subspaces of GF(p)^d are canonicalized by reduced row echelon form, so they
hash and compare as values.  On top sit the full subspace lattices (inclusion
or reverse inclusion), polar spaces of totally isotropic points and lines,
the maximum vanishing subspace problem for partitioned matrices, greedy
maximal chains of consistent subspaces, and the chain-driven block-triangular
decomposition.

The decomposition pipeline is: enumerate the row-side subspace tuples X,
read each column block's largest vanishing subspace off as the common kernel
K(X) of the row forms, and keep the tuples (X, K(X)) of maximum total
dimension, a meet/join-closed set in the product of subspace lattices
(column-side lattices in reverse inclusion order); represent that set by the
point-line structure on its join-irreducible members, walk a greedy maximal
chain of consistent subspaces, and turn the chain into changes of bases that
expose a stage-by-stage zero pattern.  The zero pattern is asserted entry by
entry, so a successful return certifies the transform.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations, product as iter_product

import numpy as np

from .errors import BudgetError, InputError
from .poset import Poset
from .ppip import Ppip, check_axioms, is_consistent_subspace, subspace_closure
from .product import MembershipOracle, build_ppip, oracle_from_minimizers, oracle_from_set
from .semilattice import Semilattice, induced_relations, inclusion_matrix


def _check_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise InputError(f"field order must be a prime of at least 2, got {p!r}")
    if any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
        raise InputError(f"field order must be prime, got {p}")
    return p


def _integers(xs, what: str) -> tuple[int, ...]:
    """A list of integers read from input; bools, floats and strings are refused."""
    if not isinstance(xs, (list, tuple)):
        raise InputError(f"{what} must be a list of integers, got {xs!r}")
    for x in xs:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise InputError(f"non-integer {x!r} in {what}")
    return tuple(int(x) for x in xs)


# -- row reduction --------------------------------------------------------

def _rref(rows, cols: int, p: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[int(x) % p for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def _rank(rows, cols: int, p: int) -> int:
    return len(_rref(rows, cols, p)[0])


def _kernel(rows, cols: int, p: int) -> list[tuple[int, ...]]:
    """Canonical basis of the right null space {x : M x = 0}."""
    reduced, pivots = _rref(rows, cols, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        x = [0] * cols
        x[f] = 1
        for i, pc in enumerate(pivots):
            x[pc] = (-reduced[i][f]) % p
        basis.append(x)
    canon, _ = _rref(basis, cols, p)
    return canon


# -- matrices -------------------------------------------------------------

class GFMatrix:
    """Dense matrix over GF(p); entries are kept reduced mod p.

    A matrix with no rows needs an explicit column count so shapes stay
    meaningful through products with empty bases.
    """

    def __init__(self, entries, p: int, cols: int | None = None):
        self.p = _check_prime(p)
        if not isinstance(entries, (list, tuple)):
            raise InputError(f"matrix entries must be a list of rows, got {entries!r}")
        rows = [tuple(x % p for x in _integers(row, "matrix row")) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("matrix rows have unequal lengths")
            if cols is not None and cols != width:
                raise InputError(f"matrix has {width} columns, expected {cols}")
        else:
            if cols is None:
                raise InputError("a matrix with no rows needs an explicit column count")
            width = int(cols)
        self.entries: tuple = tuple(rows)
        self.rows: int = len(rows)
        self.cols: int = width

    @classmethod
    def identity(cls, n: int, p: int) -> "GFMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], p, cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "GFMatrix":
        return cls([[0] * cols for _ in range(rows)], p, cols=cols)

    def __matmul__(self, other) -> "GFMatrix":
        if not isinstance(other, GFMatrix):
            return NotImplemented
        if self.p != other.p:
            raise InputError(f"field mismatch: GF({self.p}) vs GF({other.p})")
        if self.cols != other.rows:
            raise InputError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)) % self.p
                for j in range(other.cols)] for i in range(self.rows)]
        return GFMatrix(out, self.p, cols=other.cols)

    def transpose(self) -> "GFMatrix":
        out = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return GFMatrix(out, self.p, cols=self.rows)

    def rank(self) -> int:
        return _rank(self.entries, self.cols, self.p)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return (self.p == other.p and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"GFMatrix({self.rows}x{self.cols} over GF({self.p}))"


def _block_diag(blocks: list[GFMatrix], p: int) -> GFMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
        r0 += b.rows
        c0 += b.cols
    return GFMatrix(out, p, cols=cols)


# -- subspaces ------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^d as its canonical reduced-row-echelon basis.

    The basis is a tuple of row tuples with no zero rows; canonical form
    makes equality and hashing value-based, so subspaces serve directly as
    semilattice elements.
    """

    ambient_dim: int
    p: int
    basis: tuple

    def __post_init__(self):
        _check_prime(self.p)
        if not isinstance(self.ambient_dim, int) or self.ambient_dim < 0:
            raise InputError(f"ambient dimension must be a nonnegative integer, got {self.ambient_dim!r}")
        rows = tuple(tuple(int(x) % self.p for x in row) for row in self.basis)
        for row in rows:
            if len(row) != self.ambient_dim:
                raise InputError(f"basis row {row!r} does not have {self.ambient_dim} coordinates")
        canon, _ = _rref(rows, self.ambient_dim, self.p)
        if tuple(canon) != rows:
            raise InputError("basis is not in canonical reduced echelon form; use from_vectors")
        object.__setattr__(self, "basis", rows)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int, p: int) -> "Subspace":
        canon, _ = _rref(vectors, ambient_dim, p)
        return cls(ambient_dim, p, tuple(canon))

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, p, ())

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls.from_vectors(GFMatrix.identity(ambient_dim, p).entries, ambient_dim, p)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _compat(self, other: "Subspace") -> None:
        if not isinstance(other, Subspace):
            raise InputError(f"expected a subspace, got {other!r}")
        if self.ambient_dim != other.ambient_dim or self.p != other.p:
            raise InputError("subspaces live in different ambient spaces")

    def leq(self, other: "Subspace") -> bool:
        self._compat(other)
        return _rank(list(other.basis) + list(self.basis), self.ambient_dim, self.p) == other.dim

    def plus(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace.from_vectors(self.basis + other.basis, self.ambient_dim, self.p)

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product."""
        return Subspace(self.ambient_dim, self.p,
                        tuple(_kernel(self.basis, self.ambient_dim, self.p)))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return self.perp().plus(other.perp()).perp()

    def vectors(self) -> list[tuple[int, ...]]:
        """Every member vector, p^dim of them."""
        out = []
        for coeffs in iter_product(range(self.p), repeat=self.dim):
            v = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis):
                for i, x in enumerate(row):
                    v[i] = (v[i] + c * x) % self.p
            out.append(tuple(v))
        return out


def _count_subspaces(d: int, p: int) -> int:
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


def _echelon_bases(k: int, d: int, p: int):
    """All k x d reduced-echelon bases, one per k-dimensional subspace."""
    for pivots in combinations(range(d), k):
        pivset = set(pivots)
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, d) if c not in pivset]
        for vals in iter_product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(k)]
            for r, c in enumerate(pivots):
                rows[r][c] = 1
            for (r, c), v in zip(free, vals):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def all_subspaces(d: int, p: int) -> list[Subspace]:
    """Every subspace of GF(p)^d, sorted by (dimension, basis)."""
    _check_prime(p)
    if not isinstance(d, int) or d < 0:
        raise InputError(f"dimension must be a nonnegative integer, got {d!r}")
    out = [Subspace.zero(d, p)]
    for k in range(1, d + 1):
        out.extend(Subspace(d, p, basis) for basis in _echelon_bases(k, d, p))
    out.sort(key=lambda s: (s.dim, s.basis))
    return out


def subspace_lattice(d: int, p: int, reverse: bool = False, budget: int = 10 ** 4) -> Semilattice:
    """The lattice of all subspaces of GF(p)^d under inclusion.

    Meet is intersection and join is sum; with ``reverse`` the order is
    flipped, so the full space becomes the minimum and joins intersect.
    Elements are listed from the lattice minimum upward, ties broken by
    basis; the result is always a modular lattice.
    """
    _check_prime(p)
    if not isinstance(d, int) or d < 0:
        raise InputError(f"dimension must be a nonnegative integer, got {d!r}")
    count = _count_subspaces(d, p)
    if count > budget:
        raise BudgetError(f"{count} subspaces of GF({p})^{d} exceed budget {budget}")
    key = (lambda s: (d - s.dim, s.basis)) if reverse else (lambda s: (s.dim, s.basis))
    subs = sorted(all_subspaces(d, p), key=key)
    inclusion = inclusion_matrix([s.vectors() for s in subs])
    return Semilattice(subs, inclusion.T if reverse else inclusion)


# -- polar spaces ---------------------------------------------------------

def polar_space_ppip(B, p: int) -> Ppip:
    """The point-line structure of totally isotropic subspaces of an
    alternating form.

    Points are the one-dimensional isotropic subspaces (an antichain),
    identified by their canonical spanning vectors; two points are
    inconsistent exactly when the form does not vanish on them, and a triple
    is collinear when its points span a common totally isotropic plane.
    The output is checked against all the point-line axioms before return.
    """
    mat = B if isinstance(B, GFMatrix) else GFMatrix(B, p)
    if mat.p != p:
        raise InputError(f"form is over GF({mat.p}) but GF({p}) was requested")
    if mat.rows != mat.cols:
        raise InputError(f"form matrix must be square, got {mat.rows}x{mat.cols}")
    d = mat.rows
    for i in range(d):
        if mat.entries[i][i] != 0:
            raise InputError(f"form is not alternating: nonzero diagonal entry at {i}")
    for i in range(d):
        for j in range(i + 1, d):
            if (mat.entries[i][j] + mat.entries[j][i]) % p != 0:
                raise InputError(f"form is not alternating: entries at ({i},{j}) and ({j},{i}) "
                                 "are not opposite")

    def form(u, v) -> int:
        return sum(u[i] * mat.entries[i][j] * v[j]
                   for i in range(d) for j in range(d)) % p

    reps = sorted(basis[0] for basis in _echelon_bases(1, d, p))
    points = [v for v in reps if form(v, v) == 0]

    # an orthogonal pair joins to the plane it spans, interned by its rref
    keys: dict = {}
    join = [[-1] * len(points) for _ in points]
    for a, b in combinations(range(len(points)), 2):
        if form(points[a], points[b]) == 0:
            plane = tuple(_rref([points[a], points[b]], d, p)[0])
            join[a][b] = join[b][a] = keys.setdefault(plane, len(keys))
    inconsistent, collinear = induced_relations(np.eye(len(points), dtype=bool), join)
    ppip = Ppip(Poset(points, ()), [frozenset(points[i] for i in pair) for pair in inconsistent],
                [frozenset(points[i] for i in trip) for trip in collinear])
    ok, witness = check_axioms(ppip)
    assert ok, f"polar space construction violated an axiom: {witness!r}"
    return ppip


# -- partitioned matrices and vanishing tuples ----------------------------

class PartitionedMatrix:
    """A matrix over GF(p) with fixed row and column block sizes.

    Each block pair (alpha, beta) acts as a bilinear form on
    GF(p)^{m_alpha} x GF(p)^{n_beta}.
    """

    def __init__(self, entries, row_blocks, col_blocks, p: int):
        self.p = _check_prime(p)
        self.row_blocks = _integers(row_blocks, "row block sizes")
        self.col_blocks = _integers(col_blocks, "column block sizes")
        if not self.row_blocks or any(m < 1 for m in self.row_blocks):
            raise InputError(f"row block sizes must be positive, got {list(self.row_blocks)}")
        if not self.col_blocks or any(n < 1 for n in self.col_blocks):
            raise InputError(f"column block sizes must be positive, got {list(self.col_blocks)}")
        self.matrix = GFMatrix(entries, p, cols=sum(self.col_blocks))
        if self.matrix.rows != sum(self.row_blocks):
            raise InputError(f"matrix has {self.matrix.rows} rows but blocks sum to "
                             f"{sum(self.row_blocks)}")
        self.mu = len(self.row_blocks)
        self.nu = len(self.col_blocks)
        self._row_offsets = [sum(self.row_blocks[:a]) for a in range(self.mu)]
        self._col_offsets = [sum(self.col_blocks[:b]) for b in range(self.nu)]

    def block(self, alpha: int, beta: int) -> GFMatrix:
        if not (0 <= alpha < self.mu and 0 <= beta < self.nu):
            raise InputError(f"block index out of range: {(alpha, beta)}")
        r0 = self._row_offsets[alpha]
        c0 = self._col_offsets[beta]
        rows = [row[c0:c0 + self.col_blocks[beta]]
                for row in self.matrix.entries[r0:r0 + self.row_blocks[alpha]]]
        return GFMatrix(rows, self.p, cols=self.col_blocks[beta])

    def __repr__(self) -> str:
        return (f"PartitionedMatrix({'+'.join(map(str, self.row_blocks))} x "
                f"{'+'.join(map(str, self.col_blocks))} over GF({self.p}))")

    def to_json(self) -> dict:
        return {"p": self.p, "row_blocks": list(self.row_blocks),
                "col_blocks": list(self.col_blocks),
                "entries": self.matrix.to_lists()}

    @classmethod
    def from_json(cls, data: dict) -> "PartitionedMatrix":
        if not isinstance(data, dict):
            raise InputError("partitioned matrix JSON must be an object")
        missing = [k for k in ("p", "row_blocks", "col_blocks", "entries") if k not in data]
        if missing:
            raise InputError(f"partitioned matrix JSON lacks keys: {', '.join(missing)}")
        return cls(data["entries"], data["row_blocks"], data["col_blocks"], data["p"])


@dataclass(frozen=True)
class VanishingTuple:
    """A candidate assignment of one subspace per row block and column block."""

    X: tuple
    Y: tuple

    def __post_init__(self):
        object.__setattr__(self, "X", tuple(self.X))
        object.__setattr__(self, "Y", tuple(self.Y))
        for s in self.X + self.Y:
            if not isinstance(s, Subspace):
                raise InputError(f"vanishing tuple entries must be subspaces, got {s!r}")

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.X + self.Y)


def vanishes(A: PartitionedMatrix, t: VanishingTuple) -> bool:
    """Whether every block form is zero on the given subspace pair, i.e.
    u^T A_{alpha beta} v = 0 for all basis vectors u, v."""
    if len(t.X) != A.mu or len(t.Y) != A.nu:
        raise InputError(f"tuple shape {(len(t.X), len(t.Y))} does not match "
                         f"block shape {(A.mu, A.nu)}")
    for alpha, s in enumerate(t.X):
        if s.ambient_dim != A.row_blocks[alpha] or s.p != A.p:
            raise InputError(f"row subspace {alpha} lives in GF({s.p})^{s.ambient_dim}, "
                             f"expected GF({A.p})^{A.row_blocks[alpha]}")
    for beta, s in enumerate(t.Y):
        if s.ambient_dim != A.col_blocks[beta] or s.p != A.p:
            raise InputError(f"column subspace {beta} lives in GF({s.p})^{s.ambient_dim}, "
                             f"expected GF({A.p})^{A.col_blocks[beta]}")
    return all(y.leq(k) for y, k in zip(t.Y, _column_kernels(A, t.X)))


# -- maximum vanishing subspaces ------------------------------------------

def _column_kernels(A: PartitionedMatrix, X) -> list[Subspace]:
    """Per column block beta, the common kernel K_beta(X) of the row forms
    u^T A_{alpha beta}, u in X_alpha: the largest subspace on which every
    block form in column beta vanishes against X."""
    forms = []
    for alpha, s in enumerate(X):
        band = A.matrix.entries[A._row_offsets[alpha]:A._row_offsets[alpha] + A.row_blocks[alpha]]
        forms += [[sum(c * x for c, x in zip(u, col)) % A.p for col in zip(*band)]
                  for u in s.basis]
    return [Subspace(n, A.p, tuple(_kernel([f[c0:c0 + n] for f in forms], n, A.p)))
            for c0, n in zip(A._col_offsets, A.col_blocks)]


def mvsp_solve(A: PartitionedMatrix, budget: int = 10 ** 6) -> tuple[int, MembershipOracle]:
    """Maximize the total dimension over all vanishing tuples.

    For fixed row subspaces X, each column block's largest vanishing
    subspace is the common kernel K(X) of the row forms, so only the row
    side is enumerated, minimizing -sum(dim X) - sum(dim K(X)); ``budget``
    caps the row tuples, the product of the row lattice sizes.  Returns the
    optimum and the oracle over the validated meet/join-closed set of
    maximum tuples (X, K(X)), column side in reverse inclusion order; its
    members are flat tuples (row subspaces then column subspaces) and feed
    the point-line constructor directly.  Blocks of equal size on the same
    side share one lattice object.
    """
    sides = [(m, False) for m in A.row_blocks] + [(n, True) for n in A.col_blocks]
    shared = {side: subspace_lattice(side[0], A.p, reverse=side[1]) for side in dict.fromkeys(sides)}
    lattices = [shared[side] for side in sides]

    def value(*X) -> int:
        return -sum(s.dim for s in X) - sum(k.dim for k in _column_kernels(A, X))

    best = oracle_from_minimizers([(range(A.mu), value)], lattices[:A.mu], budget=budget)
    lifted = [X + tuple(_column_kernels(A, X)) for X in best.members]
    return int(-best.minimum), oracle_from_set(lifted, lattices)


# -- greedy maximal chains ------------------------------------------------

def maximal_chain(ppip: Ppip) -> list[frozenset]:
    """Greedy chain of consistent subspaces from the empty set to a maximal
    one.

    Each step picks the canonically least minimal element of the complement
    that is consistent with the current set and takes the subspace closure
    of the two.  On structures whose points are pairwise consistent
    (minimizer sets in particular) this is exactly the textbook greedy step,
    which adds every element made collinear with the pick by a current
    element; each grown set is verified to stay in the consistent family.
    """
    P = ppip.poset
    chain = [frozenset()]
    current: frozenset = frozenset()
    while True:
        outside = [x for x in P.elements if x not in current]
        candidates = [q for q in P.minimal_elements(outside)
                      if all(ppip.consistent(q, s) for s in current)]
        if not candidates:
            break
        pick = min(candidates, key=P.index)
        grown = subspace_closure(ppip, current | {pick})
        assert is_consistent_subspace(ppip, grown), "greedy step left the consistent family"
        chain.append(grown)
        current = grown
    return chain


# -- block-triangular decomposition ---------------------------------------

@dataclass
class DmDecomposition:
    """Result of the chain-driven block triangularization.

    ``P @ _block_diag(E_blocks) @ A @ _block_diag(F_blocks) @ Q`` equals
    ``transformed``, which has zero entries strictly below the stage
    diagonal; ``stages`` lists (row count, column count) per stage in
    display order, stages empty on both sides dropped.  ``chain`` holds the
    vanishing tuples realizing the stages, smallest row side first.
    """

    P: GFMatrix
    E_blocks: tuple
    F_blocks: tuple
    Q: GFMatrix
    transformed: GFMatrix
    stages: tuple
    optimum: int
    chain: tuple
    chain_sets: tuple
    ppip: Ppip


def _adapted_basis(subspace_chain, dim: int, p: int) -> tuple[list, list[int]]:
    """Basis vectors adapted to an increasing chain, each tagged with the
    index of the first chain member containing it; completion vectors get
    one past the last index."""
    vectors: list[tuple[int, ...]] = []
    levels: list[int] = []
    for k, sub in enumerate(subspace_chain):
        for v in sub.basis:
            if _rank(vectors + [v], dim, p) > len(vectors):
                vectors.append(v)
                levels.append(k)
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        if _rank(vectors + [e], dim, p) > len(vectors):
            vectors.append(e)
            levels.append(len(subspace_chain))
    assert len(vectors) == dim
    return vectors, levels


def dm_decompose(A: PartitionedMatrix, budget: int = 10 ** 6) -> DmDecomposition:
    """Most refined block-triangular form reachable by block-local basis
    changes and permutations.

    Runs the vanishing-subspace optimization, represents the maximum
    vanishing tuples by their point-line structure, walks a greedy maximal
    chain of consistent subspaces, converts it back to a chain of tuples
    (row side increasing by sums, column side decreasing by intersections),
    and adapts bases to both chains.  Rows added at later chain steps get
    earlier stages; the below-stage zero pattern is asserted entrywise.
    """
    optimum, oracle = mvsp_solve(A, budget=budget)
    ppip = build_ppip(oracle)
    chain_sets = maximal_chain(ppip)
    lats = oracle.lattices
    width = A.mu + A.nu
    member_set = set(oracle.members)

    bottom = list(oracle.members[0])
    for m in oracle.members[1:]:
        bottom = [lats[c].meet(bottom[c], m[c]) for c in range(width)]
    bottom = tuple(bottom)
    assert bottom in member_set

    flat_chain: list[tuple] = []
    for S in chain_sets:
        vals = []
        for c in range(width):
            v = lats[c].join_all([bottom[c]] + [pt[c] for pt in S])
            assert v is not None
            vals.append(v)
        t = tuple(vals)
        assert t in member_set, "chain element does not correspond to a maximum vanishing tuple"
        flat_chain.append(t)
    for t1, t2 in zip(flat_chain, flat_chain[1:]):
        assert t1 != t2 and all(lats[c].leq(t1[c], t2[c]) for c in range(width))
    kappa = len(flat_chain) - 1
    chain = tuple(VanishingTuple(t[:A.mu], t[A.mu:]) for t in flat_chain)

    E_blocks: list[GFMatrix] = []
    row_stage: list[int] = []
    for alpha in range(A.mu):
        m = A.row_blocks[alpha]
        vectors, levels = _adapted_basis([t[alpha] for t in flat_chain], m, A.p)
        E = GFMatrix(vectors, A.p, cols=m)
        assert E.is_invertible()
        E_blocks.append(E)
        row_stage.extend(kappa + 1 - lev for lev in levels)

    F_blocks: list[GFMatrix] = []
    col_stage: list[int] = []
    for beta in range(A.nu):
        n = A.col_blocks[beta]
        decreasing = [t[A.mu + beta] for t in flat_chain]
        vectors, levels = _adapted_basis(decreasing[::-1], n, A.p)
        F = GFMatrix(vectors, A.p, cols=n).transpose()
        assert F.is_invertible()
        F_blocks.append(F)
        # reversed chain index k corresponds to Y^{kappa - k}
        col_stage.extend(lev for lev in levels)

    m_total = sum(A.row_blocks)
    n_total = sum(A.col_blocks)
    row_order = sorted(range(m_total), key=lambda r: (row_stage[r], r))
    col_order = sorted(range(n_total), key=lambda c: (col_stage[c], c))
    P = GFMatrix([[1 if c == row_order[r] else 0 for c in range(m_total)]
                  for r in range(m_total)], A.p, cols=m_total)
    Q = GFMatrix([[1 if col_order[c] == r else 0 for c in range(n_total)]
                  for r in range(n_total)], A.p, cols=n_total)
    transformed = P @ _block_diag(E_blocks, A.p) @ A.matrix @ _block_diag(F_blocks, A.p) @ Q

    sorted_row_stage = [row_stage[r] for r in row_order]
    sorted_col_stage = [col_stage[c] for c in col_order]
    for r in range(m_total):
        for c in range(n_total):
            if sorted_col_stage[c] < sorted_row_stage[r]:
                assert transformed.entries[r][c] == 0, \
                    f"below-stage entry ({r},{c}) is nonzero"

    stages = []
    for k in range(kappa + 2):
        rk = sum(1 for s in row_stage if s == k)
        ck = sum(1 for s in col_stage if s == k)
        if rk or ck:
            stages.append((rk, ck))

    return DmDecomposition(P=P, E_blocks=tuple(E_blocks), F_blocks=tuple(F_blocks), Q=Q,
                           transformed=transformed, stages=tuple(stages), optimum=optimum,
                           chain=chain, chain_sets=tuple(chain_sets), ppip=ppip)
