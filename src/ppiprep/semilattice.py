"""Meet-semilattices with partial joins.

A ``Semilattice`` is a ``Poset`` in which every pair of elements has a
greatest common lower bound; this is validated at construction and a witness
pair is reported on failure.  Joins are derived: in a finite meet-semilattice
a pair with a common upper bound automatically has a least one (the meet of
all common upper bounds), so ``join`` is total exactly on pairs that are
bounded above and ``None`` marks a nonexistent join.

The tables are built along covers, elements visited by ideal size.  When
i <= j the meet of i and j is i; otherwise every common lower bound lies
below a lower cover c of i, so the meet is the meet of (c, j) with the
largest ideal.  A candidate is the meet exactly when its ideal is as large
as the number of common lower bounds, read off one product of the order
with itself.  Joins are dual, along upper covers.

A modular semilattice satisfies two conditions:

* the modular law ``a ∨ (b ∧ c) = (a ∨ b) ∧ c`` for all triples with
  ``a ≤ c`` lying in a common principal ideal (equivalently, with ``b ∨ c``
  existing), which makes every principal ideal a modular lattice; and
* the triple-join condition: three pairwise-joinable elements have a join.

The first is decided by rank.  Let h be the longest-chain height above the
minimum; it is strictly monotone.  A finite lattice with a strictly
monotone h satisfying h(x) + h(y) = h(x ∧ y) + h(x ∨ y) is modular (for
a ≤ c both sides of the modular law get the same height, and one lies
below the other), and a modular lattice is graded with h as its rank, which
satisfies the identity (Birkhoff).  Every principal ideal shares the
minimum, so one global height serves them all: the identity must hold on
every pair with a join.  The second
needs no check when every pair has a join.  Only a rejection runs the
search of both conditions over all triples, so every witness is the first
violation in canonical element order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import NotSemilatticeError
from .poset import Element, Poset, count_product


class Semilattice(Poset):
    def __init__(self, elements: Sequence[Element],
                 relations: Iterable[tuple[Element, Element]] | np.ndarray = ()):
        super().__init__(elements, relations)
        self._build_tables()
        self._modular_cache: tuple[bool, dict | None] | None = None
        self._median_cache: tuple[bool, dict | None] | None = None

    @classmethod
    def from_poset(cls, poset: Poset) -> "Semilattice":
        return cls(poset.elements, poset.leq_matrix)

    def _build_tables(self) -> None:
        """Meets along lower covers, checked against the common lower bound
        counts; a failure names the lowest failing row, with a missing
        common lower bound before a missing greatest one.  Joins are dual."""
        n = len(self.elements)
        if n == 0:
            raise NotSemilatticeError("empty semilattice has no minimum")
        Z = self.leq_matrix
        down = Z.sum(axis=0, dtype=np.int32)         # principal ideal sizes
        up = Z.sum(axis=1, dtype=np.int32)           # principal filter sizes
        meet = _meets_along_covers(Z, self._cover_matrix.T, down)
        common = count_product(Z.T, Z)               # common lower bounds per pair
        none = common == 0
        bad = none | (np.append(down, -1)[meet] != common)
        del common
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=1))[0])
            missing = none[i].any()
            j = int(np.flatnonzero(none[i] if missing else bad[i])[0])
            a, b = self.elements[i], self.elements[j]
            what = "no common lower bound" if missing else "no greatest common lower bound"
            raise NotSemilatticeError(f"not a meet-semilattice: {a!r} and {b!r} have {what}",
                                      witness=(a, b))
        # with every meet present, a pair bounded above has a least upper bound
        self._meet_table = meet
        self._join_table = _meets_along_covers(np.ascontiguousarray(Z.T), self._cover_matrix, up)
        # and the minimum is the one element below all others
        self._min_index = int(up.argmax())

    # -- lattice operations ----------------------------------------------

    @property
    def min_element(self) -> Element:
        return self.elements[self._min_index]

    def meet(self, x: Element, y: Element) -> Element:
        return self.elements[self._meet_table[self.index(x), self.index(y)]]

    def join(self, x: Element, y: Element) -> Element | None:
        k = self._join_table[self.index(x), self.index(y)]
        return None if k < 0 else self.elements[int(k)]

    def has_join(self, x: Element, y: Element) -> bool:
        return self._join_table[self.index(x), self.index(y)] >= 0

    def join_all(self, xs: Iterable[Element]) -> Element | None:
        """Join of a set; the minimum for the empty set; None if undefined."""
        acc = self._min_index
        for x in xs:
            k = self._join_table[acc, self.index(x)]
            if k < 0:
                return None
            acc = int(k)
        return self.elements[acc]

    def meet_all(self, xs: Iterable[Element]) -> Element:
        xs = list(xs)
        if not xs:
            raise ValueError("meet of the empty set is undefined")
        acc = self.index(xs[0])
        for x in xs[1:]:
            acc = int(self._meet_table[acc, self.index(x)])
        return self.elements[acc]

    def join_irreducibles(self) -> list[Element]:
        """Elements with exactly one lower cover (the minimum is excluded)."""
        counts = self._cover_matrix.sum(axis=0)
        return [self.elements[i] for i in np.flatnonzero(counts == 1)]

    # -- modularity ------------------------------------------------------

    def is_modular_semilattice(self) -> tuple[bool, dict | None]:
        """Whether every principal ideal is modular and triple joins exist.

        Returns ``(True, None)`` or ``(False, witness)`` where the witness
        names the violated condition and the first offending triple in
        canonical element order.
        """
        if self._modular_cache is None:
            self._modular_cache = self._check_modular()
        return self._modular_cache

    def _check_modular(self) -> tuple[bool, dict | None]:
        witness = None
        if not self._modular_by_rank():
            witness = self._modular_law_violation()
        if witness is None and not (self._join_table >= 0).all():
            witness = self._triple_join_violation()
        return witness is None, witness

    def _modular_by_rank(self) -> bool:
        """Whether the longest-chain height satisfies h(x) + h(y) =
        h(x ∧ y) + h(x ∨ y) on every pair with a join, which decides that
        every principal ideal is modular."""
        n = len(self.elements)
        lower = [[] for _ in range(n)]
        for c, x in np.argwhere(self._cover_matrix).tolist():
            lower[x].append(c)
        height = [0] * n
        for x in np.argsort(self.leq_matrix.sum(axis=0), kind="stable").tolist():
            height[x] = max((height[c] + 1 for c in lower[x]), default=0)
        h = np.array(height, dtype=np.int32)
        J = self._join_table
        return bool(((h[:, None] + h == h[self._meet_table] + h[J]) | (J < 0)).all())

    def _modular_law_violation(self) -> dict | None:
        n = len(self.elements)
        Z = self.leq_matrix
        M = self._meet_table
        J = self._join_table
        exists = J >= 0
        cols = np.arange(n)[None, :]
        for a in range(n):
            domain = exists & Z[a][None, :]        # domain[b, c]: b∨c exists and a <= c
            if not domain.any():
                continue
            # a, b <= b∨c, so a∨b and a∨(b∧c) exist on the domain
            lhs = J[a, M]                          # a ∨ (b ∧ c)
            rhs = M[np.clip(J[a], 0, None)[:, None], cols]  # (a ∨ b) ∧ c
            bad = domain & (lhs != rhs)
            if bad.any():
                b, c = map(int, np.argwhere(bad)[0])
                return {"condition": "modular-law",
                        "triple": (self.elements[a], self.elements[b], self.elements[c])}
        return None

    def _triple_join_violation(self) -> dict | None:
        J = self._join_table
        exists = J >= 0
        for x in range(len(self.elements)):
            jx = exists[x]
            pairwise = jx[:, None] & jx[None, :] & exists
            if not pairwise.any():
                continue
            triple = exists[np.clip(J[x], 0, None)]  # triple[y, z]: (x∨y)∨z exists
            bad = pairwise & ~triple
            if bad.any():
                y, z = map(int, np.argwhere(bad)[0])
                return {"condition": "triple-join",
                        "triple": (self.elements[x], self.elements[y], self.elements[z])}
        return None

    def is_median_semilattice(self) -> tuple[bool, dict | None]:
        """Modular plus distributivity of every principal ideal."""
        if self._median_cache is None:
            ok, witness = self.is_modular_semilattice()
            if not ok:
                self._median_cache = (ok, witness)
            else:
                self._median_cache = self._check_distributive()
        return self._median_cache

    def _check_distributive(self) -> tuple[bool, dict | None]:
        n = len(self.elements)
        M = self._meet_table
        J = self._join_table
        exists = J >= 0
        for a in range(n):
            # triples (a,b,c) with a common upper bound: b∨c and a∨(b∨c) exist
            domain = exists & exists[a][np.clip(J, 0, None)]
            if not domain.any():
                continue
            lhs = M[a, np.clip(J, 0, None)]        # a ∧ (b ∨ c)
            ma = M[a]
            rhs = J[ma[:, None], ma[None, :]]      # (a ∧ b) ∨ (a ∧ c)
            if not (rhs >= 0)[domain].all():
                raise AssertionError("a pair of meets below a common upper bound has no join")
            bad = domain & (lhs != rhs)
            if bad.any():
                b, c = map(int, np.argwhere(bad)[0])
                return False, {
                    "condition": "distributive-law",
                    "triple": (self.elements[a], self.elements[b], self.elements[c]),
                }
        return True, None

    # -- induced point-line relations ------------------------------------

    def _induced_on(self, points: list) -> tuple[list, list]:
        """``induced_relations`` among ``points``, by positions in that list."""
        idx = [self.index(p) for p in points]
        sub = np.ix_(idx, idx)
        return induced_relations(self.leq_matrix[sub], self._join_table[sub])

    def induced_inconsistency(self) -> list[frozenset]:
        """Pairs of irreducibles whose join does not exist, canonical order."""
        irr = self.join_irreducibles()
        return [frozenset(irr[i] for i in pair) for pair in self._induced_on(irr)[0]]

    def induced_collinearity(self) -> list[frozenset]:
        """Triples of pairwise-incomparable irreducibles with equal pairwise joins."""
        irr = self.join_irreducibles()
        return [frozenset(irr[i] for i in trip) for trip in self._induced_on(irr)[1]]


def induced_relations(leq: np.ndarray, join) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """Inconsistent pairs and collinear triples of k points, as index tuples
    in lexicographic order.

    ``leq`` is a k x k boolean array, ``leq[i, j]`` saying point i lies below
    point j; ``join[i][j]`` is an integer key naming the join of points i and
    j, negative when that join does not exist; the diagonal is not read.  A pair is inconsistent when its join
    does not exist; a triple is collinear when its points are pairwise
    incomparable and its three pairwise joins exist and are equal.
    """
    comparable = (leq | leq.T).tolist()
    J = np.asarray(join).tolist()
    inconsistent = []
    collinear = []
    for i, (Ji, ci) in enumerate(zip(J, comparable)):
        for j in range(i + 1, len(J)):
            key = Ji[j]
            if key < 0:
                inconsistent.append((i, j))
            elif not ci[j]:
                Jj, cj = J[j], comparable[j]
                collinear.extend((i, j, m) for m in range(j + 1, len(J))
                                 if Ji[m] == key and Jj[m] == key and not (ci[m] or cj[m]))
    return inconsistent, collinear


def inclusion_matrix(sets: Sequence[Iterable]) -> np.ndarray:
    """k x k boolean array whose entry (i, j) says ``sets[i]`` is a subset
    of ``sets[j]``: one product of 0/1 membership rows."""
    column = {x: c for c, x in enumerate(set().union(*sets))}
    member = np.zeros((len(sets), len(column)), dtype=bool)
    for r, s in enumerate(sets):
        member[r, [column[x] for x in s]] = True
    return count_product(member, ~member.T) == 0


def _meets_along_covers(leq: np.ndarray, lower: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Candidate meet table of the order ``leq``, built along covers.

    ``lower[x]`` marks the lower covers of x and ``rank`` is a strictly
    monotone size, such as the ideal size.  Rows are filled in increasing
    rank, and elements are labelled by their place in that order: x ∧ y is
    x when x <= y, and otherwise the entry (c, y) with the largest label
    over the lower covers c of x, or -1 when there is none.  Every entry
    that is not -1 is a common lower bound, and it is the meet whenever the
    meet exists, for it lies above every other candidate.  On the reversed
    order, with upper covers and filter sizes, the same recursion gives the
    joins.
    """
    n = len(leq)
    order = np.argsort(rank, kind="stable").astype(np.int32)
    label = np.empty(n, dtype=np.int32)
    label[order] = np.arange(n, dtype=np.int32)
    table = np.full((n, n), -1, dtype=np.int32)    # labels
    for x in order.tolist():
        covers = np.flatnonzero(lower[x])
        row = table[covers].max(axis=0) if covers.size else table[x]
        table[x] = np.where(leq[x], label[x], row)
    return np.append(order, np.int32(-1))[table]
