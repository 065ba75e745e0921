"""Meet-semilattices with partial joins.

A ``Semilattice`` is a ``Poset`` in which every pair of elements has a
greatest common lower bound; this is validated at construction and a witness
pair is reported on failure.  Joins are derived: in a finite meet-semilattice
a pair with a common upper bound automatically has a least one (the meet of
all common upper bounds), so ``join`` is total exactly on pairs that are
bounded above and ``None`` marks a nonexistent join.

The modularity test checks two conditions:

* the modular law ``a ∨ (b ∧ c) = (a ∨ b) ∧ c`` for all triples with
  ``a ≤ c`` lying in a common principal ideal (equivalently, with ``b ∨ c``
  existing), which makes every principal ideal a modular lattice; and
* the triple-join condition: three pairwise-joinable elements have a join.

Both scans report the first violation in canonical element order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import NotSemilatticeError
from .poset import Element, Poset


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
        """Meets and joins read off ideal sizes: the meet of i and j is the
        common lower bound with the largest principal ideal, valid exactly
        when that ideal holds every common lower bound; joins are dual."""
        n = len(self.elements)
        if n == 0:
            raise NotSemilatticeError("empty semilattice has no minimum")
        Z = self.leq_matrix
        below = np.ascontiguousarray(Z.T)           # below[x, w] = w <= x
        down = Z.sum(axis=0)                        # principal ideal sizes
        up = Z.sum(axis=1)                          # principal filter sizes
        meet = np.empty((n, n), dtype=np.int32)
        join = np.empty((n, n), dtype=np.int32)

        def failure(i: int, bad: np.ndarray, message: str) -> NotSemilatticeError:
            a, b = self.elements[i], self.elements[int(np.flatnonzero(bad)[0])]
            return NotSemilatticeError(message.format(f"{a!r} and {b!r}"), witness=(a, b))

        for i in range(n):
            lb = below[i] & below                   # lb[j, w] = w <= i and w <= j
            sizes = lb.sum(axis=1)
            if not sizes.all():
                raise failure(i, sizes == 0, "not a meet-semilattice: {} have no common lower bound")
            glb = np.where(lb, down, -1).argmax(axis=1)
            if (down[glb] != sizes).any():
                raise failure(i, down[glb] != sizes,
                              "not a meet-semilattice: {} have no greatest common lower bound")
            meet[i] = glb
        # with every meet present, the meet of a pair's upper bounds is its least one
        for i in range(n):
            ub = Z[i] & Z                           # ub[j, w] = i <= w and j <= w
            join[i] = np.where(ub.any(axis=1), np.where(ub, up, -1).argmax(axis=1), -1)
        self._meet_table = meet
        self._join_table = join
        # with total meets the minimum is the unique element below all others
        mins = np.flatnonzero(up == n)
        assert len(mins) == 1
        self._min_index = int(mins[0])

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
            ja = J[a]                              # a∨b per b; exists on the domain
            lhs = J[a, M]                          # a ∨ (b ∧ c)
            rhs = M[np.clip(ja, 0, None)[:, None], cols]  # (a ∨ b) ∧ c
            assert ((ja[:, None] >= 0) | ~domain).all() and ((lhs >= 0) | ~domain).all()
            bad = domain & (lhs != rhs)
            if bad.any():
                b, c = map(int, np.argwhere(bad)[0])
                return False, {
                    "condition": "modular-law",
                    "triple": (self.elements[a], self.elements[b], self.elements[c]),
                }
        for x in range(n):
            jx = exists[x]
            pairwise = jx[:, None] & jx[None, :] & exists
            if not pairwise.any():
                continue
            u = np.clip(J[x], 0, None)
            triple = exists[u]                     # triple[y, z]: (x∨y)∨z exists
            bad = pairwise & ~triple
            if bad.any():
                y, z = map(int, np.argwhere(bad)[0])
                return False, {
                    "condition": "triple-join",
                    "triple": (self.elements[x], self.elements[y], self.elements[z]),
                }
        return True, None

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
            assert (rhs >= 0)[domain].all()
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
    return ~(member @ ~member.T)
