"""Compact representations of meet/join-closed subsets of product semilattices.

A hidden set B inside a product of small semilattices, closed under
componentwise meets and existing componentwise joins, is accessed only
through a two-coordinate membership oracle.  Bases (componentwise-minimum
members with a fixed coordinate value) let every question about B's order
reduce to single comparisons in the factors, so the whole point-line
structure of B comes out of polynomially many oracle calls.

Coordinates are 0-based.  The factors may differ per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product as iter_product
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BudgetError, InputError, NotModularError
from .poset import Poset
from .ppip import Ppip
from .semilattice import Semilattice

Element = object
Vector = tuple


class MembershipOracle:
    """Answers whether some member of B has value ``l`` at coordinate ``i``
    and ``l2`` at coordinate ``j``.

    Queries are cached under their symmetric normal form; ``call_counter``
    counts underlying evaluations only, so the accounting matches the number
    of distinct questions asked of the hidden set.
    """

    def __init__(self, lattices: Sequence[Semilattice] | Semilattice, n: int | None = None,
                 query: Callable[[int, int, Element, Element], bool] | None = None):
        self.lattices: list[Semilattice] = _factor_list(lattices, n)
        self.n: int = len(self.lattices)
        self._fn = query
        self.call_counter: int = 0
        self._cache: dict = {}
        self._projections: dict[int, Semilattice] = {}

    def query(self, i: int, j: int, l: Element, l2: Element) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InputError(f"coordinate out of range: {(i, j)}")
        return self._ask(i, self.lattices[i].index(l), j, self.lattices[j].index(l2))

    def _ask(self, i: int, a: int, j: int, b: int) -> bool:
        """``query`` with the values given by their positions ``a`` and ``b``
        in the factors' element lists."""
        key = ((i, a), (j, b)) if (i, a) <= (j, b) else ((j, b), (i, a))
        hit = self._cache.get(key)
        if hit is None:
            self.call_counter += 1
            hit = bool(self._fn(i, j, self.lattices[i].elements[a], self.lattices[j].elements[b]))
            self._cache[key] = hit
        return hit


def _factor_list(lattices: Sequence[Semilattice] | Semilattice, n: int | None) -> list[Semilattice]:
    """The factor of each coordinate: one shared factor repeated ``n`` times,
    or the given list, whose length must equal ``n`` when that is given."""
    if isinstance(lattices, Semilattice):
        if n is None:
            raise InputError("coordinate count required with a single shared factor")
        lattices = [lattices] * n
    lattices = list(lattices)
    if not lattices:
        raise InputError("a product needs at least one coordinate")
    if n is not None and n != len(lattices):
        raise InputError(f"coordinate count {n} does not match {len(lattices)} factors")
    return lattices


@dataclass(frozen=True)
class Base:
    """The componentwise-minimum member with i-th coordinate l.

    ``labels`` lists every (coordinate, value) pair naming this same member;
    the first one is the defining pair.
    """

    i: int
    l: Element
    vector: Vector
    labels: tuple = ()
    lattices: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.vector[self.i] != self.l:
            raise InputError("base vector disagrees with its defining coordinate")


def compute_bases(oracle: MembershipOracle) -> dict[tuple[int, Element], Base]:
    """All defined bases, keyed by (coordinate, value); a missing key means
    no member takes that value there.

    Each component is the minimum of the compatible values seen through the
    oracle; a component without a unique minimum proves the oracle is not
    backed by a meet/join-closed set.  Uses at most (sum of factor sizes)^2
    underlying calls, the two-coordinate query table.
    """
    before = oracle.call_counter
    bases: dict[tuple[int, Element], Base] = {}
    lats = oracle.lattices
    for i, Li in enumerate(lats):
        for a, l in enumerate(Li.elements):
            if not oracle._ask(i, a, i, a):
                continue
            vec = []
            for j, Lj in enumerate(lats):
                compat = [a] if j == i else [b for b in range(len(Lj)) if oracle._ask(i, a, j, b)]
                if not compat:
                    raise InputError(
                        f"oracle is not (∧,∨)-closed: coordinate {i} value {l!r} "
                        f"has a member but no compatible value at coordinate {j}")
                mins = [Lj.elements[b] for b in compat if not Lj._lt[compat, b].any()]
                if len(mins) != 1:
                    raise InputError(
                        f"oracle is not (∧,∨)-closed: values compatible with "
                        f"coordinate {i} = {l!r} have no unique minimum at "
                        f"coordinate {j} (minimal: {mins!r})")
                vec.append(mins[0])
            bases[(i, l)] = Base(i, l, tuple(vec), labels=((i, l),), lattices=tuple(lats))
    bound = sum(len(lat) for lat in lats) ** 2
    spent = oracle.call_counter - before
    if spent > bound:
        raise AssertionError(f"oracle call accounting broken: {spent} > {bound}")
    return bases


def lcp_leq(e: Base, b: Vector) -> bool:
    """Whether the base lies below ``b``, decided by the single comparison
    at the base's defining coordinate; equivalent to the componentwise
    comparison whenever ``b`` is a member."""
    return e.lattices[e.i].leq(e.l, b[e.i])


def _projection(oracle: MembershipOracle, i: int) -> Semilattice:
    """The values members take at coordinate ``i``, as a semilattice; built
    once per oracle."""
    if i not in oracle._projections:
        Li = oracle.lattices[i]
        present = [l for a, l in enumerate(Li.elements) if oracle._ask(i, a, i, a)]
        oracle._projections[i] = Semilattice.from_poset(Li.subposet(present))
    return oracle._projections[i]


def join_irreducible_elements(oracle: MembershipOracle) -> list[Base]:
    """The join-irreducible members of the hidden set: exactly the bases
    whose defining value is join-irreducible in its coordinate's projection.
    Bases with equal vectors are merged, keeping all their labels.

    The count never exceeds the sum over coordinates of the factor's
    join-irreducible count.
    """
    bases = compute_bases(oracle)
    # labels arrive by coordinate, then in the factor's order
    merged: dict[Vector, list] = {}
    for i in range(oracle.n):
        for l in _projection(oracle, i).join_irreducibles():
            merged.setdefault(bases[(i, l)].vector, []).append((i, l))
    out = [Base(*labels[0], vec, labels=tuple(labels), lattices=tuple(oracle.lattices))
           for vec, labels in merged.items()]
    out.sort(key=lambda b: [lat.index(x) for x, lat in zip(b.vector, oracle.lattices)])
    return out


def build_ppip(oracle: MembershipOracle) -> Ppip:
    """The point-line structure of the hidden set, on its join-irreducible
    members (identified by their vectors), without enumerating the set.

    Order comes from single-coordinate comparisons; inconsistent pairs are
    seeded by same-coordinate inconsistencies between defining values and
    propagated upward through the pair order; collinearity of a pairwise
    consistent triple is decided per defining coordinate inside the small
    projection semilattices.
    """
    for lat in {id(l): l for l in oracle.lattices}.values():
        ok, witness = lat.is_modular_semilattice()
        if not ok:
            raise NotModularError(
                f"factor semilattice is not modular: {witness['condition']} fails",
                witness=witness)

    points = join_irreducible_elements(oracle)
    lats = oracle.lattices
    k = len(points)
    ids = [p.vector for p in points]
    pos = np.array([[lat.index(x) for x, lat in zip(p.vector, lats)] for p in points],
                   dtype=np.intp).reshape(k, oracle.n)
    # a point lies below another when its defining value does
    leq = np.array([lats[p.i].leq_matrix[pos[a, p.i], pos[:, p.i]] for a, p in enumerate(points)],
                   dtype=bool).reshape(k, k)
    poset = Poset(ids, leq)
    point_of = {lab: a for a, p in enumerate(points) for lab in p.labels}
    projections = [_projection(oracle, i) for i in range(oracle.n)]

    # every pair above the points of an inconsistent pair of defining values
    inconsistent = np.zeros((k, k), dtype=bool)
    for i, proj in enumerate(projections):
        for pair in proj.induced_inconsistency():
            a, b = (point_of[(i, l)] for l in pair)
            inconsistent |= np.outer(poset.leq_matrix[a], poset.leq_matrix[b])
    inconsistent |= inconsistent.T

    # a consistent triple is collinear when the projection of each of its
    # points' defining coordinates puts the triple's values on a line
    lines = [set(proj._induced_on([p.vector[i] for p in points])[1])
             for i, proj in enumerate(projections)]
    collinear = [frozenset(ids[x] for x in t) for t in sorted(set().union(*lines))
                 if all(t in lines[points[x].i] for x in t)
                 and not any(inconsistent[x, y] for x, y in combinations(t, 2))]
    pairs = [frozenset((ids[x], ids[y])) for x, y in np.argwhere(np.triu(inconsistent)).tolist()]
    return Ppip(poset, pairs, collinear)


def oracle_from_set(members: Iterable[Vector],
                    lattices: Sequence[Semilattice] | Semilattice,
                    n: int | None = None) -> MembershipOracle:
    """Oracle backed by an explicit member list, validated to be closed
    under componentwise meets and existing componentwise joins.

    Pairs of members are checked in the order of their ``str``, each
    pair's meet before its join, and the first one missing is reported.
    The member vectors stay available as ``oracle.members`` in canonical
    order.  An empty member list is rejected: the represented structure
    must have a minimum.
    """
    members = [tuple(m) for m in members]
    if not members:
        raise InputError("explicit member set is empty")
    if n is None and isinstance(lattices, Semilattice):
        n = len(members[0])
    lattices = _factor_list(lattices, n)
    width = len(lattices)
    rows = []
    for m in members:
        if len(m) != width:
            raise InputError(f"member {m!r} does not have {width} coordinates")
        rows.append(tuple(lat.index(x) for x, lat in zip(m, lattices)))
    seen = set(rows)
    if len(seen) != len(rows):
        raise InputError("duplicate members in explicit set")

    tables = {"meet": [lat._meet_table.tolist() for lat in lattices],
              "join": [lat._join_table.tolist() for lat in lattices]}
    for p, q in combinations(sorted(range(len(rows)), key=lambda k: str(members[k])), 2):
        for what, table in tables.items():
            vec = tuple(t[x][y] for t, x, y in zip(table, rows[p], rows[q]))
            if -1 not in vec and vec not in seen:    # -1: no join in that factor
                raise InputError(
                    f"explicit set is not (∧,∨)-closed: {what} of {members[p]!r} and {members[q]!r} "
                    f"is {tuple(lat.elements[x] for x, lat in zip(vec, lattices))!r}, which is missing")

    # every (i, x_i, j, x_j) a member takes, values by positions
    entries = {(i, a, j, b) for row in rows for i, a in enumerate(row) for j, b in enumerate(row)}

    def answer(i: int, j: int, l, l2) -> bool:
        return (i, lattices[i].index(l), j, lattices[j].index(l2)) in entries

    oracle = MembershipOracle(lattices, query=answer)
    oracle.members = [tuple(lat.elements[x] for x, lat in zip(row, lattices)) for row in sorted(rows)]
    return oracle


def oracle_from_minimizers(terms: Sequence[tuple[Sequence[int], Callable[..., float]]],
                           lattices: Sequence[Semilattice] | Semilattice,
                           n: int | None = None,
                           budget: int = 10 ** 6) -> MembershipOracle:
    """Oracle for the minimizer set of a sum of local terms over the product.

    Each term is (coordinates, function); the function receives the values
    at those coordinates and may return ``inf``.  The minimizer set is found
    by full enumeration (the budget caps the tuple count), then validated
    for meet/join-closedness; a violation is reported as the input not being
    submodular-like, with the offending pair.
    """
    lattices = _factor_list(lattices, n)
    total = math.prod(len(lat) for lat in lattices)
    if total > budget:
        raise BudgetError(f"minimizer enumeration over {total} tuples exceeds budget {budget}")

    best = math.inf
    argmin: list[Vector] = []
    for combo in iter_product(*(lat.elements for lat in lattices)):
        value = 0.0
        for coords, fn in terms:
            value += fn(*(combo[c] for c in coords))
            if value == math.inf:
                break
        if value < best:
            best = value
            argmin = [combo]
        elif value == best:
            argmin.append(combo)

    try:
        oracle = oracle_from_set(argmin, lattices)
    except InputError as exc:
        raise InputError(f"input not submodular-like: {exc}") from exc
    oracle.minimum = best
    return oracle
