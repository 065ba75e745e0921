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
        if isinstance(lattices, Semilattice):
            if n is None:
                raise InputError("coordinate count required with a single shared factor")
            lattices = [lattices] * n
        self.lattices: list[Semilattice] = list(lattices)
        self.n: int = len(self.lattices)
        if self.n == 0:
            raise InputError("a product needs at least one coordinate")
        if n is not None and n != self.n:
            raise InputError(f"coordinate count {n} does not match {self.n} factors")
        self._fn = query
        self.call_counter: int = 0
        self._cache: dict = {}

    def query(self, i: int, j: int, l: Element, l2: Element) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InputError(f"coordinate out of range: {(i, j)}")
        key = ((i, self.lattices[i].index(l)), (j, self.lattices[j].index(l2)))
        if key[0] > key[1]:
            key = (key[1], key[0])
        hit = self._cache.get(key)
        if hit is None:
            self.call_counter += 1
            hit = bool(self._fn(i, j, l, l2))
            self._cache[key] = hit
        return hit


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
    n = oracle.n
    for i in range(n):
        Li = lats[i]
        for l in Li.elements:
            if not oracle.query(i, i, l, l):
                continue
            vec = []
            for j in range(n):
                if j == i:
                    vec.append(l)
                    continue
                Lj = lats[j]
                compat = [l2 for l2 in Lj.elements if oracle.query(i, j, l, l2)]
                if not compat:
                    raise InputError(
                        f"oracle is not (∧,∨)-closed: coordinate {i} value {l!r} "
                        f"has a member but no compatible value at coordinate {j}")
                mins = Lj.minimal_elements(compat)
                if len(mins) != 1:
                    raise InputError(
                        f"oracle is not (∧,∨)-closed: values compatible with "
                        f"coordinate {i} = {l!r} have no unique minimum at "
                        f"coordinate {j} (minimal: {mins!r})")
                vec.append(mins[0])
            bases[(i, l)] = Base(i, l, tuple(vec), labels=((i, l),), lattices=tuple(lats))
    bound = sum(len(lat) for lat in lats) ** 2
    spent = oracle.call_counter - before
    assert spent <= bound, f"oracle call accounting broken: {spent} > {bound}"
    return bases


def lcp_leq(e: Base, b: Vector) -> bool:
    """Whether the base lies below ``b``, decided by the single comparison
    at the base's defining coordinate; equivalent to the componentwise
    comparison whenever ``b`` is a member."""
    return e.lattices[e.i].leq(e.l, b[e.i])


def _projection(oracle: MembershipOracle, i: int) -> Semilattice:
    Li = oracle.lattices[i]
    present = [l for l in Li.elements if oracle.query(i, i, l, l)]
    return Semilattice.from_poset(Li.subposet(present))


def join_irreducible_elements(oracle: MembershipOracle) -> list[Base]:
    """The join-irreducible members of the hidden set: exactly the bases
    whose defining value is join-irreducible in its coordinate's projection.
    Bases with equal vectors are merged, keeping all their labels.

    The count never exceeds the sum over coordinates of the factor's
    join-irreducible count.
    """
    bases = compute_bases(oracle)
    irr_labels = []
    for i in range(oracle.n):
        proj = _projection(oracle, i)
        for l in proj.join_irreducibles():
            irr_labels.append((i, l))

    merged: dict[Vector, list] = {}
    for (i, l) in irr_labels:
        base = bases[(i, l)]
        merged.setdefault(base.vector, []).append((i, l))

    def label_key(lab):
        i, l = lab
        return (i, oracle.lattices[i].index(l))

    out = []
    for vec, labels in merged.items():
        labels.sort(key=label_key)
        i0, l0 = labels[0]
        out.append(Base(i0, l0, vec, labels=tuple(labels), lattices=tuple(oracle.lattices)))
    out.sort(key=lambda b: tuple(oracle.lattices[j].index(b.vector[j]) for j in range(oracle.n)))
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
    ids = [p.vector for p in points]
    leq = [[lcp_leq(a, b.vector) for b in points] for a in points]
    poset = Poset(ids, np.array(leq, dtype=bool).reshape(len(ids), len(ids)))
    point_of = {lab: k for k, p in enumerate(points) for lab in p.labels}
    projections = {i: _projection(oracle, i) for i in range(oracle.n)}

    # every pair above the points of an inconsistent pair of defining values
    inconsistent = set()
    for i, proj in projections.items():
        for pair in proj.induced_inconsistency():
            above_a, above_b = (np.flatnonzero(poset.leq_matrix[point_of[(i, l)]]) for l in pair)
            inconsistent.update(frozenset((ids[x], ids[y])) for x in above_a for y in above_b)

    # collinear triples of each projection, among the values the points take there
    lines = {}
    for i, proj in projections.items():
        vals = list({p.vector[i] for p in points})
        lines[i] = {frozenset(vals[t] for t in trip) for trip in proj._induced_on(vals)[1]}

    collinear = []
    for pa, pb, pc in combinations(points, 3):
        va, vb, vc = pa.vector, pb.vector, pc.vector
        if (frozenset((va, vb)) in inconsistent or
                frozenset((vb, vc)) in inconsistent or
                frozenset((va, vc)) in inconsistent):
            continue
        # collinear in the projection of each point's defining coordinate
        if all(frozenset((va[i], vb[i], vc[i])) in lines[i]
               for i in (pa.labels[0][0], pb.labels[0][0], pc.labels[0][0])):
            collinear.append(frozenset((va, vb, vc)))

    return Ppip(poset, inconsistent, collinear)


def oracle_from_set(members: Iterable[Vector],
                    lattices: Sequence[Semilattice] | Semilattice,
                    n: int | None = None) -> MembershipOracle:
    """Oracle backed by an explicit member list, validated to be closed
    under componentwise meets and existing componentwise joins.

    The member vectors stay available as ``oracle.members`` in canonical
    order.  An empty member list is rejected: the represented structure
    must have a minimum.
    """
    members = [tuple(m) for m in members]
    if not members:
        raise InputError("explicit member set is empty")
    if isinstance(lattices, Semilattice):
        width = n if n is not None else len(members[0])
        lattices = [lattices] * width
    lattices = list(lattices)
    width = len(lattices)
    seen = set()
    for m in members:
        if len(m) != width:
            raise InputError(f"member {m!r} does not have {width} coordinates")
        for x, lat in zip(m, lattices):
            lat.index(x)
        seen.add(m)
    if len(seen) != len(members):
        raise InputError("duplicate members in explicit set")

    for m1, m2 in combinations(sorted(seen, key=str), 2):
        meet = tuple(lat.meet(x, y) for x, y, lat in zip(m1, m2, lattices))
        if meet not in seen:
            raise InputError(
                f"explicit set is not (∧,∨)-closed: meet of {m1!r} and {m2!r} "
                f"is {meet!r}, which is missing")
        joins = [lat.join(x, y) for x, y, lat in zip(m1, m2, lattices)]
        if all(j is not None for j in joins) and tuple(joins) not in seen:
            raise InputError(
                f"explicit set is not (∧,∨)-closed: join of {m1!r} and {m2!r} "
                f"is {tuple(joins)!r}, which is missing")

    index = {lat_i: {e: k for k, e in enumerate(lat.elements)}
             for lat_i, lat in enumerate(lattices)}
    ordered = sorted(seen, key=lambda m: tuple(index[i][m[i]] for i in range(width)))

    def answer(i: int, j: int, l, l2) -> bool:
        return any(m[i] == l and m[j] == l2 for m in ordered)

    oracle = MembershipOracle(lattices, query=answer)
    oracle.members = ordered
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
    if isinstance(lattices, Semilattice):
        if n is None:
            raise InputError("coordinate count required with a single shared factor")
        lattices = [lattices] * n
    lattices = list(lattices)
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
