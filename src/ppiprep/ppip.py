"""Posets carrying inconsistency and collinearity relations.

A ``Ppip`` is a finite poset together with a symmetric binary inconsistency
relation (pairs that admit no join anywhere above them) and a symmetric
ternary collinearity relation (triples acting like three points on a line).
``check_axioms`` verifies the eight defining conditions in a fixed order and
reports the first violation; ``consistent_subspaces`` rebuilds the semilattice
the structure encodes, and ``birkhoff_roundtrip`` certifies that encoding and
decoding are mutually inverse on a given modular semilattice.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import AxiomError, InputError
from .poset import Element, Poset
from .semilattice import Semilattice, inclusion_matrix


class Ppip:
    """Poset plus inconsistent pairs and collinear triples.

    ``inconsistent`` holds 2-element frozensets, ``collinear`` 3-element
    frozensets; all members must be poset elements.  Construction checks only
    well-formedness; the axioms are a separate, explicit check.
    """

    def __init__(self, poset: Poset, inconsistent: Iterable[frozenset] = (),
                 collinear: Iterable[frozenset] = ()):
        self.poset = poset
        inc = set()
        for pair in inconsistent:
            pair = frozenset(pair)
            if len(pair) != 2:
                raise InputError(f"inconsistent pair must have two distinct elements: {sorted(map(str, pair))}")
            for x in pair:
                poset.index(x)
            inc.add(pair)
        col = set()
        for trip in collinear:
            trip = frozenset(trip)
            if len(trip) != 3:
                raise InputError(f"collinear triple must have three distinct elements: {sorted(map(str, trip))}")
            for x in trip:
                poset.index(x)
            col.add(trip)
        self.inconsistent: frozenset = frozenset(inc)
        self.collinear: frozenset = frozenset(col)

    # canonical, deterministic listings
    def inconsistent_pairs(self) -> list[tuple[Element, Element]]:
        pairs = [tuple(self.poset.sort_canonical(p)) for p in self.inconsistent]
        pairs.sort(key=lambda p: (self.poset.index(p[0]), self.poset.index(p[1])))
        return pairs

    def collinear_triples(self) -> list[tuple[Element, Element, Element]]:
        trips = [tuple(self.poset.sort_canonical(t)) for t in self.collinear]
        trips.sort(key=lambda t: tuple(self.poset.index(x) for x in t))
        return trips

    def consistent(self, x: Element, y: Element) -> bool:
        return x == y or frozenset((x, y)) not in self.inconsistent

    def minimal_inconsistent_pairs(self) -> list[tuple[Element, Element]]:
        """Inconsistent pairs with no inconsistent pair strictly below them."""
        pairs = self.inconsistent_pairs()
        out = []
        for p, q in pairs:
            minimal = True
            for a, b in pairs:
                if (a, b) == (p, q):
                    continue
                if (self.poset.leq(a, p) and self.poset.leq(b, q)) or \
                   (self.poset.leq(a, q) and self.poset.leq(b, p)):
                    minimal = False
                    break
            if minimal:
                out.append((p, q))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ppip):
            return NotImplemented
        return (self.poset == other.poset and self.inconsistent == other.inconsistent
                and self.collinear == other.collinear)

    def __repr__(self) -> str:
        return (f"Ppip({len(self.poset)} elements, {len(self.inconsistent)} inconsistent pairs, "
                f"{len(self.collinear)} collinear triples)")

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        data = self.poset.to_json()
        data["inconsistent"] = [list(p) for p in self.inconsistent_pairs()]
        data["collinear"] = [list(t) for t in self.collinear_triples()]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Ppip":
        poset = Poset.from_json(data)
        return cls(poset, [frozenset(p) for p in data.get("inconsistent", [])],
                   [frozenset(t) for t in data.get("collinear", [])])

    def to_dot(self, name: str = "ppip") -> str:
        """Hasse diagram plus dashed minimal inconsistent pairs and boxed triples."""
        from .poset import _dot_id
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
        for el in self.poset.elements:
            lines.append(f'  "{_dot_id(el)}";')
        for a, b in self.poset.covers:
            lines.append(f'  "{_dot_id(a)}" -> "{_dot_id(b)}";')
        for p, q in self.minimal_inconsistent_pairs():
            lines.append(f'  "{_dot_id(p)}" -> "{_dot_id(q)}" [dir=none, style=dashed];')
        for k, (p, q, r) in enumerate(self.collinear_triples()):
            box = f"line{k}"
            lines.append(f'  "{box}" [shape=box, style=dotted, label="line"];')
            for x in (p, q, r):
                lines.append(f'  "{box}" -> "{_dot_id(x)}" [dir=none, style=dotted];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- axioms --------------------------------------------------------------

def check_axioms(ppip: Ppip) -> tuple[bool, dict | None]:
    """Verify the eight axioms in order; return the first violation.

    Order: inconsistency axioms (no common upper bounds; upward closure),
    collinearity axioms (incomparability; upper bounds of two dominate the
    third), regularity, the weak triangle condition, then the two
    consistency-collinearity axioms.
    """
    for checker in (_check_ic1, _check_ic2, _check_ct1, _check_ct2,
                    check_regularity, check_weak_triangle, _check_cc1, _check_cc2):
        witness = checker(ppip)
        if witness is not None:
            return False, witness
    return True, None


def _check_ic1(ppip: Ppip) -> dict | None:
    P = ppip.poset
    for p, q in ppip.inconsistent_pairs():
        ubs = P.upper_bounds((p, q))
        if ubs:
            return {"axiom": "inconsistency-unbounded", "pair": (p, q), "upper_bound": ubs[0]}
    return None


def _check_ic2(ppip: Ppip) -> dict | None:
    P = ppip.poset
    for p, q in ppip.inconsistent_pairs():
        for p2 in P.principal_filter(p):
            for q2 in P.principal_filter(q):
                if frozenset((p2, q2)) not in ppip.inconsistent:
                    return {"axiom": "inconsistency-upward", "pair": (p, q), "violating_pair": (p2, q2)}
    return None


def _check_ct1(ppip: Ppip) -> dict | None:
    P = ppip.poset
    for trip in ppip.collinear_triples():
        for x, y in combinations(trip, 2):
            if P.comparable(x, y):
                return {"axiom": "collinear-incomparable", "triple": trip, "comparable_pair": (x, y)}
    return None


def _check_ct2(ppip: Ppip) -> dict | None:
    P = ppip.poset
    for trip in ppip.collinear_triples():
        for r in trip:
            p, q = (x for x in trip if x != r)
            for w in P.upper_bounds((p, q)):
                if not P.leq(r, w):
                    return {"axiom": "collinear-dominated", "triple": trip, "pair": (p, q),
                            "upper_bound": w, "undominated": r}
    return None


def check_regularity(ppip: Ppip) -> dict | None:
    P = ppip.poset
    for trip in ppip.collinear_triples():
        for r in trip:
            p, q = (x for x in trip if x != r)
            for r2 in P.principal_ideal(r):
                if P.leq(r2, p) or P.leq(r2, q):
                    continue
                if not _has_lower_triple(ppip, p, q, r2):
                    return {"axiom": "regularity", "triple": trip, "lowered": r2}
    return None


def _has_lower_triple(ppip: Ppip, p: Element, q: Element, r2: Element) -> bool:
    P = ppip.poset
    for trip in ppip.collinear:
        if r2 not in trip:
            continue
        u, v = (x for x in trip if x != r2)
        if (P.leq(u, p) and P.leq(v, q)) or (P.leq(u, q) and P.leq(v, p)):
            return True
    return False


def check_weak_triangle(ppip: Ppip) -> dict | None:
    """Two collinear triples sharing an element must satisfy one of the five
    triangle alternatives, whenever the five endpoints are pairwise consistent."""
    P = ppip.poset
    trips = ppip.collinear_triples()
    for t1 in trips:
        for t2 in trips:
            shared = [c for c in t1 if c in t2]
            for c in shared:
                rest1 = [x for x in t1 if x != c]
                rest2 = [x for x in t2 if x != c]
                for a, p in (rest1, rest1[::-1]):
                    for b, q in (rest2, rest2[::-1]):
                        five = {a, b, c, p, q}
                        if any(not ppip.consistent(x, y) for x, y in combinations(five, 2)):
                            continue
                        if not _triangle_alternatives(ppip, a, c, p, b, q):
                            return {"axiom": "weak-triangle", "premise": (a, c, p, b, q)}
    return None


def _triangle_alternatives(ppip: Ppip, a, c, p, b, q) -> bool:
    P = ppip.poset
    # (5) q below a or p
    if P.leq(q, a) or P.leq(q, p):
        return True
    # (3) b, q, p collinear
    if frozenset((b, q, p)) in ppip.collinear:
        return True
    # (2) some a' <= a with b, q, a' collinear
    for a2 in P.principal_ideal(a):
        if frozenset((b, q, a2)) in ppip.collinear:
            return True
    # (4) some a' <= a and p' <= p with q, a', p' collinear
    for a2 in P.principal_ideal(a):
        for p2 in P.principal_ideal(p):
            if frozenset((q, a2, p2)) in ppip.collinear:
                return True
    # (1) a completing sixth point
    for x in P.elements:
        if frozenset((a, b, x)) not in ppip.collinear or frozenset((p, q, x)) not in ppip.collinear:
            continue
        six = {a, b, c, p, q, x}
        if any(P.comparable(u, v) for u, v in combinations(six, 2)):
            continue
        allowed = {frozenset((a, c, p)), frozenset((b, c, q)),
                   frozenset((a, b, x)), frozenset((p, q, x))}
        if all(frozenset(t) in allowed for t in combinations(six, 3) if frozenset(t) in ppip.collinear):
            return True
    return False


def _check_cc1(ppip: Ppip) -> dict | None:
    for trip in ppip.collinear_triples():
        for x, y in combinations(trip, 2):
            if not ppip.consistent(x, y):
                return {"axiom": "collinear-consistent", "triple": trip, "inconsistent_pair": (x, y)}
    return None


def _check_cc2(ppip: Ppip) -> dict | None:
    for trip in ppip.collinear_triples():
        for x in ppip.poset.elements:
            k = sum(1 for t in trip if ppip.consistent(x, t))
            if k == 2:
                return {"axiom": "consistent-with-line", "triple": trip, "element": x}
    return None


# -- induced structure ---------------------------------------------------

def induced_ppip(L: Semilattice) -> Ppip:
    """The point-line structure induced on the join-irreducibles of ``L``."""
    irr = L.join_irreducibles()
    poset = L.subposet(irr)
    return Ppip(poset, L.induced_inconsistency(), L.induced_collinearity())


# -- consistent subspaces ------------------------------------------------

def is_consistent_subspace(ppip: Ppip, xs: Iterable[Element]) -> bool:
    s = frozenset(xs)
    if not ppip.poset.is_ideal(s):
        return False
    for x, y in combinations(s, 2):
        if not ppip.consistent(x, y):
            return False
    for trip in ppip.collinear:
        inside = [x for x in trip if x in s]
        if len(inside) == 2:
            return False
    return True


def subspace_closure(ppip: Ppip, xs: Iterable[Element]) -> frozenset:
    """Smallest subspace containing ``xs``: alternate downward closure with
    completion of collinear pairs until a fixpoint."""
    current = {x for x in xs}
    for x in current:
        ppip.poset.index(x)
    for x, y in combinations(current, 2):
        if not ppip.consistent(x, y):
            raise InputError(f"inconsistent input: {x!r} and {y!r} admit no common subspace")
    while True:
        size = len(current)
        for x in list(current):
            current.update(ppip.poset.principal_ideal(x))
        for trip in ppip.collinear:
            inside = [x for x in trip if x in current]
            if len(inside) == 2:
                current.update(trip)
        if len(current) == size:
            return frozenset(current)


def join_subspaces(ppip: Ppip, S: Iterable[Element], T: Iterable[Element]) -> frozenset | None:
    """Join of two consistent subspaces: their union plus completions of
    cross-collinear pairs; ``None`` when the union is inconsistent."""
    S, T = frozenset(S), frozenset(T)
    for name, val in (("first", S), ("second", T)):
        if not is_consistent_subspace(ppip, val):
            raise InputError(f"{name} argument is not a consistent subspace")
    for s in S:
        for t in T:
            if not ppip.consistent(s, t):
                return None
    out = set(S | T)
    for trip in ppip.collinear:
        for r in trip:
            u, v = (x for x in trip if x != r)
            if (u in S and v in T) or (u in T and v in S):
                out.add(r)
    return frozenset(out)


def consistent_subspaces(ppip: Ppip) -> Semilattice:
    """Enumerate every consistent subspace and return them as a semilattice
    ordered by inclusion.  Element ids are canonically sorted tuples.

    Requires the axioms to hold; grows subspaces one minimal available
    element at a time, closing after each step, so no power-set scan occurs.
    """
    ok, witness = check_axioms(ppip)
    if not ok:
        raise AxiomError(f"axiom failure: {witness['axiom']}", witness=witness)
    P = ppip.poset
    empty = frozenset()
    seen = {empty}
    queue = [empty]
    while queue:
        s = queue.pop()
        for p in P.elements:
            if p in s:
                continue
            if any(x not in s for x in P.principal_ideal(p) if x != p):
                continue  # not minimal over s
            if any(not ppip.consistent(p, x) for x in s):
                continue
            grown = subspace_closure(ppip, s | {p})
            if grown not in seen:
                assert is_consistent_subspace(ppip, grown)
                seen.add(grown)
                queue.append(grown)
    ids = sorted((tuple(P.sort_canonical(s)) for s in seen),
                 key=lambda t: (len(t), tuple(P.index(x) for x in t)))
    return Semilattice(ids, inclusion_matrix(ids))


# -- round trip ----------------------------------------------------------

def birkhoff_roundtrip(L: Semilattice) -> dict:
    """Certify both directions of the representation on ``L``.

    Direction one: the consistent subspaces of the induced structure are
    isomorphic to ``L`` via ``phi(l) = irreducibles below l`` and
    ``psi(S) = join of S``.  Direction two: the structure induced by the
    subspace semilattice is isomorphic to the original structure via
    ``p -> principal ideal of p``.  Returns a report with both maps.
    """
    ppip = induced_ppip(L)
    cs = consistent_subspaces(ppip)
    irr = L.join_irreducibles()

    def fail(reason: str, witness) -> dict:
        return {"ok": False, "reason": reason, "witness": witness}

    phi = {}
    for l in L.elements:
        phi[l] = tuple(p for p in irr if L.leq(p, l))
    images = set(phi.values())
    if len(images) != len(L.elements):
        dup = [l for l in L.elements if sum(1 for m in L.elements if phi[m] == phi[l]) > 1]
        return fail("phi is not injective", dup[:2])
    if images != set(cs.elements):
        return fail("phi image differs from the subspace family",
                    sorted(map(str, images.symmetric_difference(cs.elements)))[:3])
    mismatch = np.argwhere(L.leq_matrix != inclusion_matrix([phi[l] for l in L.elements]))
    if len(mismatch):
        x, y = mismatch[0]
        return fail("phi does not preserve order", (L.elements[x], L.elements[y]))
    psi = {}
    for sid in cs.elements:
        val = L.join_all(sid)
        if val is None:
            return fail("psi undefined on a subspace", sid)
        psi[sid] = val
    for l in L.elements:
        if psi[phi[l]] != l:
            return fail("psi(phi(l)) differs from l", l)
    for sid in cs.elements:
        if phi[psi[sid]] != sid:
            return fail("phi(psi(S)) differs from S", sid)

    ppip2 = induced_ppip(cs)
    ideal_of = {p: tuple(x for x in irr if L.leq(x, p)) for p in irr}
    if set(ideal_of.values()) != set(ppip2.poset.elements):
        return fail("irreducible subspaces are not the principal ideals",
                    sorted(map(str, set(ideal_of.values()).symmetric_difference(ppip2.poset.elements)))[:3])
    for p in irr:
        for q in irr:
            if ppip.poset.leq(p, q) != ppip2.poset.leq(ideal_of[p], ideal_of[q]):
                return fail("induced order differs", (p, q))
    enc_inc = {frozenset((ideal_of[p], ideal_of[q])) for p, q in
               (tuple(pair) for pair in ppip.inconsistent)}
    if enc_inc != set(ppip2.inconsistent):
        return fail("induced inconsistency differs",
                    sorted(map(str, enc_inc.symmetric_difference(ppip2.inconsistent)))[:3])
    enc_col = {frozenset(ideal_of[x] for x in trip) for trip in ppip.collinear}
    if enc_col != set(ppip2.collinear):
        return fail("induced collinearity differs",
                    sorted(map(str, enc_col.symmetric_difference(ppip2.collinear)))[:3])
    return {"ok": True, "phi": phi, "psi": psi, "points": ideal_of}
