"""Posets carrying inconsistency and collinearity relations.

A ``Ppip`` is a finite poset together with a symmetric binary inconsistency
relation (pairs that admit no join anywhere above them) and a symmetric
ternary collinearity relation (triples acting like three points on a line).
``check_axioms`` verifies the eight defining conditions in a fixed order and
reports the first violation; ``consistent_subspaces`` rebuilds the semilattice
the structure encodes, and ``birkhoff_roundtrip`` certifies that encoding and
decoding are mutually inverse on a given modular semilattice.

A ``Ppip`` keeps its relations as the frozensets it was given and, built
once at construction from the poset's ``leq_matrix``, an index form in
which points are positions in ``poset.elements`` and sets of points are
integer bitmasks: the principal ideal and filter of each point, the points
inconsistent with it, and per pair of points the third points completing
it to a collinear triple, with the pairs and triples as sorted index
tuples.  The axiom checks and the subspace operations read only that form.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from .errors import AxiomError, InputError
from .poset import Element, Poset
from .semilattice import Semilattice, inclusion_matrix


class Ppip:
    """Poset plus inconsistent pairs and collinear triples.

    ``inconsistent`` holds 2-element frozensets, ``collinear`` 3-element
    frozensets; all members must be poset elements.  Construction checks only
    well-formedness; the axioms are a separate, explicit check, whose verdict
    is kept on the structure since it cannot change.
    """

    def __init__(self, poset: Poset, inconsistent: Iterable[frozenset] = (),
                 collinear: Iterable[frozenset] = ()):
        self.poset = poset
        self._pairs = sorted({_indexed(poset, pair, 2, "inconsistent pair must have two")
                              for pair in inconsistent})
        self._triples = sorted({_indexed(poset, trip, 3, "collinear triple must have three")
                                for trip in collinear})
        self.inconsistent: frozenset = frozenset(frozenset(self._names(p)) for p in self._pairs)
        self.collinear: frozenset = frozenset(frozenset(self._names(t)) for t in self._triples)
        self._up = _masks(poset.leq_matrix)         # _up[i]: points >= i
        self._down = _masks(poset.leq_matrix.T)     # _down[i]: points <= i
        self._inc = [0] * len(poset)                # _inc[i]: points inconsistent with i
        for i, j in self._pairs:
            self._inc[i] |= 1 << j
            self._inc[j] |= 1 << i
        self._third: list[dict[int, int]] = [{} for _ in poset.elements]  # [i][j]: points on a line with i, j
        for t in self._triples:
            for x, y, z in permutations(t):
                self._third[x][y] = self._third[x].get(y, 0) | 1 << z
        self._axiom_cache: tuple[bool, dict | None] | None = None

    # canonical, deterministic listings
    def inconsistent_pairs(self) -> list[tuple[Element, Element]]:
        return [self._names(p) for p in self._pairs]

    def collinear_triples(self) -> list[tuple[Element, Element, Element]]:
        return [self._names(t) for t in self._triples]

    def consistent(self, x: Element, y: Element) -> bool:
        return x == y or not self._inc[self.poset.index(x)] >> self.poset.index(y) & 1

    def minimal_inconsistent_pairs(self) -> list[tuple[Element, Element]]:
        """Inconsistent pairs with no inconsistent pair strictly below them."""
        down, inc = self._down, self._inc
        # the pair itself is the one inconsistent pair (a, b) <= (i, j) of a minimal one
        return [self._names((i, j)) for i, j in self._pairs
                if sum((inc[a] & down[j]).bit_count() for a in _bits(down[i])) == 1]

    # -- index form: points as bit positions, sets of points as bitmasks --

    def _names(self, points) -> tuple:
        return tuple(self.poset.elements[i] for i in points)

    def _mask(self, xs: Iterable[Element]) -> int:
        return _bitmask(map(self.poset.index, xs))

    def _close(self, mask: int) -> int:
        """Smallest subspace containing ``mask``: each point taken up brings
        its principal ideal and the third points of its lines with the points
        taken up before it, so every pair of points is completed once."""
        done, todo = 0, mask
        while todo:
            i = _low(todo)
            grown = self._down[i]
            for j, thirds in self._third[i].items():
                if done >> j & 1:
                    grown |= thirds
            done |= 1 << i
            todo = (todo | grown) & ~done
        return done

    def _is_consistent_subspace(self, mask: int) -> bool:
        return self._close(mask) == mask and not any(self._inc[i] & mask for i in _bits(mask))

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
        try:
            inconsistent = [frozenset(p) for p in data.get("inconsistent", [])]
            collinear = [frozenset(t) for t in data.get("collinear", [])]
        except TypeError:
            raise InputError("'inconsistent' and 'collinear' must be lists of element lists") from None
        return cls(poset, inconsistent, collinear)

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
    consistency-collinearity axioms.  The verdict is computed once per
    structure.
    """
    if ppip._axiom_cache is None:
        witnesses = (checker(ppip) for checker in (_check_ic1, _check_ic2, _check_ct1, _check_ct2,
                                                   check_regularity, check_weak_triangle, _check_cc1, _check_cc2))
        witness = next((w for w in witnesses if w is not None), None)
        ppip._axiom_cache = (witness is None, witness)
    return ppip._axiom_cache


def _check_ic1(ppip: Ppip) -> dict | None:
    up = ppip._up
    for i, j in ppip._pairs:
        common = up[i] & up[j]
        if common:
            return {"axiom": "inconsistency-unbounded", "pair": ppip._names((i, j)),
                    "upper_bound": ppip.poset.elements[_low(common)]}
    return None


def _check_ic2(ppip: Ppip) -> dict | None:
    up, inc = ppip._up, ppip._inc
    for i, j in ppip._pairs:
        for i2 in _bits(up[i]):
            consistent = up[j] & ~inc[i2]
            if consistent:
                return {"axiom": "inconsistency-upward", "pair": ppip._names((i, j)),
                        "violating_pair": ppip._names((i2, _low(consistent)))}
    return None


def _check_ct1(ppip: Ppip) -> dict | None:
    comparable = [up | down for up, down in zip(ppip._up, ppip._down)]
    return _pair_on_a_line(ppip, comparable, "collinear-incomparable", "comparable_pair")


def _check_ct2(ppip: Ppip) -> dict | None:
    up = ppip._up
    for t in ppip._triples:
        for r in t:
            p, q = (x for x in t if x != r)
            undominating = up[p] & up[q] & ~up[r]
            if undominating:
                return {"axiom": "collinear-dominated", "triple": ppip._names(t), "pair": ppip._names((p, q)),
                        "upper_bound": ppip.poset.elements[_low(undominating)],
                        "undominated": ppip.poset.elements[r]}
    return None


def check_regularity(ppip: Ppip) -> dict | None:
    """Lowering one point of a line below the other two's ideals must stay on
    a line with points below those two."""
    down, third = ppip._down, ppip._third
    for t in ppip._triples:
        for r in t:
            p, q = (x for x in t if x != r)
            for r2 in _bits(down[r] & ~down[p] & ~down[q]):
                if not any(third[r2].get(u, 0) & down[q] for u in _bits(down[p])):
                    return {"axiom": "regularity", "triple": ppip._names(t),
                            "lowered": ppip.poset.elements[r2]}
    return None


def check_weak_triangle(ppip: Ppip) -> dict | None:
    """Two collinear triples sharing an element must satisfy one of the five
    triangle alternatives, whenever the five endpoints are pairwise consistent."""
    trips, inc = ppip._triples, ppip._inc
    on_line = [0] * len(ppip.poset)                 # on_line[x]: positions of the triples through x
    for n, t in enumerate(trips):
        for x in t:
            on_line[x] |= 1 << n
    for t1 in trips:
        for t2 in (trips[n] for n in _bits(on_line[t1[0]] | on_line[t1[1]] | on_line[t1[2]])):
            five = _bitmask(t1 + t2)
            if any(inc[x] & five for x in _bits(five)):
                continue
            for c in (x for x in t1 if x in t2):
                rest1 = [x for x in t1 if x != c]
                rest2 = [x for x in t2 if x != c]
                for a, p in (rest1, rest1[::-1]):
                    for b, q in (rest2, rest2[::-1]):
                        if not _triangle_alternatives(ppip, a, c, p, b, q):
                            return {"axiom": "weak-triangle", "premise": ppip._names((a, c, p, b, q))}
    return None


def _triangle_alternatives(ppip: Ppip, a, c, p, b, q) -> bool:
    up, down, third = ppip._up, ppip._down, ppip._third
    on_bq = third[b].get(q, 0)
    # (5) q below a or p; (3) b, q, p collinear; (2) some a' <= a with b, q, a' collinear
    if (down[a] | down[p]) >> q & 1 or on_bq >> p & 1 or on_bq & down[a]:
        return True
    # (4) some a' <= a and p' <= p with q, a', p' collinear
    if any(third[q].get(a2, 0) & down[p] for a2 in _bits(down[a])):
        return True
    # (1) a completing sixth point
    for x in _bits(third[a].get(b, 0) & third[p].get(q, 0)):
        six = _bitmask((a, b, c, p, q, x))
        if any((up[u] | down[u]) & six & ~(1 << u) for u in _bits(six)):
            continue
        # the six may carry no lines but these four, each counted once per pair on it
        allowed = {frozenset(t) for t in ((a, c, p), (b, c, q), (a, b, x), (p, q, x))}
        if sum((third[u].get(v, 0) & six).bit_count() for u, v in combinations(_bits(six), 2)) == 3 * len(allowed):
            return True
    return False


def _check_cc1(ppip: Ppip) -> dict | None:
    return _pair_on_a_line(ppip, ppip._inc, "collinear-consistent", "inconsistent_pair")


def _pair_on_a_line(ppip: Ppip, related: list[int], axiom: str, key: str) -> dict | None:
    """The first pair of points on a collinear triple that ``related`` relates."""
    for t in ppip._triples:
        for x, y in combinations(t, 2):
            if related[x] >> y & 1:
                return {"axiom": axiom, "triple": ppip._names(t), key: ppip._names((x, y))}
    return None


def _check_cc2(ppip: Ppip) -> dict | None:
    every = (1 << len(ppip.poset)) - 1
    for t in ppip._triples:
        a, b, c = (every & ~ppip._inc[x] for x in t)   # points consistent with each point of t
        two = (a & b & ~c) | (a & ~b & c) | (~a & b & c)
        if two:
            return {"axiom": "consistent-with-line", "triple": ppip._names(t),
                    "element": ppip.poset.elements[_low(two)]}
    return None


# -- induced structure ---------------------------------------------------

def induced_ppip(L: Semilattice) -> Ppip:
    """The point-line structure induced on the join-irreducibles of ``L``."""
    irr = L.join_irreducibles()
    poset = L.subposet(irr)
    return Ppip(poset, L.induced_inconsistency(), L.induced_collinearity())


# -- consistent subspaces ------------------------------------------------

def is_consistent_subspace(ppip: Ppip, xs: Iterable[Element]) -> bool:
    return ppip._is_consistent_subspace(ppip._mask(xs))


def subspace_closure(ppip: Ppip, xs: Iterable[Element]) -> frozenset:
    """Smallest subspace containing ``xs``: closed downward and under
    completion of collinear pairs."""
    mask = ppip._mask(xs)
    for i in _bits(mask):
        if ppip._inc[i] & mask:
            x, y = ppip._names((i, _low(ppip._inc[i] & mask)))
            raise InputError(f"inconsistent input: {x!r} and {y!r} admit no common subspace")
    return frozenset(ppip._names(_bits(ppip._close(mask))))


def join_subspaces(ppip: Ppip, S: Iterable[Element], T: Iterable[Element]) -> frozenset | None:
    """Join of two consistent subspaces: their union plus completions of
    cross-collinear pairs; ``None`` when the union is inconsistent."""
    S, T = ppip._mask(S), ppip._mask(T)
    for name, val in (("first", S), ("second", T)):
        if not ppip._is_consistent_subspace(val):
            raise InputError(f"{name} argument is not a consistent subspace")
    if any(ppip._inc[i] & T for i in _bits(S)):
        return None
    out = S | T
    for i in _bits(S):
        for j, thirds in ppip._third[i].items():
            if T >> j & 1:
                out |= thirds
    return frozenset(ppip._names(_bits(out)))


def consistent_subspaces(ppip: Ppip) -> Semilattice:
    """Enumerate every consistent subspace and return them as a semilattice
    ordered by inclusion.  Element ids are canonically sorted tuples.

    Requires the axioms to hold; grows subspaces one minimal available
    element at a time, closing after each step, so no power-set scan occurs.
    """
    ok, witness = check_axioms(ppip)
    if not ok:
        raise AxiomError(f"axiom failure: {witness['axiom']}", witness=witness)
    seen = {0}
    queue = [0]
    while queue:
        s = queue.pop()
        for p in range(len(ppip.poset)):
            bit = 1 << p
            if s & bit or ppip._down[p] & ~bit & ~s or ppip._inc[p] & s:
                continue  # in s, not minimal over s, or inconsistent with s
            grown = ppip._close(s | bit)
            if grown not in seen:
                assert ppip._is_consistent_subspace(grown)
                seen.add(grown)
                queue.append(grown)
    ids = [ppip._names(_bits(s)) for s in sorted(seen, key=lambda s: (s.bit_count(), list(_bits(s))))]
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
    irr = ppip.poset.elements

    def fail(reason: str, witness) -> dict:
        return {"ok": False, "reason": reason, "witness": witness}

    below = L.leq_matrix[[L.index(p) for p in irr]]     # below[k, l]: irr[k] <= element l
    phi = {l: ppip._names(np.flatnonzero(below[:, n])) for n, l in enumerate(L.elements)}
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
    ideal_of = {p: phi[p] for p in irr}
    if set(ideal_of.values()) != set(ppip2.poset.elements):
        return fail("irreducible subspaces are not the principal ideals",
                    sorted(map(str, set(ideal_of.values()).symmetric_difference(ppip2.poset.elements)))[:3])
    image = [ppip2.poset.index(ideal_of[p]) for p in irr]
    mismatch = np.argwhere(ppip.poset.leq_matrix != ppip2.poset.leq_matrix[np.ix_(image, image)])
    if len(mismatch):
        x, y = mismatch[0]
        return fail("induced order differs", (irr[x], irr[y]))
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


# -- index form ----------------------------------------------------------

def _indexed(poset: Poset, members, size: int, rule: str) -> tuple:
    """Positions of a pair's or triple's points, ascending."""
    members = frozenset(members)
    if len(members) != size:
        raise InputError(f"{rule} distinct elements: {sorted(map(str, members))}")
    return tuple(sorted(map(poset.index, members)))


def _masks(matrix: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as an integer whose bit j is entry (i, j)."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(matrix, axis=1, bitorder="little")]


def _bitmask(points: Iterable[int]) -> int:
    mask = 0
    for i in points:
        mask |= 1 << i
    return mask


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
