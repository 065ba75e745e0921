"""Implicational systems: closures, families, recognition, and optimal bases.

An implicational system over a finite ground set describes a family of
closed sets (an intersection-closed family).  Improper implications, whose
conclusion is empty, forbid their premise outright, so closures can fail to
exist.  This module computes closures by forward chaining, decides in
polynomial time whether the closed family is a modular semilattice without
ever enumerating it, enumerates pseudoclosed sets, and produces size-optimal
implicational bases for modular families.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import BudgetError, InputError, NotModularError
from .poset import Poset
from .ppip import Ppip, _bitmask, _bits, check_regularity, check_weak_triangle, induced_ppip
from .semilattice import Semilattice, inclusion_matrix, induced_relations

# Incremented whenever the closed family of a system is materialized.
# Operations advertised as closure-driven (closure, recognition) must leave
# this counter untouched; tests pin that behaviour.
FAMILY_ENUMERATIONS = 0

DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class ClosureResult:
    """Closure of a set: its value, or ``None`` when no closed superset exists."""

    value: frozenset | None

    @property
    def exists(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:
        if self.value is None:
            return "ClosureResult(nonexistent)"
        return f"ClosureResult({sorted(map(str, self.value))})"


def _mask_order(m: int) -> tuple:
    """Canonical order of element sets: by size, then by element positions."""
    return m.bit_count(), tuple(_bits(m))


def _ground_key(e):
    s = str(e)
    return (0, int(s)) if s.isdigit() else (1, s)


class ImplicationalSystem:
    """Finite ground set plus implications ``premise -> conclusion``.

    An empty conclusion marks an improper implication: no closed set may
    contain the premise.  Implications are deduplicated and kept in a
    canonical order, so equal systems compare equal.
    """

    def __init__(self, ground: Iterable, implications: Iterable = ()):
        ground = list(ground)
        if len(set(ground)) != len(ground):
            raise InputError("duplicate ground elements")
        self.ground: tuple = tuple(ground)
        self._index = {e: i for i, e in enumerate(self.ground)}
        seen = set()
        canon = []
        for prem, concl in implications:
            a = frozenset(prem)
            b = frozenset(concl)
            for x in a | b:
                if x not in self._index:
                    raise InputError(f"implication mentions unknown element {x!r}")
            if (a, b) not in seen:
                seen.add((a, b))
                canon.append((a, b))
        canon.sort(key=lambda ab: (sorted(self._index[x] for x in ab[0]),
                                   sorted(self._index[x] for x in ab[1])))
        self.implications: tuple = tuple(canon)
        self._build_masks()

    def _build_masks(self) -> None:
        """Bitmask form, built once: ``_reduced`` pairs each implication's
        premise mask with its conclusion mask, the bottom bit ``1 << n``
        standing for an improper conclusion; ``_counts`` holds the premise
        sizes the counters start from, ``_axioms`` the conclusions of empty
        premises, and ``_watchers[i]`` the implications whose premise holds
        element ``i`` (the bottom bit, at ``n``, is in none)."""
        n = len(self.ground)
        self._bot = 1 << n
        self._reduced = [(self._mask(a), self._mask(b) if b else self._bot) for a, b in self.implications]
        self._counts = [a.bit_count() for a, _ in self._reduced]
        self._axioms = 0
        self._watchers: list[list[int]] = [[] for _ in range(n + 1)]
        for k, (amask, bmask) in enumerate(self._reduced):
            if not amask:
                self._axioms |= bmask
            for i in _bits(amask):
                self._watchers[i].append(k)

    def _mask(self, xs: Iterable) -> int:
        m = 0
        for x in xs:
            i = self._index.get(x)
            if i is None:
                raise InputError(f"unknown ground element {x!r}")
            m |= 1 << i
        return m

    def _unmask(self, m: int) -> frozenset:
        return frozenset(self._tuple(m))

    def _tuple(self, m: int) -> tuple:
        return tuple(self.ground[i] for i in _bits(m))

    def size(self) -> int:
        """Total size: sum of premise and conclusion cardinalities."""
        return sum(len(a) + len(b) for a, b in self.implications)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImplicationalSystem):
            return NotImplemented
        return self.ground == other.ground and self.implications == other.implications

    def __repr__(self) -> str:
        return (f"ImplicationalSystem({len(self.ground)} elements, "
                f"{len(self.implications)} implications, size {self.size()})")

    # -- closure ---------------------------------------------------------

    def _close_mask(self, x: int) -> int | None:
        """Forward chaining with premise counters (LinClosure); ``None`` when
        an improper implication fires, i.e. no closed superset exists.  Each
        element enters the frontier once, as only new elements are added."""
        counts = self._counts.copy()
        reduced, watchers = self._reduced, self._watchers
        result = frontier = x | self._axioms
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            for k in watchers[low.bit_length() - 1]:
                counts[k] -= 1
                if not counts[k]:
                    new = reduced[k][1] & ~result
                    result |= new
                    frontier |= new
        return None if result & self._bot else result

    def closure(self, xs: Iterable) -> ClosureResult:
        m = self._close_mask(self._mask(xs))
        return ClosureResult(None if m is None else self._unmask(m))

    # -- the closed family ----------------------------------------------

    def closed_sets(self, budget: int = DEFAULT_BUDGET) -> list[frozenset]:
        """All closed sets, found by closing single-element extensions from
        the bottom; never scans the power set.  ``budget`` caps the number of
        closure computations."""
        global FAMILY_ENUMERATIONS
        FAMILY_ENUMERATIONS += 1
        spent = 1
        bottom = self._close_mask(0)
        if bottom is None:
            return []
        full = self._bot - 1
        seen = {bottom}
        queue = [bottom]
        while queue:
            cur = queue.pop()
            for i in _bits(full & ~cur):
                spent += 1
                if spent > budget:
                    raise BudgetError(f"family enumeration exceeded budget of {budget} closures")
                grown = self._close_mask(cur | (1 << i))
                if grown is not None and grown not in seen:
                    seen.add(grown)
                    queue.append(grown)
        return [self._unmask(m) for m in sorted(seen, key=_mask_order)]

    def family(self, budget: int = DEFAULT_BUDGET) -> Semilattice:
        """The closed sets ordered by inclusion, as a semilattice whose
        element ids are canonically sorted tuples."""
        sets = self.closed_sets(budget)
        if not sets:
            raise InputError("the system has no closed sets: the empty set derives a forbidden premise")
        return _family_semilattice(self, sets)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ground": list(self.ground),
            "implications": [
                {"premise": sorted(a, key=_ground_key), "conclusion": sorted(b, key=_ground_key)}
                for a, b in self.implications
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ImplicationalSystem":
        if not isinstance(data, dict) or "ground" not in data or "implications" not in data:
            raise InputError("implication JSON needs 'ground' and 'implications' keys")
        implications = data["implications"]
        if not isinstance(implications, list) or not all(isinstance(imp, dict) for imp in implications):
            raise InputError("'implications' must be a list of objects")

        def names(key: str, xs):
            if not isinstance(xs, list) or any(isinstance(x, (list, dict)) for x in xs):
                raise InputError(f"'{key}' must be a list of element names, got {xs!r}")
            return xs

        imps = [(names("premise", imp.get("premise", [])), names("conclusion", imp.get("conclusion", [])))
                for imp in implications]
        return cls(names("ground", data["ground"]), imps)

    def to_text(self) -> str:
        lines = []
        for a, b in self.implications:
            lhs = " ".join(str(x) for x in sorted(a, key=_ground_key))
            rhs = " ".join(str(x) for x in sorted(b, key=_ground_key)) if b else "_|_"
            lines.append(f"{lhs} -> {rhs}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ImplicationalSystem":
        """Parse the line format ``a b -> c d``; ``_|_`` (or nothing) on the
        right marks an improper implication.  The ground set is the set of
        mentioned elements."""
        imps = []
        mentioned = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.count("->") != 1:
                raise InputError(f"line {lineno}: expected 'premise -> conclusion', got {raw!r}")
            lhs, rhs = line.split("->", 1)
            prem = lhs.split()
            concl = [] if rhs.strip() in ("_|_", "") else rhs.split()
            mentioned.update(prem)
            mentioned.update(concl)
            imps.append((prem, concl))
        ground = sorted(mentioned, key=_ground_key)
        return cls(ground, imps)


def _family_semilattice(sigma: ImplicationalSystem, sets: list[frozenset]) -> Semilattice:
    ids = [tuple(sorted(s, key=lambda x: sigma._index[x])) for s in sets]
    return Semilattice(ids, inclusion_matrix(sets))


# -- irreducible structure ------------------------------------------------

def _prune(sigma: ImplicationalSystem) -> tuple[ImplicationalSystem, list]:
    """Remove elements whose singleton closure does not exist.

    Implications mentioning a removed element in the premise can never fire
    inside a closed set and are dropped; implications concluding a removed
    element forbid their premise, so they become improper.  The closed family
    is unchanged, hence a single pass suffices.
    """
    removed = [e for e in sigma.ground if not sigma.closure([e]).exists]
    if not removed:
        return sigma, []
    gone = set(removed)
    kept = [e for e in sigma.ground if e not in gone]
    imps = []
    for a, b in sigma.implications:
        if a & gone:
            continue
        if b & gone:
            imps.append((a, frozenset()))
        else:
            imps.append((a, b))
    return ImplicationalSystem(kept, imps), removed


def irreducible_ppip(sigma: ImplicationalSystem) -> Ppip:
    """The poset of irreducible closed sets with the induced inconsistency
    and collinearity relations, computed through closure calls only.

    Elements whose singleton closure does not exist contribute nothing and
    are skipped.  Ids are canonically sorted tuples, matching the ids of
    ``family(sigma)``, so the result compares equal to the induced structure
    of the enumerated family.
    """
    singles = [sigma._close_mask(1 << i) for i in range(len(sigma.ground))]
    irr = []
    for f0 in sorted(set(singles) - {None}, key=_mask_order):
        union = 0
        for i in _bits(f0):
            if singles[i] != f0:
                union |= singles[i]
        if sigma._close_mask(union) != f0:
            irr.append(f0)
    ids = [sigma._tuple(m) for m in irr]
    leq = [[ms & ~mt == 0 for mt in irr] for ms in irr]
    poset = Poset(ids, np.array(leq, dtype=bool).reshape(len(ids), len(ids)))

    # closure masks interned to integer keys; -1 marks a nonexistent join
    keys: dict[int, int] = {}
    join = [[-1] * len(ids) for _ in ids]
    for a, b in combinations(range(len(ids)), 2):
        m = sigma._close_mask(irr[a] | irr[b])
        if m is not None:
            join[a][b] = join[b][a] = keys.setdefault(m, len(keys))
    inconsistent, collinear = induced_relations(poset.leq_matrix, join)
    return Ppip(poset, [frozenset(ids[i] for i in pair) for pair in inconsistent],
                [frozenset(ids[i] for i in trip) for trip in collinear])


# -- recognition ----------------------------------------------------------

def recognize_modular_semilattice(sigma: ImplicationalSystem) -> tuple[bool, dict | None]:
    """Decide whether the closed family is a modular semilattice, without
    enumerating it.

    After pruning, the inconsistent pairs are collected and three conditions
    certify that pairwise-existing joins force triple joins; then the
    irreducible structure must satisfy regularity, the weak triangle
    condition, and implication generation: each proper implication's
    conclusion points must lie in the subspace its premise points generate.
    Returns ``(True, None)`` or ``(False, witness)``.
    """
    pruned, _ = _prune(sigma)
    n = len(pruned.ground)
    # inc[i]: the elements whose pair with element i has no closure
    inc = [0] * n
    for i, j in combinations(range(n), 2):
        if pruned._close_mask(1 << i | 1 << j) is None:
            inc[i] |= 1 << j
            inc[j] |= 1 << i
    # has_inc looks only at elements with such a partner, which also drops
    # the bottom bit of an improper conclusion
    incident = _bitmask(i for i in range(n) if inc[i])

    def has_inc(m: int) -> bool:
        m &= incident
        return m != 0 and any(inc[i] & m for i in _bits(m))

    def names(m: int) -> tuple:
        return tuple(sorted(pruned._tuple(m), key=_ground_key))

    imps = pruned._reduced
    for a, b in imps:
        if b == pruned._bot and not has_inc(a):
            return False, {"condition": "improper-premise-consistent", "premise": names(a)}
    for i, (a, b) in enumerate(imps):
        for a2, b2 in imps[i:]:
            if has_inc(a | a2 | b | b2) and not has_inc(a | a2):
                return False, {"condition": "implication-pair", "premises": (names(a), names(a2))}
    for a, b in imps:
        for e in range(n):
            if has_inc(a | b | 1 << e) and not has_inc(a | 1 << e):
                return False, {"condition": "implication-element", "premise": names(a),
                               "element": pruned.ground[e]}

    ppip = irreducible_ppip(pruned)
    for check in (check_regularity, check_weak_triangle):
        witness = check(ppip)
        if witness is not None:
            witness = dict(witness)
            witness["condition"] = witness.pop("axiom")
            return False, witness

    witness = _check_implication_generation(pruned, ppip)
    if witness is not None:
        return False, witness
    return True, None


def _check_implication_generation(sigma: ImplicationalSystem, ppip: Ppip) -> dict | None:
    """For every proper implication with consistent premise, each conclusion
    element's irreducibles must lie in the subspace generated by the premise
    elements' irreducibles.

    This closes the gap between the axioms and the family: together with the
    join conditions it makes the closure of any consistent set coincide with
    the subspace its points generate, which forces the subspace family to be
    exactly the closed family.  Dropping it admits non-modular families whose
    irreducible structure carries no collinear triples at all.
    """
    irr = [sigma._mask(t) for t in ppip.poset.elements]
    # points[e]: the points below element e's closure, as a point mask
    points = []
    for e in range(len(sigma.ground)):
        single = sigma._close_mask(1 << e)
        points.append(_bitmask(k for k, m in enumerate(irr) if m & ~single == 0))
    for (a, b), (amask, _) in zip(sigma.implications, sigma._reduced):
        if not b or sigma._close_mask(amask) is None:
            continue
        seed = 0
        for i in _bits(amask):
            seed |= points[i]
        generated = ppip._close(seed)
        for e in sorted(b - a, key=_ground_key):
            if points[sigma._index[e]] & ~generated:
                return {"condition": "implication-generation",
                        "premise": tuple(sorted(a, key=_ground_key)),
                        "element": e}
    return None


# -- quasiclosed and pseudoclosed sets ------------------------------------

def _grow(close, x: int) -> int:
    """One quasiclosure step on bitmasks: ``x`` together with the closures
    of its subsets that lie in another closure class than ``x``.  ``close``
    maps a mask to its closure mask, or to ``None`` when there is none."""
    cx = close(x)
    grown = x
    y = x
    while True:
        cy = close(y)
        if cy != cx and cy is not None:
            grown |= cy
        if y == 0:
            return grown
        y = (y - 1) & x


def _quasiclose(close, x: int) -> int:
    """Smallest quasiclosed superset of the mask ``x``."""
    if x.bit_count() > 20:
        raise BudgetError("quasiclosure input larger than 20 elements")
    while (grown := _grow(close, x)) != x:
        x = grown
    return x


def pseudoclosed_sets(sigma: ImplicationalSystem, budget: int = DEFAULT_BUDGET) -> list[frozenset]:
    """All pseudoclosed sets: minimal properly-quasiclosed sets within each
    closure-equivalence class (sets without closure share one class).

    Runs the definitional test over all subset pairs, so the work is 3^|E|,
    charged against ``budget``.  When the family is modular and the system is
    simple, the sets are also read off the optimal base as the quasiclosures
    of its premises, pulled back to the ground set: every base of the family
    has, for each pseudoclosed set, a premise that quasicloses to it, and the
    optimal base has no premise that quasicloses to anything else.  The two
    routes are required to agree.
    """
    n = len(sigma.ground)
    if 3 ** n > budget:
        raise BudgetError(f"pseudoclosed enumeration needs 3^{n} subset tests, over budget {budget}")
    memo = [sigma._close_mask(x) for x in range(1 << n)]
    # a subset without closure forces x to have none either, so growing
    # by the closures that exist decides quasiclosedness
    proper = [x for x in range(1 << n) if memo[x] != x and _grow(memo.__getitem__, x) == x]
    by_class: dict = {}
    for x in proper:
        by_class.setdefault(memo[x], []).append(x)
    minimal = []
    for members in by_class.values():
        for x in members:
            if not any(y != x and y & ~x == 0 for y in members):
                minimal.append(x)
    result = sorted(minimal, key=lambda m: (m.bit_count(), m))
    out = [sigma._unmask(m) for m in result]

    _crosscheck_structural(sigma, memo, set(result))
    return out


def _crosscheck_structural(sigma: ImplicationalSystem, memo: list, brute_masks: set) -> None:
    closed = [x for x in range(len(memo)) if memo[x] == x]
    if not closed:
        return
    global FAMILY_ENUMERATIONS
    FAMILY_ENUMERATIONS += 1
    L = _family_semilattice(sigma, [sigma._unmask(m) for m in closed])
    ok, _ = L.is_modular_semilattice()
    if not ok:
        return
    mapping, _ = _simple_bijection(sigma, L)
    if mapping is None:
        return
    inverse = {t: e for e, t in mapping.items()}
    # _build_optimal_base, not optimal_base: only the premises are read, and
    # the regeneration check fails on lines of four or more points
    structural = {_quasiclose(memo.__getitem__, sigma._mask(inverse[t] for t in a))
                  for a, _ in _build_optimal_base(L).implications}
    if structural != brute_masks:
        extra = [sorted(map(str, sigma._unmask(m))) for m in sorted(structural ^ brute_masks)]
        raise AssertionError(f"pseudoclosed routes disagree on {extra}")


def quasiclosure(sigma: ImplicationalSystem, xs: Iterable) -> frozenset:
    """Smallest quasiclosed superset, by growing with closures of subsets
    that lie in a strictly smaller closure class."""
    return sigma._unmask(_quasiclose(sigma._close_mask, sigma._mask(xs)))


# -- optimal bases --------------------------------------------------------

def _phi_map(L: Semilattice) -> tuple[list, dict]:
    irr = L.join_irreducibles()
    phi = {x: frozenset(p for p in irr if L.leq(p, x)) for x in L.elements}
    return irr, phi


def _mn_intervals(L: Semilattice) -> list[tuple]:
    """Height-2 intervals [y, x] whose strict interior has at least three
    elements, each covering y and covered by x, with pairwise meets y and
    pairwise joins x (which makes the interior an antichain of covers).
    Returned as (y, x, mids) with mids canonical."""
    lt, M, J = L._lt, L._meet_table, L._join_table
    out = []
    for y, above in enumerate(lt):
        for x in np.flatnonzero(above):
            mids = np.flatnonzero(above & lt[:, x])
            if len(mids) < 3:
                continue
            pairs = np.ix_(mids, mids)
            off = ~np.eye(len(mids), dtype=bool)
            if (M[pairs][off] == y).all() and (J[pairs][off] == x).all():
                out.append((L.elements[y], L.elements[x], [L.elements[z] for z in mids]))
    return out


def optimal_base(L: Semilattice) -> ImplicationalSystem:
    """Size-optimal implicational base for a modular semilattice, over the
    ground set of its join-irreducibles.

    Three families of implications: each nonatomic irreducible implies an
    irredundant irreducible decomposition of its unique lower cover; each
    height-2 interval with at least three intermediates yields, per pair of
    intermediates, one implication between representatives; each minimal
    inconsistent pair of irreducibles implies the empty conclusion.  The
    result is checked to regenerate the family exactly.
    """
    base = _build_optimal_base(L)
    _, phi = _phi_map(L)
    produced = set(base.closed_sets())
    expected = {phi[l] for l in L.elements}
    if produced != expected:
        diff = sorted((base._mask(s) for s in produced ^ expected), key=_mask_order)
        raise AssertionError(f"optimal base does not regenerate the family: {[base._tuple(m) for m in diff[:3]]}")
    return base


def _build_optimal_base(L: Semilattice) -> ImplicationalSystem:
    ok, witness = L.is_modular_semilattice()
    if not ok:
        raise NotModularError(f"not a modular semilattice: {witness['condition']} fails", witness=witness)
    irr, phi = _phi_map(L)
    order = {p: i for i, p in enumerate(irr)}
    imps = []

    for q in irr:
        lower = L.lower_covers(q)
        assert len(lower) == 1
        qlow = lower[0]
        if qlow == L.min_element:
            continue
        below = [p for p in irr if L.leq(p, qlow)]
        decomposition = sorted(L.maximal_elements(below), key=order.get)
        assert L.join_all(decomposition) == qlow
        for cand in sorted(decomposition, key=order.get, reverse=True):
            if len(decomposition) == 1:
                break
            trial = [p for p in decomposition if p != cand]
            if L.join_all(trial) == qlow:
                decomposition = trial
        imps.append(({q}, frozenset(decomposition)))

    for y, x, mids in _mn_intervals(L):
        reps = []
        for z in mids:
            fresh = sorted(phi[z] - phi[y], key=order.get)
            assert fresh, "intermediate adds no irreducible"
            reps.append(fresh[0])
        assert len(set(reps)) == len(reps), "interval representatives collide"
        k = len(mids)
        for i, j in combinations(range(k), 2):
            t = min(set(range(k)) - {i, j})
            imps.append(({reps[i], reps[j]}, frozenset({reps[t]})))

    ppip = induced_ppip(L)
    for p, q in ppip.minimal_inconsistent_pairs():
        imps.append(({p, q}, frozenset()))

    return ImplicationalSystem(irr, imps)


def _simple_bijection(sigma: ImplicationalSystem, L: Semilattice) -> tuple[dict | None, str | None]:
    """Map e -> c({e}) as a family element id, when it is a bijection onto
    the irreducibles; otherwise ``None`` and the reason it is not."""
    closures = {}
    for e in sigma.ground:
        m = sigma._close_mask(1 << sigma._index[e])
        if m is None:
            return None, f"closure of {{{e!r}}} does not exist"
        closures[e] = sigma._tuple(m)
    first = {}
    for e, t in closures.items():
        if t in first:
            return None, f"{first[t]!r} and {e!r} share a closure"
        first[t] = e
    irr = set(L.join_irreducibles())
    for e, t in closures.items():
        if t not in irr:
            return None, f"closure of {{{e!r}}} is not irreducible"
    return closures, None


def optimal_base_from_implications(sigma: ImplicationalSystem,
                                   budget: int = DEFAULT_BUDGET) -> ImplicationalSystem:
    """Convert any simple system with a modular family into a size-optimal
    base over the same ground set.

    The ground set is identified with the irreducible closed sets (the map
    e -> c({e}) must be a bijection onto them), the optimal base of the
    family is computed there, and the labels are pulled back.
    """
    L = sigma.family(budget)
    mapping, reason = _simple_bijection(sigma, L)
    if mapping is None:
        raise InputError(f"system is not simple: {reason}")
    ok, witness = recognize_modular_semilattice(sigma)
    if not ok:
        raise NotModularError(f"family is not a modular semilattice: {witness['condition']} fails",
                              witness=witness)
    # optimal_base checks that the base regenerates L; the relabelling is a
    # bijection that maps the closed sets of the base onto those of sigma,
    # so the relabelled base needs no second check
    base = optimal_base(L)
    inverse = {t: e for e, t in mapping.items()}
    imps = [([inverse[t] for t in a], [inverse[t] for t in b]) for a, b in base.implications]
    return ImplicationalSystem(sigma.ground, imps)
