"""Finite posets with explicit cover relations.

Elements are opaque hashable ids (strings in JSON files, tuples for derived
structures).  The canonical total order on elements is their position in the
``elements`` list; every enumeration in this package reports results in that
order so outputs are stable.  The order relation is carried as a dense
boolean matrix: a caller that already knows an order passes its matrix, and
pairs are only for orders read from outside.  The stored covers are always
the transitive reduction, recomputed at construction from either form.
Products of boolean matrices go through BLAS as ``count_product``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import InputError

Element = Hashable


class Poset:
    """A finite partially ordered set.

    Parameters
    ----------
    elements:
        The ground set, in canonical order.  Duplicates are rejected.
    relations:
        Pairs ``(a, b)`` meaning ``a < b``, or a k x k boolean array whose
        entry (i, j) says element i lies below element j (the diagonal is
        ignored).  Any relation whose transitive closure is acyclic is
        accepted; covers are recomputed from scratch.

    The closure is taken by repeated squaring, each square one float32
    ``count_product``; its counts are exact below 2**24 elements.
    """

    def __init__(self, elements: Sequence[Element],
                 relations: Iterable[tuple[Element, Element]] | np.ndarray = ()):
        self.elements: list[Element] = list(elements)
        self._index: dict[Element, int] = {}
        for pos, el in enumerate(self.elements):
            try:
                duplicate = el in self._index
            except TypeError:
                raise InputError(f"unhashable element: {el!r}") from None
            if duplicate:
                raise InputError(f"duplicate element: {el!r}")
            self._index[el] = pos
        n = len(self.elements)
        if isinstance(relations, np.ndarray):
            if relations.shape != (n, n):
                raise InputError(f"relation matrix has shape {relations.shape}, expected {(n, n)}")
            closure = relations.astype(bool)
            np.fill_diagonal(closure, False)
        else:
            closure = np.zeros((n, n), dtype=bool)
            for a, b in relations:
                ia, ib = self.index(a), self.index(b)
                if ia == ib:
                    raise InputError(f"cycle: element {a!r} related to itself")
                closure[ia, ib] = True
        while True:
            square = count_product(closure, closure) > 0
            if not (square & ~closure).any():
                break
            closure = closure | square
        cyc = closure & closure.T
        if cyc.any():
            ia, ib = map(int, np.argwhere(cyc)[0])
            raise InputError(f"cycle through elements {self.elements[ia]!r} and {self.elements[ib]!r}")
        self._lt = closure
        self.leq_matrix: np.ndarray = closure | np.eye(n, dtype=bool)
        red = closure & ~square
        self._cover_matrix = red
        # argwhere is row-major, which is the canonical order of pairs
        self.covers: list[tuple[Element, Element]] = [
            (self.elements[i], self.elements[j]) for i, j in np.argwhere(red).tolist()
        ]

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x: Element) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise InputError(f"unknown element: {x!r}") from None

    def leq(self, x: Element, y: Element) -> bool:
        return bool(self.leq_matrix[self.index(x), self.index(y)])

    def lt(self, x: Element, y: Element) -> bool:
        return bool(self._lt[self.index(x), self.index(y)])

    def comparable(self, x: Element, y: Element) -> bool:
        i, j = self.index(x), self.index(y)
        return bool(self.leq_matrix[i, j] or self.leq_matrix[j, i])

    def sort_canonical(self, xs: Iterable[Element]) -> list[Element]:
        return sorted(xs, key=self.index)

    # -- extremal elements, covers and subposets ---------------------------

    def minimal_elements(self, xs: Iterable[Element] | None = None) -> list[Element]:
        idx = sorted(self.index(x) for x in xs) if xs is not None else list(range(len(self.elements)))
        out = []
        for i in idx:
            if not any(self._lt[j, i] for j in idx if j != i):
                out.append(self.elements[i])
        return out

    def maximal_elements(self, xs: Iterable[Element] | None = None) -> list[Element]:
        idx = sorted(self.index(x) for x in xs) if xs is not None else list(range(len(self.elements)))
        out = []
        for i in idx:
            if not any(self._lt[i, j] for j in idx if j != i):
                out.append(self.elements[i])
        return out

    def lower_covers(self, x: Element) -> list[Element]:
        col = self._cover_matrix[:, self.index(x)]
        return [self.elements[i] for i in np.flatnonzero(col)]

    def upper_covers(self, x: Element) -> list[Element]:
        row = self._cover_matrix[self.index(x)]
        return [self.elements[i] for i in np.flatnonzero(row)]

    def subposet(self, keep: Iterable[Element]) -> "Poset":
        """Induced subposet, elements in the parent's canonical order."""
        kept = self.sort_canonical(set(keep))
        idx = [self.index(x) for x in kept]
        return Poset(kept, self.leq_matrix[np.ix_(idx, idx)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and bool((self.leq_matrix == other.leq_matrix).all())

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "covers": [[a, b] for a, b in self.covers],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Poset":
        if not isinstance(data, dict) or not isinstance(data.get("elements"), list):
            raise InputError("poset JSON must be an object with an 'elements' list")
        covers = data.get("covers", [])
        try:
            pairs = [(a, b) for a, b in covers]
        except (TypeError, ValueError):
            raise InputError("'covers' must be a list of 2-element lists") from None
        return cls(data["elements"], pairs)

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram in DOT syntax, edges pointing upward."""
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
        for el in self.elements:
            lines.append(f'  "{_dot_id(el)}";')
        for a, b in self.covers:
            lines.append(f'  "{_dot_id(a)}" -> "{_dot_id(b)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def count_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry (i, j) counts the k with ``a[i, k]`` and ``b[k, j]``, for boolean
    ``a`` and ``b``; ``> 0`` gives the boolean product.

    One float32 product through BLAS, which numpy does not use for boolean
    operands.  Every partial sum is an integer no larger than the inner
    size, and float32 holds every integer below 2**24 exactly, so the
    counts are exact for inner sizes below 2**24.
    """
    return a.astype(np.float32) @ b.astype(np.float32)


def _dot_id(el: Element) -> str:
    if isinstance(el, tuple):
        return ",".join(str(x) for x in el)
    return str(el).replace('"', "'")
