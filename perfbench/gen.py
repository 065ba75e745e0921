"""Seeded input generators for the benchmark.

Everything here is plain standard-library Python and independent of
ppiprep, so inputs do not change when the library does.  Generators return
the text or JSON a user would hand to the CLI.  Labels are strings and
elements are listed in label order, never in the order of the structure
they describe.

Where an input's cost depends on more than its size, a generator takes two
``random.Random``: ``structure`` draws the object (an implicational system,
a closed product subset, a matrix) and ``rng`` draws its presentation
(labels, order, a permutation of coordinates, a change of basis).  The
workloads draw structures from a fixed stream and presentations from the
seed, so every seed presents the same work differently and run-to-run
figures do not depend on which random objects a seed happened to draw.
"""

from __future__ import annotations

import functools
import itertools
import json
import random

from checks import block_diag, join_irreducible_members, matmul_mod, rank_mod, subspace_bases


# -- projective geometry of GF(p)^d ----------------------------------------

def _normalize(vec, p):
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    lead = next(x for x in vec if x)
    inv = pow(lead, -1, p)
    return tuple((x * inv) % p for x in vec)


class Geometry:
    """Points and subspaces of GF(p)^d, each subspace as a bitmask of the
    points (one-dimensional subspaces) it contains."""

    def __init__(self, d: int, p: int):
        self.d, self.p = d, p
        self.points = sorted({_normalize(v, p) for v in itertools.product(range(p), repeat=d) if any(v)})
        self.point_index = {v: i for i, v in enumerate(self.points)}
        self.subspaces = [(len(basis), self._span_mask(basis)) for basis in subspace_bases(d, p)]

    def _span_mask(self, basis) -> int:
        mask = 0
        for coeffs in itertools.product(range(self.p), repeat=len(basis)):
            v = [0] * self.d
            for c, row in zip(coeffs, basis):
                for i, x in enumerate(row):
                    v[i] = (v[i] + c * x) % self.p
            if any(v):
                mask |= 1 << self.point_index[_normalize(v, self.p)]
        return mask

    def line_mask(self, i: int, j: int) -> int:
        """Points on the line through points i and j."""
        return self._span_mask([self.points[i], self.points[j]])


@functools.lru_cache(maxsize=None)
def geometry(d: int, p: int) -> Geometry:
    """The shared, read-only ``Geometry`` of GF(p)^d: it depends on the
    structure only, so every pass and presentation can reuse it."""
    return Geometry(d, p)


def gaussian_count(d: int, p: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^d."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def subspace_count(d: int, p: int) -> int:
    return sum(gaussian_count(d, p, k) for k in range(d + 1))


def _labels(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct random labels such as ``x417``."""
    return [f"{prefix}{k}" for k in rng.sample(range(10 * n + 10), n)]


def lattice_poset_json(rng: random.Random, d: int, p: int) -> dict:
    """The subspace lattice L(d, p) as poset JSON with covers, randomly
    labelled and listed in label order."""
    g = geometry(d, p)
    subs = g.subspaces
    labels = _labels(rng, "x", len(subs))
    covers = []
    for a, (ka, ma) in enumerate(subs):
        for b, (kb, mb) in enumerate(subs):
            if kb == ka + 1 and ma & ~mb == 0:
                covers.append([labels[a], labels[b]])
    rng.shuffle(covers)
    return {"elements": sorted(labels), "covers": covers}


def _join_base_text(rng: random.Random, n: int, below, join_below) -> str:
    """Pairwise-join base over n randomly labelled irreducibles: each
    irreducible implies the irreducibles below it, and each pair implies
    the irreducibles below its join, or forbids itself when the join does
    not exist.  Implications come out shuffled."""
    labels = _labels(rng, "p", n)
    lines = []
    for i in range(n):
        if below(i):
            lines.append(f"{labels[i]} -> {' '.join(sorted(labels[k] for k in below(i)))}")
    for i, j in itertools.combinations(range(n), 2):
        ideal = join_below(i, j)
        if ideal is None:
            concl = "_|_"
        else:
            concl = " ".join(sorted(labels[k] for k in ideal - {i, j} - set(below(i)) - set(below(j))))
            if not concl:
                continue
        prem = [labels[i], labels[j]]
        rng.shuffle(prem)
        lines.append(f"{' '.join(prem)} -> {concl}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def pairwise_join_base(rng: random.Random, d: int, p: int) -> str:
    """Pairwise-join base of L(d, p) in the line format.  The irreducibles
    are the points, none below another, and a pair's join is its line."""
    g = geometry(d, p)
    n = len(g.points)

    def line(i, j):
        m = g.line_mask(i, j)
        return {k for k in range(n) if m >> k & 1}

    return _join_base_text(rng, n, lambda i: (), line)


def product_join_base(structure: random.Random, rng: random.Random, factor_name: str,
                      width: int, max_members: int) -> str:
    """Pairwise-join base of a random closed subset of factor^width."""
    factor = Factor(factor_name)
    irr = join_irreducible_members(factor, _closed_members(structure, factor, width, max_members))
    down = [{k for k, x in enumerate(irr) if x != m and factor.vec_leq(x, m)} for m in irr]

    def join_below(i, j):
        js = factor.vec_join(irr[i], irr[j])
        return None if js is None else {k for k, x in enumerate(irr) if factor.vec_leq(x, js)}

    return _join_base_text(rng, len(irr), lambda i: down[i], join_below)


# -- random implicational systems ------------------------------------------

def random_system(structure: random.Random, rng: random.Random) -> str:
    """A random implicational system in the line format: the acceptance
    suite's criterion-6 generator, widened to 4..16 elements and
    proportionally more implications, over randomly permuted labels."""
    n = structure.randint(4, 16)
    ground = [str(i) for i in range(1, n + 1)]
    imps = []
    for _ in range(structure.randint(n // 2, n + n // 2)):
        prem = structure.sample(ground, structure.choice([1, 1, 2, 2, 2, 3]))
        concl = [] if structure.random() < 0.08 else structure.sample(ground, structure.choice([1, 1, 1, 2]))
        imps.append((prem, concl))
    label = dict(zip(ground, rng.sample(ground, n)))
    lines = []
    for prem, concl in imps:
        prem = [label[x] for x in prem]
        rng.shuffle(prem)
        rhs = " ".join(sorted((label[x] for x in concl), key=int)) if concl else "_|_"
        lines.append(f"{' '.join(prem)} -> {rhs}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def closure_queries(rng: random.Random, text: str, count: int) -> list[list[str]]:
    """Random subsets of the mentioned elements, for closure queries."""
    mentioned = sorted({tok for line in text.splitlines() for tok in line.split()
                        if tok not in ("->", "_|_")})
    return [sorted(rng.sample(mentioned, rng.randint(1, min(3, len(mentioned)))))
            for _ in range(count)]


# -- alternating forms -----------------------------------------------------

def alternating_form(rng: random.Random, d: int, p: int, rank: int) -> dict:
    """A random alternating form of the given (even) rank over GF(p)^d, as
    form JSON: the standard form of that rank under a random change of
    basis, so every seed gives an isomorphic polar space."""
    J = [[0] * d for _ in range(d)]
    for k in range(0, rank, 2):
        J[k][k + 1], J[k + 1][k] = 1, p - 1
    M = _invertible(rng, d, p)
    MT = [list(col) for col in zip(*M)]
    B = matmul_mod(matmul_mod(MT, J, p), M, p)
    return {"p": p, "entries": B}


# -- small factor semilattices and closed product subsets --------------------

FACTORS = {
    "M3": (["0", "x", "y", "z", "1"],
           [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")]),
    "S3": (["bot", "a", "b", "c"], [("bot", "a"), ("bot", "b"), ("bot", "c")]),
    "C3": (["0", "m", "1"], [("0", "m"), ("m", "1")]),
}


class Factor:
    """A small semilattice with brute-force meet and join tables."""

    def __init__(self, name: str):
        self.name = name
        self.elements, self.covers = FACTORS[name]
        els = self.elements
        leq = {(a, a) for a in els} | set(self.covers)
        while True:
            grown = leq | {(a, c) for a, b in leq for b2, c in leq if b == b2}
            if grown == leq:
                break
            leq = grown
        self.leq = leq

        def best(cands, below):
            for c in cands:
                if all((x, c) in leq if below else (c, x) in leq for x in cands):
                    return c
            return None

        self.meet = {(a, b): best([w for w in els if (w, a) in leq and (w, b) in leq], below=True)
                     for a in els for b in els}
        self.join = {(a, b): best([w for w in els if (a, w) in leq and (b, w) in leq], below=False)
                     for a in els for b in els}

    def poset_json(self) -> dict:
        return {"elements": list(self.elements), "covers": [list(c) for c in self.covers]}

    # componentwise operations on vectors over the factor
    def vec_leq(self, a, b) -> bool:
        return all((x, y) in self.leq for x, y in zip(a, b))

    def vec_meet(self, a, b) -> tuple:
        return tuple(self.meet[x, y] for x, y in zip(a, b))

    def vec_join(self, a, b) -> tuple | None:
        js = tuple(self.join[x, y] for x, y in zip(a, b))
        return None if None in js else js


def add_member(factor: Factor, closed: set, seed: tuple, limit: int) -> set | None:
    """Close ``closed | {seed}`` under componentwise meets and existing
    joins, where ``closed`` is already closed; ``None`` once the closure has
    more than ``limit`` members."""
    if seed in closed:
        return closed
    members = closed | {seed}
    todo = [seed]
    while todo:
        m1 = todo.pop()
        for m2 in list(members):
            for new in (factor.vec_meet(m1, m2), factor.vec_join(m1, m2)):
                if new is not None and new not in members:
                    members.add(new)
                    todo.append(new)
                    if len(members) > limit:
                        return None
    return members


def _closed_members(structure: random.Random, factor: Factor, width: int, max_members: int) -> list:
    """A random closed subset of factor^width with between half of and
    ``max_members`` members, in canonical order.  Seeds are drawn one at a
    time and a seed that would push the closure past ``max_members`` is
    skipped, so the size stays in range without rejecting whole subsets."""
    members = {tuple(structure.choice(factor.elements) for _ in range(width))}
    for _ in range(64):
        if len(members) * 2 >= max_members:
            break
        seed = tuple(structure.choice(factor.elements) for _ in range(width))
        members = add_member(factor, members, seed, max_members) or members
    index = {e: k for k, e in enumerate(factor.elements)}
    return sorted(members, key=lambda m: [index[x] for x in m])


def closed_product_subset(structure: random.Random, rng: random.Random, factor_name: str,
                          width: int, max_members: int) -> dict:
    """A random closed subset of factor^width as product-ppip JSON, with its
    coordinates permuted and its members shuffled."""
    factor = Factor(factor_name)
    perm = rng.sample(range(width), width)
    members = [[m[k] for k in perm] for m in _closed_members(structure, factor, width, max_members)]
    rng.shuffle(members)
    return {"lattice": factor.poset_json(), "n": width, "members": members}


# -- partitioned matrices ----------------------------------------------------

def partitioned_matrix(structure: random.Random, rng: random.Random, p: int, row_blocks,
                       col_blocks, density: float) -> dict:
    """A random partitioned matrix, each entry nonzero with probability
    ``density``, under a random block-local change of basis on both sides.
    The change of basis preserves every vanishing-subspace count, so the
    work depends on ``structure`` only."""
    rows, cols = sum(row_blocks), sum(col_blocks)
    A = [[structure.randrange(1, p) if structure.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    E = block_diag([_invertible(rng, m, p) for m in row_blocks])
    F = block_diag([_invertible(rng, n, p) for n in col_blocks])
    return {"p": p, "row_blocks": list(row_blocks), "col_blocks": list(col_blocks),
            "entries": matmul_mod(matmul_mod(E, A, p), F, p)}


def _invertible(rng: random.Random, n: int, p: int):
    while True:
        M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_mod(M, p) == n:
            return M


def dumps(data) -> str:
    """Canonical JSON text, as the inputs are handed to the library."""
    return json.dumps(data, separators=(",", ":"))
