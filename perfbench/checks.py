"""Reference computations for the output checker.

These are written from the definitions, in plain Python, and share no code
with ppiprep, so a wrong answer from the library cannot also be the
reference.  The one exception is the recognition verdict on small random
systems, which is compared against the library's brute force
(``family().is_modular_semilattice()``), as the acceptance suite does.
The checks in ``workloads`` call ``expect``, which raises ``Rejected`` with
a reason when an output is wrong.
"""

from __future__ import annotations

import itertools


class Rejected(Exception):
    """The checker rejected an output."""


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Rejected(reason)


# -- implicational systems ----------------------------------------------------

def parse_lines(text: str) -> list[tuple[frozenset, frozenset]]:
    """Implications of the line format, an empty conclusion for ``_|_``."""
    out = []
    for line in text.splitlines():
        if "->" not in line:
            continue
        lhs, rhs = line.split("->", 1)
        concl = [] if rhs.strip() in ("_|_", "") else rhs.split()
        out.append((frozenset(lhs.split()), frozenset(concl)))
    return out


def naive_closure(imps, xs) -> frozenset | None:
    """Apply implications until nothing changes; ``None`` when a forbidden
    premise is reached."""
    s = set(xs)
    changed = True
    while changed:
        changed = False
        for a, b in imps:
            if a <= s:
                if not b:
                    return None
                if not b <= s:
                    s |= b
                    changed = True
    return frozenset(s)


def naive_family(imps, ground, limit: int) -> set[frozenset] | None:
    """All closed sets, grown one element at a time from the closure of the
    empty set; ``None`` when there are more than ``limit``."""
    bottom = naive_closure(imps, ())
    if bottom is None:
        return set()
    seen = {bottom}
    todo = [bottom]
    while todo:
        cur = todo.pop()
        for e in ground:
            if e in cur:
                continue
            grown = naive_closure(imps, cur | {e})
            if grown is not None and grown not in seen:
                seen.add(grown)
                if len(seen) > limit:
                    return None
                todo.append(grown)
    return seen


def intersection_closure(family, xs) -> frozenset | None:
    """Closure as the intersection of all closed supersets."""
    supers = [c for c in family if xs <= c]
    if not supers:
        return None
    return frozenset.intersection(*supers)


# -- finite fields ------------------------------------------------------------

def rank_mod(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def matmul_mod(a, b, p: int):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def subspace_bases(d: int, p: int):
    """One basis per subspace of GF(p)^d, by reduced echelon form."""
    out = []
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, d) if c not in pivots]
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * d for _ in range(k)]
                for r, c in enumerate(pivots):
                    rows[r][c] = 1
                for (r, c), v in zip(free, vals):
                    rows[r][c] = v
                out.append(rows)
    return out


def block(data: dict, alpha: int, beta: int):
    r0 = sum(data["row_blocks"][:alpha])
    c0 = sum(data["col_blocks"][:beta])
    return [row[c0:c0 + data["col_blocks"][beta]]
            for row in data["entries"][r0:r0 + data["row_blocks"][alpha]]]


def row_side_optimum(data: dict) -> tuple[int, int]:
    """Maximum total dimension of a vanishing tuple and the number of
    tuples reaching it.

    Enumerates row-side tuples X only: the largest column subspace
    vanishing against X in block column beta is the common kernel of the
    rows u^T A_{alpha beta}, so its dimension is n_beta minus their rank,
    and each X at the optimum gives exactly one maximum tuple.
    """
    p = data["p"]
    mu, nu = len(data["row_blocks"]), len(data["col_blocks"])
    blocks = [[block(data, a, b) for b in range(nu)] for a in range(mu)]
    sides = [subspace_bases(m, p) for m in data["row_blocks"]]
    best, count = -1, 0
    for X in itertools.product(*sides):
        total = sum(len(x) for x in X)
        for b in range(nu):
            rows = [[sum(u[i] * blocks[a][b][i][j] for i in range(len(u))) % p
                     for j in range(data["col_blocks"][b])]
                    for a in range(mu) for u in X[a]]
            total += data["col_blocks"][b] - (rank_mod(rows, p) if rows else 0)
        if total > best:
            best, count = total, 1
        elif total == best:
            count += 1
    return best, count


def vanishes(data: dict, X, Y) -> bool:
    """u^T A_{alpha beta} v = 0 for all basis vectors u of X_alpha, v of Y_beta."""
    p = data["p"]
    for a, xs in enumerate(X):
        for b, ys in enumerate(Y):
            blk = block(data, a, b)
            for u in xs:
                for v in ys:
                    if sum(u[i] * blk[i][j] * v[j] for i in range(len(u))
                           for j in range(len(v))) % p:
                        return False
    return True


# -- closed product subsets ---------------------------------------------------

def join_irreducible_members(factor, members) -> list:
    """Members of a closed subset of a product with exactly one lower cover
    inside the subset, in the given order."""
    members = [tuple(m) for m in members]
    leq = factor.vec_leq
    irr = []
    for m in members:
        below = [x for x in members if x != m and leq(x, m)]
        if sum(1 for x in below if not any(y != x and leq(x, y) for y in below)) == 1:
            irr.append(m)
    return irr


def product_structure(factor, members):
    """Join-irreducible members, inconsistent pairs and collinear triples of
    a closed subset of a product, straight from the definitions."""
    leq, join = factor.vec_leq, factor.vec_join
    irr = join_irreducible_members(factor, members)
    inconsistent = {frozenset((a, b)) for a, b in itertools.combinations(irr, 2) if join(a, b) is None}
    collinear = set()
    for a, b, c in itertools.combinations(irr, 3):
        if any(leq(x, y) or leq(y, x) for x, y in ((a, b), (a, c), (b, c))):
            continue
        j = join(a, b)
        if j is not None and join(a, c) == j and join(b, c) == j:
            collinear.add(frozenset((a, b, c)))
    return set(irr), inconsistent, collinear
