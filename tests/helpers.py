"""Shared builders: small factor semilattices, product closure, poset views,
seeded implicational systems."""

import itertools
import random
from pathlib import Path

from ppiprep.horn import ImplicationalSystem
from ppiprep.semilattice import Semilattice

DATA = Path(__file__).parent / "data"


def make_s2() -> Semilattice:
    return Semilattice(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])


def make_s3() -> Semilattice:
    return Semilattice(["bot", "a", "b", "c"],
                       [("bot", "a"), ("bot", "b"), ("bot", "c")])


def make_m3() -> Semilattice:
    return Semilattice(["0", "x", "y", "z", "1"],
                       [("0", "x"), ("0", "y"), ("0", "z"),
                        ("x", "1"), ("y", "1"), ("z", "1")])


def make_mk(k: int) -> Semilattice:
    """M_k: a bottom, k pairwise incomparable atoms and a top."""
    atoms = [f"a{i}" for i in range(k)]
    return Semilattice(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def make_c3() -> Semilattice:
    return Semilattice(["0", "m", "1"], [("0", "m"), ("m", "1")])


def make_c2() -> Semilattice:
    return Semilattice(["0", "1"], [("0", "1")])


def make_n5_poset_json() -> dict:
    return {"elements": ["0", "a", "b", "c", "1"],
            "covers": [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"]]}


def close_set(members, lats):
    """Close a set of product vectors under componentwise meets and
    existing componentwise joins."""
    members = set(members)
    while True:
        new = set()
        for m1 in members:
            for m2 in members:
                meet = tuple(l.meet(x, y) for x, y, l in zip(m1, m2, lats))
                if meet not in members:
                    new.add(meet)
                js = [l.join(x, y) for x, y, l in zip(m1, m2, lats)]
                if all(j is not None for j in js) and tuple(js) not in members:
                    new.add(tuple(js))
        if not new:
            return members
        members |= new


def as_semilattice(members, lats) -> Semilattice:
    """A closed member set as a standalone semilattice under the product order."""
    idx = [{e: k for k, e in enumerate(l.elements)} for l in lats]
    n = len(lats)
    ordered = sorted(members, key=lambda m: tuple(idx[i][m[i]] for i in range(n)))
    rel = [(m1, m2) for m1 in ordered for m2 in ordered
           if m1 != m2 and all(l.leq(x, y) for x, y, l in zip(m1, m2, lats))]
    return Semilattice(ordered, rel)


def product_universe(lats):
    return list(itertools.product(*[l.elements for l in lats]))


def product_of(*lats) -> Semilattice:
    return as_semilattice(product_universe(lats), lats)


def random_system(rng: random.Random) -> ImplicationalSystem:
    """Up to eight elements and ten implications, with empty premises and
    improper implications among them."""
    n = rng.randint(1, 8)
    ground = [str(i) for i in range(1, n + 1)]
    imps = []
    for _ in range(rng.randint(0, 10)):
        prem = rng.sample(ground, min(rng.choice([1, 1, 2, 2, 2, 3, 0]), n))
        if rng.random() < 0.08:
            concl = []
        else:
            concl = rng.sample(ground, min(rng.choice([1, 1, 1, 2]), n))
        imps.append((prem, concl))
    return ImplicationalSystem(ground, imps)


def pairwise_join_system(L: Semilattice, rng: random.Random) -> ImplicationalSystem:
    """Pairwise-join base of ``L`` over randomly labelled and ordered
    irreducibles: each irreducible implies those below it, and each pair
    implies those below its join, or forbids itself when there is none."""
    irr = L.join_irreducibles()
    label = dict(zip(irr, (f"p{k}" for k in rng.sample(range(10 * len(irr)), len(irr)))))
    imps = [([label[q]], [label[p] for p in irr if p != q and L.leq(p, q)]) for q in irr]
    imps = [imp for imp in imps if imp[1]]
    for a, b in itertools.combinations(irr, 2):
        j = L.join(a, b)
        imps.append(([label[a], label[b]], [] if j is None else [label[p] for p in irr if L.leq(p, j)]))
    ground = list(label.values())
    rng.shuffle(ground)
    return ImplicationalSystem(ground, imps)
