"""The three workloads: their inputs, the op each input drives through the
public API, and the check of each op's output.

The benchmark runs whole passes over a workload, so every run measures the
same mix of op kinds and sizes.  Every pass holds the same structures and
presents them afresh, with labels, order and bases drawn from the seed and
the pass index, so no payload repeats within a run and a cache keyed on the
input cannot turn repetition into speed.  Inputs reach the library only as
the text or JSON a user would pass to the CLI, parsed inside the op by the
library's own loaders.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
import gen
from checks import expect


@dataclass(eq=False)
class Op:
    """One input and what to do with it.

    ``run(payload)`` is the timed part and calls only the public API.
    ``check(payload, output, ref)`` runs outside the timed region and
    raises ``checks.Rejected`` on a wrong output; ``ref`` is a dict in which
    the check keeps the reference answers it computes for this input.
    """

    kind: str
    name: str
    payload: dict
    run: Callable
    check: Callable
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    make_pass: Callable[[int], list[Op]]    # pass index -> the ops of that pass
    warmup: list[Op]    # run during set-up, presented apart from every pass
    spans: tuple        # spans the tracer self-test requires at least one call of


# A failure that matches one of these is attributed to a known defect;
# it still counts as a failed op.
KNOWN_DEFECTS = [
    ("optimal-base", "AssertionError", "optimal base does not regenerate the family",
     "ROADMAP item 1: optimal_base mishandles lines of 4+ points and relabelled GF(2) bases"),
]


def attribute(kind: str, exc: BaseException) -> str:
    for k, etype, text, why in KNOWN_DEFECTS:
        if kind == k and type(exc).__name__ == etype and text in str(exc):
            return why
    return "unattributed"


WARMUP = -1     # pass index of the warm-up presentation


def _rngs(workload: str, seed: int, pass_index: int) -> tuple[random.Random, random.Random]:
    """The fixed stream that draws structures, restarted for every pass,
    and the stream of the seed and pass that draws their presentation (see
    ``gen``)."""
    return random.Random(f"{workload}:structure"), random.Random(f"{workload}:{seed}:{pass_index}")


# -- horn-recognize -------------------------------------------------------------

def _run_recognize(payload):
    import ppiprep
    sigma = ppiprep.ImplicationalSystem.from_text(payload["text"])
    ok, _ = ppiprep.recognize_modular_semilattice(sigma)
    closures = [sigma.closure(q).value for q in payload["queries"]]
    return ok, closures


def _check_recognize(payload, output, ref):
    ok, closures = output
    if "imps" not in ref:
        imps = checks.parse_lines(payload["text"])
        ground = sorted({x for a, b in imps for x in a | b})
        ref["imps"] = imps
        ref["family"] = (checks.naive_family(imps, ground, limit=128)
                         if payload["expected"] is None else None)
        ref["verdict"] = payload["expected"]
        if ref["verdict"] is None and ref["family"] is not None:
            import ppiprep
            from ppiprep.errors import InputError
            try:
                ref["verdict"] = ppiprep.ImplicationalSystem.from_text(
                    payload["text"]).family().is_modular_semilattice()[0]
            except InputError:      # no closed sets at all: not a semilattice
                ref["verdict"] = False
    if ref["verdict"] is not None:
        expect(ok == ref["verdict"], f"verdict {ok}, expected {ref['verdict']}")
    for q, got in zip(payload["queries"], closures):
        want = checks.naive_closure(ref["imps"], q)
        expect(got == want, f"closure of {q}: {got}, expected {want}")
        if ref["family"] is not None:
            expect(got == checks.intersection_closure(ref["family"], frozenset(q)),
                   f"closure of {q} is not the intersection of its closed supersets")


MODULAR = [(2, 3), (3, 2), (2, 5), (4, 2), (3, 3)]


def horn_recognize(seed: int) -> Workload:
    """Passes of eight rounds, each of 25 ops: a pairwise-join base of every
    modular lattice in MODULAR, accepted and forming the latency tail, and
    20 random systems, mostly rejected within a millisecond.  Every round
    relabels the modular bases afresh, since their recognition time depends
    on the labelling by up to a third."""

    def make_pass(k: int) -> list[Op]:
        structure, rng = _rngs("horn-recognize", seed, k)
        ops = []
        for r in range(8):
            round_ops = []
            for j in range(20):
                text = gen.random_system(structure, rng)
                round_ops.append(Op("recognize", f"random-{r}-{j}",
                                    {"text": text, "queries": gen.closure_queries(rng, text, 4),
                                     "expected": None},
                                    _run_recognize, _check_recognize))
            for i, (d, p) in enumerate(MODULAR):
                text = gen.pairwise_join_base(rng, d, p)
                round_ops.insert(i * 4, Op("recognize", f"L({d},{p})-{r}",
                                           {"text": text, "queries": gen.closure_queries(rng, text, 4),
                                            "expected": True},
                                           _run_recognize, _check_recognize))
            ops += round_ops
        return ops

    spans = ("horn.ImplicationalSystem.__init__", "horn.ImplicationalSystem.closure",
             "horn.recognize_modular_semilattice", "horn.irreducible_ppip",
             "ppip.check_regularity", "ppip.check_weak_triangle", "poset.Poset.__init__")
    return Workload(make_pass, make_pass(WARMUP)[:2], spans)


# -- lattice-certify --------------------------------------------------------------

def _load_semilattice(text):
    import ppiprep
    return ppiprep.Semilattice.from_poset(ppiprep.Poset.from_json(json.loads(text)))


def _run_validate(payload):
    L = _load_semilattice(payload["text"])
    return len(L), len(L.join_irreducibles()), L.is_modular_semilattice()[0], L.is_median_semilattice()[0]


def _check_validate(payload, output, ref):
    d, p = payload["d"], payload["p"]
    size, irr, modular, median = output
    expect(size == gen.subspace_count(d, p), f"{size} elements, expected {gen.subspace_count(d, p)}")
    expect(irr == gen.gaussian_count(d, p, 1), f"{irr} join-irreducibles, expected the points")
    expect(modular, "subspace lattice reported not modular")
    expect(not median, "subspace lattice of dimension >= 2 reported median")


def _run_birkhoff(payload):
    import ppiprep
    report = ppiprep.birkhoff_roundtrip(_load_semilattice(payload["text"]))
    return report["ok"], len(report.get("points", ())), len(report.get("psi", ()))


def _check_birkhoff(payload, output, ref):
    d, p = payload["d"], payload["p"]
    ok, points, subspaces = output
    expect(ok, "round trip failed on a modular lattice")
    expect(points == gen.gaussian_count(d, p, 1), f"{points} points, expected {gen.gaussian_count(d, p, 1)}")
    expect(subspaces == gen.subspace_count(d, p), f"{subspaces} subspaces, expected {gen.subspace_count(d, p)}")


def _run_optimal_base(payload):
    import ppiprep
    return ppiprep.optimal_base_from_implications(ppiprep.ImplicationalSystem.from_text(payload["text"])).to_text()


def _check_optimal_base(payload, output, ref):
    if "family" not in ref:
        imps = checks.parse_lines(payload["text"])
        ref["ground"] = sorted({x for a, b in imps for x in a | b})
        ref["family"] = checks.naive_family(imps, ref["ground"], limit=10 ** 5)
    out = checks.parse_lines(output)
    got = checks.naive_family(out, ref["ground"], limit=10 ** 5)
    expect(got == ref["family"], f"base generates {len(got)} closed sets, the input {len(ref['family'])}")
    expect(sum(len(a) + len(b) for a, b in out) <= sum(len(a) + len(b) for a, b in checks.parse_lines(payload["text"])),
           "optimal base is larger than the input")


def _run_polar(payload):
    import ppiprep
    data = json.loads(payload["text"])
    ppip = ppiprep.polar_space_ppip(data["entries"], data["p"])
    cs = ppiprep.consistent_subspaces(ppip)
    return len(ppip.poset), len(ppip.inconsistent), len(ppip.collinear), len(cs)


def _check_polar(payload, output, ref):
    if "want" not in ref:
        B, p = payload["form"]["entries"], payload["form"]["p"]
        g = gen.geometry(len(B), p)

        def form(u, v):
            return sum(u[i] * B[i][j] * v[j] for i in range(len(u)) for j in range(len(v))) % p

        n = len(g.points)
        orth = [[form(u, v) == 0 for v in g.points] for u in g.points]
        inconsistent = sum(1 for i in range(n) for j in range(i + 1, n) if not orth[i][j])
        lines = {g.line_mask(i, j) for i in range(n) for j in range(i + 1, n) if orth[i][j]}
        collinear = sum(bin(m).count("1") * (bin(m).count("1") - 1) * (bin(m).count("1") - 2) // 6
                        for m in lines)
        isotropic = sum(1 for _, m in g.subspaces
                        if all(orth[i][j] for i in range(n) if m >> i & 1 for j in range(n) if m >> j & 1))
        ref["want"] = (n, inconsistent, collinear, isotropic)
    expect(tuple(output) == ref["want"],
           f"(points, inconsistent, collinear, subspaces) = {tuple(output)}, expected {ref['want']}")


def _run_product(payload):
    import ppiprep
    data = json.loads(payload["text"])
    L = ppiprep.Semilattice.from_poset(ppiprep.Poset.from_json(data["lattice"]))
    oracle = ppiprep.oracle_from_set([tuple(m) for m in data["members"]], L, data["n"])
    ppip = ppiprep.build_ppip(oracle)
    return ppip, oracle.call_counter


def _check_product(payload, output, ref):
    ppip, calls = output
    data = payload["data"]
    factor = gen.Factor(payload["factor"])
    if "want" not in ref:
        ref["want"] = checks.product_structure(factor, data["members"])
    points, inconsistent, collinear = ref["want"]
    expect(set(ppip.poset.elements) == points, "points are not the join-irreducible members")
    expect(set(ppip.inconsistent) == inconsistent, "inconsistent pairs differ from the definition")
    expect(set(ppip.collinear) == collinear, "collinear triples differ from the definition")
    bound = (data["n"] * len(factor.elements)) ** 2
    expect(calls <= bound, f"{calls} oracle calls exceed the bound {bound}")


LATTICE_VALIDATE = [(2, 3), (3, 2), (2, 5), (3, 3), (4, 2), (5, 2), (4, 3)]
LATTICE_BIRKHOFF = [(2, 3), (3, 2), (2, 5), (3, 3), (4, 2)]
LATTICE_BASES = [(2, 2), (2, 3), (2, 5), (4, 2)]
PRODUCT_BASES = [("M3", 3), ("M3", 4), ("S3", 3), ("S3", 4), ("C3", 4), ("C3", 5)]
POLAR = [(3, 2, 2), (4, 2, 4), (5, 2, 4), (3, 3, 2)]     # (d, p, rank)
PRODUCTS = [(f, w) for f in ("M3", "S3", "C3") for w in (3, 4, 5, 6)]


def lattice_certify(seed: int) -> Workload:
    """Passes of 38 ops that materialize a family or a structure: validate
    and round-trip subspace lattices from L(2,3) (n = 6) up to L(5,2)
    (n = 374), optimal bases of relabelled pairwise-join bases, polar spaces
    of alternating forms with their consistent subspaces, and the product
    representation of closed subsets of M3^w, S3^w and C3^w."""

    def make_pass(k: int) -> list[Op]:
        structure, rng = _rngs("lattice-certify", seed, k)
        ops = []
        for d, p in LATTICE_VALIDATE:
            ops.append(Op("validate", f"L({d},{p})",
                          {"text": gen.dumps(gen.lattice_poset_json(rng, d, p)), "d": d, "p": p},
                          _run_validate, _check_validate))
        for d, p in LATTICE_BIRKHOFF:
            ops.append(Op("birkhoff", f"L({d},{p})",
                          {"text": gen.dumps(gen.lattice_poset_json(rng, d, p)), "d": d, "p": p},
                          _run_birkhoff, _check_birkhoff))
        for d, p in LATTICE_BASES:
            ops.append(Op("optimal-base", f"L({d},{p})", {"text": gen.pairwise_join_base(rng, d, p)},
                          _run_optimal_base, _check_optimal_base))
        for f, w in PRODUCT_BASES:
            ops.append(Op("optimal-base", f"{f}^{w}",
                          {"text": gen.product_join_base(structure, rng, f, w, 60)},
                          _run_optimal_base, _check_optimal_base))
        for d, p, r in POLAR:
            form = gen.alternating_form(rng, d, p, r)
            ops.append(Op("polar", f"d{d}-GF({p})-rank{r}", {"text": gen.dumps(form), "form": form},
                          _run_polar, _check_polar))
        for f, w in PRODUCTS:
            data = gen.closed_product_subset(structure, rng, f, w, 120)
            ops.append(Op("product", f"{f}^{w}", {"text": gen.dumps(data), "data": data, "factor": f},
                          _run_product, _check_product))
        rng.shuffle(ops)
        return ops

    warmup = make_pass(WARMUP)
    warmup = [min((op for op in warmup if op.kind == kind), key=lambda op: len(op.payload["text"]))
              for kind in ("validate", "birkhoff", "optimal-base", "polar", "product")]
    spans = ("poset.Poset.__init__", "poset.Poset.subposet",
             "semilattice.Semilattice.__init__", "semilattice.Semilattice.is_modular_semilattice",
             "semilattice.Semilattice.is_median_semilattice",
             "semilattice.Semilattice.induced_inconsistency",
             "semilattice.Semilattice.induced_collinearity",
             "ppip.check_axioms", "ppip.check_regularity", "ppip.check_weak_triangle",
             "ppip.induced_ppip", "ppip.consistent_subspaces", "ppip.birkhoff_roundtrip",
             "horn.ImplicationalSystem.__init__", "horn.ImplicationalSystem.closure",
             "horn.ImplicationalSystem.closed_sets", "horn.recognize_modular_semilattice",
             "horn.irreducible_ppip", "horn.optimal_base", "horn.optimal_base_from_implications",
             "product.oracle_from_set", "product.compute_bases",
             "product.join_irreducible_elements", "product.build_ppip", "gflin.polar_space_ppip")
    return Workload(make_pass, warmup, spans)


# -- matrix-dm ------------------------------------------------------------------

def _load_matrix(text):
    import ppiprep
    return ppiprep.PartitionedMatrix.from_json(json.loads(text))


def _run_mvsp(payload):
    import ppiprep
    optimum, oracle = ppiprep.mvsp_solve(_load_matrix(payload["text"]))
    ppip = ppiprep.build_ppip(oracle)
    return optimum, oracle, ppip


def _matrix_ref(payload, ref):
    if "optimum" not in ref:
        ref["optimum"], ref["count"] = checks.row_side_optimum(payload["data"])
    return ref["optimum"], ref["count"]


def _check_mvsp(payload, output, ref):
    data = payload["data"]
    optimum, oracle, ppip = output
    want, count = _matrix_ref(payload, ref)
    expect(optimum == want, f"optimum {optimum}, expected {want}")
    expect(len(oracle.members) == count, f"{len(oracle.members)} maximum tuples, expected {count}")
    mu = len(data["row_blocks"])
    for m in oracle.members:
        bases = [[list(v) for v in s.basis] for s in m]
        expect(sum(len(b) for b in bases) == optimum, "a member is not at the optimum")
        expect(checks.vanishes(data, bases[:mu], bases[mu:]), "a member does not vanish")
    for lat, k in zip(oracle.lattices, data["row_blocks"] + data["col_blocks"]):
        expect(len(lat) == gen.subspace_count(k, data["p"]),
               f"subspace lattice of GF({data['p']})^{k} has {len(lat)} elements")
    # join-irreducibles of L(k, p) are its points, and of the reversed order its hyperplanes
    bound = sum(gen.gaussian_count(k, data["p"], 1) for k in data["row_blocks"] + data["col_blocks"])
    expect(len(ppip.poset) <= bound, f"{len(ppip.poset)} irreducible points exceed the bound {bound}")


def _run_dm(payload):
    import ppiprep
    return ppiprep.dm_decompose(_load_matrix(payload["text"]))


def _check_dm(payload, output, ref):
    data = payload["data"]
    dm = output
    p = data["p"]
    want, _ = _matrix_ref(payload, ref)
    expect(dm.optimum == want, f"optimum {dm.optimum}, expected {want}")
    E = checks.block_diag([e.to_lists() for e in dm.E_blocks])
    F = checks.block_diag([f.to_lists() for f in dm.F_blocks])
    prod = checks.matmul_mod(checks.matmul_mod(checks.matmul_mod(checks.matmul_mod(
        dm.P.to_lists(), E, p), data["entries"], p), F, p), dm.Q.to_lists(), p)
    expect(prod == dm.transformed.to_lists(), "P diag(E) A diag(F) Q differs from the transformed matrix")
    for rows in (dm.P.to_lists(), dm.Q.to_lists(), E, F):
        expect(checks.rank_mod(rows, p) == len(rows), "a transform is singular")
    rstage = [k for k, (r, _) in enumerate(dm.stages) for _ in range(r)]
    cstage = [k for k, (_, c) in enumerate(dm.stages) for _ in range(c)]
    T = dm.transformed.to_lists()
    expect(len(rstage) == len(T) and len(cstage) == len(T[0]), "stages do not cover the matrix")
    for r, row in enumerate(T):
        for c, x in enumerate(row):
            expect(cstage[c] >= rstage[r] or x == 0, f"nonzero entry ({r},{c}) below the stage diagonal")
    top = dm.chain[-1]
    X = [[list(v) for v in s.basis] for s in top.X]
    Y = [[list(v) for v in s.basis] for s in top.Y]
    expect(sum(map(len, X + Y)) == dm.optimum, "top of the chain is not at the optimum")
    expect(checks.vanishes(data, X, Y), "top of the chain does not vanish")


SHAPES = [  # (p, row blocks, column blocks, ops per round)
    (2, (2, 2, 2), (2, 2, 2, 2), 1),
    (2, (2, 2, 2), (2, 2, 2), 2),
    (2, (2, 2), (2, 2, 2), 4),
    (2, (1, 2, 2), (2, 2, 1), 4),
    (3, (2, 2), (2, 2), 4),
]
DENSITIES = (0.3, 0.6)


def matrix_dm(seed: int) -> Workload:
    """Passes of two rounds of distinct matrices.  Per round, each shape in
    SHAPES at both densities, half of the matrices through ``mvsp_solve`` +
    ``build_ppip`` and half through ``dm_decompose``."""

    def make_pass(k: int) -> list[Op]:
        structure, rng = _rngs("matrix-dm", seed, k)
        ops = []
        for r in range(2):
            round_ops = []
            for p, rb, cb, per in SHAPES:
                for i, dens in enumerate(DENSITIES):
                    for j in range(per):
                        data = gen.partitioned_matrix(structure, rng, p, rb, cb, dens)
                        name = f"GF({p}) {'+'.join(map(str, rb))}x{'+'.join(map(str, cb))} d{dens} #{r}.{j}"
                        run, check, kind = ((_run_mvsp, _check_mvsp, "mvsp") if (i + j + r) % 2 == 0
                                            else (_run_dm, _check_dm, "dm"))
                        round_ops.append(Op(kind, name, {"text": gen.dumps(data), "data": data}, run, check))
            rng.shuffle(round_ops)
            ops += round_ops
        return ops

    small = [op for op in make_pass(WARMUP) if op.payload["data"]["p"] == 3]
    warmup = [next(op for op in small if op.kind == "mvsp"), next(op for op in small if op.kind == "dm")]
    spans = ("gflin.subspace_lattice", "gflin.mvsp_solve", "gflin.maximal_chain", "gflin.dm_decompose",
             "product.oracle_from_minimizers", "product.oracle_from_set", "product.compute_bases",
             "product.join_irreducible_elements", "product.build_ppip",
             "semilattice.Semilattice.__init__", "semilattice.Semilattice.is_modular_semilattice",
             "semilattice.Semilattice.induced_inconsistency", "poset.Poset.__init__",
             "poset.Poset.subposet")
    return Workload(make_pass, warmup, spans)


WORKLOADS = {"horn-recognize": horn_recognize, "lattice-certify": lattice_certify, "matrix-dm": matrix_dm}
