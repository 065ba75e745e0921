"""Golden outputs: stdout and emitted JSON of each subcommand on the
fixtures, the ``check_axioms`` verdict and witness on seeded point-line
structures, the modularity verdict and witness on seeded orders, and the
recognition verdict and witness on seeded implicational systems, and the
closedness verdict, member order and bases of seeded explicit member sets,
must match the files under ``tests/data/golden/`` byte for byte.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff before committing it.
"""

import contextlib
import io
import json
import random
from itertools import combinations

import pytest

from ppiprep.cli import main
from ppiprep.errors import InputError, NotSemilatticeError
from ppiprep.gflin import subspace_lattice
from ppiprep.horn import ImplicationalSystem, recognize_modular_semilattice
from ppiprep.ppip import Ppip, check_axioms, induced_ppip
from ppiprep.product import compute_bases, oracle_from_set
from ppiprep.semilattice import Semilattice

from helpers import (DATA, make_c2, make_c3, make_m3, make_mk, make_n5_poset_json, make_s2, make_s3,
                     pairwise_join_system, product_of, random_system)

GOLDEN = DATA / "golden"

# name -> (exit code, argv); "{emit}" marks the emitted JSON file
CASES = {
    "validate-n5": (1, ["validate", "--input", str(DATA / "n5.json")]),
    "validate-m3": (0, ["validate", "--input", str(DATA / "m3.json")]),
    "birkhoff-m3": (0, ["birkhoff", "--input", str(DATA / "m3.json"), "--emit", "{emit}"]),
    "product-ppip": (0, ["product-ppip", "--input", str(DATA / "square_members.json"),
                         "--count-calls", "--emit", "{emit}"]),
    "polar": (0, ["polar", "--form", str(DATA / "form_3x3.json"), "--emit", "{emit}"]),
    "mvsp": (0, ["mvsp", "--input", str(DATA / "matrix_6x6.json"), "--emit", "{emit}"]),
    "dm-decompose": (0, ["dm-decompose", "--input", str(DATA / "matrix_6x6.json"),
                         "--emit-transforms", "{emit}"]),
    "optimal-base": (0, ["optimal-base", "--input", str(DATA / "sigma_nine.txt"), "--emit", "{emit}"]),
    "ppip": (0, ["ppip", "--input", str(DATA / "m3_ppip.json"), "--emit", "{emit}"]),
    "ppip-weak-triangle": (1, ["ppip", "--input", str(DATA / "weak_triangle_ppip.json")]),
}


def _argv(argv, emit_path) -> list[str]:
    return [str(emit_path) if a == "{emit}" else a for a in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    want_code, argv = CASES[name]
    emit = tmp_path / "out.json"
    assert main(_argv(argv, emit)) == want_code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if "{emit}" in argv:
        assert emit.read_text(encoding="utf-8") == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# -- axiom verdicts ------------------------------------------------------

def _square_with_top() -> Semilattice:
    """The four-element Boolean lattice with one more element ``t`` on top:
    ``t`` is an irreducible point above two incomparable points."""
    return Semilattice(["0", "a", "b", "1", "t"],
                       [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"), ("1", "t")])


# base structure -> number of seeded single mutations of it
AXIOM_BASES = {
    "M3": (lambda: induced_ppip(make_m3()), 20),
    "S3": (lambda: induced_ppip(make_s3()), 20),
    "L(3,2)": (lambda: induced_ppip(subspace_lattice(3, 2)), 60),
    "L(2,5)": (lambda: induced_ppip(subspace_lattice(2, 5)), 40),
    "L(4,2)": (lambda: induced_ppip(subspace_lattice(4, 2)), 40),
    "M3xC3": (lambda: induced_ppip(product_of(make_m3(), make_c3())), 60),
    "B2+C2xS2": (lambda: induced_ppip(product_of(_square_with_top(), make_s2())), 60),
}


def _mutate(pp: Ppip, rng: random.Random) -> tuple[str, Ppip]:
    """Drop or add one inconsistent pair or collinear triple."""
    inc, col = set(pp.inconsistent), set(pp.collinear)
    moves = []
    for kind, rel, size in (("pair", inc, 2), ("triple", col, 3)):
        every = [frozenset(s) for s in combinations(pp.poset.elements, size)]
        moves.append((f"drop-{kind}", rel.discard, [s for s in every if s in rel]))
        moves.append((f"add-{kind}", rel.add, [s for s in every if s not in rel]))
    op, apply, sets = rng.choice([move for move in moves if move[2]])
    apply(rng.choice(sets))
    return op, Ppip(pp.poset, inc, col)


def _encode(value, index: dict):
    """Witness with every element replaced by its position in the poset."""
    if isinstance(value, tuple) and value not in index:
        return [_encode(x, index) for x in value]
    return index[value]


def axiom_verdicts() -> list[dict]:
    out = []
    rng = random.Random(20261018)
    for name, (build, mutations) in AXIOM_BASES.items():
        base = build()
        cases = [("base", base)] + [_mutate(base, rng) for _ in range(mutations)]
        for k, (op, pp) in enumerate(cases):
            ok, witness = check_axioms(pp)
            index = {x: i for i, x in enumerate(pp.poset.elements)}
            if witness is not None:
                witness = {key: val if key == "axiom" else _encode(val, index)
                           for key, val in sorted(witness.items())}
            out.append({"structure": f"{name}#{k}", "mutation": op, "ok": ok, "witness": witness})
    return out


def _axiom_text() -> str:
    return json.dumps(axiom_verdicts(), indent=1, sort_keys=True) + "\n"


def test_axiom_verdicts_match_golden():
    assert _axiom_text() == (GOLDEN / "axioms.json").read_text(encoding="utf-8")


def test_axiom_golden_covers_every_axiom():
    golden = json.loads((GOLDEN / "axioms.json").read_text(encoding="utf-8"))
    named = {case["witness"]["axiom"] for case in golden if case["witness"]}
    assert named == {"inconsistency-unbounded", "inconsistency-upward", "collinear-incomparable",
                     "collinear-dominated", "regularity", "weak-triangle",
                     "collinear-consistent", "consistent-with-line"}


# -- modularity verdicts ---------------------------------------------------

def random_order(rng: random.Random, with_bottom: bool) -> tuple[list[str], list]:
    """Up to ten elements ``e0 .. e{n-1}``, each pair (i < j) related with
    a drawn density, listed in a shuffled order; ``with_bottom`` puts e0
    below every other element."""
    labels = [f"e{i}" for i in range(rng.randint(1, 10))]
    density = rng.choice((0.15, 0.3, 0.5, 0.7))
    rel = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < density]
    if with_bottom:
        rel += [(labels[0], b) for b in labels[1:]]
    order = labels[:]
    rng.shuffle(order)
    return order, rel


def _m(k: int) -> tuple[list[str], list]:
    atoms = [f"a{i}" for i in range(k)]
    return ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]


def _partition_lattice(m: int) -> tuple[list[str], list]:
    """The partitions of {0..m-1} under refinement, finest first."""
    parts = [[]]
    for x in range(m):
        parts = [p[:i] + [b + [x]] + p[i + 1:] for p in parts for i, b in enumerate(p)] + \
                [p + [[x]] for p in parts]
    parts.sort(key=lambda p: (-len(p), sorted(p)))
    name = ["|".join("".join(map(str, b)) for b in sorted(p)) for p in parts]
    rel = [(name[i], name[j]) for i, p in enumerate(parts) for j, q in enumerate(parts)
           if i != j and all(any(set(b) <= set(c) for c in q) for b in p)]
    return name, rel


def _as_case(lat: Semilattice) -> tuple[list, object]:
    return lat.elements, lat.leq_matrix


def modular_cases() -> list[tuple[str, list, object]]:
    n5 = make_n5_poset_json()
    cases = [
        ("N5", n5["elements"], [tuple(c) for c in n5["covers"]]),
        ("Pi4", *_partition_lattice(4)),
        ("triple-join", ["bot", "a", "b", "c", "ab", "bc", "ca"],
         [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "ab"), ("b", "ab"), ("b", "bc"),
          ("c", "bc"), ("c", "ca"), ("a", "ca")]),
        *((f"M{k}", *_m(k)) for k in range(3, 7)),
        ("M3xC2", *_as_case(product_of(make_m3(), make_c2()))),
        ("M3xM3", *_as_case(product_of(make_m3(), make_m3()))),
        ("L(3,3)", *_as_case(subspace_lattice(3, 3))),
    ]
    rng = random.Random(20261019)
    for with_bottom, count in ((False, 140), (True, 150)):
        tag = "bottom" if with_bottom else "order"
        cases += [(f"{tag}#{k}", *random_order(rng, with_bottom)) for k in range(count)]
    return cases


def modular_verdicts() -> list[dict]:
    out = []
    for name, elements, relations in modular_cases():
        index = {x: i for i, x in enumerate(elements)}
        try:
            lat = Semilattice(elements, relations)
        except NotSemilatticeError as exc:
            out.append({"structure": name, "error": str(exc), "witness": _encode(exc.witness, index)})
            continue
        ok, witness = lat.is_modular_semilattice()
        if witness is not None:
            witness = {"condition": witness["condition"], "triple": _encode(witness["triple"], index)}
        out.append({"structure": name, "ok": ok, "witness": witness})
    return out


def _modular_text() -> str:
    return json.dumps(modular_verdicts(), indent=1, sort_keys=True) + "\n"


def test_modular_verdicts_match_golden():
    assert _modular_text() == (GOLDEN / "modular.json").read_text(encoding="utf-8")


def test_modular_golden_covers_every_outcome():
    def outcome(case):
        if "error" in case:
            return case["error"].split(" have ")[-1]
        return case["witness"]["condition"] if case["witness"] else "modular"

    golden = json.loads((GOLDEN / "modular.json").read_text(encoding="utf-8"))
    assert {outcome(case) for case in golden} == {
        "modular", "modular-law", "triple-join", "no common lower bound", "no greatest common lower bound"}


# -- recognition verdicts --------------------------------------------------

# each family's pairwise-join base is drawn under seeds 0..14, each base
# also with one implication dropped
RECOGNITION_FAMILIES = {
    "L(2,3)": lambda: subspace_lattice(2, 3),
    "L(3,2)": lambda: subspace_lattice(3, 2),
    "L(2,5)": lambda: subspace_lattice(2, 5),
    "L(3,3)": lambda: subspace_lattice(3, 3),
    "M4": lambda: make_mk(4),
    "M3xC2": lambda: product_of(make_m3(), make_c2()),
}


def recognition_cases() -> list[tuple[str, ImplicationalSystem]]:
    rng = random.Random(20261020)
    cases = [(f"random#{k}", random_system(rng)) for k in range(420)]
    for name, build in RECOGNITION_FAMILIES.items():
        L = build()
        for seed in range(15):
            sigma = pairwise_join_system(L, random.Random(seed))
            kept = list(sigma.implications)
            del kept[rng.randrange(len(kept))]
            cases += [(f"{name}#{seed}", sigma), (f"{name}#{seed}-drop", ImplicationalSystem(sigma.ground, kept))]
    return cases


def recognition_verdicts() -> list[dict]:
    out = []
    for name, sigma in recognition_cases():
        ok, witness = recognize_modular_semilattice(sigma)
        out.append({"system": name, "ok": ok, "witness": witness})
    return out


def _recognition_text() -> str:
    return json.dumps(recognition_verdicts(), indent=1, sort_keys=True) + "\n"


def test_recognition_verdicts_match_golden():
    assert _recognition_text() == (GOLDEN / "recognition.json").read_text(encoding="utf-8")


def test_recognition_golden_covers_the_reached_conditions():
    golden = json.loads((GOLDEN / "recognition.json").read_text(encoding="utf-8"))
    assert {case["witness"]["condition"] for case in golden if case["witness"]} == {
        "improper-premise-consistent", "implication-pair", "implication-element", "weak-triangle",
        "implication-generation"}


# -- closedness of explicit member sets -------------------------------------

CLOSEDNESS_FACTORS = {
    "M3": make_m3,
    "S3": make_s3,
    "C3": make_c3,
    "S2": make_s2,
    "L(2,2)": lambda: subspace_lattice(2, 2),
    "L(2,3)r": lambda: subspace_lattice(2, 3, reverse=True),
}


def _closed_within(members, lats, limit: int):
    """Closure of ``members`` under componentwise meets and existing joins,
    in canonical order, or None once it passes ``limit`` members."""
    closed = set(members)
    todo = list(closed)
    while todo:
        m1 = todo.pop()
        for m2 in list(closed):
            meet = tuple(l.meet(x, y) for x, y, l in zip(m1, m2, lats))
            joins = tuple(l.join(x, y) for x, y, l in zip(m1, m2, lats))
            for new in (meet, joins):
                if None not in new and new not in closed:
                    closed.add(new)
                    todo.append(new)
        if len(closed) > limit:
            return None
    return sorted(closed, key=lambda m: [l.index(x) for x, l in zip(m, lats)])


def closedness_cases() -> list[tuple[str, list, list]]:
    """400 seeded member sets of width 2-4, one shared factor or one drawn
    per coordinate: every eighth a closed set of at most 40 members, the
    next three such a set with one member dropped (when it has two), the
    rest 2-8 random vectors; each listed in shuffled order."""
    rng = random.Random(20261021)
    factors = {name: build() for name, build in CLOSEDNESS_FACTORS.items()}
    names = sorted(factors)
    cases = []
    for k in range(400):
        width = rng.randint(2, 4)
        if k % 2:
            picked = [rng.choice(names) for _ in range(width)]
        else:
            picked = [rng.choice(names)] * width
        lats = [factors[name] for name in picked]

        def draw(count):
            return [tuple(rng.choice(l.elements) for l in lats) for _ in range(count)]

        if k % 8 < 4:
            members = None
            while members is None:
                members = _closed_within(draw(rng.randint(2, 5)), lats, 40)
            if k % 8 and len(members) > 1:
                members.pop(rng.randrange(len(members)))
        else:
            members = list(dict.fromkeys(draw(rng.randint(2, 8))))
        rng.shuffle(members)
        cases.append((f"{'x'.join(picked)}#{k}", lats, members))
    return cases


def _positions(vector, lats) -> list[int]:
    return [l.index(x) for x, l in zip(vector, lats)]


def closedness_verdicts() -> list[dict]:
    out = []
    for name, lats, members in closedness_cases():
        try:
            oracle = oracle_from_set(members, lats)
        except InputError as exc:
            out.append({"case": name, "error": str(exc)})
            continue
        bases = [[i, lats[i].index(l), _positions(b.vector, lats)]
                 for (i, l), b in compute_bases(oracle).items()]
        out.append({"case": name, "members": [_positions(m, lats) for m in oracle.members],
                    "bases": bases})
    return out


def _closedness_text() -> str:
    return json.dumps(closedness_verdicts(), sort_keys=True) + "\n"


def test_closedness_verdicts_match_golden():
    assert _closedness_text() == (GOLDEN / "closedness.json").read_text(encoding="utf-8")


def test_closedness_golden_covers_both_messages_and_acceptance():
    golden = json.loads((GOLDEN / "closedness.json").read_text(encoding="utf-8"))
    # "explicit set is not (∧,∨)-closed: meet of ..." names the missing operation
    outcomes = {case["error"].split(": ")[1].split()[0] if "error" in case else "closed"
                for case in golden}
    assert outcomes == {"meet", "join", "closed"}


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, argv) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(argv, GOLDEN / f"{name}.json"))
        (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
    (GOLDEN / "axioms.json").write_text(_axiom_text(), encoding="utf-8")
    (GOLDEN / "modular.json").write_text(_modular_text(), encoding="utf-8")
    (GOLDEN / "recognition.json").write_text(_recognition_text(), encoding="utf-8")
    (GOLDEN / "closedness.json").write_text(_closedness_text(), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
