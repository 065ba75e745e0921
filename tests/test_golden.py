"""Golden outputs: stdout and emitted JSON of each subcommand on the
fixtures, and the ``check_axioms`` verdict and witness on seeded point-line
structures, must match the files under ``tests/data/golden/`` byte for byte.

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
from ppiprep.gflin import subspace_lattice
from ppiprep.ppip import Ppip, check_axioms, induced_ppip
from ppiprep.semilattice import Semilattice

from helpers import DATA, as_semilattice, make_c3, make_m3, make_s2, make_s3, product_universe

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

def _product(*lats):
    return as_semilattice(product_universe(lats), lats)


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
    "M3xC3": (lambda: induced_ppip(_product(make_m3(), make_c3())), 60),
    "B2+C2xS2": (lambda: induced_ppip(_product(_square_with_top(), make_s2())), 60),
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


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, argv) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(argv, GOLDEN / f"{name}.json"))
        (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
    (GOLDEN / "axioms.json").write_text(_axiom_text(), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
