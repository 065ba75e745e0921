import json
import os
import subprocess
import sys

import pytest

from ppiprep.cli import main
from ppiprep.ppip import Ppip

from helpers import DATA

SIGMA = str(DATA / "sigma_nine.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden lines --------------------------------------------------------

def test_recognize_golden_line(capsys):
    code, out, _ = run(capsys, "recognize", "--input", SIGMA)
    assert code == 0
    assert out == "modular semilattice: yes\n"


def test_closure_nonexistent_golden_line(capsys):
    code, out, _ = run(capsys, "closure", "--input", SIGMA, "--set", "1,8")
    assert code == 0
    assert out == "closure: nonexistent\n"


def test_validate_pentagon_witness(capsys):
    code, out, _ = run(capsys, "validate", "--input", str(DATA / "n5.json"))
    assert code == 1
    assert "modular: no" in out
    assert "modular-law" in out


# -- verdicts and reports ------------------------------------------------

def test_closure_existing(capsys):
    code, out, _ = run(capsys, "closure", "--input", SIGMA, "--set", "4")
    assert code == 0
    assert out == "closure: 1,3,4,5\n"


def test_validate_modular_fixture(tmp_path, capsys):
    m3 = {"elements": ["0", "x", "y", "z", "1"],
          "covers": [["0", "x"], ["0", "y"], ["0", "z"],
                     ["x", "1"], ["y", "1"], ["z", "1"]]}
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(m3))
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert code == 0
    assert "meet semilattice: yes" in out
    assert "modular: yes" in out
    assert "median: no" in out


def test_validate_non_semilattice(tmp_path, capsys):
    bowtie = {"elements": ["a", "b", "c", "d"],
              "covers": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(bowtie))
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert "meet semilattice: no" in out and "witness" in out


def test_ppip_axiom_report(capsys):
    code, out, _ = run(capsys, "ppip", "--input", str(DATA / "m3_ppip.json"))
    assert code == 0
    assert "axioms: ok" in out and "points: 3" in out


def test_ppip_axiom_violation(tmp_path, capsys):
    bad = {"elements": ["0", "a", "b", "t"],
           "covers": [["0", "a"], ["0", "b"], ["a", "t"], ["b", "t"]],
           "inconsistent": [["a", "b"]], "collinear": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "ppip", "--input", str(path))
    assert code == 1
    assert "axioms: no" in out and "inconsistency-unbounded" in out


def test_birkhoff_roundtrip_report(tmp_path, capsys):
    m3 = {"elements": ["0", "x", "y", "z", "1"],
          "covers": [["0", "x"], ["0", "y"], ["0", "z"],
                     ["x", "1"], ["y", "1"], ["z", "1"]]}
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(m3))
    emit = tmp_path / "induced.json"
    code, out, _ = run(capsys, "birkhoff", "--input", str(path), "--emit", str(emit))
    assert code == 0
    assert "roundtrip: ok" in out and "family size: 5" in out
    emitted = Ppip.from_json(json.loads(emit.read_text()))
    assert Ppip.from_json(emitted.to_json()) == emitted
    assert len(emitted.collinear) == 1


def test_product_ppip_with_call_count(capsys):
    code, out, _ = run(capsys, "product-ppip", "--input", str(DATA / "square_members.json"),
                       "--count-calls")
    assert code == 0
    assert "points: 2" in out
    assert "oracle calls:" in out and "bound 36" in out


def test_optimal_base_output(capsys):
    code, out, _ = run(capsys, "optimal-base", "--input", SIGMA)
    assert code == 0
    assert "size: 24" in out
    assert out.count("->") == 9


def test_optimal_base_emit(tmp_path, capsys):
    emit = tmp_path / "base.json"
    code, _, _ = run(capsys, "optimal-base", "--input", SIGMA, "--emit", str(emit))
    assert code == 0
    data = json.loads(emit.read_text())
    assert len(data["implications"]) == 9


def test_polar_report_and_emit(tmp_path, capsys):
    emit = tmp_path / "polar.json"
    dot = tmp_path / "polar.dot"
    code, out, _ = run(capsys, "polar", "--form", str(DATA / "form_3x3.json"),
                       "--emit", str(emit), "--dot", str(dot))
    assert code == 0
    assert "points: 7" in out
    emitted = Ppip.from_json(json.loads(emit.read_text()))
    assert len(emitted.poset) == 7
    assert Ppip.from_json(emitted.to_json()) == emitted
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("{") == text.count("}")


def test_mvsp_report(capsys):
    code, out, _ = run(capsys, "mvsp", "--input", str(DATA / "matrix_6x6.json"))
    assert code == 0
    assert "optimum: 6" in out
    assert "minimizers: 12" in out
    assert "irreducible points: 6" in out


def test_dm_decompose_report_and_artifacts(tmp_path, capsys):
    emit = tmp_path / "transforms.json"
    dot = tmp_path / "chain.dot"
    code, out, _ = run(capsys, "dm-decompose", "--input", str(DATA / "matrix_6x6.json"),
                       "--emit-transforms", str(emit), "--emit-dot", str(dot))
    assert code == 0
    assert "optimum: 6" in out
    assert "stages: (2,2) (1,1) (1,1) (1,1) (1,1)" in out
    data = json.loads(emit.read_text())
    assert data["optimum"] == 6
    assert len(data["E_blocks"]) == 3 and len(data["F_blocks"]) == 3
    assert len(data["transformed"]) == 6
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("->") == 5


def test_recognize_witness_independent_of_hash_seed():
    # two conclusion elements of "3 4 -> 2 5" lie outside the generated
    # subspace; the witness must name the first in ground order
    src = str(DATA.parent.parent / "src")
    outs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "ppiprep.cli", "recognize",
                               "--input", str(DATA / "sigma_witness.txt")],
                              env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 1, proc.stderr
        outs.add(proc.stdout)
    assert outs == {"modular semilattice: no\nwitness: {'condition': 'implication-generation', "
                    "'premise': ('3', '4'), 'element': '2'}\n"}


# -- exit codes ----------------------------------------------------------

def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "recognize", "--input", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "cannot read" in err


def test_bad_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_recognize_negative_verdict(tmp_path, capsys):
    path = tmp_path / "n5sigma.txt"
    path.write_text("c -> a\na b -> c\n")
    code, out, _ = run(capsys, "recognize", "--input", str(path))
    assert code == 1
    assert "modular semilattice: no" in out and "witness" in out


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "optimal-base", "--input", SIGMA, "--budget", "4")
    assert code == 3
    assert "budget" in err.lower()


def test_failed_certificate_exits_4_without_traceback():
    # a relabelled pairwise-join base of the Fano plane, on which the
    # optimal base fails its regeneration check; the message names the
    # same sets under every hash seed, and the check survives -O
    src = str(DATA.parent.parent / "src")
    lines = set()
    for flags, seed in (([], "0"), ([], "1"), (["-O"], None)):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONHASHSEED", None)
        if seed is not None:
            env["PYTHONHASHSEED"] = seed
        proc = subprocess.run([sys.executable, *flags, "-m", "ppiprep.cli", "optimal-base",
                               "--input", str(DATA / "fano_pairwise.txt")],
                              env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("invariant failed: optimal base does not regenerate the family")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        lines.add(proc.stderr)
    assert len(lines) == 1, lines


def test_non_alternating_form_names_invariant(tmp_path, capsys):
    path = tmp_path / "bad_form.json"
    path.write_text(json.dumps({"p": 2, "entries": [[1, 0], [0, 1]]}))
    code, _, err = run(capsys, "polar", "--form", str(path))
    assert code == 2
    assert "alternating" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recognize", "--input", SIGMA, "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, text", [
    ("chained.txt", "a -> b -> c\n"),
    ("string_ground.json", json.dumps({"ground": "abc", "implications": []})),
    ("scalar_premise.json", json.dumps({"ground": ["a", "b"],
                                        "implications": [{"premise": 5, "conclusion": ["b"]}]})),
], ids=["chained-arrows", "string-ground", "scalar-premise"])
def test_malformed_implications_are_input_errors(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "closure", "--input", str(path), "--set", "a")
    assert code == 2
    assert out == "" and err.startswith("input error:")


def _matrix(**changes):
    data = {"p": 2, "row_blocks": [1, 1], "col_blocks": [2], "entries": [[1, 0], [0, 1]]}
    return dict(data, **changes)


def _form(entries):
    return {"p": 2, "entries": entries}


_BAD_NUMBERS = [
    ("mvsp", "string-entry", _matrix(entries=[[1, "a"], [0, 1]])),
    ("mvsp", "non-list-row", _matrix(entries=[[1, 0], 5])),
    ("mvsp", "float-entry", _matrix(entries=[[1.5, 0], [0, 1]])),
    ("mvsp", "bool-entry", _matrix(entries=[[True, 0], [0, 1]])),
    ("mvsp", "float-block-size", _matrix(row_blocks=[1.7, 1])),
    ("mvsp", "scalar-blocks", _matrix(col_blocks=2)),
    ("dm-decompose", "string-entry", _matrix(entries=[[1, "a"], [0, 1]])),
    ("dm-decompose", "float-entry", _matrix(entries=[[1.5, 0], [0, 1]])),
    ("dm-decompose", "bool-block-size", _matrix(col_blocks=[True, 1])),
    ("polar", "string-entry", _form([[0, "a"], ["a", 0]])),
    ("polar", "non-list-row", _form([[0, 1], 5])),
    ("polar", "float-entry", _form([[0, 1.5], [1.5, 0]])),
    ("polar", "bool-entry", _form([[0, True], [True, 0]])),
]


@pytest.mark.parametrize("command, data", [(c, d) for c, _, d in _BAD_NUMBERS],
                         ids=[f"{c}-{name}" for c, name, _ in _BAD_NUMBERS])
def test_non_integer_matrix_input_is_input_error(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    flag = "--form" if command == "polar" else "--input"
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 2
    assert out == "" and err.startswith("input error:")


@pytest.mark.parametrize("command, data", [
    ("validate", {"elements": [[1], "a"]}),
    ("validate", {"elements": ["a", "b"], "covers": [[[1], "a"]]}),
    ("validate", {"elements": 5}),
    ("ppip", {"elements": ["a", "b"], "inconsistent": [[[1], "a"]]}),
    ("ppip", {"elements": ["a", "b"], "collinear": [5]}),
], ids=["unhashable-element", "unhashable-cover", "scalar-elements",
        "unhashable-pair-member", "scalar-triple"])
def test_malformed_poset_elements_are_input_errors(tmp_path, capsys, command, data):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == "" and err.startswith("input error:")


_S2 = {"elements": ["bot", "a", "b"], "covers": [["bot", "a"], ["bot", "b"]]}


@pytest.mark.parametrize("command, data", [
    ("product-ppip", 5),
    ("polar", 5),
    ("product-ppip", {"lattice": _S2, "n": 2, "members": 5}),
    ("product-ppip", {"lattice": _S2, "n": 2, "members": [1, 2]}),
    ("product-ppip", {"lattice": _S2, "n": True, "members": [["bot"]]}),
], ids=["scalar-members-file", "scalar-form-file", "scalar-members", "scalar-member", "bool-n"])
def test_malformed_objects_are_input_errors(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    flag = "--form" if command == "polar" else "--input"
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 2
    assert out == "" and err.startswith("input error:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["mvsp", "dm-decompose"])
def test_matrix_budget_caps_row_tuples(capsys, command):
    # the fixture has 5^3 = 125 row tuples
    path = str(DATA / "matrix_6x6.json")
    code, _, err = run(capsys, command, "--input", path, "--budget", "100")
    assert code == 3
    assert "125 tuples" in err
    assert run(capsys, command, "--input", path, "--budget", "125")[0] == 0
