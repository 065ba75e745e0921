"""Golden CLI outputs: stdout and emitted JSON of each subcommand on the
fixtures must match the files under ``tests/data/golden/`` byte for byte.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff before committing it.
"""

import contextlib
import io

import pytest

from ppiprep.cli import main

from helpers import DATA

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


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, argv) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(argv, GOLDEN / f"{name}.json"))
        (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
