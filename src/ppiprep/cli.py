"""Batch command line front end.

One subcommand per invocation.  Exit codes: 0 success, 1 negative verdict
(with the witness printed), 2 malformed input, 3 enumeration budget
exceeded, 4 a failed internal certificate (a library defect, not a
verdict).  Output ordering is canonical everywhere so reruns are stable.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AxiomError, BudgetError, InputError, NotModularError, NotSemilatticeError
from .gflin import PartitionedMatrix, dm_decompose, mvsp_solve, polar_space_ppip
from .horn import (
    DEFAULT_BUDGET,
    ImplicationalSystem,
    optimal_base_from_implications,
    recognize_modular_semilattice,
)
from .poset import Poset
from .ppip import Ppip, birkhoff_roundtrip, check_axioms, induced_ppip
from .product import build_ppip, oracle_from_set
from .semilattice import Semilattice


# -- input loading -------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_object(path: str, what: str, keys) -> dict:
    """A JSON object that has every key in ``keys``."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object")
    for key in keys:
        if key not in data:
            raise InputError(f"{what} JSON needs the '{key}' key")
    return data


def _load_sigma(path: str) -> ImplicationalSystem:
    """Implications, either as the line format ``a b -> c d`` or as JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc
        return ImplicationalSystem.from_json(data)
    return ImplicationalSystem.from_text(text)


def _load_semilattice(path: str) -> Semilattice:
    return Semilattice.from_poset(Poset.from_json(_load_json(path)))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(path: str, data) -> None:
    _write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- relabeling for emission ---------------------------------------------

def _unique_labels(elements, label_fn) -> dict:
    seen: dict = {}
    out: dict = {}
    for el in elements:
        lab = label_fn(el)
        k = seen.get(lab, 0)
        seen[lab] = k + 1
        out[el] = lab if k == 0 else f"{lab}#{k}"
    return out


def _relabel_ppip(ppip: Ppip, label_fn) -> Ppip:
    """Copy with elements renamed through ``label_fn`` so points serialize
    as plain strings.  Colliding labels get a ``#k`` suffix."""
    labels = _unique_labels(ppip.poset.elements, label_fn)
    poset = Poset([labels[e] for e in ppip.poset.elements], ppip.poset.leq_matrix)
    inc = [frozenset(labels[x] for x in pr) for pr in ppip.inconsistent]
    coll = [frozenset(labels[x] for x in tr) for tr in ppip.collinear]
    return Ppip(poset, inc, coll)


def _vector_label(vec) -> str:
    return ",".join(str(c) for c in vec)


def _point_label(vec) -> str:
    return "".join(str(c) for c in vec)


def _subspace_label(s) -> str:
    if not s.basis:
        return "0"
    return "+".join("".join(str(x) for x in row) for row in s.basis)


def _tuple_label(t) -> str:
    return ";".join(_subspace_label(s) for s in t)


def _chain_label(t) -> str:
    return ("X=" + ";".join(_subspace_label(s) for s in t.X)
            + " Y=" + ";".join(_subspace_label(s) for s in t.Y))


def _print_witness(witness) -> None:
    print(f"witness: {witness!r}")


def _ppip_report(ppip: Ppip) -> None:
    print(f"points: {len(ppip.poset)}")
    print(f"inconsistent pairs: {len(ppip.inconsistent)}")
    print(f"collinear triples: {len(ppip.collinear)}")


# -- subcommands ---------------------------------------------------------

def _cmd_validate(args) -> int:
    poset = Poset.from_json(_load_json(args.input))
    if args.dot:
        _write(args.dot, poset.to_dot())
    try:
        lat = Semilattice.from_poset(poset)
    except NotSemilatticeError as exc:
        print("meet semilattice: no")
        _print_witness(exc.witness)
        return 1
    print("meet semilattice: yes")
    ok, witness = lat.is_modular_semilattice()
    if not ok:
        print("modular: no")
        _print_witness(witness)
        return 1
    print("modular: yes")
    med, _ = lat.is_median_semilattice()
    print(f"median: {'yes' if med else 'no'}")
    return 0


def _cmd_ppip(args) -> int:
    ppip = Ppip.from_json(_load_json(args.input))
    if args.emit:
        _emit_json(args.emit, ppip.to_json())
    if args.dot:
        _write(args.dot, ppip.to_dot())
    ok, witness = check_axioms(ppip)
    if not ok:
        print("axioms: no")
        _print_witness(witness)
        return 1
    print("axioms: ok")
    _ppip_report(ppip)
    return 0


def _cmd_birkhoff(args) -> int:
    lat = _load_semilattice(args.input)
    ok, witness = lat.is_modular_semilattice()
    if not ok:
        print("modular: no")
        _print_witness(witness)
        return 1
    ppip = induced_ppip(lat)
    emitted = _relabel_ppip(ppip, str)
    if args.emit:
        _emit_json(args.emit, emitted.to_json())
    if args.dot:
        _write(args.dot, emitted.to_dot())
    rt = birkhoff_roundtrip(lat)
    print(f"roundtrip: {'ok' if rt['ok'] else 'failed'}")
    print(f"family size: {len(lat)}")
    _ppip_report(ppip)
    return 0 if rt["ok"] else 1


def _cmd_product_ppip(args) -> int:
    data = _load_object(args.input, "explicit member", ("lattice", "n", "members"))
    lat = Semilattice.from_poset(Poset.from_json(data["lattice"]))
    n, members = data["n"], data["members"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(members, list) or not all(isinstance(m, list) for m in members):
        raise InputError("'members' must be a list of element lists")
    oracle = oracle_from_set(members, lat, n)
    ppip = build_ppip(oracle)
    emitted = _relabel_ppip(ppip, _vector_label)
    if args.emit:
        _emit_json(args.emit, emitted.to_json())
    if args.dot:
        _write(args.dot, emitted.to_dot())
    _ppip_report(ppip)
    if args.count_calls:
        bound = sum(len(l) for l in oracle.lattices) ** 2
        print(f"oracle calls: {oracle.call_counter} (bound {bound})")
    return 0


def _cmd_recognize(args) -> int:
    sigma = _load_sigma(args.input)
    ok, witness = recognize_modular_semilattice(sigma)
    if ok:
        print("modular semilattice: yes")
        return 0
    print("modular semilattice: no")
    _print_witness(witness)
    return 1


def _cmd_optimal_base(args) -> int:
    sigma = _load_sigma(args.input)
    base = optimal_base_from_implications(sigma, budget=args.budget)
    sys.stdout.write(base.to_text())
    print(f"size: {base.size()}")
    if args.emit:
        _emit_json(args.emit, base.to_json())
    return 0


def _cmd_closure(args) -> int:
    sigma = _load_sigma(args.input)
    xs = [s for s in args.set.split(",") if s]
    result = sigma.closure(xs)
    if not result.exists:
        print("closure: nonexistent")
        return 0
    members = [e for e in sigma.ground if e in result.value]
    print("closure: " + ",".join(str(e) for e in members))
    return 0


def _cmd_polar(args) -> int:
    data = _load_object(args.form, "form", ("p", "entries"))
    ppip = polar_space_ppip(data["entries"], data["p"])
    emitted = _relabel_ppip(ppip, _point_label)
    if args.emit:
        _emit_json(args.emit, emitted.to_json())
    if args.dot:
        _write(args.dot, emitted.to_dot())
    _ppip_report(ppip)
    return 0


def _cmd_mvsp(args) -> int:
    A = PartitionedMatrix.from_json(_load_json(args.input))
    optimum, oracle = mvsp_solve(A, budget=args.budget)
    print(f"optimum: {optimum}")
    print(f"minimizers: {len(oracle.members)}")
    ppip = build_ppip(oracle)
    print(f"irreducible points: {len(ppip.poset)}")
    if args.emit:
        _emit_json(args.emit, _relabel_ppip(ppip, _tuple_label).to_json())
    return 0


def _cmd_dm_decompose(args) -> int:
    A = PartitionedMatrix.from_json(_load_json(args.input))
    dm = dm_decompose(A, budget=args.budget)
    print(f"optimum: {dm.optimum}")
    print("stages: " + " ".join(f"({r},{c})" for r, c in dm.stages))
    print("transformed:")
    for row in dm.transformed.entries:
        print("  " + " ".join(str(x) for x in row))
    if args.emit_transforms:
        _emit_json(args.emit_transforms, {
            "p": A.p,
            "optimum": dm.optimum,
            "stages": [list(st) for st in dm.stages],
            "P": dm.P.to_lists(),
            "E_blocks": [E.to_lists() for E in dm.E_blocks],
            "F_blocks": [F.to_lists() for F in dm.F_blocks],
            "Q": dm.Q.to_lists(),
            "transformed": dm.transformed.to_lists(),
        })
    if args.emit_dot:
        lines = ["digraph chain {", "  rankdir=BT;", "  node [shape=box];"]
        for k, t in enumerate(dm.chain):
            lines.append(f'  c{k} [label="{_chain_label(t)}"];')
        for k in range(len(dm.chain) - 1):
            lines.append(f"  c{k} -> c{k + 1};")
        lines.append("}")
        _write(args.emit_dot, "\n".join(lines) + "\n")
    return 0


# -- parser --------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ppiprep",
        description="Validate, represent, recognize, optimize, and decompose "
                    "via projective point-line geometries.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        return p

    p = add("validate", _cmd_validate, "check a poset for semilattice/modular/median status")
    p.add_argument("--input", required=True)
    p.add_argument("--dot")

    p = add("ppip", _cmd_ppip, "check the axioms of a point-line structure")
    p.add_argument("--input", required=True)
    p.add_argument("--emit")
    p.add_argument("--dot")

    p = add("birkhoff", _cmd_birkhoff, "induced structure of a modular semilattice + round trip")
    p.add_argument("--input", required=True)
    p.add_argument("--emit")
    p.add_argument("--dot")

    p = add("product-ppip", _cmd_product_ppip, "representation of an explicit closed member set")
    p.add_argument("--input", required=True)
    p.add_argument("--emit")
    p.add_argument("--dot")
    p.add_argument("--count-calls", action="store_true")

    p = add("recognize", _cmd_recognize, "does an implicational system describe a modular semilattice")
    p.add_argument("--input", required=True)

    p = add("optimal-base", _cmd_optimal_base, "size-optimal base of a modular closure system")
    p.add_argument("--input", required=True)
    p.add_argument("--emit")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("closure", _cmd_closure, "closure of a set under an implicational system")
    p.add_argument("--input", required=True)
    p.add_argument("--set", required=True, help="comma separated elements")

    p = add("polar", _cmd_polar, "point-line structure of an alternating form")
    p.add_argument("--form", required=True)
    p.add_argument("--emit")
    p.add_argument("--dot")

    p = add("mvsp", _cmd_mvsp, "maximum vanishing subspace tuple of a partitioned matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--emit")
    p.add_argument("--budget", type=int, default=10 ** 6)

    p = add("dm-decompose", _cmd_dm_decompose, "coarsest block triangularization under transformations")
    p.add_argument("--input", required=True)
    p.add_argument("--emit-transforms")
    p.add_argument("--emit-dot")
    p.add_argument("--budget", type=int, default=10 ** 6)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (NotSemilatticeError, NotModularError, AxiomError) as exc:
        print(str(exc))
        witness = getattr(exc, "witness", None)
        if witness is not None:
            _print_witness(witness)
        return 1
    except AssertionError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
