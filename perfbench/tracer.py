"""Per-layer spans, recorded by wrapping the library's public entry points
from outside.

Methods are wrapped by patching their class attribute.  A function is
wrapped in every ``ppiprep`` module that binds it by name, so calls made
through an imported alias (``gflin`` calling ``build_ppip``, ``horn``
calling ``induced_ppip``) are recorded too.  Spans stay in memory as
``(span id, start, end, parent index, op id)`` and are aggregated or
written out after the run.  Private hot loops are not wrapped.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# layer (module of ppiprep) -> public entry points recorded as spans
SPANS = {
    "poset": ("Poset.__init__", "Poset.subposet"),
    "semilattice": ("Semilattice.__init__", "Semilattice.is_modular_semilattice",
                    "Semilattice.is_median_semilattice", "Semilattice.induced_inconsistency",
                    "Semilattice.induced_collinearity"),
    "ppip": ("check_axioms", "check_regularity", "check_weak_triangle", "induced_ppip",
             "consistent_subspaces", "birkhoff_roundtrip"),
    "horn": ("ImplicationalSystem.__init__", "ImplicationalSystem.closure",
             "ImplicationalSystem.closed_sets", "recognize_modular_semilattice", "irreducible_ppip",
             "optimal_base", "optimal_base_from_implications"),
    "product": ("oracle_from_set", "oracle_from_minimizers", "compute_bases",
                "join_irreducible_elements", "build_ppip"),
    "gflin": ("subspace_lattice", "polar_space_ppip", "mvsp_solve", "maximal_chain", "dm_decompose"),
}
SPAN_NAMES = [f"{layer}.{attr}" for layer, attrs in SPANS.items() for attr in attrs]
OP_SPAN = "bench.op"      # root span of each op; its self time is the harness's own share

COUNTS = {
    "horn.family_enumerations": "count",
    "product.oracle_calls": "count",
    "product.oracle_call_ratio": "ratio",
    "product.tuples_enumerated": "count",
    "product.minimizer_yield": "ratio",
    "poset.elements": "count",
    "semilattice.elements": "count",
    "ppip.collinear_triples": "count",
}


class Tracer:
    """Spans and counts of one traced replay; ``install`` wraps the entry
    points, ``run_op`` scopes one op, ``uninstall`` restores the library."""

    def __init__(self):
        self.names = [OP_SPAN] + SPAN_NAMES
        self.spans: list = []
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.raw = defaultdict(int)     # counts gathered from arguments and results
        self._undo: list = []

    # -- installing the wrappers -------------------------------------------------

    def install(self) -> None:
        import ppiprep
        from ppiprep import horn
        self._horn = horn
        hooks = {
            "poset.Poset.__init__": (None, self._count_elements("poset.elements")),
            "semilattice.Semilattice.__init__": (None, self._count_elements("semilattice.elements")),
            "ppip.check_weak_triangle": (None, self._count_collinear),
            "product.build_ppip": (lambda args: args[0].call_counter, self._count_oracle),
            "product.oracle_from_minimizers": (None, self._count_minimizers),
        }
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ppiprep" or name.startswith("ppiprep."))]
        for sid, name in enumerate(self.names[1:], start=1):
            layer, attr = name.split(".", 1)
            module = getattr(ppiprep, layer)
            pre, post = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(sid, orig, pre, post))
            else:
                orig = getattr(module, attr)
                wrapper = self._wrap(sid, orig, pre, post)
                bound = 0
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{name} is bound nowhere")

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _patch(self, owner, key, new) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def _wrap(self, sid, fn, pre, post):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            k = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(k)
            state = pre(args) if pre else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[k] = (sid, t0, t1, parent, self.op_id)
            if post:
                post(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- counts read from arguments and results ----------------------------------

    def _count_elements(self, key):
        def post(args, kwargs, result, state):
            self.raw[key] += len(args[0].elements)
        return post

    def _count_collinear(self, args, kwargs, result, state):
        self.raw["ppip.collinear_triples"] += len(args[0].collinear)

    def _count_oracle(self, args, kwargs, result, before):
        oracle = args[0]
        self.raw["product.oracle_calls"] += oracle.call_counter - before
        self.raw["oracle_call_bound"] += sum(len(lat) for lat in oracle.lattices) ** 2

    def _count_minimizers(self, args, kwargs, result, state):
        lattices = kwargs.get("lattices", args[1] if len(args) > 1 else None)
        n = kwargs.get("n", args[2] if len(args) > 2 else None)
        sizes = [len(lattices)] * n if n is not None else [len(lat) for lat in lattices]
        self.raw["product.tuples_enumerated"] += math.prod(sizes)
        self.raw["minimizers"] += len(result.members)

    # -- op scope ------------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root span; returns
        (result or None, exception or None, duration)."""
        self.op_id = op_id
        k = len(self.spans)
        self.spans.append(None)
        self.stack.append(k)
        enum_before = self._horn.FAMILY_ENUMERATIONS
        self.active = True
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:      # a failed op is recorded, not fatal
            exc = e
        t1 = time.perf_counter()
        self.active = False
        self.raw["horn.family_enumerations"] += self._horn.FAMILY_ENUMERATIONS - enum_before
        self.stack.pop()
        self.spans[k] = (0, t0, t1, -1, op_id)
        return result, exc, t1 - t0

    # -- aggregation -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for sid, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (sid, t0, t1, parent, op), c in zip(self.spans, child)]

    def metrics(self) -> dict:
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        selft = [0.0] * len(self.names)
        for (sid, t0, t1, parent, op), s in zip(self.spans, self.self_times()):
            calls[sid] += 1
            total[sid] += t1 - t0
            selft[sid] += s
        out = {}
        for sid, name in enumerate(self.names):
            if sid == 0:
                out[f"{name}.self_s"] = (selft[0], "s")
                continue
            out[f"{name}.calls"] = (calls[sid], "count")
            out[f"{name}.total_s"] = (total[sid], "s")
            out[f"{name}.self_s"] = (selft[sid], "s")
        for layer in SPANS:
            out[f"{layer}.self_s"] = (sum(selft[sid] for sid, name in enumerate(self.names)
                                          if name.startswith(layer + ".")), "s")
        raw = self.raw
        bound, tuples = raw["oracle_call_bound"], raw["product.tuples_enumerated"]
        values = dict(raw)
        values["product.oracle_call_ratio"] = raw["product.oracle_calls"] / bound if bound else 0.0
        values["product.minimizer_yield"] = raw["minimizers"] / tuples if tuples else 0.0
        for key, unit in COUNTS.items():
            out[key] = (values.get(key, 0), unit)
        return out

    def self_test(self, required) -> list[str]:
        """Problems with the recorded spans: a required span never called,
        a negative self time, or self times not summing to an op's total."""
        problems = []
        called = {self.names[sid] for sid, *_ in self.spans}
        problems += [f"span {name} recorded no call" for name in required if name not in called]
        selft = self.self_times()
        if min(selft, default=0.0) < -1e-9:
            problems.append(f"negative self time {min(selft)}")
        per_op = defaultdict(float)
        root = {}
        for (sid, t0, t1, parent, op), s in zip(self.spans, selft):
            per_op[op] += s
            if parent < 0:
                root[op] = t1 - t0
        bad = [op for op in root if abs(per_op[op] - root[op]) > 1e-9 * max(1.0, root[op]) + 1e-12]
        if bad:
            problems.append(f"self times do not sum to the op total in {len(bad)} ops")
        return problems

    def write(self, path, op_labels) -> None:
        """Spans as tab-separated lines: op id, op label, span index,
        parent index, span name, start and end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tinput\tspan\tparent\tname\tstart_s\tend_s\n")
            for k, (sid, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{op}\t{op_labels[op]}\t{k}\t{parent}\t{self.names[sid]}\t{t0:.9f}\t{t1:.9f}\n")
