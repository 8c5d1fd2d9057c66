"""Span tracing around the public functions of each ``opmodel`` layer.

The wrappers live here, not in the library: :meth:`Tracer.install` replaces
each traced function at every import site (its defining module, every other
``opmodel`` module that imported it, and the package namespace), so calls
between layers and recursive calls such as ``presentation.elaborate`` all
pass through a wrapper.  :meth:`Tracer.uninstall` restores the originals.

Each span records its name, start, end, parent span and the trace id of the
op it belongs to, in flat arrays kept in memory; :meth:`Tracer.write` dumps
them at the end of a run.  Self time is a span's duration minus the time its
child spans cover.  Output sizes (wires, pairs, kernel entries) are measured
after each op, outside every timed interval.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "dsl", "presentation", "portgraph", "prob", "modes",
          "stoch", "rates")


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def _kernel_size(tracer: "Tracer", args, result) -> int:
    tracer.max_den_bits = max(tracer.max_den_bits,
                              _den_bits(result.entries.values()))
    return len(result.entries)


def _posterior_size(tracer: "Tracer", args, result) -> int:
    tracer.max_den_bits = max(tracer.max_den_bits,
                              _den_bits(p for _, p in result.entries))
    return sum(1 for _, p in result.entries if p)


# layer -> {function name: output measure or None}
TRACED = {
    "cli": {"run": None},
    "dsl": {"parse": lambda tr, args, result: len(args[0])},
    "presentation": {
        "parse_term": None,
        "elaborate": lambda tr, args, result: id(args[1]),
        "leaf_paths": None,
        "resolve_leaf": None,
        "equation_correspondence": None,
        "check_equation": None,
        "compile_presentation": None,
    },
    "portgraph": {
        "compose": lambda tr, args, result: len(result.wires),
        "canonicalize": None,
        "validate": None,
        "equal": None,
        "derive_correspondence": None,
    },
    "prob": {
        "compose_dist": None,
        "leaf_probability": None,
        "check_prob_functor": None,
    },
    "modes": {
        "compose_rel": lambda tr, args, result: sum(
            map(len, result.pairs.values())),
        "can_cause": None,
        "check_mode_functor": None,
    },
    "stoch": {
        "compose_kernel": _kernel_size,
        "pt_condition": None,
        "check_lifting": None,
        "diagnose": _posterior_size,
    },
    "rates": {"pipeline_check": None},
}

ERROR, NESTED = 1, 2   # span flags: raised; same function already active


class Tracer:
    """Records spans of the wrapped functions for one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.aux = array("q")
        self.trace_id = 0
        self.setup_scale = 1.0
        self.max_den_bits = 0
        self._stack: list[int] = []
        self._active: list[int] = []
        self._pending: list = []
        self._saved: list = []

    # installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of :data:`TRACED` at all of its import sites."""
        modules = [m for key, m in sys.modules.items()
                   if key == "opmodel" or key.startswith("opmodel.")]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"opmodel.{layer}"]
            for fname, measure in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, measure)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, qualname: str, fn, measure):
        if qualname not in self.names:
            self.names.append(qualname)
            self._active.append(0)
        name_id = self.names.index(qualname)
        names, parent, trace = self.name, self.parent, self.trace
        start, end, flags, aux = self.start, self.end, self.flags, self.aux
        stack, active, pending = self._stack, self._active, self._pending

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            trace.append(self.trace_id)
            flags.append(NESTED if active[name_id] else 0)
            aux.append(0)
            end.append(0.0)
            stack.append(sid)
            active[name_id] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags[sid] |= ERROR
                raise
            finally:
                end[sid] = perf_counter()
                active[name_id] -= 1
                stack.pop()
            if measure is not None:
                pending.append((sid, measure, args, result))
            return result

        return traced

    def end_op(self) -> None:
        """Measure the outputs of the op that just finished (untimed)."""
        for sid, measure, args, result in self._pending:
            self.aux[sid] = measure(self, args, result)
        self._pending.clear()

    # output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as a tab-separated line (times in ns)."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("trace\tspan\tparent\tname\tstart_ns\tend_ns\terror\taux\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                f.write(f"{self.trace[i]}\t{i}\t{self.parent[i]}\t"
                        f"{self.names[self.name[i]]}\t"
                        f"{round((self.start[i] - t0) * 1e9)}\t"
                        f"{round((self.end[i] - t0) * 1e9)}\t"
                        f"{self.flags[i] & ERROR}\t{self.aux[i]}\n")

    def layer_metrics(self, scales: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalised per op where they are sums.

        ``scales[t]`` is the machine-speed factor of the op with trace id
        ``t``; span times are scaled by it.  Spans of trace id -1 belong to
        the traced set-up, scaled by ``setup_scale``: they count only in
        ``dsl.setup_parse_ms``.
        """
        n = len(self.name)
        ops = len(scales)
        factor = [scales[t] if t >= 0 else self.setup_scale for t in self.trace]
        dur = [(self.end[i] - self.start[i]) * factor[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        by_name: dict[str, list[int]] = defaultdict(list)   # op spans only
        setup_parse = 0.0
        for i in range(n):
            if self.trace[i] >= 0:
                by_name[self.names[self.name[i]]].append(i)
            elif self.names[self.name[i]] == "dsl.parse":
                setup_parse += dur[i]

        def calls(fn):
            return len(by_name[fn]) / ops, "count/op"

        def self_ms(fn):
            return sum(dur[i] - child[i] for i in by_name[fn]) * 1e3 / ops, "ms/op"

        def ms(fn):   # inclusive, counting recursive calls once
            return sum(dur[i] for i in by_name[fn]
                       if not self.flags[i] & NESTED) * 1e3 / ops, "ms/op"

        def out(fn):
            return sum(self.aux[i] for i in by_name[fn]) / ops, "count/op"

        def layer_of(i):
            return self.names[self.name[i]].split(".")[0]

        cli_self = sum(dur[i] - child[i] for i in range(n)
                       if layer_of(i) == "cli" and self.trace[i] >= 0)
        parse = by_name["dsl.parse"]
        parse_s = sum(dur[i] for i in parse)
        elab = by_name["presentation.elaborate"]
        distinct = len({(self.trace[i], self.aux[i]) for i in elab})
        posterior = sum(self.aux[i] for i in by_name["stoch.diagnose"])
        diag_name = self.names.index("stoch.diagnose")
        composed = 0
        for i in by_name["stoch.compose_kernel"]:
            p = self.parent[i]
            while p >= 0 and self.name[p] != diag_name:
                p = self.parent[p]
            if p >= 0:
                composed += self.aux[i]

        m = {
            "cli.self_ms": (cli_self * 1e3 / ops, "ms/op"),
            "dsl.parse_ms": ms("dsl.parse"),
            "dsl.parse_calls": calls("dsl.parse"),
            "dsl.setup_parse_ms": (setup_parse * 1e3, "ms"),
            "dsl.bytes_per_s": (
                sum(self.aux[i] for i in parse) / parse_s if parse_s else 0.0,
                "B/s"),
            "presentation.elaborate_calls": calls("presentation.elaborate"),
            "presentation.elaborate_self_ms": self_ms("presentation.elaborate"),
            "presentation.elaborate_distinct_ratio": (
                distinct / len(elab) if elab else 0.0, "ratio"),
            "presentation.compile_self_ms":
                self_ms("presentation.compile_presentation"),
            "presentation.equation_correspondence_calls":
                calls("presentation.equation_correspondence"),
            "presentation.leaf_paths_ms": ms("presentation.leaf_paths"),
            "portgraph.compose_calls": calls("portgraph.compose"),
            "portgraph.compose_self_ms": self_ms("portgraph.compose"),
            "portgraph.canonicalize_calls": calls("portgraph.canonicalize"),
            "portgraph.canonicalize_self_ms": self_ms("portgraph.canonicalize"),
            "portgraph.validate_ms": ms("portgraph.validate"),
            "portgraph.equal_ms": ms("portgraph.equal"),
            "portgraph.wires_out": out("portgraph.compose"),
            "prob.compose_dist_calls": calls("prob.compose_dist"),
            "prob.compose_dist_ms": ms("prob.compose_dist"),
            "prob.check_ms": ms("prob.check_prob_functor"),
            "prob.leaf_probability_ms": ms("prob.leaf_probability"),
            "modes.compose_rel_calls": calls("modes.compose_rel"),
            "modes.compose_rel_ms": ms("modes.compose_rel"),
            "modes.pairs_out": out("modes.compose_rel"),
            "modes.check_ms": ms("modes.check_mode_functor"),
            "modes.can_cause_ms": ms("modes.can_cause"),
            "stoch.compose_kernel_calls": calls("stoch.compose_kernel"),
            "stoch.compose_kernel_ms": ms("stoch.compose_kernel"),
            "stoch.kernel_entries_out": out("stoch.compose_kernel"),
            "stoch.pt_condition_ms": ms("stoch.pt_condition"),
            "stoch.check_lifting_self_ms": self_ms("stoch.check_lifting"),
            "stoch.diagnose_self_ms": self_ms("stoch.diagnose"),
            "stoch.diagnose_row_use_ratio": (
                posterior / composed if composed else 0.0, "ratio"),
            "stoch.max_denominator_bits": (float(self.max_den_bits), "bits"),
            "rates.pipeline_check_calls": calls("rates.pipeline_check"),
            "rates.pipeline_check_ms": ms("rates.pipeline_check"),
        }
        # an exception escapes a layer when it leaves a span whose caller
        # is outside that layer
        errors = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            if self.flags[i] & ERROR and self.trace[i] >= 0:
                p = self.parent[i]
                if p < 0 or layer_of(p) != layer_of(i):
                    errors[layer_of(i)] += 1
        for layer in LAYERS:
            m[f"{layer}.errors"] = (errors[layer] / ops, "count/op")
        m["trace.spans_per_op"] = (
            sum(1 for t in self.trace if t >= 0) / ops, "count/op")
        return m
