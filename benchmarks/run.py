"""Benchmark of ``opmodel``: end-to-end metrics, or per-layer metrics with tracing.

Run from the repository root:

    python3 benchmarks/run.py --workload lsi-cli --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --sweep            # ungated scaling curve

One process, one client, one thread, closed loop: the next op starts when
the previous one returns.  The benchmark imports ``opmodel`` from ``src/``
of this checkout and refuses to run without it.  Inputs come from the seed;
the time to make them is not part of ``setup_s``.  Every timed interval is
scaled to a nominal machine speed by a reference kernel timed around it (see
``speed.py``); the raw wall times are printed too.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
sets up once more with every layer traced, then runs the op stream in
chunks of about 0.1 s: each chunk untraced, then the same ops again
traced.  It reports the per-layer metrics of the traced ops and the tracing
overhead (traced / untraced time of the same ops, minus 1).
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, Scaler, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
MAX_REASONS = 5
TRACE_CHUNK_S = 0.1
MIN_P90_OPS = 100   # so that at least 10 samples lie beyond the 90th percentile


def fresh_import():
    """Import ``opmodel`` from scratch, dropping any copy imported before."""
    for key in [k for k in sys.modules
                if k == "opmodel" or k.startswith("opmodel.")]:
        del sys.modules[key]
    opmodel = importlib.import_module("opmodel")
    importlib.import_module("opmodel.cli")
    return opmodel


def set_up(workload) -> list[float]:
    """Import and set up ``setup_reps`` times; return the scaled times.

    The last set-up is the one the ops use.
    """
    times = []
    scaler = Scaler()
    for _ in range(workload.setup_reps):
        t0 = perf_counter()
        workload.setup(fresh_import())
        elapsed = perf_counter() - t0
        times.append(elapsed * scaler.scale(elapsed))
    return times


class Phase:
    """Op times and failures of a closed-loop pass over the op stream."""

    def __init__(self) -> None:
        self.durations: list[float] = []   # wall seconds
        self.scales: list[float] = []      # machine-speed factor per op
        self.kinds: list[str] = []
        self.failed = 0
        self.reasons: list[str] = []

    def scaled(self) -> list[float]:
        return [d * s for d, s in zip(self.durations, self.scales)]


def measure(ops, seconds: float, phase: Phase, tracer=None) -> list:
    """Run ops until ``seconds`` have passed; return the ops that ran."""
    ran = []
    scaler = Scaler()
    began = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.trace_id = len(phase.durations)
        t0 = perf_counter()
        try:
            result, problem = op.call(), ""
        except Exception:  # a raising op is a failed op; the run goes on
            result, problem = None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - t0
        phase.durations.append(elapsed)
        phase.scales.append(scaler.scale(elapsed))
        phase.kinds.append(op.kind)
        ran.append(op)
        if tracer is not None:
            tracer.end_op()
        problem = problem or op.check(result)
        if problem:
            phase.failed += 1
            if len(phase.reasons) < MAX_REASONS:
                phase.reasons.append(f"{op.kind}: {problem}")
        if perf_counter() - began >= seconds:
            break
    return ran


def measure_traced(workload, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Run chunks of the op stream untraced, then the same chunk traced.

    Pairing each chunk with its traced repeat, close in time, keeps drifts
    in machine speed out of the tracing overhead.
    """
    untraced, traced = Phase(), Phase()
    stream = workload.ops()
    scaler = Scaler()
    t0 = perf_counter()
    tracer.install()
    try:
        tracer.trace_id = -1
        workload.setup(sys.modules["opmodel"])
    finally:
        tracer.uninstall()
    tracer.setup_scale = scaler.scale(perf_counter() - t0)
    began = perf_counter()
    while perf_counter() - began < seconds:
        chunk = measure(stream, TRACE_CHUNK_S, untraced)
        tracer.install()
        try:
            measure(chunk, float("inf"), traced, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    d = phase.scaled()
    return {
        "op_p50_ms": (statistics.median(d) * 1e3, "ms"),
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def report_ops(phase: Phase, setup_times: list[float]) -> None:
    """Print sample counts, raw times, the 90th percentile and op kinds."""
    d = phase.scaled()
    print(f"# {len(d)} ops; {len(setup_times)} set-ups; wall op p50 "
          f"{statistics.median(phase.durations) * 1e3:.6g} ms, machine-speed "
          f"factor p50 {statistics.median(phase.scales):.4g}")
    if len(d) >= MIN_P90_OPS:
        print(f"# op_p90_ms {statistics.quantiles(d, n=10)[8] * 1e3:.6g} ms")
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(phase.kinds, d):
        by_kind.setdefault(kind, []).append(t)
    for kind, times in sorted(by_kind.items()):
        print(f"# op {kind}: n={len(times)} "
              f"p50={statistics.median(times) * 1e3:.3f} ms")


def run(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR, SRC)
    setup_times = set_up(workload)
    if args.trace:
        tracer = Tracer()
        phases = measure_traced(workload, args.seconds, tracer)
        untraced, traced = phases
        overhead = sum(traced.scaled()) / sum(untraced.scaled()) - 1
        metrics = tracer.layer_metrics(traced.scales)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        spans = WORKDIR / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans)
        print(f"# {len(tracer.name)} spans written to {spans}")
        print(f"# tracing overhead {overhead:.1%} over {len(traced.durations)} "
              "ops run both ways")
    else:
        phase = Phase()
        measure(workload.ops(), args.seconds, phase)
        phases = [phase]
        metrics = end_to_end(phase, setup_times)
        report_ops(phase, setup_times)

    attempted = sum(len(p.durations) for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for reason in p.reasons:
            print(f"# wrong: {reason}")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def sweep(args) -> int:
    """Time one synth-check op, one elaborate and one root diagnose per size."""
    from synth import Shape, SynthModel
    from workloads import check_synth_report, run_cli

    opmodel = fresh_import()
    WORKDIR.mkdir(exist_ok=True)
    print(f"# wall times; the reference kernel takes "
          f"{reference_time(0.1) * 1e3:.3f} ms here, {REFERENCE_S * 1e3:g} ms "
          "on the nominal machine")
    print("leaves  check_s  elaborate_ms  diagnose_ms")
    for depth in (2, 3, 4, 5):
        m = SynthModel(Shape(depth=depth), args.seed)
        path = WORKDIR / f"sweep-{depth}.opm"
        path.write_text(m.text, encoding="utf-8")
        t0 = perf_counter()
        result = run_cli(["check", str(path), "--functor", "P", "--functor",
                          "M", "--functor", "S"])
        check_s = perf_counter() - t0
        problem = check_synth_report(m.check_verdict(False), result)
        model = opmodel.parse(m.text)
        term = opmodel.parse_term(m.roots["a"].term())
        t0 = perf_counter()
        opmodel.elaborate(model.presentation, term)
        elaborate_ms = (perf_counter() - t0) * 1e3
        t0 = perf_counter()
        post = opmodel.diagnose(model.presentation, model.stoch_functors["S"],
                                term, "x0")
        diagnose_ms = (perf_counter() - t0) * 1e3
        if dict(post.entries) != m.posterior(m.roots["a"], "x0"):
            problem = problem or "posterior differs"
        print(f"{m.shape.leaves:6d}  {check_s:7.3f}  {elaborate_ms:12.1f}  "
              f"{diagnose_ms:11.1f}" + (f"  WRONG: {problem}" if problem else ""))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("lsi-cli", "synth-check",
                                               "synth-query"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="print the scaling curve at 16..1024 leaves")
    args = parser.parse_args()
    if not (SRC / "opmodel" / "__init__.py").is_file():
        print(f"error: no opmodel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.sweep:
        return sweep(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
