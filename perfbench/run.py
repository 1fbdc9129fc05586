"""latring's benchmark: seeded CLI workloads run in a closed loop.

    python3 perfbench/run.py --workload gallery|posp-oracle|spec-tasks \
        [--seed N] [--seconds S] [--trace 0|1]

One client in one process and one thread sends one op at a time; an op is an
in-process call to `latring.cli.main(argv)` with `--format machine` and
stdout captured, and every op's output goes through the correctness gate.
Times are scaled by a gauge of the host's speed run between ops (gauge.py).
The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json; with `--trace 1` they are its per-layer ones, from passes
over the op pool that alternate untraced and traced.  Run from the root of
a checkout; the library is imported from its `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import gate
import gauge
import workloads
from tracing import OP, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 21
TAIL_BEYOND = 10
# With every op run this often, the TAIL_BEYOND ops beyond the tail are all
# runs of the slowest op, so the tail is that op's latency whatever the
# number of passes.
MIN_PASSES = TAIL_BEYOND + 1

# Timed in a fresh interpreter, so work moved into import time shows.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from latring.cli import build_parser
from latring.specfile import load_specdoc
build_parser()
for path in sys.argv[2:]:
    load_specdoc(path)
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    key: str
    seconds: float
    digest: str
    failure: str | None
    gauge_s: float = gauge.NOMINAL_S  # the gauge's time around this op


def _want(digests: dict | None, op) -> str | None:
    """The stored digest an op's output must match; only the default seed has them."""
    return None if digests is None else digests.get(op.key, "no stored digest")


def tail_percentile(samples) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least TAIL_BEYOND samples
    beyond it, as (value, percentile)."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"{len(xs)} samples leave none with {TAIL_BEYOND} beyond it")
    return xs[rank - 1], 100.0 * rank / len(xs)


def run_op(main, op, want_digest: str | None = None, tracer: Tracer | None = None) -> Outcome:
    """One closed-loop op; a traceback or a wrong output is a failed op, never an abort."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    index = tracer.begin(OP) if tracer is not None else None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        failure = "traceback: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.end(index)
    text = out.getvalue()
    if failure is None:
        failure = gate.check(op, rc, text, want_digest)
    return Outcome(op.key, seconds, gate.digest(text), failure)


def setup_seconds(specs) -> float:
    """Median over SETUP_SAMPLES fresh interpreters of the set-up time, each
    scaled by the gauge run in this process just before and after it."""
    samples = []
    gauge.gauge_seconds()  # the first run pays the interpreter's warm-up
    before = gauge.gauge_seconds()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, specs)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        after = gauge.gauge_seconds()
        samples.append(gauge.scaled(float(done.stdout.strip().splitlines()[-1]), (before + after) / 2))
        before = after
    return statistics.median(samples)


def closed_loop(main, ops, seconds: float, digests: dict | None) -> tuple[list[Outcome], float]:
    """Whole passes over the pool until `seconds` have passed and at least
    MIN_PASSES passes ran, so every op runs equally often; the gauge runs
    before the first op and after every op, and each op keeps the mean of
    the two around it."""
    outcomes = []
    before = gauge.gauge_seconds()
    t0 = perf_counter()
    for passes in itertools.count(1):
        for op in ops:
            outcome = run_op(main, op, _want(digests, op))
            after = gauge.gauge_seconds()
            outcomes.append(replace(outcome, gauge_s=(before + after) / 2))
            before = after
        elapsed = perf_counter() - t0
        if elapsed >= seconds and passes >= MIN_PASSES:
            return outcomes, elapsed


def typical_latencies(outcomes: list[Outcome]) -> list[float]:
    """Each outcome's latency replaced by its op's median gauge-scaled
    latency over the run, so each op counts at that latency as often as it
    ran, and a pause that hit one execution moves nothing."""
    scaled: dict[str, list[float]] = {}
    for o in outcomes:
        scaled.setdefault(o.key, []).append(gauge.scaled(o.seconds, o.gauge_s))
    typical = {key: statistics.median(xs) for key, xs in scaled.items()}
    return [typical[o.key] for o in outcomes]


def end_to_end(main, work, seconds: float, digests: dict | None):
    setup_s = setup_seconds(work.specs)
    # One untimed op first, so one-time costs in the process are paid.
    warm = run_op(main, work.ops[0], _want(digests, work.ops[0]))
    outcomes, elapsed = closed_loop(main, work.ops, seconds, digests)
    latencies = typical_latencies(outcomes)
    tail, pct = tail_percentile(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = [o for o in [warm] + outcomes if o.failure]
    notes = [
        f"closed loop, one client: {len(outcomes)} ops in {elapsed:.2f} s after 1 warm-up op "
        f"({len(outcomes) / elapsed:.4f} ops/s by the wall clock, gauge runs included), {len(work.ops)} ops a pass",
        f"gauge median {statistics.median(o.gauge_s for o in outcomes) * 1e3:.3f} ms, "
        f"nominal {gauge.NOMINAL_S * 1e3:.3f} ms; every time is scaled to the nominal gauge",
        f"op_tail_ms is p{pct:.2f}: {TAIL_BEYOND} of {len(outcomes)} ops lie beyond it",
        f"setup_s is the median of {SETUP_SAMPLES} fresh interpreters",
        f"fail_ratio {len(failed)}/{len(outcomes) + 1} = {len(failed) / (len(outcomes) + 1):.6f}",
    ]
    return metrics, len(outcomes) + 1, failed, notes, []


def per_layer(main, work, seconds: float, digests: dict | None, checks: dict):
    """Alternate untraced and traced passes over the pool; per-layer figures
    are per pass, so counts repeat exactly for a given seed."""
    tracer = Tracer()
    outcomes: list[Outcome] = []
    errors: list[str] = []
    untraced_s = traced_s = 0.0
    passes = 0
    def one_pass(traced: bool) -> list[Outcome]:
        if not traced:
            return [run_op(main, op, _want(digests, op)) for op in work.ops]
        outs = []
        tracer.install()
        try:
            for i, op in enumerate(work.ops):
                tracer.op = passes * len(work.ops) + i
                outs.append(run_op(main, op, _want(digests, op), tracer))
                if tracer.stack:
                    errors.append(f"{op.key}: {len(tracer.stack)} spans left open")
                    tracer.stack.clear()
        finally:
            tracer.uninstall()
        return outs

    t0 = perf_counter()
    while passes == 0 or perf_counter() - t0 < seconds:
        # Alternate which side runs first, so drift within a run cancels.
        order = (False, True) if passes % 2 == 0 else (True, False)
        runs = {traced: one_pass(traced) for traced in order}
        for op, a, b in zip(work.ops, runs[False], runs[True]):
            if a.digest != b.digest:
                errors.append(f"{op.key}: traced output differs from untraced output")
        untraced_s += sum(o.seconds for o in runs[False])
        traced_s += sum(o.seconds for o in runs[True])
        outcomes += runs[False] + runs[True]
        passes += 1

    selfs = self_times(tracer.spans)
    op_time = selfs.pop(OP) + sum(selfs.values())
    values = {}
    for name, count in tracer.calls.items():
        values[f"{name}.calls"] = count / passes
        if name in tracer.leaf_time:
            values[f"{name}.self_s"] = tracer.leaf_time[name] / passes
    for name, t in selfs.items():
        values[f"{name}.self_s"] = t / passes
    for name, count in tracer.counts.items():
        values[name] = count / passes
    values["elements.finvec.new"] = values.pop("elements.finvec.calls", 0)
    values["elements.evseq.new"] = values.pop("elements.evseq.calls", 0)
    window, span = tracer.counts["homs.posp_window"], tracer.counts["homs.posp_span"]
    values["homs.posp_window_coverage"] = window / span if span else 0.0
    values["trace.coverage"] = sum(selfs.values()) / op_time
    values["trace.overhead"] = traced_s / untraced_s

    for name in checks.get("nonzero", []):
        if not values.get(name):
            errors.append(f"{name} is 0 on {work.name}, where the design table predicts work")
    for name in checks.get("zero", []):
        if values.get(name):
            errors.append(f"{name} is {values[name]} on {work.name}, where the design table predicts none")
    for name, share in checks.get("share_at_least", {}).items():
        if values.get(name, 0) < share * op_time / passes:
            errors.append(f"{name} is under {share:.0%} of op time on {work.name}")
    values["trace.errors"] = len(errors)

    failed = [o for o in outcomes if o.failure]
    notes = [
        f"{passes} passes of {len(work.ops)} ops, each run untraced then traced; figures are per pass",
        f"trace.overhead {values['trace.overhead']:.3f} = {traced_s:.2f} s traced / {untraced_s:.2f} s untraced",
        *(f"trace error: {e}" for e in errors[:20]),
    ]
    return values, len(outcomes), failed, notes, errors


def _metric_specs(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latring" / "__init__.py").is_file():
        print(f"error: no latring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import latring
    from latring.cli import main as cli_main

    if Path(latring.__file__).resolve().parent != SRC / "latring":
        print(f"error: imported latring from {latring.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    specs = _metric_specs(bool(args.trace))
    digests = None
    if args.seed == workloads.DEFAULT_SEED:
        digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[args.workload]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        work = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
            checks = design["checks"][args.workload]
            values, attempted, failed, notes, errors = per_layer(cli_main, work, args.seconds, digests, checks)
        else:
            values, attempted, failed, notes, errors = end_to_end(cli_main, work, args.seconds, digests)
        # A layer the workload never enters has no entry: its figures are 0.
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + [f"failed op {o.key}: {o.failure}" for o in failed[:20]]:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6f} {m['unit']}")
    result = {"correct": not failed and not errors, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
