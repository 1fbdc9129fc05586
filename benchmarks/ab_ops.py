"""Interleaved per-op A/B: the library at a base commit against the working tree.

    python benchmarks/ab_ops.py --workload spec-tasks [--base REV] [--rounds N] [--seed N]

Run from the root of a checkout.  The tool copies `src/latring` at REV (default
HEAD) out of git into a temporary directory as the package `latring_base`, and
imports it beside the working tree's `latring` in one process.  It builds the
ops of one perfbench workload with `perfbench/workloads.py`.  Each round runs
every op once on each version, back to back, and alternates which version goes
first.  Each op's two reports must be byte-identical, or the tool exits 1.
It prints each op's median time on both versions and the median change/base
ratio.  Its last line is the median of all per-op, per-round ratios, with
their quartiles.

Two sequential perfbench runs on a shared host differ by far more than a few
percent, so they cannot tell a small regression from noise.  Back-to-back
pairs see the same host state, so their ratio can.  Package data (the
gallery's expected labels) is read by the name `latring`, so both versions
read the working tree's copy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BASE_NAME = "latring_base"


def base_package(rev: str, into: Path):
    """Extract `src/latring` at `rev` into `into` as `BASE_NAME` and import it."""
    archive = subprocess.run(["git", "archive", rev, "src/latring"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "latring").rename(into / BASE_NAME)
    sys.path.insert(0, str(into))
    return importlib.import_module(f"{BASE_NAME}.cli")


def run_op(cli, argv) -> tuple[float, str]:
    """One op: its wall time and its report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        cli.main(list(argv))
        elapsed = perf_counter() - start
    return elapsed, out.getvalue()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("gallery", "posp-oracle", "spec-tasks"))
    parser.add_argument("--base", default="HEAD", help="git revision of the base version (default HEAD)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from latring import cli as change

    with tempfile.TemporaryDirectory() as tmp:
        base = base_package(args.base, Path(tmp) / "base")
        ops = workloads.build(args.workload, args.seed, Path(tmp)).ops
        versions = {"base": base, "change": change}
        times = {op.key: {"base": [], "change": []} for op in ops}
        for round_no in range(args.rounds + 1):  # round 0 warms both versions up
            for i, op in enumerate(ops):
                order = ("base", "change") if (round_no + i) % 2 == 0 else ("change", "base")
                reports = {}
                for name in order:
                    elapsed, reports[name] = run_op(versions[name], op.argv)
                    if round_no:
                        times[op.key][name].append(elapsed)
                if reports["base"] != reports["change"]:
                    print(f"reports differ on {op.key}", file=sys.stderr)
                    return 1

    ratios = []
    for key, t in times.items():
        per_round = [c / b for b, c in zip(t["base"], t["change"])]
        ratios += per_round
        print(f"{key}: base {statistics.median(t['base']) * 1e3:.2f} ms, "
              f"change {statistics.median(t['change']) * 1e3:.2f} ms, ratio {statistics.median(per_round):.3f}")
    q1, med, q3 = quartiles(ratios)
    print(f"{args.workload}: median change/base ratio {med:.3f} (quartiles {q1:.3f}-{q3:.3f}, "
          f"{len(ratios)} op runs, {args.rounds} rounds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
