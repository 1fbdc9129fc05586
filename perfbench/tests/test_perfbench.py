"""Tests for the benchmark itself: percentile selection, self time from
nested spans, failure accounting, and that its files agree with each other.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gauge  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import BOUNDARIES, LEAF, Span, Tracer, self_times  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())


# ---------------------------------------------------------------------------
# Tail percentile.

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail_percentile(range(1, 101))
    assert (value, pct) == (90, 90.0)
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    samples = [5, 3, 9, 1, 7, 2, 8, 4, 6, 11, 10]
    value, pct = run.tail_percentile(samples)
    assert value == 1
    assert pct == pytest.approx(100 / 11)


def test_tail_counts_beyond_by_rank_with_ties():
    value, pct = run.tail_percentile([1.0] * 15 + [2.0] * 5)
    assert (value, pct) == (1.0, 50.0)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


def test_each_op_counts_at_its_median_scaled_latency_as_often_as_it_ran():
    nominal = gauge.NOMINAL_S
    runs = (("a", 3.0, nominal), ("b", 5.0, 2 * nominal), ("a", 1.0, nominal / 2), ("a", 8.0, nominal))
    outcomes = [run.Outcome(k, t, "", None, g) for k, t, g in runs]
    assert run.typical_latencies(outcomes) == pytest.approx([3.0, 2.5, 3.0, 3.0])


def test_with_min_passes_the_tail_is_the_slowest_op():
    pool = [1.0, 2.0, 3.0, 9.0]
    for passes in range(run.MIN_PASSES, run.MIN_PASSES + 5):
        assert run.tail_percentile(pool * passes)[0] == 9.0


# ---------------------------------------------------------------------------
# Self time.

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0, None, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 7.0),
        Span("b", 0, 1, 2.0, 5.0),
        Span("a", 0, 2, 3.0, 4.0),  # a nested inside b inside a
        Span("b", 0, 0, 8.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs["op"] == pytest.approx(10 - 6 - 1)
    assert selfs["a"] == pytest.approx((6 - 3) + 1)
    assert selfs["b"] == pytest.approx((3 - 1) + 1)
    assert sum(selfs.values()) == pytest.approx(10)


def test_wrapped_spans_nest_and_leaves_do_not_carve_self_time():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap(leaf, "leaf", LEAF)

    def inner():
        return wrapped_leaf(wrapped_leaf(1))

    wrapped_inner = tracer.wrap(inner, "inner", "span")
    wrapped_outer = tracer.wrap(lambda: wrapped_inner() + wrapped_inner(), "outer", "span")
    assert wrapped_outer() == 6
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 4}
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert not tracer.stack
    selfs = self_times(tracer.spans)
    inner_total = sum(s.end - s.start for s in tracer.spans if s.name == "inner")
    assert selfs["inner"] == pytest.approx(inner_total)
    assert tracer.leaf_time["leaf"] <= inner_total


def test_install_rebinds_imported_names_and_uninstall_restores():
    from latring import audits, cli, homs

    original = homs.positive_part
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.positive_part is homs.positive_part is audits.positive_part
        assert homs.positive_part is not original
        assert homs.MatrixHom.apply.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cli.positive_part is original and audits.positive_part is original
    assert not hasattr(homs.MatrixHom.apply, "__wrapped__")


# ---------------------------------------------------------------------------
# Failure accounting.

def _fake_main(argv):
    """Stands in for latring.cli.main: a passing report, a failing one, or a traceback."""
    if argv[0] == "boom":
        raise RuntimeError("planted")
    passed = argv[0] == "good"
    sys.stdout.write(json.dumps({"passed": passed, "results": {"k": {"status": "PASS" if passed else "FAIL"}}}))
    return 0 if passed else 1


def test_planted_failing_ops_count_toward_fail_ratio_without_aborting():
    ops = [workloads.Op(name, (name,)) for name in ("good", "bad", "good", "boom")]
    outcomes, _ = run.closed_loop(_fake_main, ops, 0, None)
    assert len(outcomes) == run.MIN_PASSES * len(ops)
    failures = [o.failure for o in outcomes if o.failure]
    assert len(failures) / len(outcomes) == pytest.approx(0.5)
    assert any(f.startswith("traceback:") for f in failures)
    assert any(f.startswith("exit code 1") for f in failures)


def test_wrong_digest_fails_the_gate():
    op = workloads.Op("good", ("good",))
    assert run.run_op(_fake_main, op).failure is None
    assert run.run_op(_fake_main, op, "0" * 64).failure.startswith("sha256")


def test_gate_checks_verdicts_and_oracle_agreement():
    from latring.cli import main

    argv = ("posp", "t", "--spec", str(HERE.parent / "specs" / "qn2_demo.json"), "--cases", "5", "--format", "machine")
    assert run.run_op(main, workloads.Op("posp", argv, oracle_cases=5)).failure is None
    assert "oracle_agreement" in run.run_op(main, workloads.Op("posp", argv, oracle_cases=6)).failure
    bad_verdict = workloads.Op("posp", argv, {"posp:t": "CONVERGENT"})
    assert "verdict" in run.run_op(main, bad_verdict).failure


# ---------------------------------------------------------------------------
# The benchmark's files agree with each other.

def test_workloads_are_seeded_and_keep_their_shape(tmp_path):
    for name in workloads.GENERATORS:
        dirs = [tmp_path / f"{name}-{i}" for i in range(3)]
        for d in dirs:
            d.mkdir()
        a, b, c = (workloads.build(name, seed, d) for seed, d in zip((5, 5, 6), dirs))
        assert [op.key for op in a.ops] == [op.key for op in b.ops]
        assert [p.read_text() for p in a.specs] == [p.read_text() for p in b.specs]
        assert [op.key for op in c.ops] + [p.read_text() for p in c.specs] != [op.key for op in a.ops] + [
            p.read_text() for p in a.specs
        ]
        assert [op.argv[0] for op in c.ops] == [op.argv[0] for op in a.ops]


def test_default_seed_has_a_digest_for_every_op(tmp_path):
    digests = json.loads((HERE / "digests.json").read_text())
    for name in workloads.GENERATORS:
        work = workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
        assert {op.key for op in work.ops} == set(digests[name])


def test_per_layer_metrics_name_traced_layers():
    layers = {b[2] for b in BOUNDARIES}
    counts = {"homs.oracle.vertices", "homs.matrix_apply.mults", "audits.cases", "elements.finvec.new",
              "elements.evseq.new", "homs.posp_window_coverage", "trace.coverage", "trace.overhead", "trace.errors"}
    names = [m["name"] for m in BENCH["per_layer"]]
    for name in names:
        assert name in counts or name.rsplit(".", 1)[0] in layers, name
    design_names = {n for row in DESIGN["layers"] for n in row["metrics"]}
    assert design_names == set(names)
    for checks in DESIGN["checks"].values():
        for key in ("nonzero", "zero", "share_at_least"):
            assert set(checks.get(key, ())) <= set(names)
    assert set(DESIGN["checks"]) == set(workloads.GENERATORS) == {w["name"] for w in BENCH["workloads"]}
