"""One round of each workload passes its checks; only the operations that
name a known fault may fail."""

import sys
from pathlib import Path

import pytest

import run
import tracing
import viviani.gridsearch
import viviani.kernels
import workloads

ROOT = Path(__file__).resolve().parents[2]

# the rescaled copies overflow inside the solver
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def one_round(w, tracer):
    runner = run.Runner(tracer)
    w.prepare()
    try:
        for op in w.make_round(0):
            runner.run_op(op, 0, record=True)
        runner.end_round()
    finally:
        w.close()
    return runner


@pytest.mark.parametrize("name", ["median_small2d", "median_sweep_nd", "viviani_roundtrip"])
def test_round_passes(name):
    runner = one_round(workloads.WORKLOADS[name](3, str(ROOT)), tracing.NullTracer())
    assert runner.unexpected == []
    assert runner.attempted == len(workloads.WORKLOADS[name](3, str(ROOT)).make_round(0))
    assert runner.round_rates[0] > 0


def test_rescaled_copies_are_the_only_failures():
    w = workloads.MedianSmall2d(5, str(ROOT))
    faults = sum(op.fault is not None for op in w.make_round(0))
    runner = one_round(w, tracing.NullTracer())
    assert runner.failed <= faults
    assert sum(runner.faults.values()) == runner.failed


def test_same_seed_same_inputs():
    a = workloads.VivianiRoundtrip(9, str(ROOT)).make_round(4)
    b = workloads.VivianiRoundtrip(9, str(ROOT)).make_round(4)
    ta, tb = tracing.Tracer(), tracing.Tracer()
    for op_a, op_b in zip(a, b):
        op_a.run(ta)
        op_b.run(tb)
    assert ta.counts == tb.counts


def test_cli_cycle_passes():
    w = workloads.CliCold(4, str(ROOT))
    runner = one_round(w, tracing.NullTracer())
    assert runner.unexpected == []
    assert runner.attempted == 9
    assert w.peak_rss_mb() > 0


def test_cli_children_load_bytecode_written_in_place(monkeypatch):
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(ROOT / "no-such-dir"))
    w = workloads.CliCold(4, str(ROOT))
    assert "PYTHONPYCACHEPREFIX" not in w.env
    w.prepare()
    w.close()
    package = ROOT / "src" / "viviani"
    tag = sys.implementation.cache_tag
    for source in package.glob("*.py"):
        assert (package / "__pycache__" / f"{source.stem}.{tag}.pyc").exists()


def test_child_reports_its_own_exit_code_output_and_memory(tmp_path):
    child = workloads.run_child(
        [sys.executable, "-c", "import sys; print('out'); sys.exit(3)"], str(tmp_path), {})
    assert (child.returncode, child.stdout, child.maxrss_kb > 0) == (3, b"out\n", True)
    assert list(tmp_path.iterdir()) == []


def test_grid_cells_are_counted_at_the_kernel():
    extra = workloads.MedianSmall2d(3, str(ROOT)).after(tracing.Tracer())
    assert extra["gridsearch.cells"] > 0
    assert viviani.gridsearch.grid_min_2d is viviani.kernels.grid_min_2d


def test_setup_runs_in_a_fresh_interpreter():
    seconds, unexpected = run.timed_setup("median_sweep_nd", 1)
    assert seconds > 0 and unexpected == []


def test_traced_round_reports_every_layer_metric():
    T = tracing.Tracer()
    one_round(workloads.VivianiRoundtrip(2, str(ROOT)), T)
    metrics = run.layer_metrics(T, {})
    for name in ("sampling.sample_points_ms", "duality.viviani_to_fermat_ms",
                 "document.parse_ms", "polytope.generate_ms", "fermat.solve_ms"):
        assert metrics[name][0] > 0
    assert metrics["sampling.draws"][0] == sum(T.round_counts("sampling.draws"))
    shares = T.layer_shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_tail_has_ten_samples_beyond():
    values = sorted(float(i) for i in range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


def test_import_time_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        900 |   numpy\n"
            "import time:        50 |       1500 | viviani\n")
    assert workloads._import_cumulative_us(text) == {"numpy": 900, "viviani": 1500}
