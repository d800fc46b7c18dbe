"""Self-test of the benchmark harness at a tiny mesh size.

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import filtbem  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# every metric the benchmark promises, by the names its issue gave them
NAMED = {
    "end_to_end": ["setup_s", "peak_rss_mb", "skeleton_mb", "rhs_per_s",
                   "rhs_p50_ms", "rhs_p95_ms"],
    "per_layer": [
        "special.hankel_s", "special.hankel_values", "assembly2d.helmholtz_pair_s",
        "assembly2d.double_layer_s", "assembly2d.self_s", "spectral.sym_sqrt_s",
        "spectral.laplacian_filter_s", "calderon2d.assemble_operators_self_s",
        "calderon2d.build_filtered_system_self_s", "calderon2d.normalized_rhs_ms",
        "excitation2d.assemble_rhs_ms", "compression.lowrank_factor_s",
        "compression.rank", "compression.achieved_error", "compression.unconverged",
        "solver.woodbury_factorize_ms", "solver.core_cond", "solver.apply_us",
        "solver.rel_error", "solver.dense_ref_s", "mem.peak_nxn", "trace.overhead",
    ] + [f"mem.{stage}_rss_mb" for stage in harness.STAGES],
}


def tiny(name):
    wl = harness.WORKLOADS[name]
    return replace(wl, n=128, filter_n=min(wl.filter_n, 64))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(harness.WORKLOADS, name, tiny(name))
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(NAMED["per_layer" if trace else "end_to_end"]) <= {m["name"] for m in section}
    assert summary["metrics"] == {
        m["name"]: {"value": summary["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in section}
    assert all(np.isfinite(v["value"]) for v in summary["metrics"].values())
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 2 * harness.MIN_SWEEP + tiny(name).setups


def test_perturbed_solution_counts_as_failed(monkeypatch):
    wl = tiny("table-efie")
    apply = filtbem.WoodburyInverse.apply
    monkeypatch.setattr(filtbem.WoodburyInverse, "apply",
                        lambda self, rhs: apply(self, rhs) * (1.0 + 10 * wl.epsilon))
    result = harness.run(wl, seed=3, seconds=0)
    assert result.attempted == 2 * harness.MIN_SWEEP + wl.setups
    assert result.failed == result.attempted


def test_same_seed_reproduces_rank_and_skeleton():
    wl = tiny("cfie-lobed")
    timed = [harness.run(wl, seed=7, seconds=0).metrics for _ in range(2)]
    traced = [harness.run(wl, seed=7, seconds=0, trace=True).metrics for _ in range(2)]
    assert timed[0]["skeleton_mb"] == timed[1]["skeleton_mb"]
    assert traced[0]["compression.rank"] == traced[1]["compression.rank"]


def test_spans_nest_and_add_up_to_the_set_up_time():
    wl = tiny("cfie-lobed")
    build_mesh = filtbem.build_mesh
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        setup = harness.set_up(wl, harness.make_source(wl, 0.5), 0)
    assert filtbem.build_mesh is build_mesh           # originals restored

    by_id = {s.sid: s for s in tracer.spans}
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == list(harness.STAGES)
    parents = {by_id[s.parent].name for s in tracer.spans if s.name == "assemble_double_layer"}
    assert parents == {"assemble_operators"}
    hankel_callers = {by_id[s.parent].layer for s in tracer.spans if s.layer == "special"}
    assert hankel_callers == {"assembly2d", "excitation2d"}   # kernels and line-source moments

    top_s = sum(s.seconds for s in top)
    assert sum(tracer.self_seconds()) == pytest.approx(top_s, rel=1e-9)
    assert 0.95 * setup.seconds <= top_s <= setup.seconds
