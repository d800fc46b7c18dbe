"""Workloads and measurement loop of the filtbem pipeline benchmark.

One run sets up the structured inverse a fixed number of times (timed from
``build_mesh`` to ``woodbury_factorize``); after each set-up it solves
right-hand sides for seeded directions one after another in a closed loop
(``normalized_rhs`` through ``WoodburyInverse.apply``), for the requested
number of seconds in all and at least ``MIN_SWEEP`` directions, each
solved twice.  Every
solution is then checked against a dense LU solve of the unfiltered system
of the same formulation, outside the timed region.

With ``trace=True`` the run records spans (see ``spans.py``) around every
layer call, alternating traced and untraced set-ups, and reports per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import filtbem
from spans import Tracer, tracing

OUT_DIR = Path(__file__).resolve().parent / "out"
MEGABYTE = 1e6
SOURCE_RADIUS = 3.0   # line sources sit on this circle around the origin
MIN_SWEEP = 200       # directions per run; p95 needs ten samples above it
WARMUP_N = 64


@dataclass(frozen=True)
class Workload:
    name: str
    curve: object
    n: int
    formulation: str      # "efie" or "cfie"
    filter_n: int
    epsilon: float        # compression tolerance and per-solve error gate
    source: str           # "line" or "plane"
    setups: int           # set-ups per run (at least 2); setup_s is their median
    alpha: float = 0.5
    k: float = 0.4
    eta: float = 1.0


LOBED = filtbem.PerturbedCircle(2.0, 0.2, 8)
ELLIPSE = filtbem.Ellipse(1.42, 1.32)

WORKLOADS = {
    wl.name: wl for wl in (
        Workload("table-efie", LOBED, 1004, "efie", 200, 1e-3, "line", 2),
        Workload("cfie-lobed", LOBED, 502, "cfie", 200, 1e-3, "line", 5),
        Workload("refine-sweep", ELLIPSE, 1004, "efie", 21, 6e-6, "plane", 3),
    )
}

STAGES = ("build_mesh", "assemble_operators", "build_filtered_system",
          "lowrank_factor", "woodbury_factorize")


def peak_rss_mb() -> float:
    """Process high-water resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MEGABYTE


def make_source(wl: Workload, angle: float):
    direction = (math.cos(angle), math.sin(angle))
    if wl.source == "line":
        return filtbem.MagneticLineSource((SOURCE_RADIUS * direction[0],
                                           SOURCE_RADIUS * direction[1]))
    return filtbem.PlaneWaveTE(direction)


@dataclass
class SetUp:
    mesh: object
    ops: object
    system: object
    skeleton: object
    inverse: object
    seconds: float
    rss_mb: dict          # high-water RSS after each top-level call


def set_up(wl: Workload, src, seed: int) -> SetUp:
    """Mesh to factorized inverse, timed as one block."""
    rss = {}
    t0 = time.perf_counter()
    mesh = filtbem.build_mesh(wl.curve, wl.n)
    rss["build_mesh"] = peak_rss_mb()
    ops = filtbem.assemble_operators(mesh, wl.k,
                                     need_double_layer=wl.formulation == "cfie")
    rss["assemble_operators"] = peak_rss_mb()
    system = filtbem.build_filtered_system(mesh, wl.k, wl.eta, src, wl.formulation,
                                           wl.filter_n, alpha=wl.alpha, ops=ops)
    rss["build_filtered_system"] = peak_rss_mb()
    skeleton = filtbem.lowrank_factor(system.compact, wl.epsilon, seed=seed)
    rss["lowrank_factor"] = peak_rss_mb()
    inverse = filtbem.woodbury_factorize(system.beta, skeleton)
    seconds = time.perf_counter() - t0
    rss["woodbury_factorize"] = peak_rss_mb()
    return SetUp(mesh, ops, system, skeleton, inverse, seconds, rss)


def solve_rhs(wl: Workload, setup: SetUp, src):
    """One extra right-hand side: normalized moments, then the structured inverse."""
    v_e, v_h = filtbem.normalized_rhs(setup.ops, src, wl.eta)
    rhs = v_e if wl.formulation == "efie" else v_e + wl.alpha * v_h
    return rhs, setup.inverse.apply(rhs)


def dense_reference(wl: Workload, setup: SetUp, rhs_block: np.ndarray) -> np.ndarray:
    """LU solve of the unfiltered system of the same formulation."""
    mat = filtbem.build_calderon_matrix(setup.mesh, wl.k, ops=setup.ops)
    if wl.formulation == "cfie":
        mat += wl.alpha * (0.5 * np.eye(wl.n) - filtbem.normalized_double_layer(setup.ops))
    return filtbem.dense_solve(mat, rhs_block)


def warm_up(wl: Workload) -> None:
    """Run the pipeline once at a tiny size so lazy imports and BLAS pools start."""
    tiny = replace(wl, n=WARMUP_N, filter_n=min(wl.filter_n, WARMUP_N // 2))
    setup = set_up(tiny, make_source(tiny, 0.0), 0)
    solve_rhs(tiny, setup, make_source(tiny, 1.0))


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)   # diagnostics for the result file

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        print(f"failed operation ({what}): {type(exc).__name__}: {exc}", file=sys.stderr)


def _keep(spool, rhs, x) -> None:
    """Park a right-hand side and its solution on disk until the check.

    Kept in memory, the vectors of a fast sweep would raise the peak RSS,
    so ``peak_rss_mb`` would grow whenever a solve got faster.
    """
    spool.write(np.asarray(rhs, np.complex128).tobytes())
    spool.write(np.asarray(x, np.complex128).tobytes())


def _timed_solve(wl: Workload, setup: SetUp, src, result: Run, spool) -> float:
    """One counted, checked solve; its latency, or inf if it raised."""
    result.attempted += 1
    t0 = time.perf_counter()
    try:
        rhs, x = solve_rhs(wl, setup, src)
    except (np.linalg.LinAlgError, ValueError) as exc:
        result.fail("solve", exc)
        return math.inf
    elapsed = time.perf_counter() - t0
    _keep(spool, rhs, x)
    return elapsed


def _setup_layer_metrics(tracer: Tracer, setup: SetUp) -> dict:
    top = sum(s.seconds for s in tracer.spans if s.parent < 0)
    return {
        "mesh2d.build_mesh_s": tracer.total("build_mesh"),
        "special.hankel_s": tracer.self_total(layer="special"),
        "special.hankel_values": sum(s.values for s in tracer.spans),
        "assembly2d.helmholtz_pair_s": tracer.total("assemble_helmholtz_pair"),
        "assembly2d.double_layer_s": tracer.total("assemble_double_layer"),
        "assembly2d.self_s": tracer.self_total(layer="assembly2d"),
        "spectral.sym_sqrt_s": tracer.total("sym_sqrt_and_invsqrt"),
        "spectral.laplacian_filter_s": tracer.total("laplacian_filter"),
        "calderon2d.assemble_operators_self_s": tracer.self_total(name="assemble_operators"),
        "calderon2d.build_filtered_system_self_s": tracer.self_total(name="build_filtered_system"),
        "calderon2d.build_calderon_matrix_s": tracer.total("build_calderon_matrix"),
        "calderon2d.normalized_double_layer_s": tracer.total("normalized_double_layer"),
        "compression.lowrank_factor_s": tracer.total("lowrank_factor"),
        "solver.woodbury_factorize_ms": 1e3 * tracer.total("woodbury_factorize"),
        "trace.coverage": top / setup.seconds,
    }


def _median_dict(dicts: list) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def run(wl: Workload, seed: int, seconds: float, trace: bool = False) -> Run:
    """One benchmark run; see the module docstring."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as spool:
        return _run(wl, seed, seconds, trace, spool)


def _run(wl: Workload, seed: int, seconds: float, trace: bool, spool) -> Run:
    result = Run()
    rng = np.random.default_rng(seed)
    src = make_source(wl, rng.uniform(0.0, 2.0 * math.pi))
    warm_up(wl)

    # Each set-up (which also solves its own right-hand side) is followed by
    # a chunk of the closed-loop sweep on its inverse, so that set-up and
    # per-right-hand-side samples both spread over the whole run.
    setup_s, traced_s, layer_reps, setup_spans = [], [], [], []
    latencies, loop_s, solves = [], 0.0, 0
    sweep_tracer = Tracer() if trace else None
    unconverged, marks, last = 0, None, None
    for i in range(wl.setups):
        # a traced run alternates traced and untraced set-ups, traced first
        tracer = Tracer() if trace and i % 2 == 0 else None
        result.attempted += 1
        setup = last = None   # release the previous set-up before the next one
        try:
            with tracing(tracer):
                setup = set_up(wl, src, seed)
            _keep(spool, setup.system.rhs, setup.inverse.apply(setup.system.rhs))
        except (np.linalg.LinAlgError, ValueError) as exc:
            result.fail("set-up", exc)
            continue
        unconverged += not setup.skeleton.converged
        if tracer is None:
            setup_s.append(setup.seconds)
        else:
            traced_s.append(setup.seconds)
            layer_reps.append(_setup_layer_metrics(tracer, setup))
            setup_spans.append(tracer.to_json())
            marks = marks or setup.rss_mb   # ru_maxrss only grows: keep the first
        last = setup

        # Two passes over the same directions, seconds apart; a direction's
        # latency is the faster of its two solves, so that short bursts of
        # load from other processes on the machine do not set the percentiles.
        target = math.ceil(MIN_SWEEP * (i + 1) / wl.setups) - solves // 2
        t_start = time.perf_counter()
        with tracing(sweep_tracer):
            sources, first = [], []
            while (len(sources) < target
                   or time.perf_counter() - t_start < 0.5 * seconds / wl.setups):
                sources.append(make_source(wl, rng.uniform(0.0, 2.0 * math.pi)))
                first.append(_timed_solve(wl, setup, sources[-1], result, spool))
            for rhs_src, t_first in zip(sources, first):
                best = min(t_first, _timed_solve(wl, setup, rhs_src, result, spool))
                if best < math.inf:
                    latencies.append(best)
        loop_s += time.perf_counter() - t_start
        solves += 2 * len(sources)
    if last is None or not setup_s or (trace and not traced_s):
        raise RuntimeError(f"{wl.name}: set-up failed")
    peak_mb = peak_rss_mb()

    # correctness: every solution against the dense reference, untimed
    t0 = time.perf_counter()
    spool.seek(0)
    pairs = np.fromfile(spool, np.complex128).reshape(-1, 2, wl.n)
    rhs_block, sol_block = pairs[:, 0].T, pairs[:, 1].T
    try:
        ref = dense_reference(wl, last, rhs_block)
    except np.linalg.LinAlgError as exc:   # nothing verified: every solve fails
        print(f"dense reference failed: {exc}", file=sys.stderr)
        errors = np.full(len(pairs), np.inf)
    else:
        errors = (np.linalg.norm(sol_block - ref, axis=0)
                  / np.linalg.norm(ref, axis=0))
    dense_ref_s = time.perf_counter() - t0
    bad = ~(errors <= wl.epsilon)
    result.failed += int(bad.sum())
    if bad.any():
        print(f"{int(bad.sum())} solutions exceed the error gate {wl.epsilon:g}; "
              f"worst {errors.max():.3e}", file=sys.stderr)

    rel_error = float(errors.max())
    result.record = {
        "n": wl.n,
        "rank": last.skeleton.rank,
        "rel_error": rel_error,
        "rhs_latency_ms": [1e3 * t for t in latencies],
        "setup_seconds": setup_s,
        "traced_setup_seconds": traced_s,
    }
    if not trace:
        result.metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_mb,
            "skeleton_mb": filtbem.memory_report(last.inverse).skeleton_megabytes,
            "rhs_per_s": solves / loop_s,
            "rhs_p50_ms": 1e3 * statistics.median(latencies),
            "rhs_p95_ms": 1e3 * statistics.quantiles(latencies, n=20)[18],
        }
        return result

    metrics = _median_dict(layer_reps)
    metrics.update({
        "calderon2d.normalized_rhs_ms": 1e3 * statistics.median(sweep_tracer.durations("normalized_rhs")),
        "excitation2d.assemble_rhs_ms": 1e3 * statistics.median(sweep_tracer.durations("assemble_rhs")),
        "solver.apply_us": 1e6 * statistics.median(sweep_tracer.durations("WoodburyInverse.apply")),
        "compression.rank": last.skeleton.rank,
        "compression.achieved_error": last.skeleton.achieved_error,
        "compression.unconverged": unconverged,
        "solver.core_cond": last.inverse.core_cond,
        "solver.rel_error": rel_error,
        "solver.dense_ref_s": dense_ref_s,
        "mem.peak_nxn": marks["woodbury_factorize"] * MEGABYTE / (16.0 * wl.n ** 2),
        "trace.overhead": statistics.median(traced_s) / statistics.median(setup_s),
    })
    metrics.update({f"mem.{stage}_rss_mb": marks[stage] for stage in STAGES})
    result.metrics = metrics
    result.record["spans"] = {"setup": setup_spans, "sweep": sweep_tracer.to_json()}
    return result
