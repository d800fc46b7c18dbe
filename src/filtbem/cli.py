"""Experiment driver: spectra projections, refinement sweep, memory study.

Subcommands
-----------
``spectra``     per-mode projections of the compact block, its filtered and
                compressed variants, and the right-hand side, on one mesh.
``refine``      accuracy/rank/time sweep over a list of mesh sizes.
``table``       memory-versus-accuracy study on the lobed test scatterer.
``qh3d-check``  triangle-mesh projector invariant suite on built-in meshes.

Each run writes a CSV (17-significant-digit scientific notation, LF line
endings) plus a JSON metadata sidecar echoing the fully resolved
configuration, the seed, the package version and the numerical
environment (numpy and scipy versions, BLAS thread-count variables).  A
run is bit-reproducible for a fixed seed and BLAS thread count.

Configuration comes from per-command defaults, overridden by an optional
``key = value`` config file (``#`` comments), overridden by command-line
flags.  Exit codes: 0 success, 2 configuration/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .assembly2d import quadrature_rule
from .calderon2d import (FORMULATIONS, _filtered_system, assemble_operators,
                         second_kind_split)
from .compression import lowrank_factor
from .excitation2d import MagneticLineSource, PlaneWaveTE
from .mesh2d import Ellipse, PerturbedCircle, build_mesh
from .qh3d import (build_incidence, filtered_projectors, icosphere,
                   octahedron, projectors, tetrahedron, torus_mesh)
from .solver import dense_solve, memory_report, woodbury_factorize

__all__ = ["ExperimentConfig", "main", "run_spectra", "run_refinement",
           "run_table", "run_qh3d_check"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class ExperimentConfig:
    """Fully resolved experiment parameters (one flat namespace)."""

    geometry: str = "ellipse"        # ellipse | perturbed_circle | circle
    a: float = 1.42                  # ellipse semi-axes (m)
    b: float = 1.32
    r0: float = 2.0                  # lobed-circle base radius (m)
    amp: float = 0.2
    lobes: int = 8
    k: float = 0.4                   # wavenumber (rad/m)
    eta: float = 1.0                 # impedance (ohm)
    source: str = "line"             # line | plane
    source_x: float = 3.0
    source_y: float = 0.0
    source_dir_x: float = 1.0
    source_dir_y: float = 0.0
    formulation: str = "efie"
    alpha: float = 0.5
    filter_n: int = 200
    epsilon: float = 1e-3
    n: int = 1004                    # single mesh size (spectra)
    sizes: tuple = (251, 502, 1004, 2008)
    max_n: int = 4016
    quad_order: int = 8
    seed: int = 0
    yukawa: bool = False
    out: str = "."

    def curve(self):
        if self.geometry == "ellipse":
            return Ellipse(self.a, self.b)
        if self.geometry == "circle":
            return Ellipse(self.a, self.a)
        if self.geometry == "perturbed_circle":
            return PerturbedCircle(self.r0, self.amp, self.lobes)
        raise ValueError(f"unknown geometry {self.geometry!r}")

    def source_model(self):
        if self.source == "line":
            return MagneticLineSource((self.source_x, self.source_y))
        if self.source == "plane":
            d = np.array([self.source_dir_x, self.source_dir_y])
            norm = np.linalg.norm(d)
            if norm == 0:
                raise ValueError("plane-wave direction must be nonzero")
            return PlaneWaveTE(tuple(d / norm))
        raise ValueError(f"unknown source kind {self.source!r}")


_DEFAULTS = {
    "spectra": {},
    # rank saturation sets in around N = 1004 at this quadrature accuracy,
    # so the sweep defaults start one refinement below it
    "refine": {"epsilon": 6e-6, "filter_n": 21,
               "sizes": (502, 1004, 2008, 4016)},
    "table": {"geometry": "perturbed_circle",
              "sizes": (1004, 2008, 4016, 8032)},
    "qh3d-check": {},
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown configuration key {key!r}")
    default = getattr(ExperimentConfig(), key)
    if isinstance(default, bool):
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {key} = {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return tuple(int(tok) for tok in str(raw).replace(",", " ").split())
    return str(raw)


def parse_config_file(path) -> dict:
    """Parse a ``key = value`` file with ``#`` comments."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (tok.strip() for tok in line.split("=", 1))
            values[key] = _coerce(key, raw)
    return values


def resolve_config(command: str, file_values: dict, cli_values: dict) -> ExperimentConfig:
    cfg = dataclasses.replace(ExperimentConfig(), **_DEFAULTS.get(command, {}))
    for values in (file_values, cli_values):
        for key, val in values.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown configuration key {key!r}")
            setattr(cfg, key, _coerce(key, val) if isinstance(val, str) else val)
    if cfg.k <= 0 or cfg.eta <= 0:
        raise ValueError("k and eta must be positive")
    if not 0 < cfg.epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if cfg.filter_n < 1:
        raise ValueError("filter_n must be >= 1")
    if cfg.formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    if cfg.alpha <= 0:
        raise ValueError("alpha must be positive")
    return cfg


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_metadata(path, command: str, cfg: ExperimentConfig, extra=None) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "formulation": cfg.formulation,
        "environment": {"numpy": np.__version__, "scipy": scipy.__version__,
                        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _outdir(cfg) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------
def _set_up(cfg: ExperimentConfig, n_nodes: int):
    """``(ops, compact_raw, system, skeleton)`` at one size; the unfiltered
    block is formed once, filtered here and reused by the caller."""
    mesh = build_mesh(cfg.curve(), n_nodes)
    if cfg.filter_n > mesh.n_nodes:
        raise ValueError(f"filter_n {cfg.filter_n} exceeds mesh size {mesh.n_nodes}")
    slayer_kind = "yukawa" if cfg.yukawa else "helmholtz"
    ops = assemble_operators(mesh, cfg.k, cfg.quad_order, slayer_kind=slayer_kind)
    beta, compact_raw = second_kind_split(ops, cfg.formulation, cfg.alpha)
    system = _filtered_system(ops, cfg.source_model(), cfg.eta, cfg.formulation,
                              cfg.filter_n, cfg.alpha, beta, compact_raw)
    skeleton = lowrank_factor(system.compact, cfg.epsilon, seed=cfg.seed)
    return ops, compact_raw, system, skeleton


def _solve_one(cfg: ExperimentConfig, n_nodes: int):
    """Full filtered-compressed pipeline at one mesh size.

    Returns a dict with the mesh, the structured inverse, the error against
    the dense reference and the factorize/apply timings.
    """
    ops, dense_mat, system, skeleton = _set_up(cfg, n_nodes)
    t0 = time.perf_counter()
    inverse = woodbury_factorize(system.beta, skeleton)
    t_factorize = time.perf_counter() - t0
    t0 = time.perf_counter()
    solution = inverse.apply(system.rhs)
    t_apply = time.perf_counter() - t0
    rhs, beta = system.rhs, system.beta
    del system    # free the filtered block before the dense reference

    # reference: dense solve of the unfiltered system of the same formulation
    dense_mat[np.diag_indices_from(dense_mat)] += beta
    reference = dense_solve(dense_mat, rhs)
    rel_error = float(np.linalg.norm(solution - reference)
                      / np.linalg.norm(reference))
    return {"mesh": ops.mesh, "inverse": inverse, "rel_error": rel_error,
            "t_factorize": t_factorize, "t_apply": t_apply}


def run_spectra(cfg: ExperimentConfig):
    """Per-mode projections on the Laplacian eigenbasis (one mesh size).

    CSV columns: mode_index (ascending frequency; the filter keeps modes
    below ``filter_n``), row norms of the compact block / its filtered and
    compressed variants in that basis, the right-hand-side projection
    magnitude, and a flag marking modes present in the compression range.
    The compact block is that of the configured formulation.
    """
    ops, compact_raw, system, skeleton = _set_up(cfg, cfg.n)
    mesh = ops.mesh
    modes = ops.modes
    proj_raw = np.linalg.norm(modes.T @ compact_raw @ modes, axis=1)
    proj_filtered = np.linalg.norm(modes.T @ system.compact @ modes, axis=1)
    left_proj = modes.T @ skeleton.left
    proj_skeleton = np.linalg.norm(left_proj @ (skeleton.right.T @ modes), axis=1)
    proj_rhs = np.abs(modes.T @ system.rhs)
    presence = np.linalg.norm(left_proj, axis=1)
    kept = presence > 1e-8 * max(presence.max(), 1e-300)

    rows = [
        (m, proj_raw[m], proj_filtered[m], proj_skeleton[m], proj_rhs[m],
         int(kept[m]))
        for m in range(mesh.n_nodes)
    ]
    out = _outdir(cfg)
    write_csv(out / "spectra.csv",
              ["mode_index", "proj_C", "proj_Cfiltered", "proj_UV",
               "proj_rhs", "kept_flag"], rows)
    write_metadata(out / "spectra_meta.json", "spectra", cfg,
                   {"n_nodes": mesh.n_nodes, "skeleton_rank": skeleton.rank,
                    "quadrature": quadrature_rule(cfg.quad_order)})
    return rows


def run_refinement(cfg: ExperimentConfig):
    """Accuracy and skeleton rank across a refinement sweep.

    CSV columns: N, inv_h, rel_error_vs_dense, skeleton_rank,
    factorize_ms, apply_ms, status.
    A size whose solve fails gets a ``failed:`` row; the CSV is still
    written, and then the failure is raised as a ``LinAlgError``.
    """
    sizes = [n for n in cfg.sizes if n <= cfg.max_n]
    if len(sizes) < 3:
        raise ValueError("refinement sweep needs at least 3 mesh sizes "
                         "(raise --max-n or extend --sizes)")
    rows = []
    failed = []
    for n_nodes in sizes:
        try:
            res = _solve_one(cfg, n_nodes)
            rows.append((n_nodes, 1.0 / res["mesh"].h, res["rel_error"],
                         res["inverse"].rank, 1e3 * res["t_factorize"],
                         1e3 * res["t_apply"], "ok"))
        except np.linalg.LinAlgError as exc:
            rows.append((n_nodes, float("nan"), float("nan"), 0,
                         float("nan"), float("nan"), f"failed:{exc}"))
            failed.append(n_nodes)
    out = _outdir(cfg)
    write_csv(out / "refine.csv",
              ["N", "inv_h", "rel_error_vs_dense", "skeleton_rank",
               "factorize_ms", "apply_ms", "status"], rows)
    write_metadata(out / "refine_meta.json", "refine", cfg,
                   {"quadrature": quadrature_rule(cfg.quad_order)})
    if failed:
        raise np.linalg.LinAlgError(f"refine sizes {failed} failed (see refine.csv)")
    return rows


def run_table(cfg: ExperimentConfig):
    """Memory/accuracy study; rows above the size cap are skipped.

    CSV columns: N, rel_error, dense_bytes, skeleton_bytes, rank, status.
    A size whose solve fails gets a ``failed:`` row; the CSV is still
    written, and then the failure is raised as a ``LinAlgError``.
    """
    rows = []
    failed = []
    for n_nodes in cfg.sizes:
        if n_nodes > cfg.max_n:
            rows.append((n_nodes, float("nan"), 16 * n_nodes * n_nodes, 0, 0,
                         "skipped:max_n"))
            continue
        try:
            res = _solve_one(cfg, n_nodes)
        except np.linalg.LinAlgError as exc:
            rows.append((n_nodes, float("nan"), 16 * n_nodes * n_nodes, 0, 0,
                         f"failed:{exc}"))
            failed.append(n_nodes)
            continue
        report = memory_report(res["inverse"])
        rows.append((n_nodes, res["rel_error"], report.dense_bytes,
                     report.skeleton_bytes, report.rank, "ok"))
    out = _outdir(cfg)
    write_csv(out / "table.csv",
              ["N", "rel_error", "dense_bytes", "skeleton_bytes", "rank",
               "status"], rows)
    write_metadata(out / "table_meta.json", "table", cfg,
                   {"quadrature": quadrature_rule(cfg.quad_order)})
    if failed:
        raise np.linalg.LinAlgError(f"table sizes {failed} failed (see table.csv)")
    return rows


def run_qh3d_check(cfg: ExperimentConfig):
    """Projector invariant suite on the built-in triangle meshes.

    Checks, per mesh: exact loop/star orthogonality, the projector
    partition of identity, the harmonic rank (2 * genus), and reduction of
    the filtered projectors to the unfiltered ones at full indices.
    Writes qh3d_check.csv and raises on any failure.
    """
    meshes = [
        ("tetrahedron", tetrahedron(), 0),
        ("octahedron", octahedron(), 0),
        ("icosphere", icosphere(2), 0),
        ("torus", torus_mesh(12, 8), 2),
    ]
    rows = []
    failures = []
    for name, mesh, harmonic_rank in meshes:
        inc = build_incidence(mesh)
        ortho = int(np.abs(inc.loop.T @ inc.star).max())
        p_star, p_loop, p_harm = projectors(inc)
        ident = float(np.abs(p_star + p_loop + p_harm
                             - np.eye(mesh.n_edges)).max())
        rank_h = int(round(np.trace(p_harm)))
        fp = filtered_projectors(inc, mesh.n_triangles, mesh.n_vertices)
        reduction = float(max(
            np.abs(fp.primal_star - p_star).max(),
            np.abs(fp.primal_loop_harmonic - (p_loop + p_harm)).max(),
            np.abs(fp.dual_loop - p_loop).max(),
            np.abs(fp.dual_star_harmonic - (p_star + p_harm)).max(),
        ))
        ok = (ortho == 0 and ident <= 1e-10 and rank_h == harmonic_rank
              and reduction <= 1e-10)
        rows.append((name, mesh.n_vertices, mesh.n_edges, mesh.n_triangles,
                     ortho, ident, rank_h, reduction, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(name)
    out = _outdir(cfg)
    write_csv(out / "qh3d_check.csv",
              ["mesh", "vertices", "edges", "triangles", "loop_star_product",
               "projector_identity_defect", "harmonic_rank",
               "full_index_reduction", "status"], rows)
    write_metadata(out / "qh3d_check_meta.json", "qh3d-check", cfg)
    if failures:
        raise FloatingPointError(f"projector checks failed: {failures}")
    return rows


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtbem",
        description="Filtered boundary-operator experiments (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("spectra", "per-mode projections on one mesh"),
        ("refine", "accuracy/rank sweep over mesh sizes"),
        ("table", "memory vs accuracy study"),
        ("qh3d-check", "triangle-mesh projector invariants"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", type=str, default=None,
                         help="key = value configuration file")
        cmd.add_argument("--out", type=str, default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed")
        cmd.add_argument("--max-n", dest="max_n", type=int, default=None,
                         help="largest mesh size actually run")
        cmd.add_argument("--formulation", type=str, default=None,
                         choices=FORMULATIONS)
        cmd.add_argument("--alpha", type=float, default=None,
                         help="combined-field coupling")
        cmd.add_argument("--filter-n", dest="filter_n", type=int, default=None,
                         help="low-pass filter index")
        cmd.add_argument("--epsilon", type=float, default=None,
                         help="compression tolerance")
        cmd.add_argument("--k", type=float, default=None, help="wavenumber (rad/m)")
        cmd.add_argument("--eta", type=float, default=None, help="impedance (ohm)")
        cmd.add_argument("--n", type=int, default=None, help="mesh size (spectra)")
        cmd.add_argument("--sizes", type=str, default=None,
                         help="comma-separated mesh sizes")
        cmd.add_argument("--geometry", type=str, default=None,
                         choices=["ellipse", "circle", "perturbed_circle"])
        cmd.add_argument("--a", type=float, default=None)
        cmd.add_argument("--b", type=float, default=None)
        cmd.add_argument("--r0", type=float, default=None)
        cmd.add_argument("--amp", type=float, default=None)
        cmd.add_argument("--lobes", type=int, default=None)
        cmd.add_argument("--source", type=str, default=None,
                         choices=["line", "plane"])
        cmd.add_argument("--source-x", dest="source_x", type=float, default=None)
        cmd.add_argument("--source-y", dest="source_y", type=float, default=None)
        cmd.add_argument("--quad-order", dest="quad_order", type=int, default=None)
        cmd.add_argument("--yukawa", dest="yukawa", action="store_const",
                         const=True, default=None,
                         help="imaginary-wavenumber preconditioning kernel")
    return parser


_RUNNERS = {
    "spectra": run_spectra,
    "refine": run_refinement,
    "table": run_table,
    "qh3d-check": run_qh3d_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cli_values = {key: val for key, val in vars(args).items()
                  if key not in ("command", "config") and val is not None}
    try:
        file_values = (parse_config_file(args.config) if args.config else {})
        cfg = resolve_config(args.command, file_values, cli_values)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _RUNNERS[args.command](cfg)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so it must be matched first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
