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
environment (numpy and scipy versions, BLAS thread-count variables).  The
``spectra``, ``refine`` and ``table`` sidecars also list, per solved size,
the filter cut: its relative eigen-gap and whether it split a
near-degenerate pair that was made canonical; the ``refine`` and ``table``
sidecars add the skeleton's rank, convergence, achieved error and norm
estimate and the Woodbury core's condition number, and under ``set_up``
the set-up's wall time, split into its stages (``assemble_s``,
``filter_s``, ``compress_s``), the process's peak RSS right after it and
the bytes the operator bundle holds (``operators_mb``).  A run
is bit-reproducible for a fixed seed and BLAS thread count.

Configuration comes from per-command defaults, overridden by an optional
``key = value`` config file (``#`` comments), overridden by command-line
flags: every key of :class:`ExperimentConfig` is a flag
``--key-with-dashes`` of every subcommand, parsed as a file value is.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .assembly2d import quadrature_rule
from .calderon2d import (FORMULATIONS, _lowest_modes, assemble_operators,
                         build_filtered_system, canonical_modes,
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
                raise ValueError("source_dir_x, source_dir_y: plane-wave "
                                 "direction must be nonzero")
            return PlaneWaveTE(tuple(d / norm))
        raise ValueError(f"unknown source kind {self.source!r}")


_BASE = ExperimentConfig()
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, raw: str):
    """A config-file or flag value, typed as the key's default."""
    if not hasattr(_BASE, key):
        raise ValueError(f"unknown configuration key {key!r}")
    default, text = getattr(_BASE, key), str(raw).strip()
    try:
        if isinstance(default, bool):
            return _BOOLEANS[text.lower()]
        if isinstance(default, tuple):
            return tuple(int(tok) for tok in text.replace(",", " ").split())
        return type(default)(text)
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse {key} = {raw!r}") from None


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
    """Defaults of ``command``, then file values, then flag values, checked
    (the curve and source built once) before any assembly."""
    cfg = dataclasses.replace(_BASE, **_COMMANDS[command][2])
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
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    cfg.curve()
    cfg.source_model()
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
def _set_up(cfg: ExperimentConfig, n_nodes: int, stages=None):
    """``(ops, system, skeleton)`` at one size.  Below ``filter_n = N`` the
    system holds only the filter-coordinate block, no N x N array.  A dict
    ``stages`` receives the wall time of each stage in seconds:
    ``assemble_s`` (mesh and operators), ``filter_s`` (the filtered system,
    its modes included) and ``compress_s`` (the skeleton)."""
    t0 = time.perf_counter()
    mesh = build_mesh(cfg.curve(), n_nodes)
    if cfg.filter_n > mesh.n_nodes:
        raise ValueError(f"filter_n {cfg.filter_n} exceeds mesh size {mesh.n_nodes}")
    slayer_kind = "yukawa" if cfg.yukawa else "helmholtz"
    ops = assemble_operators(mesh, cfg.k, cfg.quad_order, slayer_kind=slayer_kind)
    t1 = time.perf_counter()
    system = build_filtered_system(mesh, cfg.k, cfg.eta, cfg.source_model(),
                                   cfg.formulation, cfg.filter_n, cfg.alpha,
                                   ops=ops)
    t2 = time.perf_counter()
    skeleton = lowrank_factor(system.compact, cfg.epsilon, seed=cfg.seed)
    if stages is not None:
        stages.update(assemble_s=t1 - t0, filter_s=t2 - t1,
                      compress_s=time.perf_counter() - t2)
    return ops, system, skeleton


def _solve_one(cfg: ExperimentConfig, n_nodes: int):
    """Full filtered-compressed pipeline at one mesh size.

    Returns a dict with the mesh, the structured inverse, the error against
    the dense reference, the factorize/apply timings and the meta records
    of the filter cut, the skeleton and the set-up (its wall time and
    that of each stage, the process's peak RSS right after it and the
    operator bundle's size).
    The dense reference is formed only after the filtered system is
    released.
    """
    stages = {}
    t0 = time.perf_counter()
    ops, system, skeleton = _set_up(cfg, n_nodes, stages)
    set_up = {"n_nodes": n_nodes, "seconds": time.perf_counter() - t0,
              **stages, "peak_rss_mb": _peak_rss_mb(),
              "operators_mb": ops.nbytes / 1e6}
    t0 = time.perf_counter()
    inverse = woodbury_factorize(system.beta, skeleton)
    t_factorize = time.perf_counter() - t0
    t0 = time.perf_counter()
    solution = inverse.apply(system.rhs)
    t_apply = time.perf_counter() - t0
    rhs, cut = system.rhs, _filter_cut(system)
    del system

    # reference: dense solve of the unfiltered system of the same formulation
    beta, dense_mat = second_kind_split(ops, cfg.formulation, cfg.alpha)
    dense_mat[np.diag_indices_from(dense_mat)] += beta
    reference = dense_solve(dense_mat, rhs)
    rel_error = float(np.linalg.norm(solution - reference)
                      / np.linalg.norm(reference))
    diagnostics = {"n_nodes": n_nodes, "rank": skeleton.rank,
                   "converged": skeleton.converged,
                   "achieved_error": skeleton.achieved_error,
                   "norm_estimate": skeleton.norm_estimate,
                   "core_cond": inverse.core_cond}
    return {"mesh": ops.mesh, "inverse": inverse, "rel_error": rel_error,
            "t_factorize": t_factorize, "t_apply": t_apply, "filter_cut": cut,
            "skeleton": diagnostics, "set_up": set_up}


def _peak_rss_mb() -> float:
    """Process high-water resident set size in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _filter_cut(system) -> dict:
    """Meta record of a filter cut: the relative eigen-gap there (None when
    every mode is kept) and whether it split a pair made canonical."""
    return {"n_nodes": system.compact.shape[0], "gap": system.cut_gap,
            "canonicalized": system.cut_canonicalized}


def run_spectra(cfg: ExperimentConfig):
    """Per-mode projections on the Laplacian eigenbasis (one mesh size).

    CSV columns: mode_index (ascending frequency; the filter keeps modes
    below ``filter_n``), row norms of the compact block / its filtered and
    compressed variants in that basis, the right-hand-side projection
    magnitude, and a flag marking modes present in the compression range.
    The compact block is that of the configured formulation.  The full
    basis is all N modes of the (L, G) pencil the filter's own modes come
    from (:func:`~filtbem.calderon2d.filter_modes`), made canonical at the
    filter cut as they are.
    """
    ops, system, skeleton = _set_up(cfg, cfg.n)
    mesh = ops.mesh
    _, compact_raw = second_kind_split(ops, cfg.formulation, cfg.alpha)
    values, modes = _lowest_modes(ops, mesh.n_nodes)
    modes = canonical_modes(ops, values, modes, cfg.filter_n).vectors
    proj_raw = np.linalg.norm(modes.T @ compact_raw @ modes, axis=1)
    basis, coeffs = system.compact.basis, system.compact.coeffs
    rows_t = modes.T if basis is None else modes.T @ basis
    proj_filtered = np.linalg.norm(rows_t @ (coeffs @ modes), axis=1)
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
                    "quadrature": quadrature_rule(cfg.quad_order),
                    "filter_cut": [_filter_cut(system)]})
    return rows


def _sweep(cfg: ExperimentConfig, command: str, sizes, header, row):
    """Solve at each of ``sizes``, write ``<command>.csv`` and its meta,
    then raise a failed size as a ``LinAlgError``.  ``row(n_nodes, res,
    status)`` makes a CSV row from the :func:`_solve_one` result, or from
    None for a size above ``max_n`` (``skipped:max_n``) or a failed one.
    A sweep with no size at or below ``max_n`` is a configuration error."""
    # checked before the first size is solved
    solvable = [n for n in sizes if n <= cfg.max_n]
    if not solvable:
        raise ValueError(f"sizes {list(sizes)}: none is at or below "
                         f"max_n {cfg.max_n}, nothing to solve")
    if cfg.filter_n > min(solvable):
        raise ValueError(f"filter_n {cfg.filter_n} exceeds mesh size {min(solvable)}")
    rows, failed, cuts, skeletons, set_ups = [], [], [], [], []
    for n_nodes in sizes:
        if n_nodes > cfg.max_n:
            rows.append(row(n_nodes, None, "skipped:max_n"))
            continue
        try:
            res = _solve_one(cfg, n_nodes)
        except np.linalg.LinAlgError as exc:
            rows.append(row(n_nodes, None, f"failed:{exc}"))
            failed.append(n_nodes)
            continue
        cuts.append(res["filter_cut"])
        skeletons.append(res["skeleton"])
        set_ups.append(res["set_up"])
        rows.append(row(n_nodes, res, "ok"))
    out = _outdir(cfg)
    write_csv(out / f"{command}.csv", header, rows)
    write_metadata(out / f"{command}_meta.json", command, cfg,
                   {"quadrature": quadrature_rule(cfg.quad_order),
                    "filter_cut": cuts, "skeleton": skeletons,
                    "set_up": set_ups})
    if failed:
        raise np.linalg.LinAlgError(
            f"{command} sizes {failed} failed (see {command}.csv)")
    return rows


def run_refinement(cfg: ExperimentConfig):
    """Accuracy and skeleton rank across a refinement sweep.

    CSV columns: N, inv_h, rel_error_vs_dense, skeleton_rank,
    factorize_ms, apply_ms, status.  Sizes above ``max_n`` are left out.
    A size whose solve fails gets a ``failed:`` row; the CSV is still
    written, and then the failure is raised as a ``LinAlgError``.
    """
    sizes = [n for n in cfg.sizes if n <= cfg.max_n]
    if len(sizes) < 3:
        raise ValueError("refinement sweep needs at least 3 mesh sizes "
                         "(raise --max-n or extend --sizes)")

    def row(n_nodes, res, status):
        if res is None:
            return (n_nodes, float("nan"), float("nan"), 0, float("nan"),
                    float("nan"), status)
        return (n_nodes, 1.0 / res["mesh"].h, res["rel_error"],
                res["inverse"].rank, 1e3 * res["t_factorize"],
                1e3 * res["t_apply"], status)

    return _sweep(cfg, "refine", sizes,
                  ["N", "inv_h", "rel_error_vs_dense", "skeleton_rank",
                   "factorize_ms", "apply_ms", "status"], row)


def run_table(cfg: ExperimentConfig):
    """Memory/accuracy study; rows above the size cap are skipped.

    CSV columns: N, rel_error, dense_bytes, skeleton_bytes, rank, status.
    A size whose solve fails gets a ``failed:`` row; the CSV is still
    written, and then the failure is raised as a ``LinAlgError``.
    """
    def row(n_nodes, res, status):
        if res is None:
            return (n_nodes, float("nan"), 16 * n_nodes * n_nodes, 0, 0, status)
        report = memory_report(res["inverse"])
        return (n_nodes, res["rel_error"], report.dense_bytes,
                report.skeleton_bytes, report.rank, status)

    return _sweep(cfg, "table", cfg.sizes,
                  ["N", "rel_error", "dense_bytes", "skeleton_bytes", "rank",
                   "status"], row)


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
_COMMANDS = {   # name: (runner, help, defaults over ExperimentConfig)
    "spectra": (run_spectra, "per-mode projections on one mesh", {}),
    # rank saturation sets in around N = 1004 at this quadrature accuracy,
    # so the sweep defaults start one refinement below it
    "refine": (run_refinement, "accuracy/rank sweep over mesh sizes",
               {"epsilon": 6e-6, "filter_n": 21,
                "sizes": (502, 1004, 2008, 4016)}),
    "table": (run_table, "memory vs accuracy study",
              {"geometry": "perturbed_circle",
               "sizes": (1004, 2008, 4016, 8032)}),
    "qh3d-check": (run_qh3d_check, "triangle-mesh projector invariants", {}),
}


def _build_parser() -> argparse.ArgumentParser:
    """Every configuration key as ``--key-with-dashes`` on every subcommand.

    A flag keeps its raw text (None when absent) for :func:`_coerce`; a
    boolean flag given bare means true.  The help shows the subcommand's
    own defaults.
    """
    parser = argparse.ArgumentParser(
        prog="filtbem",
        description="Filtered boundary-operator experiments (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, defaults) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", default=None,
                         help="key = value configuration file")
        for key, default in dataclasses.asdict(
                dataclasses.replace(_BASE, **defaults)).items():
            shown = (",".join(map(str, default)) if isinstance(default, tuple)
                     else default)
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=None, help=f"default: {shown}",
                             **({"nargs": "?", "const": "true"}
                                if isinstance(default, bool) else {}))
    return parser


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
        _COMMANDS[args.command][0](cfg)
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
