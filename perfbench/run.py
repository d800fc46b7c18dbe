"""Pipeline benchmark for filtbem.

Run from the repository root:

    python3 perfbench/run.py --workload table-efie --seed 1 --seconds 8 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record (environment, diagnostics, spans) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "nproc": nproc,
        "blas": blas_vendor,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "filtbem" / "__init__.py").is_file():
        print(f"filtbem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    # One process, one BLAS thread unless the caller sets more: on a small
    # shared machine a two-thread matvec stalls whenever either core is
    # disturbed, which doubled the run-to-run spread of the rhs latencies.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    result = harness.run(wl, args.seed, args.seconds, trace=bool(args.trace))
    if set(result.metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result.metrics) ^ set(units))}")

    env = environment(nproc)
    print(f"workload {wl.name}  N={wl.n}  seed={args.seed}  trace={args.trace}  "
          f"rank={result.record['rank']}  solver.rel_error={result.record['rel_error']:.3e}  "
          f"gate={wl.epsilon:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in sorted(result.metrics):
        print(f"  {name:42s} {result.metrics[name]:.6g} {units[name]}")

    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in result.metrics.items()},
    }
    record = dict(summary, workload=wl.name, params=dataclasses.asdict(wl),
                  seed=args.seed, seconds=args.seconds, trace=args.trace, env=env,
                  **result.record)
    (harness.OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
