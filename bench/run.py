"""Time-to-posterior benchmark for lrpostcov.

Usage, from the repository root:

    python3 bench/run.py --workload ic-sensors --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

One process, closed loop: each solve starts after the previous one ended.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced solves and reports the per-layer metrics.
Every solve goes through the correctness gate (gate.py) outside the timed
region.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import steady  # imports numpy only when called, after the BLAS pin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BLOCK = 8       # build_problem calls timed before the warm-up and each solve
MIN_SOLVES = 2        # timed solves per run, even past the deadline
MIN_TRACED_PAIRS = 1  # (untraced, traced) solve pairs per traced run

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _load_package():
    # numpy is first imported here, so the BLAS pin is set just before
    for var in THREAD_VARS:
        os.environ[var] = str(PINNED_THREADS)
    if not (SRC / "lrpostcov" / "__init__.py").is_file():
        raise BenchError(f"lrpostcov sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loads the BLAS libraries the pin check reads)
    import scipy.sparse.linalg  # noqa: F401


# (thread-count getter, config getter) per OpenBLAS build: numpy's wheel
# ships a 64-bit-integer build with suffixed names, scipy's a 32-bit one
OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def _openblas_threads() -> dict:
    """{config string: thread count} of every OpenBLAS library in this process."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for threads, config in OPENBLAS_SYMBOLS:
            if hasattr(lib, threads):
                getattr(lib, config).restype = ctypes.c_char_p
                found[getattr(lib, config)().decode().strip()] = int(getattr(lib, threads)())
                break
    return found


def environment(seed: int) -> dict:
    """Run environment recorded with every result; refuses an unpinned BLAS."""
    import numpy
    import scipy

    blas = _openblas_threads()
    if not blas:
        raise BenchError("no OpenBLAS library found; cannot verify the thread pin")
    unpinned = {k: v for k, v in blas.items() if v != PINNED_THREADS}
    if unpinned:
        raise BenchError(f"BLAS thread pin did not take effect: {unpinned}")

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lrpostcov").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": sorted(blas),
        "blas_threads": PINNED_THREADS,
        "nproc": os.cpu_count(),
        "workload_seed": seed,
    }


class Runner:
    """Solves one workload repeatedly and gates every solve."""

    def __init__(self, name: str, seed: int):
        from lrpostcov import cli

        import gate
        from workloads import config

        self.cli = cli
        self.gate = gate
        self.cfg = config(name, seed)
        ref = json.loads((HERE / "reference.json").read_text())
        self.reference = ref["workloads"][name]["top"]
        self.eig_rtol = ref["eig_rtol"]
        self.residual_rtol = ref["residual_rtol"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def solve(self):
        """One user-facing solve: (run, posterior summary or None)."""
        if self.cfg.mode == "source":
            return self.cli.run_eigs(self.cfg), None
        return self.cli.run_variance(self.cfg)

    def timed_solve(self, solve=None):
        """Run and gate one solve; returns (wall seconds, run, report) or None on failure."""
        solve = solve or self.solve
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            run, summary = solve()
            wall = time.perf_counter() - t0
            report = self.gate.check(run.problem, run.result, summary, self.reference,
                                     self.eig_rtol, self.residual_rtol)
        except Exception as exc:  # a failing solve is counted, never fatal
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        if not report.passed:
            self.failed += 1
            self.failures.append("; ".join(report.reasons))
            return None
        return wall, run, report

    def setup_seconds(self, reps: int) -> list[float]:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self.cli.build_problem(self.cfg)
            times.append(time.perf_counter() - t0)
        return times

    def peak_bytes(self):
        """Peak tracemalloc bytes of one gated solve (also the warm-up solve)."""
        peak = []

        def solve():
            tracemalloc.start()
            try:
                out = self.solve()
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        return peak[0] if self.timed_solve(solve) is not None else None


def _keep_going(start: float, seconds: float, last: float, done: int, minimum: int) -> bool:
    """Closed-loop deadline: start another solve only if it should fit."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + last <= seconds


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, their sample counts, and the unscaled medians."""
    steady.edge_speeds()  # warm-up
    runner.setup_seconds(1)  # warm-up
    peak = runner.peak_bytes()

    # a set-up block is scaled by the speeds sampled just before it; a solve
    # by those sampled before, during and just after it
    setup, walls, raw_setup, raw_walls, speeds = [], [], [], [], []
    start = time.perf_counter()
    last = 0.0
    done = 0
    before = steady.edge_speeds()
    while _keep_going(start, seconds, last, done, MIN_SOLVES):
        t0 = time.perf_counter()
        block = runner.setup_seconds(SETUP_BLOCK)
        raw_setup += block
        setup += [steady.scaled(t, before) for t in block]
        sampled = []

        def sampled_solve():
            with steady.sampling() as during:
                out = runner.solve()
            sampled.append(during)
            return out

        out = runner.timed_solve(sampled_solve)
        after = steady.edge_speeds()
        last = time.perf_counter() - t0
        done += 1
        if out is not None:
            during = sampled[0]
            wall = out[0] - during.spent
            raw_walls.append(wall)
            walls.append(steady.scaled(wall, before + during.speeds + after))
            speeds += before + during.speeds + after
        before = after
    samples = {"solve_s": len(walls), "setup_s": len(setup), "peak_mb": 1}
    if not walls or peak is None:
        return {}, samples, {}  # nothing passed the gate: no result to report
    setup_s = statistics.median(setup)
    metrics = {
        "solve_s": statistics.median(walls) - setup_s,
        "setup_s": setup_s,
        "peak_mb": peak / 1e6,
    }
    raw = {
        "solve_s": statistics.median(raw_walls) - statistics.median(raw_setup),
        "setup_s": statistics.median(raw_setup),
        "speed": statistics.median(speeds),
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            samples, raw)


def _result_metrics(run, report, eps_eig: float) -> dict:
    """Per-solve metrics read from the public result objects and the gate."""
    basis = run.result.basis
    ranks = [getattr(v, "r", 0) for v in basis]
    floats = sum(v.W1.size + v.W2.size if hasattr(v, "W1") else v.size for v in basis)
    return {
        "hessian.apply_rank_max": max(run.problem.ctx.rank_trace[:run.result.iterations]),
        "arnoldi.basis_floats": floats,
        "arnoldi.iterations": run.result.iterations,
        "arnoldi.basis_rank_max": max(ranks),
        "arnoldi.restarts": run.result.restarts,
        "arnoldi.gram_defect": report.gram_defect,
        "posterior.retained": int((run.result.ritz_values.real >= eps_eig).sum()),
        "posterior.residual_max": report.residual_max,
        "posterior.eig_dev_max": report.eig_dev_max,
    }


def measure_per_layer(runner: Runner, seconds: float, workload: str, env: dict):
    import tracing

    tracer = tracing.Tracer()

    def traced_solve():
        return tracer.trace_call("cli.solve", runner.solve)

    runner.timed_solve()  # warm-up
    untraced, traced, violations = [], [], []
    start = time.perf_counter()
    last = 0.0
    done = 0
    while _keep_going(start, seconds, last, done, MIN_TRACED_PAIRS):
        t0 = time.perf_counter()
        out = runner.timed_solve()
        if out is not None:
            untraced.append(out[0])
        out = runner.timed_solve(traced_solve)
        last = time.perf_counter() - t0
        done += 1
        if out is None:
            continue
        _, run, report = out
        m = tracing.layer_metrics(tracer.spans, tracer.solve_id)
        m.update(_result_metrics(run, report, runner.cfg.eps_eig))
        violations += tracing.count_identities(m, runner.cfg.nt, runner.cfg.compress_every,
                                               run.result.iterations)
        traced.append(m)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-seed{env['workload_seed']}.json", env)
    if not traced or not untraced:
        return {}, violations
    # median_low keeps counts integral and every value an actual measurement
    metrics = {k: statistics.median_low(m[k] for m in traced) for k in tracing.PER_LAYER_UNITS
               if k != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = metrics["trace.solve_s"] / statistics.median(untraced) - 1
    return ({k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in metrics.items()},
            violations)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    runner = Runner(workload, seed)
    if trace:
        metrics, violations = measure_per_layer(runner, seconds, workload, env)
        samples, raw = None, {}
    else:
        metrics, samples, raw = measure_end_to_end(runner, seconds)
        violations = []
    for failure in runner.failures:
        print(f"[{workload}] failed solve: {failure}", file=sys.stderr)
    for v in violations:
        print(f"[{workload}] count identity violated: {v}", file=sys.stderr)
    return {
        "correct": runner.failed == 0 and not violations and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "samples": samples,
        "raw": raw,
    }


def report(workload: str, result: dict) -> None:
    fail_rate = result["failed"] / result["attempted"]
    print(f"[{workload}] fail_rate = {fail_rate:.4g} "
          f"({result['failed']} of {result['attempted']} attempted solves)")
    samples = result["samples"] or {}
    for name, m in result["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}{n}")
    raw = result["raw"]
    if raw:
        print(f"[{workload}] note: times are scaled to the nominal machine speed; "
              f"median speed factor {raw['speed']:.4g}, unscaled solve_s = "
              f"{raw['solve_s']:.6g} s, setup_s = {raw['setup_s']:.6g} s")
    if "peak_mb" in result["metrics"]:
        print(f"[{workload}] note: peak_mb counts tracemalloc-tracked numpy and Python "
              "allocations; SuperLU and BLAS internal mallocs are not tracked")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        _load_package()
        from workloads import WORKLOADS

        if args.workload != "all" and args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)} or all")
        env = environment(args.seed)
    except BenchError as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    steady.settle_allocator()

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        report(name, results[name])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": ({f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
                    if len(names) > 1 else results[names[0]]["metrics"]),
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
