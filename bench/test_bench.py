"""Tests of the benchmark's own machinery: the correctness gate and the tracer.

Sizes stay under the dense oracle's cap (n_side=15, nt=5), so the gate is
checked against an independent dense eigensolve, and the count identities
are checked on complete traced solves.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from lrpostcov import arnoldi, cli, forward, hessian, lowrank, oracle  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402

SMALL = dict(n_side=15, nt=5, eps0=1e-8, eps_eig=0.1, start="random", seed=0)
CASES = {
    "ic": dict(problem="heat", mode="ic", sensors="grid3x3", m_a=60),
    "source": dict(problem="heat", mode="source", m_a=40, beta_ratio=1e6),
}
REFERENCE = json.loads((HERE / "reference.json").read_text())
EIG_RTOL = REFERENCE["eig_rtol"]
RESIDUAL_RTOL = REFERENCE["residual_rtol"]


def _solve(cfg):
    if cfg.mode == "source":
        return cli.run_eigs(cfg), None
    return cli.run_variance(cfg)


def _dense_top(problem, k):
    p = problem
    dense = oracle.dense_misfit_ic if p.config.mode == "ic" else oracle.dense_misfit_source
    Hd, _ = dense(p.spatial.L.toarray(), p.grid.m_scale, p.time.tau, p.time.n_t,
                  p.layout.mask, p.cov.beta_noise, p.cov.gamma_prior)
    assert Hd.shape[0] <= oracle.DENSE_DIM_CAP
    return oracle.dense_eig_top(Hd, k)[0]


@functools.cache
def solved(case):
    """(run, summary, dense top eigenvalues) for one small case, solved once."""
    cfg = cli.RunConfig(**CASES[case], **SMALL)
    run, summary = _solve(cfg)
    return run, summary, _dense_top(run.problem, gate.TOP_K)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lowrank_answer_agrees_with_dense_oracle(case):
    run, _, dense = solved(case)
    lowrank_top = run.result.ritz_values.real[:gate.TOP_K]
    np.testing.assert_allclose(lowrank_top, dense, rtol=0, atol=EIG_RTOL * dense[0])


@pytest.mark.parametrize("case", sorted(CASES))
def test_gate_accepts_lowrank_answer(case):
    run, summary, dense = solved(case)
    report = gate.check(run.problem, run.result, summary, list(dense),
                        EIG_RTOL, RESIDUAL_RTOL)
    assert report.passed, report.reasons
    assert report.gram_defect <= gate.GRAM_BOUND


@pytest.mark.parametrize("case", sorted(CASES))
def test_gate_rejects_perturbed_top_eigenvalue(case):
    run, summary, dense = solved(case)
    vals = run.result.ritz_values.copy()
    vals[0] *= 1 + 1e-4
    bad = dataclasses.replace(run.result, ritz_values=vals)
    report = gate.check(run.problem, bad, summary, list(dense), EIG_RTOL, RESIDUAL_RTOL)
    assert not report.passed
    assert report.eig_dev_max > EIG_RTOL and report.residual_max >= RESIDUAL_RTOL


def test_gate_rejects_variance_outside_prior():
    run, summary, dense = solved("ic")
    field = summary.variance_field.copy()
    field[0] = summary.gamma_prior * (1 + 1e-12)
    bad = dataclasses.replace(summary, variance_field=field)
    report = gate.check(run.problem, run.result, bad, list(dense), EIG_RTOL, RESIDUAL_RTOL)
    assert not report.passed and not report.variance_ok


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("compress_every", [2, 4])
def test_count_identities_hold_exactly(case, compress_every):
    cfg = cli.RunConfig(**CASES[case], **SMALL, compress_every=compress_every)
    tracer = tracing.Tracer()
    run, _ = tracer.trace_call("cli.solve", lambda: _solve(cfg))
    m = tracing.layer_metrics(tracer.spans, tracer.solve_id)
    applies = m["hessian.applies"]
    assert applies == run.result.iterations > 0
    assert m["forward.step_solves"] == 2 * (cfg.nt + 1) * applies
    assert m["lowrank.truncations.forward"] == \
        2 * math.ceil(cfg.nt / compress_every) * applies
    assert tracing.count_identities(m, cfg.nt, compress_every, run.result.iterations) == []
    assert m["trace.self_sum_err"] <= tracing.SELF_SUM_RTOL
    assert sum(m[f"{layer}.self_frac"] for layer in tracing.LAYERS) == \
        pytest.approx(1.0, abs=tracing.SELF_SUM_RTOL)


def test_restore_puts_every_original_back():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.trace_call("cli.solve", lambda: 1 / 0)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    # the lookup sites that matter for attribution are the modules' own names
    assert arnoldi.lr_truncate is lowrank.lr_truncate
    assert hessian.st_solve_sweep is forward.st_solve_sweep


def test_speed_sampling_subtracts_its_own_time_and_restores_the_timer():
    import signal
    import time

    import steady

    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        with steady.sampling() as s:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 5 * steady.SAMPLE_PERIOD_S:
                pass
            1 / 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(s.speeds) >= 3 and all(v > 0 for v in s.speeds)
    assert 0 < s.spent < 5 * steady.SAMPLE_PERIOD_S
    # a call that ran at half the nominal speed took twice its nominal time
    assert steady.scaled(2.0, [0.5, 0.5, 9.0]) == 1.0


def test_benchmark_json_matches_the_reported_metrics():
    import run
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(REFERENCE["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(len(w["top"]) == gate.TOP_K for w in REFERENCE["workloads"].values())


def test_refuses_without_the_package_sources(tmp_path):
    bench = tmp_path / HERE.name
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ic-sensors",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "lrpostcov sources not found" in proc.stderr


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps threads at the core count")
def test_refuses_when_the_thread_pin_does_not_take_effect():
    # the pin is skipped by emptying THREAD_VARS; the environment asks for 2
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; run.THREAD_VARS = (); "
            "sys.exit(run.main(['--workload', 'source', '--seed', '0', '--seconds', '1']))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert "thread pin did not take effect" in proc.stderr
