"""Correctness gate applied to every benchmark solve, outside the timed region.

A solve passes when
  * its top eigenvalues match the recorded reference values within
    ``eig_rtol``·λ₁,
  * the Gram defect of the stored Arnoldi basis is at most GRAM_BOUND,
  * the true residuals ‖H̃v − λv‖/λ₁ of those pairs are below
    ``residual_rtol``, and
  * on IC workloads every variance entry lies in (0, γ_prior].

The residual applies H̃ once per checked pair.  In source mode the
difference H̃v − λv is recompressed before its norm is taken: ``lr_norm``
of an uncompressed difference of nearly equal fields cancels to about 1e-8
relative and can read exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lrpostcov.lowrank import LowRankMat, lr_add, lr_norm, lr_scale, lr_truncate

GRAM_BOUND = 1e-6
TOP_K = 10


@dataclass
class GateReport:
    passed: bool
    eig_dev_max: float        # max |λ_i − ref_i| / ref_1 over the checked pairs
    gram_defect: float        # max |<v_i, v_j> − δ_ij| over the stored basis
    residual_max: float       # max ‖H̃v_i − λ_i v_i‖ / ref_1 over the checked pairs
    variance_ok: bool         # IC: every variance entry in (0, γ_prior]; True otherwise
    reasons: list[str] = field(default_factory=list)


def true_residual(apply, lam: float, v, pol) -> float:
    """‖H̃v − λv‖ for one Ritz pair, recompressing low-rank differences."""
    hv = apply(v)
    if isinstance(v, LowRankMat):
        return lr_norm(lr_truncate(lr_add(hv, lr_scale(v, -lam)), pol))
    return float(np.linalg.norm(hv - lam * np.asarray(v)))


def check(problem, result, summary, reference: list[float], eig_rtol: float,
          residual_rtol: float) -> GateReport:
    """Gate one solve; ``summary`` is the posterior summary (None in source mode)."""
    ref = np.asarray(reference, dtype=float)
    k = len(ref)
    lam1 = ref[0]
    reasons = []

    vals = result.ritz_values.real[:k]
    if len(vals) < k:
        reasons.append(f"only {len(vals)} Ritz values, {k} expected")
        eig_dev = float("inf")
    else:
        eig_dev = float(np.max(np.abs(vals - ref))) / lam1
        if not eig_dev <= eig_rtol:
            reasons.append(f"eigenvalue deviation {eig_dev:.3e} > {eig_rtol:.1e}·λ₁")

    gram = result.gram_defect()
    if not gram <= GRAM_BOUND:
        reasons.append(f"Gram defect {gram:.3e} > {GRAM_BOUND:.1e}")

    res_max = 0.0
    for lam, v in zip(vals, result.ritz_vectors[:k]):
        res_max = max(res_max, true_residual(problem.ctx.apply, lam, v, problem.pol) / lam1)
    if not res_max < residual_rtol:
        reasons.append(f"true residual {res_max:.3e} ≥ {residual_rtol:.1e}·λ₁")

    variance_ok = True
    if summary is not None:
        var = summary.variance_field
        variance_ok = bool(np.all(var > 0) and np.all(var <= summary.gamma_prior))
        if not variance_ok:
            reasons.append("variance entry outside (0, γ_prior]")

    return GateReport(passed=not reasons, eig_dev_max=eig_dev, gram_defect=gram,
                      residual_max=res_max, variance_ok=variance_ok, reasons=reasons)
