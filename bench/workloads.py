"""The benchmark's named workloads: user-facing solves of the lrpostcov CLI layer.

Every workload uses eps0=1e-8, eps_eig=0.1, nt=30 and a seeded random start
vector; the benchmark's ``--seed`` becomes the start seed.  README.md in
this directory says why each workload exists and which layers it loads.
"""

from __future__ import annotations

from lrpostcov.cli import RunConfig

COMMON = dict(eps0=1e-8, eps_eig=0.1, nt=30, start="random")

WORKLOADS = {
    # heat IC with the nine-patch sensor grid: the paper's headline setting
    "ic-sensors": dict(problem="heat", mode="ic", n_side=63, sensors="grid3x3", m_a=120),
    # convection-diffusion IC observed everywhere: sweep ranks ~20, 120 pairs retained
    "ic-full": dict(problem="convdiff", mode="ic", n_side=63, sensors="none", m_a=120),
    # distributed space-time source; beta_ratio=1e6 puts 34 eigenvalues above eps_eig
    "source": dict(problem="heat", mode="source", n_side=31, m_a=40, beta_ratio=1e6),
}


def config(name: str, seed: int) -> RunConfig:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return RunConfig(**COMMON, **WORKLOADS[name], seed=seed)
