"""Record the gate's reference eigenvalues into reference.json.

Run from the repository root:  python3 bench/make_reference.py

Each workload is solved from start seeds 0-3.  Seed 0's top eigenvalues
become the reference, and the largest deviation of the other seeds,
relative to λ₁, is stored beside them as evidence for the tolerance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from lrpostcov import cli  # noqa: E402

import gate  # noqa: E402
from workloads import WORKLOADS, config  # noqa: E402

EIG_RTOL = 1e-6
RESIDUAL_RTOL = 1e-6


def top_values(cfg) -> np.ndarray:
    run = cli.run_eigs(cfg)
    return run.result.ritz_values.real[:gate.TOP_K]


def main() -> int:
    out = {"eig_rtol": EIG_RTOL, "residual_rtol": RESIDUAL_RTOL, "workloads": {}}
    for name in WORKLOADS:
        runs = [top_values(config(name, seed)) for seed in range(4)]
        ref = runs[0]
        spread = max(float(np.max(np.abs(r - ref))) for r in runs[1:]) / ref[0]
        out["workloads"][name] = {"top": [float(v) for v in ref],
                                  "seed_spread_rel": spread}
        print(f"{name}: lambda_1={ref[0]:.6g} seed spread {spread:.2e}·λ₁", flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
