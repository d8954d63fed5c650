"""Outside-in span tracing of one lrpostcov solve.

Wrappers are installed where each function name is looked up (modules
import functions by name, so patching the defining module alone would miss
most calls) and every original is restored afterwards.  No file under
``src/`` changes.

A span is ``[name, start, end, parent, solve_id, info]``: ``parent`` is the
index of the enclosing span (-1 for a root), and ``info`` is a small
per-call measurement taken from arguments and result (rhs columns, output
rank, truncation shapes).  Spans stay in memory; ``dump`` writes them out.
A span's self time is its duration minus the durations of its direct
children, which are disjoint because everything runs on one thread.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter

from lrpostcov import arnoldi, cli, discretize, forward, hessian, lowrank, posterior
from lrpostcov.forward import SpaceTimeOperator
from lrpostcov.hessian import HessianContext

# Summed self times must reproduce the traced total to this fraction; any
# larger gap means overlapping or lost spans, not rounding.
SELF_SUM_RTOL = 1e-9

LAYERS = ("discretize", "forward", "lowrank", "hessian", "arnoldi", "posterior", "cli")

# Spans a truncation is attributed to; the nearest enclosing one wins.
TRUNCATION_CONTEXTS = {
    "forward.sweep": "forward",
    "hessian.apply": "hessian",
    "arnoldi.ritz_pairs": "ritz",
    "arnoldi.lr_arnoldi": "arnoldi",
}


def _solve_cols(args, kwargs, out):
    return 1 if out.ndim == 1 else out.shape[1]


def _out_rank(args, kwargs, out):
    return out.r


def _truncate_shape(args, kwargs, out):
    n_x, n_t = args[0].shape
    return (n_x, n_t, args[0].r, out.r)


# (owner, attribute, span name, info extractor)
TARGETS = (
    (cli, "build_problem", "cli.build_problem", None),
    (cli, "lr_arnoldi", "arnoldi.lr_arnoldi", None),
    (posterior, "build_summary", "posterior.build_summary", None),
    (arnoldi, "ritz_pairs", "arnoldi.ritz_pairs", None),
    (discretize, "build_grid", "discretize.build_grid", None),
    (discretize, "build_time_grid", "discretize.build_time_grid", None),
    (discretize, "assemble_heat", "discretize.assemble", None),
    (discretize, "assemble_convdiff", "discretize.assemble", None),
    (SpaceTimeOperator, "__init__", "forward.factorize", None),
    (SpaceTimeOperator, "solve_step", "forward.solve_step", _solve_cols),
    (hessian, "st_solve_sweep", "forward.sweep", _out_rank),
    (hessian, "st_solve_adjoint_sweep", "forward.sweep", _out_rank),
    (HessianContext, "apply", "hessian.apply", None),
    (forward, "lr_truncate", "lowrank.truncate", _truncate_shape),
    (hessian, "lr_truncate", "lowrank.truncate", _truncate_shape),
    (arnoldi, "lr_truncate", "lowrank.truncate", _truncate_shape),
    (arnoldi, "lr_dot", "lowrank.dot", None),
    (lowrank, "lr_dot", "lowrank.dot", None),  # reached through lr_norm
)


class Tracer:
    """In-memory span recorder for single-threaded solves."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def trace_call(self, name: str, fn):
        """Call ``fn()`` as one traced solve with a root span ``name``.

        Originals are restored before returning, so anything the caller does
        with the result (the correctness gate, untraced timing) is untraced.
        """
        self.solve_id += 1
        self.install()
        try:
            return self.wrap(name, fn)()
        finally:
            self.restore()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, info in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path, env: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"env": env,
                       "fields": ["name", "start", "end", "parent", "solve_id", "info"],
                       "spans": self.spans}, fh)


def _truncate_gflop(n_x: int, n_t: int, r: int, r_out: int) -> float:
    """Computed (not measured) flop count of one lr_truncate from its shapes.

    Textbook counts: reduced Householder QR with the thin Q formed,
    4mn² − 4n³/3 per factor; the k1×k2 core product over r; a full SVD of
    the core, 4m²n + 8mn² + 9n³ (m ≥ n); and the two basis products onto
    the kept rank.
    """
    def qr(m, n):
        n = min(m, n)
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0

    k1, k2 = min(n_x, r), min(n_t, r)
    big, small = max(k1, k2), min(k1, k2)
    core = 2.0 * k1 * k2 * r
    svd = 4.0 * big * big * small + 8.0 * big * small * small + 9.0 * small ** 3
    basis = 2.0 * (n_x * k1 + n_t * k2) * r_out
    return (qr(n_x, r) + qr(n_t, r) + core + svd + basis) / 1e9


def layer_metrics(spans: list[list], solve_id: int) -> dict:
    """Per-layer metrics of one traced solve (spans tagged ``solve_id``)."""
    idx = [i for i, s in enumerate(spans) if s[4] == solve_id]
    if not idx:
        raise ValueError(f"no spans for solve {solve_id}")
    child_time = defaultdict(float)
    for i in idx:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] += spans[i][2] - spans[i][1]
    roots = [i for i in idx if spans[i][3] < 0]
    if len(roots) != 1:
        raise ValueError(f"solve {solve_id} has {len(roots)} root spans")
    root = roots[0]
    total = spans[root][2] - spans[root][1]

    count = defaultdict(int)
    dur = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    trunc_n = dict.fromkeys(TRUNCATION_CONTEXTS.values(), 0)
    trunc_s = dict.fromkeys(TRUNCATION_CONTEXTS.values(), 0.0)
    rank_in = rank_out = 0
    gflop = 0.0
    step_cols = 0
    sweep_rank_max = 0
    orth_s = 0.0
    for i in idx:
        name, t0, t1, parent, _, info = spans[i]
        d = t1 - t0
        s = d - child_time[i]
        count[name] += 1
        dur[name] += d
        self_s[name] += s
        layer_self[name.split(".", 1)[0]] += s
        if name == "forward.solve_step":
            step_cols += info
        elif name == "forward.sweep":
            sweep_rank_max = max(sweep_rank_max, info)
        elif name == "lowrank.truncate":
            n_x, n_t, r, r_out = info
            rank_in += r
            rank_out += r_out
            gflop += _truncate_gflop(n_x, n_t, r, r_out)
            ctx = _enclosing_context(spans, parent)
            trunc_n[ctx] += 1
            trunc_s[ctx] += d
        elif name == "arnoldi.lr_arnoldi":
            orth_s += d
        if parent >= 0 and spans[parent][0] == "arnoldi.lr_arnoldi" \
                and name in ("hessian.apply", "arnoldi.ritz_pairs"):
            orth_s -= d

    m = {
        "forward.step_solves": count["forward.solve_step"],
        "forward.step_cols": step_cols,
        "forward.step_solve_s": dur["forward.solve_step"],
        "forward.sweeps": count["forward.sweep"],
        "forward.sweep_self_s": self_s["forward.sweep"],
        "forward.sweep_rank_max": sweep_rank_max,
        "forward.factorize_s": dur["forward.factorize"],
        "lowrank.truncate_s": dur["lowrank.truncate"],
        "lowrank.truncate_rank_in": rank_in,
        "lowrank.truncate_rank_out": rank_out,
        "lowrank.keep_ratio": rank_out / rank_in if rank_in else 1.0,
        "lowrank.truncate_gflop": gflop,
        "lowrank.dots": count["lowrank.dot"],
        "lowrank.dot_frac": dur["lowrank.dot"] / total,
        "hessian.applies": count["hessian.apply"],
        "hessian.apply_s": dur["hessian.apply"],
        "hessian.apply_self_s": self_s["hessian.apply"],
        "arnoldi.orth_s": orth_s,
        "arnoldi.ritz_s": dur["arnoldi.ritz_pairs"],
        "posterior.summary_frac": dur["posterior.build_summary"] / total,
        "discretize.assemble_s": sum(v for k, v in dur.items() if k.startswith("discretize.")),
        "trace.solve_s": total,
        "trace.self_sum_err": abs(sum(layer_self.values()) - total) / total,
    }
    for ctx in trunc_n:
        m[f"lowrank.truncations.{ctx}"] = trunc_n[ctx]
        m[f"lowrank.truncate_frac.{ctx}"] = trunc_s[ctx] / total
    for layer, s in layer_self.items():
        m[f"{layer}.self_frac"] = s / total
    return m


def _enclosing_context(spans: list[list], parent: int) -> str:
    while parent >= 0:
        ctx = TRUNCATION_CONTEXTS.get(spans[parent][0])
        if ctx is not None:
            return ctx
        parent = spans[parent][3]
    raise ValueError("truncation outside any attributed span")


def count_identities(m: dict, nt: int, compress_every: int, iterations: int) -> list[str]:
    """Exact count identities of one traced solve; returns the violated ones."""
    applies = m["hessian.applies"]
    want = {
        "forward.step_solves": 2 * (nt + 1) * applies,
        "lowrank.truncations.forward": 2 * math.ceil(nt / compress_every) * applies,
        "hessian.applies": iterations,
    }
    bad = [f"{k} = {m[k]}, expected {v}" for k, v in want.items() if m[k] != v]
    if not m["trace.self_sum_err"] <= SELF_SUM_RTOL:
        bad.append(f"layer self times miss the traced total by {m['trace.self_sum_err']:.2e}")
    return bad


# Unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "forward.step_solves": "count", "forward.step_cols": "count", "forward.step_solve_s": "s",
    "forward.sweeps": "count", "forward.sweep_self_s": "s", "forward.sweep_rank_max": "count",
    "forward.factorize_s": "s",
    "lowrank.truncations.forward": "count", "lowrank.truncations.hessian": "count",
    "lowrank.truncations.arnoldi": "count", "lowrank.truncations.ritz": "count",
    "lowrank.truncate_s": "s",
    "lowrank.truncate_frac.forward": "ratio", "lowrank.truncate_frac.hessian": "ratio",
    "lowrank.truncate_frac.arnoldi": "ratio", "lowrank.truncate_frac.ritz": "ratio",
    "lowrank.truncate_rank_in": "count", "lowrank.truncate_rank_out": "count",
    "lowrank.keep_ratio": "ratio", "lowrank.truncate_gflop": "GFLOP",
    "lowrank.dots": "count", "lowrank.dot_frac": "ratio",
    "hessian.applies": "count", "hessian.apply_s": "s", "hessian.apply_self_s": "s",
    "hessian.apply_rank_max": "count",
    "arnoldi.orth_s": "s", "arnoldi.ritz_s": "s", "arnoldi.basis_floats": "count",
    "arnoldi.iterations": "count", "arnoldi.basis_rank_max": "count",
    "arnoldi.restarts": "count", "arnoldi.gram_defect": "abs",
    "posterior.summary_frac": "ratio", "posterior.retained": "count",
    "posterior.residual_max": "ratio", "posterior.eig_dev_max": "ratio",
    "discretize.assemble_s": "s",
    "discretize.self_frac": "ratio", "forward.self_frac": "ratio",
    "lowrank.self_frac": "ratio", "hessian.self_frac": "ratio",
    "arnoldi.self_frac": "ratio", "posterior.self_frac": "ratio", "cli.self_frac": "ratio",
    "trace.solve_s": "s", "trace.overhead_frac": "ratio",
}
