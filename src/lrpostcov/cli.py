"""Experiment configuration, the one run path, and the command line.

Configuration is a flat set of key=value pairs with precedence
flag > config file > default.  Every solve is one ``run_eigs`` call
(``oracle`` runs it exhaustively), and the commands here write every output
file.  Every command
writes a manifest echoing the fully resolved configuration into the output
directory; re-running with --config pointing at that manifest reproduces
the CSV/PGM outputs bitwise.  Wall-clock timings only ever go to
diagnostics.log.

Subcommands: eigs, variance, oracle, sweep, analytic.
Exit codes: 0 success/PASS, 2 configuration error, 3 numerical failure,
4 oracle FAIL.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import discretize, hessian, oracle, posterior
from .arnoldi import ArnoldiResult, StopRule, lr_arnoldi
from .errors import InvalidConfigError, NumericalError, check_count, shown
from .forward import COMPRESS_EVERY, SpaceTimeOperator
from .lowrank import (
    LowRankMat,
    TruncationPolicy,
    lr_from_dense,
    lr_singular_values,
    lr_to_dense,
)

PROBLEMS = ("heat", "convdiff")


@dataclass(frozen=True)
class RunConfig:
    problem: str = "heat"
    n_side: int = 31
    nt: int = 30
    final_time: float = 1.0
    nu: float = 1e-2
    wind: tuple[float, float] = (0.0, 1.0)
    beta_ratio: float = 1e4
    gamma_prior: float = 10.0
    sensors: str = "grid3x3"        # none (= full observation) | grid3x3 | custom:...
    eps0: float = 1e-8
    eps_eig: float = 1e-1
    m_a: int = 100
    mode: str = "ic"
    start: str = "ones"             # ones | random
    seed: int = 0
    compress_every: int = COMPRESS_EVERY
    k: int = 50                     # how many Ritz values to report
    out: str = "out"

    def __post_init__(self):
        """Reject a bad setting when the config is built (``replace`` builds anew)."""
        if self.problem not in PROBLEMS:
            raise InvalidConfigError(f"problem must be one of {PROBLEMS}, got {shown(self.problem)}")
        hessian.check_mode(self.mode, self.problem)
        if self.start not in ("ones", "random"):
            raise InvalidConfigError(f"start must be ones or random, got {shown(self.start)}")
        if not isinstance(self.out, (str, os.PathLike)):
            raise InvalidConfigError(f"out must be a path, got {shown(self.out)}")
        # every range (finiteness too) is checked once, by building the object
        # that owns it; a count is kept as the int its owner made (31.0 is 31)
        counts = {key: check_count(key, getattr(self, key), least)
                  for key, least in (("seed", 0), ("k", 1), ("compress_every", 1))}
        grid = discretize.build_grid(self.n_side)
        time_grid = discretize.build_time_grid(self.nt, self.final_time)
        discretize.assemble_convdiff(grid, self.nu, self.wind)  # nu is checked for heat too
        hessian.CovarianceSpec.from_gamma(self.gamma_prior, self.beta_ratio, grid)
        TruncationPolicy(self.eps0)
        counts.update(n_side=grid.n_side, nt=time_grid.n_t,
                      m_a=StopRule(self.m_a, self.eps_eig).m_a)
        for key, value in counts.items():
            object.__setattr__(self, key, value)
        # building the layout rejects an unknown setting and patches the grid
        # cannot resolve before any output; steady mode builds none, so its
        # default grid3x3 is not checked
        if self.mode != hessian.MODE_STEADY or self.sensors != "grid3x3":
            _build_layout(self, grid)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise InvalidConfigError(f"unknown configuration key {shown(key)}")
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    try:
        if key == "wind":
            wx, wy = map(float, raw.split(","))  # exactly two components
            return (wx, wy)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise InvalidConfigError(f"bad value for {key}: {shown(raw)}") from exc
    return raw


def _format_value(key: str, value) -> str:
    if key == "wind":
        return f"{value[0]:.17g},{value[1]:.17g}"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def load_config_file(path) -> dict:
    updates = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{lineno}: expected key=value, got {shown(line)}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in updates:  # a later line would silently win
            raise InvalidConfigError(f"{path}:{lineno}: repeated key {shown(key)}")
        updates[key] = _parse_value(key, raw)
    return updates


def resolve_config(file_path=None, flag_updates=None) -> RunConfig:
    """Apply precedence flag > file > default; the one RunConfig built checks itself."""
    updates = load_config_file(file_path) if file_path is not None else {}
    updates.update({k: _parse_value(k, v) if isinstance(v, str) else v
                    for k, v in (flag_updates or {}).items()})
    return RunConfig(**updates)


def _custom_patches(sensors: str) -> list[tuple[float, float, float]]:
    """Parse ``custom:cx,cy,side;...`` into (cx, cy, side) triples; the layout checks them."""
    triples = []
    for chunk in sensors[len("custom:"):].split(";"):
        try:
            triple = tuple(float(p) for p in chunk.split(","))
        except ValueError:
            triple = ()
        if len(triple) != 3:
            raise InvalidConfigError(f"custom sensor patch needs cx,cy,side, got {shown(chunk)}")
        triples.append(triple)
    return triples


def write_manifest(cfg: RunConfig, outdir: Path, notes: dict | None = None) -> None:
    lines = [f"{f.name}={_format_value(f.name, getattr(cfg, f.name))}" for f in fields(cfg)]
    if notes:
        lines += [f"# {k}: {v}" for k, v in notes.items()]
    (outdir / "manifest.cfg").write_text("\n".join(lines) + "\n")


@dataclass
class Problem:
    """Resolved, assembled instance of a RunConfig."""

    config: RunConfig
    grid: discretize.Grid
    spatial: discretize.SpatialOperator
    time: discretize.TimeGrid | None
    K: SpaceTimeOperator | None
    layout: hessian.SensorLayout | None
    cov: hessian.CovarianceSpec
    pol: TruncationPolicy
    ctx: hessian.HessianContext


def _build_layout(cfg: RunConfig, grid: discretize.Grid) -> hessian.SensorLayout:
    if cfg.sensors == "none":
        return hessian.full_observation(grid)
    if cfg.sensors == "grid3x3":
        return hessian.make_sensor_layout_3x3(grid)
    if isinstance(cfg.sensors, str) and cfg.sensors.startswith("custom:"):
        return hessian.make_sensor_layout(_custom_patches(cfg.sensors), grid)
    raise InvalidConfigError(f"unknown sensors setting {shown(cfg.sensors)}")


def build_problem(cfg: RunConfig) -> Problem:
    grid = discretize.build_grid(cfg.n_side)
    cov = hessian.CovarianceSpec.from_gamma(cfg.gamma_prior, cfg.beta_ratio, grid)
    pol = TruncationPolicy(eps0=cfg.eps0)

    if cfg.problem == "heat":  # always, in steady mode
        spatial = discretize.assemble_heat(grid)
    else:
        spatial = discretize.assemble_convdiff(grid, cfg.nu, cfg.wind)
    if cfg.mode == hessian.MODE_STEADY:
        ctx = hessian.HessianContext(mode=cfg.mode, operator=None, layout=None, cov=cov, pol=pol,
                                     spatial=spatial)
        return Problem(cfg, grid, spatial, None, None, None, cov, pol, ctx)

    time = discretize.build_time_grid(cfg.nt, cfg.final_time)
    K = SpaceTimeOperator(spatial, time)
    layout = _build_layout(cfg, grid)
    ctx = hessian.HessianContext(
        mode=cfg.mode, operator=K, layout=layout, cov=cov, pol=pol,
        compress_every=cfg.compress_every,
    )
    return Problem(cfg, grid, spatial, time, K, layout, cov, pol, ctx)


def start_vector(cfg: RunConfig, problem: Problem):
    """Deterministic all-ones start by default; seeded Gaussian otherwise.

    In source mode it is the rank-1 field of two such unit vectors, one in
    space and then one in time, and on the data side the dense column-major
    vector of that field's observed rows.
    """
    rng = np.random.default_rng(cfg.seed)

    def draw(n: int) -> np.ndarray:
        v = np.ones(n) if cfg.start == "ones" else rng.standard_normal(n)
        return v / np.linalg.norm(v)

    w1 = draw(problem.grid.n_x)
    if cfg.mode != hessian.MODE_SOURCE:
        return w1
    w2 = draw(problem.time.n_t)
    if problem.ctx.data_side:
        return np.outer(w1[problem.layout.mask], w2).ravel(order="F")
    return LowRankMat(w1.reshape(-1, 1), w2.reshape(-1, 1))


@dataclass
class EigsRun:
    problem: Problem
    result: ArnoldiResult

    @property
    def rank_trace(self) -> list[int]:
        """Per iteration (ranks.csv), the larger of its apply's entry in the
        context's trace and the rank of the basis vector it stored (0 if dense)."""
        stored = [getattr(v, "r", 0) for v in self.result.basis[1:]] + [0]  # none at breakdown
        return list(map(max, self.problem.ctx.rank_trace[:self.result.iterations], stored))


def run_eigs(cfg: RunConfig, exhaustive: bool = False) -> EigsRun:
    """Arnoldi on the configured Hessian; see StopRule for ``exhaustive``.

    On the data side (``HessianContext.data_side``) Arnoldi runs on D, and
    the Ritz vectors are combined from each apply's parameter-side image,
    which lives only as long as this call.
    """
    problem = build_problem(cfg)
    ctx = problem.ctx
    # Krylov cannot exceed the dimension of its space; a restart past an
    # invariant subspace fills one dimension of it too
    stop = StopRule(m_a=min(cfg.m_a, ctx.krylov_dim), eps_eig=cfg.eps_eig,
                    exhaustive=exhaustive, restart_seed=cfg.seed)
    images = [] if ctx.data_side else None
    return EigsRun(problem, lr_arnoldi(lambda u: ctx.apply(u, images),
                                       start_vector(cfg, problem), problem.pol, stop, images))


def run_variance(cfg: RunConfig):
    if cfg.mode == hessian.MODE_SOURCE:
        raise InvalidConfigError(
            "the variance field is defined for spatial parameter modes (ic, steady)")
    run = run_eigs(cfg)
    return run, posterior.build_summary(run.result.ritz_values, run.result.ritz_vectors,
                                        gamma_prior=run.problem.cov.gamma_prior,
                                        eps_eig=cfg.eps_eig)


# ---------------------------------------------------------------------------
# output writers


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_eigs_outputs(run: EigsRun, outdir: Path) -> None:
    res, ranks, cfg = run.result, run.rank_trace, run.problem.config
    k = min(cfg.k, len(res.ritz_values))
    _write_rows(
        outdir / "eigenvalues.csv", "index,ritz_value",
        (f"{i},{res.ritz_values[i]:.17g}" for i in range(k)),
    )
    _write_rows(
        outdir / "ranks.csv", "iteration,max_intermediate_rank",
        (f"{j + 1},{r}" for j, r in enumerate(ranks)),
    )
    m = res.H.shape[1]
    _write_rows(
        outdir / "hessenberg.csv", "i,j,value",
        (f"{i},{j},{res.H[i, j]:.17g}" for j in range(m) for i in range(min(j + 2, m + 1))),
    )
    if cfg.mode == hessian.MODE_SOURCE:
        # spectra of the low-rank Ritz vectors (space-time separation decay)
        rows = []
        for idx in range(k):
            for s_idx, s in enumerate(lr_singular_values(res.ritz_vectors[idx])):
                rows.append(f"{idx},{s_idx},{s:.17g}")
        _write_rows(outdir / "singular_values.csv", "vector,index,sigma", rows)
    with open(outdir / "diagnostics.log", "w") as fh:
        fh.write(f"iterations={res.iterations} breakdown={res.breakdown} "
                 f"converged_count={res.converged_count} stop={res.stop_reason} "
                 f"asymmetry={res.asymmetry():.6e}\n")
        for j, (rank, secs) in enumerate(zip(ranks, res.step_seconds)):
            fh.write(f"iter={j + 1} h_subdiag={res.H[j + 1, j]:.6e} max_rank={rank} "
                     f"seconds={secs:.4f}\n")


def _out_dir(path, create: bool = True) -> Path:
    """The output directory ``path``: refused if it or a parent is not one; made if ``create``."""
    out = Path(path)
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise InvalidConfigError(f"out={path}: {p} exists and is not a directory")
    if create:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _save_eigs(run: EigsRun) -> Path:
    """Write a finished run's eigen outputs and manifest; returns the directory."""
    outdir = _out_dir(run.problem.config.out)
    write_eigs_outputs(run, outdir)
    write_manifest(run.problem.config, outdir)
    return outdir


def cmd_eigs(cfg: RunConfig) -> int:
    _save_eigs(run_eigs(cfg))
    return 0


def cmd_variance(cfg: RunConfig) -> int:
    run, summary = run_variance(cfg)
    outdir = _save_eigs(run)
    n = cfg.n_side
    grid = summary.variance_field.reshape(n, n)  # row j = x2 level j
    _write_rows(outdir / "variance.csv", ",".join(f"c{i}" for i in range(n)),
                (",".join(f"{v:.17g}" for v in row) for row in grid))
    # plain 8-bit PGM: the field minimum maps to 0, gamma_prior to 255
    lo = grid.min()
    span = summary.gamma_prior - lo
    pix = np.full_like(grid, 255.0) if span <= 0 else np.clip(255.0 * (grid - lo) / span, 0, 255)
    _write_rows(outdir / "variance.pgm", f"P2\n{n} {n}\n255",
                (" ".join(map(str, row)) for row in np.rint(pix).astype(int)))
    _write_rows(
        outdir / "retained.csv", "lambda,lambda_tilde",
        (f"{lam:.17g},{f:.17g}" for lam, f in zip(summary.eigenvalues, summary.filters)),
    )
    return 0


ORACLE_RETAIN = 1e-8  # retention threshold of the compared variance field
ORACLE_TOP_K = 10     # leading eigenpairs compared


def run_oracle(cfg: RunConfig):
    # refuse an over-cap dense side before spending the low-rank solve
    source = cfg.mode == hessian.MODE_SOURCE
    oracle.check_cap(cfg.n_side**2 * (cfg.nt if source else 1))
    # the dense side has the complete spectrum, so the low-rank side runs
    # exhaustively: no refresh stop, and a reseed through each multiplicity
    run = run_eigs(cfg, exhaustive=True)
    problem, result, cov = run.problem, run.result, run.problem.cov
    L_dense = problem.spatial.L.toarray()
    if cfg.mode == hessian.MODE_STEADY:
        Hd, asymmetry = oracle.dense_misfit_steady(L_dense, cov.beta_noise, cov.beta_prior)
    else:
        dense = oracle.dense_misfit_source if source else oracle.dense_misfit_ic
        Hd, asymmetry = dense(L_dense, problem.grid.m_scale, problem.time.tau, problem.time.n_t,
                              problem.layout.mask, cov.beta_noise, cov.gamma_prior)
    # the dense view of a parameter: a source field is stacked column-major
    view = lift = np.asarray
    if source:
        shape = (problem.grid.n_x, problem.time.n_t)
        view = lambda v: lr_to_dense(v).reshape(-1, order="F")
        lift = lambda x: lr_from_dense(x.reshape(shape, order="F"), problem.pol)
    hv_err = oracle.hv_agreement(lambda x: view(problem.ctx.apply(lift(x))), Hd,
                                 n_probe=20, seed=cfg.seed)

    # extend the top-k to the end of the cluster holding eigenvalue k, as far
    # as Ritz pairs exist (one dense value past them shows a cut); a cluster
    # the cap still cuts is left out of the angle check
    n_avail = min(problem.ctx.n_param, len(result.ritz_values))
    k = min(ORACLE_TOP_K, n_avail)
    dn_vals, dn_vecs = oracle.dense_eig_top(Hd, n_avail + 1)
    last = next(g for g in oracle.clusters(dn_vals) if g.start < k <= g.stop)
    if last.stop <= n_avail:
        k = n_angle = last.stop
    else:
        n_angle = last.start
    lr_vecs = np.column_stack([view(v) for v in result.ritz_vectors[:k]])

    lr_var = dn_var = None
    if not source:
        lr_var = posterior.build_summary(result.ritz_values, result.ritz_vectors,
                                         gamma_prior=cov.gamma_prior,
                                         eps_eig=ORACLE_RETAIN).variance_field
        dn_var = oracle.dense_posterior_diag(Hd, cov.gamma_prior)

    report = oracle.compare(
        result.ritz_values, lr_vecs, dn_vals[:k], dn_vecs[:, :n_angle], Hd=Hd,
        lr_variance=lr_var, dense_variance=dn_var, hv_rel_error=hv_err,
    )
    report.asymmetry = asymmetry
    return problem, result, report


def cmd_oracle(cfg: RunConfig) -> int:
    _, _, report = run_oracle(cfg)
    outdir = _out_dir(cfg.out)
    (outdir / "oracle_report.txt").write_text(report.as_text())
    write_manifest(cfg, outdir)
    return 0 if report.passed else 4


SWEEP_FIELDS = ("nt", "n_side", "nu", "beta_ratio", "eps0", "eps_eig")  # --axis takes their flags


def cmd_sweep(cfg: RunConfig, axis: str, values: list[str]) -> int:
    axes = [_flag(key) for key in SWEEP_FIELDS]
    if axis not in axes:
        raise InvalidConfigError(f"sweep axis must be one of {sorted(axes)}, got {shown(axis)}")
    if not values:
        raise InvalidConfigError("sweep needs a nonempty list of axis values")
    key = SWEEP_FIELDS[axes.index(axis)]
    outdir = Path(cfg.out)
    rows, failed = [], False
    for raw in values:
        # each point runs with fully independent state
        try:
            value = _parse_value(key, raw)
            point_cfg = replace(cfg, **{key: value, "out": str(outdir / f"{axis}_{raw}")})
            _out_dir(point_cfg.out, create=False)
            run = run_eigs(point_cfg)
            _save_eigs(run)
            res = run.result
            rows.append(f"{raw},{res.iterations},{max(run.rank_trace)},{res.ritz_values[0]:.17g}")
        except (InvalidConfigError, NumericalError) as exc:
            failed = True
            rows.append(f"{raw},ERROR,ERROR,ERROR")
            print(f"sweep point {axis}={raw} failed: {exc}", file=sys.stderr)
    _write_rows(_out_dir(outdir) / "summary.csv",
                "point,iterations_to_threshold,max_rank,largest_eig", rows)
    write_manifest(cfg, outdir, {"sweep_axis": axis, "sweep_values": ",".join(values)})
    return 3 if failed else 0


def cmd_analytic(cfg: RunConfig) -> int:
    grid = discretize.build_grid(cfg.n_side)
    modes = [(m, n) for m in range(1, grid.n_side + 1) for n in range(1, grid.n_side + 1)]
    modes.sort(key=lambda mn: discretize.discrete_fd_eig(mn[0], mn[1], grid))
    k = min(cfg.k, len(modes))
    print("m,n,lambda_analytic,lambda_discrete,mu_steady")
    for m, n in modes[:k]:
        lam_a = discretize.analytic_poisson_eig(m, n)
        lam_d = discretize.discrete_fd_eig(m, n, grid)
        mu = (1.0 / cfg.beta_ratio) / lam_d**2
        print(f"{m},{n},{lam_a:.17g},{lam_d:.17g},{mu:.17g}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _flag(key: str) -> str:  # a config key's flag, without its leading "--"
    return key.replace("_", "-")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    # one flag per RunConfig field; values stay raw strings for _parse_value
    p.add_argument("--config", help="key=value config file (e.g. a manifest)")
    for f in fields(RunConfig):
        p.add_argument("--" + _flag(f.name), dest=f.name)


# a token argparse would read as an option although it is a negative value
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--wind -0.5,1" as "--wind=-0.5,1" for every config flag.

    argparse takes a token that starts with "-" and is not a plain number
    for an option, so a list value with a negative first entry would
    otherwise need the "=" form.
    """
    flags = {"--" + _flag(f.name) for f in fields(RunConfig)}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in flags and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _flag_updates(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in _FIELD_TYPES
            if getattr(args, key) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrpostcov",
        description="Low-rank posterior covariance approximation for "
                    "space-time Bayesian inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("eigs", "compute the dominant misfit-Hessian eigenvalues"),
        ("variance", "compute the pointwise posterior variance field"),
        ("oracle", "compare the low-rank path against a dense reference"),
        ("sweep", "run a parameter sweep"),
        ("analytic", "print analytic/discrete Laplacian eigenvalue tables"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           help=f"one of {sorted(map(_flag, SWEEP_FIELDS))}")
            p.add_argument("--values", required=True,
                           help="comma-separated axis values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _bind_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = resolve_config(file_path=args.config, flag_updates=_flag_updates(args))
        if args.command == "analytic":  # the one command that writes no files
            return cmd_analytic(cfg)
        _out_dir(cfg.out, create=False)  # refused before any solve, made when written
        if args.command == "sweep":
            return cmd_sweep(cfg, args.axis, [v for v in args.values.split(",") if v])
        return {"eigs": cmd_eigs, "variance": cmd_variance, "oracle": cmd_oracle}[args.command](cfg)
    except InvalidConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
