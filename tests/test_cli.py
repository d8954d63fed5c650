from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrpostcov as lp
from lrpostcov import cli


def _read_csv(path):
    rows = path.read_text().strip().splitlines()
    return rows[0].split(","), [r.split(",") for r in rows[1:]]


def test_analytic_table(capsys):
    rc = cli.main(["analytic", "--n-side", "15", "--k", "3", "--beta-ratio", "1e4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,n,lambda_analytic,lambda_discrete,mu_steady"
    m, n, lam_a, lam_d, mu = lines[1].split(",")
    grid = lp.build_grid(15)
    assert (int(m), int(n)) == (1, 1)
    assert_allclose(float(lam_a), 2 * np.pi**2, rtol=1e-15)
    assert_allclose(float(lam_d), lp.discrete_fd_eig(1, 1, grid), rtol=1e-15)
    assert_allclose(float(mu), 1e-4 / lp.discrete_fd_eig(1, 1, grid) ** 2, rtol=1e-15)


def test_analytic_rejects_a_nonpositive_k(capsys):
    assert cli.main(["analytic", "--n-side", "3", "--sensors", "none", "--k", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_steady_eigs_first_value(tmp_path):
    out = tmp_path / "steady"
    rc = cli.main([
        "eigs", "--problem", "heat", "--mode", "steady",
        "--n-side", "15", "--m-a", "60", "--eps-eig", "1e-12",
        "--k", "5", "--out", str(out),
    ])
    assert rc == 0
    header, rows = _read_csv(out / "eigenvalues.csv")
    assert header == ["index", "ritz_value"]
    grid = lp.build_grid(15)
    expect = 1e-4 / lp.discrete_fd_eig(1, 1, grid) ** 2
    assert_allclose(float(rows[0][1]), expect, rtol=1e-8)
    # the first diagnostics line says why Arnoldi stopped and ends in the
    # Hessenberg block's measured symmetry
    first = (out / "diagnostics.log").read_text().splitlines()[0]
    assert " stop=cap asymmetry=" in first
    assert 0.0 <= float(first.split("asymmetry=")[1]) <= 1e-8
    # the steady manifest names the heat problem and replays bitwise
    assert "problem=heat\n" in (out / "manifest.cfg").read_text()
    replay = tmp_path / "replay"
    assert cli.main(["eigs", "--config", str(out / "manifest.cfg"), "--out", str(replay)]) == 0
    assert (replay / "eigenvalues.csv").read_bytes() == (out / "eigenvalues.csv").read_bytes()


def test_runs_are_bitwise_deterministic(tmp_path):
    args = ["eigs", "--problem", "heat", "--n-side", "7", "--nt", "5",
            "--sensors", "none", "--m-a", "20", "--eps-eig", "1e-10"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    for name in ("eigenvalues.csv", "ranks.csv", "hessenberg.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_rerun_reproduces_bitwise(tmp_path):
    first = tmp_path / "first"
    rc = cli.main(["eigs", "--problem", "heat", "--n-side", "7", "--nt", "4",
                   "--sensors", "none", "--m-a", "15", "--eps-eig", "1e-10",
                   "--seed", "3", "--start", "random",
                   "--out", str(first)])
    assert rc == 0
    second = tmp_path / "second"
    rc = cli.main(["eigs", "--config", str(first / "manifest.cfg"),
                   "--out", str(second)])
    assert rc == 0
    for name in ("eigenvalues.csv", "ranks.csv", "hessenberg.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_variance_empty_retention_is_prior_constant(tmp_path):
    # beta_noise -> 0 surrogate: a tiny ratio pushes every eigenvalue below
    # the retention threshold, so the field equals gamma_prior everywhere
    out = tmp_path / "flat"
    rc = cli.main(["variance", "--problem", "heat", "--n-side", "7", "--nt", "4",
                   "--sensors", "none", "--beta-ratio", "1e-12",
                   "--m-a", "10", "--eps-eig", "1e-1", "--gamma-prior", "10", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "variance.csv")
    values = np.array([[float(x) for x in row] for row in rows])
    assert_allclose(values, 10.0, rtol=1e-12)
    _, retained = _read_csv(out / "retained.csv")
    assert retained == []


def test_variance_minimum_at_sensor_dof(tmp_path):
    out = tmp_path / "var31"
    rc = cli.main(["variance", "--problem", "heat", "--n-side", "31", "--nt", "10",
                   "--m-a", "25", "--eps-eig", "1e-1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "variance.csv")
    values = np.array([[float(x) for x in row] for row in rows])
    field = values.ravel()  # row j is the x2 level, matching dof order
    grid = lp.build_grid(31)
    from lrpostcov.hessian import make_sensor_layout_3x3
    mask = make_sensor_layout_3x3(grid).mask
    assert mask[np.argmin(field)]
    assert (out / "variance.pgm").read_text().startswith("P2\n31 31\n255\n")


def test_oracle_pass_heat(tmp_path):
    out = tmp_path / "orc"
    rc = cli.main(["oracle", "--problem", "heat", "--n-side", "7", "--nt", "5",
                   "--sensors", "none", "--m-a", "100", "--eps-eig", "1e-12",
                   "--out", str(out)])
    assert rc == 0
    text = (out / "oracle_report.txt").read_text()
    assert "result=PASS" in text
    # the dense builder's asymmetry is a measurement, not a tol_* threshold
    assert "\nasymmetry=" in text and "tol_asymmetry" not in text


@pytest.mark.parametrize("n_side", ["7", "15"])
def test_steady_oracle_passes_without_stop_flags(tmp_path, n_side):
    # the steady spectrum is made of exact (m,n)/(n,m) pairs; the oracle's
    # exhaustive run must find both copies of each without any stop flag
    out = tmp_path / "steady"
    rc = cli.main(["oracle", "--problem", "heat", "--mode", "steady",
                   "--n-side", n_side, "--out", str(out)])
    assert rc == 0
    assert (out / "oracle_report.txt").read_text().splitlines()[-1] == "result=PASS"


def test_oracle_pass_convdiff(tmp_path):
    out = tmp_path / "orc_cd"
    rc = cli.main(["oracle", "--problem", "convdiff", "--nu", "1e-2",
                   "--n-side", "5", "--nt", "4", "--sensors", "none", "--m-a", "100",
                   "--eps-eig", "1e-12", "--out", str(out)])
    assert rc == 0
    assert "result=PASS" in (out / "oracle_report.txt").read_text()


def test_sensor_oracle_passes_through_flushes_that_truncate_to_nothing(tmp_path, monkeypatch):
    # nine observed rows: once the Krylov vectors leave the observed range,
    # a forward pane's flush truncates to rank 0, and its basis rotation
    # then has no column to write
    emptied = []

    def spy(pane, W, idx, pol):
        out = extend(pane, W, idx, pol)
        emptied.append(pane.r > 0 and out.r == 0)
        return out

    extend = lp.forward._extend_pane
    monkeypatch.setattr(lp.forward, "_extend_pane", spy)
    out = tmp_path / "orc_sensors"
    rc = cli.main(["oracle", "--problem", "convdiff", "--wind", "1,0", "--n-side", "15",
                   "--nt", "5", "--sensors", "grid3x3", "--m-a", "100", "--out", str(out)])
    assert rc == 0
    assert (out / "oracle_report.txt").read_text().splitlines()[-1] == "result=PASS"
    assert any(emptied)


def test_oracle_corrupted_truncation_fails(tmp_path):
    out = tmp_path / "bad"
    rc = cli.main(["oracle", "--problem", "heat", "--n-side", "7", "--nt", "5",
                   "--sensors", "none", "--eps0", "0.5", "--m-a", "100", "--eps-eig", "1e-12",
                   "--out", str(out)])
    assert rc == 4
    assert "result=FAIL" in (out / "oracle_report.txt").read_text()


def test_oracle_cap_exceeded_is_config_error(tmp_path, monkeypatch):
    # an over-cap dense side is refused before the low-rank solve starts
    def no_solve(cfg):
        raise AssertionError("run_eigs called for an over-cap oracle run")

    monkeypatch.setattr(cli, "run_eigs", no_solve)
    # IC dimension 63² = 3969; source dimension 15²·10 = 2250
    for mode, n_side, nt in (("ic", "63", "30"), ("source", "15", "10")):
        out = tmp_path / mode
        rc = cli.main(["oracle", "--problem", "heat", "--mode", mode, "--n-side", n_side,
                       "--nt", nt, "--out", str(out)])
        assert rc == 2
        assert not out.exists()


def test_sweep_nu_axis(tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--axis", "nu", "--values", "1e-1,1e-2,1e-3",
                   "--problem", "convdiff", "--n-side", "15", "--nt", "6",
                   "--m-a", "25", "--eps-eig", "1e-1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "summary.csv")
    assert header == ["point", "iterations_to_threshold", "max_rank", "largest_eig"]
    assert [r[0] for r in rows] == ["1e-1", "1e-2", "1e-3"]
    eigs = [float(r[3]) for r in rows]
    assert eigs[0] < eigs[1] < eigs[2]  # largest eigenvalue grows as nu shrinks
    for r in rows:
        assert (out / f"nu_{r[0]}" / "eigenvalues.csv").exists()
        # each summary row restates its point's per-iteration rank file
        _, ranks = _read_csv(out / f"nu_{r[0]}" / "ranks.csv")
        assert int(r[1]) == len(ranks) >= 1
        assert int(r[2]) == max(int(rank) for _, rank in ranks)


def test_sweep_records_point_failure_and_continues(tmp_path):
    out = tmp_path / "sweepfail"
    rc = cli.main(["sweep", "--axis", "nu", "--values", "1e-2,-1.0",
                   "--problem", "convdiff", "--n-side", "7", "--nt", "4",
                   "--sensors", "none", "--m-a", "10", "--out", str(out)])
    assert rc == 3
    _, rows = _read_csv(out / "summary.csv")
    assert rows[0][0] == "1e-2" and rows[1][1] == "ERROR"
    assert not (out / "nu_-1.0").exists()  # a failing point writes nothing


@pytest.mark.parametrize("flags", [
    ["--gamma-prior", "-1"],
    ["--final-time", "0"],
    ["--problem", "convdiff", "--nu", "-0.1"],
    ["--sensors", "custom:2,2,0.1"],
])
def test_sweep_rejects_a_bad_base_value_without_output(tmp_path, flags):
    # the base configuration is checked once, before any point runs
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--axis", "nt", "--values", "4,5", "--n-side", "7",
                   "--sensors", "none", "--m-a", "5", "--out", str(out), *flags])
    assert rc == 2
    assert not out.exists()


def test_sweep_rejects_unknown_axis(tmp_path):
    rc = cli.main(["sweep", "--axis", "bogus", "--values", "1,2",
                   "--out", str(tmp_path / "x")])
    assert rc == 2


def test_invalid_config_exit_code(tmp_path):
    out = tmp_path / "nope"
    assert cli.main(["eigs", "--n-side", "1", "--out", str(out)]) == 2
    assert cli.main(["eigs", "--problem", "convdiff", "--mode", "steady",
                     "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("updates, ok", [
    ({}, True),
    # README's library use
    (dict(problem="heat", n_side=31, nt=30, beta_ratio=1e4, eps_eig=1e-1, m_a=60), True),
    ({"problem": "foo"}, False),
    ({"start": "bogus"}, False),
    ({"problem": "convdiff", "mode": "steady"}, False),
    ({"n_side": 7}, False),  # the default grid3x3 needs n_side >= 15
    ({"nt": 0}, False),
    # a size that is not a whole number is refused, not rounded down
    ({"n_side": 31.5}, False),
    ({"nt": 5.5, "n_side": 7, "sensors": "none"}, False),
    ({"n_side": 31.0, "nt": np.int64(30)}, True),
])
def test_run_config_is_checked_when_built(updates, ok):
    # the constructor and dataclasses.replace both check, so no unchecked config exists
    for build in (lambda: cli.RunConfig(**updates), lambda: replace(cli.RunConfig(), **updates)):
        if ok:
            build()
        else:
            with pytest.raises(lp.InvalidConfigError):
                build()


@pytest.mark.parametrize("key", ["n_side", "nt", "m_a", "seed", "compress_every", "k"])
@pytest.mark.parametrize("value", [5.5, True, "5"])
def test_run_config_refuses_a_count_that_is_not_a_whole_number(key, value):
    # library use reaches these (the command line parses them with int()); a
    # non-integral count used to die later with a raw TypeError
    base = dict(n_side=7, nt=4, sensors="none", m_a=5)
    with pytest.raises(lp.InvalidConfigError, match="must be an integer"):
        cli.RunConfig(**{**base, key: value})


def test_run_config_keeps_a_whole_float_count_as_an_int(tmp_path):
    cfg = cli.RunConfig(n_side=7.0, nt=np.int64(4), sensors="none", m_a=5.0, seed=1.0,
                        compress_every=2.0, k=3.0, out=str(tmp_path / "out"))
    counts = ("n_side", "nt", "m_a", "seed", "compress_every", "k")
    assert all(type(getattr(cfg, key)) is int for key in counts)
    assert cli.cmd_variance(cfg) == 0  # a float n_side used to fail writing the fields


@pytest.mark.parametrize("flags", [
    ["--eps-eig", "nan"],
    ["--gamma-prior", "nan"],
    ["--beta-ratio", "inf"],
    ["--problem", "convdiff", "--nu", "nan"],
    ["--final-time", "inf"],
    ["--eps0", "nan"],
    ["--problem", "steady-poisson", "--mode", "steady"],
    ["--problem", "convdiff", "--wind", "0,-inf"],
    ["--sensors", "custom:0.5,0.5,inf"],
    ["--sensors", "custom:a,0.5,0.2"],
    ["--wind", "a,b"],
    ["--problem", "convdiff", "--mode", "steady"],
    ["--gamma-prior", "-1"],
    ["--compress-every", "0"],
    ["--n-side", "abc"],
    ["--problem", "bogus"],
    ["--problem", "convdiff", "--nu", "-0.01"],
    ["--start", "random", "--seed", "-1"],
    ["--k", "0"],
    ["--k", "-2"],
    ["--problem", "heat", "--nu", "-1"],  # nu is checked whatever the problem
])
def test_non_finite_or_malformed_value_exits_2_without_output(tmp_path, flags):
    out = tmp_path / "out"
    rc = cli.main(["eigs", "--n-side", "15", "--nt", "5", "--m-a", "5",
                   "--out", str(out), *flags])
    assert rc == 2
    assert not out.exists()


def test_precedence_flag_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_side=9\nnt=7\nnu=0.5\nsensors=none\n")
    cfg = cli.resolve_config(file_path=cfg_file, flag_updates={"nu": 0.25})
    assert cfg.n_side == 9      # from file
    assert cfg.nt == 7          # from file
    assert cfg.nu == 0.25       # flag beats file
    assert cfg.eps0 == cli.RunConfig().eps0  # default


def test_config_file_rejects_a_repeated_key_without_output(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_side=7\nsensors=none\nnt=30\n# nt=45\nm_a=5\nnt = 60\n")
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{cfg_file}:6: repeated key 'nt'" in capsys.readouterr().err


def test_config_file_rejects_unknown_key(tmp_path):
    # the removed keys of older manifests are unknown keys too
    bad = tmp_path / "bad.cfg"
    for line in ("frobnicate=1", "gamma_mode=scalar", "r_max=none", "beta_prior=1",
                 "check_every=10", "on_breakdown=stop"):
        bad.write_text(line + "\n")
        with pytest.raises(lp.InvalidConfigError, match="unknown configuration key"):
            cli.resolve_config(file_path=bad)
    # and their flags are unknown arguments: the command decides how Arnoldi stops
    with pytest.raises(SystemExit) as exc:
        cli.main(["eigs", "--check-every", "5"])
    assert exc.value.code == 2


def test_wind_parsing():
    cfg = cli.resolve_config(flag_updates={"wind": "0.5,-1.0"})
    assert cfg.wind == (0.5, -1.0)


def test_manifest_lines_replay_as_flags(tmp_path):
    # every manifest key, spelled as a flag, must reach the same RunConfig
    cfg = cli.RunConfig(
        problem="convdiff", n_side=17, nt=12, final_time=0.5, nu=0.03,
        wind=(-0.5, 0.25), beta_ratio=100.0, gamma_prior=2.5,
        sensors="custom:0.5,0.5,0.2;0.25,0.75,0.1", eps0=1e-6, eps_eig=1e-3, m_a=40,
        mode="source", start="random", seed=7, compress_every=3, k=12,
        out=str(tmp_path / "replay"),
    )
    assert all(getattr(cfg, f.name) != f.default for f in fields(cli.RunConfig))
    cli.write_manifest(cfg, tmp_path)
    argv = ["eigs"]
    for line in (tmp_path / "manifest.cfg").read_text().splitlines():
        key, value = line.split("=", 1)
        argv.append(f"--{key.replace('_', '-')}={value}")
    args = cli.build_parser().parse_args(argv)
    assert cli.resolve_config(flag_updates=cli._flag_updates(args)) == cfg


def test_manifest_contains_all_fields(tmp_path):
    out = tmp_path / "mani"
    cli.main(["eigs", "--problem", "heat", "--n-side", "7", "--nt", "3",
              "--sensors", "none", "--m-a", "5", "--out", str(out)])
    text = (out / "manifest.cfg").read_text()
    for f in fields(cli.RunConfig):
        assert f"{f.name}=" in text


def test_unresolved_grid3x3_exits_2_without_output(tmp_path, capsys):
    # grid3x3 needs n_side >= 15; a coarser grid is refused, not observed
    # everywhere instead; steady mode builds no layout and still runs
    out = tmp_path / "coarse"
    for mode, rc in (("ic", 2), ("source", 2), ("steady", 0)):
        assert cli.main(["eigs", "--problem", "heat", "--mode", mode, "--n-side", "7",
                         "--nt", "3", "--sensors", "grid3x3", "--m-a", "5",
                         "--out", str(out / mode)]) == rc
        assert (out / mode).exists() == (rc == 0)
    assert "needs n_side >= 15" in capsys.readouterr().err


def test_custom_sensor_layout(tmp_path):
    out = tmp_path / "custom"
    rc = cli.main(["eigs", "--problem", "heat", "--n-side", "15", "--nt", "4",
                   "--sensors", "custom:0.5,0.5,0.2;0.25,0.25,0.1",
                   "--m-a", "8", "--out", str(out)])
    assert rc == 0


def test_source_mode_oracle_passes(tmp_path):
    out = tmp_path / "src"
    rc = cli.main(["oracle", "--problem", "heat", "--n-side", "4", "--nt", "3",
                   "--sensors", "none", "--mode", "source", "--m-a", "60",
                   "--eps-eig", "1e-14", "--out", str(out)])
    assert rc == 0
    assert "result=PASS" in (out / "oracle_report.txt").read_text()


def test_oracle_passes_when_top_k_ends_inside_a_degenerate_pair(tmp_path):
    # dense eigenvalues 10 and 11 are an exact pair here; the compared top-k
    # extends to the end of the pair instead of cutting it
    out = tmp_path / "pair"
    rc = cli.main(["oracle", "--problem", "heat", "--mode", "source", "--n-side", "7",
                   "--nt", "5", "--sensors", "none", "--m-a", "200", "--eps-eig", "1e-12",
                   "--out", str(out)])
    assert rc == 0
    assert "result=PASS" in (out / "oracle_report.txt").read_text()


def test_source_mode_eigs_writes_rank_trace(tmp_path):
    out = tmp_path / "src_eigs"
    rc = cli.main(["eigs", "--problem", "heat", "--n-side", "9", "--nt", "6",
                   "--sensors", "none", "--mode", "source", "--m-a", "10",
                   "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "ranks.csv")
    assert len(rows) == 10 and all(int(r[1]) >= 1 for r in rows)
    header, sig_rows = _read_csv(out / "singular_values.csv")
    assert header == ["vector", "index", "sigma"]
    first = [float(r[2]) for r in sig_rows if r[0] == "0"]
    assert first and all(a >= b for a, b in zip(first, first[1:]))


RANK_CASES = {
    "ic": dict(mode="ic", n_side=7, nt=5, sensors="none", m_a=20, eps_eig=1e-10),
    "source": dict(mode="source", n_side=15, nt=10, m_a=10),  # nine patches
    "steady": dict(mode="steady", n_side=7, m_a=20, eps_eig=1e-12),
    "source-breakdown": dict(mode="source", n_side=3, nt=2, sensors="none", m_a=100),
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_rank_files_read_the_stored_ranks(tmp_path, case):
    cfg = cli.RunConfig(problem="heat", out=str(tmp_path), **RANK_CASES[case])
    run = cli.run_eigs(cfg)
    cli.write_eigs_outputs(run, tmp_path)
    res, applies = run.result, run.problem.ctx.rank_trace
    if case == "source-breakdown":  # the last iteration stores no basis vector
        assert res.stop_reason == "breakdown" and len(res.basis) == res.iterations
    assert len(applies) == res.iterations == len(res.step_seconds)
    # row j: the larger of apply j's pane rank and the rank of the basis
    # vector iteration j stored, if it stored one
    stored = [getattr(v, "r", 0) for v in res.basis[1:res.iterations + 1]]
    stored += [0] * (res.iterations - len(stored))
    expect = [max(a, b) for a, b in zip(applies, stored)]
    _, rows = _read_csv(tmp_path / "ranks.csv")
    assert [(int(i), int(r)) for i, r in rows] == list(enumerate(expect, start=1))
    if case == "steady":
        assert expect == [0] * res.iterations
    else:
        assert min(expect) >= 1
    if case == "source":  # some rows come from the stored basis vector alone
        assert any(b > a for a, b in zip(applies, stored))
    # diagnostics.log restates H's subdiagonal and ranks.csv, one line per iteration
    lines = (tmp_path / "diagnostics.log").read_text().splitlines()[1:]
    assert len(lines) == res.iterations
    for j, line in enumerate(lines):
        kv = dict(item.split("=") for item in line.split())
        assert int(kv["iter"]) == j + 1 and int(kv["max_rank"]) == expect[j]
        assert kv["h_subdiag"] == f"{res.H[j + 1, j]:.6e}"


@pytest.mark.parametrize("extra", [{}, {"mode": "steady"}, {"problem": "convdiff"}])
def test_separable_run_never_assembles_the_spatial_matrix(extra):
    cfg = cli.RunConfig(n_side=7, nt=4, sensors="none", **extra)
    problem = cli.build_problem(cfg)
    problem.ctx.apply(np.ones(problem.grid.n_x))
    assert "L" not in problem.spatial.__dict__
    # the two-axis-wind step matrix is the one solver that reads L
    both = cli.build_problem(cli.RunConfig(problem="convdiff", wind=(0.3, -0.7), n_side=7,
                                           nt=4, sensors="none"))
    assert "L" in both.spatial.__dict__


def test_negative_wind_as_two_tokens_matches_equals_form(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_eigs", lambda cfg: seen.append(cfg) or 0)
    for wind in (["--wind", "-0.5,1"], ["--wind=-0.5,1"], ["--wind", "-.5,1"]):
        assert cli.main(["eigs", "--problem", "convdiff", *wind, "--nt", "7"]) == 0
    assert seen[0] == seen[1] == seen[2] and seen[0].wind == (-0.5, 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_numerics_exit_3_without_output(tmp_path):
    # beta_ratio=1e305 overflows the noise-weighted field's norm in truncation
    out = tmp_path / "out"
    rc = cli.main(["eigs", "--n-side", "15", "--nt", "3", "--beta-ratio", "1e305",
                   "--out", str(out)])
    assert rc == 3
    assert not out.exists()
