import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg as la
from numpy.testing import assert_allclose

import lrpostcov as lp
from lrpostcov import cli, hessian, oracle


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


_SMALL = ["--n-side", "7", "--sensors", "none"]
_DATA_SIDE = ["--n-side", "15", "--sensors", "grid3x3", "--mode", "source", "--nt", "3"]
_RANDOM = ["--seed", "3", "--start", "random"]


@pytest.mark.parametrize("flags", [
    [*_SMALL, "--nt", "4", "--m-a", "15", "--eps-eig", "1e-10"],
    [*_SMALL, "--nt", "4", "--m-a", "15", "--eps-eig", "1e-10", *_RANDOM],
    [*_DATA_SIDE, "--m-a", "12"],
    [*_DATA_SIDE, "--m-a", "12", *_RANDOM],
    [*_SMALL, "--mode", "source", "--nt", "4", "--m-a", "12", *_RANDOM],
    [*_SMALL, "--mode", "steady", "--m-a", "15", "--eps-eig", "1e-10"],
], ids=["ic-ones", "ic-random", "data-side-ones", "data-side-random", "source-random", "steady"])
def test_manifest_rerun_reproduces_bitwise(tmp_path, flags):
    # every start path: IC, the data side and the full-observation source
    first = tmp_path / "first"
    assert cli.main(["eigs", "--problem", "heat", *flags, "--out", str(first)]) == 0
    second = tmp_path / "second"
    rc = cli.main(["eigs", "--config", str(first / "manifest.cfg"),
                   "--out", str(second)])
    assert rc == 0
    written = sorted(p.name for p in first.glob("*.csv"))
    assert written == sorted(p.name for p in second.glob("*.csv"))
    assert ("singular_values.csv" in written) == ("source" in flags)
    for name in written:
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
    # a constant field has no span to map, so every pixel is white
    pgm = (out / "variance.pgm").read_text().split()
    assert pgm[:4] == ["P2", "7", "7", "255"] and set(pgm[4:]) == {"255"}


def test_variance_minimum_at_sensor_dof(tmp_path):
    out = tmp_path / "var31"
    rc = cli.main(["variance", "--problem", "heat", "--n-side", "31", "--nt", "10",
                   "--m-a", "25", "--eps-eig", "1e-1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "variance.csv")
    assert header == [f"c{i}" for i in range(31)]
    field = np.array([[float(x) for x in row] for row in rows]).ravel()  # row j = x2 level j
    # the CSV holds the library's field to 17 significant digits, so exactly
    _, summary = cli.run_variance(cli.resolve_config(out / "manifest.cfg"))
    assert np.array_equal(field, summary.variance_field)
    grid = lp.build_grid(31)
    from lrpostcov.hessian import make_sensor_layout_3x3
    mask = make_sensor_layout_3x3(grid).mask
    assert mask[np.argmin(field)]
    # the field's minimum maps to black, and only the prior variance to white
    pgm = (out / "variance.pgm").read_text()
    assert pgm.startswith("P2\n31 31\n255\n")
    pix = np.array([int(x) for x in pgm.split()[4:]])
    assert pix.size == 31 * 31 and pix.min() == 0 and pix.max() <= 255
    assert pix[np.argmin(field)] == 0


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


def test_sensor_oracle_passes_with_wind_along_x1_and_two_step_flushes(tmp_path):
    # nine observed rows: once the Krylov vectors leave the observed range,
    # a forward pane holds only the rounding noise of their sweeps, and a
    # flush keeps it at its own scale rather than emptying the pane.  The 5
    # steps are flushed 2 at a time, so panes that hold something are
    # flushed again.
    out = tmp_path / "orc_sensors"
    rc = cli.main(["oracle", "--problem", "convdiff", "--wind", "1,0", "--n-side", "15",
                   "--nt", "5", "--sensors", "grid3x3", "--m-a", "100", "--compress-every", "2",
                   "--out", str(out)])
    assert rc == 0
    assert (out / "oracle_report.txt").read_text().splitlines()[-1] == "result=PASS"


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
    ["--values", ","],  # no point at all
])
def test_sweep_rejects_a_bad_base_value_without_output(tmp_path, capsys, flags):
    # the base configuration is checked once, before any point runs
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--axis", "nt", "--values", "4,5", "--n-side", "7",
                   "--sensors", "none", "--m-a", "5", "--out", str(out), *flags])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("\n") == 1


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
    # a sensors setting that is not a string, steady mode too, and an out
    # that is not a path used to raise a raw AttributeError or TypeError
    ({"sensors": None}, False),
    ({"sensors": 5}, False),
    ({"sensors": b"none"}, False),
    ({"sensors": None, "mode": "steady"}, False),
    ({"out": None}, False),
    ({"out": 5}, False),
    ({"out": pathlib.Path("out")}, True),
    # a wind of strings or complex numbers, and an int beyond the float range,
    # used to raise a raw ValueError, TypeError or OverflowError
    ({"wind": "0,1"}, False),
    ({"wind": ("a", "b")}, False),
    ({"wind": 1j}, False),
    ({"wind": (1j, 0)}, False),
    ({"nt": 10**310}, False),
    ({"n_side": 10**400}, False),
    ({"eps0": 10**400}, False),
    ({"nu": 10**400}, False),
    ({"wind": [0, 1.0], "problem": "convdiff"}, True),
])
def test_run_config_is_checked_when_built(updates, ok):
    # the constructor and dataclasses.replace both check, so no unchecked config exists
    for build in (lambda: cli.RunConfig(**updates), lambda: replace(cli.RunConfig(), **updates)):
        if ok:
            build()
        else:
            with pytest.raises(lp.InvalidConfigError):
                build()


# one odd value of each kind: missing, strings, a bool, non-finite and
# out-of-range numbers, a list, bytes, a complex number, ints beyond the float
# range and past the str conversion limit (4300 digits), alone and in a list
_ODD_VALUES = {"None": None, "'x'": "x", "'3'": "3", "True": True, "nan": np.nan, "inf": np.inf,
               "-1": -1, "0": 0, "[1]": [1], "b'1'": b"1", "1j": 1j, "10**400": 10**400,
               "-10**5000": -10**5000, "10**5000": 10**5000, "[10**5000]": [10**5000]}


@pytest.mark.parametrize("value", list(_ODD_VALUES.values()), ids=list(_ODD_VALUES))
@pytest.mark.parametrize("key", [f.name for f in fields(cli.RunConfig)])
def test_every_field_builds_or_refuses_every_odd_value(key, value):
    # no value reaches a raw exception: it is taken, or refused as a
    # configuration error whose message is short, with a stand-in for a value
    # that cannot be printed; a config that is taken can write its manifest
    try:
        cfg = cli.RunConfig(**{key: value})
    except lp.InvalidConfigError as exc:
        assert len(str(exc)) < 200
    else:
        for f in fields(cfg):
            cli._format_value(f.name, getattr(cfg, f.name))


@pytest.mark.parametrize("key", ["n_side", "nt", "m_a", "seed", "compress_every", "k"])
@pytest.mark.parametrize("value", [5.5, True, "5"])
def test_run_config_refuses_a_count_that_is_not_a_whole_number(key, value):
    # library use reaches these (the command line parses them with int()); a
    # non-integral count used to die later with a raw TypeError
    base = dict(n_side=7, nt=4, sensors="none", m_a=5)
    with pytest.raises(lp.InvalidConfigError, match="must be an integer"):
        cli.RunConfig(**{**base, key: value})


@pytest.mark.parametrize("key", ["final_time", "nu", "beta_ratio", "gamma_prior", "eps0",
                                 "eps_eig"])
@pytest.mark.parametrize("value", ["0.01", None])
def test_run_config_refuses_a_real_that_is_not_a_number(key, value):
    # library use reaches these (the command line parses them with float()); a
    # string or None used to die in the owner's range test with a raw TypeError
    base = dict(n_side=7, nt=4, sensors="none", m_a=5)
    with pytest.raises(lp.InvalidConfigError, match="must be a real number"):
        cli.RunConfig(**{**base, key: value})


_NON_FINITE_OWNERS = {
    "final_time": lambda x: lp.build_time_grid(5, x),
    "nu": lambda x: lp.assemble_convdiff(lp.build_grid(5), x, (0.0, 1.0)),
    "wind_x1": lambda x: lp.assemble_convdiff(lp.build_grid(5), 0.01, (x, 1.0)),
    "wind_x2": lambda x: lp.assemble_convdiff(lp.build_grid(5), 0.01, (0.0, x)),
    "eps_eig": lambda x: lp.StopRule(5, x),
    "gamma_prior": lambda x: lp.CovarianceSpec.from_gamma(x, 1e4, lp.build_grid(5)),
    "beta_ratio": lambda x: lp.CovarianceSpec.from_gamma(10.0, x, lp.build_grid(5)),
    "eps0": lambda x: lp.TruncationPolicy(x),
    "patch_side": lambda x: lp.make_sensor_layout([(0.5, 0.5, x)], lp.build_grid(15)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("owner", sorted(_NON_FINITE_OWNERS))
def test_owners_refuse_a_non_finite_value(owner, bad):
    # RunConfig has no finiteness check of its own: each value is refused by
    # the object it builds to own it, in library use as on the command line
    with pytest.raises(lp.InvalidConfigError):
        _NON_FINITE_OWNERS[owner](bad)


@pytest.mark.parametrize("mode, problem", [("bogus", "heat"), ("steady", "convdiff")])
def test_config_and_hessian_context_share_one_mode_rule(mode, problem):
    with pytest.raises(lp.InvalidConfigError) as rule:
        hessian.check_mode(mode, problem)
    grid = lp.build_grid(5)
    spatial = (lp.assemble_heat(grid) if problem == "heat"
               else lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0)))
    cov = lp.CovarianceSpec(1e4, 1.0, 1.0)
    for build in (lambda: cli.RunConfig(mode=mode, problem=problem, n_side=5, sensors="none"),
                  lambda: lp.HessianContext(mode=mode, operator=None, layout=None, cov=cov,
                                            pol=lp.TruncationPolicy(), spatial=spatial)):
        with pytest.raises(lp.InvalidConfigError, match=re.escape(str(rule.value))):
            build()


@pytest.mark.parametrize("command", ["eigs", "variance", "oracle", "sweep"])
@pytest.mark.parametrize("under", [False, True])
def test_out_at_or_under_a_file_exits_2_before_any_solve(tmp_path, monkeypatch, capsys,
                                                         command, under):
    # these used to run the whole solve, then die with a raw FileExistsError
    # or NotADirectoryError traceback when the outputs were written
    def apply(self, v):
        raise AssertionError("a refused run applied the Hessian")
    monkeypatch.setattr(lp.HessianContext, "apply", apply)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    sweep = ["--axis", "nt", "--values", "3,4"] if command == "sweep" else []
    rc = cli.main([command, "--n-side", "5", "--nt", "3", "--sensors", "none", "--m-a", "5",
                   "--out", str(blocker / "run" if under else blocker), *sweep])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out=") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


def test_analytic_writes_no_files_and_ignores_out(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert cli.main(["analytic", "--n-side", "3", "--sensors", "none", "--k", "2",
                     "--out", str(blocker)]) == 0


def test_sweep_point_whose_directory_is_a_file_fails_alone(tmp_path, capsys):
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "nt_3").write_text("")
    rc = cli.main(["sweep", "--axis", "nt", "--values", "3,4", "--n-side", "5",
                   "--sensors", "none", "--m-a", "5", "--out", str(out)])
    assert rc == 3
    _, rows = _read_csv(out / "summary.csv")
    assert rows[0] == ["3", "ERROR", "ERROR", "ERROR"] and rows[1][1] != "ERROR"
    assert (out / "nt_4" / "eigenvalues.csv").exists()
    assert "sweep point nt=3 failed" in capsys.readouterr().err


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
    ["--nt", "-1" + "0" * 5000],  # past int()'s 4300-digit limit: its echo is cut short
])
def test_non_finite_or_malformed_value_exits_2_without_output(tmp_path, capsys, flags):
    out = tmp_path / "out"
    rc = cli.main(["eigs", "--n-side", "15", "--nt", "5", "--m-a", "5",
                   "--out", str(out), *flags])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err  # one short line
    assert err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize("name, message", [
    ("no-such.cfg", "cannot read config file"),
    ("", "cannot read config file"),  # the directory itself
    ("no-equals.cfg", "no-equals.cfg:2: expected key=value"),
])
def test_unreadable_or_malformed_config_file_exits_2_without_output(tmp_path, capsys, name,
                                                                    message):
    (tmp_path / "no-equals.cfg").write_text("n_side=7\nnt 5\n")
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", str(tmp_path / name), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err  # one line
    assert err.count("\n") == 1 and message in err


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


def test_oracle_leaves_a_pair_the_ritz_values_end_inside_out_of_the_angle_check(
        tmp_path, monkeypatch):
    # the same pair at m_a 10: Ritz pairs 1..10 end inside it, so compare gets
    # 10 eigenvalues but only the 9 dense vectors before the pair; 10 Krylov
    # steps do not converge, so the report's verdict is not checked here
    seen = []
    compare = oracle.compare

    def spy(lr_values, lr_vectors, dense_values, dense_vectors, **kw):
        seen.append((len(dense_values), lr_vectors.shape, dense_vectors.shape))
        return compare(lr_values, lr_vectors, dense_values, dense_vectors, **kw)

    monkeypatch.setattr(oracle, "compare", spy)
    cli.main(["oracle", "--problem", "heat", "--mode", "source", "--n-side", "7", "--nt", "5",
              "--sensors", "none", "--m-a", "10", "--out", str(tmp_path / "cut")])
    assert seen == [(10, (245, 10), (245, 9))]


@pytest.mark.parametrize("wind", [None, (1.0, 0.0)])
def test_data_side_source_run_holds_against_the_dense_hessian(wind):
    # Arnoldi runs on the 9 × 5 data side; its Ritz vectors, combined from the
    # applies' images, are n_x × n_t fields that the parameter-side apply certifies
    problem = dict(problem="heat") if wind is None else dict(problem="convdiff", wind=wind)
    cfg = cli.RunConfig(**problem, mode="source", n_side=15, nt=5, sensors="grid3x3", m_a=200)
    run = cli.run_eigs(cfg, exhaustive=True)
    problem, res = run.problem, run.result
    ctx, n_x, n_t = problem.ctx, problem.grid.n_x, problem.time.n_t
    assert ctx.data_side and ctx.krylov_dim == 45
    assert res.iterations == 45 and res.stop_reason == "breakdown" and res.restarts == 0
    assert all(isinstance(v, np.ndarray) and v.shape == (45,) for v in res.basis)
    assert all(isinstance(v, lp.LowRankMat) and v.shape == (n_x, n_t)
               for v in res.ritz_vectors)
    Hd, _ = lp.oracle.dense_misfit_source(
        problem.spatial.L.toarray(), problem.grid.m_scale, problem.time.tau, n_t,
        problem.layout.mask, problem.cov.beta_noise, problem.cov.gamma_prior)
    dn_vals, dn_vecs = np.linalg.eigh(Hd)
    dn_vals, dn_vecs = dn_vals[::-1], dn_vecs[:, ::-1]
    lam1 = dn_vals[0]
    assert np.abs(res.ritz_values[:12] - dn_vals[:12]).max() <= 1e-10 * lam1
    lr_vecs = np.column_stack([lp.lr_to_dense(v).reshape(-1, order="F")
                               for v in res.ritz_vectors[:12]])
    groups = [g for g in lp.oracle.clusters(dn_vals[:13]) if g.stop <= 12]
    assert groups[-1].stop >= 10
    for g in groups:
        assert la.subspace_angles(lr_vecs[:, g], dn_vecs[:, g]).max() <= 1e-6
    for lam, v in zip(res.ritz_values[:10], res.ritz_vectors[:10]):
        hv = ctx.apply(v)  # the parameter-side H̃
        assert isinstance(hv, lp.LowRankMat)
        resid = lp.lr_norm(lp.lr_truncate(lp.lr_add(hv, lp.lr_scale(v, -lam)), problem.pol))
        assert resid <= 1e-7 * lam1


def test_full_observation_source_run_keeps_a_low_rank_basis():
    cfg = cli.RunConfig(problem="heat", mode="source", n_side=7, nt=5, sensors="none", m_a=12)
    run = cli.run_eigs(cfg)
    assert not run.problem.ctx.data_side
    assert run.problem.ctx.krylov_dim == run.problem.ctx.n_param == 49 * 5
    basis = run.result.basis
    assert len(basis) == 13 and all(isinstance(v, lp.LowRankMat) and v.shape == (49, 5)
                                     for v in basis)


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
    if case == "source":  # a dense data-side basis: each row is its apply's image and pane rank
        assert run.problem.ctx.data_side and stored == [0] * res.iterations
        assert expect == applies
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


# the three Arnoldi paths: IC, the data side of a source under sensors, and
# the low-rank source on every row
OVERFLOW_MODES = {"ic": {}, "source-data-side": {"mode": "source"},
                  "source-low-rank": {"mode": "source", "sensors": "none"}}


@pytest.mark.parametrize("path, final_time", [
    ("ic", "1e4"), ("source-data-side", "1e4"), ("source-low-rank", "1e4"), ("ic", "1e5")],
    ids=["ic", "source-data-side", "source-low-rank", "ic-final-time-1e5"])
def test_overflowing_numerics_exit_3_without_output(tmp_path, path, final_time):
    # At ν 1e-30 and T 1e4 nothing damps the field, so the Hessian's
    # eigenvalues are about β·T = 1e309, past the float range: the first
    # image's norm or its factor norms overflow, and the run exits 3 with its
    # one-line refusal.  The data side's forward sweep marches to inf, and at
    # T 1e5 the IC image's entries pass the float range.  The command runs in
    # its own interpreter under warnings-as-errors, so a numpy warning would
    # end it in a traceback.
    out = tmp_path / "out"
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lrpostcov.cli", "eigs", "--problem", "convdiff",
         "--wind", "0,0", "--nu", "1e-30", "--final-time", final_time, "--n-side", "15",
         "--nt", "3", "--beta-ratio", "1e305",
         *(t for key, v in OVERFLOW_MODES[path].items() for t in ("--" + key, v)),
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert not out.exists()
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("path", OVERFLOW_MODES)
def test_a_hessian_whose_squared_norms_overflow_still_solves(path):
    # At beta_ratio 1e305 the Hessian's images have norms near 1e301, whose
    # squares overflow; the norms are taken by dnrm2, so the run solves, and
    # its leading eigenvalues are those of beta_ratio 1 scaled by 1e305
    runs = [cli.run_eigs(cli.RunConfig(n_side=15, nt=3, m_a=20, beta_ratio=b,
                                       **OVERFLOW_MODES[path]))
            for b in (1.0, 1e305)]
    unit, large = (run.result.ritz_values[:3] for run in runs)
    assert_allclose(large, 1e305 * unit, rtol=1e-12)
