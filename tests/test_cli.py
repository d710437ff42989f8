import functools
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

import nessgeom
from nessgeom import cli, gaussian, geometry, liouvillian, models, momentum, numerics
from nessgeom.errors import BadSpec

# n=40, delta=1: the smallest pair sum of the drift spectrum is 2.7e-11 of
# its scale, above the solver's 1e-12 singularity threshold
NEAR_SINGULAR = (40, 1.0, 1.1304758631173196e-4)


RESERVOIR_KEYS = "lam, theta, muc_pair, muc_mode"
ROTATED_KEYS = "delta, h, theta, mu_minus, mu_plus, epsilon, muc_pair, muc_mode"
BOUNDARY_XY_KEYS = "delta, h, n, kappa_l_plus, kappa_l_minus, kappa_r_plus, kappa_r_minus"


def sweep_spec(tmp_path, **overrides):
    base = dict(
        model="boundary_xy",
        fixed={"n": 6, "delta": 1.25},
        axes=[("h", 0.2, 0.4, 0.1)],
        quantities=("gap", "gmax", "muc", "R", "purity"),
        out=str(tmp_path / "sweep.csv"),
        jobs=1,
    )
    base.update(overrides)
    return cli.SweepSpec(**base)


def _reference_gmax(n, delta, h):
    """gmax with scipy's Lyapunov solver on the real form ``X A + A X^T = B``
    and shape derivatives by unit-step central differences (exact: affine)."""

    def shape(dd, hh):
        p = models.BoundaryXYParams(delta=dd, h=hh, n=n)
        return liouvillian.shape_matrices(models.build_boundary_driven_xy(p))

    s = shape(delta, h)
    a = solve_continuous_lyapunov(s.x, s.b)
    a = 0.5 * (a - a.T)
    dgs = []
    for up, dn in (((delta + 1, h), (delta - 1, h)), ((delta, h + 1), (delta, h - 1))):
        dx = (shape(*up).x - shape(*dn).x) / 2.0
        dgs.append(1j * solve_continuous_lyapunov(s.x, -(dx @ a + a @ dx.T)))
    return geometry.qgt(1j * a, geometry.make_tangents(("delta", "h"), dgs)).gmax()


class TestSweep:
    def test_single_row_grid(self, tmp_path):
        spec = sweep_spec(tmp_path, axes=[("h", 0.3, 0.3, 0.1)])
        text = cli.run_sweep(spec)
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "h,gap,gmax,muc,R,purity"
        assert len(rows) == 2

    def test_determinism_byte_identical(self, tmp_path):
        spec = sweep_spec(tmp_path)
        assert cli.run_sweep(spec) == cli.run_sweep(spec)

    def test_parallel_matches_serial(self, tmp_path):
        serial = cli.run_sweep(sweep_spec(tmp_path))
        parallel = cli.run_sweep(sweep_spec(tmp_path, jobs=2))
        assert serial == parallel

    def test_parallel_symbol_sweep_matches_serial(self, tmp_path):
        def spec(jobs):
            return cli.SweepSpec(
                model="reservoir_chain", fixed={"theta": 0.3}, axes=[("lam", 0.4, 0.6, 0.1)],
                quantities=("gap", "muc", "xi"), out=str(tmp_path / f"rc{jobs}.csv"), jobs=jobs,
            )

        assert cli.run_sweep(spec(2)) == cli.run_sweep(spec(1))
        assert (tmp_path / "rc2.csv").read_bytes() == (tmp_path / "rc1.csv").read_bytes()

    def test_error_lands_in_cell(self, tmp_path):
        # a failing grid point must not abort the sweep, and every cell of it
        # carries the originating error's class name
        cases = (
            # a negative rate fails the model build
            ({"n": 4, "delta": 1.25, "h": 0.3}, ("kappa_l_minus", -0.1, 0.1, 0.2),
             "DimensionMismatch"),
            # at delta = 1, h = 0 a pair sum of the drift spectrum is exactly 0
            ({"n": 4, "delta": 1.0}, ("h", 0.0, 0.3, 0.3), "SingularSylvester"),
        )
        for fixed, axis, error in cases:
            spec = sweep_spec(tmp_path, fixed=fixed, axes=[axis],
                              quantities=cli.FINITE_QUANTITIES)
            text = cli.run_sweep(spec)
            rows = [l for l in text.strip().splitlines() if not l.startswith("#")]
            assert rows[1].split(",")[1:] == [error] * len(cli.FINITE_QUANTITIES)
            assert error not in rows[2]  # the valid point computed

    def test_reservoir_critical_point_named_in_cells(self):
        # at lam = -1, theta = 0 the symbol determinant d(z) vanishes
        # identically and the closed-form symbol is 0/0; xi and muc in both
        # modes must name the failure
        row = cli._worker(("reservoir_chain", {"lam": -1.0, "theta": 0.0}, ("xi",)))
        assert row == {"xi": "CriticalAngle"}
        row = cli._worker(("reservoir_chain", {"lam": -1.0}, ("muc",)))
        assert row == {"muc": "CriticalAngle"}
        row = cli._worker(
            ("reservoir_chain", {"lam": -1.0, "theta": 0.0, "muc_mode": "residue"}, ("muc",))
        )
        assert row == {"muc": "CriticalAngle"}

    @pytest.mark.parametrize("pair", ["lam", "lam:theta:lam"])
    def test_muc_pair_of_other_than_two_names_is_named(self, pair):
        row = cli._worker(
            ("reservoir_chain", {"lam": 0.5, "theta": 0.3, "muc_pair": pair}, ("muc",))
        )
        assert row == {"muc": "DimensionMismatch"}

    @pytest.mark.parametrize("model_name, builder_name", [
        ("reservoir_chain", "build_reservoir_chain"),
        ("rotated_xy", "build_rotated_xy_dissipative"),
    ])
    def test_one_build_per_symbol_cell(self, monkeypatch, model_name, builder_name):
        build = getattr(models, builder_name)
        calls = []

        @functools.wraps(build)
        def counted(*args, **kwargs):
            calls.append(kwargs)
            return build(*args, **kwargs)

        monkeypatch.setattr(models, builder_name, counted)
        row = cli.evaluate_point(model_name, {"theta": 0.3}, ("gap", "xi", "muc"))
        assert all(np.isfinite(v) for v in row.values())
        assert calls == [{"theta": 0.3}]

    def test_xi_cell_runs_no_rational_continuation(self, monkeypatch):
        # the poles come from the pencil of xhat(z), not from the FFT
        # coefficients of det xhat
        calls = []
        rationalize = momentum.rationalize

        def counted(model):
            calls.append(model)
            return rationalize(model)

        monkeypatch.setattr(momentum, "rationalize", counted)
        for model_name in ("reservoir_chain", "rotated_xy"):
            row = cli.evaluate_point(model_name, {"theta": 0.3}, ("xi",))
            assert np.isfinite(row["xi"])
        assert calls == []

    def test_bad_specs_rejected(self, tmp_path):
        with pytest.raises(BadSpec):
            cli.run_sweep(sweep_spec(tmp_path, axes=[]))
        with pytest.raises(BadSpec):
            cli.run_sweep(sweep_spec(tmp_path, quantities=("xi",)))  # finite model
        with pytest.raises(BadSpec):
            cli.run_sweep(sweep_spec(tmp_path, axes=[("h", 0.0, 1.0, -0.5)]))
        with pytest.raises(BadSpec):
            cli.run_sweep(cli.SweepSpec(
                model="reservoir_chain", axes=[("lam", 0.4, 0.6, 0.1)],
                quantities=("detg_symbol",), out=str(tmp_path / "rc.csv"),
            ))

    def test_symbol_model_sweep(self, tmp_path):
        spec = cli.SweepSpec(
            model="reservoir_chain",
            fixed={"theta": 0.3},
            axes=[("lam", 0.4, 0.6, 0.1)],
            quantities=("gap", "xi"),
            out=str(tmp_path / "rc.csv"),
        )
        text = cli.run_sweep(spec)
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 4  # header + 3 grid points
        first = rows[1].split(",")
        assert abs(float(first[1]) - 2.0 * 4 * (1 + 2 * 0.4 * (-1) + 0.16) / (4 * (0.16 + 1.0)) ** 2) < 1.0


class TestScaling:
    def test_fit_report_structure(self, tmp_path):
        spec = cli.ScalingSpec(
            model="boundary_xy",
            fixed={"delta": 1.25, "h": 0.3},
            sizes=(8, 12, 16, 20),
            quantities=("gap",),
            out=str(tmp_path / "scal"),
        )
        csv_text, json_text = cli.run_scaling(spec)
        report = json.loads(json_text)
        assert report["sizes"] == [8, 12, 16, 20]
        assert "exponent" in report["fits"]["gap"]
        assert (tmp_path / "scal.csv").exists()
        assert (tmp_path / "scal.json").exists()

    def test_parallel_matches_serial(self, tmp_path):
        def spec(jobs):
            return cli.ScalingSpec(
                model="boundary_xy", fixed={"delta": 1.25, "h": 0.3}, sizes=(8, 12, 16, 20),
                quantities=cli.FINITE_QUANTITIES, out=str(tmp_path / f"scal{jobs}"), jobs=jobs,
            )

        assert cli.run_scaling(spec(2)) == cli.run_scaling(spec(1))
        for ext in (".csv", ".json"):
            assert (tmp_path / f"scal2{ext}").read_bytes() == (tmp_path / f"scal1{ext}").read_bytes()

    def test_overflowing_fit_writes_strict_json(self, tmp_path, monkeypatch):
        # gap: exp(720 - 100 ln n), whose fitted prefactor exp(720) overflows;
        # purity: a NaN sample next to four good ones
        def worker(task):
            n = task[1]["n"]
            return {"gap": math.exp(720.0 - 100.0 * math.log(n)),
                    "purity": math.nan if n == 80 else 1.0 / n}

        monkeypatch.setattr(cli, "_worker", worker)
        spec = cli.ScalingSpec(
            model="boundary_xy",
            fixed={"delta": 1.25, "h": 0.3},
            sizes=(80, 160, 320, 640, 1280),
            quantities=("gap", "purity"),
            out=str(tmp_path / "scal"),
        )
        cli.run_scaling(spec)
        report = json.loads((tmp_path / "scal.json").read_text(), parse_constant=pytest.fail)
        assert report["fits"]["gap"]["error"].startswith("NotFiniteRange: ")
        assert report["fits"]["purity"]["exponent"] == pytest.approx(-1.0)
        assert report["samples"]["purity"][0] == "nan"

    def test_ascending_sizes_required(self, tmp_path):
        with pytest.raises(BadSpec):
            cli.run_scaling(
                cli.ScalingSpec(
                    model="boundary_xy",
                    fixed={},
                    sizes=(20, 10, 30, 40),
                    quantities=("gap",),
                )
            )


class TestConfigAndMain:
    def test_config_file_with_cli_override(self, tmp_path, monkeypatch):
        # every flag can be set in the file under its long name; an explicit
        # flag wins, set entries merge key by key and an explicit --grid
        # replaces the file's axes
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[sweep]\n"
            "model = boundary_xy\n"
            "set = n=6, delta=1.25\n"
            "grid = h=0.3:0.3:0.1\n"
            "quantities = gap\n"
            "format = json\n"
            "jobs = 1\n",
            encoding="utf-8",
        )
        specs = []
        run_sweep = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or run_sweep(spec))
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # the default the file's jobs replaces
        out = tmp_path / "out.json"
        rc = cli.main(["sweep", "--config", str(cfg), "--set", "delta=1.0",
                       "--grid", "h=0.4:0.5:0.1", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["fixed"] == {"n": 6, "delta": 1}  # CLI value overrode the config value
        assert [row["h"] for row in report["rows"]] == ["0.40000000000000002", "0.5"]
        assert specs[-1].jobs == 1
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "# fixed: delta=1.25,n=6" and lines[4].startswith("0.29999999999999999,")

    def test_spectrum_subcommand(self, tmp_path, capsys):
        rc = cli.main(
            ["spectrum", "--model", "boundary_xy", "--set", "n=6", "--set", "delta=1.25",
             "--set", "h=0.3"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] > 0
        assert report["delta_xhat"] == pytest.approx(report["delta"], rel=1e-6)

    @pytest.mark.parametrize("n", [6, 40, 160, pytest.param(320, marks=pytest.mark.slow)])
    def test_spectrum_delta_is_the_geometry_gap(self, n, tmp_path, capsys):
        # both subcommands read the gap from the same factorization
        point = ["--model", "boundary_xy", "--set", f"n={n}", "--set", "delta=1.25",
                 "--set", "h=0.3"]
        assert cli.main(["spectrum", *point]) == 0
        spectrum = json.loads(capsys.readouterr().out)
        out = tmp_path / "geo.json"
        assert cli.main(["geometry", *point, "--out", str(out)]) == 0
        assert spectrum["delta"] == json.loads(out.read_text())["gap"]

    def test_spectrum_of_a_defective_drift_is_strict_json(self, monkeypatch, capsys):
        # the Schur path's condition estimate, from a full eig of T
        monkeypatch.setattr(numerics, "_bath_support", lambda x: None)
        eig = numerics.general_eigendecomposition
        monkeypatch.setattr(numerics, "general_eigendecomposition",
                            lambda x: (eig(x)[0], np.inf))
        assert cli.main(["spectrum", "--model", "boundary_xy", "--set", "n=6"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert report["condition_estimate"] == "inf" and report["near_defective"]

    def test_geometry_subcommand(self, tmp_path):
        out = tmp_path / "geo.json"
        for n, delta, h in ((6, 1.25, 0.3), NEAR_SINGULAR):
            rc = cli.main(
                ["geometry", "--model", "boundary_xy", "--set", f"n={n}",
                 "--set", f"delta={delta!r}", "--set", f"h={h!r}", "--out", str(out)]
            )
            assert rc == 0
            report = json.loads(out.read_text())
            assert set(report) >= {"gap", "gmax", "detg", "muc", "R", "purity"}
            assert all(np.isfinite(v) for v in report.values())
            assert report["gmax"] == pytest.approx(_reference_gmax(n, delta, h), rel=1e-6)

    def test_run_geometry_is_point_geometry(self):
        report = cli.run_geometry("boundary_xy", {"n": 8, "delta": 0.9, "h": 0.4,
                                                  "kappa_r_plus": 0.2})
        p = models.BoundaryXYParams(delta=0.9, h=0.4, n=8, kappa_r_plus=0.2)
        point = liouvillian.point_geometry(
            liouvillian.shape_matrices(models.build_boundary_driven_xy(p)),
            models.boundary_xy_shape_derivatives(p),
        )
        assert report == {
            "gap": point.gap,
            "purity": gaussian.purity(point.gamma),
            "gmax": point.qgt.gmax(),
            "detg": float(np.linalg.det(point.qgt.g)),
            "muc": abs(float(point.qgt.u[0, 1])),
            "R": point.qgt.r_ratio,
        }

    def test_gap_and_purity_solve_no_tangents(self, monkeypatch):
        solves = []
        solve = numerics.LyapunovSolver.solve
        monkeypatch.setattr(numerics.LyapunovSolver, "solve",
                            lambda self, y: solves.append(y) or solve(self, y))
        cli.evaluate_point("boundary_xy", {"n": 6}, ("gap", "purity"))
        assert len(solves) == 1  # the steady state only
        solves.clear()
        cli.evaluate_point("boundary_xy", {"n": 6}, ("gap", "muc"))
        assert len(solves) == 3  # and one tangent per direction

    @pytest.mark.parametrize("argv, key, accepted", [
        (["sweep", "--model", "reservoir_chain", "--set", "theeta=0.3",
          "--grid", "lam=0.5:0.5:1", "--quantities", "gap"], "theeta", RESERVOIR_KEYS),
        (["sweep", "--model", "reservoir_chain", "--grid", "lamm=0.5:0.5:1",
          "--quantities", "gap"], "lamm", RESERVOIR_KEYS),
        (["sweep", "--model", "rotated_xy", "--set", "eps=0.1", "--grid", "h=0.5:0.5:1",
          "--quantities", "gap"], "eps", ROTATED_KEYS),
        (["sweep", "--model", "boundary_xy", "--set", "n=6", "--set", "muc_mode=residue",
          "--grid", "h=0.3:0.3:1", "--quantities", "gap"], "muc_mode", BOUNDARY_XY_KEYS),
        (["scaling", "--model", "boundary_xy", "--set", "kappa=0.2", "--sizes", "4,6,8,10",
          "--quantities", "gap"], "kappa", BOUNDARY_XY_KEYS),
        (["geometry", "--model", "boundary_xy", "--set", "n=6", "--set", "hh=0.3"],
         "hh", BOUNDARY_XY_KEYS),
        (["spectrum", "--model", "reservoir_chain", "--set", "lambda=0.5"],
         "lambda", RESERVOIR_KEYS),
    ], ids=["sweep-set", "sweep-grid", "rotated-set", "boundary-muc-key", "scaling", "geometry",
            "spectrum"])
    def test_unknown_parameter_keys_rejected(self, tmp_path, capsys, argv, key, accepted):
        # an ignored key would print the default's values under a header
        # that records the key
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"no parameter {key!r}" in err and f"(accepted: {accepted})" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--model", "reservoir_chain", "--set", "theta=abc", "--jobs", "1",
          "--grid", "lam=0.5:0.6:0.1", "--quantities", "gap,muc"],
         "parameter 'theta' must be a number, got 'abc'"),
        (["sweep", "--model", "boundary_xy", "--set", "n=6.5", "--jobs", "1",
          "--grid", "h=0.3:0.3:0.1", "--quantities", "gap"],
         "n counts sites and must be a whole number, got 6.5"),
        (["sweep", "--model", "boundary_xy", "--set", "h=0.3", "--jobs", "1",
          "--grid", "n=4:5:0.5", "--quantities", "gap"], "must be a whole number"),
        (["geometry", "--model", "boundary_xy", "--set", "n=6.5"], "must be a whole number"),
        (["spectrum", "--model", "rotated_xy", "--set", "h=high"], "'h' must be a number"),
        (["sweep", "--model", "reservoir_chain", "--grid", "lam=0.5:0.5:1", "--set", "theta=nan",
          "--quantities", "gap,xi,muc", "--jobs", "1"], "parameter 'theta' must be finite, got nan"),
        (["geometry", "--model", "boundary_xy", "--set", "n=6", "--set", "delta=inf"],
         "parameter 'delta' must be finite, got inf"),
        (["sweep", "--model", "boundary_xy", "--set", "n=6", "--grid", "h=0:inf:0.1",
          "--quantities", "gap", "--jobs", "1"], "axis h: start, stop and step must be finite"),
        (["sweep", "--model", "boundary_xy", "--set", "n=6", "--grid", "h=0:1:nan",
          "--quantities", "gap", "--jobs", "1"], "axis h: start, stop and step must be finite"),
        (["scaling", "--model", "boundary_xy", "--sizes", "4,6.5,8,10", "--set", "delta=1.25",
          "--quantities", "gap", "--jobs", "1"],
         "n counts sites and must be a whole number, got (4.0, 6.5, 8.0, 10.0)"),
        (["scaling", "--model", "boundary_xy", "--sizes", "4,six,8,10", "--set", "delta=1.25",
          "--quantities", "gap", "--jobs", "1"], "parameter 'n' must be a number"),
    ], ids=["text-value", "fractional-n", "fractional-n-grid", "geometry", "spectrum",
            "nan-set", "inf-set", "inf-grid-stop", "nan-grid-step", "fractional-size",
            "text-size"])
    def test_bad_parameter_values_rejected(self, tmp_path, capsys, argv, message):
        # refused when the spec is read, not as an error class in every cell
        # (a fractional n used to run int(n) sites under a header recording n;
        # theta=nan printed CriticalAngle in every cell, delta=inf a
        # ConvergenceFailure, and a non-finite grid bound died in np.arange)
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "boundary_xy", "--grid", "h=0.3:0.3:0.1", "--quantities", "gap",
         "--jobs", "1"],
        ["geometry", "--model", "boundary_xy", "--set", "h=0.3"],
        ["spectrum", "--model", "boundary_xy"],
    ], ids=["sweep", "geometry", "spectrum"])
    def test_boundary_xy_without_n_rejected(self, tmp_path, capsys, argv):
        # a sweep used to print KeyError in every cell, and the point
        # reports died with a KeyError traceback
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert "needs n, the number of sites" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_whole_float_n_accepted(self, tmp_path):
        out = tmp_path / "n.csv"
        assert cli.main(["sweep", "--model", "boundary_xy", "--set", "n=6.0", "--grid",
                         "h=0.3:0.3:0.1", "--quantities", "gap", "--jobs", "1",
                         "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[2] == "# fixed: n=6"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # a parameter the model does not take, and a key that names no flag
        # (a misspelt key used to be ignored silently)
        cfg = tmp_path / "job.ini"
        out = tmp_path / "out.csv"
        for section, message in (
            ("set = n=6, delt=1.0\nquantities = gap\n", "no parameter 'delt'"),
            ("set = n=6\nquantites = gap\n",
             "config key 'quantites' names no flag of sweep (accepted: model, set, out, "
             "config, quantities, jobs, grid, format)"),
        ):
            cfg.write_text(f"[sweep]\nmodel = boundary_xy\ngrid = h=0.3:0.3:0.1\n{section}",
                           encoding="utf-8")
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_config_value_taken_as_written(self, tmp_path):
        # a "%" used to stop the run with an InterpolationSyntaxError traceback
        cfg = tmp_path / "job.ini"
        out = tmp_path / "a%b.csv"
        cfg.write_text(f"[sweep]\nmodel = boundary_xy\nset = n=4\ngrid = h=0.3:0.3:0.1\n"
                       f"quantities = gap\njobs = 1\nout = {out}\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[3] == "h,gap"

    @pytest.mark.parametrize("argv, flag", [
        (["scaling", "--quantities", "gap", "--size", "4,6,8,10"], "--size"),
        (["sweep", "--set", "n=4", "--grid", "h=0.3:0.3:0.1", "--quant", "gap"], "--quant"),
    ], ids=["size", "quant"])
    def test_flag_prefix_refused(self, tmp_path, capsys, argv, flag):
        # argparse used to take --size and --quant for --sizes and --quantities,
        # while a config key must name the flag in full
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--model", "boundary_xy", "--jobs", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, key", [
        (["sweep", "--set", "n=4", "--grid", "h=0.2:0.3:0.1", "--grid", "h=0.5:0.5:0.1"], "h"),
        (["sweep", "--set", "n=4", "--set", "h=0.3", "--grid", "h=0.5:0.5:0.1"], "h"),
        (["scaling", "--sizes", "4,6,8,10", "--set", "n=3"], "n"),
    ], ids=["grid-twice", "set-and-grid", "set-and-sizes"])
    def test_parameter_given_twice_rejected(self, tmp_path, capsys, argv, key):
        # rows labelled h = 0.2 and 0.3 used to carry the values at h = 0.5,
        # and the header recorded a fixed value the cells never used
        out = tmp_path / "out"
        argv = [*argv, "--model", "boundary_xy", "--quantities", "gap", "--jobs", "1"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spec error: ") and f"parameter {key!r} is given twice" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, words", [
        (["scaling", "--sizes", "4,6,8,10", "--quantities", "gap,foo"], ("--quantities", "'foo'")),
        (["sweep", "--set", "n=4", "--grid", "h=0.3:0.3:0.1", "--quantities", "gap,foo"],
         ("--quantities", "'foo'")),
        (["scaling", "--sizes", "4,6,8,10", "--quantities", "gap,gap"], ("--quantities", "twice")),
        (["sweep", "--set", "n=4", "--grid", "h=0.3:0.3:0.1", "--quantities", "gap,gap"],
         ("--quantities", "twice")),
        (["scaling", "--sizes", "4,4,6,8", "--quantities", "gap"], ("--sizes", "4,4,6,8")),
    ], ids=["scaling-unknown", "sweep-unknown", "scaling-quantity-twice", "sweep-quantity-twice",
            "size-twice"])
    def test_quantities_and_sizes_checked(self, tmp_path, capsys, argv, words):
        # scaling used to write an all-undefined column for an unknown name,
        # and two identical columns or rows for a name or size given twice
        out = tmp_path / "out"
        assert cli.main([*argv, "--model", "boundary_xy", "--jobs", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spec error: ") and all(w in err for w in words)
        assert not list(tmp_path.iterdir())

    def test_oracle_exit_codes(self, capsys):
        assert cli.main(["oracle", "--seed", "3", "--cases", "2"]) == 0
        capsys.readouterr()
        assert cli.main(["oracle", "--seed", "3", "--cases", "2", "--convention-flip"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "boundary_xy_dense_anchor" in out

    def test_zero_cases_empty_report(self, capsys):
        assert cli.main(["oracle", "--cases", "0"]) == 0
        assert "0/0" in capsys.readouterr().out

    def test_bad_spec_exit_code(self):
        assert cli.main(["sweep", "--model", "nope", "--grid", "h=0:1:0.5",
                         "--quantities", "gap"]) == 1

    def test_sweep_json_format(self, tmp_path):
        spec = cli.SweepSpec(
            model="boundary_xy",
            fixed={"n": 6, "delta": 1.25},
            axes=[("h", 0.3, 0.3, 0.1)],
            quantities=("gap",),
            out=str(tmp_path / "sweep.json"),
            fmt="json",
        )
        text = cli.run_sweep(spec)
        report = json.loads(text)
        assert len(report["rows"]) == 1 and "gap" in report["rows"][0]

    def test_rotated_xy_muc_jump_in_sweep(self, tmp_path):
        # the sweep surfaces the spec's MUC discontinuity across |h| = 1
        spec = cli.SweepSpec(
            model="rotated_xy",
            fixed={"delta": 0.5, "theta": 0.7, "mu_minus": 1.0, "mu_plus": 0.4,
                   "muc_pair": "h:theta"},
            axes=[("h", 0.9, 1.1, 0.2)],
            quantities=("muc",),
            out=str(tmp_path / "rxy.csv"),
        )
        text = cli.run_sweep(spec)
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
        inside, outside = float(rows[0][1]), float(rows[1][1])
        assert abs(outside - inside) > 0.05


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's nessgeom."""
    src = str(Path(nessgeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_chain_point_holds_few_dense_arrays():
    # a stage-ordered point keeps each d x d array only while a stage reads it:
    # the tangent slopes are sparse, and b and the Schur factors are gone
    # before the frame and the QGT (dense slopes, b and the factors held
    # through the QGT peak at 15.6 d x d arrays)
    import tracemalloc

    n = 160
    cli.evaluate_point("boundary_xy", {"n": 4}, cli.FINITE_QUANTITIES)  # lazy imports
    tracemalloc.start()
    try:
        cli.evaluate_point("boundary_xy", {"n": n, "delta": 1.25, "h": 0.3},
                           cli.FINITE_QUANTITIES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 8 * (2 * n) ** 2


def test_cells_do_not_import_scipy_optimize():
    # scipy.optimize costs a quarter second of start-up; no cell needs it
    code = (
        "import sys\n"
        "import nessgeom.cli as cli\n"
        "cli.evaluate_point('boundary_xy', {'n': 4}, cli.FINITE_QUANTITIES)\n"
        "cli.evaluate_point('reservoir_chain', {'lam': 0.5, 'theta': 0.3}, cli.SYMBOL_QUANTITIES)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


BOUNDARY_XY_ROW = (
    "print(json.dumps(cli.evaluate_point("
    "'boundary_xy', {'n': 6, 'delta': 1.25, 'h': 0.3}, cli.FINITE_QUANTITIES)))\n"
)


def test_symbol_cells_start_on_numpy_alone(tmp_path):
    # scipy.linalg and the process pool cost about 0.3 s of start-up that the
    # symbol path never uses; a chain cell after them must read as it does in
    # a fresh process
    out = str(tmp_path / "rc.csv")
    code = (
        "import json, sys\n"
        "import nessgeom.cli as cli\n"
        "cli.evaluate_point('reservoir_chain', {'lam': 0.5, 'theta': 0.3}, cli.SYMBOL_QUANTITIES)\n"
        "cli.evaluate_point('reservoir_chain', {'lam': 0.5, 'theta': 0.3, 'muc_mode': 'residue'},"
        " cli.SYMBOL_QUANTITIES)\n"
        "cli.evaluate_point('rotated_xy', {'h': 1.3, 'theta': 0.7}, cli.SYMBOL_QUANTITIES)\n"
        "assert cli.main(['sweep', '--model', 'reservoir_chain', '--set', 'theta=0.3',"
        f" '--grid', 'lam=0.4:0.6:0.1', '--quantities', 'gap,muc,xi', '--out', {out!r},"
        " '--jobs', '1']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process')))\n"
        + BOUNDARY_XY_ROW
    )
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    loaded, row = run.stdout.splitlines()
    assert json.loads(loaded) == []
    fresh = _fresh_python("import json\nimport nessgeom.cli as cli\n" + BOUNDARY_XY_ROW)
    assert fresh.returncode == 0, fresh.stderr
    assert row == fresh.stdout.strip()


def _sweep_modules(out, n, grid):
    """Code that runs one ``boundary_xy`` sweep at size n and prints the
    scipy modules loaded."""
    return (
        "import json, sys\n"
        "import nessgeom.cli as cli\n"
        f"assert cli.main(['sweep', '--model', 'boundary_xy', '--set', 'n={n}', {grid},"
        f" '--quantities', 'gap,gmax,detg,muc,R,purity', '--out', {out!r}, '--jobs', '1']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )


def test_chain_sweeps_start_on_numpy_alone(tmp_path):
    # every boundary-driven cell takes the modes path, which runs on numpy's
    # LAPACK and BLAS; the delta = 1, h = 0.041 cell of the flat band stalls
    # Aberth from the pair guesses and settles from LAPACK's eigenvalues
    out = str(tmp_path / "bx.csv")
    grid = "'--grid', 'delta=1.0:1.25:0.25', '--grid', 'h=0.041:0.341:0.3'"
    code = "".join(_sweep_modules(out, n, grid) for n in (4, 20, 40))
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]"] * 3
    assert "Error" not in Path(out).read_text()


def test_zero_field_xx_cell_loads_scipy(tmp_path):
    # the XX chain at zero field refuses the modes path (J's singular values
    # pair up); its real Schur factorization is scipy's
    out = str(tmp_path / "xx.csv")
    run = _fresh_python(_sweep_modules(out, 40, "'--set', 'delta=0', '--grid', 'h=0:0:1'"))
    assert run.returncode == 0, run.stderr
    assert "scipy.linalg" in json.loads(run.stdout)


def test_traced_names_resolve_on_the_package(monkeypatch):
    # the benchmark's tracing wraps these attributes by name; a rename or a
    # deletion would otherwise surface only when a traced run starts
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    for module_name, attr, _ in tracing.TIMED:
        owner = importlib.import_module(f"nessgeom.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
