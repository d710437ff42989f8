import json

import pytest

from nessgeom import cli
from nessgeom.errors import BadSpec


def sweep_spec(tmp_path, **overrides):
    base = dict(
        model="boundary_xy",
        fixed={"n": 6, "delta": 1.25},
        axes=[("h", 0.2, 0.4, 0.1)],
        quantities=("gap", "gmax", "muc", "R", "purity"),
        out=str(tmp_path / "sweep.csv"),
        jobs=1,
        seed=7,
    )
    base.update(overrides)
    return cli.SweepSpec(**base)


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

    def test_error_lands_in_cell(self, tmp_path):
        # a negative rate fails that grid point; the sweep must not abort and
        # the cell carries the originating error's class name
        spec = sweep_spec(
            tmp_path,
            fixed={"n": 4, "delta": 1.25, "h": 0.3},
            axes=[("kappa_l_minus", -0.1, 0.1, 0.2)],
            quantities=("gap", "muc"),
        )
        text = cli.run_sweep(spec)
        rows = [l for l in text.strip().splitlines() if not l.startswith("#")]
        assert "DimensionMismatch" in rows[1]
        assert "DimensionMismatch" not in rows[2]  # the valid point computed

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
    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[sweep]\n"
            "model = boundary_xy\n"
            "set = n=6, delta=1.25\n"
            "grid = h=0.3:0.3:0.1\n"
            "quantities = gap\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--set", "delta=1.0", "--out", str(out)]
        )
        assert rc == 0
        header = out.read_text().splitlines()[2]
        assert "delta=1" in header  # CLI value overrode the config value

    def test_spectrum_subcommand(self, tmp_path, capsys):
        rc = cli.main(
            ["spectrum", "--model", "boundary_xy", "--set", "n=6", "--set", "delta=1.25",
             "--set", "h=0.3"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] > 0
        assert report["delta_xhat"] == pytest.approx(report["delta"], rel=1e-6)

    def test_geometry_subcommand(self, tmp_path):
        out = tmp_path / "geo.json"
        rc = cli.main(
            ["geometry", "--model", "boundary_xy", "--set", "n=6", "--set", "delta=1.25",
             "--set", "h=0.3", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) >= {"gap", "gmax", "detg", "muc", "R", "purity"}

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

