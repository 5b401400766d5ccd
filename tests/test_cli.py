import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fieldosc
from fieldosc import classical, cli, core, quantum, tdfields
from fieldosc.cli import (
    RunReport,
    ScenarioError,
    main,
    parse_scenario,
    run,
    wavefunction_rows,
)
from fieldosc.core import cross_matrix, rk4_steps
from fieldosc.quantum import Grid, gaussian_wavepacket
from fieldosc.tdfields import FixedAxisField, accumulated_rotation

from test_tdfields import integrate_rotation_ode


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_minimal_classical_config_fills_defaults(self, tmp_path):
        path = write(
            tmp_path,
            "minimal.cfg",
            "mode = classical-equivalence\nb3 = 1.0\ne_field = 0, 0.1, 0\n",
        )
        sc = parse_scenario(path)
        assert sc.name == "minimal"
        assert sc.mode == "classical-equivalence"
        assert sc.params["b3"] == 1.0
        assert sc.params["e_field"] == (0.0, 0.1, 0.0)
        assert sc.params["horizon"] == 4.0  # default filled
        assert sc.params["dt"] == 1e-3
        assert sc.params["seed"] == 0

    def test_unknown_mode_names_the_key(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "mode = foo\n")
        with pytest.raises(ScenarioError, match="'mode'.*unknown mode 'foo'"):
            parse_scenario(path)

    def test_negative_horizon_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "bad.cfg",
            "mode = classical-equivalence\nb3 = 1.0\nhorizon = -1\n",
        )
        with pytest.raises(ScenarioError, match="key 'horizon': must be positive"):
            parse_scenario(path)

    def test_unknown_key_reported_with_line(self, tmp_path):
        path = write(
            tmp_path,
            "bad.cfg",
            "mode = classical-equivalence\nb3 = 1.0\nbogus = 3\n",
        )
        with pytest.raises(ScenarioError, match=r"bad.cfg:3: unknown key 'bogus'"):
            parse_scenario(path)

    def test_type_mismatch_names_key(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "mode = classical-equivalence\nb3 = abc\n")
        with pytest.raises(ScenarioError, match="key 'b3'"):
            parse_scenario(path)

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "mode = classical-equivalence\n")
        with pytest.raises(ScenarioError, match="missing required key 'b3'"):
            parse_scenario(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(
            tmp_path, "bad.cfg", "mode = case2\nb1 = 0.1\nb1 = 0.2\n"
        )
        with pytest.raises(ScenarioError, match="duplicate key 'b1'"):
            parse_scenario(path)

    def test_vector_length_checked(self, tmp_path):
        path = write(
            tmp_path,
            "bad.cfg",
            "mode = classical-equivalence\nb3 = 1.0\ne_field = 1, 2\n",
        )
        with pytest.raises(ScenarioError, match="key 'e_field'"):
            parse_scenario(path)

    def test_quantum_axial_field_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "bad.cfg",
            "mode = quantum-pipeline\nb3 = 2.0\ne_field = 0.1, 0, 0.3\n",
        )
        with pytest.raises(ScenarioError, match="axial electric field"):
            parse_scenario(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("mode = quantum-pipeline\nb3 = 2.0\ngrid_n = 100\n", "grid_n"),
            ("mode = classical-equivalence\nb3 = nan\n", "b3"),
            ("mode = case1\nb3_const = inf\n", "b3_const"),
            ("mode = classical-equivalence\nb3 = 1.0\ne_field = 0, nan, 0\n", "e_field"),
            ("mode = case2\nseed = -1\n", "seed"),
        ],
        ids=["grid_n-100", "b3-nan", "b3_const-inf", "e_field-nan", "seed--1"],
    )
    def test_bad_value_is_a_diagnostic(self, tmp_path, capsys, text, key):
        path = write(tmp_path, "bad.cfg", text)
        assert main(["run", str(path), "--check-only"]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"bad\.cfg:\d+: key '{key}'", err), err


class TestRunners:
    def test_classical_checks_pass(self, tmp_path):
        path = write(
            tmp_path,
            "cls.cfg",
            "mode = classical-equivalence\nb3 = 1.5\nhorizon = 2.0\ndt = 2e-3\n",
        )
        report = run(parse_scenario(path), out_dir=tmp_path / "out")
        assert report.passed
        names = {c.name for c in report.checks}
        assert "phase-vanishes-without-e" in names  # E = 0 here
        assert (tmp_path / "out" / "cls_trajectory.csv").exists()
        assert (tmp_path / "out" / "cls_phase.csv").exists()

    def test_expansion_and_case_modes(self, tmp_path):
        for text in (
            "mode = eigenstate-expansion\ntheta = 0.8\nmax_level = 3\n",
            "mode = case1\ntime = 1.5\node_steps = 4000\n",
            "mode = case2\nsamples = 8\n",
        ):
            path = write(tmp_path, "one.cfg", text)
            report = run(parse_scenario(path), check_only=True)
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_case1_ode_defect_equals_reference_loop(self, tmp_path):
        path = write(tmp_path, "c1.cfg", "mode = case1\ntime = 2.0\node_steps = 3000\n")
        report = run(parse_scenario(path), check_only=True)
        defect = {c.name: c.defect for c in report.checks}["closed-form-vs-ode"]
        field = FixedAxisField(b3=lambda t: 1.0 + 0.5 * np.cos(1.0 * np.asarray(t, dtype=float)))
        ode = integrate_rotation_ode(field, 2.0, 3000)
        assert defect == float(np.max(np.abs(accumulated_rotation(field, 2.0) - ode)))
        # the defect is a multiple of ulp(1), so also compare the RK4 matrix
        # of case1's right-hand side run through rk4_steps
        def rhs(r, t):
            return cross_matrix((0.0, 0.0, float(field.rate(t)))) @ r

        for _, r in rk4_steps(rhs, np.eye(3), 2.0 / 3000, 3000):
            pass
        assert np.array_equal(r, ode)

    def test_case1_reuses_stage_generators(self, tmp_path, monkeypatch):
        # k3 reuses k2's midpoint generator and a step's start the last
        # step's end: fewer than 2.5 rate evaluations per step, not 4
        calls = []
        rate = FixedAxisField.rate

        def counted(self, t):
            calls.append(t)
            return rate(self, t)

        monkeypatch.setattr(FixedAxisField, "rate", counted)
        path = write(tmp_path, "c1.cfg", "mode = case1\ntime = 2.0\node_steps = 3000\n")
        assert run(parse_scenario(path), check_only=True).passed
        # one more call for the closed form
        assert len(calls) < 2.5 * 3000 + 1

    def test_hill_mode_artifact(self, tmp_path):
        path = write(
            tmp_path,
            "hill.cfg",
            "mode = hill-stability\na_count = 5\nq_count = 2\nn_steps = 512\n",
        )
        report = run(parse_scenario(path), out_dir=tmp_path / "out")
        assert report.passed
        table = (tmp_path / "out" / "hill_stability.csv").read_text().splitlines()
        assert table[0] == "param1,param2,trace,classification"
        assert len(table) == 11

    def test_quantum_drive_free_identity_check(self, tmp_path):
        path = write(
            tmp_path,
            "q.cfg",
            "mode = quantum-pipeline\nb3 = 2.0\ngrid_n = 64\ntime = 0.3\n",
        )
        report = run(parse_scenario(path), check_only=True)
        assert report.passed
        names = {c.name for c in report.checks}
        assert "moving-origin-identity" in names

    def test_quantum_pipeline_at_hbar_two(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "q.cfg",
            "mode = quantum-pipeline\nb3 = 2.0\ne_field = 0.1, -0.05, 0\n"
            "grid_n = 64\ntime = 0.3\nhbar = 2.0\n",
        )
        assert main(["run", str(path), "--check-only"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_tables_written_in_runner_order(self, tmp_path):
        path = write(
            tmp_path, "cls.cfg", "mode = classical-equivalence\nb3 = 1.5\nhorizon = 0.5\n"
        )
        out = tmp_path / "out"
        report = run(parse_scenario(path), out_dir=out)
        assert report.artifacts == [str(out / "cls_trajectory.csv"), str(out / "cls_phase.csv")]
        table = (out / "cls_trajectory.csv").read_text().splitlines()
        assert table[0] == "t,q1,p1,q2,p2,q3,p3" and len(table) == 1002

    def test_check_only_computes_no_table_rows(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("table rows computed in a check-only run")

        # block_propagate_path is used in cli by the trajectory rows alone
        monkeypatch.setattr(cli, "block_propagate_path", refuse)
        monkeypatch.setattr(cli, "_write_csv", refuse)
        path = write(
            tmp_path, "cls.cfg", "mode = classical-equivalence\nb3 = 1.5\nhorizon = 0.5\n"
        )
        assert run(parse_scenario(path), check_only=True).passed

    def test_check_only_writes_nothing(self, tmp_path):
        path = write(
            tmp_path, "exp.cfg", "mode = eigenstate-expansion\nmax_level = 2\n"
        )
        report = run(parse_scenario(path), out_dir=tmp_path / "out", check_only=True)
        assert report.passed
        assert not (tmp_path / "out").exists()


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = write(
            tmp_path, "exp.cfg", "mode = eigenstate-expansion\nmax_level = 2\n"
        )
        code = main(["run", str(path), "--check-only"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "FAIL" not in out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cfg", "mode = nope\n")
        assert main(["run", str(path)]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_tolerance_scale_can_force_failure(self, tmp_path, capsys):
        path = write(
            tmp_path, "exp.cfg", "mode = eigenstate-expansion\nmax_level = 2\n"
        )
        code = main(["run", str(path), "--check-only", "--tolerance-scale", "1e-20"])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--tolerance-scale", v) for v in ("0", "-1", "nan", "inf", "-inf")]
        + [("--threads", v) for v in ("0", "-2")],
    )
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # a scale that is not positive and finite would FAIL every check as
        # if the program were wrong; a pool size below 1 is no pool size
        path = write(tmp_path, "exp.cfg", "mode = eigenstate-expansion\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(path), "--check-only", f"{flag}={value}"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_threaded_batch(self, tmp_path, capsys):
        a = write(tmp_path, "a.cfg", "name = aa\nmode = eigenstate-expansion\n")
        b = write(tmp_path, "b.cfg", "name = bb\nmode = case2\nsamples = 4\n")
        code = main(["run", str(a), str(b), "--check-only", "--threads", "2"])
        out = capsys.readouterr().out
        assert code == 0
        # aggregation is name-ordered regardless of completion order
        assert out.index("aa:") < out.index("bb:")

    def test_raising_scenario_does_not_abort_batch(self, tmp_path, capsys):
        # a grid too narrow for the packet makes the maps raise
        a = write(
            tmp_path,
            "a.cfg",
            "name = aa\nmode = quantum-pipeline\nb3 = 2.0\ngrid_n = 32\ngrid_x = 1.0\n",
        )
        b = write(tmp_path, "b.cfg", "name = bb\nmode = eigenstate-expansion\n")
        code = main(["run", str(a), str(b), "--check-only"])
        out = capsys.readouterr().out
        assert code == 3
        assert "[FAIL] aa: error (GridSupportError: " in out
        assert "-- aa: FAILED" in out
        assert "[PASS] bb: level-orthogonality" in out
        assert "-- bb: ok" in out

    def test_narrow_grid_fails_before_any_evolution(self, tmp_path, capsys, monkeypatch):
        # psi0 has boundary mass 0.08 on a grid of half-width 1
        calls = []
        evolve = cli.split_step_evolve

        def counted(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "split_step_evolve", counted)
        path = write(tmp_path, "narrow.cfg", "mode = quantum-pipeline\nb3 = 2.0\ngrid_x = 1.0\n")
        assert main(["run", str(path), "--check-only"]) == 3
        assert "[FAIL] narrow: error (GridSupportError: " in capsys.readouterr().out
        assert calls == []

    def test_flow_blowup_is_one_error_line_without_warnings(self, tmp_path):
        # the kinetic term overflows in the first step: the oracle's
        # finiteness check reports it, and numpy prints nothing
        path = write(
            tmp_path, "blowup.cfg", "mode = classical-equivalence\nb3 = 1e200\nhorizon = 0.01\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fieldosc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fieldosc", "run", str(path), "--check-only"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert "[FAIL] blowup: error (FlowBlowupError: " in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_sweep_step_count_is_a_usage_error(self, value):
        script = Path(__file__).resolve().parents[1] / "scripts" / "mathieu_stability_sweep.py"
        env = dict(os.environ, PYTHONPATH=str(Path(fieldosc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, str(script), f"--n-steps={value}"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "--n-steps" in proc.stderr and "Traceback" not in proc.stderr

    def test_duplicate_names_rejected(self, tmp_path, capsys):
        a = write(tmp_path, "a.cfg", "name = same\nmode = eigenstate-expansion\n")
        b = write(tmp_path, "b.cfg", "name = same\nmode = case2\n")
        assert main(["run", str(a), str(b), "--check-only"]) == 2


class TestDeterminism:
    def hash_dir(self, path: Path) -> dict:
        return {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())
        }

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        configs = [
            write(
                tmp_path,
                "cls.cfg",
                "mode = classical-equivalence\nb3 = 2.0\ne_field = 0, 0.1, 0.05\n"
                "horizon = 1.5\ndt = 2e-3\nseed = 7\n",
            ),
            write(tmp_path, "exp.cfg", "mode = eigenstate-expansion\nmax_level = 3\n"),
            write(
                tmp_path,
                "hill.cfg",
                "mode = hill-stability\na_count = 5\nq_count = 2\nn_steps = 512\n",
            ),
        ]
        args = [str(c) for c in configs]
        assert main(["run", *args, "--out-dir", str(tmp_path / "o1")]) == 0
        assert main(["run", *args, "--out-dir", str(tmp_path / "o2")]) == 0
        h1, h2 = self.hash_dir(tmp_path / "o1"), self.hash_dir(tmp_path / "o2")
        assert h1 == h2
        assert len(h1) >= 4


class TestWavefunctionExport:
    def test_one_dimensional_rows(self):
        grid = Grid(dims=1, n=16, half_width=2.0)
        wf = gaussian_wavepacket(grid, (0.0,), (0.5,), (0.5,))
        rows = list(wavefunction_rows(wf))
        assert len(rows) == 16
        x, re, im, dens = rows[8]
        assert dens == pytest.approx(re * re + im * im)

    def test_two_dimensional_rows(self):
        grid = Grid(dims=2, n=16, half_width=2.0)
        wf = gaussian_wavepacket(grid, (0.0, 0.0), (0.0, 0.0), 0.5)
        rows = list(wavefunction_rows(wf))
        assert len(rows) == 256
        assert len(rows[0]) == 5

    @pytest.mark.parametrize("dims", [1, 2])
    def test_artifact_bytes_match_per_value_formatting(self, tmp_path, dims):
        # the artifact is byte for byte what a per-axis nested loop over
        # numpy scalars writes, each formatted by format(float(v), ".16e"),
        # including -0.0, the smallest subnormal, and an abs2 that
        # overflows to inf
        grid = Grid(dims=dims, n=16, half_width=2.0)
        wf = gaussian_wavepacket(grid, (0.3, -0.2)[:dims], (0.4, 0.1)[:dims], 0.5)
        values = wf.values.copy()
        flat = values.reshape(-1)
        flat[:5] = [-0.0, complex(-0.0, -0.0), 5e-324, 1e-300, 1e300]
        flat[5] = complex(1e300, -1e300)
        wf = dataclasses.replace(wf, values=values)
        header = ["x", "y", "re", "im", "abs2"][2 - dims :]
        path = tmp_path / "wavefunction.csv"
        cli._write_csv(path, header, wavefunction_rows(wf))

        ax = grid.axis()
        lines = [",".join(header)]
        with np.errstate(over="ignore"):
            for index in np.ndindex(values.shape):
                v = values[index]
                row = [ax[i] for i in index] + [v.real, v.imag, abs(v) ** 2]
                lines.append(",".join(format(float(x), ".16e") for x in row))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert b",inf\n" in path.read_bytes()


class TestPackageNames:
    def test_package_exports_each_module_all(self):
        # the package declares no list of its own: its public names are
        # the union of the four modules' __all__, each bound to the
        # module's object
        modules = (core, classical, quantum, tdfields)
        declared = {name for m in modules for name in m.__all__}
        public = {
            name
            for name, value in vars(fieldosc).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == declared
        assert sorted(fieldosc.__all__) == sorted(declared)
        for m in modules:
            for name in m.__all__:
                assert getattr(fieldosc, name) is getattr(m, name)
