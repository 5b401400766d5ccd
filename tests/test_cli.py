import dataclasses
import hashlib
import math
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
from fieldosc.quantum import Grid, gaussian_wavepacket
from fieldosc.tdfields import FixedAxisField, accumulated_rotation, rotation_ode

from test_tdfields import rotation_ode_reference_loop


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

    @pytest.mark.parametrize(
        "text, key",
        [
            ("mode = classical-equivalence\nb3 = 1.0\ndeviation_tol = 1e-3\n", "deviation_tol"),
            ("mode = quantum-pipeline\nb3 = 2.0\nlink_tol = 1\n", "link_tol"),
        ],
        ids=["deviation_tol", "link_tol"],
    )
    def test_tolerance_is_not_a_key(self, tmp_path, text, key):
        # a check's tolerance is a constant beside the check in its runner
        path = write(tmp_path, "bad.cfg", text)
        with pytest.raises(ScenarioError, match=rf"bad.cfg:3: unknown key '{key}'"):
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

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "{path}: no such scenario file"),
            ("mode = case2\nsamples\n", "{path}:2: expected 'key = value'"),
            ("# no mode\nsamples = 4\n", "{path}: missing required key 'mode'"),
        ],
        ids=["missing-file", "no-equals", "no-mode"],
    )
    def test_file_diagnostics(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg" if text is None else write(tmp_path, "bad.cfg", text)
        assert main(["run", str(path), "--check-only"]) == 2
        assert f"error: {message.format(path=path)}\n" == capsys.readouterr().err

    @pytest.mark.parametrize(
        "make, reason",
        [
            (
                lambda path: path.write_bytes(b"name = caf\xe9\nmode = case2\n"),
                "'utf-8' codec can't decode byte 0xe9",
            ),
            (lambda path: path.mkdir(), "Is a directory"),
        ],
        ids=["not-utf-8", "directory"],
    )
    def test_unreadable_file_is_a_diagnostic(self, tmp_path, capsys, make, reason):
        path = tmp_path / "bad.cfg"
        make(path)
        assert main(["run", str(path), "--check-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read scenario file: "), err
        assert reason in err and "Traceback" not in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_bytes("\ufeffmode = case2\nsamples = 4\n".encode("utf-8"))
        assert parse_scenario(path).mode == "case2"
        assert main(["run", str(path), "--check-only"]) == 0
        assert "-- bom: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", ".", ".."])
    def test_name_is_one_file_name(self, tmp_path, capsys, name):
        # the name becomes the artifact's file name, so a path would write
        # outside the output directory
        work = tmp_path / "work"
        out = work / "out"
        out.mkdir(parents=True)
        path = write(tmp_path, "bad.cfg", f"name = {name}\nmode = case2\nsamples = 4\n")
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        assert f"{path}:1: key 'name': must be a file name" in capsys.readouterr().err
        assert list(work.rglob("*")) == [out]

    def test_empty_name_is_the_file_stem(self, tmp_path):
        path = write(tmp_path, "stem.cfg", "name =\nmode = case2\n")
        assert parse_scenario(path).name == "stem"


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
            report = run(parse_scenario(path))
            assert report.passed, [c for c in report.checks if not c.passed]

    @pytest.mark.parametrize("b1, checked", [(0.0, False), (0.4, True)], ids=["no-speed", "speed"])
    def test_case2_checks_the_period_only_when_there_is_one(self, tmp_path, b1, checked):
        # at b1 = 0 the Coriolis speed is 0 and the stiffness constant: the
        # period check used to run on a made-up period of 2 pi and pass
        path = write(tmp_path, "c2.cfg", f"mode = case2\nb1 = {b1}\nb3 = 2\nalpha = -1\n")
        report = run(parse_scenario(path))
        assert report.passed
        names = [c.name for c in report.checks]
        assert ("stiffness-period" in names) == checked
        assert len(names) == 5 + checked

    def test_case1_ode_defect_equals_reference_loop(self, tmp_path):
        path = write(tmp_path, "c1.cfg", "mode = case1\ntime = 2.0\node_steps = 3000\n")
        report = run(parse_scenario(path))
        defect = {c.name: c.defect for c in report.checks}["closed-form-vs-ode"]
        field = FixedAxisField(b3=lambda t: 1.0 + 0.5 * np.cos(1.0 * np.asarray(t, dtype=float)))
        ode = rotation_ode_reference_loop(field, 2.0, 3000)
        assert defect == float(np.max(np.abs(accumulated_rotation(field, 2.0) - ode)))
        # the defect is a multiple of ulp(1), so also compare the RK4 matrix
        # of the package's frame ODE, which case1 runs
        assert np.array_equal(rotation_ode(field, 2.0, 3000), ode)

    def test_case1_reuses_stage_generators(self, tmp_path, monkeypatch):
        # one rate call per block of 32 steps on their three stage times
        # each, k3 reusing k2's midpoint rate
        calls = []
        rate = FixedAxisField.rate

        def counted(self, t):
            calls.append(t)
            return rate(self, t)

        monkeypatch.setattr(FixedAxisField, "rate", counted)
        path = write(tmp_path, "c1.cfg", "mode = case1\ntime = 2.0\node_steps = 3000\n")
        assert run(parse_scenario(path)).passed
        # 94 blocks, and one more call for the closed form
        assert len(calls) == 94 + 1

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

    @pytest.mark.parametrize("a_min, runaway_rows", [(-12.0, 0), (-1e6, 4)])
    def test_hill_determinant_check_on_unstable_rows(self, tmp_path, a_min, runaway_rows):
        # a = -12 (trace 5.3e4) rounds ad - bc near 1e-6 of 1: the check
        # reads |det - 1| relative to max(1, |ad|, |bc|).  a = -1e6
        # overflows, and a row with no determinant is left out of the check
        path = write(
            tmp_path,
            "hill.cfg",
            f"mode = hill-stability\na_min = {a_min}\na_count = 5\nq_count = 2\n"
            "n_steps = 2048\n",
        )
        report = run(parse_scenario(path), out_dir=tmp_path / "out")
        assert report.passed
        (det,) = (c for c in report.checks if c.name == "monodromy-determinant")
        assert 0.0 < det.defect <= 1e-12
        table = (tmp_path / "out" / "hill_stability.csv").read_text().splitlines()
        traces = [line.split(",")[2] for line in table[1:]]
        assert traces.count("inf") == 2 * runaway_rows

    def test_hill_check_without_rows_left_out(self, tmp_path):
        # the one row, a = -12 and q = 0, has a determinant but no
        # closed-form trace (that needs q = 0 and a > 0): a trace check
        # with no row to read would report a made-up defect of 0
        path = write(
            tmp_path,
            "hill.cfg",
            "mode = hill-stability\na_min = -12\na_max = -12\na_count = 1\nq_count = 1\n",
        )
        report = run(parse_scenario(path))
        assert [c.name for c in report.checks] == ["monodromy-determinant"]
        assert report.passed

    def test_quantum_drive_free_identity_check(self, tmp_path):
        path = write(
            tmp_path,
            "q.cfg",
            "mode = quantum-pipeline\nb3 = 2.0\ngrid_n = 64\ntime = 0.3\n",
        )
        report = run(parse_scenario(path))
        assert report.passed
        defects = {c.name: c.defect for c in report.checks}
        assert "moving-origin-identity" in defects
        # the driven evolution is the oscillator's, so the link compares
        # the same two states as the identity check
        assert defects["moving-origin-link"] == defects["moving-origin-identity"]

    @pytest.mark.parametrize(
        "e_field, evolutions", [("0, 0, 0", 2), ("-0.0, 0, 0", 2), ("0.1, -0.05, 0", 3)]
    )
    def test_quantum_evolutions(self, tmp_path, monkeypatch, e_field, evolutions):
        # a drive-free packet is evolved once for the oscillator and the
        # driven oscillator, and once for the charge; the charge's evolution
        # is one 2-D run, each separable one a 1-D run per axis
        calls = []
        evolve = quantum.split_step_evolve

        def counted(psi0, *args, **kwargs):
            calls.append(psi0.grid.dims)
            return evolve(psi0, *args, **kwargs)

        monkeypatch.setattr(quantum, "split_step_evolve", counted)
        monkeypatch.setattr(cli, "split_step_evolve", counted)
        path = write(
            tmp_path,
            "q.cfg",
            f"mode = quantum-pipeline\nb3 = 2.0\ne_field = {e_field}\ngrid_n = 32\ntime = 0.1\n",
        )
        assert run(parse_scenario(path)).passed
        assert sorted(calls) == [1] * 2 * (evolutions - 1) + [2]

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
        assert run(parse_scenario(path)).passed

    def test_check_only_writes_nothing(self, tmp_path):
        path = write(
            tmp_path, "exp.cfg", "mode = eigenstate-expansion\nmax_level = 2\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out), "--check-only"]) == 0
        assert not out.exists()


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

    def test_exit_one_on_failed_check(self, tmp_path, capsys):
        # dt = 0.2 leaves the RK4 oracle far outside the 1e-6 deviation gate
        path = write(
            tmp_path,
            "cls.cfg",
            "mode = classical-equivalence\nb3 = 2.0\nhorizon = 2.0\ndt = 0.2\n",
        )
        code = main(["run", str(path), "--check-only"])
        assert code == 1
        assert "[FAIL] cls: equivalence-deviation" in capsys.readouterr().out

    def test_runaway_hill_row_is_quiet(self, tmp_path, capsys):
        # the one row overflows: the map calls it unstable, numpy does not
        # warn (a warning would be an error here), and no check has a row
        # to read, so none ran and the scenario verified nothing: it fails
        path = write(
            tmp_path,
            "hill.cfg",
            "mode = hill-stability\na_min = -1e5\na_max = -1e5\na_count = 1\nq_count = 1\n",
        )
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "[FAIL] hill: no check ran"
        assert out[1].startswith("-- hill: FAILED")
        table = (tmp_path / "out" / "hill_stability.csv").read_text().splitlines()
        assert table[1].endswith(",inf,unstable")

    @pytest.mark.parametrize("flag, value", [("--threads", v) for v in ("0", "-2")])
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # a pool size below 1 is no pool size
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

    def test_drive_free_scenario_with_a_fast_frame_runs(self, tmp_path, capsys):
        # frame rate 600 at dt = 1e-3: the zero planar force used to be
        # refused as a drive too fast for dt
        path = write(
            tmp_path,
            "fast.cfg",
            "mode = quantum-pipeline\nb3 = 1200\ngrid_n = 64\ngrid_x = 0.5\ntime = 0.01\n"
            "center = 0, 0\nmomentum = 0, 0\nwidth = 0.04\n",
        )
        assert main(["run", str(path), "--check-only"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_unresolved_momenta_are_a_grid_error(self, tmp_path, capsys):
        # the same field on the default 16-wide grid: the packet's momentum
        # spread (about omega * width = 180) outgrows k_max = pi/dx = 12.6,
        # which used to show as a rotating-frame-link defect of 0.99
        path = write(
            tmp_path,
            "coarse.cfg",
            "mode = quantum-pipeline\nb3 = 1200\ngrid_n = 64\ntime = 0.01\n"
            "center = 0, 0\nmomentum = 0, 0\nwidth = 0.3\n",
        )
        assert main(["run", str(path), "--check-only"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] coarse: error (GridSupportError: momentum support" in out
        assert "rotating-frame-link" not in out

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amp", ["1e308", "0"])
    def test_case1_overflow_is_one_error_line_without_warnings(self, tmp_path, capsys, amp):
        # amp 1e308 overflows the rate, amp 0 the quadrature of a finite
        # rate: the closed form rejects either, and numpy warns of neither
        path = write(
            tmp_path,
            "ovf.cfg",
            f"mode = case1\nb3_const = 1e308\nb3_cos_amp = {amp}\node_steps = 100\n",
        )
        assert main(["run", str(path), "--check-only"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("[FAIL] ovf: error (ValueError: rotation angle must be finite")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_packet_off_the_grid_is_one_error_line_without_warnings(self, tmp_path, capsys):
        # the packet underflows to zero on the grid: normalizing it used to
        # divide by a norm of 0, warn twice and fail as "amplitudes must be finite"
        path = write(
            tmp_path,
            "off.cfg",
            "mode = quantum-pipeline\nb3 = 2.0\ngrid_n = 64\ncenter = 40.0, 0.0\n",
        )
        assert main(["run", str(path), "--check-only"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            "[FAIL] off: error (ValueError: "
            "cannot normalize a wavefunction of norm 0.0 on its grid)"
        )

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
        err = capsys.readouterr().err
        assert err.startswith(f"error: {b}: scenario name 'same' is already taken by {a}")
        assert "Traceback" not in err


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

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS splits a long dot across threads, which changes its sum:
        # the case1 frame angle used to differ between 1 and 2 threads
        path = write(tmp_path, "c1.cfg", "mode = case1\ntime = 2.0\node_steps = 1000\n")
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            env = dict(
                os.environ,
                PYTHONPATH=str(Path(fieldosc.__file__).parents[1]),
                OPENBLAS_NUM_THREADS=threads,
            )
            proc = subprocess.run(
                [sys.executable, "-m", "fieldosc", "run", str(path), "--out-dir", str(out)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            digests.append(self.hash_dir(out))
        assert list(digests[0]) == ["c1_rotation.csv"]
        assert digests[0] == digests[1]


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


def _csv_reference(header, rows) -> bytes:
    """A table as written one value at a time."""

    def one(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".16e")

    lines = [",".join(header)] + [",".join(map(one, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


_SPECIAL_FLOATS = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 1e308, 0.1, -2.5e-300]


def _csv_rows(count):
    return [
        (
            f"s{i}",
            i - 200,
            np.int64(-(i**3)),
            _SPECIAL_FLOATS[i % 8] * (1 + i),
            np.float64(_SPECIAL_FLOATS[(3 * i) % 8]) / (1 + i),
            # one column mixes float and np.float64: both write as floats
            float(i) / 7.0 if i % 2 else np.float64(-i / 3.0),
        )
        for i in range(count)
    ]


class TestCsvWriter:
    HEADER = ["name", "int", "int64", "float", "float64", "mixed"]

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
    def test_bytes_match_per_value_formatting(self, tmp_path, count):
        rows = _csv_rows(count)
        path = tmp_path / "table.csv"
        cli._write_csv(path, self.HEADER, iter(rows))
        assert path.read_bytes() == _csv_reference(self.HEADER, rows)
        assert path.read_text().count("\n") == count + 1

    @pytest.mark.parametrize(
        "changed", [range(1, 2), range(255, 256), range(300, 301), range(256, 400)],
        ids=["row1", "row255", "row300", "rows256-399"],
    )
    @pytest.mark.parametrize(
        "column, value", [(0, 1.5), (1, 1.0), (3, "x"), (3, 2)],
        ids=["str-float", "int-float", "float-str", "float-int"],
    )
    def test_type_change_mid_table_raises(self, tmp_path, changed, column, value):
        # a row whose conversion differs from the first row's raises, also
        # when every row of a later block changes alike
        rows = _csv_rows(400)
        for i in changed:
            rows[i] = rows[i][:column] + (value,) + rows[i][column + 1 :]
        with pytest.raises(TypeError):
            cli._write_csv(tmp_path / "table.csv", self.HEADER, rows)

    def test_demo_tables_have_one_type_signature(self):
        # the block writer takes its format from a block's first row: in
        # every demo table, each row has the column types of the first
        demos = Path(__file__).resolve().parents[1] / "scenarios"
        configs = sorted(demos.glob("*.cfg"))
        assert len(configs) == 7
        for config in configs:
            scenario = parse_scenario(config)
            _, tables = cli._RUNNERS[scenario.mode](scenario)
            for table, (header, rows) in tables.items():
                signatures = {tuple(map(type, row)) for row in rows}
                assert len(signatures) == 1, (config.name, table, signatures)
                assert len(next(iter(signatures))) == len(header)


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
