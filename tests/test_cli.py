"""CLI contract tests: CSV schemas, determinism, exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mechfield.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from mechfield.fields import circular_loop, magnetic_field_of_line_current
from mechfield.vectors import Position

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- simulate -----------------------------------------------------------------


def test_simulate_ddho_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "ddho",
        "--beta", "0", "--amp", "1", "--omega", "0.7", "--dt", "0.01", "--steps", "3",
    )
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "t,x,y,z,vx,vy,vz"
    assert lines[1] == "0,1,0,0,0,0,0"
    assert len(lines) == 5  # header + 4 data rows


def test_simulate_zero_steps_emits_only_initial_row(capsys):
    code, out, _ = run_cli(capsys, "simulate", "sho", "--dt", "0.01", "--steps", "0")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert len(lines) == 2
    assert lines[1].startswith("0,1,0,0,")


@pytest.mark.parametrize("steps", [0, 1, 7, 100])
def test_simulate_row_count_rule(capsys, steps):
    code, out, _ = run_cli(capsys, "simulate", "sho", "--steps", str(steps))
    assert code == EXIT_OK
    assert len(out.splitlines()) == steps + 2  # header + steps + 1


def test_simulate_satellite_orbit_closes(capsys):
    code, out, _ = run_cli(capsys, "simulate", "satellite", "--dt", "1", "--steps", "5828")
    assert code == EXIT_OK
    final = out.splitlines()[-1].split(",")
    radius = math.hypot(float(final[1]), float(final[2]), float(final[3]))
    assert abs(radius - 7e6) / 7e6 < 1e-3


def test_simulate_methods_differ(capsys):
    rows = {}
    for method in ("euler", "euler-cromer", "rk4"):
        _, out, _ = run_cli(capsys, "simulate", "sho", "--steps", "5", "--method", method)
        rows[method] = out.splitlines()[-1]
    assert rows["euler"] != rows["euler-cromer"]
    assert rows["euler-cromer"] != rows["rk4"]


def test_simulate_pendulum_schema(capsys):
    code, out, _ = run_cli(capsys, "simulate", "pendulum", "--steps", "2")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "t,theta,omega"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_simulate_system_schema_flattens_particles(capsys):
    code, out, _ = run_cli(capsys, "simulate", "three-body", "--steps", "1")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0].startswith("t,x1,y1,z1,vx1,vy1,vz1,x2")
    assert len(lines[0].split(",")) == 1 + 3 * 6
    assert len(lines[1].split(",")) == 1 + 3 * 6


def test_simulate_writes_file_and_nothing_to_stdout(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", "sho", "--steps", "3", "--out", str(out_file))
    assert code == EXIT_OK
    assert out == ""
    assert out_file.read_text().splitlines()[0] == "t,x,y,z,vx,vy,vz"


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(capsys, "simulate", "ddho", "--steps", "500", "--out", str(path))[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_blow_up_is_domain_error(capsys):
    # explicit Euler at dt = 10 s grows the oscillation until it overflows at step 308
    code, out, err = run_cli(capsys, "simulate", "sho", "--method", "euler", "--dt", "10", "--steps", "400")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "not finite at step 308, t = 3080" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "sho", "--steps", "2"),
    ("field-grid", "b-loop", "--intervals", "10"),
])
def test_unwritable_out_is_io_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not path.exists()


def test_simulate_unknown_scenario_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "warp-drive")
    assert code == EXIT_USAGE
    assert err != ""


def test_simulate_rejects_parameter_for_wrong_scenario(capsys):
    code, _, err = run_cli(capsys, "simulate", "sho", "--beta", "1")
    assert code == EXIT_USAGE
    assert "does not take" in err


def test_simulate_rejects_nonpositive_dt(capsys):
    code, _, err = run_cli(capsys, "simulate", "sho", "--dt", "0")
    assert code == EXIT_USAGE
    assert "--dt" in err


def test_simulate_rejects_negative_steps(capsys):
    code, _, _ = run_cli(capsys, "simulate", "sho", "--steps", "-1")
    assert code == EXIT_USAGE


def test_simulate_rejects_bad_parameter_values(capsys):
    code, _, err = run_cli(capsys, "simulate", "spring-chain", "--particles", "0")
    assert code == EXIT_USAGE
    assert err != ""
    code, _, err = run_cli(capsys, "simulate", "pendulum", "--g", "-9.8")
    assert code == EXIT_USAGE
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "sho", "--dt", "nan"),
        ("simulate", "sho", "--dt", "inf"),
        ("simulate", "pendulum", "--length", "nan"),
        ("simulate", "ddho", "--beta", "inf"),
        ("simulate", "spring-chain", "--amplitude=-inf"),
        ("field", "b-loop", "--radius", "nan", "--at", "0,0,1"),
        ("field", "e-line", "--lambda", "inf", "--at", "1,0,0"),
        ("field-grid", "b-loop", "--x-min", "nan"),
        ("field-grid", "e-line", "--z-max", "1e400"),
    ],
)
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be a finite number" in err


# --- field ---------------------------------------------------------------------


def test_field_b_loop_center(capsys):
    code, out, _ = run_cli(capsys, "field", "b-loop", "--current", "1", "--radius", "1", "--at", "0,0,0")
    assert code == EXIT_OK
    bx, by, bz = (float(p) for p in out.strip().split(","))
    assert (bx, by) == (0.0, 0.0)
    assert bz == pytest.approx(6.28319e-7, rel=1e-4)


def test_field_output_has_nine_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "field", "b-loop", "--at", "0,0,0")
    direct = magnetic_field_of_line_current(1.0, circular_loop(1.0))(Position(0, 0, 0))
    assert out.strip() == ",".join(f"{c:.9g}" for c in direct)


def test_field_e_line_zero_density(capsys):
    code, out, _ = run_cli(capsys, "field", "e-line", "--lambda", "0", "--length", "1", "--at", "1,0,0")
    assert code == EXIT_OK
    assert out.strip() == "0,0,0"


def test_field_e_line_worked_example(capsys):
    code, out, _ = run_cli(capsys, "field", "e-line", "--lambda", "1e-9", "--length", "1", "--at", "1,0,0")
    assert code == EXIT_OK
    ex = float(out.strip().split(",")[0])
    assert ex == pytest.approx(8.0498, rel=1e-3)


def test_field_on_source_is_domain_error(capsys):
    for argv in (
        # with 999 intervals the middle quadrature sample lands on the origin
        ("e-line", "--length", "1", "--intervals", "999", "--at", "0,0,0"),
        # on the source between two samples, and at its end
        ("e-line", "--at", "0,0,1e-4"),
        ("e-line", "--at", "0,0,0.5"),
        # a vertex of the 4-chord polyline standing in for the loop
        ("b-loop", "--intervals", "4", "--at", "1,0,0"),
    ):
        code, out, err = run_cli(capsys, "field", *argv)
        assert code == EXIT_DOMAIN, argv
        assert out == ""
        assert "field point on source" in err


@pytest.mark.parametrize("command", ["field", "field-grid"])
def test_zero_intervals_is_usage_error(capsys, command):
    argv = [command, "b-loop", "--intervals", "0"] + (["--at", "0,0,1"] if command == "field" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "interval" in err
    assert "Traceback" not in err


def test_field_bad_at_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "field", "b-loop", "--at", "1,2")
    assert code == EXIT_USAGE
    assert "--at" in err


def test_field_unknown_kind_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "field", "tokamak", "--at", "0,0,0")
    assert code == EXIT_USAGE


# --- field-grid ------------------------------------------------------------------


def test_grid_single_point_matches_query(capsys):
    code, out, _ = run_cli(
        capsys, "field-grid", "b-loop", "--z-min", "0.5", "--z-max", "0.5", "--z-count", "1"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "x,y,z,Fx,Fy,Fz"
    assert len(lines) == 2
    row = [float(p) for p in lines[1].split(",")]
    direct = magnetic_field_of_line_current(1.0, circular_loop(1.0))(Position(0, 0, 0.5))
    assert row[:3] == [0.0, 0.0, 0.5]
    assert row[5] == pytest.approx(direct.z, rel=1e-12)


def test_grid_rows_follow_x_order(capsys):
    code, out, _ = run_cli(
        capsys, "field-grid", "e-line",
        "--x-min", "1", "--x-max", "2", "--x-count", "2",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")


def test_grid_z_varies_fastest(capsys):
    code, out, _ = run_cli(
        capsys, "field-grid", "b-loop",
        "--x-min", "0", "--x-max", "1", "--x-count", "2",
        "--z-min", "1", "--z-max", "2", "--z-count", "2",
    )
    assert code == EXIT_OK
    coords = [tuple(line.split(",")[:3]) for line in out.splitlines()[1:]]
    assert coords == [
        ("0", "0", "1"), ("0", "0", "2"), ("1", "0", "1"), ("1", "0", "2"),
    ]


def test_grid_reproduces_on_axis_profile(capsys):
    mu0 = 4.0 * math.pi * 1e-7
    code, out, _ = run_cli(
        capsys, "field-grid", "b-loop",
        "--z-min", "0", "--z-max", "2", "--z-count", "5",
    )
    assert code == EXIT_OK
    for line in out.splitlines()[1:]:
        parts = [float(p) for p in line.split(",")]
        z, bz = parts[2], parts[5]
        analytic = mu0 / (2.0 * (1.0 + z * z) ** 1.5)
        assert bz == pytest.approx(analytic, rel=1e-3)


def test_grid_on_source_names_offending_point(capsys):
    code, _, err = run_cli(
        capsys, "field-grid", "e-line", "--intervals", "999",
        "--z-min", "0", "--z-max", "-0.2", "--z-count", "2",
    )
    assert code == EXIT_DOMAIN
    assert "field point on source" in err
    assert "0,0,0" in err


def test_grid_writes_deterministic_file(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = run_cli(
            capsys, "field-grid", "b-loop",
            "--z-min", "0", "--z-max", "1", "--z-count", "11", "--out", str(path),
        )[0]
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_grid_rejects_bad_count(capsys):
    code, _, _ = run_cli(capsys, "field-grid", "b-loop", "--x-count", "0")
    assert code == EXIT_USAGE


# --- scenario registry (the CLI-facing interface) ----------------------------------


def test_registry_lists_all_scenarios():
    from mechfield.scenarios import SCENARIOS

    assert set(SCENARIOS) == {"sho", "ddho", "satellite", "pendulum", "three-body", "spring-chain"}


def test_registry_entries_expose_run_schema():
    from mechfield.scenarios import SCENARIOS

    for name, scenario in SCENARIOS.items():
        run = scenario.build(dict(scenario.defaults))
        assert len(run.initial) % 2 == 1  # flat (t, q..., v...) layout
        assert all(isinstance(value, float) for value in run.initial)
        assert scenario.dt > 0
        assert scenario.steps >= 1
        assert run.header.startswith("t")
        first_row = run.row(run.initial)
        assert len(first_row) == len(run.header.split(","))
        assert first_row[0] == 0.0  # default initial states start at t = 0


def test_registry_ddho_defaults_match_documented_configuration():
    from mechfield.scenarios import SCENARIOS

    ddho = SCENARIOS["ddho"]
    assert dict(ddho.defaults) == {"beta": 0.0, "amp": 1.0, "omega": 0.7}
    assert ddho.dt == 0.01


# --- module entry point -----------------------------------------------------------


def test_python_dash_m_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mechfield", "simulate", "sho", "--steps", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "t,x,y,z,vx,vy,vz"
