"""CLI contract tests: CSV schemas, determinism, exit codes, all-or-nothing output."""

import dataclasses
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from mechfield import cli
from mechfield.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from mechfield.fields import circular_loop, magnetic_field_of_line_current
from mechfield.scenarios import SCENARIOS
from mechfield.vectors import Position, format_scalar

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


# --- all-or-nothing output ----------------------------------------------------


def counting_scenario(monkeypatch, name: str) -> list:
    """Replace a scenario by one whose acceleration records each call."""
    calls = []
    scenario = SCENARIOS[name]

    def build(params):
        run = scenario.build(params)

        def accel(t, q, v):
            calls.append(t)
            return run.accel(t, q, v)

        return run._replace(accel=accel)

    monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(scenario, build=build))
    return calls


@pytest.mark.parametrize("method", sorted(cli.METHODS))
@pytest.mark.parametrize("target", ["missing/x.csv", "directory"])
def test_unwritable_out_fails_before_any_step(tmp_path, capsys, monkeypatch, method, target):
    calls = counting_scenario(monkeypatch, "ddho")
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    argv = ("simulate", "ddho", "--method", method, "--steps", "3", "--out", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_IO
    assert calls == []
    assert str(path) in err and ".partial" not in err
    assert main(list(argv[:-2])) == EXIT_OK and calls  # the same run does step
    assert list(tmp_path.rglob("*.partial")) == []


def test_empty_out_fails_before_any_step(tmp_path, capsys, monkeypatch):
    calls = counting_scenario(monkeypatch, "ddho")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "ddho", "--steps", "3", "--out", "")
    assert code == EXIT_IO
    assert calls == []
    assert out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_fails_before_any_field_evaluation(tmp_path, capsys, monkeypatch):
    points = []

    def counting_field(*args):
        field = magnetic_field_of_line_current(*args)
        return lambda point: points.append(point) or field(point)

    monkeypatch.setattr(cli, "magnetic_field_of_line_current", counting_field)
    path = tmp_path / "missing" / "x.csv"
    code, _, _ = run_cli(capsys, "field-grid", "b-loop", "--intervals", "10", "--out", str(path))
    assert code == EXIT_IO
    assert points == []


def test_failed_run_leaves_existing_out_unchanged(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    path.write_bytes(b"earlier bytes\n")
    code, out, err = run_cli(
        capsys, "simulate", "sho", "--method", "euler", "--dt", "10", "--steps", "400", "--out", str(path)
    )
    assert code == EXIT_DOMAIN
    assert "not finite at step 308, t = 3080" in err
    assert out == ""
    assert path.read_bytes() == b"earlier bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


def test_failed_grid_leaves_existing_out_unchanged(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    path.write_bytes(b"earlier bytes\n")
    code, _, err = run_cli(
        capsys, "field-grid", "e-line", "--intervals", "999",
        "--z-min", "-0.5", "--z-max", "0", "--z-count", "3", "--out", str(path),
    )
    assert code == EXIT_DOMAIN
    assert "field point on source" in err
    assert path.read_bytes() == b"earlier bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv"]


@pytest.mark.parametrize("command", ["simulate", "field-grid"])
def test_out_that_is_a_directory_is_io_error(tmp_path, capsys, command):
    target = tmp_path / "dir"
    target.mkdir()
    argv = ("simulate", "sho", "--steps", "2") if command == "simulate" else ("field-grid", "b-loop")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert target.is_dir() and list(target.iterdir()) == []
    assert list(tmp_path.rglob("*.partial")) == []


def test_successful_run_replaces_existing_out(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    path.write_bytes(b"earlier bytes\n" * 100)
    assert run_cli(capsys, "simulate", "sho", "--steps", "2", "--out", str(path))[0] == EXIT_OK
    assert path.read_text().splitlines()[0] == "t,x,y,z,vx,vy,vz"
    assert len(path.read_text().splitlines()) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


@pytest.mark.parametrize("argv", [("simulate", "sho", "--steps", "2"), ("field-grid", "b-loop", "--intervals", "10")])
def test_out_to_the_null_device_writes_through_it(capsys, argv):
    assert run_cli(capsys, *argv, "--out", os.devnull) == (EXIT_OK, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def read_fifo_while(path: Path, action) -> tuple[object, bytes]:
    """Run ``action`` while a thread reads the named pipe at ``path`` to its end."""
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
    reader.start()
    result = action()
    reader.join(timeout=10)
    assert not reader.is_alive()
    return result, received[0]


def test_out_to_a_named_pipe_writes_through_it(tmp_path, capsys):
    path = tmp_path / "pipe"
    os.mkfifo(path)
    code, data = read_fifo_while(path, lambda: main(["simulate", "sho", "--steps", "2", "--out", str(path)]))
    assert code == EXIT_OK
    assert data.decode().splitlines()[0] == "t,x,y,z,vx,vy,vz" and len(data.decode().splitlines()) == 4
    assert stat.S_ISFIFO(os.stat(path).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_failed_run_to_a_named_pipe_writes_nothing(tmp_path, capsys):
    path = tmp_path / "pipe"
    os.mkfifo(path)
    argv = ["simulate", "sho", "--method", "euler", "--dt", "10", "--steps", "400", "--out", str(path)]
    code, data = read_fifo_while(path, lambda: main(argv))
    assert code == EXIT_DOMAIN
    assert data == b""
    assert "not finite at step 308, t = 3080" in capsys.readouterr().err


def test_successful_run_keeps_the_permissions_of_existing_out(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    path.write_bytes(b"earlier bytes\n")
    path.chmod(0o600)
    assert run_cli(capsys, "simulate", "sho", "--steps", "2", "--out", str(path))[0] == EXIT_OK
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text().splitlines()[0] == "t,x,y,z,vx,vy,vz"


def test_read_only_out_is_refused_exactly_when_it_cannot_be_opened_for_writing(tmp_path, capsys, monkeypatch):
    calls = counting_scenario(monkeypatch, "sho")
    path = tmp_path / "traj.csv"
    path.write_bytes(b"earlier bytes\n")
    path.chmod(0o444)
    try:  # the system's answer for this user: the superuser may write a read-only file
        path.open("a").close()
        writable = True
    except PermissionError:
        writable = False
    code, out, err = run_cli(capsys, "simulate", "sho", "--steps", "2", "--out", str(path))
    assert stat.S_IMODE(path.stat().st_mode) == 0o444
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]
    if writable:
        assert code == EXIT_OK and path.read_text().splitlines()[0] == "t,x,y,z,vx,vy,vz"
    else:
        assert code == EXIT_IO and str(path) in err and calls == []
        assert path.read_bytes() == b"earlier bytes\n"


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
        ("simulate", "sho", "--dt", "x"),
    ],
)
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    if "x" in argv:  # text that is not a number at all
        assert "argument --dt: invalid float value: 'x'" in err
        assert "_finite_float" not in err
    else:
        assert "must be a finite number" in err


HELP_ARGV = [(command, "--help") for command in ("simulate", "field", "field-grid")]


def test_calls_in_one_process_carry_no_flags_over(capsys):
    assert run_cli(capsys, "simulate", "ddho", "--beta", "0.25", "--steps", "2")[0] == EXIT_OK
    sho = run_cli(capsys, "simulate", "sho", "--steps", "2")
    assert sho[0] == EXIT_OK  # a --beta left over from the ddho call would make this exit 2
    code, out, err = run_cli(capsys, "simulate", "sho", "--dt", "x")
    assert (code, out) == (EXIT_USAGE, "") and "invalid float value: 'x'" in err
    helps = [run_cli(capsys, *argv) for argv in HELP_ARGV]
    assert [code for code, _, _ in helps] == [EXIT_OK] * 3
    assert "--lambda LAMBDA" in helps[1][1] and "LAMBDA_" not in helps[1][1] + helps[2][1]
    assert run_cli(capsys, "simulate", "sho", "--steps", "2") == sho
    assert [run_cli(capsys, *argv) for argv in HELP_ARGV] == helps


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


def test_field_overflow_is_domain_error(capsys):
    # 1e300 C/m at 1 um overflows the kernel: inf and nan, not a number to print
    code, out, err = run_cli(capsys, "field", "e-line", "--lambda", "1e300", "--at", "1e-6,0,0")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "not finite" in err


def test_field_near_a_chord_too_short_to_square_is_domain_error(capsys):
    # the one chord is 1e-300 m long: its squared length underflows to 0.0
    code, out, err = run_cli(capsys, "field", "e-line", "--length", "1e-300", "--intervals", "1",
                             "--at", "0,0,1e-13")
    assert code == EXIT_DOMAIN
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


@pytest.mark.parametrize("radius", ["0.7", "1e6"])
@pytest.mark.parametrize("intervals", ["1", "2"])
def test_closed_loop_in_fewer_than_three_pieces_is_usage_error(capsys, radius, intervals):
    code, out, err = run_cli(capsys, "field", "b-loop", "--radius", radius, "--intervals", intervals,
                             "--at", "0.3,0.2,0.5")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: a closed curve needs at least 3 intervals, got {intervals}\n"


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


def test_grid_overflow_names_offending_point(capsys):
    # overflowing at x = 1e-6, finite at x = 1: the grid stops at its first point
    code, out, err = run_cli(
        capsys, "field-grid", "e-line", "--lambda", "1e298",
        "--x-min", "1e-6", "--x-max", "1", "--x-count", "2",
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "not finite at 1e-06,0,0" in err


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


# --- row formatting ----------------------------------------------------------------


@pytest.mark.parametrize("row", [
    (-0.0, 0.0, 1e16, 1e15, 1e-5, 5e-324, sys.float_info.max),
    (-sys.float_info.max, 1.0, -2.0, 10.0, 100.0, 0.5, 1e22, 123456789.0),
    (0.1, 1.05, 2.0e-5, 3.0, 1.0e-300, -1e300),
    (7.0,), (0.25,), (),
    tuple(float(i) * 0.5 - 150.0 for i in range(601)),
])
def test_csv_row_writes_each_value_as_format_scalar(row):
    assert cli._csv_row(row) == ",".join(map(format_scalar, row))


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


DECLARED = [(name, param) for name, scenario in SCENARIOS.items() for param in scenario.params]


def test_declared_parameter_names_are_unique_across_scenarios():
    # each name is one simulate flag; argparse refuses to build a parser with a flag added twice
    names = [param for _, param in DECLARED]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(("owner", "param"), DECLARED)
def test_every_declared_parameter_is_a_flag_of_its_declared_type(capsys, owner, param):
    default = SCENARIOS[owner].params[param].default
    code, out, _ = run_cli(capsys, "simulate", owner, f"--{param}", str(default), "--steps", "0")
    assert code == EXIT_OK
    assert out == run_cli(capsys, "simulate", owner, "--steps", "0")[1]
    if isinstance(default, int):
        code, _, err = run_cli(capsys, "simulate", owner, f"--{param}", "1.5")
        assert code == EXIT_USAGE and "invalid int value" in err
    else:
        code, _, err = run_cli(capsys, "simulate", owner, f"--{param}", "inf")
        assert code == EXIT_USAGE and "must be a finite number" in err
    for other in SCENARIOS:
        if other != owner:
            code, out, err = run_cli(capsys, "simulate", other, f"--{param}", str(default), "--steps", "0")
            assert code == EXIT_USAGE
            assert out == ""
            assert f"scenario '{other}' does not take --{param}" in err


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
