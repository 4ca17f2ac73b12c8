"""CLI contract tests: CSV schemas, determinism, exit codes, all-or-nothing output."""

import argparse
import errno
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from itertools import islice
from pathlib import Path

import pytest

from mechfield import cli
from mechfield.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from mechfield.fields import circular_loop, magnetic_field_of_line_current
from mechfield.scenarios import SCENARIOS
from mechfield.solver import solution_stream
from mechfield.vectors import Position, format_row


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


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_simulate_sho_is_ddho_at_rest_byte_for_byte(capsys, method):
    assert SCENARIOS["sho"][:3] == (0.01, 1000, {})  # dt, steps and no parameters of its own
    sho = run_cli(capsys, "simulate", "sho", "--steps", "300", "--method", method)
    ddho = run_cli(capsys, "simulate", "ddho", "--beta", "0", "--amp", "0", "--omega", "0", "--steps", "300",
                   "--method", method)
    assert sho[0] == EXIT_OK and sho == ddho


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


@pytest.mark.parametrize("argv, message", [
    # an RK4 stage angle, or the drive phase omega * t, overflows to inf inside step 1
    (("pendulum", "--method", "rk4", "--omega0", "1e308", "--dt", "10", "--steps", "5"), "pendulum angle"),
    (("ddho", "--method", "rk4", "--omega", "1e308", "--dt", "10", "--steps", "3"), "drive phase"),
], ids=["pendulum", "ddho"])
def test_overflow_inside_a_step_is_domain_error_naming_the_step(capsys, argv, message):
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: {message} is not finite at step 1\n"


def test_satellite_too_far_to_cube_is_domain_error_naming_the_step(capsys):
    # dt = 1e100 s flings the satellite about 8e200 m out at step 1; step 2's |r|^3 overflows
    code, out, err = run_cli(capsys, "simulate", "satellite", "--dt", "1e100", "--steps", "2")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "error: satellite too far from the origin at step 2\n"


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

    monkeypatch.setitem(SCENARIOS, name, scenario._replace(build=build))
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


@pytest.mark.parametrize("argv", [("simulate", "sho", "--steps", "2"), ("field-grid", "b-loop", "--intervals", "10")],
                         ids=lambda argv: argv[0])
def test_unwritable_out_fails_before_anything_is_built(tmp_path, capsys, monkeypatch, argv):
    builds, scenario = [], SCENARIOS["sho"]
    monkeypatch.setitem(SCENARIOS, "sho", scenario._replace(build=lambda params: builds.append(params) or scenario.build(params)))
    monkeypatch.setattr(cli, "magnetic_field_of_line_current",
                        lambda *args: builds.append(args) or magnetic_field_of_line_current(*args))
    path = tmp_path / "missing" / "x.csv"
    assert run_cli(capsys, *argv, "--out", str(path))[0] == EXIT_IO
    assert builds == []
    assert run_cli(capsys, *argv)[0] == EXIT_OK and len(builds) == 1  # the same run to stdout builds once


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


def test_symlink_at_out_is_replaced_by_a_file_with_its_targets_permissions(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "traj.csv"
    target.write_bytes(b"earlier bytes\n")
    target.chmod(0o640)
    link.symlink_to(target)
    assert run_cli(capsys, "simulate", "sho", "--steps", "2", "--out", str(link))[0] == EXIT_OK
    assert not link.is_symlink() and stat.S_IMODE(link.stat().st_mode) == 0o640
    assert link.read_text().splitlines()[0] == "t,x,y,z,vx,vy,vz"
    assert target.read_bytes() == b"earlier bytes\n"


def test_hard_link_to_out_keeps_the_old_bytes(tmp_path, capsys):
    path, other = tmp_path / "traj.csv", tmp_path / "other.csv"
    path.write_bytes(b"earlier bytes\n")
    os.link(path, other)
    assert run_cli(capsys, "simulate", "sho", "--steps", "2", "--out", str(path))[0] == EXIT_OK
    assert path.read_text().splitlines()[0] == "t,x,y,z,vx,vy,vz"
    assert other.read_bytes() == b"earlier bytes\n"


def test_dangling_symlink_at_out_is_replaced_and_its_target_not_made(tmp_path, capsys):
    target, link = tmp_path / "missing.csv", tmp_path / "traj.csv"
    link.symlink_to(target)
    assert run_cli(capsys, "simulate", "sho", "--steps", "2", "--out", str(link))[0] == EXIT_OK
    assert not link.is_symlink() and link.read_text().splitlines()[0] == "t,x,y,z,vx,vy,vz"
    assert not os.path.lexists(target)


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


def test_existing_out_the_user_may_not_write_is_io_error(tmp_path, capsys, monkeypatch):
    # the superuser may write any file, so os.access refuses this one path as it would for another user
    path = tmp_path / "traj.csv"
    path.write_bytes(b"earlier bytes\n")
    path.chmod(0o444)
    access = os.access
    monkeypatch.setattr(os, "access", lambda name, mode, **kw: name != str(path) and access(name, mode, **kw))
    code, out, err = run_cli(capsys, "simulate", "sho", "--steps", "2", "--out", str(path))
    assert (code, out) == (EXIT_IO, "")
    assert err == f"error: [Errno 13] Permission denied: '{path}'\n"
    assert path.read_bytes() == b"earlier bytes\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o444
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


# --- spooled output: stdout, devices and pipes ------------------------------------

# simulate spring-chain: 2 steps make 23 kB of CSV, 150 steps 1.3 MB, past the spool's memory
SPOOL_SIZES = {"under": "2", "over": "150"}


@pytest.mark.parametrize("size", sorted(SPOOL_SIZES))
def test_stdout_and_a_named_pipe_get_the_bytes_of_out(tmp_path, capsys, size):
    argv = ["simulate", "spring-chain", "--steps", SPOOL_SIZES[size]]
    path, pipe = tmp_path / "x.csv", tmp_path / "pipe"
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    expected = path.read_bytes()
    assert (len(expected) > cli.SPOOL_MEMORY) == (size == "over")
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.encode()) == (EXIT_OK, expected)
    os.mkfifo(pipe)
    assert read_fifo_while(pipe, lambda: main([*argv, "--out", str(pipe)])) == (EXIT_OK, expected)


def test_run_failing_past_the_spool_memory_prints_nothing(capsys, monkeypatch):
    spools, make_temporary_file = [], tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        spools.append(make_temporary_file(*args, **kwargs))
        return spools[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    # Euler at dt 10 overflows the chain at step 133, after 1.2 MB of rows
    code, out, err = run_cli(capsys, "simulate", "spring-chain", "--method", "euler", "--dt", "10", "--steps", "1000")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "not finite at step 133" in err
    assert len(spools) == 1 and spools[0].closed


# --- text blocks: rows formatted and written a block at a time --------------------


def rows_of(name: str, count: int) -> tuple[str, list]:
    """The header and first ``count`` rows of a default simulation, or of ``GRID_ARGV``'s grid, from the library."""
    if name == "field-grid":
        field = magnetic_field_of_line_current(1.0, circular_loop(1.0), 20)
        return "x,y,z,Fx,Fy,Fz", [(x, 0.0, 2.0, *field(Position(x, 0.0, 2.0))) for x in map(float, range(count))]
    scenario = SCENARIOS[name]
    run = scenario.build(scenario.defaults)
    states = solution_stream(cli.METHODS["euler-cromer"], scenario.dt, run.equation, run.initial)
    return run.header, [run.row(state) for state in islice(states, count)]


def argv_of(name: str, count: int) -> list[str]:
    """The CLI run whose output has ``count`` rows, those of :func:`rows_of`."""
    if name == "field-grid":  # x = 0, 1, ..., count - 1 exactly, each 2 m above the loop's plane
        return ["field-grid", "b-loop", "--intervals", "20", "--x-max", str(count - 1), "--x-count", str(count),
                "--z-min", "2", "--z-max", "2"]
    return ["simulate", name, "--steps", str(count - 1)]


ROW_WIDTHS = {"sho": 7, "spring-chain": 601, "field-grid": 6}  # numbers per row; a spring chain of 100 particles


@pytest.mark.parametrize("block_values", [cli.BLOCK_VALUES, 1803], ids=["default-blocks", "three-chain-rows"])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["one-below", "equal", "one-above"])
@pytest.mark.parametrize("name", sorted(ROW_WIDTHS))
def test_rows_around_a_block_boundary_give_the_row_at_a_time_text(tmp_path, capsys, monkeypatch, name, offset,
                                                                   block_values):
    monkeypatch.setattr(cli, "BLOCK_VALUES", block_values)
    count = 2 * max(block_values // ROW_WIDTHS[name], 1) + offset  # the second block ends short, full, or one over
    header, rows = rows_of(name, count)
    expected = header + "\n" + "".join(format_row(row) + "\n" for row in rows)
    assert len(rows) == count and {len(row) for row in rows} == {ROW_WIDTHS[name]}
    path = tmp_path / "out.csv"
    assert run_cli(capsys, *argv_of(name, count), "--out", str(path)) == (EXIT_OK, "", "")
    assert path.read_bytes() == expected.encode()
    assert run_cli(capsys, *argv_of(name, count)) == (EXIT_OK, expected, "")


@pytest.mark.parametrize("name", ["sho", "spring-chain"])
def test_zero_steps_give_the_row_at_a_time_text(capsys, name):
    header, rows = rows_of(name, 1)
    assert run_cli(capsys, "simulate", name, "--steps", "0") == (EXIT_OK, f"{header}\n{format_row(rows[0])}\n", "")


@pytest.mark.parametrize("block_values", [cli.BLOCK_VALUES, 70], ids=["default-blocks", "ten-rows"])
def test_refusal_after_whole_blocks_leaves_existing_out_as_it_was(tmp_path, capsys, monkeypatch, block_values):
    formatted, format_rows = [], cli._format_rows
    monkeypatch.setattr(cli, "BLOCK_VALUES", block_values)
    monkeypatch.setattr(cli, "_format_rows", lambda rows: formatted.append(len(rows)) or format_rows(rows))
    path = tmp_path / "traj.csv"
    path.write_bytes(b"earlier bytes\n")
    path.chmod(0o640)
    # explicit Euler at dt = 10 s overflows at step 308, after 308 rows of 7 numbers
    code, out, err = run_cli(capsys, "simulate", "sho", "--method", "euler", "--dt", "10", "--steps", "400",
                             "--out", str(path))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error: state is not finite at step 308, t = 3080")
    per_block = block_values // 7
    assert formatted == [per_block] * (308 // per_block)  # every whole block before the refusal, and no short one
    assert path.read_bytes() == b"earlier bytes\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


# --- closed standard streams ------------------------------------------------------

CLOSED_STDOUT_ERROR = f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '<stdout>'\n"


@pytest.mark.parametrize("argv", [("simulate", "sho", "--steps", "2"), ("field", "b-loop", "--at", "0,0,1"),
                                  ("field-grid", "b-loop")], ids=lambda argv: argv[0])
def test_closed_stdout_is_io_error_before_any_computation(capsys, monkeypatch, argv):
    builds = []
    monkeypatch.setattr(cli, "magnetic_field_of_line_current", lambda *args: builds.append(args))
    calls = counting_scenario(monkeypatch, "sho")
    monkeypatch.setattr(sys, "stdout", None)  # as when the process starts with file descriptor 1 closed
    assert main(list(argv)) == EXIT_IO
    assert (builds, calls) == ([], [])
    assert capsys.readouterr().err == CLOSED_STDOUT_ERROR


def test_closed_stdout_does_not_stop_a_run_to_out(tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.csv"
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["simulate", "sho", "--steps", "2", "--out", str(path)]) == EXIT_OK
    monkeypatch.undo()
    assert run_cli(capsys, "simulate", "sho", "--steps", "2") == (EXIT_OK, path.read_text(), "")


@pytest.mark.parametrize("argv", [("simulate", "sho", "--dt", "-1"), ("field-grid", "b-loop", "--radius", "-1")],
                         ids=lambda argv: argv[0])
def test_output_error_comes_before_the_commands_own_checks(tmp_path, capsys, monkeypatch, argv):
    assert run_cli(capsys, *argv)[0] == EXIT_USAGE  # written to an open stdout, the command's own check speaks
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (EXIT_IO, "") and str(path) in err
    monkeypatch.setattr(sys, "stdout", None)
    assert main(list(argv)) == EXIT_IO
    assert capsys.readouterr().err == CLOSED_STDOUT_ERROR


@pytest.mark.parametrize("argv", [("field", "e-line", "--at", "0,0,0"), ("simulate", "sho", "--dt", "2.5", "--steps", "2000")],
                         ids=lambda argv: argv[0])
def test_closed_stderr_keeps_the_error_text_off_stdout(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stderr", None)  # as when the process starts with file descriptor 2 closed
    assert main(list(argv)) == EXIT_DOMAIN
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, closed, expected", [
    (("simulate", "sho", "--steps", "2"), 1, (EXIT_IO, b"", CLOSED_STDOUT_ERROR.encode())),
    (("simulate", "sho", "--dt", "2.5", "--steps", "2000"), 2, (EXIT_DOMAIN, b"", b"")),
], ids=["stdout", "stderr"])
def test_closed_stream_of_a_real_process(child, argv, closed, expected):
    # the shell closes the descriptor before the interpreter starts, which then sets that stream to None
    command = ["sh", "-c", f'exec "$@" {closed}>&-', "sh", sys.executable, "-m", "mechfield", *argv]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child.env, timeout=child.timeout)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


# Prints the run's peak resident set size (KiB on Linux) on stderr after its exit code is known.
PEAK_CHILD = ("import resource, sys; from mechfield.cli import main; code = main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); sys.exit(code)")


def test_stdout_peak_memory_is_near_that_of_out(child, tmp_path):
    # 5.3 MB of CSV: held whole, it took 11-15 MiB more than --out; spooled, 2-3.5 MiB
    argv = [sys.executable, "-c", PEAK_CHILD, "simulate", "spring-chain", "--steps", "600"]
    path = tmp_path / "x.csv"
    procs = [subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child.env)
             for command in (argv, [*argv, "--out", str(path)])]
    (out, to_stdout), (_, to_out) = (proc.communicate(timeout=child.timeout) for proc in procs)
    assert [proc.returncode for proc in procs] == [EXIT_OK, EXIT_OK]
    assert out == path.read_bytes()
    assert int(to_stdout) - int(to_out) < 5 * 1024


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


@pytest.mark.parametrize("steps", [sys.maxsize, 10**20])
def test_simulate_rejects_steps_islice_cannot_count(tmp_path, capsys, steps):
    out_path = tmp_path / "ddho.csv"
    code, out, err = run_cli(capsys, "simulate", "ddho", "--steps", str(steps), "--out", str(out_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --steps must be at most {sys.maxsize - 1}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["dt", "steps", "params", "build"])
def test_scenario_field_cannot_be_assigned(name):
    scenario = SCENARIOS["ddho"]
    with pytest.raises(AttributeError):
        setattr(scenario, name, None)
    assert scenario.dt == 0.01 and scenario.defaults == {"beta": 0.0, "amp": 1.0, "omega": 0.7}


BEYOND_FLOAT = "1" + "0" * 320  # an int that float() refuses with OverflowError


@pytest.mark.parametrize("argv", [
    ("simulate", "spring-chain", "--particles", BEYOND_FLOAT, "--steps", "0"),
    ("field", "b-loop", "--intervals", BEYOND_FLOAT, "--at", "0,0,0"),
    ("field-grid", "b-loop", "--x-count", BEYOND_FLOAT),
], ids=["particles", "intervals", "x-count"])
def test_int_flag_beyond_the_float_range_is_usage_error(tmp_path, capsys, argv):
    # refused before anything is allocated: the chain's anchor, the piece width or the grid step is the first float
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] != "field" else []
    code, stdout, err = run_cli(capsys, *argv, *out)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_bad_parameter_values(capsys):
    code, _, err = run_cli(capsys, "simulate", "spring-chain", "--particles", "0")
    assert code == EXIT_USAGE
    assert err != ""
    code, _, err = run_cli(capsys, "simulate", "pendulum", "--g", "-9.8")
    assert code == EXIT_USAGE
    assert err != ""


@pytest.mark.parametrize(("particles", "steps"), [("1", "2"), ("1", "0"), ("2", "2")])
def test_spring_chain_whose_lattice_overflows_is_usage_error(tmp_path, capsys, monkeypatch, particles, steps):
    # the right anchor (particles + 1) * spacing is inf: refused when the chain is built, as an overflowing grid is
    calls = counting_scenario(monkeypatch, "spring-chain")
    out_path = tmp_path / "chain.csv"
    argv = ("simulate", "spring-chain", "--particles", particles, "--spacing", "1e308", "--steps", steps)
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: spring chain lattice is not finite\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv)[:2] == (EXIT_USAGE, "")
    assert calls == []


def test_spring_chain_too_fine_to_square_runs(capsys):
    # each spring's squared length, 1e-600 m^2, underflows to 0.0; the neighbors do not coincide
    code, out, err = run_cli(capsys, "simulate", "spring-chain", "--particles", "2", "--spacing", "1e-300",
                             "--amplitude", "0", "--steps", "2")
    assert (code, err) == (EXIT_OK, "")
    rows = out.splitlines()
    assert len(rows) == 4 and rows[1] == "0,1e-300,0,0,0,0,0,2e-300,0,0,0,0,0"


def test_spring_chain_released_at_rest_stays_at_rest(capsys):
    # 0.1 and 0.2 m differ by no float's 0.1: each spring's rest length is that difference, not the spacing
    code, out, err = run_cli(capsys, "simulate", "spring-chain", "--particles", "2", "--spacing", "0.1",
                             "--amplitude", "0", "--steps", "2")
    assert (code, err) == (EXIT_OK, "")
    header, *rows = out.splitlines()
    velocities = [i for i, name in enumerate(header.split(",")) if name.startswith("v")]
    assert len(rows) == 3 and len(velocities) == 6
    assert all(row.split(",")[i] == "0" for row in rows for i in velocities)


def test_spring_chain_too_long_to_square_at_rest_is_usage_error(tmp_path, capsys, monkeypatch):
    # the lattice is finite, its anchor at 4.2e154 m, but each spring's squared length at rest overflows
    calls = counting_scenario(monkeypatch, "spring-chain")
    argv = ("simulate", "spring-chain", "--particles", "2", "--spacing", "1.4e154", "--amplitude", "0", "--steps", "2")
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "chain.csv"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: spring chain rest length squared is not finite\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv) == (EXIT_USAGE, "", "error: spring chain rest length squared is not finite\n")
    assert calls == []


@pytest.mark.parametrize(
    ("scenario", "options", "quantity"),
    [
        ("pendulum", ("--length", "1e-310", "--steps", "0"), "pendulum rate g / length"),
        ("pendulum", ("--g", "1e308", "--length", "0.5"), "pendulum rate g / length"),
        ("spring-chain", ("--particles", "2", "--mass", "1e-310"), "spring chain inverse mass 1 / mass"),
    ],
    ids=["pendulum-length-steps-0", "pendulum-g", "spring-chain-mass"],
)
def test_parameter_ratio_that_overflows_is_usage_error(tmp_path, capsys, monkeypatch, scenario, options, quantity):
    # refused when the scenario is built, not as a state that is not finite after its first step
    calls = counting_scenario(monkeypatch, scenario)
    argv = ("simulate", scenario, *options)
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run.csv"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {quantity} is not finite\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv)[:2] == (EXIT_USAGE, "")
    assert calls == []


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


SUBCOMMANDS = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
FLOAT_FLAGS = [(command, action.option_strings[0]) for command, parser in SUBCOMMANDS.items()
               for action in parser._actions if action.type is cli._finite_float]
REQUIRED = {"simulate": ("sho",), "field": ("e-line", "--at", "1,0,0"), "field-grid": ("e-line",)}


@pytest.mark.parametrize(("command", "flag"), FLOAT_FLAGS)
@pytest.mark.parametrize("value", ["-1e308", "-2.5e-3", "-.5E+1", "-5."])
def test_a_negative_value_after_any_float_flag_parses_as_its_equals_form(command, flag, value):
    parse = cli._build_parser().parse_args
    spaced = parse([command, *REQUIRED[command], flag, value])
    assert spaced == parse([command, *REQUIRED[command], f"{flag}={value}"])
    assert getattr(spaced, flag[2:].replace("-", "_")) == float(value)


def test_every_command_has_float_flags():
    assert {command for command, _ in FLOAT_FLAGS} == {"simulate", "field", "field-grid"}
    assert ("field-grid", "--x-min") in FLOAT_FLAGS and ("simulate", "--dt") in FLOAT_FLAGS


@pytest.mark.parametrize("at", ["-1,0,0", "-.5,0,0", "-1e-3,-2,0.25"])
def test_a_negative_point_after_at_prints_what_its_equals_form_prints(capsys, at):
    spaced = run_cli(capsys, "field", "e-line", "--at", at)
    assert spaced[0] == EXIT_OK
    assert spaced == run_cli(capsys, "field", "e-line", f"--at={at}")


def test_a_flag_after_at_is_still_a_missing_point(capsys):
    code, out, err = run_cli(capsys, "field", "e-line", "--at", "-x")
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --at: expected one argument" in err


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
    # 1e308 C/m at 1 cm, ten pieces out, overflows the kernel: inf and nan, not a number to print
    code, out, err = run_cli(capsys, "field", "e-line", "--lambda", "1e308", "--at", "0.01,0,0")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "not finite" in err


def test_field_of_a_strong_current_is_computed_where_it_is_a_float(capsys):
    # mu0 I / (2 * 2**1.5) on the axis of a 1 m loop: about 2.2e301 T, though the sum before the constant is not a float
    code, out, err = run_cli(capsys, "field", "b-loop", "--current", "1e308", "--at", "0,0,1")
    assert (code, err) == (EXIT_OK, "")
    bx, by, bz = out.strip().split(",")
    assert bz == "2.22143781e+301"
    # the default 1000-chord rule is 1.65e-6 short on this axis, and the field is linear in its current
    assert float(bz) == pytest.approx(4e-7 * math.pi * 1e308 / (2.0 * 2.0**1.5), rel=2e-6, abs=0)
    unit = magnetic_field_of_line_current(1.0, circular_loop(1.0))(Position(0.0, 0.0, 1.0))
    assert bz == f"{1e308 * unit.z:.9g}"
    code, grid, _ = run_cli(capsys, "field-grid", "b-loop", "--current", "1e308", "--z-min", "1", "--z-max", "1")
    row = grid.splitlines()[1].split(",")
    assert code == EXIT_OK and row[:3] == ["0", "0", "1"]
    assert ",".join(f"{float(c):.9g}" for c in row[3:]) == out.strip()


def test_field_of_a_strong_current_that_overflows_is_domain_error(capsys):
    # 1e308 A at the center of a 1e-7 m loop: about 6.3e308 T, past the float range
    code, out, err = run_cli(capsys, "field", "b-loop", "--current", "1e308", "--radius", "1e-7", "--at", "0,0,0")
    assert (code, out, err) == (EXIT_DOMAIN, "", "error: field is not finite at 0,0,0\n")


@pytest.mark.parametrize("argv, message", [
    (("--lambda", "1e308", "--at", "0.01,0,0"), "field is not finite at 0.01,0,0"),
    (("--at", "0,0,0.5"), "field point on source at 0,0,0.5"),
], ids=["overflow", "on-source"])
def test_field_domain_error_names_the_point(capsys, argv, message):
    assert run_cli(capsys, "field", "e-line", *argv) == (EXIT_DOMAIN, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, expected", [
    ("e-line --lambda 1e-300 --at 400,0,0", (EXIT_OK, "5.62499561e-296,0,1.30271215e-315\n", "")),
    ("e-line --lambda 8 --at 0.3,0.2,0.5", (EXIT_OK, "1.56304392e+11,1.04202928e+11,1.31960236e+11\n", "")),
    ("b-loop --radius 0.7 --intervals 3 --at 0.3,0.2,2.5", (EXIT_OK, "2.27986589e-09,1.67145163e-09,1.38050276e-08\n", "")),
    ("b-loop --radius 1e-15 --at 1e-13,0,0", (EXIT_OK, "0,0,-314.194095\n", "")),
    ("b-loop --radius 1e30 --at 1e30,0,1e14", (EXIT_DOMAIN, "", "error: field point on source at 1e+30,0,100000000000000\n")),
    ("e-line --lambda 1e-300 --at 1e90,0,0", (EXIT_DOMAIN, "", "error: field point too far from the source at 1e+90,0,0\n")),
], ids=["weak-e-line", "strong-e-line", "loop-in-3-pieces", "tiny-loop", "huge-loop-on-source", "weak-e-line-too-far"])
def test_field_prints_what_the_readme_and_ci_document(capsys, argv, expected):
    # the console-script steps of CI check the same text through the installed entry point
    assert run_cli(capsys, "field", *argv.split()) == expected


def only_point(command: str, point: tuple[float, float, float]) -> tuple[str, ...]:
    """The flags that make ``field`` or ``field-grid`` evaluate at ``point`` alone."""
    if command == "field":
        return ("--at", format_row(point))
    return tuple(f"--{axis}-{end}={value!r}" for axis, value in zip("xyz", point) for end in ("min", "max"))


@pytest.mark.parametrize(("source", "point"), [
    (("b-loop", "--radius", "1e150"), (0.0, 0.0, 0.0)),
    (("e-line",), (1e110, 0.0, 0.0)),
    (("e-line", "--lambda", "1e-300"), (1e90, 0.0, 0.0)),
    (("b-loop", "--current", "1e-300"), (0.0, 0.0, 1000.0)),
    (("e-line", "--length", "1e-300", "--intervals", "1"), (1e100, 0.0, 0.0)),
], ids=["b-loop-radius-1e150", "e-line-at-1e110", "e-line-1e-300-at-1e90", "b-loop-1e-300-at-1000", "tiny-e-line"])
@pytest.mark.parametrize("command", ["field", "field-grid"])
def test_field_point_too_far_from_the_source_is_domain_error(capsys, command, source, point):
    # each term's cubed distance would overflow to inf and the term to 0, the answer a silent 0,0,0;
    # or, for 1e-300 C/m or A, the field (about 1e-471 V/m, 6.3e-316 T) has no normal component;
    # or, for 1 nC/m of 1e-300 m, the one term underflows to 0 although its cube is finite
    code, out, err = run_cli(capsys, command, *source, *only_point(command, point))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: field point too far from the source at {format_row(point)}\n"
    # where no term's cubed distance overflows the field is computed: mu0 I / 2R at the center of a 1e100 m loop
    assert run_cli(capsys, "field", "b-loop", "--radius", "1e100", "--at", "0,0,0") == (
        EXIT_OK, "0,0,6.28317497e-107\n", "")


@pytest.mark.parametrize(("source", "point", "expected"), [
    (("b-loop", "--radius", "1e102"), (0.0, 0.0, 0.0), "0,0,6.28317497e-109"),  # mu0 I / 2R of the 1000-chord polygon
    (("e-line", "--lambda", "1"), (3e102, 0.0, 0.0), "1e-195,0,0"),  # 1 C as a point charge
    (("e-line",), (3e102, 0.0, 0.0), "1e-204,0,1.97626258e-323"),  # 1 nC, and a subnormal residue beside it
], ids=["b-loop-radius-1e102", "e-line-at-3e102", "nC-line"])
@pytest.mark.parametrize("command", ["field", "field-grid"])
def test_field_point_whose_cubed_distances_stay_finite_is_evaluated(capsys, command, source, point, expected):
    # short of about 5.6e102 m, where a term's cubed distance overflows, a far point is computed, whatever the strength
    code, out, err = run_cli(capsys, command, *source, *only_point(command, point))
    assert (code, err) == (EXIT_OK, "")
    assert ",".join(f"{float(c):.9g}" for c in out.splitlines()[-1].split(",")[-3:]) == expected  # as `field` prints


def field_x(capsys, *argv: str) -> float:
    """The x component ``field`` prints for ``argv``."""
    code, out, err = run_cli(capsys, "field", *argv)
    assert (code, err) == (EXIT_OK, "")
    return float(out.split(",")[0])


def test_field_of_a_weak_source_is_evaluated_wherever_it_is_a_normal_float(capsys):
    # 1e-300 C/m seen from 400 m: each term is below the normal range, the field, 5.6e-296 V/m, is not;
    # the closed form on the bisector of a 1 m segment, k lambda L / (d sqrt(d^2 + L^2 / 4))
    expected = 9e9 * 1e-300 / (400.0 * math.sqrt(400.0**2 + 0.25))
    assert field_x(capsys, "e-line", "--lambda", "1e-300", "--at", "400,0,0") == pytest.approx(expected, rel=1e-9, abs=0)
    # a subnormal 1e-310 C/m seen from 1 m: the 1 C/m field's nine digits, times 1e-310
    unit = field_x(capsys, "e-line", "--lambda", "1", "--at", "1,0,0")
    assert field_x(capsys, "e-line", "--lambda", "1e-310", "--at", "1,0,0") == pytest.approx(1e-310 * unit, rel=1e-9, abs=0)


@pytest.mark.parametrize("source", [("e-line", "--lambda", "0"), ("b-loop", "--current", "0"), ("e-line", "--lambda=-0")],
                         ids=["e-line", "b-loop", "e-line-minus-0"])
def test_field_of_a_source_of_no_strength_is_zero(capsys, source):
    assert run_cli(capsys, "field", *source, "--at", "1,0,1") == (EXIT_OK, "0,0,0\n", "")
    # every displacement negative: E's sums start from -0.0, which terms of -0.0 would keep
    assert run_cli(capsys, "field", *source, "--at=-1,-0.5,-1") == (EXIT_OK, "0,0,0\n", "")
    code, out, err = run_cli(capsys, "field-grid", *source, "--x-min", "-1", "--x-max", "-1", "--z-min", "-2", "--z-max", "-2")
    assert (code, out, err) == (EXIT_OK, "x,y,z,Fx,Fy,Fz\n-1,0,-2,0,0,0\n", "")


def test_field_near_a_chord_too_short_to_square_is_domain_error(capsys):
    # the one chord is 1e-300 m long, so the reach is its floor, 2**-340 m (about 4.48e-103 m):
    # nearer, a cubed distance would be subnormal; just beyond it, 1e-9 C/m of 1e-300 m is a point charge
    code, out, err = run_cli(capsys, "field", "e-line", "--length", "1e-300", "--intervals", "1",
                             "--at", "0,0,4.4e-103")
    assert (code, out, err) == (EXIT_DOMAIN, "", "error: field point on source at 0,0,4.4e-103\n")
    code, out, err = run_cli(capsys, "field", "e-line", "--length", "1e-300", "--intervals", "1",
                             "--at", "0,0,4.6e-103")
    assert (code, err) == (EXIT_OK, "")
    assert float(out.split(",")[2]) == pytest.approx(9e-300 / 4.6e-103**2, rel=1e-8, abs=0)  # printed to 9 digits


@pytest.mark.parametrize("command", ["field", "field-grid"])
def test_field_of_a_segment_too_short_to_square_is_computed(capsys, command):
    # the chord's squared length, 1e-340 m^2, underflows to 0.0; its length must not
    code, out, err = run_cli(capsys, command, "e-line", "--length", "1e-170", "--intervals", "1",
                             *only_point(command, (0.0, 0.0, 1e-11)))
    assert (code, err) == (EXIT_OK, "")
    assert [float(c) for c in out.splitlines()[-1].split(",")[-3:]] == [0.0, 0.0, pytest.approx(9e-148, rel=1e-12, abs=0)]


@pytest.mark.parametrize(("source", "point"), [
    (("b-loop", "--radius", "1e-15"), (1e-13, 0.0, 0.0)),
    (("b-loop", "--radius", "1e30"), (1e30, 0.0, 1e14)),
    (("b-loop",), (1.0000049, 0.0, 0.0)),
    (("e-line",), (0.0, 0.0, 0.5005)),
    (("e-line", "--length", "1e-200"), (1e-150, 0.0, 0.0)),
], ids=["tiny-loop-100-radii-out", "huge-loop-1e14-off", "loop-5e-6-off", "line-5e-4-past-its-end", "tiny-line"])
@pytest.mark.parametrize("command", ["field", "field-grid"])
def test_near_rule_is_the_same_at_every_scale(capsys, command, source, point):
    # a point is on the source within about a piece and a half of it, whatever the source's size
    code, out, err = run_cli(capsys, command, *source, *only_point(command, point))
    if source[1:] == ("--radius", "1e-15"):  # 100 radii out: the dipole field, -mu0 I R^2 / 4 r^3 = -314.159 T
        assert (code, err) == (EXIT_OK, "")
        assert float(out.splitlines()[-1].split(",")[-1]) == pytest.approx(-1e-7 * math.pi * 1e-30 / 1e-39, rel=1e-3)
    else:
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == f"error: field point on source at {format_row(point)}\n"


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


@pytest.mark.parametrize("at", ["1,2", "1,2,3,4", "1,two,3", "1,nan,3", "inf,0,0"])
def test_field_bad_at_is_usage_error(capsys, at):
    code, out, err = run_cli(capsys, "field", "b-loop", "--at", at)
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --at: " in err


def test_field_unknown_kind_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "field", "tokamak", "--at", "0,0,0")
    assert code == EXIT_USAGE


SOURCE_FLAGS = [(kind, name) for kind, source in cli.FIELD_SOURCES.items() for name in source.params]
FIELD_AT = {"field": ("--at", "0.5,0,0.25"), "field-grid": ("--x-min", "0.5", "--z-min", "0.25")}  # off both sources


@pytest.mark.parametrize("command", ["field", "field-grid"])
@pytest.mark.parametrize(("kind", "foreign"), [
    (kind, f"--{name}") for kind in cli.FIELD_SOURCES for owner, name in SOURCE_FLAGS if owner != kind
])
def test_flag_of_the_other_source_kind_is_usage_error(capsys, command, kind, foreign):
    code, out, err = run_cli(capsys, command, kind, foreign, "3", *FIELD_AT[command])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: source '{kind}' does not take {foreign}\n"


@pytest.mark.parametrize("command", ["field", "field-grid"])
@pytest.mark.parametrize(("owner", "param"), SOURCE_FLAGS)
def test_every_declared_source_parameter_is_a_finite_float_flag(capsys, command, owner, param):
    default = cli.FIELD_SOURCES[owner].params[param].default
    at = FIELD_AT[command]
    code, out, _ = run_cli(capsys, command, owner, f"--{param}", str(default), *at)
    assert code == EXIT_OK
    assert out == run_cli(capsys, command, owner, *at)[1]
    code, out, err = run_cli(capsys, command, owner, f"--{param}", "inf", *at)
    assert (code, out) == (EXIT_USAGE, "") and "must be a finite number" in err
    for other in cli.FIELD_SOURCES:
        if other != owner:
            code, out, err = run_cli(capsys, command, other, f"--{param}", str(default), *at)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"error: source '{other}' does not take --{param}\n"


def test_field_source_defaults_are_not_changed_by_a_call_that_sets_them(capsys):
    default = run_cli(capsys, "field", "e-line", "--at", "1,0,0")
    assert run_cli(capsys, "field", "e-line", "--lambda", "0", "--length", "3", "--at", "1,0,0")[0] == EXIT_OK
    assert run_cli(capsys, "field", "e-line", "--at", "1,0,0") == default


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
    assert row[5] == pytest.approx(direct.z, rel=1e-12, abs=0)


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
    # overflowing at x = 0.01, finite at x = 1: the grid stops at its first point
    code, out, err = run_cli(
        capsys, "field-grid", "e-line", "--lambda", "1e298",
        "--x-min", "0.01", "--x-max", "1", "--x-count", "2",
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "not finite at 0.01,0,0" in err


@pytest.mark.parametrize("span", [("--x-min=1", "--x-max=1.5e308"), ("--x-min=-1e308", "--x-max=1e308")])
def test_grid_whose_points_overflow_is_usage_error(tmp_path, capsys, span):
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "field-grid", "e-line", *span, "--x-count", "3", "--out", str(out_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: grid x points are not finite: --x-min and --x-max are too far apart\n"
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli(capsys, "field-grid", "e-line", *span, "--x-count", "3")
    assert (code, out) == (EXIT_USAGE, "")


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


ROWS = [
    (-0.0, 0.0, 1e16, 1e15, 1e-5, 5e-324, sys.float_info.max),
    (-sys.float_info.max, 1.0, -2.0, 10.0, 100.0, 0.5, 1e22, 123456789.0),
    (0.1, 1.05, 2.0e-5, 3.0, 1.0e-300, -1e300),
    (7.0,), (0.25,), (),
    tuple(float(i) * 0.5 - 150.0 for i in range(601)),
]


@pytest.mark.parametrize("row", ROWS)
def test_csv_row_writes_each_value_as_format_row_of_one_value(row):
    assert format_row(row) == ",".join(format_row((value,)) for value in row)


# --- scenario registry (the CLI-facing interface) ----------------------------------


def test_registry_lists_all_scenarios():
    from mechfield.scenarios import SCENARIOS

    assert set(SCENARIOS) == {"sho", "ddho", "satellite", "pendulum", "three-body", "spring-chain"}


def test_scenario_is_named_once_by_its_key():
    from mechfield.scenarios import Scenario

    assert Scenario._fields == ("dt", "steps", "params", "build")
    # the registry's order is the order of the scenario parameter flags in `simulate --help`
    assert list(SCENARIOS) == ["sho", "ddho", "satellite", "pendulum", "three-body", "spring-chain"]


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


@pytest.mark.parametrize("command", ["simulate", "field", "field-grid"])
def test_help_states_each_declared_default(capsys, monkeypatch, command):
    owners = SCENARIOS if command == "simulate" else cli.FIELD_SOURCES
    monkeypatch.setenv("COLUMNS", "300")  # wide enough that argparse wraps no help line
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == EXIT_OK
    lines = out.splitlines()
    for owner, declaring in owners.items():
        for param in declaring.params.values():
            text = f"{owner}: {param.help} (default {format_row((float(param.default),))})"
            assert any(line.endswith(f" {text}") for line in lines), text


# --- module entry point -----------------------------------------------------------


@pytest.mark.parametrize("module", ["mechfield", "mechfield.cli"])
def test_python_dash_m_entry_point(child, module):
    # cli.py calls main under its __main__ guard: without it, `python -m mechfield.cli` would exit 0 and print nothing
    proc = subprocess.run(
        [sys.executable, "-m", module, "simulate", "sho", "--steps", "0"],
        capture_output=True, text=True, env=child.env, timeout=child.timeout,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "t,x,y,z,vx,vy,vz\n0,1,0,0,0,0,0\n", "")
