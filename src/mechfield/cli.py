"""Command-line interface: a thin pipe over the library.

``simulate``    run a named mechanics scenario and emit its trajectory as CSV
``field``       evaluate an electric or magnetic field at one point
``field-grid``  sample a field over a rectangular grid to CSV

``simulate`` makes its scenario flags from the parameters each scenario
declares and takes its states from :func:`solution_stream`, which steps
the scenario's differential equation with any one of ``METHODS``. Both
CSV commands format rows with one function and hand their lines to one
all-or-nothing writer, and identical invocations give byte-identical
output. Commands raise, and :func:`main` maps the error to the exit code:
2 for usage errors (``ValueError``), 3 for domain errors
(``DomainError``: a point on a field's source, a state or field value
that is not finite), 4 when ``--out`` cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import shutil
import sys
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import DomainError
from .fields import (
    VectorField,
    circular_loop,
    electric_field_of_line_charge,
    line_segment,
    magnetic_field_of_line_current,
)
from .scenarios import SCENARIOS, Scenario, ScenarioRun
from .solver import (
    InitialValueProblem,
    State,
    euler_cromer_method,
    euler_method,
    rk4_method,
    solution_stream,
)
from .vectors import Position, format_scalar, parse_triple

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

METHODS = {"euler": euler_method, "euler-cromer": euler_cromer_method, "rk4": rk4_method}

# Exit code per error a command raises, first match wins (DomainError is a ValueError).
EXIT_CODES = ((DomainError, EXIT_DOMAIN), (ValueError, EXIT_USAGE), (OSError, EXIT_IO))


def _finite_float(text: str) -> float:
    """argparse type for every float flag: text, nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


@functools.cache  # built once per process; every parse makes its own Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechfield",
        description="Run mechanics scenarios and evaluate electric/magnetic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a scenario and emit its trajectory as CSV")
    simulate.add_argument("scenario", choices=sorted(SCENARIOS), help="scenario name")
    simulate.add_argument("--dt", type=_finite_float, default=None, help="timestep in seconds")
    simulate.add_argument("--steps", type=int, default=None, help="number of steps; output has steps+1 rows")
    simulate.add_argument("--method", choices=METHODS, default="euler-cromer", help="evolution method")
    simulate.add_argument("--out", default=None, help="output file (default: stdout)")
    scenario_params = simulate.add_argument_group("scenario parameters")
    for scenario in SCENARIOS.values():
        for name, param in scenario.params.items():
            kind = int if isinstance(param.default, int) else _finite_float
            scenario_params.add_argument(f"--{name}", type=kind, default=None, help=f"{scenario.name}: {param.help}")
    simulate.set_defaults(handler=_cmd_simulate)

    def add_field_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("kind", choices=("e-line", "b-loop"), help="field source kind")
        p.add_argument("--lambda", dest="lambda_", metavar="LAMBDA", type=_finite_float, default=1e-9,
                       help="e-line: linear charge density, C/m (default 1e-9)")
        p.add_argument("--length", type=_finite_float, default=1.0,
                       help="e-line: segment length, m (default 1)")
        p.add_argument("--current", type=_finite_float, default=1.0,
                       help="b-loop: current, A (default 1)")
        p.add_argument("--radius", type=_finite_float, default=1.0,
                       help="b-loop: loop radius, m (default 1)")
        p.add_argument("--intervals", type=int, default=1000,
                       help="quadrature intervals (default 1000)")

    field = sub.add_parser("field", help="evaluate a field at one point")
    add_field_arguments(field)
    field.add_argument("--at", required=True, metavar="X,Y,Z", help="field point, meters")
    field.set_defaults(handler=_cmd_field)

    grid = sub.add_parser("field-grid", help="sample a field over a rectangular grid to CSV")
    add_field_arguments(grid)
    for axis in "xyz":
        grid.add_argument(f"--{axis}-min", type=_finite_float, default=0.0, help=f"grid {axis} start, m")
        grid.add_argument(f"--{axis}-max", type=_finite_float, default=0.0, help=f"grid {axis} end, m")
        grid.add_argument(f"--{axis}-count", type=int, default=1, help=f"grid points along {axis}")
    grid.add_argument("--out", default=None, help="output file (default: stdout)")
    grid.set_defaults(handler=_cmd_field_grid)

    return parser


def _write_lines(out: str | None, lines: Iterable[str]) -> None:
    """Write CSV lines all or nothing: to the file ``out``, or to stdout when it is None.

    A regular file, new or existing, is written through a sibling opened
    before the first line is made and renamed onto it, with its old
    permissions, after the last. Anything else, such as a device or a pipe,
    is opened first and, like stdout, gets the whole text at the end.
    """
    if out is None:
        sys.stdout.write("\n".join(lines) + "\n")
        return
    if not out:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    existing = os.path.isfile(out)
    if not existing and os.path.exists(out):  # opening a directory fails here
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        return
    if existing and not os.access(out, os.W_OK):  # a rename asks only the directory
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)
    partial = f"{out}.{os.getpid()}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            if existing:
                shutil.copymode(out, partial)
            for line in lines:
                handle.write(line + "\n")
        os.replace(partial, out)
    except OSError as exc:  # name the user's path, not the sibling
        raise OSError(exc.errno, exc.strerror, out) from None
    finally:  # after any failure; after a rename there is nothing left to remove
        with contextlib.suppress(OSError):
            os.remove(partial)


def _resolve_params(scenario: Scenario, args: argparse.Namespace) -> dict[str, float]:
    """The scenario's defaults, overlaid with the scenario flags that were given."""
    params = scenario.defaults
    for declaring in SCENARIOS.values():
        for name in declaring.params:
            value = getattr(args, name)
            if value is None:
                continue
            if name not in params:
                raise ValueError(f"scenario '{scenario.name}' does not take --{name}")
            params[name] = value
    return params


def _csv_row(values: Iterable[float]) -> str:
    """The values joined by commas, each written as :func:`format_scalar` writes it.

    Floats only: the repr of an int or a numpy scalar differs. One pass
    over the joined text drops every integral value's ``.0``.
    """
    return (",".join(map(repr, values)) + ",").replace(".0,", ",")[:-1]


def _trajectory_lines(run: ScenarioRun, states: Iterable[State]) -> Iterator[str]:
    """The CSV header, then one row per state; raises DomainError at the first non-finite state."""
    yield run.header
    for number, state in enumerate(states):
        line = _csv_row(run.row(state))
        # The repr of a finite float never contains an "n", and "inf" and
        # "nan" do: one substring test per row stops a run that blew up.
        if "n" in line:
            raise DomainError(f"state is not finite at step {number}, t = {format_scalar(state[0])}")
        yield line


def _cmd_simulate(args: argparse.Namespace) -> None:
    scenario = SCENARIOS[args.scenario]
    dt = scenario.dt if args.dt is None else args.dt
    steps = scenario.steps if args.steps is None else args.steps
    if dt <= 0:
        raise ValueError("--dt must be positive")
    if steps < 0:
        raise ValueError("--steps must be >= 0")
    run = scenario.build(_resolve_params(scenario, args))
    states = solution_stream(METHODS[args.method], dt, InitialValueProblem(run.equation, run.initial))
    _write_lines(args.out, _trajectory_lines(run, islice(states, steps + 1)))


def _make_field(args: argparse.Namespace) -> VectorField:
    if args.kind == "e-line":
        density = args.lambda_
        return electric_field_of_line_charge(
            lambda _point: density, line_segment(args.length), args.intervals
        )
    return magnetic_field_of_line_current(
        args.current, circular_loop(args.radius), args.intervals
    )


def _cmd_field(args: argparse.Namespace) -> None:
    try:
        point = Position(*parse_triple(args.at))
    except ValueError as exc:
        raise ValueError(f"bad --at value: {exc}") from None
    line = ",".join(f"{component:.9g}" for component in _make_field(args)(point))
    if "n" in line:  # as in _trajectory_lines: only inf and nan contain an "n"
        raise DomainError("field is not finite")
    print(line)


def _axis_values(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _grid_lines(field: VectorField, args: argparse.Namespace) -> Iterator[str]:
    """The CSV header, then one row per grid point, z varying fastest."""
    yield "x,y,z,Fx,Fy,Fz"
    for x in _axis_values(args.x_min, args.x_max, args.x_count):
        for y in _axis_values(args.y_min, args.y_max, args.y_count):
            for z in _axis_values(args.z_min, args.z_max, args.z_count):
                try:
                    line = _csv_row((x, y, z, *field(Position(x, y, z))))
                    if "n" in line:  # as in _trajectory_lines
                        raise DomainError("field is not finite")
                except DomainError as exc:
                    raise DomainError(f"{exc} at {_csv_row((x, y, z))}") from exc
                yield line


def _cmd_field_grid(args: argparse.Namespace) -> None:
    if min(args.x_count, args.y_count, args.z_count) < 1:
        raise ValueError("grid counts must be >= 1")
    _write_lines(args.out, _grid_lines(_make_field(args), args))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
