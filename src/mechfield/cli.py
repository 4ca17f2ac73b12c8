"""Command-line interface: a thin pipe over the library.

``simulate``    run a named mechanics scenario and emit its trajectory as CSV
``field``       evaluate an electric or magnetic field at one point
``field-grid``  sample a field over a rectangular grid to CSV

Scenarios and field source kinds declare each parameter once, with its
default and help. One helper makes a flag of each, its help ending in the
default, and one resolver overlays the flags given on the defaults.
``simulate`` steps the scenario's differential equation with any one of
``METHODS``. Each command returns its lines of text to one all-or-nothing
writer, which opens the output before it asks for the first line, and
identical invocations give byte-identical output. It streams to every
destination: a regular file through a sibling renamed onto it, stdout or
a device through a spool that moves from memory to a temporary file past
its first MiB. Commands raise, and :func:`main` maps the error to the exit
code: 2 for usage errors (``ValueError``, or ``OverflowError`` from an int
flag beyond the float range), 3 for domain errors (``DomainError``, which
the library raises for a point on a field's source or too far from it, or
a state or field value that is not finite, naming the step or point), 4
when ``--out`` or the spool cannot be written or the output would go to a
closed stdout, found before the command's own checks and any computation
unless it is the spool. With stderr closed, the error text is dropped and
the exit code stays.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import math
import os
import re
import stat
import sys
from itertools import chain, islice, product
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainError
from .fields import (
    _INTERVALS,
    VectorField,
    circular_loop,
    electric_field_of_line_charge,
    line_segment,
    magnetic_field_of_line_current,
)
from .scenarios import SCENARIOS, Param, Scenario
from .solver import (
    euler_cromer_method,
    euler_method,
    rk4_method,
    solution_stream,
)
from .vectors import Position, format_row

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# Characters of CSV text a run to stdout or a device holds in memory before its spool moves to a file.
SPOOL_MEMORY = 1 << 20

METHODS = {"euler": euler_method, "euler-cromer": euler_cromer_method, "rk4": rk4_method}


class _FieldSource(NamedTuple):
    """A field source kind, declared like a scenario: parameters plus a builder ``(params, intervals) -> field``."""

    params: Mapping[str, Param]
    build: Callable[[Mapping[str, float], int], VectorField]


def _e_line(params: Mapping[str, float], intervals: int) -> VectorField:
    density = params["lambda"]  # bound once: the density function runs once per quadrature piece
    return electric_field_of_line_charge(lambda _point: density, line_segment(params["length"]), intervals)


def _b_loop(params: Mapping[str, float], intervals: int) -> VectorField:
    return magnetic_field_of_line_current(params["current"], circular_loop(params["radius"]), intervals)


FIELD_SOURCES = {
    "e-line": _FieldSource({"lambda": Param(1e-9, "linear charge density, C/m"),
                            "length": Param(1.0, "segment length, m")}, _e_line),
    "b-loop": _FieldSource({"current": Param(1.0, "current, A"), "radius": Param(1.0, "loop radius, m")}, _b_loop),
}

# Exit code per error a command raises, first match wins (DomainError is a ValueError).
# An OverflowError comes only from an int flag too large to turn into a float.
EXIT_CODES = ((DomainError, EXIT_DOMAIN), (ValueError, EXIT_USAGE), (OverflowError, EXIT_USAGE), (OSError, EXIT_IO))


def _finite_float(text: str) -> float:
    """argparse type for every float flag: text, nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _point(text: str) -> Position:
    """argparse type for ``--at``: three comma-separated numbers, each a :func:`_finite_float`."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    return Position(*map(_finite_float, parts))


def _add_param_flags(parser: argparse._ActionsContainer, owners: Mapping[str, Scenario | _FieldSource]) -> None:
    """One optional flag per parameter each owner declares: int for an int default, a finite float otherwise."""
    for owner, declaring in owners.items():
        for name, param in declaring.params.items():
            kind = int if isinstance(param.default, int) else _finite_float
            parser.add_argument(f"--{name}", type=kind,
                                help=f"{owner}: {param.help} (default {format_row((float(param.default),))})")


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
    _add_param_flags(simulate.add_argument_group("scenario parameters"), SCENARIOS)
    simulate.set_defaults(handler=_cmd_simulate)

    field = sub.add_parser("field", help="evaluate a field at one point")
    grid = sub.add_parser("field-grid", help="sample a field over a rectangular grid to CSV")
    for p in (field, grid):
        p.add_argument("kind", choices=FIELD_SOURCES, help="field source kind")
        _add_param_flags(p, FIELD_SOURCES)
        p.add_argument("--intervals", type=int, default=_INTERVALS, help="quadrature intervals (default %(default)s)")
    field.add_argument("--at", type=_point, required=True, metavar="X,Y,Z", help="field point, meters")
    field.set_defaults(handler=_cmd_field, out=None)

    for axis in "xyz":
        grid.add_argument(f"--{axis}-min", type=_finite_float, default=0.0, help=f"grid {axis} start, m")
        grid.add_argument(f"--{axis}-max", type=_finite_float, default=0.0, help=f"grid {axis} end, m")
        grid.add_argument(f"--{axis}-count", type=int, default=1, help=f"grid points along {axis}")
    grid.add_argument("--out", default=None, help="output file (default: stdout)")
    grid.set_defaults(handler=_cmd_field_grid)

    for p in (parser, *sub.choices.values()):  # "-1,0,0", "-1e308" and "-.5" are values: no flag starts "-" and a digit
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _write_lines(out: str | None, make: Callable[[], Iterable[str]]) -> None:
    """Open the file ``out``, or stdout when it is None, then write the lines ``make()`` returns, all or nothing.

    ``make`` runs only once the output is open, so a refused output makes
    nothing. A regular file, new or existing, gets a sibling renamed onto
    it, with its old permissions, after the last line. Stdout, and anything
    else at ``out`` such as a device or a pipe, gets the text of a spool
    after the last line.
    """
    if out == "":
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if out is None and sys.stdout is None:  # the process started with stdout closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    existing = out is not None and os.path.isfile(out)
    if out is None or (not existing and os.path.exists(out)):  # opening a directory fails here
        with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="") as handle:
            _spool_to(handle, iter(make()))  # a list too: the spool resumes its iterator
        return
    if existing and not os.access(out, os.W_OK):  # a rename asks only the directory
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)
    partial = f"{out}.{os.getpid()}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            if existing:
                os.chmod(partial, stat.S_IMODE(os.stat(out).st_mode))
            for line in make():
                handle.write(line + "\n")
        os.replace(partial, out)
    except OSError as exc:  # name the user's path, not the sibling
        raise OSError(exc.errno, exc.strerror, out) from None
    finally:  # after any failure; after a rename there is nothing left to remove
        with contextlib.suppress(OSError):
            os.remove(partial)


def _spool_to(handle: IO[str], lines: Iterator[str]) -> None:
    """Write every line to ``handle`` only after the last is made, holding at most SPOOL_MEMORY characters in memory.

    The lines gather in a StringIO, its size checked after each one; past
    SPOOL_MEMORY they move to an unnamed temporary file, so a short run
    makes no file and imports no ``tempfile``.
    """
    spool: IO[str] = io.StringIO()
    try:
        for line in lines:
            spool.write(line + "\n")
            if spool.tell() > SPOOL_MEMORY:
                import tempfile

                memory, spool = spool, tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
                spool.write(memory.getvalue())
                memory.close()
                for line in lines:  # the rest, straight to the file
                    spool.write(line + "\n")
        spool.seek(0)
        while block := spool.read(1 << 16):
            handle.write(block)
    finally:
        spool.close()


def _resolve(label: str, owners: Mapping[str, Scenario | _FieldSource], name: str,
             args: argparse.Namespace) -> dict[str, float]:
    """The defaults ``owners[name]`` declares, overlaid with the flags given; another owner's flag is an error."""
    given = {flag: getattr(args, flag) for declaring in owners.values() for flag in declaring.params}
    for flag, value in given.items():
        if value is not None and flag not in owners[name].params:
            raise ValueError(f"{label} '{name}' does not take --{flag}")
    return {key: param.default if given[key] is None else given[key] for key, param in owners[name].params.items()}


def _cmd_simulate(args: argparse.Namespace) -> Iterable[str]:
    scenario = SCENARIOS[args.scenario]
    dt = scenario.dt if args.dt is None else args.dt
    steps = scenario.steps if args.steps is None else args.steps
    if dt <= 0:
        raise ValueError("--dt must be positive")
    if steps < 0:
        raise ValueError("--steps must be >= 0")
    if steps > sys.maxsize - 1:  # islice stops at steps + 1, which may not pass sys.maxsize
        raise ValueError(f"--steps must be at most {sys.maxsize - 1}")
    run = scenario.build(_resolve("scenario", SCENARIOS, args.scenario, args))
    states = solution_stream(METHODS[args.method], dt, run.equation, run.initial)
    return chain((run.header,), map(format_row, map(run.row, islice(states, steps + 1))))


def _make_field(args: argparse.Namespace) -> VectorField:
    return FIELD_SOURCES[args.kind].build(_resolve("source", FIELD_SOURCES, args.kind, args), args.intervals)


def _cmd_field(args: argparse.Namespace) -> Iterable[str]:
    return [",".join(f"{component:.9g}" for component in _make_field(args)(args.at))]


def _cmd_field_grid(args: argparse.Namespace) -> Iterable[str]:
    if min(args.x_count, args.y_count, args.z_count) < 1:
        raise ValueError("grid counts must be >= 1")
    axes = []
    for axis in "xyz":
        lo, hi, count = (getattr(args, f"{axis}_{end}") for end in ("min", "max", "count"))
        values = [lo] if count == 1 else [lo + i * (hi - lo) / (count - 1) for i in range(count)]
        if not all(map(math.isfinite, values)):  # the span overflows: the grid, not the field, is at fault
            raise ValueError(f"grid {axis} points are not finite: --{axis}-min and --{axis}-max are too far apart")
        axes.append(values)
    field = _make_field(args)
    # product varies its last axis fastest: one row (x, y, z, Fx, Fy, Fz) per point, z fastest
    return chain(("x,y,z,Fx,Fy,Fz",), (format_row((*point, *field(Position(*point)))) for point in product(*axes)))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _write_lines(args.out, functools.partial(args.handler, args))
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        if sys.stderr is not None:  # closed, print would fall back to stdout
            print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
