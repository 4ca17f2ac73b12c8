"""Command-line interface.

Three subcommands:

``simulate``    run a named mechanics scenario and emit its trajectory as CSV
``field``       evaluate an electric or magnetic field at one point
``field-grid``  sample a field over a rectangular grid to CSV

Everything is configured by flags; output is deterministic, so identical
invocations produce byte-identical files. Exit codes: 0 on success, 2 for
usage errors, 3 for domain errors such as evaluating a field on its own
source or a simulation whose state stops being finite, 4 when the output
file cannot be written.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

from .errors import DomainError
from .fields import (
    VectorField,
    circular_loop,
    electric_field_of_line_charge,
    line_segment,
    magnetic_field_of_line_current,
)
from .scenarios import SCENARIOS, Scenario
from .solver import euler_method, rk4_method
from .vectors import Position, format_scalar, parse_triple

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

METHODS = ("euler", "euler-cromer", "rk4")

SCENARIO_PARAMS = tuple(dict.fromkeys(name for scenario in SCENARIOS.values() for name in scenario.defaults))


def _finite_float(text: str) -> float:
    """argparse type for every float flag: nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


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
    scenario_params.add_argument("--beta", type=_finite_float, default=None, help="ddho: damping constant, kg/s")
    scenario_params.add_argument("--amp", type=_finite_float, default=None, help="ddho: drive amplitude, N")
    scenario_params.add_argument("--omega", type=_finite_float, default=None, help="ddho: drive angular frequency, rad/s")
    scenario_params.add_argument("--g", type=_finite_float, default=None, help="pendulum: gravitational acceleration, m/s^2")
    scenario_params.add_argument("--length", type=_finite_float, default=None, help="pendulum: arm length, m")
    scenario_params.add_argument("--theta0", type=_finite_float, default=None, help="pendulum: initial angle, rad")
    scenario_params.add_argument("--omega0", type=_finite_float, default=None, help="pendulum: initial angular velocity, rad/s")
    scenario_params.add_argument("--particles", type=int, default=None, help="spring-chain: particle count")
    scenario_params.add_argument("--k", type=_finite_float, default=None, help="spring-chain: spring constant, N/m")
    scenario_params.add_argument("--spacing", type=_finite_float, default=None, help="spring-chain: lattice spacing, m")
    scenario_params.add_argument("--mass", type=_finite_float, default=None, help="spring-chain: particle mass, kg")
    scenario_params.add_argument("--amplitude", type=_finite_float, default=None, help="spring-chain: pluck amplitude, m")
    simulate.set_defaults(handler=_cmd_simulate)

    def add_field_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("kind", choices=("e-line", "b-loop"), help="field source kind")
        p.add_argument("--lambda", dest="lambda_", type=_finite_float, default=1e-9,
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


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_output(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _resolve_params(scenario: Scenario, args: argparse.Namespace) -> dict[str, float] | None:
    """Overlay user-supplied flags on the scenario defaults.

    Returns None (after printing a message) if a flag was given that the
    scenario does not take.
    """
    params = dict(scenario.defaults)
    for name in SCENARIO_PARAMS:
        value = getattr(args, name)
        if value is None:
            continue
        if name not in scenario.defaults:
            print(f"error: scenario '{scenario.name}' does not take --{name}", file=sys.stderr)
            return None
        params[name] = value
    return params


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.scenario]
    dt = scenario.dt if args.dt is None else args.dt
    steps = scenario.steps if args.steps is None else args.steps
    if dt <= 0:
        return _usage_error("--dt must be positive")
    if steps < 0:
        return _usage_error("--steps must be >= 0")
    params = _resolve_params(scenario, args)
    if params is None:
        return EXIT_USAGE

    run = scenario.build(params)
    if args.method == "euler-cromer":
        step: Callable = run.cromer_step
    else:
        evolve = euler_method if args.method == "euler" else rk4_method

        def step(dt_: float, state):
            return evolve(run.equation, dt_, state)

    state = run.initial
    lines = [run.header]
    for number in range(steps + 1):
        if number:
            state = step(dt, state)
        line = ",".join(format_scalar(v) for v in run.row(state))
        # The repr of a finite float never contains an "n", and "inf" and
        # "nan" do: one substring test per row stops a run that blew up.
        if "n" in line:
            raise DomainError(f"state is not finite at step {number}, t = {format_scalar(state[0])}")
        lines.append(line)
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _make_field(args: argparse.Namespace) -> VectorField:
    if args.kind == "e-line":
        density = args.lambda_
        return electric_field_of_line_charge(
            lambda _point: density, line_segment(args.length), args.intervals
        )
    return magnetic_field_of_line_current(
        args.current, circular_loop(args.radius), args.intervals
    )


def _cmd_field(args: argparse.Namespace) -> int:
    try:
        point = Position(*parse_triple(args.at))
    except ValueError as exc:
        return _usage_error(f"bad --at value: {exc}")
    value = _make_field(args)(point)
    print(",".join(f"{component:.9g}" for component in value))
    return EXIT_OK


def _axis_values(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _cmd_field_grid(args: argparse.Namespace) -> int:
    counts = (args.x_count, args.y_count, args.z_count)
    if any(c < 1 for c in counts):
        return _usage_error("grid counts must be >= 1")
    field = _make_field(args)
    xs = _axis_values(args.x_min, args.x_max, args.x_count)
    ys = _axis_values(args.y_min, args.y_max, args.y_count)
    zs = _axis_values(args.z_min, args.z_max, args.z_count)
    lines = ["x,y,z,Fx,Fy,Fz"]
    for x in xs:
        for y in ys:
            for z in zs:  # z varies fastest
                try:
                    value = field(Position(x, y, z))
                except DomainError as exc:
                    raise DomainError(
                        f"{exc} at {format_scalar(x)},{format_scalar(y)},{format_scalar(z)}"
                    ) from exc
                lines.append(
                    ",".join(format_scalar(c) for c in (x, y, z, *value))
                )
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:  # bad parameter values rejected by the builders
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # --out names a file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
