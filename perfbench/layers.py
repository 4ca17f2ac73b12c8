"""Per-layer spans, taken from outside the program.

The traced pass replays a request through the same public library calls
the CLI makes (``Scenario.build``, ``euler_method`` / ``rk4_method`` /
``ScenarioRun.cromer_step``, ``circular_loop`` / ``line_segment``, the
field builders and ``field(point)``), with spans around them. Nothing in
``src/`` is changed or patched.

Each request is replayed twice. The *outer* replay has spans only around
the calls the CLI makes; its build and loop spans are what gets
subtracted from the CLI request span, so wrapper cost never leaks into
``cli.self_s``. The *inner* replay also hands the library wrapped
callables (the derivative or acceleration, and the curve function inside
a public ``Curve``) and gives their time and exact call counts.
"""

from __future__ import annotations

import functools
from time import perf_counter

from mechfield import fields, solver
from mechfield.errors import DomainError
from mechfield.scenarios import SCENARIOS
from mechfield.vectors import Position

from workloads import Field, Simulate


class Tally:
    """Seconds spent in, and number of calls to, one wrapped callable."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def wrap(self, fn):
        def timed(*args):
            start = perf_counter()
            result = fn(*args)
            self.seconds += perf_counter() - start
            self.calls += 1
            return result

        return timed


def _simulate(req: Simulate, inner: Tally | None):
    scenario = SCENARIOS[req.scenario]
    params = {**scenario.defaults, **dict(req.params)}
    t0 = perf_counter()
    run = scenario.build(params)
    t1 = perf_counter()
    if req.method == "euler-cromer":
        step = run.cromer_step
        if inner is not None:  # the partial's first argument is the acceleration
            step = functools.partial(step.func, inner.wrap(step.args[0]), *step.args[1:], **step.keywords)
    else:
        evolve = solver.euler_method if req.method == "euler" else solver.rk4_method
        step = functools.partial(evolve, run.equation if inner is None else inner.wrap(run.equation))
    state, dt = run.initial, req.dt
    t2 = perf_counter()
    for _ in range(req.steps):
        state = step(dt, state)
    t3 = perf_counter()
    return t1 - t0, t3 - t2, [run.row(state)]


def _field(req, inner: Tally | None):
    points = [req.point] if isinstance(req, Field) else req.points()
    positions = [Position(*p) for p in points]
    t0 = perf_counter()
    curve = fields.circular_loop(req.size) if req.kind == "b-loop" else fields.line_segment(req.size)
    if inner is not None:
        curve = fields.Curve(inner.wrap(curve.func), curve.start, curve.end)
    if req.kind == "b-loop":
        field = fields.magnetic_field_of_line_current(req.strength, curve, req.intervals)
    else:
        density = req.strength
        field = fields.electric_field_of_line_charge(lambda _point: density, curve, req.intervals)
    t1 = perf_counter()
    values = []
    try:
        for position in positions:
            values.append(field(position))
    except DomainError:  # the CLI stops at the first point on the source
        pass
    t2 = perf_counter()
    rows = [v if isinstance(req, Field) else (*p, *v) for p, v in zip(points, values)]
    return t1 - t0, t2 - t1, rows


def replay(req) -> tuple[dict[str, float], list[tuple[float, ...]]]:
    """Layer spans and counts of one request, and the rows the library computed."""
    simulate = isinstance(req, Simulate)
    run = _simulate if simulate else _field
    build_s, loop_s, _ = run(req, None)
    inner = Tally()
    _, _, rows = run(req, inner)
    if simulate:
        spans = {"scenarios.build_s": build_s, "solver.step_s": loop_s, "solver.steps": req.steps,
                 "mechanics.deriv_s": inner.seconds, "mechanics.deriv_calls": inner.calls}
    else:
        spans = {"fields.build_s": build_s, "fields.eval_s": loop_s, "fields.points": len(rows),
                 "fields.node_s": inner.seconds, "fields.node_calls": inner.calls}
    return spans, rows
