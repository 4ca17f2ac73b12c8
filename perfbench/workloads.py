"""The four workloads: seeded request lists for a single closed-loop client.

Each workload is one *round*: a fixed list of requests generated from the
seed. A run repeats its round until the time is up. Inputs that set a
request's cost are drawn stratified (one draw from each of k equal slices
of [0, 1), in shuffled order), and step or point counts are scaled so
that every request of a workload does about the same work. That keeps
the round's total work, median and tail nearly the same from seed to
seed, while the inputs themselves still change with the seed.

Every continuous input (sizes, amplitudes, extents, field points) is
drawn from a continuous range; nothing is placed to avoid or to hit a
field source. The checker decides from geometry alone whether a point
lies on a source, and then requires exit 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

METHODS = ("euler", "euler-cromer", "rk4")


@dataclass(frozen=True)
class Simulate:
    scenario: str
    method: str
    dt: float
    steps: int
    params: tuple[tuple[str, float], ...]  # every scenario parameter, spelled out

    def argv(self, out: str) -> list[str]:
        return ["simulate", self.scenario, "--method", self.method, f"--dt={self.dt!r}",
                f"--steps={self.steps}", *(f"--{k}={v!r}" for k, v in self.params), f"--out={out}"]


def _source_flags(kind: str, size: float, strength: float, intervals: int) -> list[str]:
    if kind == "b-loop":
        return [kind, f"--radius={size!r}", f"--current={strength!r}", f"--intervals={intervals}"]
    return [kind, f"--length={size!r}", f"--lambda={strength!r}", f"--intervals={intervals}"]


@dataclass(frozen=True)
class Field:
    kind: str  # "b-loop": size is the radius, strength the current; "e-line": length, C/m
    size: float
    strength: float
    intervals: int
    point: tuple[float, float, float]

    def argv(self, out: str) -> list[str]:
        at = ",".join(repr(c) for c in self.point)
        return ["field", *_source_flags(self.kind, self.size, self.strength, self.intervals), f"--at={at}"]


@dataclass(frozen=True)
class FieldGrid:
    kind: str
    size: float
    strength: float
    intervals: int
    axes: tuple[tuple[float, float, int], ...]  # (min, max, count) for x, y, z

    def argv(self, out: str) -> list[str]:
        flags = []
        for name, (lo, hi, count) in zip("xyz", self.axes):
            flags += [f"--{name}-min={lo!r}", f"--{name}-max={hi!r}", f"--{name}-count={count}"]
        return ["field-grid", *_source_flags(self.kind, self.size, self.strength, self.intervals),
                *flags, f"--out={out}"]

    def points(self) -> list[tuple[float, float, float]]:
        """Grid points in output order, z fastest, spaced as the CLI spaces them."""
        xs, ys, zs = (
            [lo] if count == 1 else [lo + i * (hi - lo) / (count - 1) for i in range(count)]
            for lo, hi, count in self.axes
        )
        return [(x, y, z) for x in xs for y in ys for z in zs]


def _strata(rng: random.Random, k: int) -> list[float]:
    """k draws from [0, 1), one from each of k equal slices, in random order."""
    draws = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(draws)
    return draws


# chain-rk4: wide states (300-726 columns), 4 derivative calls per step.
CHAIN_REQUESTS = 8
CHAIN_PARTICLE_STEPS = 1400  # particles x steps per request


def chain_rk4(rng: random.Random) -> list[Simulate]:
    requests = []
    for c, a in zip(_strata(rng, CHAIN_REQUESTS), _strata(rng, CHAIN_REQUESTS)):
        particles = 80 + int(41 * c)
        params = (("particles", particles), ("k", 1.0), ("spacing", 1.0), ("mass", 1.0),
                  ("amplitude", 0.02 + 0.3 * a))
        requests.append(Simulate("spring-chain", "rk4", 0.1, round(CHAIN_PARTICLE_STEPS / particles), params))
    return requests


# scenario-sweep: steps per request, chosen so each takes about 60 ms at the
# commit that defined the benchmark; spring-chain counts are for 8 particles
# and scale inversely with the particle count.
SWEEP_STEPS = {
    "sho": (2340, 2460, 660),
    "ddho": (2260, 2380, 680),
    "satellite": (2520, 2540, 860),
    "pendulum": (5000, 5720, 2200),
    "three-body": (690, 770, 210),
    "spring-chain": (240, 280, 80),
}
# Base timesteps, perturbed by a factor of 0.8 to 1.1. The pendulum runs at a
# third of its default so that explicit Euler's energy growth over the long
# run stays well below a full swing.
SWEEP_DT = {"sho": 0.01, "ddho": 0.01, "satellite": 1.0, "pendulum": 0.003,
            "three-body": 3600.0, "spring-chain": 0.1}


def _sweep_params(scenario: str, rng: random.Random) -> tuple[tuple[str, float], ...]:
    u = rng.uniform
    if scenario == "ddho":
        return ("beta", u(0.0, 0.5)), ("amp", u(0.5, 2.0)), ("omega", u(0.3, 1.5))
    if scenario == "pendulum":
        return (("g", u(9.7, 9.9)), ("length", u(1.0, 1.5)), ("theta0", u(0.05, 0.3)),
                ("omega0", u(-0.3, 0.3)))
    if scenario == "spring-chain":
        spacing = u(0.8, 1.2)
        return (("particles", rng.randint(6, 10)), ("k", 1.0), ("spacing", spacing), ("mass", 1.0),
                ("amplitude", u(0.02, 0.2) * spacing))
    return ()


def scenario_sweep(rng: random.Random) -> list[Simulate]:
    requests = []
    for scenario, steps in SWEEP_STEPS.items():
        for method, n in zip(METHODS, steps):
            params = _sweep_params(scenario, rng)
            if scenario == "spring-chain":
                n = round(n * 8 / dict(params)["particles"])
            dt = SWEEP_DT[scenario] * rng.uniform(0.8, 1.1)
            requests.append(Simulate(scenario, method, dt, n, params))
    rng.shuffle(requests)
    return requests


def _source(kind: str, s: float, rng: random.Random) -> tuple[float, float]:
    """Source size and strength: radius (m) and current (A), or length (m) and C/m."""
    if kind == "b-loop":
        return 0.2 + 1.8 * s, rng.uniform(0.1, 10.0)
    return 0.5 + 2.5 * s, rng.uniform(1e-10, 1e-8)


# field-grid: 2-D grids of 6-12 points, many points per field built.
GRID_REQUESTS = 12
GRID_POINT_INTERVALS = 12000  # points x quadrature intervals per request


def field_grid(rng: random.Random) -> list[FieldGrid]:
    requests = []
    kinds = ["b-loop", "e-line"] * (GRID_REQUESTS // 2)
    for kind, f, s in zip(kinds, _strata(rng, GRID_REQUESTS), _strata(rng, GRID_REQUESTS)):
        columns = 2 + int(3 * f)
        intervals = round(GRID_POINT_INTERVALS / (3 * columns))  # 1000 to 2000
        size, strength = _source(kind, s, rng)
        counts = [3, columns]
        flat = rng.randrange(3)  # the axis the grid plane is normal to
        axes = []
        for axis in range(3):
            if axis == flat:
                c = size * rng.uniform(-1.0, 1.0)
                axes.append((c, c, 1))
            else:
                axes.append((size * rng.uniform(-1.5, -0.5), size * rng.uniform(0.5, 1.5), counts.pop(0)))
        requests.append(FieldGrid(kind, size, strength, intervals, tuple(axes)))
    rng.shuffle(requests)
    return requests


# field-points: one point per field built; builds dominate.
POINT_REQUESTS = 60


def field_points(rng: random.Random) -> list[Field]:
    requests = []
    kinds = ["b-loop", "e-line"] * (POINT_REQUESTS // 2)
    for kind, f, s in zip(kinds, _strata(rng, POINT_REQUESTS), _strata(rng, POINT_REQUESTS)):
        intervals = round(100 * 50 ** f)  # 100 to 5000, log-uniform
        size, strength = _source(kind, s, rng)
        point = tuple(rng.uniform(-2.0, 2.0) * size for _ in range(3))
        requests.append(Field(kind, size, strength, intervals, point))
    rng.shuffle(requests)
    return requests


# The tail percentile of each workload: the highest of p99.9, p99, p95, p90
# and p75 that leaves at least ten requests beyond it in a 25 s run on a
# 2-core Intel Xeon guest, at its slowest. It is fixed, not picked per run,
# so that a run on a faster or slower machine reports the same statistic.
TAIL_PERCENTILE = {"chain-rk4": 90.0, "scenario-sweep": 95.0, "field-grid": 90.0, "field-points": 99.0}

WORKLOADS = {
    "chain-rk4": chain_rk4,
    "scenario-sweep": scenario_sweep,
    "field-grid": field_grid,
    "field-points": field_points,
}


def generate(name: str, seed: int) -> list:
    """The round of workload ``name`` for ``seed``; same seed, same requests."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
