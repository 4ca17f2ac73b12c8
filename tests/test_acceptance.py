"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces its
stated tolerance and runtime budget.
"""

import math
import random
import time

from mechfield.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from mechfield.fields import (
    COULOMB_CONSTANT,
    circular_loop,
    electric_field_of_line_charge,
    line_segment,
    magnetic_field_of_line_current,
)
from mechfield.mechanics import (
    EARTH_MASS,
    GRAVITATIONAL_CONSTANT as G,
    damped_driven_osc,
    gravity_accel,
    satellite_accel,
)
from mechfield.solver import euler_cromer_method, euler_method, rk4_method, second_order_equation
from mechfield.vectors import Position, Vec3, X_HAT, ZERO

MU_0 = 4.0 * math.pi * 1e-7


def report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}" + ("" if not failures else f" ({failures[0]})"))
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def random_vec(rng: random.Random) -> Vec3:
    return Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10))


def radius(state: tuple) -> float:
    """|r| of a one-particle flat state (t, x, y, z, vx, vy, vz)."""
    x, y, z = state[1:4]
    return math.sqrt(x * x + y * y + z * z)


def test_c01_vector_algebra_suite():
    rng = random.Random(1)
    failures: list[str] = []
    started = time.perf_counter()
    for i in range(10_000):
        a, b, c = random_vec(rng), random_vec(rng), random_vec(rng)
        if a + b != b + a:
            failures.append(f"commutativity broken at sample {i}")
            break
        assoc = (((a + b) + c) - (a + (b + c))).magnitude()
        if assoc > 1e-12 * (a.magnitude() + b.magnitude() + c.magnitude()):
            failures.append(f"associativity tolerance exceeded at sample {i}")
            break
        if a.cross(b) != -(b.cross(a)):
            failures.append(f"cross antisymmetry broken at sample {i}")
            break
        if abs(a.dot(a.cross(b))) > 1e-9 * a.magnitude() ** 2 * b.magnitude():
            failures.append(f"cross orthogonality broken at sample {i}")
            break
        if abs(a.dot(a) - a.magnitude() ** 2) > 1e-9 * a.magnitude() ** 2:
            failures.append(f"dot/magnitude mismatch at sample {i}")
            break
        lagrange_rhs = a.magnitude() ** 2 * b.magnitude() ** 2
        if abs(a.cross(b).magnitude() ** 2 + a.dot(b) ** 2 - lagrange_rhs) > 1e-9 * lagrange_rhs:
            failures.append(f"Lagrange identity broken at sample {i}")
            break
        p, q = Position(*a), Position(*b)
        back = p.shifted(Vec3(q.x - p.x, q.y - p.y, q.z - p.z))
        if max(abs(back.x - q.x), abs(back.y - q.y), abs(back.z - q.z)) > 1e-12:
            failures.append(f"displacement/shift round trip broken at sample {i}")
            break
        s = rng.uniform(-5, 5)
        bilinear_scale = (a.magnitude() + abs(s) * b.magnitude()) * c.magnitude() + 1e-30
        if abs((a + b * s).dot(c) - (a.dot(c) + s * b.dot(c))) > 1e-9 * bilinear_scale:
            failures.append(f"dot bilinearity broken at sample {i}")
            break
        if ((a + b * s).cross(c) - (a.cross(c) + b.cross(c) * s)).magnitude() > 1e-9 * bilinear_scale:
            failures.append(f"cross bilinearity broken at sample {i}")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s, budget 5 s")
    report(1, "vector algebra invariants on 10^4 random vectors", failures)


def test_c02_driven_oscillator_stays_bounded():
    failures: list[str] = []
    equation = second_order_equation(damped_driven_osc(0.0, 1.0, 0.7))
    state = (0.0, *X_HAT, *ZERO)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100_000):
        state = euler_cromer_method(equation, 0.01, state)
        r = radius(state)
        if r > worst:
            worst = r
    elapsed = time.perf_counter() - started
    if worst >= 10.0:
        failures.append(f"|r| reached {worst:.2f} m, bound 10 m")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    report(2, "off-resonance driven oscillator bounded over 10^5 steps", failures)


def test_c03_symplectic_energy_contrast():
    failures: list[str] = []
    accel = damped_driven_osc(0.0, 0.0, 0.0)

    equation = second_order_equation(accel)

    def energy(s: tuple) -> float:
        r, v = Vec3(*s[1:4]), Vec3(*s[4:])
        return 0.5 * (v.dot(v) + r.dot(r))

    started = time.perf_counter()
    state = (0.0, *X_HAT, *ZERO)
    previous = energy(state)
    for i in range(10_000):
        state = euler_method(equation, 0.01, state)
        current = energy(state)
        if current <= previous:
            failures.append(f"Euler energy not strictly increasing at step {i}")
            break
        previous = current

    state = (0.0, *X_HAT, *ZERO)
    for i in range(10_000):
        state = euler_cromer_method(equation, 0.01, state)
        if abs(energy(state) - 0.5) > 0.02 * 0.5:
            failures.append(f"Euler-Cromer energy off by >2% at step {i}")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    report(3, "Euler grows energy, Euler-Cromer holds it within 2%", failures)


def test_c04_convergence_orders():
    failures: list[str] = []

    def global_error(method, dt: float) -> float:
        y = (1.0,)
        for _ in range(round(1.0 / dt)):
            y = method(lambda v: v, dt, y)
        return abs(y[0] - math.e)

    started = time.perf_counter()
    spans = (1e-2, 5e-3, 2.5e-3)
    for name, method, target, width in (
        ("Euler", euler_method, 1.0, 0.1),
        ("RK4", rk4_method, 4.0, 0.2),
    ):
        errors = [global_error(method, dt) for dt in spans]
        for i in range(len(spans) - 1):
            order = math.log2(errors[i] / errors[i + 1])
            if abs(order - target) > width:
                failures.append(f"{name} measured order {order:.3f}, expected {target}+-{width}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    report(4, "measured convergence orders on y' = y", failures)


def test_c05_circular_orbit_radius_drift():
    failures: list[str] = []
    gm = G * EARTH_MASS
    orbit = 7e6
    speed = math.sqrt(gm / orbit)
    period = 2.0 * math.pi * math.sqrt(orbit**3 / gm)
    equation = second_order_equation(satellite_accel)
    state = (0.0, orbit, 0.0, 0.0, 0.0, speed, 0.0)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(round(period)):  # dt = 1 s
        state = euler_cromer_method(equation, 1.0, state)
        deviation = abs(radius(state) - orbit) / orbit
        if deviation > worst:
            worst = deviation
    elapsed = time.perf_counter() - started
    if worst >= 1e-3:
        failures.append(f"radius drifted {worst:.2e} relative, bound 1e-3")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    report(5, "circular orbit radius drift under 0.1% over one period", failures)


def test_c06_biot_savart_on_axis_oracle():
    failures: list[str] = []
    started = time.perf_counter()
    field = magnetic_field_of_line_current(1.0, circular_loop(1.0), 1000)
    for z in (0.0, 0.5, 1.0, 2.0):
        measured = field(Position(0.0, 0.0, z)).z
        analytic = MU_0 * 1.0 / (2.0 * (1.0 + z * z) ** 1.5)
        if abs(measured - analytic) > 1e-3 * analytic:
            failures.append(f"on-axis B at z={z} off by {(measured - analytic) / analytic:.2e}")
    center = field(Position(0.0, 0.0, 0.0)).z
    if abs(center - 6.28319e-7) > 1e-4 * 6.28319e-7:
        failures.append(f"center B {center:.6e}, expected about 6.28319e-7")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    report(6, "loop field matches the on-axis closed form", failures)


def test_c07_coulomb_finite_line_oracle():
    failures: list[str] = []
    lam, length = 1e-9, 1.0
    started = time.perf_counter()
    field = electric_field_of_line_charge(lambda p: lam, line_segment(length), 1000)
    for d in (0.5, 1.0, 2.0):
        e = field(Position(d, 0.0, 0.0))
        analytic = COULOMB_CONSTANT * lam * length / (d * math.sqrt(d * d + length * length / 4.0))
        if abs(e.x - analytic) > 1e-3 * analytic:
            failures.append(f"bisector E at d={d} off by {(e.x - analytic) / analytic:.2e}")
        if abs(e.z) > 1e-12 * abs(e.x):
            failures.append(f"transverse component {e.z:.2e} exceeds 1e-12 of main at d={d}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    report(7, "finite-line E matches the analytic bisector formula", failures)


def test_c08_n_body_consistency():
    failures: list[str] = []
    rng = random.Random(8)
    for trial in range(100):
        masses = [rng.uniform(1e20, 1e25) for _ in range(3)]
        accel = gravity_accel(masses)
        q = [rng.uniform(-1e8, 1e8) for _ in range(9)]
        accels = accel(0.0, q, (0.0,) * 9)
        total, scale = ZERO, 0.0
        for m, a in zip(masses, (Vec3(*accels[i:i + 3]) for i in range(0, 9, 3))):
            total = total + a * m
            scale += (a * m).magnitude()
        if total.magnitude() > 1e-9 * scale:
            failures.append(f"momentum imbalance {total.magnitude() / scale:.2e} in trial {trial}")
            break

    two_body = gravity_accel([EARTH_MASS, 500.0])
    for trial in range(20):
        r = Vec3(*(rng.uniform(1e6, 2e7) for _ in range(3)))
        measured = Vec3(*two_body(0.0, (*ZERO, *r), (0.0,) * 6)[3:])
        oracle = Vec3(*satellite_accel(0.0, r, ZERO))
        if (measured - oracle).magnitude() > 1e-12 * oracle.magnitude():
            failures.append(f"two-body reduction mismatch in trial {trial}")
            break
    report(8, "pairwise gravity conserves momentum and reduces to the satellite law", failures)


def test_c09_quadrature_convergence_ratio():
    failures: list[str] = []
    center = Position(0.0, 0.0, 0.0)
    loop = circular_loop(1.0)
    values = {
        n: magnetic_field_of_line_current(1.0, loop, n)(center).z for n in (250, 500, 1000, 2000)
    }
    ratios = (
        abs(values[250] - values[500]) / abs(values[500] - values[1000]),
        abs(values[500] - values[1000]) / abs(values[1000] - values[2000]),
    )
    for ratio in ratios:
        if not 3.0 <= ratio <= 5.0:
            failures.append(f"interval-halving ratio {ratio:.3f} outside 4 +- 25%")
    report(9, "midpoint quadrature error drops four-fold per halving", failures)


def test_c10_cli_contract(tmp_path, capsys):
    failures: list[str] = []
    started = time.perf_counter()

    def run(*argv: str) -> tuple[int, str]:
        code = main(list(argv))
        return code, capsys.readouterr().out

    # determinism: byte-identical files on rerun
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run("simulate", "ddho", "--steps", "300", "--out", str(path))
    if a.read_bytes() != b.read_bytes():
        failures.append("simulate reruns are not byte-identical")
    ga, gb = tmp_path / "ga.csv", tmp_path / "gb.csv"
    for path in (ga, gb):
        run("field-grid", "b-loop", "--z-min", "0", "--z-max", "1", "--z-count", "5", "--out", str(path))
    if ga.read_bytes() != gb.read_bytes():
        failures.append("field-grid reruns are not byte-identical")

    # row-count rule: steps + 1 data rows
    for steps in (0, 1, 10):
        _, out = run("simulate", "pendulum", "--steps", str(steps))
        if len(out.splitlines()) != steps + 2:
            failures.append(f"--steps {steps} produced {len(out.splitlines()) - 1} data rows")

    # scenario x method smoke matrix
    for scenario in ("sho", "ddho", "satellite", "pendulum", "three-body", "spring-chain"):
        for method in ("euler", "euler-cromer", "rk4"):
            code, out = run("simulate", scenario, "--steps", "10", "--method", method)
            if code != EXIT_OK or len(out.splitlines()) != 12:
                failures.append(f"smoke matrix failed for {scenario}/{method}")

    # exit-code map
    checks = (
        (EXIT_OK, ("simulate", "sho", "--steps", "1")),
        (EXIT_USAGE, ("simulate", "no-such-scenario",)),
        (EXIT_USAGE, ("simulate", "sho", "--no-such-flag",)),
        (EXIT_USAGE, ("simulate", "sho", "--dt", "-1")),
        (EXIT_DOMAIN, ("field", "e-line", "--length", "1", "--intervals", "999", "--at", "0,0,0")),
    )
    for expected, argv in checks:
        code = main(list(argv))
        capsys.readouterr()
        if code != expected:
            failures.append(f"{' '.join(argv)} exited {code}, expected {expected}")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s, budget 10 s")
    report(10, "CLI determinism, row counts, smoke matrix, exit codes", failures)
