"""mechfield benchmark: one workload and seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload chain-rk4 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. A single closed-loop client sends each request of the
workload's round through ``mechfield.cli.main(argv)`` in this process,
repeating the round until ``--seconds`` have passed, and checks every
output against the independent model in ``reference.py``. The last line
of standard output is one JSON object; a results file with run metadata
goes to ``.perfbench/results/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import reference
from workloads import TAIL_PERCENTILE, WORKLOADS, Field, Simulate, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # for confirming a claim on inputs not used while making it
SETUP_REPEATS = 10
TAIL_BEYOND = 10  # a run should have at least this many requests beyond the tail percentile

END_TO_END = {"setup_s": "s", "round_ref_s": "s", "request_ref_s_p50": "s", "request_ref_s_tail": "s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.self_s": "s", "cli.rows": "count", "cli.bytes": "bytes",
    "scenarios.build_s": "s",
    "solver.step_s": "s", "solver.self_s": "s", "solver.steps": "count",
    "mechanics.deriv_s": "s", "mechanics.deriv_calls": "count",
    "fields.build_s": "s", "fields.eval_s": "s", "fields.node_s": "s", "fields.node_calls": "count",
    "fields.kernel_s": "s", "fields.points": "count",
    "trace.overhead": "ratio",
}
# Counts that must repeat exactly for the same seed and code.
EXACT_COUNTS = ("cli.rows", "cli.bytes", "solver.steps", "mechanics.deriv_calls",
                "fields.node_calls", "fields.points")


# Machine speed. On a shared host the CPU time of the same work drifts by up
# to 2x within minutes (other tenants on the core, clock speed), so each
# CPU-time metric is scaled to a reference speed: a speed kernel, a fixed
# plain-float computation of the reference model, which does not use
# mechfield, is timed after every round and set-up run, and the metric is
# multiplied by REF_KERNEL_S / (the median of those kernel times).
SPEED_KERNEL_SIMS = (
    Simulate("spring-chain", "rk4", 0.1, 200,
             (("particles", 8), ("k", 1.0), ("spacing", 1.0), ("mass", 1.0), ("amplitude", 0.1))),
    Simulate("three-body", "rk4", 3600.0, 200, ()),
)
SPEED_KERNEL_FIELDS = (("b-loop", 1.0, 1.0, 6000, (0.3, 0.2, 0.5)), ("e-line", 1.0, 1e-9, 6000, (0.3, 0.2, 0.5)))
REF_KERNEL_S = 0.035  # CPU seconds of the kernel at the reference speed


def speed_kernel_s() -> float:
    """CPU seconds of one run of the speed kernel."""
    start = process_time()
    for req in SPEED_KERNEL_SIMS:
        reference.final_state(req)
    for args in SPEED_KERNEL_FIELDS:
        reference.field_value(*args)
    return process_time() - start


def import_program():
    """mechfield from this checkout's src/, or exit without a result."""
    if not (SRC / "mechfield" / "__init__.py").is_file():
        sys.exit(f"error: mechfield sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mechfield
    from mechfield import cli

    if Path(mechfield.__file__).resolve().parent != (SRC / "mechfield").resolve():
        sys.exit(f"error: imported mechfield from {mechfield.__file__}, not from {SRC}")
    return mechfield, cli


class Timings:
    """CPU and wall seconds of one round, and of each of its requests."""

    def __init__(self) -> None:
        self.cpu = self.wall = 0.0
        self.request_cpu: list[float] = []
        self.request_wall: list[float] = []


class Client:
    """One closed-loop client: the next request starts when the last returns."""

    def __init__(self, cli, requests, tmp: Path):
        self.cli = cli
        self.requests = requests
        self.expected = [reference.expect(r) for r in requests]
        self.outs = [None if isinstance(r, Field) else tmp / f"out{i}.csv" for i, r in enumerate(requests)]
        self.argvs = [r.argv(str(out)) for r, out in zip(requests, self.outs)]
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] | None = None  # first round's outcome per request
        self.counts: dict[str, int] | None = None

    def call(self, argv):
        """One request: exit code, wall seconds, CPU seconds, standard output."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start, cpu_start = perf_counter(), process_time()
            code = self.cli.main(argv)
            cpu, seconds = process_time() - cpu_start, perf_counter() - start
        return code, seconds, cpu, out.getvalue()

    def round(self) -> Timings:
        """Run the round once and check it; returns its round and request timings."""
        results, timings = [], Timings()
        start, cpu_start = perf_counter(), process_time()
        for argv in self.argvs:
            code, seconds, cpu, stdout = self.call(argv)
            results.append((code, stdout))
            timings.request_wall.append(seconds)
            timings.request_cpu.append(cpu)
        timings.cpu, timings.wall = process_time() - cpu_start, perf_counter() - start
        self.check(results)
        return timings

    def check(self, results) -> None:
        """Check each output, count failures, and demand identical counts every round."""
        records, rows, size = [], 0, 0
        for exp, out, (code, stdout) in zip(self.expected, self.outs, results):
            data = b""
            if out is None:
                data = stdout.encode()
            elif out.exists():
                data = out.read_bytes()
                out.unlink()
            ok = reference.check_output(exp, code, data.decode() if code == 0 else None)
            self.attempted += 1
            self.failed += not ok
            lines = data.count(b"\n") - (exp.header is not None and code == 0)
            rows += lines
            size += len(data)
            records.append({"exit": code, "ok": ok, "rows": lines, "bytes": len(data),
                            "sha256": hashlib.sha256(data).hexdigest()})
        counts = {"cli.rows": rows, "cli.bytes": size}
        if self.records is None:
            self.records, self.counts = records, counts
        elif counts != self.counts:
            raise CountMismatch(f"round counts {counts} differ from the first round's {self.counts}")


class CountMismatch(RuntimeError):
    """An exact count did not repeat."""


def traced_round(client: Client, layers) -> tuple[float, dict[str, float]]:
    """The round with per-layer spans: CLI request span, then the library replays."""
    totals = {"cli.request_s": 0.0, **{name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}}
    results = []
    start = perf_counter()
    for i, (req, argv) in enumerate(zip(client.requests, client.argvs)):
        code, seconds, _, stdout = client.call(argv)
        results.append((code, stdout))
        totals["cli.request_s"] += seconds
        spans, rows = layers.replay(req)
        for name, value in spans.items():
            totals[name] += value
        exp = client.expected[i]
        if exp.exit_code == 0 and not all(
            reference.values_match(got, want, exp.names, exp.rel_tol)
            for got, want in zip(rows, exp.rows.values())
        ):
            raise RuntimeError(f"library replay of request {i} disagrees with the model: {argv}")
    wall = perf_counter() - start
    client.check(results)
    totals.update(client.counts)
    library = sum(totals[k] for k in ("scenarios.build_s", "solver.step_s", "fields.build_s", "fields.eval_s"))
    totals["cli.self_s"] = totals.pop("cli.request_s") - library
    totals["solver.self_s"] = totals["solver.step_s"] - totals["mechanics.deriv_s"]
    totals["fields.kernel_s"] = totals["fields.eval_s"] - totals["fields.node_s"]
    return wall, totals


class Setup:
    """CPU and wall time of a fresh interpreter running the smallest simulation.

    Runs are spread over the measured window, so that set-up time samples
    the same machine conditions as the requests.
    """

    def __init__(self, tmp: Path):
        self.out = tmp / "setup.csv"
        self.cmd = [sys.executable, "-m", "mechfield", "simulate", "sho", "--steps", "0", "--out", str(self.out)]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.times: list[float] = []  # CPU seconds, user plus system, of the child
        self.walls: list[float] = []
        self.once()  # also writes the bytecode cache; not counted
        self.times.clear()
        self.walls.clear()

    def once(self) -> None:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.walls.append(perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        if self.out.read_text() != reference.PARTICLE_HEADER + "\n0,1,0,0,0,0,0\n":
            raise RuntimeError("set-up run wrote a wrong CSV")
        self.out.unlink()


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile of the latencies, and how many lie beyond it."""
    ordered = sorted(latencies)
    rank = -(-round(percentile * 10) * len(ordered) // 1000)  # ceil(p * n / 100) in integers
    return ordered[rank - 1], len(ordered) - rank


def run_workload(args, cli, layers):
    requests = generate(args.workload, args.seed)
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE, prefix="tmp-") as tmp_name:
        tmp = Path(tmp_name)
        client = Client(cli, requests, tmp)
        setup = None if args.trace else Setup(tmp)
        client.round()  # warm-up: checked and counted, not timed
        gc.collect()
        gc.freeze()  # the client's own objects should not lengthen the program's collections
        rounds, traced = [], []
        kernel = [speed_kernel_s()]
        start = perf_counter()
        while True:
            if setup and len(setup.times) < 1 + SETUP_REPEATS * (perf_counter() - start) / args.seconds:
                setup.once()
                kernel.append(speed_kernel_s())
            rounds.append(client.round())
            kernel.append(speed_kernel_s())
            if args.trace:
                traced.append(traced_round(client, layers))
            if perf_counter() - start >= args.seconds:
                break
    if args.trace:
        first = traced[0][1]
        if any(t[name] != first[name] for _, t in traced for name in EXACT_COUNTS):
            raise CountMismatch("per-layer counts differ between traced rounds")
        counts = {name: first[name] for name in EXACT_COUNTS}
        metrics = {name: counts[name] if name in counts else statistics.median(t[name] for _, t in traced)
                   for name in PER_LAYER if name != "trace.overhead"}
        metrics["trace.overhead"] = statistics.median(w for w, _ in traced) / statistics.median(r.wall for r in rounds)
        extra = {"untraced_rounds": len(rounds), "traced_rounds": [t for _, t in traced]}
    else:
        counts = dict(client.counts)
        request_cpu = [s for r in rounds for s in r.request_cpu]
        request_wall = [s for r in rounds for s in r.request_wall]
        tail_pct = TAIL_PERCENTILE[args.workload]
        tail_cpu, tail_beyond = tail(request_cpu, tail_pct)
        if tail_beyond < TAIL_BEYOND:
            print(f"warning: only {tail_beyond} requests beyond p{tail_pct:g}", file=sys.stderr)
        raw = {
            "setup_cpu_s": statistics.median(setup.times),
            "round_cpu_s": statistics.median(r.cpu for r in rounds),
            "request_cpu_s_p50": statistics.median(request_cpu),
            "request_cpu_s_tail": tail_cpu,
        }
        scale = REF_KERNEL_S / statistics.median(kernel)
        metrics = {
            "setup_s": raw["setup_cpu_s"] * scale,
            "round_ref_s": raw["round_cpu_s"] * scale,
            "request_ref_s_p50": raw["request_cpu_s_p50"] * scale,
            "request_ref_s_tail": raw["request_cpu_s_tail"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {"rounds": len(rounds), "setup_runs": len(setup.times), "tail_percentile": tail_pct,
                 "tail_samples": len(request_cpu), "tail_beyond": tail_beyond, "kernel_cpu_s": statistics.median(kernel),
                 # unscaled CPU and wall-clock times, as information: wall time
                 # also counts time the host ran other tenants on this core
                 **raw,
                 "setup_wall_s": statistics.median(setup.walls),
                 "round_wall_s": statistics.median(r.wall for r in rounds),
                 "request_wall_s_p50": statistics.median(request_wall),
                 "request_wall_s_tail": tail(request_wall, tail_pct)[0]}
    return client, metrics, counts, extra


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(mechfield, args) -> dict:
    git_sha = None
    with contextlib.suppress(OSError):  # a checkout need not be a git repository
        if (ROOT / ".git").exists():
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "code_sha256": code_hash(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "all_size": len(mechfield.__all__),
    }


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; confirm claims with {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to repeat the round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    args = parser.parse_args()
    mechfield, cli = import_program()
    if args.workload == "all":
        return run_all(args)
    import layers  # imports mechfield, so only after import_program

    problems = []
    try:
        client, metrics, counts, extra = run_workload(args, cli, layers)
    except CountMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = metadata(mechfield, args)
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["meta"]["code_sha256"] == meta["code_sha256"] and earlier["counts"] != counts:
            problems.append(f"counts {counts} differ from an earlier run's {earlier['counts']}")
    failed_ratio = client.failed / client.attempted
    argvs = [[a if not a.startswith("--out=") else "--out=<tmp>" for a in argv] for argv in client.argvs]
    path.write_text(json.dumps({
        "meta": meta, **extra, "metrics": metrics, "failed_ratio": failed_ratio,
        "attempted": client.attempted, "failed": client.failed, "counts": counts,
        "problems": problems,
        "requests": [{"argv": a, **r} for a, r in zip(argvs, client.records)],
    }, indent=1) + "\n")

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:<22} {value:>14.6g} {units[name]}")
    print(f"{'failed_ratio':<22} {failed_ratio:>14.6g} ({client.failed}/{client.attempted})")
    for key, value in extra.items():
        print(f"{key:<22} {len(value) if isinstance(value, list) else value:>14}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": client.failed == 0 and not problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
