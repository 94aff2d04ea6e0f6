"""Time-to-verdict benchmark for helpzc.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of CLI commands.  A pass runs every command
once, serially, each in a fresh interpreter (bench/child.py), so every
in-process cache starts cold exactly as it does for a CLI user.  Passes
repeat until --seconds have elapsed; the seed only shuffles the command
order of each pass.  A pass does not start when the previous one suggests
it would end after 1.5 x --seconds.  Without --workload every workload runs
in turn.

--trace 0 reports the end-to-end metrics, as medians over passes:
    wall_s        one whole pass, interpreter starts included
    verdict_s     sum over commands of bundle ready -> verdict
    setup_s       sum over commands of helpzc import + bundle load
    peak_rss_mib  largest resident-set high-water mark of any command
Every time, per-layer ones included, is in seconds at a fixed reference CPU
speed (bench/speed.py): the benchmark and its children share one CPU whose
speed is sampled throughout, because the hosts it runs on change speed by up
to 1.7x within seconds.  The table also shows the raw wall-clock wall_s.
--trace 1 runs every command untraced and then traced, back to back, for
at least two passes, and reports the per-layer metrics of bench/tracer.py
(medians over passes; counts must repeat exactly) plus trace.overhead_s
(traced minus untraced verdict_s); the spans, in reference seconds, go to
bench/out/spans-<workload>-seed<N>.json.

Every command is checked (see `Checker`); an operation is one child
process, and the run exits 1 when any operation failed.  The last stdout
line is a JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from tracer import layer_metrics, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# set-up is cheap, so a run adds set-up-only rounds until it has at least
# this many samples, and this many single-command set-ups behind them
SETUP_SAMPLES = 5
SETUP_CHILDREN = 16
CHILD_TIMEOUT_S = 90
# no pass starts that the previous one suggests would end a run later than
# this multiple of --seconds
OVERRUN = 1.5


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # the verdict a theorem guarantees, independent of filter strength
    expect: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# Why each workload exists is recorded in BENCHMARK.json; the layer each one
# stresses is in bench/trajectory.json.
WORKLOADS = {
    "m11": (
        Command(("zc", "m11")),
        Command(("pq", "m11"), expect="Proved"),
        Command(("order", "12", "m11")),
    ),
    "cyclic-ladder": tuple(
        Command(("zc", "--no-shortcuts", f"cyclic:{n}"), expect="Proved")
        for n in range(2, 17)
    ),
    "c18-redund": (Command(("zc", "--no-shortcuts", "cyclic:18"), expect="Proved"),),
}

END_TO_END_UNITS = {"wall_s": "s", "verdict_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def launch(command: Command, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one command in a fresh interpreter; its JSON report, or
    {"error": ...} on a bad exit status, a timeout or unreadable output."""
    flags = ["--trace"] * trace + ["--setup-only"] * setup_only
    argv = [sys.executable, str(BENCH_DIR / "child.py"), *flags, "--", *command.argv]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"exit status {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no JSON report on stdout"}


def source_digest() -> str:
    """Identifies the program's code, so stored digests compare like with like."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Checker:
    """Correctness gate for one command's report.  None of the checks depends
    on how strong the filters are:

    * the store survives store_to_json -> store_from_json, which re-checks
      completeness, the congruence test and divisor closure;
    * every solved order holds the tuples of the group's own elements;
    * a theorem-backed verdict reads Proved;
    * the sha256 of the canonical store is the same on every run of the same
      code, in this run and in earlier runs of this checkout.
    """

    def __init__(self, helpzc):
        self.helpzc = helpzc
        self.bundles: dict[str, object] = {}
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, str] = {}
        self.state_path = OUT_DIR / "digests.json"
        self.code = source_digest()
        try:
            self.state = json.loads(self.state_path.read_text())
        except (OSError, json.JSONDecodeError):
            self.state = {}
        self.earlier = self.state.get(self.code, {})

    def problems(self, command: Command, report: dict) -> list[str]:
        if "error" in report:
            return [report["error"]]
        if "store" not in report:  # a set-up-only report
            return []
        helpzc = self.helpzc
        name = command.argv[-1]
        if name not in self.bundles:
            self.bundles[name] = helpzc.cli.resolve_bundle(name)
        bundle = self.bundles[name]
        data = report["store"]
        out = []
        try:
            store = helpzc.store_from_json(bundle, data)
        except ValueError as exc:
            return [f"store rejected on reload: {exc}"]
        if helpzc.store_to_json(bundle, store) != data:
            out.append("store changes in a JSON round trip")
        for k, tuples in store.solutions.items():
            own = set(helpzc.trivial_solutions(bundle.ordinary, k)) - set(tuples)
            if own:
                out.append(f"order {k}: {len(own)} group-element tuples missing")
        if command.expect and report["verdict"] != command.expect:
            out.append(f"verdict {report['verdict']!r}, expected {command.expect!r}")
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()
        for seen in (self.digests.get(command.label), self.earlier.get(command.label)):
            if seen is not None and seen != digest:
                out.append(f"store digest {digest[:12]} differs from {seen[:12]}")
        self.digests.setdefault(command.label, digest)
        self.verdicts.setdefault(command.label, report["verdict"])
        return out

    def save(self) -> None:
        """Remember this run's digests for later runs of the same code."""
        self.state[self.code] = {**self.digests, **self.earlier}
        OUT_DIR.mkdir(exist_ok=True)
        tmp = self.state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.state_path)


def rescale(report: dict, speed: SpeedProbe) -> None:
    """Turn a child's times into reference seconds, in place."""
    report["setup_s"] = sum(speed.work(a, b) for a, b in report["setup_at"])
    if "verdict_at" in report:
        report["verdict_s"] = speed.work(*report["verdict_at"])
    if "spans" in report:
        report["spans"] = [[n, speed.at(a), speed.at(b), p] for n, a, b, p in report["spans"]]


@dataclass
class Pass:
    wall_s: float
    raw_wall_s: float
    reports: list[tuple[Command, dict]]

    def total(self, key: str, traced: bool = False) -> float:
        return sum(r[key] for _, r in self.reports if ("spans" in r) == traced)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One benchmark run of one workload."""

    def __init__(
        self, name: str, seed: int, seconds: float, trace: bool, checker: Checker, speed: SpeedProbe
    ):
        self.name = name
        self.commands = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checker = checker
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[Pass] = []
        self.setup_samples: list[float] = []

    def _launch_all(self, setup_only=False):
        order = list(self.commands)
        self.rng.shuffle(order)
        t0 = perf_counter()
        reports = []
        for c in order:
            reports.append((c, launch(c, setup_only=setup_only)))
            if self.trace:
                # right after the untraced run, so both see the same machine
                reports.append((c, launch(c, trace=True)))
        t1 = perf_counter()
        ok = True
        for command, report in reports:
            if "error" not in report:
                rescale(report, self.speed)
            self.attempted += 1
            problems = self.checker.problems(command, report)
            if problems:
                self.fail(*(f"{command.label}: {p}" for p in problems))
                ok = False
        return Pass(self.speed.work(t0, t1), t1 - t0, reports), ok

    def fail(self, *messages: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        self.failures.extend(messages)

    def execute(self) -> None:
        start = perf_counter()
        last = 0.0
        # two traced passes show that the counts repeat
        while len(self.passes) < 1 + self.trace or (
            perf_counter() - start < self.seconds
            and perf_counter() - start + last <= OVERRUN * self.seconds
        ):
            p, ok = self._launch_all()
            if not ok:
                return
            last = p.raw_wall_s
            self.passes.append(p)
            self.setup_samples.append(p.total("setup_s"))
        wanted = max(SETUP_SAMPLES, SETUP_CHILDREN // len(self.commands))
        while not self.trace and len(self.setup_samples) < wanted:
            p, ok = self._launch_all(setup_only=True)
            if not ok:
                break
            self.setup_samples.append(p.total("setup_s"))

    def end_to_end(self) -> dict[str, list[float]]:
        return {
            "wall_s": [p.wall_s for p in self.passes],
            "verdict_s": [p.total("verdict_s") for p in self.passes],
            "setup_s": self.setup_samples,
            "peak_rss_mib": [
                max(r["peak_rss_kib"] for _, r in p.reports) / 1024 for p in self.passes
            ],
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        if not self.passes:
            return {}
        sums = []
        for p in self.passes:
            total: dict[str, float] = {}
            for command, r in p.reports:
                if "spans" not in r:
                    continue
                for key, value in layer_metrics(r["spans"], r["counts"]).items():
                    total[key] = total.get(key, 0) + value
                own = self_times(r["spans"])
                covered = sum(own.values()) - own["chartables.load"]
                if abs(covered - r["verdict_s"]) > 0.02 * r["verdict_s"] + 0.002:
                    self.fail(
                        f"{command.label}: layer self times {covered:.4f} s do not"
                        f" account for verdict_s {r['verdict_s']:.4f} s"
                    )
            sums.append(total)
        out = {}
        unsteady = []
        for key in sums[0]:
            values = [s[key] for s in sums]
            if key.endswith("_s"):
                out[key] = (statistics.median(values), "s")
            else:
                if len(set(values)) > 1:
                    unsteady.append(f"{key} {values}")
                out[key] = (values[0], "count")
        if unsteady:
            self.fail("counts differ between traced passes: " + ", ".join(unsteady))
        overhead = statistics.median(
            p.total("verdict_s", traced=True) - p.total("verdict_s") for p in self.passes
        )
        out["trace.overhead_s"] = (overhead, "s")
        return out

    def write_spans(self) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{self.name}-seed{self.seed}.json"
        passes = [
            [{"command": c.label, "spans": r["spans"]} for c, r in p.reports if "spans" in r]
            for p in self.passes
        ]
        path.write_text(json.dumps({"workload": self.name, "seed": self.seed, "passes": passes}))
        return path


def report(run: Run) -> dict:
    """Print the human-readable table and return the result object."""
    print(f"workload {run.name}: {len(run.commands)} commands, seed {run.seed},"
          f" {len(run.passes)} passes, trace {int(run.trace)}")
    metrics = {}
    if run.trace:
        layers = run.per_layer()
        for key, (value, unit) in layers.items():
            print(f"  {key:28s} {value:>14.6g} {unit}")
            metrics[key] = {"value": value, "unit": unit}
        if run.passes:
            print(f"  spans written to {run.write_spans().relative_to(ROOT)}")
    else:
        print(f"  {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'n':>3s}  unit")
        for key, values in run.end_to_end().items():
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            unit = END_TO_END_UNITS[key]
            print(f"  {key:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {len(values):3d}  {unit}")
            metrics[key] = {"value": med, "unit": unit}
        if run.passes:
            raw = statistics.median(p.raw_wall_s for p in run.passes)
            print(f"  {'raw wall_s':14s} {raw:10.4f}  wall clock; mean CPU speed"
                  f" {run.speed.mean_speed():.3f} x reference")
    for label in sorted(run.checker.digests):
        print(f"  {label}: {run.checker.verdicts[label]}  sha256 {run.checker.digests[label]}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def import_helpzc():
    """The checkout's helpzc package, CLI loaded; exits when there is none."""
    if not (ROOT / "src" / "helpzc" / "cli.py").is_file():
        sys.exit(f"error: no helpzc source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import helpzc.cli

    return helpzc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    helpzc = import_helpzc()

    print("machine: " + json.dumps(machine_facts()))
    status = 0
    with SpeedProbe() as speed:
        for name in [args.workload] if args.workload else list(WORKLOADS):
            checker = Checker(helpzc)
            run = Run(name, args.seed, args.seconds, bool(args.trace), checker, speed)
            run.execute()
            result = report(run)
            if result["failed"] == 0:
                checker.save()
            else:
                status = 1
            print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
