"""Run one helpzc command in this fresh interpreter and report on it.

    python3 bench/child.py [--trace] [--setup-only] -- <helpzc CLI arguments>

The command is parsed and its bundle resolved by the CLI's own functions,
exactly as `helpzc <arguments>` does; the verdict is then computed with the
same driver the CLI calls.  The last stdout line is one JSON object:

    setup_s       import of helpzc plus bundle resolve/load/validate
    verdict_s     bundle ready -> verdict
    setup_at, verdict_at   the perf_counter instants that bound these phases
    verdict       the verdict line ("Proved", "Unknown", ...)
    store         store_to_json of the resulting solution store
    peak_rss_kib  this process's resident-set high-water mark
    spans, counts with --trace: raw spans and per-layer counts

With --setup-only it stops after set-up and reports the set-up alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def peak_rss_kib() -> int:
    # VmHWM covers this process image only; the rusage max-RSS reported for
    # a child also includes the launcher's RSS, inherited across fork/exec
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_verdict(cli, args, bundle):
    """Verdict line and store of one command, computed as the CLI does."""
    store = cli.SolutionStore(bundle.group_name)
    options = cli.solver_options(args)
    if args.command == "order":
        survivors, pre = cli.solve_order_report(bundle, args.k, store, options)
        if survivors is None:
            verdict = f"Unknown ({store.obstructions.get(args.k, 'obstructed')})"
        else:
            verdict = f"{len(pre)} candidates, {len(survivors)} admissible"
        obstructed = len(store.obstructions)
    else:
        checker = cli.check_zc if args.command == "zc" else cli.check_pq
        result = checker(bundle, options, store)
        verdict = "Proved" if result.proved else "Unknown"
        if result.shortcut:
            verdict += f" ({result.shortcut} shortcut)"
        obstructed = len(result.obstructions)
    return verdict, store, obstructed


def main(argv: list[str]) -> int:
    split = argv.index("--")
    flags, cli_argv = set(argv[:split]), argv[split + 1:]
    trace = "--trace" in flags

    t0 = perf_counter()
    from helpzc import cli

    t_import = perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = perf_counter()
    args = cli.build_parser().parse_args(cli_argv)
    bundle = cli.resolve_bundle(args.bundle)
    t1 = perf_counter()
    setup = {
        "setup_s": (t_import - t0) + (t1 - t_ready),
        "setup_at": [[t0, t_import], [t_ready, t1]],
    }
    if "--setup-only" in flags:
        print(json.dumps(setup))
        return 0

    verdict, store, obstructed = run_verdict(cli, args, bundle)
    t2 = perf_counter()
    out = {
        **setup,
        "verdict_s": t2 - t1,
        "verdict_at": [t1, t2],
        "verdict": verdict,
        "store": cli.store_to_json(bundle, store),
    }
    if tracer is not None:
        tracer.counts["verify.orders"] = len(store.solutions.keys() | store.obstructions.keys())
        tracer.counts["verify.obstructed"] = obstructed
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    out["peak_rss_kib"] = peak_rss_kib()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
