"""Command-line front end.

Subcommands:

* ``zc BUNDLE`` checks rational conjugacy of torsion units order by order.
* ``pq BUNDLE`` checks the missing prime-graph orders.
* ``order K BUNDLE`` audits one order: candidates, congruence rejections,
  admissible tuples.
* ``wagner K BUNDLE --tuple FILE`` runs the congruence test on a stored tuple.
* ``info BUNDLE`` prints the derived facts of a bundle.

BUNDLE is a file path, a bare name resolved in the bundled data directory
(overridable through HELPZC_DATA), or ``cyclic:N`` for the cyclic group of
order N.  Exit status 0 means proved or completed, 2 means the method was
inconclusive, 1 means a usage or data error.  The verdict lines
("ZC: Proved", "PQ: Proved (solvable shortcut)", ...) are stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chartables import cyclic_table, load_bundle, resolve_bundle_path
from .intsolve import DEFAULT_MAX_NODES
from .verify import (
    SolutionStore,
    SolverOptions,
    check_pq,
    check_zc,
    pa_to_json,
    patuple_from_json,
    patuple_to_json,
    solve_order_report,
    store_from_json,
    store_to_json,
)
from .wagner import wagner_test

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def resolve_bundle(name: str):
    if name.startswith("cyclic:"):
        text = name.split(":", 1)[1]
        try:
            n = int(text)
        except ValueError:
            raise ValueError(
                f"bundle {name!r}: cyclic:N needs an integer N, got {text!r}"
            ) from None
        return cyclic_table(n)
    return load_bundle(resolve_bundle_path(name))


def node_budget(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"node budget must be non-negative, got {n}")
    return n


def solver_options(args) -> SolverOptions:
    return SolverOptions(
        shortcuts=not args.no_shortcuts,
        use_brauer=not args.no_brauer,
        p_constant=args.p_constant,
        max_nodes=args.max_nodes,
    )


def check_outputs(args) -> None:
    """Refuse an output path that exists and is not a regular file, and a
    store that the verdict would overwrite, before any work is done that
    could not be written there."""
    for path in (args.store, args.json_out):
        if path and Path(path).exists() and not Path(path).is_file():
            raise ValueError(f"output path {path} exists and is not a regular file")
    if args.store and args.json_out and Path(args.store).resolve() == Path(args.json_out).resolve():
        raise ValueError(f"--store and --json-out both name {args.json_out}")


def load_store(bundle, path: str | None) -> SolutionStore:
    if path and Path(path).is_file():
        with open(path) as fh:
            return store_from_json(bundle, json.load(fh))
    return SolutionStore(bundle.group_name)


def save_store(bundle, store: SolutionStore, path: str | None) -> None:
    if path:
        write_json(path, store_to_json(bundle, store))


def write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def format_pa(table, pa) -> str:
    return ", ".join(f"{table.classes[i].name}: {v}" for i, v in pa.entries)


def print_verdict(label: str, verdict) -> None:
    if verdict.shortcut:
        print(f"{label}: Proved ({verdict.shortcut} shortcut)")
        return
    print(f"{label}: {'Proved' if verdict.proved else 'Unknown'}")
    for k in sorted(verdict.store.solutions):
        n = len(verdict.store.solutions[k])
        print(f"  order {k}: {n} admissible tuple{'s' if n != 1 else ''}")
    for k, reason in verdict.obstructions:
        print(f"  order {k}: {reason}")


def verdict_json(command: str, bundle, verdict) -> dict:
    return {
        "command": command,
        "group": bundle.group_name,
        "verdict": "Proved" if verdict.proved else "Unknown",
        "shortcut": verdict.shortcut,
        "obstructions": [[k, reason] for k, reason in verdict.obstructions],
        "store": store_to_json(bundle, verdict.store),
    }


def cmd_check(args, label, checker) -> int:
    check_outputs(args)
    bundle = resolve_bundle(args.bundle)
    store = load_store(bundle, args.store)
    verdict = checker(bundle, solver_options(args), store)
    print_verdict(label, verdict)
    save_store(bundle, verdict.store, args.store)
    if args.json_out:
        write_json(args.json_out, verdict_json(label.lower(), bundle, verdict))
    return EXIT_OK if verdict.proved else EXIT_UNKNOWN


def cmd_order(args) -> int:
    check_outputs(args)
    bundle = resolve_bundle(args.bundle)
    store = load_store(bundle, args.store)
    survivors, pre = solve_order_report(bundle, args.k, store, solver_options(args))
    save_store(bundle, store, args.store)
    head = {"command": "order", "group": bundle.group_name, "order": args.k}
    if survivors is None:
        reason = store.obstructions[args.k]
        print(f"order {args.k}: Unknown ({reason})")
        if args.json_out:
            write_json(args.json_out, {**head, "obstruction": reason})
        return EXIT_UNKNOWN
    t = bundle.ordinary
    kept = set(survivors)
    print(
        f"order {args.k}: {len(pre)} candidate tuple{'s' if len(pre) != 1 else ''},"
        f" {len(survivors)} admissible after the congruence test"
    )
    for cand in pre:
        tag = "admissible" if cand in kept else "rejected"
        print(f"  {tag}: {format_pa(t, cand.top)}")
    if args.json_out:
        write_json(
            args.json_out,
            {
                **head,
                "candidates": [patuple_to_json(t, c) for c in pre],
                "rejected": [pa_to_json(t, c.top) for c in pre if c not in kept],
                "survivors": [patuple_to_json(t, s) for s in survivors],
            },
        )
    return EXIT_OK


def cmd_wagner(args) -> int:
    bundle = resolve_bundle(args.bundle)
    with open(args.tuple) as fh:
        data = json.load(fh)
    tup = patuple_from_json(bundle.ordinary, args.k, data)
    ok = wagner_test(bundle.ordinary, tup)
    print(f"Wagner: {'passed' if ok else 'rejected'}")
    return EXIT_OK


def cmd_info(args) -> int:
    bundle = resolve_bundle(args.bundle)
    t = bundle.ordinary
    missing = t.prime_graph_missing_pq()
    print(f"group: {bundle.group_name} (order {t.group_order})")
    print(f"element orders: {', '.join(map(str, t.element_orders()))}")
    print(f"exponent: {t.exponent()}")
    print(
        "missing prime-graph orders: "
        + (", ".join(map(str, missing)) if missing else "none")
    )
    print(
        "Brauer tables: "
        + (", ".join(str(p) for p in bundle.brauer_primes) or "none")
    )
    props = [
        name
        for name, flag in (("nilpotent", bundle.is_nilpotent), ("solvable", bundle.is_solvable))
        if flag
    ]
    if props:
        print(f"properties: {', '.join(props)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helpzc",
        description="Constraint-based verification of torsion units in integral group rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--no-shortcuts",
        action="store_true",
        help="solve even when a structural theorem already settles the question",
    )
    solver.add_argument(
        "--no-brauer", action="store_true", help="use only the ordinary table"
    )
    solver.add_argument(
        "--p-constant",
        action="store_true",
        help="try the aggregated relaxation before each full system",
    )
    solver.add_argument(
        "--max-nodes",
        type=node_budget,
        default=DEFAULT_MAX_NODES,
        metavar="N",
        help="search node budget per system",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json-out", metavar="PATH", help="write the result as JSON")
    output.add_argument(
        "--store", metavar="PATH", help="resume from and persist the solution store"
    )

    p = sub.add_parser("zc", parents=[solver, output], help="verify rational conjugacy")
    p.add_argument("bundle")
    p.set_defaults(func=lambda a: cmd_check(a, "ZC", check_zc))

    p = sub.add_parser("pq", parents=[solver, output], help="verify the prime graph question")
    p.add_argument("bundle")
    p.set_defaults(func=lambda a: cmd_check(a, "PQ", check_pq))

    p = sub.add_parser("order", parents=[solver, output], help="audit a single order")
    p.add_argument("k", type=int)
    p.add_argument("bundle")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("wagner", help="congruence-test one tuple")
    p.add_argument("k", type=int)
    p.add_argument("bundle")
    p.add_argument("--tuple", required=True, metavar="FILE", help="tuple as store JSON")
    p.set_defaults(func=cmd_wagner)

    p = sub.add_parser("info", help="print derived facts about a bundle")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
