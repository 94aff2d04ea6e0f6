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

The command line is read from two tables, `COMMANDS` and `OPTIONS`, by a
parser that accepts what argparse would, without importing argparse (and
with it gettext and locale) at every start-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .chartables import BundleError, cyclic_table, load_bundle, resolve_bundle_path
from .intsolve import DEFAULT_MAX_NODES
from .records import Record
from .verify import SolutionStore, SolverOptions, check_pq, check_zc, solve_order_report
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


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def nonempty_path(text: str) -> str:
    if not text:
        raise ValueError("a path must not be empty")
    return text


def node_budget(text: str) -> int:
    n = integer(text)
    if n < 0:
        raise ValueError(f"node budget must be non-negative, got {n}")
    return n


def solver_options(args) -> SolverOptions:
    return SolverOptions(
        shortcuts=not args.no_shortcuts,
        use_brauer=not args.no_brauer,
        p_constant=args.p_constant,
        max_nodes=args.max_nodes,
    )


def check_outputs(args) -> None:
    """Refuse an output path that exists and is not a regular file, or
    whose directory does not exist, a store that the verdict would
    overwrite, and an output that would overwrite the bundle's file, before
    any work is done that could not be written there.  A bundle that does
    not resolve is left to report its own error."""
    named = [(o, p) for o, p in (("--store", args.store), ("--json-out", args.json_out)) if p]
    for _, path in named:
        if Path(path).exists() and not Path(path).is_file():
            raise ValueError(f"output path {path} exists and is not a regular file")
        if not Path(path).parent.is_dir():
            raise ValueError(f"output path {path} is not in an existing directory")
    if len(named) == 2 and Path(args.store).resolve() == Path(args.json_out).resolve():
        raise ValueError(f"--store and --json-out both name {args.json_out}")
    if named and not args.bundle.startswith("cyclic:"):
        try:
            source = resolve_bundle_path(args.bundle).resolve()
        except BundleError:
            return
        for option, path in named:
            if Path(path).resolve() == source:
                raise ValueError(f"{option} {path} is the bundle file")


def load_store(bundle, path: str | None) -> SolutionStore:
    if path and Path(path).is_file():
        from .storefile import store_from_json

        with open(path) as fh:
            return store_from_json(bundle, json.load(fh))
    return SolutionStore(bundle.group_name)


def save_store(bundle, store: SolutionStore, path: str | None) -> None:
    if path:
        from .storefile import store_to_json

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
    from .storefile import store_to_json

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
        from .storefile import pa_to_json, patuple_to_json

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
    from .storefile import patuple_from_json

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


class Option(Record):
    """A long option: a flag when `metavar` is None, which sets its
    attribute to True, else an option taking one value, which `convert`
    checks and converts."""

    __slots__ = ("metavar", "help", "convert", "default", "required")

    def __init__(self, metavar, help, convert=str, default=None, required=False):
        super().__init__(metavar, help, convert, False if metavar is None else default, required)


class Command(Record):
    """A subcommand: its help line, its positionals as (attribute,
    converter) pairs, the names of its options, and what runs it."""

    __slots__ = ("help", "positionals", "options", "func")


# The command line is these two tables, read by the parser below and by
# `helpzc.usage`, which writes the usage lines and --help and is imported
# only to show them.  An option's attribute is its name without the leading
# dashes, dashes made underscores.
OPTIONS = {
    "--no-shortcuts": Option(
        None, "solve even when a structural theorem already settles the question"
    ),
    "--no-brauer": Option(None, "use only the ordinary table"),
    "--p-constant": Option(None, "try the aggregated relaxation before each full system"),
    "--max-nodes": Option(
        "N", "search node budget per system", node_budget, DEFAULT_MAX_NODES
    ),
    "--json-out": Option("PATH", "write the result as JSON", nonempty_path),
    "--store": Option("PATH", "resume from and persist the solution store", nonempty_path),
    "--tuple": Option("FILE", "tuple as store JSON", nonempty_path, required=True),
}
SOLVER = ("--no-shortcuts", "--no-brauer", "--p-constant", "--max-nodes", "--json-out", "--store")
BUNDLE = (("bundle", str),)
COMMANDS = {
    "zc": Command(
        "verify rational conjugacy order by order",
        BUNDLE, SOLVER, lambda a: cmd_check(a, "ZC", check_zc),
    ),
    "pq": Command(
        "verify the missing prime-graph orders",
        BUNDLE, SOLVER, lambda a: cmd_check(a, "PQ", check_pq),
    ),
    "order": Command(
        "audit one order: candidates and survivors", (("k", integer), *BUNDLE), SOLVER, cmd_order
    ),
    "wagner": Command(
        "congruence-test one stored tuple", (("k", integer), *BUNDLE), ("--tuple",), cmd_wagner
    ),
    "info": Command("print derived facts about a bundle", BUNDLE, (), cmd_info),
}
HELP = ("-h", "--help")


def _exit(command, message=None):
    """Print the help of `command` (None for helpzc's own) and exit 0, or
    with a message, the usage and the message and exit 2."""
    from .usage import show

    show(command, message)


def _read(command, arg: str, names):
    """How argparse reads `arg` where the options `names` are known: None
    for a positional (a negative number, or a word with a space, is one),
    else the option it names ("" for none) and its `=value` (None if it has
    none).  A unique prefix of a long option names it."""
    if arg[:1] != "-" or arg == "-":
        return None
    key, eq, value = arg.partition("=")
    if key not in names:
        hits = [n for n in names if key.startswith("--") and n.startswith(key)]
        if len(hits) > 1:
            _exit(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if not hits:
            whole, dot, frac = arg[1:].partition(".")
            if dot:
                number = (not whole or whole.isdecimal()) and frac.isdecimal()
            else:
                number = whole.isdecimal()
            return None if number or " " in arg else ("", None)
        key = hits[0]
    return key, value if eq else None


def _convert(command, label: str, convert, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        _exit(command, f"argument {label}: {exc}")


class Parser:
    """The command line of `COMMANDS` and `OPTIONS`, read as argparse read
    it: options before, between and after the positionals, `--opt=value`,
    unique prefixes of long options, `--` ending the options, and the last
    of a repeated option winning.  `parse_args` returns a namespace holding
    `command`, `func`, the command's positionals and each of its options;
    it prints help and raises SystemExit(0) on -h, and prints the usage and
    an error and raises SystemExit(2) on a usage error."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        argv = list(sys.argv[1:] if argv is None else argv)
        extras = []
        for i, arg in enumerate(argv):
            read = None if arg == "--" else _read(None, arg, HELP)
            if read is None:
                break
            if not read[0]:
                extras.append(arg)
            elif read[1] is not None:
                _exit(None, f"argument -h/--help: ignored explicit argument {read[1]!r}")
            else:
                _exit(None)
        else:
            _exit(None, "the following arguments are required: command")
        command, rest = arg, argv[i + 1:]
        if command not in COMMANDS:
            choices = ", ".join(map(repr, COMMANDS))
            _exit(None, f"argument command: invalid choice: {arg!r} (choose from {choices})")
        spec = COMMANDS[command]
        names = (*HELP, *spec.options)
        attrs = {"command": command, "func": spec.func}
        attrs.update((n[2:].replace("-", "_"), OPTIONS[n].default) for n in spec.options)
        # argparse reads every word before "--" first, so an ambiguous
        # prefix fails even where it would be a value
        tail = rest.index("--") if "--" in rest else len(rest)
        reads = [_read(command, arg, names) for arg in rest[:tail]]
        rest = rest[:tail] + rest[tail + 1:]
        reads += [None] * (len(rest) - tail)
        words = []
        j = 0
        while j < len(rest):
            arg, read = rest[j], reads[j]
            j += 1
            if read is None:
                if len(words) < len(spec.positionals):
                    dest, convert = spec.positionals[len(words)]
                    attrs[dest] = _convert(command, dest.upper(), convert, arg)
                words.append(arg)
                continue
            name, value = read
            if not name:
                extras.append(arg)
                continue
            opt = OPTIONS.get(name)
            if value is not None and (opt is None or opt.metavar is None):
                label = "-h/--help" if opt is None else name
                _exit(command, f"argument {label}: ignored explicit argument {value!r}")
            if opt is None:
                _exit(command)
            if opt.metavar is None:
                value = True
            else:
                if value is None:
                    if j == tail or reads[j] is not None:
                        _exit(command, f"argument {name}: expected one argument")
                    value = rest[j]
                    j += 1
                value = _convert(command, name, opt.convert, value)
            attrs[name[2:].replace("-", "_")] = value
        missing = [dest.upper() for dest, _ in spec.positionals[len(words):]] + [
            n for n in spec.options
            if OPTIONS[n].required and attrs[n[2:].replace("-", "_")] is None
        ]
        if missing:
            _exit(command, f"the following arguments are required: {', '.join(missing)}")
        extras += words[len(spec.positionals):]
        if extras:
            _exit(command, f"unrecognized arguments: {' '.join(extras)}")
        return SimpleNamespace(**attrs)


def build_parser() -> Parser:
    return Parser()


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


# The store codec, imported above only where a store, a --json-out payload
# or a --tuple file is read or written, is reachable here as well.
_STORE_CODEC = frozenset(
    ("pa_to_json", "patuple_from_json", "patuple_to_json", "store_from_json", "store_to_json")
)


def __getattr__(name):
    if name in _STORE_CODEC:
        from . import storefile

        return getattr(storefile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
