"""The usage lines and the --help text of the command line, written from
`cli.COMMANDS` and `cli.OPTIONS`.  `cli` imports this module only to show
them, so a command that parses never compiles it."""

from __future__ import annotations

import sys

from .cli import COMMANDS, OPTIONS

PROG = "helpzc"


def _wrap(head: str, words, indent: int) -> list[str]:
    lines = [head]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > 79:
            lines.append(" " * indent + word)
        else:
            lines[-1] += " " + word
    return lines


def _table(rows) -> list[str]:
    width = max(len(left) for left, _ in rows) + 1
    return [
        line for left, text in rows
        for line in _wrap("  " + left.ljust(width), text.split(), width + 3)
    ]


def _spelled(name: str) -> str:
    metavar = OPTIONS[name].metavar
    return name if metavar is None else f"{name} {metavar}"


def usage(command) -> list[str]:
    """The usage lines of `command`, or of helpzc itself for None."""
    if command is None:
        return [f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ..."]
    words = ["[-h]"]
    for name in COMMANDS[command].options:
        words.append(_spelled(name) if OPTIONS[name].required else f"[{_spelled(name)}]")
    words += [dest.upper() for dest, _ in COMMANDS[command].positionals]
    head = f"usage: {PROG} {command}"
    return _wrap(head, words, len(head) + 1)


def help_text(command) -> list[str]:
    """The --help lines of `command`, or of helpzc itself for None."""
    if command is None:
        rows = [
            (" ".join([
                name,
                *(dest.upper() for dest, _ in spec.positionals),
                *(_spelled(o) for o in spec.options if OPTIONS[o].required),
            ]), spec.help)
            for name, spec in COMMANDS.items()
        ]
        return [
            *usage(None), "",
            "Constraint-based verification of torsion units in integral group rings.", "",
            "commands:", *_table(rows), "",
            f"Run '{PROG} COMMAND -h' for the options of a command.",
        ]
    rows = [("-h, --help", "show this help message and exit")] + [
        (_spelled(name), OPTIONS[name].help) for name in COMMANDS[command].options
    ]
    return [*usage(command), "", COMMANDS[command].help, "", "options:", *_table(rows)]


def show(command, message=None):
    """Print the help of `command` on stdout and exit 0, or, given a usage
    error, the usage and the error on stderr and exit 2, as argparse did."""
    if message is None:
        print("\n".join(help_text(command)))
        raise SystemExit(0)
    prog = PROG if command is None else f"{PROG} {command}"
    print("\n".join([*usage(command), f"{prog}: error: {message}"]), file=sys.stderr)
    raise SystemExit(2)
