"""Help and usage errors of the CLI, as argparse of Python 3.13.13 writes
them at 80 columns. Only `-h` and a usage error load this module. Each
writer takes the grammar from its caller: command -> (help, {option:
argparse keyword arguments}), as `cli._GRAMMAR` gives it."""

_ABOUT = "classify unimodular forms, decide surface homeomorphism, count points"


def _fill(text: str, width: int) -> list[str]:
    """text in lines of at most width characters, broken at spaces."""
    lines = []
    for word in text.split():
        if lines and len(lines[-1]) + 1 + len(word) <= width:
            lines[-1] += " " + word
        else:
            lines.append(word)
    return lines


def _heads(grammar: dict, command: str | None) -> list[tuple[str, dict]]:
    """Each option of command as its help names it, with its keyword arguments."""
    return [(o if "action" in kw else f"{o} {kw.get('metavar', o[2:].upper())}", kw)
            for o, kw in (grammar[command][1] if command else {}).items()]


def _usage(grammar: dict, command: str | None) -> str:
    """argparse's usage of command, or of the program for None, at 80 columns."""
    line = f"usage: surftop {command}" if command else "usage: surftop"
    lines, indent = [line], " " * (len(line) + 1)
    parts = [head if kw.get("required") else f"[{head}]" for head, kw in _heads(grammar, command)]
    for part in ["[-h]", *parts] if command else ["[-h]", "{" + ",".join(grammar) + "} ..."]:
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(indent + part)
        else:
            lines[-1] += " " + part
    return "\n".join(lines)


def _help(grammar: dict, command: str | None) -> str:
    """argparse's help of command, or of the program for None, at 80 columns."""
    options = [(2, "-h, --help", "show this help message and exit"),
               *((2, head, kw.get("help")) for head, kw in _heads(grammar, command))]
    commands = [] if command else [(2, "{" + ",".join(grammar) + "}", None),
                                   *((4, c, h) for c, (h, _) in grammar.items())]
    position = min(24, 2 + max(indent + len(head) for indent, head, _ in options + commands))
    blocks = [_usage(grammar, command)] + ([] if command else ["\n".join(_fill(_ABOUT, 78))])
    for title, rows in (("positional arguments:", commands), ("options:", options)):
        lines = [title]
        for indent, head, text in rows:
            lines.append(" " * indent + head)
            wrapped = _fill(text or "", 78 - position)
            if wrapped and len(lines[-1]) + 2 <= position:
                lines[-1] = lines[-1].ljust(position) + wrapped.pop(0)
            lines += [" " * position + line for line in wrapped]
        blocks += ["\n".join(lines)] if rows else []
    return "\n\n".join(blocks) + "\n"
