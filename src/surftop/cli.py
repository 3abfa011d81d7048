"""Command-line front door.

Subcommands map one-to-one onto library operations: `classify` a Gram
matrix file, `surface` invariants by catalog name or raw numbers,
`compare` two surfaces for oriented homeomorphism, `counterexample` for
the equal-zeta / different-topology demonstration, and `count` points of
a shipped model over GF(p^k). This module holds what every command
runs: the reader, the encoder and the `count` runner. The other runners
(cli_gram for `classify`, with its file caps; cli_surfaces for the rest)
and the help writer (cli_help, given _GRAMMAR) are imported when they
run, and none of them imports this module. Each runner imports the
layers it uses, so a command loads only those: `count` loads `zeta`
alone, and only `classify` loads json, to read its Gram file.

One table, _GRAMMAR, gives every option as argparse keyword arguments.
One reader, parse_args, reads every argv from it as argparse of Python
3.13.13 reads it (a unique prefix, `--opt=value`, a repeat, `--`, -h
anywhere), and cli_help writes help and usage errors in argparse's
wording at 80 columns, each echoed word past 40 characters cut
(int_text, text_repr): the same bytes on every Python version, and
argparse is never imported.

Exit codes: 0 success or help, 1 expected domain rejections (the stable
error name goes to stderr; an unknown surface or model name is
InvalidInput), 2 usage errors. A stream that is gone (its descriptor
closed, `>&-`, or its pipe's reader left, `| head -1`) takes nothing
more: a code 0 becomes 1, and nothing prints a traceback. `main(argv)`
returns every code and raises none. Without argv, `main()` (the program:
the `surftop` script, `python -m surftop.cli`) ends the process with the
code through `os._exit`, skipping interpreter teardown; so `atexit`
handlers of an embedding process do not run, and `coverage run -m
surftop.cli` saves no data. Each runner returns the library's records in
its payload. With --json one encoder, _machine, writes it in canonical
form (sorted keys, no whitespace, no floats, ASCII), as json.dumps with
sort_keys and the tightest separators writes it, without importing json:
so parse + re-serialize is byte-identical; text mode serializes nothing.
Output is plain text, never colorized (NO_COLOR needs no handling); a
character stdout's encoding lacks goes out as a backslash escape, as on
stderr.
"""

import os
import sys
from enum import Enum
from importlib import import_module
from types import SimpleNamespace

from . import Record
from .errors import DomainError, int_text, text_repr


def _plain(obj):
    """An Enum by its value, a form class through class_to_dict, any other
    Record by its fields; TypeError for anything else."""
    if isinstance(obj, Enum):
        return obj.value
    if not isinstance(obj, Record):
        raise TypeError(f"cannot encode {type(obj).__name__} as JSON")
    from .classification import FormClass, class_to_dict
    return class_to_dict(obj) if isinstance(obj, FormClass) else vars(obj)


# str.translate table: each ASCII character that a JSON string escapes, as json.dumps escapes it
_ESCAPES = {**{i: f"\\u{i:04x}" for i in (*range(32), 127)},
            **{ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}}


def _unicode(n: int) -> str:
    """The \\u escape of code point n; past U+FFFF, those of its UTF-16 surrogate pair."""
    return (f"\\u{n:04x}" if n < 0x10000
            else _unicode(0xD800 | (n - 0x10000) >> 10) + _unicode(0xDC00 | n & 0x3FF))


def _string(text: str) -> str:
    """text as a JSON string, as json.dumps writes it with ensure_ascii."""
    text = text.translate(_ESCAPES)
    return '"' + (text if text.isascii() else "".join(c if c.isascii() else _unicode(ord(c)) for c in text)) + '"'


def _machine(obj) -> str:
    """obj, whose dict keys are text, as json.dumps(obj, sort_keys=True,
    separators=(",", ":"), default=_plain) writes it."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_machine, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(_string(k) + ":" + _machine(v) for k, v in sorted(obj.items())) + "}"
    return _machine(_plain(obj))


def _int(text: str) -> int:
    """int(text); else ValueError in argparse's words, the value cut by text_repr."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text_repr(text)}") from None


def _degrees(text: str) -> int:
    """_int(text) if 1, 2 or 3; else ValueError in argparse's words, the value named by int_text."""
    value = _int(text)
    if value in (1, 2, 3):
        return value
    raise ValueError(f"invalid choice: {int_text(value)} (choose from 1, 2, 3)")


def _primes_list(text: str) -> list[int]:
    try:
        primes = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad prime list {text_repr(text)}") from None
    seen = set()  # a repeat would count its fields again; name it, not the whole list
    repeat = next((p for p in primes if p in seen or seen.add(p)), None)
    if not primes or repeat is not None:
        raise ValueError(f"prime {int_text(repeat)} is repeated" if primes else "prime list is empty")
    return primes


# the grammar: command -> (help, {option: argparse keyword arguments})
_SPEC = dict(required=True, metavar="SPEC", help="catalog name or 'c1sq,c2[,spin]'")
_JSON = {"--json": dict(action="store_true", help="machine-readable output")}
_GRAMMAR = {
    "classify": ("classify a Gram matrix file", {
        "--gram": dict(required=True, metavar="FILE", help="JSON Gram matrix"),
        "--smooth": dict(action="store_true", help="assume the form is realized by a smooth "
                         "4-manifold (enables definite classification)"), **_JSON}),
    "surface": ("invariants and form class of a surface", {
        "--name": dict(help="catalog surface name"),
        "--c1sq": dict(type=_int, help="c1^2 of the surface"),
        "--c2": dict(type=_int, help="topological Euler number"),
        "--spin": dict(action="store_true", help="canonical class divisible by 2"), **_JSON}),
    "compare": ("decide oriented homeomorphism of two surfaces", {"--a": _SPEC, "--b": _SPEC, **_JSON}),
    "counterexample": ("equal zeta data vs non-homeomorphic surfaces, demonstrated by "
                       "enumeration", {
        "--primes": dict(required=True, type=_primes_list, metavar="P1,P2,..."),
        "--degrees": dict(type=_degrees, default=2, metavar="{1,2,3}"), **_JSON}),
    "count": ("count points of a shipped model over GF(p^k)", {
        "--variety": dict(required=True, help="P1xP1, Bl1P2, or fermat1..fermat6"),
        "--p": dict(required=True, type=_int, help="field characteristic"),
        "--k": dict(type=_int, default=1, help="extension degree (1..3)"), **_JSON}),
}
_HELP = ("-h", "--help")


class _Exit(Exception):
    """Help, (0, help, ""), or a usage error, (2, "", the error): the outcome of _outcome."""


def _fail(command: str | None, message: str):
    """A usage error of command, or of the program for None, as argparse prints it."""
    from .cli_help import _usage
    prog = f"surftop {command}" if command else "surftop"
    raise _Exit(2, "", f"{_usage(_GRAMMAR, command)}\n{prog}: error: {message}\n")


def _lookup(word: str, names: tuple[str, ...]) -> list[tuple] | None:
    """Each option among names that word may name, as argparse reads it,
    with its explicit argument or None (for -h, all that follows -h); []
    for an option of no name; None for a value, and for `--`."""
    if word in names:
        return [(word, None)]
    if word[:1] != "-" or word in ("-", "--"):
        return None
    if word[:2] == "-h":  # -h and more characters, as a short option and its argument
        return [("-h", word[2:])]
    prefix, sep, explicit = word.partition("=")
    found = [(prefix, explicit)] if sep and prefix in names else [  # or a long option by a unique prefix
        (name, explicit if sep else None) for name in names if name.startswith(prefix)]
    # a value: a negative number (argparse's ^-\d+$|^-\d*\.\d+$, whose $ also
    # matches before a final newline), or a word with a space
    whole, dot, fraction = word[1:].removesuffix("\n").partition(".")
    negative = (fraction if dot else whole).isdecimal() and (whole + "0").isdecimal()
    return found or (None if negative or " " in word else [])


def _take(command: str | None, word: str, found: list[tuple], words, names: tuple, given: dict) -> None:
    """The option that word names, with its value, read into given; _Exit
    for help, and for an ambiguous word or a value missing or refused."""
    if len(found) > 1:
        _fail(command, f"ambiguous option: {word if len(word) <= 40 else text_repr(word)} "
                       f"could match {', '.join(name for name, _ in found)}")
    (name, explicit), = found
    if name == "-h" and explicit is not None:  # -hx reads as -h -x, and -hh=3 as -h -h=3
        explicit = explicit.lstrip("h")
        explicit = explicit[1:] if explicit[:1] == "=" else explicit if explicit[:1] == "-" else None
    kwargs = {"action": "help"} if name in _HELP else _GRAMMAR[command][1][name]
    if "action" in kwargs and explicit is not None:
        _fail(command, f"argument {'-h/--help' if name in _HELP else name}: "
                       f"ignored explicit argument {text_repr(explicit)}")
    if name in _HELP:
        from .cli_help import _help
        raise _Exit(0, _help(_GRAMMAR, command), "")
    if explicit is None and "action" not in kwargs:
        explicit = next(words, "--")  # with no word left, as before `--`, there is no value
        if explicit == "--" or _lookup(explicit, names) is not None:
            _fail(command, f"argument {name}: expected one argument")
    try:
        given[name] = True if "action" in kwargs else kwargs.get("type", str)(explicit)
    except ValueError as exc:
        _fail(command, f"argument {name}: {exc}")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and options of argv, read from _GRAMMAR as argparse of
    Python 3.13.13 reads them; _Exit for help and for usage errors."""
    words, extras, command, given = iter(argv), [], None, {}
    for word in words:
        names = (*_HELP, *_GRAMMAR[command][1]) if command else _HELP
        found = _lookup(word, names)
        if command is None and found is None:  # the command word; a `--` before it is dropped
            command = next(words, None) if word == "--" else word
            if command not in (None, *_GRAMMAR):
                _fail(None, f"argument command: invalid choice: {text_repr(command)} "
                            f"(choose from {', '.join(map(repr, _GRAMMAR))})")
        elif word == "--":  # it and every word after it are unrecognized
            extras += [word, *words]
        elif found:
            _take(command, word, found, words, names, given)
        else:
            extras.append(word)
    options = _GRAMMAR[command][1] if command else {}
    missing = [option for option, kwargs in options.items() if kwargs.get("required") and option not in given]
    if missing or command is None:
        _fail(command, f"the following arguments are required: {', '.join(missing or ['command'])}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(w if len(w) <= 40 else text_repr(w) for w in extras)}")
    args = SimpleNamespace(command=command, **{
        option[2:]: given.get(option, kwargs.get("default", False if "action" in kwargs else None))
        for option, kwargs in options.items()})
    if command == "surface" and args.name is None and None in (args.c1sq, args.c2):
        _fail(command, "need --name, or both --c1sq and --c2")
    if command == "surface" and args.name is not None and (args.c1sq, args.c2, args.spin) != (None, None, False):
        _fail(command, "--name takes no --c1sq, --c2 or --spin")
    return args


def _run_count(args) -> tuple[dict, list[str]]:
    from .zeta import build_field, count_variety
    field = build_field(args.p, args.k)
    pc = count_variety(args.variety, field)
    payload = {"variety": pc.variety, "p": args.p, "k": args.k, "q": pc.q, "count": pc.count}
    return payload, [f"{pc.variety} over GF({pc.q}): {pc.count} points"]


# each runner but count is imported from its module when it runs
_RUNNERS = {
    "classify": lambda args: import_module(".cli_gram", __package__).run_classify(args),
    "surface": lambda args: import_module(".cli_surfaces", __package__).run_surface(args),
    "compare": lambda args: import_module(".cli_surfaces", __package__).run_compare(args),
    "counterexample": lambda args: import_module(".cli_surfaces", __package__).run_counterexample(args),
    "count": _run_count,
}


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout text and stderr text of one command; writes nothing."""
    try:
        args = parse_args(argv)
        payload, text = _RUNNERS[args.command](args)
        return 0, (_machine(payload) if args.json else "\n".join(text)) + "\n", ""
    except _Exit as exc:  # help (0) or a usage error (2)
        return exc.args
    except DomainError as exc:
        return 1, "", f"{exc.name}: {exc}\n"
    except ValueError as exc:
        return 2, "", f"usage error: {exc}\n"


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its outcome. A stream that is gone takes
    nothing more, and a code 0 becomes 1. Given argv, return the code;
    without, run sys.argv[1:] as the program and end the process with the
    code, skipping interpreter teardown. Any other exception propagates."""
    code, *texts = _outcome(sys.argv[1:] if argv is None else argv)
    for stream, text in zip((sys.stdout, sys.stderr), texts):
        try:
            if stream is not None:
                encoding = getattr(stream, "encoding", None) or "utf-8"
                stream.write(text.encode(encoding, "backslashreplace").decode(encoding))
                stream.flush()
            elif text:  # its descriptor was closed at start
                code = code or 1
        except OSError as exc:
            import errno
            if not isinstance(exc, BrokenPipeError) and exc.errno != errno.EBADF:
                raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())  # so no later flush fails
            code = code or 1
    if argv is not None:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
