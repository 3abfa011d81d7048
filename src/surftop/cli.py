"""Command-line front door.

Subcommands map one-to-one onto library operations: `classify` a Gram
matrix file, `surface` invariants by catalog name or raw numbers,
`compare` two surfaces for oriented homeomorphism, `counterexample` for
the equal-zeta / different-topology demonstration, and `count` points of
a shipped model over GF(p^k). Each runner imports the layers it uses
when it runs, so a command loads only those: `count` loads `zeta` alone.

One table, _GRAMMAR, gives every option as argparse keyword arguments.
One reader, parse_args, reads every argv from it as argparse of Python
3.13.13 reads it (a unique prefix, `--opt=value`, a repeat, `--`, -h
anywhere), and writes help and usage errors in argparse's wording at 80
columns, each echoed word past 40 characters cut (int_text, text_repr):
the same bytes on every Python version, and argparse is never imported.

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
its payload. With --json one encoder, _machine, encodes it in canonical
form (sorted keys, no whitespace, no floats), so that parse +
re-serialize is byte-identical; text mode serializes nothing. Output is
plain text, never colorized (NO_COLOR needs no handling); a character
stdout's encoding lacks goes out as a backslash escape, as on stderr.

Gram matrix file schema: {"n": <int>, "entries": [[<int>, ...], ...]}
with integers parsed exactly, up to Python's default limit of 4300
digits per integer. At most MAX_GRAM_CHARS (2**24) characters are read;
a longer file, or one that cannot be read or parsed, is refused as
InvalidInput. Opening the file never waits (O_NONBLOCK, where the
platform has it): a FIFO that no writer opens within GRAM_WAIT_S (3)
seconds is refused as InvalidInput. A writer that opens the FIFO and
never writes still blocks the read, as it would block `cat`.
"""

import os
import sys
from enum import Enum
from types import SimpleNamespace

from . import Record
from .errors import DomainError, InvalidInputError, int_text, text_repr


# about 20 times the largest compact Gram file whose elimination MAX_ELIMINATION_WORK admits
MAX_GRAM_CHARS = 2**24
# seconds a Gram file waits for a writer to open it (a FIFO) before it is refused
GRAM_WAIT_S = 3


def _plain(obj):
    """An Enum by its value, a form class through class_to_dict, any other
    Record by its fields; TypeError for anything else."""
    if isinstance(obj, Enum):
        return obj.value
    if not isinstance(obj, Record):
        raise TypeError(f"cannot encode {type(obj).__name__} as JSON")
    from .classification import FormClass, class_to_dict
    return class_to_dict(obj) if isinstance(obj, FormClass) else vars(obj)


def _machine(obj) -> str:
    import json
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)


def _load_gram(path: str):
    import json
    from .lattice import GramMatrix
    try:
        text = _read_text(path)
        if len(text) > MAX_GRAM_CHARS:
            raise ValueError(f"file is longer than the cap of {MAX_GRAM_CHARS} characters")
        return GramMatrix.from_dict(json.loads(text))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {text_repr(path)}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a file over the cap, malformed JSON, bad UTF-8, an integer over the digit
        # limit, nesting deeper than the parser's recursion limit, or a bad Gram object
        raise InvalidInputError(f"{text_repr(path)}: {exc}") from exc


def _read_text(path: str) -> str:
    """At most MAX_GRAM_CHARS + 1 characters of path, read in text mode as
    open(path) reads them, so the cap counts characters. The open does not
    wait for a FIFO's writer; the read waits up to GRAM_WAIT_S for one."""
    nonblock = getattr(os, "O_NONBLOCK", 0)
    # a directory opens too, and then open() refuses it by its path
    with open(path, opener=lambda name, flags: os.open(name, flags | nonblock)) as fh:
        head = b""
        if nonblock:
            import select
            poll = select.poll()
            poll.register(fh, select.POLLIN)
            if not poll.poll(GRAM_WAIT_S * 1000):
                try:
                    head = os.read(fh.fileno(), 1)  # data here: a writer came at the last instant
                except BlockingIOError:  # a writer holds the pipe open and has not written yet
                    pass
                else:
                    if not head:  # end of file: no writer holds the pipe open
                        raise ValueError(f"no writer opened it within {GRAM_WAIT_S} s")
            os.set_blocking(fh.fileno(), True)
        return head.decode(fh.encoding) + fh.read(MAX_GRAM_CHARS + 1 - len(head))  # /dev/zero ends here


def _surface_spec(spec: str):
    """The SurfaceData of a catalog name or of an inline 'c1sq,c2[,spin]'."""
    from .surfaces import SurfaceData, catalog_lookup
    parts = spec.split(",")
    if len(parts) not in (2, 3):
        return catalog_lookup(spec)
    try:
        c1_sq, c2 = int(parts[0]), int(parts[1])
    except ValueError:
        return catalog_lookup(spec)
    if parts[2:] not in ([], ["spin"]):
        raise InvalidInputError(f"bad surface spec {text_repr(spec)}: trailing part must be 'spin'")
    return SurfaceData(name=spec, c1_sq=c1_sq, c2=c2, spin=len(parts) == 3)


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
_ABOUT = "classify unimodular forms, decide surface homeomorphism, count points"
_COMMANDS = "{" + ",".join(_GRAMMAR) + "}"
_HELP = ("-h", "--help")


class _Exit(Exception):
    """Help, (0, help, ""), or a usage error, (2, "", the error): the outcome of _outcome."""


def _fill(text: str, width: int) -> list[str]:
    """text in lines of at most width characters, broken at spaces."""
    lines = []
    for word in text.split():
        if lines and len(lines[-1]) + 1 + len(word) <= width:
            lines[-1] += " " + word
        else:
            lines.append(word)
    return lines


def _heads(command: str | None) -> list[tuple[str, dict]]:
    """Each option of command as its help names it, with its keyword arguments."""
    return [(o if "action" in kw else f"{o} {kw.get('metavar', o[2:].upper())}", kw)
            for o, kw in (_GRAMMAR[command][1] if command else {}).items()]


def _usage(command: str | None) -> str:
    """argparse's usage of command, or of the program for None, at 80 columns."""
    line = f"usage: surftop {command}" if command else "usage: surftop"
    lines, indent = [line], " " * (len(line) + 1)
    parts = [head if kw.get("required") else f"[{head}]" for head, kw in _heads(command)]
    for part in ["[-h]", *parts] if command else ["[-h]", _COMMANDS + " ..."]:
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(indent + part)
        else:
            lines[-1] += " " + part
    return "\n".join(lines)


def _help(command: str | None) -> str:
    """argparse's help of command, or of the program for None, at 80 columns."""
    options = [(2, "-h, --help", "show this help message and exit"),
               *((2, head, kw.get("help")) for head, kw in _heads(command))]
    commands = [] if command else [(2, _COMMANDS, None), *((4, c, h) for c, (h, _) in _GRAMMAR.items())]
    position = min(24, 2 + max(indent + len(head) for indent, head, _ in options + commands))
    blocks = [_usage(command)] + ([] if command else ["\n".join(_fill(_ABOUT, 78))])
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


def _fail(command: str | None, message: str):
    """A usage error of command, or of the program for None, as argparse prints it."""
    prog = f"surftop {command}" if command else "surftop"
    raise _Exit(2, "", f"{_usage(command)}\n{prog}: error: {message}\n")


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
        raise _Exit(0, _help(command), "")
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


def _run_classify(args) -> tuple[dict, list[str]]:
    from .classification import ClassificationMode, classify_form, describe
    from .lattice import invariants
    m = _load_gram(args.gram)
    mode = (ClassificationMode.SMOOTH_FOUR_MANIFOLD if args.smooth
            else ClassificationMode.ABSTRACT_LATTICE)
    inv = invariants(m)
    cls = classify_form(inv, mode)
    text = [
        f"rank {inv.rank}  b+ {inv.b_plus}  b- {inv.b_minus}  "
        f"signature {inv.signature}  parity {inv.parity.value}  "
        f"determinant {inv.determinant}",
        f"class: {describe(cls)}",
    ]
    return {"invariants": inv, "class": cls}, text


def _surface(s) -> tuple[dict, list[str]]:
    from .classification import describe
    from .surfaces import compute_invariants, intersection_form_class
    inv = compute_invariants(s)
    cls = intersection_form_class(s)
    payload = {"surface": s, "invariants": inv, "class": cls}
    text = [
        f"{s.name}: c1^2 {s.c1_sq}, c2 {s.c2}, {'spin' if s.spin else 'non-spin'}",
        f"  b2 {inv.b2}  signature {inv.sigma}  parity {inv.parity.value}  "
        f"b+ {inv.b_plus}  b- {inv.b_minus}  chi(O) {inv.chi_holo}",
        f"  intersection form: {describe(cls)}",
    ]
    return payload, text


def _run_surface(args) -> tuple[dict, list[str]]:
    from .surfaces import SurfaceData, catalog_lookup
    if args.name is not None:
        return _surface(catalog_lookup(args.name))
    return _surface(SurfaceData(name="surface", c1_sq=args.c1sq, c2=args.c2, spin=args.spin))


def _run_compare(args) -> tuple[dict, list[str]]:
    from .surfaces import homeomorphic
    a = _surface_spec(args.a)
    b = _surface_spec(args.b)
    verdict = homeomorphic(a, b)
    (pa, ta), (pb, tb) = _surface(a), _surface(b)
    text = ta + tb + [f"verdict: {'homeomorphic' if verdict else 'not homeomorphic'}"]
    return {"a": pa, "b": pb, "homeomorphic": verdict}, text


def _run_counterexample(args) -> tuple[dict, list[str]]:
    from .classification import describe
    from .surfaces import catalog_lookup, compute_invariants, homeomorphic, intersection_form_class
    from .zeta import counterexample_report
    report = counterexample_report(args.primes, degrees=args.degrees)
    a, b = report["surfaces"]
    surfaces = {n: catalog_lookup(n) for n in (a, b)}
    homeo = homeomorphic(*surfaces.values())
    classes = {n: intersection_form_class(s) for n, s in surfaces.items()}
    invs = {n: compute_invariants(s) for n, s in surfaces.items()}
    conclusion = ("point counts agree over every tested field, yet the surfaces are not homeomorphic: "
                  "zeta data does not determine homeomorphism type"
                  if report["all_counts_equal"] and not homeo
                  else "expected counterexample conditions were NOT met; see the data")
    text = [f"surfaces: {a} vs {b} (P2 blown up at a point)"]
    for block in report["primes"]:
        for row in block["counts"]:
            mark = "==" if row["equal"] else "!="
            text.append(f"  q = {row['q']:>4}: {row[a]:>8} {mark} {row[b]:>8}")
    text += [f"intersection forms: {describe(classes[a])} vs {describe(classes[b])}",
             f"homeomorphic: {homeo}", conclusion]
    return {**report, "homeomorphic": homeo, "form_classes": classes, "conclusion": conclusion,
            "invariants": {n: {"b2": i.b2, "sigma": i.sigma, "parity": i.parity}
                           for n, i in invs.items()}}, text


def _run_count(args) -> tuple[dict, list[str]]:
    from .zeta import build_field, count_variety
    field = build_field(args.p, args.k)
    pc = count_variety(args.variety, field)
    payload = {"variety": pc.variety, "p": args.p, "k": args.k, "q": pc.q, "count": pc.count}
    return payload, [f"{pc.variety} over GF({pc.q}): {pc.count} points"]


_RUNNERS = {
    "classify": _run_classify,
    "surface": _run_surface,
    "compare": _run_compare,
    "counterexample": _run_counterexample,
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
