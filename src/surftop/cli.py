"""Command-line front door.

Subcommands map one-to-one onto library operations: `classify` a Gram
matrix file, `surface` invariants by catalog name or raw numbers,
`compare` two surfaces for oriented homeomorphism, `counterexample` for
the equal-zeta / different-topology demonstration, and `count` points of
a shipped model over GF(p^k). Each runner imports the layers it uses
when it runs, so a command loads only those: `count` loads `zeta` alone.

One table, _GRAMMAR, gives every option as argparse keyword arguments.
Argv of the form every valid command takes is read straight from it:
the command, then exact option names, each at most once, as `--opt
VALUE` or `--flag`, where a VALUE starting with '-' is a negative integer.
argparse is imported, and built from the same table, only for any other
argv: -h, abbreviated options, `--opt=value`, `--`, usage errors. So
help, usage errors and exit code 2 are argparse's own; only a refused
`--degrees` value, an unknown command word and unrecognized arguments
are worded here, as argparse words them but with each value or word
past 40 characters cut (int_text, text_repr), the same on every Python
version.

Exit codes: 0 success or help, 1 expected domain rejections (the stable
error name goes to stderr; an unknown surface or model name is
InvalidInput), 2 usage errors. A reader that closes stdout before the
result or the help is written (`surftop ... | head -1`) ends the run
with exit 1 and nothing on stderr, no traceback. `main(argv)` returns
every one of these codes and raises none of them. Without argv, `main()`
(the program: the `surftop` script, `python -m surftop.cli`) flushes
stderr and ends the process with the code through `os._exit`, skipping
interpreter teardown; so `atexit` handlers of an embedding process do
not run, and `coverage run -m surftop.cli` saves no data. Each runner
returns the library's records in its payload. With --json one encoder,
_machine, prints it in canonical form (sorted keys, no whitespace, no
floats), so that parse + re-serialize is byte-identical; text mode
serializes nothing. Output is plain text; nothing is colorized, so
NO_COLOR needs no special handling.

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
    """int(text); argparse's message for a value int refuses, with the value
    cut as text_repr cuts it."""
    try:
        return int(text)
    except ValueError:
        pass
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(f"invalid int value: {text_repr(text)}")


def _degrees(text: str) -> int:
    """_int(text), if it is 1, 2 or 3; argparse's message for a refused
    choice, with the value named as int_text names it."""
    value = _int(text)
    if value in (1, 2, 3):
        return value
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(f"invalid choice: {int_text(value)} (choose from 1, 2, 3)")


def _primes_list(text: str) -> list[int]:
    try:
        primes = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        primes = None
    if not primes:
        message = "prime list is empty" if primes == [] else f"bad prime list {text_repr(text)}"
    elif len(set(primes)) < len(primes):
        # a repeat would count its fields again; name it, not the whole list
        seen = set()
        message = f"prime {int_text(next(p for p in primes if p in seen or seen.add(p)))} is repeated"
    else:
        return primes
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(message)


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


def _surface_error(args) -> str | None:
    """The usage error of a surface command that gives neither a name nor both
    numbers, or a name and numbers; None for any other command."""
    if args.command != "surface":
        return None
    if args.name is None and None in (args.c1sq, args.c2):
        return "need --name, or both --c1sq and --c2"
    if args.name is not None and (args.c1sq, args.c2, args.spin) != (None, None, False):
        return "--name takes no --c1sq, --c2 or --spin"
    return None


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """argv read from _GRAMMAR, in the form that every valid command takes
    (see the module docstring); None for any other argv."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    options, given, words = _GRAMMAR[argv[0]][1], {}, iter(argv[1:])
    for option in words:
        kwargs = options.get(option)
        if kwargs is None or option in given:
            return None
        if "action" in kwargs:  # a store_true flag
            given[option] = True
            continue
        text = next(words, None)
        # argparse takes '-12' as a value, since no option looks like a negative number
        if text is None or text.startswith("-") and not text[1:].isdecimal():
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # argparse reports it
            return None
        given[option] = value
    if any(kwargs.get("required") and option not in given for option, kwargs in options.items()):
        return None
    args = SimpleNamespace(command=argv[0], **{
        option[2:]: given.get(option, kwargs.get("default", False if "action" in kwargs else None))
        for option, kwargs in options.items()})
    return None if _surface_error(args) else args


def _argparse_args(argv: list[str]):
    """argv parsed by argparse, built from _GRAMMAR; SystemExit after help or usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            if message and file is sys.stdout:  # unlike argparse, a failed help write raises
                file.write(message)
            else:
                super()._print_message(message, file)

        def _check_value(self, action, value):
            # the command word is the one value with choices; argparse would name it in full
            if action.choices is not None and value not in action.choices:
                self.error(f"argument command: invalid choice: {text_repr(value)} "
                           f"(choose from {', '.join(map(repr, _GRAMMAR))})")

        def parse_args(self, args=None, namespace=None):
            # argparse's own check, but a word past 40 characters is cut
            args, extras = self.parse_known_args(args, namespace)
            if extras:
                self.error("unrecognized arguments: "
                           + " ".join(w if len(w) <= 40 else text_repr(w) for w in extras))
            return args

    parser = Parser(prog="surftop", description="classify unimodular forms, decide surface "
                    "homeomorphism, count points")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_text)
        for option, kwargs in options.items():
            p.add_argument(option, **kwargs)
    args = parser.parse_args(argv)
    message = _surface_error(args)
    if message:
        sub.choices["surface"].error(message)
    return args


def parse_args(argv: list[str]):
    """The command and options of argv, read directly or, for any other form
    of argv, by argparse, which raises SystemExit after help or usage errors."""
    return _read_argv(argv) or _argparse_args(argv)


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


def _drop_stdout() -> None:
    """The reader is gone: point stdout at devnull so that no later flush
    fails again (the recipe in the `signal` docs)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    """Run one command. Given argv, return its exit code: every outcome,
    argparse's help and usage errors included, comes back as a code.
    Without argv, run sys.argv[1:] as the program: flush stderr and end the
    process with the code, without interpreter teardown. Any other
    exception is a bug and propagates."""
    try:
        try:
            # a -h write to a reader that is gone raises in here too
            args = parse_args(sys.argv[1:] if argv is None else argv)
            payload, text = _RUNNERS[args.command](args)
            print(_machine(payload) if args.json else "\n".join(text))
            code = 0
        except SystemExit as exc:  # argparse, after help (0) or a usage error (2)
            code = exc.code
        except DomainError as exc:
            print(f"{exc.name}: {exc}", file=sys.stderr)
            code = 1
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            code = 2
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
        code = 1
    if argv is not None:
        return code
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
