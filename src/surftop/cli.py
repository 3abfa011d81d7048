"""Command-line front door.

Subcommands map one-to-one onto library operations: `classify` a Gram
matrix file, `surface` invariants by catalog name or raw numbers,
`compare` two surfaces for oriented homeomorphism, `counterexample` for
the equal-zeta / different-topology demonstration, and `count` points of
a shipped model over GF(p^k).

Exit codes: 0 success, 1 expected domain rejections (the stable error
name goes to stderr), 2 usage errors. With --json the single result
object is printed in canonical form (sorted keys, no whitespace, no
floats) so that parse + re-serialize is byte-identical. Output is plain
text; nothing is colorized, so NO_COLOR needs no special handling.

Gram matrix file schema: {"n": <int>, "entries": [[<int>, ...], ...]}
with arbitrary-precision integers, parsed exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classification import (
    ClassificationMode,
    class_from_dict,
    class_to_dict,
    classify_form,
    describe,
)
from .errors import DomainError, InvalidInputError
from .lattice import FormInvariants, GramMatrix, invariants
from .surfaces import (
    SurfaceData,
    catalog_lookup,
    compute_invariants,
    homeomorphic,
    intersection_form_class,
)
from .zeta import DEFAULT_MAX_Q, build_field, count_variety, counterexample_report


def _machine(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _invariants_dict(inv: FormInvariants) -> dict:
    return {
        "rank": inv.rank,
        "b_plus": inv.b_plus,
        "b_minus": inv.b_minus,
        "signature": inv.signature,
        "parity": inv.parity.value,
        "determinant": inv.determinant,
    }


def _load_gram(path: str) -> GramMatrix:
    try:
        with open(path, "r") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return GramMatrix.from_dict(obj)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _surface_spec(spec: str) -> SurfaceData:
    """Catalog name, or inline 'c1sq,c2[,spin]'."""
    parts = spec.split(",")
    if len(parts) in (2, 3):
        try:
            c1_sq, c2 = int(parts[0]), int(parts[1])
        except ValueError:
            pass
        else:
            spin = False
            if len(parts) == 3:
                if parts[2] != "spin":
                    raise InvalidInputError(f"bad surface spec {spec!r}: trailing part must be 'spin'")
                spin = True
            return SurfaceData(name=spec, c1_sq=c1_sq, c2=c2, spin=spin)
    try:
        return catalog_lookup(spec)
    except KeyError as exc:
        raise InvalidInputError(str(exc)) from exc


def _primes_list(text: str) -> list[int]:
    try:
        primes = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from exc
    if not primes:
        raise argparse.ArgumentTypeError("prime list is empty")
    return primes


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="surftop",
        description="classify unimodular forms, decide surface homeomorphism, count points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a Gram matrix file")
    p_classify.add_argument("--gram", required=True, metavar="FILE", help="JSON Gram matrix")
    p_classify.add_argument(
        "--smooth",
        action="store_true",
        help="assume the form is realized by a smooth 4-manifold (enables definite classification)",
    )
    p_classify.add_argument("--json", action="store_true", help="machine-readable output")

    p_surface = sub.add_parser("surface", help="invariants and form class of a surface")
    p_surface.add_argument("--name", help="catalog surface name")
    p_surface.add_argument("--c1sq", type=int, help="c1^2 of the surface")
    p_surface.add_argument("--c2", type=int, help="topological Euler number")
    p_surface.add_argument("--spin", action="store_true", help="canonical class divisible by 2")
    p_surface.add_argument("--json", action="store_true", help="machine-readable output")

    p_compare = sub.add_parser("compare", help="decide oriented homeomorphism of two surfaces")
    p_compare.add_argument("--a", required=True, metavar="SPEC", help="catalog name or 'c1sq,c2[,spin]'")
    p_compare.add_argument("--b", required=True, metavar="SPEC", help="catalog name or 'c1sq,c2[,spin]'")
    p_compare.add_argument("--json", action="store_true", help="machine-readable output")

    p_cex = sub.add_parser(
        "counterexample",
        help="equal zeta data vs non-homeomorphic surfaces, demonstrated by enumeration",
    )
    p_cex.add_argument("--primes", required=True, type=_primes_list, metavar="P1,P2,...")
    p_cex.add_argument("--degrees", type=int, default=2, choices=(1, 2, 3))
    p_cex.add_argument("--json", action="store_true", help="machine-readable output")

    p_count = sub.add_parser("count", help="count points of a shipped model over GF(p^k)")
    p_count.add_argument("--variety", required=True, help="P1xP1, Bl1P2, or fermat1..fermat6")
    p_count.add_argument("--p", required=True, type=int, help="field characteristic")
    p_count.add_argument("--k", type=int, default=1, help="extension degree (1..3)")
    p_count.add_argument("--json", action="store_true", help="machine-readable output")

    args = parser.parse_args(argv)
    if args.command == "surface" and args.name is None and (
        args.c1sq is None or args.c2 is None
    ):
        p_surface.error("need --name, or both --c1sq and --c2")
    return args


def _run_classify(args) -> int:
    m = _load_gram(args.gram)
    mode = (
        ClassificationMode.SMOOTH_FOUR_MANIFOLD
        if args.smooth
        else ClassificationMode.ABSTRACT_LATTICE
    )
    inv = invariants(m)
    cls = classify_form(inv, mode)
    if args.json:
        print(_machine({"invariants": _invariants_dict(inv), "class": class_to_dict(cls)}))
    else:
        print(
            f"rank {inv.rank}  b+ {inv.b_plus}  b- {inv.b_minus}  "
            f"signature {inv.signature}  parity {inv.parity.value}  "
            f"determinant {inv.determinant}"
        )
        print(f"class: {describe(cls)}")
    return 0


def _surface_payload(s: SurfaceData) -> dict:
    inv = compute_invariants(s)
    cls = intersection_form_class(s)
    return {
        "surface": {"name": s.name, "c1_sq": s.c1_sq, "c2": s.c2, "spin": s.spin},
        "invariants": {
            "b2": inv.b2,
            "sigma": inv.sigma,
            "parity": inv.parity.value,
            "b_plus": inv.b_plus,
            "b_minus": inv.b_minus,
            "chi_holo": inv.chi_holo,
        },
        "class": class_to_dict(cls),
    }


def _print_surface_line(payload: dict):
    s = payload["surface"]
    inv = payload["invariants"]
    print(
        f"{s['name']}: c1^2 {s['c1_sq']}, c2 {s['c2']}, "
        f"{'spin' if s['spin'] else 'non-spin'}"
    )
    print(
        f"  b2 {inv['b2']}  signature {inv['sigma']}  parity {inv['parity']}  "
        f"b+ {inv['b_plus']}  b- {inv['b_minus']}  chi(O) {inv['chi_holo']}"
    )


def _run_surface(args) -> int:
    if args.name is not None:
        try:
            s = catalog_lookup(args.name)
        except KeyError as exc:
            raise InvalidInputError(str(exc)) from exc
    else:
        s = SurfaceData(name="surface", c1_sq=args.c1sq, c2=args.c2, spin=args.spin)
    payload = _surface_payload(s)
    if args.json:
        print(_machine(payload))
    else:
        _print_surface_line(payload)
        print(f"  intersection form: {describe(class_from_dict(payload['class']))}")
    return 0


def _run_compare(args) -> int:
    a = _surface_spec(args.a)
    b = _surface_spec(args.b)
    verdict = homeomorphic(a, b)
    pa, pb = _surface_payload(a), _surface_payload(b)
    if args.json:
        print(_machine({"a": pa, "b": pb, "homeomorphic": verdict}))
    else:
        for payload in (pa, pb):
            _print_surface_line(payload)
            print(f"  intersection form: {describe(class_from_dict(payload['class']))}")
        print(f"verdict: {'homeomorphic' if verdict else 'not homeomorphic'}")
    return 0


def _run_counterexample(args) -> int:
    report = counterexample_report(args.primes, degrees=args.degrees)
    if args.json:
        print(_machine(report))
        return 0
    print("surfaces: P1xP1 vs Bl1P2 (P2 blown up at a point)")
    for block in report["primes"]:
        for row in block["counts"]:
            mark = "==" if row["equal"] else "!="
            print(
                f"  q = {row['q']:>4}: {row['P1xP1']:>8} {mark} {row['Bl1P2']:>8}"
            )
    ca = describe(class_from_dict(report["form_classes"]["P1xP1"]))
    cb = describe(class_from_dict(report["form_classes"]["Bl1P2"]))
    print(f"intersection forms: {ca} vs {cb}")
    print(f"homeomorphic: {report['homeomorphic']}")
    print(report["conclusion"])
    return 0


def _run_count(args) -> int:
    field = build_field(args.p, args.k, max_q=DEFAULT_MAX_Q)
    try:
        pc = count_variety(args.variety, field)
    except KeyError as exc:
        raise InvalidInputError(str(exc)) from exc
    if args.json:
        print(
            _machine(
                {
                    "variety": pc.variety,
                    "p": args.p,
                    "k": args.k,
                    "q": pc.q,
                    "count": pc.count,
                }
            )
        )
    else:
        print(f"{pc.variety} over GF({pc.q}): {pc.count} points")
    return 0


_RUNNERS = {
    "classify": _run_classify,
    "surface": _run_surface,
    "compare": _run_compare,
    "counterexample": _run_counterexample,
    "count": _run_count,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed command; may raise DomainError or ValueError."""
    return _RUNNERS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except DomainError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
