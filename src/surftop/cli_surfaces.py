"""The `surface`, `compare` and `counterexample` commands of the CLI: the
invariants and form class of catalog or inline surfaces, and the
equal-zeta / different-topology demonstration."""

from .errors import InvalidInputError, text_repr


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


def run_surface(args) -> tuple[dict, list[str]]:
    from .surfaces import SurfaceData, catalog_lookup
    if args.name is not None:
        return _surface(catalog_lookup(args.name))
    return _surface(SurfaceData(name="surface", c1_sq=args.c1sq, c2=args.c2, spin=args.spin))


def run_compare(args) -> tuple[dict, list[str]]:
    from .surfaces import homeomorphic
    a = _surface_spec(args.a)
    b = _surface_spec(args.b)
    verdict = homeomorphic(a, b)
    (pa, ta), (pb, tb) = _surface(a), _surface(b)
    text = ta + tb + [f"verdict: {'homeomorphic' if verdict else 'not homeomorphic'}"]
    return {"a": pa, "b": pb, "homeomorphic": verdict}, text


def run_counterexample(args) -> tuple[dict, list[str]]:
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
