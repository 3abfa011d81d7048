"""Simply-connected smooth projective surfaces from numerical data.

A surface is carried by the specialization-invariant integers
(c1^2, c2) plus a spin flag. From these the Betti numbers, signature
(via (c1^2 - 2 c2)/3), holomorphic Euler characteristic ((c1^2 + c2)/12)
and intersection-form parity are derived exactly, and oriented
homeomorphism is decided by comparing (b2, signature, parity).

Validation is strict: triples that violate an integrality or positivity
constraint raise InvalidSurfaceError rather than being classified.
"""

from functools import lru_cache

from . import Record
from .classification import ClassificationMode, FormClass, FormInvariants, Parity, classify_form
from .errors import InvalidInputError, InvalidSurfaceError, int_text, text_repr

# convenience spellings accepted by name lookup
_ALIASES = {"BlP2": "Bl1P2", "K3": "deg4", "Quadric": "deg2", "Cubic": "deg3"}


class SurfaceData(Record):
    """(c1^2, c2, spin) with a human label; may be invalid until checked."""

    name: str
    c1_sq: int
    c2: int
    spin: bool


class SurfaceInvariants(Record):
    b2: int
    sigma: int
    parity: Parity
    b_plus: int
    b_minus: int
    chi_holo: int


def compute_invariants(s: SurfaceData) -> SurfaceInvariants:
    """Derived topological invariants, or InvalidSurfaceError.

    sigma = (c1^2 - 2 c2)/3 and b2 = c2 - 2 (simple connectivity gives
    b0 = b4 = 1, b1 = b3 = 0); chi(O) = (c1^2 + c2)/12 must be integral.
    """
    c1, c2 = s.c1_sq, s.c2
    name = s.name if len(s.name) <= 40 else text_repr(s.name)  # a long inline spec is cut
    if (c1 + c2) % 12 != 0:
        raise InvalidSurfaceError(f"{name}: c1^2 + c2 = {int_text(c1 + c2)} not divisible by 12")
    if c2 < 3:
        raise InvalidSurfaceError(f"{name}: c2 = {int_text(c2)} < 3, no room for a hyperplane class")
    # 12 | c1^2 + c2 makes sigma integral and b2 + sigma = 4 chi(O) - 2 even
    sigma = (c1 - 2 * c2) // 3
    b2 = c2 - 2
    b_plus = (b2 + sigma) // 2
    b_minus = (b2 - sigma) // 2
    if b_plus < 1:
        raise InvalidSurfaceError(f"{name}: derived b+ = {int_text(b_plus)} < 1")
    if b_minus < 0:
        raise InvalidSurfaceError(f"{name}: derived b- = {int_text(b_minus)} < 0")
    par = Parity.EVEN if s.spin else Parity.ODD
    if par is Parity.EVEN and sigma % 8 != 0:
        raise InvalidSurfaceError(
            f"{name}: spin surface cannot have signature {int_text(sigma)} (not 0 mod 8)"
        )
    return SurfaceInvariants(
        b2=b2,
        sigma=sigma,
        parity=par,
        b_plus=b_plus,
        b_minus=b_minus,
        chi_holo=(c1 + c2) // 12,
    )


def intersection_form_class(s: SurfaceData) -> FormClass:
    """Canonical class of the intersection form on middle cohomology.

    The pairing is unimodular, so the determinant is (-1)**b_minus;
    classification always runs under the smooth four-manifold hypothesis.
    """
    inv = compute_invariants(s)
    form = FormInvariants(
        rank=inv.b2,
        b_plus=inv.b_plus,
        b_minus=inv.b_minus,
        signature=inv.sigma,
        parity=inv.parity,
        determinant=1 if inv.b_minus % 2 == 0 else -1,
    )
    return classify_form(form, ClassificationMode.SMOOTH_FOUR_MANIFOLD)


def homeomorphic(x: SurfaceData, y: SurfaceData) -> bool:
    """Oriented homeomorphism decision: (b2, signature, parity) must agree."""
    a = compute_invariants(x)
    b = compute_invariants(y)
    return (a.b2, a.sigma, a.parity) == (b.b2, b.sigma, b.parity)


def hypersurface(d: int) -> SurfaceData:
    """Smooth degree-d surface in P3: c1^2 = d(d-4)^2, c2 = d(d^2-4d+6).

    The canonical class is (d-4) times the hyperplane class, so the
    surface is spin exactly when d is even.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    return SurfaceData(
        name=f"degree-{d} surface in P3",
        c1_sq=d * (d - 4) ** 2,
        c2=d * (d * d - 4 * d + 6),
        spin=(d % 2 == 0),
    )


def blow_up(s: SurfaceData, k: int) -> SurfaceData:
    """Blow up k points: c1^2 drops by k, c2 grows by k.

    Each exceptional class has odd self-intersection -1, so any actual
    blowup (k >= 1) is never spin.
    """
    if k < 0:
        raise ValueError("cannot blow up a negative number of points")
    if k == 0:
        return s
    return SurfaceData(
        name=f"{s.name} blown up at {k} point{'s' if k > 1 else ''}",
        c1_sq=s.c1_sq - k,
        c2=s.c2 + k,
        spin=False,
    )


@lru_cache(maxsize=1)
def _load_catalog() -> tuple[SurfaceData, ...]:
    p2 = SurfaceData(name="P2", c1_sq=9, c2=3, spin=False)
    entries = (
        p2,
        SurfaceData(name="P1xP1", c1_sq=8, c2=4, spin=True),
        *(blow_up(p2, k)._replace(name=f"Bl{k}P2") for k in range(1, 10)),
        *(hypersurface(d)._replace(name=f"deg{d}") for d in range(1, 7)),
    )
    for s in entries:
        compute_invariants(s)  # every shipped entry must validate
    return entries


def catalog() -> list[SurfaceData]:
    """All shipped surfaces, built from blow_up and hypersurface and
    validated on first call."""
    return list(_load_catalog())


def catalog_lookup(name: str) -> SurfaceData:
    """Catalog entry by name (a few aliases accepted); InvalidInput if absent."""
    wanted = _ALIASES.get(name, name)
    for s in _load_catalog():
        if s.name == wanted:
            return s
    raise InvalidInputError(f"no catalog surface named {text_repr(name)}")
