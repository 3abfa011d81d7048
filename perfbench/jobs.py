"""Seeded CLI job lists for the four benchmark workloads, with expected outputs.

Every job carries the exact stdout bytes, exit code and (for exit 1) the
stable error name it must produce. Expectations come from models kept
here, never from running surftop: catalog invariants from the closed
formulas for P2, its blowups and hypersurfaces in P3; form classes from
the class each Gram matrix was built from; P1xP1 and Bl1P2 counts from
(q+1)^2; Fermat counts from fermat_counts.json (see verify_counts.py).

A workload is a list of blocks. Each block is balanced: it holds the same
mix of job kinds and input sizes whatever the seed, so the cost of a
block varies little from seed to seed and a run that measures whole
blocks reports a stable mix. The seed picks orders, classes, fuzzing,
output modes and which inputs of a kind are used.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FERMAT_COUNTS = json.loads((Path(__file__).resolve().parent / "fermat_counts.json").read_text())

# q -> (p, k)
SMALL_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
FERMAT_FIELDS = {13: (13, 1), 31: (31, 1), 25: (5, 2), 27: (3, 3), 49: (7, 2)}
CEX_COUNT_FIELDS = {8: (2, 3), 25: (5, 2), 27: (3, 3), 49: (7, 2)}

CLASSIFY_RANKS = (26, 40, 64)


def _densities(levels: int) -> list[float]:
    return [round(0.05 + i * 0.95 / (levels - 1), 4) for i in range(levels)]


# rank -> fuzz densities of its unimodular forms in one block. Rank 26 comes
# twice over so that more than half of the jobs are cheap and the median job
# sits inside that cluster instead of on the steep edge of the cost curve.
# The five rank-64 forms are the slowest jobs; the tail job (11th largest
# of 38) falls mid-way among the ten or so dense rank-40 forms below them.
CLASSIFY_PLAN = {26: _densities(9) * 2, 40: _densities(12), 64: _densities(5)}
MAX_ENTRY_BITS = 20

CONCLUSION = (
    "point counts agree over every tested field, yet the surfaces are not "
    "homeomorphic: zeta data does not determine homeomorphism type"
)


@dataclass
class Job:
    """One CLI invocation and the output it must produce."""

    argv: list[str]
    exit_code: int = 0
    stdout: bytes = b""
    error: str | None = None  # stable error name expected on stderr (exit 1)
    kind: str = ""
    props: dict = field(default_factory=dict)
    gram: dict | None = None  # Gram object written to argv's --gram path during set-up


def check(job: Job, code: int, out: bytes, err: bytes) -> bool:
    """True when a finished job produced exactly what it must."""
    if code != job.exit_code or out != job.stdout or b"Traceback" in err:
        return False
    if job.exit_code == 1:
        return err.startswith(f"{job.error}: ".encode())
    if job.exit_code == 2:
        return b"usage" in err
    return True


def machine(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------- form classes


def _coeff(k: int) -> str:
    return "" if k == 1 else str(k)


def describe(cls: dict) -> str:
    v = cls["variant"]
    if v == "IndefiniteOdd":
        return f"{_coeff(cls['n_plus'])}⟨1⟩ ⊕ {_coeff(cls['n_minus'])}⟨-1⟩"
    if v == "IndefiniteEven":
        e8, parts = cls["e8_signed_count"], []
        if e8:
            parts.append(f"{'-' if e8 < 0 else ''}{_coeff(abs(e8))}E8")
        parts.append(f"{_coeff(cls['h_count'])}H")
        return " ⊕ ".join(parts)
    return f"{_coeff(cls['rank'])}⟨{cls['sign']}⟩"


def class_of(rank: int, sigma: int, even: bool, smooth: bool) -> dict | str:
    """Canonical class dict of a unimodular form, or the error name refusing it."""
    if abs(sigma) == rank:
        if not smooth:
            return "DefiniteNotClassified"
        if even:
            return "DefiniteEvenUnrealizable"
        return {"variant": "DefiniteDiagonal", "sign": 1 if sigma > 0 else -1, "rank": rank}
    if not even:
        return {"variant": "IndefiniteOdd", "n_plus": (rank + sigma) // 2, "n_minus": (rank - sigma) // 2}
    return {"variant": "IndefiniteEven", "e8_signed_count": sigma // 8, "h_count": (rank - abs(sigma)) // 2}


E8_ROWS = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def canonical_rows(cls: dict) -> list[list[int]]:
    """Block-diagonal Gram matrix of a class: diagonal ±1, or ±E8 blocks and H planes."""
    if cls["variant"] == "IndefiniteOdd":
        diagonal = [1] * cls["n_plus"] + [-1] * cls["n_minus"]
        blocks = [[[v]] for v in diagonal]
    elif cls["variant"] == "DefiniteDiagonal":
        blocks = [[[cls["sign"]]]] * cls["rank"]
    else:
        e8 = cls["e8_signed_count"]
        sign = 1 if e8 > 0 else -1
        blocks = [[[sign * v for v in row] for row in E8_ROWS]] * abs(e8)
        blocks += [[[0, 1], [1, 0]]] * cls["h_count"]
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off : off + len(row)] = row
        off += len(b)
    return rows


def fuzz(rows: list[list[int]], rng: random.Random, density: float, bits: int) -> list[list[int]]:
    """Congruent matrix P^T A P under seeded unimodular basis changes.

    Applies the elementary moves of surftop's random_unimodular_transform
    (add ± one basis vector to another, swap two, negate one) in place,
    until at least `density` of the entries are nonzero and the largest
    entry has at least `bits` bits; a move that would push an entry past
    MAX_ENTRY_BITS bits is skipped.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    if n < 2:
        return a
    cap = 1 << MAX_ENTRY_BITS
    floor = 1 << (bits - 1)
    nnz = sum(1 for r in a for v in r if v)
    big = max(abs(v) for r in a for v in r)
    for _ in range(400 * n * n):
        if nnz >= density * n * n and big >= floor:
            break
        i, j = rng.sample(range(n), 2)
        move = rng.random()
        if move < 0.1:
            a[i], a[j] = a[j], a[i]
            for r in a:
                r[i], r[j] = r[j], r[i]
            continue
        if move < 0.2:
            a[i] = [-v for v in a[i]]
            for r in a:
                r[i] = -r[i]
            continue
        s = rng.choice((1, -1))
        new = [a[i][t] + s * a[j][t] for t in range(n)]
        new[i] = a[i][i] + 2 * s * a[i][j] + a[j][j]
        if max(abs(v) for v in new) >= cap:
            continue
        nnz += 2 * (sum(1 for v in new if v) - sum(1 for v in a[i] if v))
        nnz -= bool(new[i]) - bool(a[i][i])
        a[i] = new
        for t in range(n):
            a[t][i] = new[t]
        big = max(big, max(abs(v) for v in new))
    return a


CLASS_KINDS = ("odd", "even", "definite")


def _random_class(rng: random.Random, rank: int, definite_ok: bool = True, kind: str | None = None) -> dict:
    """A seeded class of the given rank, of the given kind or a seeded one."""
    if kind is None:
        kinds = list(CLASS_KINDS) if definite_ok else ["odd", "even"]
        if rank < 2:
            kinds = ["definite"]
        kind = rng.choice(kinds)
    if kind == "definite":
        return {"variant": "DefiniteDiagonal", "sign": rng.choice((1, -1)), "rank": rank}
    if kind == "even" and rank % 2 == 0:
        e8 = rng.randint(-((rank - 2) // 8), (rank - 2) // 8)
        return {"variant": "IndefiniteEven", "e8_signed_count": e8, "h_count": (rank - 8 * abs(e8)) // 2}
    n_plus = rng.randint(1, rank - 1)
    return {"variant": "IndefiniteOdd", "n_plus": n_plus, "n_minus": rank - n_plus}


def _classify_job(rows, cls, smooth: bool, as_json: bool, path: str, props: dict) -> Job:
    argv = ["classify", "--gram", path] + (["--smooth"] if smooth else []) + (["--json"] if as_json else [])
    n = len(rows)
    props = dict(props, rank=n, density=round(sum(1 for r in rows for v in r if v) / (n * n), 4),
                 entry_bits=max(abs(v) for r in rows for v in r).bit_length())
    job = Job(argv, kind="classify", props=props, gram={"n": n, "entries": rows})
    if isinstance(cls, str):
        job.exit_code, job.error = 1, cls
        return job
    if cls["variant"] == "IndefiniteOdd":
        b_plus, b_minus, even = cls["n_plus"], cls["n_minus"], False
    elif cls["variant"] == "IndefiniteEven":
        e8, h = cls["e8_signed_count"], cls["h_count"]
        b_plus, b_minus, even = 8 * max(e8, 0) + h, 8 * max(-e8, 0) + h, True
    else:
        b_plus, b_minus, even = (n, 0, False) if cls["sign"] > 0 else (0, n, False)
    got = class_of(n, b_plus - b_minus, even, smooth)
    if isinstance(got, str):
        job.exit_code, job.error = 1, got
        return job
    inv = {"rank": n, "b_plus": b_plus, "b_minus": b_minus, "signature": b_plus - b_minus,
           "parity": "even" if even else "odd", "determinant": (-1) ** b_minus}
    if as_json:
        job.stdout = machine({"invariants": inv, "class": got})
    else:
        job.stdout = (
            f"rank {n}  b+ {b_plus}  b- {b_minus}  signature {b_plus - b_minus}  "
            f"parity {inv['parity']}  determinant {inv['determinant']}\nclass: {describe(got)}\n"
        ).encode()
    return job


def classify_block(rng: random.Random, gram_dir: str, tag: str) -> list[Job]:
    """Per rank in {26, 40, 64}: the unimodular forms of CLASSIFY_PLAN, fuzzed
    to densities 0.05..1.0 (entry bits rising with density up to 20), and
    one degenerate or non-unimodular form, which must exit 1. The kind of
    class (odd, even, definite) cycles with the position in the density
    list, so every seed pairs the same kinds with the same densities and
    the block's cost varies little with the seed. Definite classes run
    with --smooth; about a third of the indefinite ones do too."""
    jobs = []
    for rank, densities in CLASSIFY_PLAN.items():
        for i, density in enumerate(densities):
            cls = _random_class(rng, rank, kind=CLASS_KINDS[i % 3])
            smooth = cls["variant"] == "DefiniteDiagonal" or rng.random() < 0.35
            bits = max(2, round(MAX_ENTRY_BITS * density))
            rows = fuzz(canonical_rows(cls), rng, density, bits)
            path = f"{gram_dir}/{tag}-{len(jobs)}.json"
            jobs.append(_classify_job(rows, cls, smooth, rng.random() < 0.5, path, {"class": cls["variant"]}))
        # one bad form per rank, at the middle density
        cls = _random_class(rng, rank - 1, definite_ok=False)
        rows = canonical_rows(cls)
        if rng.random() < 0.5:
            bad, error = 0, "DegenerateForm"
        else:
            bad, error = rng.choice((2, -2, 3)), "NotUnimodular"
        for r in rows:
            r.append(0)
        rows.append([0] * rank)
        rows[-1][-1] = bad
        rows = fuzz(rows, rng, 0.53, 11)
        path = f"{gram_dir}/{tag}-{len(jobs)}.json"
        jobs.append(_classify_job(rows, error, False, rng.random() < 0.5, path, {"class": error}))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------- counting


def count_job(variety: str, q: int, p: int, k: int, as_json: bool) -> Job:
    if variety in ("P1xP1", "Bl1P2"):
        n = (q + 1) ** 2
    else:
        n = FERMAT_COUNTS[variety][str(q)]
    argv = ["count", "--variety", variety, "--p", str(p), "--k", str(k)] + (["--json"] if as_json else [])
    if as_json:
        out = machine({"variety": variety, "p": p, "k": k, "q": q, "count": n})
    else:
        out = f"{variety} over GF({q}): {n} points\n".encode()
    return Job(argv, stdout=out, kind="count", props={"variety": variety, "q": q, "k": k})


def fermat_block(rng: random.Random) -> list[Job]:
    """fermat3..fermat6 over each of GF(13), GF(25), GF(27), GF(31) and
    GF(31) twice more, and two seeded degrees over GF(49), in seeded order
    and output mode. The GF(25) and GF(31) jobs cost nearly the same for
    every degree; with 16 of them in 26 jobs, both the median job and the
    tail job (11th largest) sit inside that tight cluster. Two GF(49) jobs,
    not four, keep the seconds-long jobs from dominating jobs/s."""
    fields = [*FERMAT_FIELDS.items(), (31, FERMAT_FIELDS[31]), (31, FERMAT_FIELDS[31])]
    jobs = [count_job(f"fermat{d}", q, p, k, rng.random() < 0.5) for d in (3, 4, 5, 6) for q, (p, k) in fields if q != 49]
    jobs += [count_job(f"fermat{d}", 49, 7, 2, rng.random() < 0.5) for d in rng.sample((3, 4, 5, 6), 2)]
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------- surfaces

# name -> (c1^2, c2, spin), from the closed formulas, not from catalog.json
CATALOG = {
    "P2": (9, 3, False),
    "P1xP1": (8, 4, True),
    **{f"Bl{k}P2": (9 - k, 3 + k, False) for k in range(1, 10)},
    **{f"deg{d}": (d * (d - 4) ** 2, d * (d * d - 4 * d + 6), d % 2 == 0) for d in range(1, 7)},
}
ALIASES = {"BlP2": "Bl1P2", "K3": "deg4", "Quadric": "deg2", "Cubic": "deg3"}


def surface_payload(name: str, c1: int, c2: int, spin: bool) -> dict | str:
    """The CLI's surface payload, or the error name rejecting the data."""
    if (c1 + c2) % 12 or c2 < 3 or (c1 - 2 * c2) % 3:
        return "InvalidSurface"
    sigma, b2 = (c1 - 2 * c2) // 3, c2 - 2
    if (b2 + sigma) % 2:
        return "InvalidSurface"
    b_plus, b_minus = (b2 + sigma) // 2, (b2 - sigma) // 2
    if b_plus < 1 or b_minus < 0 or (spin and sigma % 8):
        return "InvalidSurface"
    cls = class_of(b2, sigma, spin, smooth=True)
    if isinstance(cls, str):
        return cls
    return {
        "surface": {"name": name, "c1_sq": c1, "c2": c2, "spin": spin},
        "invariants": {"b2": b2, "sigma": sigma, "parity": "even" if spin else "odd",
                       "b_plus": b_plus, "b_minus": b_minus, "chi_holo": (c1 + c2) // 12},
        "class": cls,
    }


def surface_text(payload: dict) -> str:
    s, inv = payload["surface"], payload["invariants"]
    return (
        f"{s['name']}: c1^2 {s['c1_sq']}, c2 {s['c2']}, {'spin' if s['spin'] else 'non-spin'}\n"
        f"  b2 {inv['b2']}  signature {inv['sigma']}  parity {inv['parity']}  "
        f"b+ {inv['b_plus']}  b- {inv['b_minus']}  chi(O) {inv['chi_holo']}\n"
        f"  intersection form: {describe(payload['class'])}\n"
    )


def _finish(job: Job, result, as_json: bool, text) -> Job:
    if isinstance(result, str):
        job.exit_code, job.error = 1, result
    else:
        job.stdout = machine(result) if as_json else text(result).encode()
    return job


def surface_name_job(name: str, as_json: bool) -> Job:
    canonical = ALIASES.get(name, name)
    payload = surface_payload(canonical, *CATALOG[canonical])
    argv = ["surface", "--name", name] + (["--json"] if as_json else [])
    return _finish(Job(argv, kind="surface"), payload, as_json, surface_text)


def surface_raw_job(c1: int, c2: int, spin: bool, as_json: bool) -> Job:
    argv = ["surface", "--c1sq", str(c1), "--c2", str(c2)] + (["--spin"] if spin else []) + (["--json"] if as_json else [])
    return _finish(Job(argv, kind="surface"), surface_payload("surface", c1, c2, spin), as_json, surface_text)


def _raw_surface(rng: random.Random, valid: bool) -> tuple[int, int, bool]:
    while True:
        c1, c2, spin = rng.randint(-12, 60), rng.randint(-2, 80), rng.random() < 0.3
        if isinstance(surface_payload("surface", c1, c2, spin), dict) == valid:
            return c1, c2, spin


def _spec(rng: random.Random) -> tuple[str, dict]:
    """A compare SPEC (catalog name, alias or 'c1sq,c2[,spin]') and its payload."""
    if rng.random() < 0.6:
        name = rng.choice(list(CATALOG) + list(ALIASES))
        return name, surface_payload(ALIASES.get(name, name), *CATALOG[ALIASES.get(name, name)])
    while True:  # non-negative c1^2, so the spec never reads as an option
        c1, c2, spin = _raw_surface(rng, valid=True)
        if c1 >= 0:
            spec = f"{c1},{c2}{',spin' if spin else ''}"
            return spec, surface_payload(spec, c1, c2, spin)


def compare_job(a: tuple[str, dict], b: tuple[str, dict], as_json: bool) -> Job:
    (sa, pa), (sb, pb) = a, b
    argv = ["compare", "--a", sa, "--b", sb] + (["--json"] if as_json else [])
    key = ("b2", "sigma", "parity")
    verdict = [pa["invariants"][k] for k in key] == [pb["invariants"][k] for k in key]
    if as_json:
        out = machine({"a": pa, "b": pb, "homeomorphic": verdict})
    else:
        out = (surface_text(pa) + surface_text(pb)
               + f"verdict: {'homeomorphic' if verdict else 'not homeomorphic'}\n").encode()
    return Job(argv, stdout=out, kind="compare")


# ------------------------------------------------------------- counterexample


def counterexample_job(primes: list[int], degrees: int, as_json: bool) -> Job:
    argv = ["counterexample", "--primes", ",".join(map(str, primes)), "--degrees", str(degrees)]
    argv += ["--json"] if as_json else []
    pq, bl = (surface_payload(n, *CATALOG[n]) for n in ("P1xP1", "Bl1P2"))
    blocks = [
        {"p": p, "counts": [{"q": p**k, "P1xP1": (p**k + 1) ** 2, "Bl1P2": (p**k + 1) ** 2, "equal": True}
                            for k in range(1, degrees + 1)]}
        for p in primes
    ]
    report = {
        "surfaces": ["P1xP1", "Bl1P2"],
        "degrees": degrees,
        "primes": blocks,
        "all_counts_equal": True,
        "homeomorphic": False,
        "form_classes": {"P1xP1": pq["class"], "Bl1P2": bl["class"]},
        "invariants": {s["surface"]["name"]: {k: s["invariants"][k] for k in ("b2", "sigma", "parity")}
                       for s in (pq, bl)},
        "conclusion": CONCLUSION,
    }
    if as_json:
        out = machine(report)
    else:
        lines = ["surfaces: P1xP1 vs Bl1P2 (P2 blown up at a point)"]
        for block in blocks:
            for row in block["counts"]:
                lines.append(f"  q = {row['q']:>4}: {row['P1xP1']:>8} == {row['Bl1P2']:>8}")
        lines.append(f"intersection forms: {describe(pq['class'])} vs {describe(bl['class'])}")
        lines += ["homeomorphic: False", CONCLUSION]
        out = ("\n".join(lines) + "\n").encode()
    return Job(argv, stdout=out, kind="counterexample", props={"primes": primes, "degrees": degrees})


def counterexample_block(rng: random.Random) -> list[Job]:
    """{2,3,5,7} at --degrees 2, split into {7, 2 or 3} and {5, 3 or 2} in
    seeded order, so each block counts every prime once and costs the same
    whatever the seed; {2,3} at --degrees 3 in seeded
    order; Bl1P2 counted over GF(8), GF(25) and GF(27), and P1xP1 over two
    of GF(8), GF(25), GF(27), GF(49).

    The job costs fall into four tiers: the half with 7 (GF(49) dominates);
    --degrees 3 and Bl1P2 over GF(27); the half with 5 and Bl1P2 over GF(25);
    the cheap counts. Over a run of six sub-blocks the tail job (11th
    largest of 48) is in the middle of the second tier and the median job in
    the middle of the third, away from the gaps between tiers, where a
    percentile would jump with per-job noise."""
    small = rng.sample([2, 3], 2)
    halves = [rng.sample([7, small[0]], 2), rng.sample([5, small[1]], 2)]
    jobs = [counterexample_job(half, 2, rng.random() < 0.7) for half in halves]
    jobs.append(counterexample_job(rng.sample([2, 3], 2), 3, rng.random() < 0.7))
    jobs += [count_job("Bl1P2", q, *CEX_COUNT_FIELDS[q], rng.random() < 0.5) for q in (8, 25, 27)]
    for q in rng.sample(sorted(CEX_COUNT_FIELDS), 2):
        jobs.append(count_job("P1xP1", q, *CEX_COUNT_FIELDS[q], rng.random() < 0.5))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ cli-small

USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["classify"],
    ["surface"],
    ["surface", "--c1sq", "8"],
    ["compare", "--a", "P2"],
    ["counterexample", "--primes", "2,x"],
    ["counterexample", "--primes", "2", "--degrees", "4"],
    ["count", "--variety", "P1xP1", "--p", "19", "--k", "2"],
    ["count", "--variety", "fermat4", "--p", "five"],
]

# argv -> error name of a domain rejection that exits 1
DOMAIN_ERRORS = [
    (["count", "--variety", "fermat4", "--p", "9"], "NotPrime"),
    (["count", "--variety", "P1xP1", "--p", "5", "--k", "4"], "UnsupportedDegree"),
    (["count", "--variety", "fermat9", "--p", "5"], "InvalidInput"),
    (["surface", "--name", "Enriques"], "InvalidInput"),
    (["compare", "--a", "P2", "--b", "3,4,spin"], "InvalidSurface"),
    (["counterexample", "--primes", "2,4"], "NotPrime"),
]


def cli_small_block(rng: random.Random, gram_dir: str, tag: str) -> list[Job]:
    """Jobs under 0.2 s: surface for every catalog name and alias, raw
    surfaces (two valid, two invalid), four compare pairs, four classify
    jobs at rank <= 10, four counts at q <= 9, counterexample --primes 2
    --degrees 1, two domain rejections (exit 1) and three usage errors
    (exit 2)."""
    coin = lambda: rng.random() < 0.5  # noqa: E731
    jobs = [surface_name_job(name, coin()) for name in list(CATALOG) + list(ALIASES)]
    jobs += [surface_raw_job(*_raw_surface(rng, valid), coin()) for valid in (True, True, False, False)]
    jobs += [compare_job(_spec(rng), _spec(rng), coin()) for _ in range(4)]
    for i in range(4):
        rank = rng.randint(1, 10)
        cls = _random_class(rng, rank)
        smooth = cls["variant"] == "DefiniteDiagonal" or coin()
        rows = fuzz(canonical_rows(cls), rng, rng.uniform(0.1, 1.0), rng.randint(2, 12))
        jobs.append(_classify_job(rows, cls, smooth, coin(), f"{gram_dir}/{tag}-c{i}.json", {"class": cls["variant"]}))
    for _ in range(4):
        variety = rng.choice(["P1xP1", "Bl1P2"] + [f"fermat{d}" for d in range(1, 7)])
        q = rng.choice(sorted(SMALL_FIELDS))
        jobs.append(count_job(variety, q, *SMALL_FIELDS[q], coin()))
    jobs.append(counterexample_job([2], 1, coin()))
    for argv, error in rng.sample(DOMAIN_ERRORS, 2):
        jobs.append(Job(list(argv), exit_code=1, error=error, kind="domain-error"))
    for argv in rng.sample(USAGE_ERRORS, 3):
        jobs.append(Job(list(argv), exit_code=2, kind="usage-error"))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ workloads

WORKLOADS = ("fermat", "counterexample", "classify", "cli-small")


# balanced sub-blocks per block, so that one block, with the reference runs
# between its jobs, takes 20-30 s on a 2-vCPU Xeon VM at the commit that
# defined the benchmark, and a 20 s run measures one whole block
SUBBLOCKS = {"fermat": 1, "counterexample": 6, "classify": 1, "cli-small": 2}


def make_blocks(workload: str, seed: int, count: int, gram_dir: str) -> list[list[Job]]:
    """`count` blocks of one workload, all derived from `seed`."""
    if workload not in SUBBLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    blocks = []
    for b in range(count):
        block = []
        for sub in range(SUBBLOCKS[workload]):
            tag = f"b{b}s{sub}"
            if workload == "fermat":
                block += fermat_block(rng)
            elif workload == "counterexample":
                block += counterexample_block(rng)
            elif workload == "classify":
                block += classify_block(rng, gram_dir, tag)
            else:
                block += cli_small_block(rng, gram_dir, tag)
        blocks.append(block)
    return blocks


def coverage_jobs(gram_dir: str) -> list[Job]:
    """Small fixed jobs that reach every traced layer metric: each counted
    model at k = 1, 2, 3; one sparse form at each classify rank; the
    counterexample report; text output (describe) and compare."""
    rng = random.Random("coverage")
    jobs = [count_job(v, q, *SMALL_FIELDS[q], True) for v in ("P1xP1", "Bl1P2", "fermat4") for q in (5, 9, 8)]
    for rank in CLASSIFY_RANKS:
        cls = {"variant": "IndefiniteOdd", "n_plus": rank // 2, "n_minus": rank - rank // 2}
        rows = fuzz(canonical_rows(cls), rng, 0.05, 2)
        jobs.append(_classify_job(rows, cls, False, False, f"{gram_dir}/coverage-{rank}.json", {}))
    jobs.append(counterexample_job([2], 1, True))
    jobs.append(surface_name_job("K3", False))
    deg3, bl6 = (surface_payload(n, *CATALOG[n]) for n in ("deg3", "Bl6P2"))
    jobs.append(compare_job(("deg3", deg3), ("Bl6P2", bl6), True))
    return jobs


def write_grams(blocks: list[list[Job]]) -> None:
    for block in blocks:
        for job in block:
            if job.gram is not None:
                path = Path(job.argv[job.argv.index("--gram") + 1])
                path.write_text(json.dumps(job.gram))
