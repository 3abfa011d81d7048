"""Verify the stored Fermat point counts the benchmark checks CLI output against.

Each count in fermat_counts.json is recomputed with the naive chart
counter in tests/oracles.py (which shares no code with the production
enumerator), and, where the Fermat surface has good reduction (p does
not divide d), checked against the Weil bound |N - 1 - q^2| <= b2 q with
b2 = d(d^2 - 4d + 6) - 2.

Run from the repository root; it needs the full source tree, so it is a
one-off check, not part of a benchmark run:

    python3 perfbench/verify_counts.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = Path(__file__).resolve().parent / "fermat_counts.json"

# q -> (p, k) for every field the benchmark uses
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
          13: (13, 1), 25: (5, 2), 27: (3, 3), 31: (31, 1), 49: (7, 2)}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from oracles import naive_affine_chart_count
    from surftop.zeta import build_field, fermat_form

    table = json.loads(COUNTS.read_text())
    bad = 0
    for variety, row in table.items():
        d = int(variety.removeprefix("fermat"))
        b2 = d * (d * d - 4 * d + 6) - 2
        for q_text, stored in row.items():
            p, k = FIELDS[int(q_text)]
            field = build_field(p, k)
            naive = naive_affine_chart_count(fermat_form(d), field)
            weil = "n/a (bad prime)"
            ok = naive == stored
            if d % p:
                in_bound = abs(stored - 1 - field.q**2) <= b2 * field.q
                weil = "ok" if in_bound else "VIOLATED"
                ok = ok and in_bound
            bad += not ok
            print(f"{variety} q={field.q}: stored {stored} naive {naive} weil {weil}"
                  f"{'' if ok else '  MISMATCH'}", flush=True)
    print("all stored counts verified" if not bad else f"{bad} stored counts FAILED")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
