"""CLI output pinned byte for byte.

`tests/data/cli_golden.json` maps each case below to its exit code, its
exact stdout and the error name that starts its stderr (null when stderr
is empty). Every subcommand runs in text and --json mode, each case both
through `main(argv)` and as a program in its own process. The file was
captured before the CLI's result path was refactored; rewrite it only for
a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import surftop
from surftop.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
PROGRAM = "import sys; from surftop.cli import main; sys.exit(main())"

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]
H = [[0, 1], [1, 0]]


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return {"n": n, "entries": out}


def diagonal(*values):
    return direct_sum(*[[[v]] for v in values])


GRAMS = {
    "H": direct_sum(H),
    "odd": diagonal(1, -1, -1),
    "E8+H": direct_sum(E8, H),
    "-E8+H": direct_sum([[-v for v in row] for row in E8], H),
    "definite": diagonal(1, 1, 1),
    "E8": direct_sum(E8),
}

# case id -> argv; "{gram:NAME}" stands for a file holding GRAMS[NAME]
_BOTH_MODES = {
    "classify H": ["classify", "--gram", "{gram:H}"],
    "classify odd": ["classify", "--gram", "{gram:odd}"],
    "classify E8+H": ["classify", "--gram", "{gram:E8+H}"],
    "classify -E8+H": ["classify", "--gram", "{gram:-E8+H}"],
    "classify definite smooth": ["classify", "--gram", "{gram:definite}", "--smooth"],
    "surface K3": ["surface", "--name", "K3"],
    "surface numbers": ["surface", "--c1sq", "0", "--c2", "24", "--spin"],
    "surface numbers non-spin": ["surface", "--c1sq", "5", "--c2", "7"],
    "compare P1xP1 BlP2": ["compare", "--a", "P1xP1", "--b", "BlP2"],
    "compare deg3 Bl6P2": ["compare", "--a", "deg3", "--b", "Bl6P2"],
    "compare inline": ["compare", "--a", "8,4,spin", "--b", "1,11"],
    "counterexample 2,3": ["counterexample", "--primes", "2,3", "--degrees", "2"],
    **{
        f"count {v} k{k}": ["count", "--variety", v, "--p", "3", "--k", str(k)]
        for v in ("fermat4", "Bl1P2", "P1xP1")
        for k in (1, 2, 3)
    },
}
CASES = {
    **_BOTH_MODES,
    **{f"{name} --json": argv + ["--json"] for name, argv in _BOTH_MODES.items()},
    # the exit-1 cases of the benchmark's cli-small workload
    "domain NotPrime count": ["count", "--variety", "fermat4", "--p", "9"],
    "domain UnsupportedDegree": ["count", "--variety", "P1xP1", "--p", "5", "--k", "4"],
    "domain InvalidInput variety": ["count", "--variety", "fermat9", "--p", "5"],
    "domain InvalidInput surface": ["surface", "--name", "Enriques"],
    "domain InvalidSurface": ["compare", "--a", "P2", "--b", "3,4,spin"],
    "domain NotPrime counterexample": ["counterexample", "--primes", "2,4"],
    "domain DefiniteNotClassified": ["classify", "--gram", "{gram:E8}"],
    "domain DefiniteEvenUnrealizable": ["classify", "--gram", "{gram:E8}", "--smooth"],
    "usage over cap": ["count", "--variety", "P1xP1", "--p", "347", "--json"],
    "usage huge prime": ["counterexample", "--primes", "1000000000000000003"],
}


def _with_grams(argv: list[str], gram_dir: Path) -> list[str]:
    """argv with each "{gram:NAME}" replaced by a file written in gram_dir."""
    real = []
    for arg in argv:
        if arg.startswith("{gram:"):
            name = arg[len("{gram:") : -1]
            path = gram_dir / f"{len(real)}.json"
            path.write_text(json.dumps(GRAMS[name]))
            arg = str(path)
        real.append(arg)
    return real


def _result(code, stdout: str, stderr: str) -> dict:
    return {"exit": code, "stdout": stdout, "error": stderr.split(":", 1)[0] if stderr else None}


def run_case(argv: list[str], gram_dir: Path) -> dict:
    """Run main on argv; return its exit code, stdout and stderr error name."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_with_grams(argv, gram_dir))
    return _result(code, out.getvalue(), err.getvalue())


def run_program(argv: list[str], gram_dir: Path) -> dict:
    """run_case through the program path: main() in a fresh process, which
    ends it with os._exit. Strict UTF-8 decoding makes equal text mean
    equal stdout bytes."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROGRAM, *_with_grams(argv, gram_dir)],
        env={"PYTHONPATH": str(Path(surftop.__file__).parents[1]), "PATH": "", "PYTHONIOENCODING": "utf-8"},
        capture_output=True,
    )
    return _result(proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes(case, tmp_path):
    expected = json.loads(GOLDEN.read_text()).get(case)
    assert run_case(CASES[case], tmp_path) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_bytes(case, tmp_path):
    expected = json.loads(GOLDEN.read_text()).get(case)
    assert run_program(CASES[case], tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_case(argv, Path(tmp)) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
