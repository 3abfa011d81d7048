"""The CLI pinned byte for byte: one table of exit code, stdout and stderr.

CASES maps each case name to an argv, and `tests/data/cli_golden.json`
each case name to its exit code, stdout and full stderr. The cases are
every command in text and --json mode, the help screens, the benchmark's
usage and domain errors (`perfbench/jobs.py`), argv off the form that
every valid command takes, the argv that argparse before 3.13.13 reads
otherwise, and the argv of the command tests, which check their rows
with `check_rows`. Every case runs through `main(argv)` and as the
program, in a fresh process, both in a working directory that holds
FILES, which argv names relatively; the program runs with COLUMNS=40,
which help ignores. The rows print every error name the CLI can reach:
all but `ZeroForm` (no shipped model vanishes mod p) and
`InconsistentEvenSignature` (an even unimodular form has signature
divisible by 8); test_cli.py's TestOutputHygiene checks every row's
output. Python 3.10 to 3.13 print the same bytes. To compare every row
in process on any interpreter, without pytest, run

    PYTHONPATH=src python -S tests/test_cli_golden.py --check

Rewrite the file only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from functools import cache
from pathlib import Path

from oracles import E8, HYPERBOLIC, MINUS_E8, block_diag, diag, gram_to_dict, run_fresh
from surftop.cli import _GRAMMAR, main
from surftop.errors import DomainError
from surftop.lattice import GramMatrix

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
PROGRAM = "import sys; from surftop.cli import main; sys.exit(main())"


def perfbench_jobs():
    """perfbench/jobs.py, imported by path: the benchmark's job lists."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", Path(__file__).parents[1] / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module


JOBS = perfbench_jobs()
N = "9" * 4300  # c1^2 + c2 = 2N has more digits than str() converts
SEVENS = int("7" * 3000)  # [[0, a], [a, 0]] has a determinant of 6000 digits

FILES = {
    **{name: json.dumps(gram_to_dict(m)) for name, m in {
        "h.json": HYPERBOLIC,
        "odd.json": diag(1, -1, -1),
        "e8+h.json": block_diag(E8, HYPERBOLIC),
        "neg-e8+h.json": block_diag(MINUS_E8, HYPERBOLIC),
        "definite.json": diag(1, 1, 1),
        "e8.json": E8,
        "one.json": diag(1),
        "zero.json": diag(0),
        "empty.json": diag(),
        "big.json": GramMatrix([[10**40 + 1, 1], [1, 0]]),  # odd only if read exactly
        "det6000.json": GramMatrix([[0, SEVENS], [SEVENS, 0]]),
    }.items()},
    "asym.json": '{"n": 2, "entries": [[0, 1], [2, 0]]}',
    "bad.json": "{not json",
}

_BOTH_MODES = {
    "classify H": ["classify", "--gram", "h.json"],
    "classify odd": ["classify", "--gram", "odd.json"],
    "classify E8+H": ["classify", "--gram", "e8+h.json"],
    "classify -E8+H": ["classify", "--gram", "neg-e8+h.json"],
    "classify definite smooth": ["classify", "--gram", "definite.json", "--smooth"],
    "surface K3": ["surface", "--name", "K3"],
    "surface numbers": ["surface", "--c1sq", "0", "--c2", "24", "--spin"],
    "surface numbers non-spin": ["surface", "--c1sq", "5", "--c2", "7"],
    "surface N N": ["surface", "--c1sq", N, "--c2", N],
    "surface 1 N": ["surface", "--c1sq", "1", "--c2", N],
    "compare P1xP1 BlP2": ["compare", "--a", "P1xP1", "--b", "BlP2"],
    "compare deg3 Bl6P2": ["compare", "--a", "deg3", "--b", "Bl6P2"],
    "compare inline": ["compare", "--a", "8,4,spin", "--b", "1,11"],
    "compare N,N K3": ["compare", "--a", f"{N},{N}", "--b", "K3"],
    "counterexample 2,3": ["counterexample", "--primes", "2,3", "--degrees", "2"],
    "counterexample 3": ["counterexample", "--primes", "3", "--degrees", "2"],
    "count p of 1500 nines k3": ["count", "--variety", "fermat4", "--p", "9" * 1500, "--k", "3"],
    **{
        f"count {v} k{k}": ["count", "--variety", v, "--p", "3", "--k", str(k)]
        for v in ("fermat4", "Bl1P2", "P1xP1")
        for k in (1, 2, 3)
    },
}
# the names of the benchmark's exit-1 jobs, in the order of DOMAIN_ERRORS
_DOMAIN_NAMES = ["domain NotPrime count", "domain UnsupportedDegree", "domain InvalidInput variety",
                 "domain InvalidInput surface", "domain InvalidSurface", "domain NotPrime counterexample"]
CASES = {
    **_BOTH_MODES,
    **{f"{name} --json": argv + ["--json"] for name, argv in _BOTH_MODES.items()},
    **dict(zip(_DOMAIN_NAMES, (argv for argv, _ in JOBS.DOMAIN_ERRORS), strict=True)),
    "domain DefiniteNotClassified": ["classify", "--gram", "e8.json"],
    "domain DefiniteEvenUnrealizable": ["classify", "--gram", "e8.json", "--smooth"],
    "usage over cap": ["count", "--variety", "P1xP1", "--p", "347", "--json"],
    "usage huge prime": ["counterexample", "--primes", "1000000000000000003"],
    **{" ".join(["usage", *argv]): argv for argv in JOBS.USAGE_ERRORS},
    "help": ["-h"],
    "help --help": ["--help"],
    **{f"help {command}": [command, "-h"] for command in _GRAMMAR},
    # argv off the form that every valid command takes
    "argparse --var": ["count", "--var", "fermat4", "--p", "5"],
    "argparse --p=5": ["count", "--variety", "fermat4", "--p=5"],
    "argparse --p twice": ["count", "--variety", "fermat4", "--p", "5", "--p", "7"],
    "argparse --json twice": ["count", "--variety", "fermat4", "--p", "5", "--json", "--json"],
    "argparse --p --json": ["count", "--variety", "fermat4", "--p", "--json"],
    "argparse --bogus": ["count", "--variety", "fermat4", "--p", "5", "--bogus"],
    "argparse --p -x": ["count", "--variety", "fermat4", "--p", "-x"],
    "argparse --c1sq --c2": ["surface", "--name", "K3", "--c1sq", "--c2", "1"],
    # argv that argparse before 3.13.13 reads otherwise (test_cli_reader.older_argparse_differs)
    "argv -- before the command": ["--", "count", "--variety", "fermat4", "--p", "5"],
    "argv -hx": ["count", "-hx"],
    "argv -h then ambiguous": ["surface", "-h", "--c=5"],
    "argv -=x": ["count", "--variety", "fermat4", "--p", "5", "-=x"],
    "usage empty prime list": ["counterexample", "--primes", ""],
    "usage prime list of commas": ["counterexample", "--primes", ","],
    "usage degree 4": ["counterexample", "--primes", "3", "--degrees", "4"],
    "usage surface --c1sq only": ["surface", "--c1sq", "9"],
    "usage surface name and numbers": ["surface", "--name", "K3", "--c1sq", "8", "--c2", "4"],
    "usage surface name and spin": ["surface", "--name", "P2", "--spin"],
    "usage repeated prime": ["counterexample", "--primes", "2,7,3,07"],
    "usage over cap text": ["count", "--variety", "P1xP1", "--p", "347"],
    "usage composite over cap": ["count", "--variety", "P1xP1", "--p", "1000"],
    # the argv of the command tests
    "classify rank 0": ["classify", "--gram", "empty.json"],
    "classify rank 0 --smooth": ["classify", "--gram", "empty.json", "--smooth"],
    "classify 6000-digit determinant": ["classify", "--gram", "det6000.json"],
    "classify 6000-digit determinant --smooth": ["classify", "--gram", "det6000.json", "--smooth"],
    "classify one smooth": ["classify", "--gram", "one.json", "--smooth"],
    "classify missing file": ["classify", "--gram", "nope.json"],
    "classify bad json": ["classify", "--gram", "bad.json"],
    "classify asymmetric": ["classify", "--gram", "asym.json"],
    "classify degenerate": ["classify", "--gram", "zero.json"],
    "classify 10^40": ["classify", "--gram", "big.json"],
    "surface P1xP1": ["surface", "--name", "P1xP1"],
    "surface nope": ["surface", "--name", "nope"],
    "surface invalid numbers": ["surface", "--c1sq", "1", "--c2", "3"],
    "compare inline P1xP1 --json": ["compare", "--a", "8,4,spin", "--b", "P1xP1", "--json"],
    "compare deg2 P1xP1 --json": ["compare", "--a", "deg2", "--b", "P1xP1", "--json"],
    "compare bad inline": ["compare", "--a", "8,4,shiny", "--b", "P1xP1"],
    "compare nope": ["compare", "--a", "nope", "--b", "P2"],
    "counterexample 3 k1 --json": ["counterexample", "--primes", "3", "--degrees", "1", "--json"],
    "counterexample 2,3 k1 --json": ["counterexample", "--primes", "2,3", "--degrees", "1", "--json"],
    "counterexample 6": ["counterexample", "--primes", "6"],
    "count fermat4 5 --json": ["count", "--variety", "fermat4", "--p", "5", "--json"],
    "count Bl1P2 GF(4) --json": ["count", "--variety", "Bl1P2", "--p", "2", "--k", "2", "--json"],
    "count nope": ["count", "--variety", "nope", "--p", "3"],
    "count P1xP1 GF(4)": ["count", "--variety", "P1xP1", "--p", "4"],
    "count P1xP1 k4": ["count", "--variety", "P1xP1", "--p", "3", "--k", "4"],
}


@cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def run_case(argv: list[str], cwd: Path) -> dict:
    """Exit code, stdout and stderr of main(argv), run in cwd."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(cwd)
        try:
            code = main(list(argv))
        finally:
            os.chdir(home)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_rows(cwd: Path, *cases: str) -> None:
    """Each case, run through main(argv) in cwd after FILES are written there, gives its row."""
    write_files(cwd)
    for case in cases:
        assert run_case(CASES[case], cwd) == golden()[case], case


def rows(*cases: str):
    """A test method that checks the rows of cases."""
    return lambda self, tmp_path: check_rows(tmp_path, *cases)


if __name__ == "__main__":  # the script stops here, so it needs no pytest
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        table = {case: run_case(argv, Path(tmp)) for case, argv in sorted(CASES.items())}
    if sys.argv[1:] == ["--check"]:
        differ = [case for case in table if table[case] != golden().get(case)]
        print(*differ, f"{len(table) - len(differ)} of {len(table)} rows match", sep="\n")
        sys.exit(1 if differ or sorted(golden()) != sorted(CASES) else 0)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    sys.exit(0)

from concurrent.futures import ThreadPoolExecutor  # noqa: E402

import pytest  # noqa: E402


def test_golden_covers_every_case():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes(case, tmp_path):
    check_rows(tmp_path, case)


@pytest.fixture(scope="module")
def program_rows(tmp_path_factory):
    """Every case run as the program: main() in a fresh process, which ends it
    with os._exit, two processes at a time. Strict UTF-8 decoding makes equal
    text mean equal bytes."""
    gram_dir = tmp_path_factory.mktemp("grams")
    write_files(gram_dir)

    def run(argv):
        proc = run_fresh("-c", PROGRAM, *argv, cwd=gram_dir, capture_output=True,
                         env={"COLUMNS": "40", "PYTHONIOENCODING": "utf-8"})
        return {"exit": proc.returncode, "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(CASES, pool.map(run, CASES.values())))


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_bytes(case, program_rows):
    assert program_rows[case] == golden()[case]


def test_exit_1_rows_name_every_reachable_domain_error():
    names = {row["stderr"].split(": ", 1)[0] for row in golden().values() if row["exit"] == 1}
    assert names == {cls.name for cls in DomainError.__subclasses__()} - {"ZeroForm", "InconsistentEvenSignature"}
    for case, (_, error) in zip(_DOMAIN_NAMES, JOBS.DOMAIN_ERRORS):
        assert golden()[case]["stderr"].startswith(f"{error}: "), case

