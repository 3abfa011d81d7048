"""The CLI's direct argv reader against argparse.

`surftop.cli._read_argv` reads the one form of argv that every valid
command takes, straight from the grammar table; argparse, built from the
same table, runs only when the reader declines. Whatever the argv, the
reader either declines or returns exactly what argparse returns. It takes
every exit-0 and exit-1 job of the benchmark. A command it takes loads no
argparse, and one it declines does, for each argv row of the load table,
FOOTPRINT in tests/test_package.py.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftop.cli import _GRAMMAR, _argparse_args, _read_argv
from test_cli_help import perfbench_jobs
from test_package import FOOTPRINT, seen


def argparse_vars(argv: list[str]) -> dict | None:
    """vars() of argparse's result, or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_argparse_args(list(argv)))
        except SystemExit:
            return None


OPTIONS = sorted({option for _, options in _GRAMMAR.values() for option in options})
ABBREVIATED = ["--var", "--pr", "--deg", "--c1", "--sm", "--js", "--na", "--gr", "--c"]
SPECIAL = ["-h", "--help", "--", "--p=7", "--variety=fermat4", "--degrees=2", "-p", "---p"]
# values an int converter takes (primes lists included), then other words
INTS = ["-12", "-٣", "+7", "7\n", "1_0", " 7 ", "-0", "0", "1", "2", "3", "4", "5", "7", "١٢"]
VALUES = INTS + [
    "", "2,x", "--json", "-", "-x", "-1.5", "-7\n", "fermat4", "P1xP1", "Bl1P2", "K3", "nope",
    "2,3", "2,,3", ",", "7,7", "8,4,spin", "h.json", "-h",
]
COMMANDS = list(_GRAMMAR) + ["frobnicate", "-h", ""]


@st.composite
def argv_from_vocabulary(draw):
    """A command and most of its options in any order, each option with a
    value drawn from the vocabulary (mostly an int where it takes one), then
    half the time one or two stray words anywhere: often the direct form,
    often just off it."""
    command = draw(st.sampled_from(COMMANDS))
    options = _GRAMMAR.get(command, (None, {}))[1]
    argv = [command]
    for option in draw(st.permutations(list(options))):
        if not draw(st.integers(0, 5)):
            continue
        argv.append(option)
        if "action" not in options[option]:
            ints = "type" in options[option] and draw(st.integers(0, 3))
            argv.append(draw(st.sampled_from(INTS if ints else VALUES)))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        stray = draw(st.sampled_from(OPTIONS + ABBREVIATED + SPECIAL + VALUES))
        argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


@settings(max_examples=600)
@given(argv=argv_from_vocabulary())
def test_reader_declines_or_matches_argparse(argv):
    args = _read_argv(list(argv))
    assert args is None or vars(args) == argparse_vars(argv), argv


@pytest.mark.parametrize("argv, expected", [
    (["count", "--variety", "fermat4", "--p", "5"],
     {"variety": "fermat4", "p": 5, "k": 1, "json": False}),
    (["count", "--json", "--k", "2", "--p", "-٣", "--variety", "x"],
     {"variety": "x", "p": -3, "k": 2, "json": True}),
    (["surface", "--c1sq", "-12", "--c2", "+24", "--spin"],
     {"name": None, "c1sq": -12, "c2": 24, "spin": True, "json": False}),
    (["surface", "--name", ""], {"name": "", "c1sq": None, "c2": None, "spin": False, "json": False}),
    (["compare", "--b", "P1xP1", "--a", "8,4,spin"], {"a": "8,4,spin", "b": "P1xP1", "json": False}),
    (["counterexample", "--primes", "2,,3,"], {"primes": [2, 3], "degrees": 2, "json": False}),
    (["classify", "--gram", "h.json", "--smooth", "--json"], {"gram": "h.json", "smooth": True, "json": True}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_reader_takes_the_direct_form(argv, expected):
    assert vars(_read_argv(argv)) == {"command": argv[0], **expected} == argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["count", "-h"],
    ["count", "--variety", "fermat4", "--p", "5", "--help"],
    ["count", "--var", "fermat4", "--p", "5"],  # abbreviated
    ["count", "--variety=fermat4", "--p", "5"],
    ["count", "--variety", "fermat4", "--p", "5", "--p", "7"],  # repeated
    ["count", "--variety", "fermat4", "--p", "5", "--json", "--json"],
    ["count", "--", "--variety", "fermat4", "--p", "5"],
    ["count", "--variety", "fermat4"],  # missing required
    ["count", "--variety", "fermat4", "--p", "five"],  # the converter raises
    ["count", "--variety", "fermat4", "--p"],
    ["count", "--variety", "--json", "--p", "5"],  # an option is no value
    ["count", "--variety", "-x", "--p", "5"],
    ["count", "--variety", "fermat4", "--p", "-12.0"],
    ["counterexample", "--primes", "2", "--degrees", "4"],
    ["counterexample", "--primes", "2,x"],
    ["surface"],
    ["surface", "--c1sq", "9"],
    ["frobnicate"],
    ["surface", "--name", "K3", "--c1sq", "8", "--c2", "4"],  # a name and numbers
])
def test_reader_declines(argv):
    assert _read_argv(argv) is None


def test_reader_takes_every_benchmark_job_that_runs(tmp_path):
    """Every exit-0 and exit-1 argv of the four workloads (seeds 1-3) and of
    the coverage jobs is read directly, to what argparse makes of it."""
    jobs = perfbench_jobs()
    runs = [job for job in jobs.coverage_jobs(str(tmp_path)) if job.exit_code in (0, 1)]
    for workload in jobs.WORKLOADS:
        for seed in (1, 2, 3):
            for block in jobs.make_blocks(workload, seed, 1, str(tmp_path)):
                runs += [job for job in block if job.exit_code in (0, 1)]
    assert len(runs) > 500
    for job in runs:
        args = _read_argv(job.argv)
        assert args is not None and vars(args) == argparse_vars(job.argv), job.argv


ARGV_ROWS = [row for row in FOOTPRINT if not row.startswith("import ")]
TAKEN = [row for row in ARGV_ROWS if _read_argv(row.split()) is not None]
DECLINED = [row for row in ARGV_ROWS if _read_argv(row.split()) is None]


@pytest.mark.parametrize("row", TAKEN, ids=[f"{row.split()[0]}-{FOOTPRINT[row][1]}" for row in TAKEN])
def test_valid_command_loads_no_argparse(row, tmp_path):
    assert "argparse" not in seen(row, tmp_path)[3]


@pytest.mark.parametrize("row", DECLINED,
                         ids=[f"{row}-{FOOTPRINT[row][0]}-{FOOTPRINT[row][1]}" for row in DECLINED])
def test_argparse_loaded_only_when_the_reader_declines(row, tmp_path):
    assert "argparse" in seen(row, tmp_path)[3]
