"""The CLI's argv reader against argparse, its oracle.

`surftop.cli.parse_args` reads every argv from the grammar table as
argparse of Python 3.13.13 reads it, and `surftop.cli_help` writes help
and usage errors. `oracles.argparse_args` is argparse built from the same table.
Whatever the argv, `main(argv)` gives the exit code, stdout and stderr
that the oracle gives, but that the CLI cuts each word past 40
characters (text_repr). argparse before 3.13.13 reads three shapes of
argv otherwise (`older_argparse_differs`); on those interpreters they
are left out here, and the CLI table of test_cli_golden.py pins what
the CLI prints for each shape. The reader takes every exit-0 and exit-1
job of the benchmark, whose job lists test_cli_golden.perfbench_jobs
loads, as the oracle does. No argv loads argparse, for each argv row of
the load table, FOOTPRINT in tests/test_package.py.
"""

import contextlib
import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import argparse_args
from surftop import cli
from surftop.cli import _GRAMMAR, main, parse_args
from surftop.errors import text_repr
from test_cli_golden import perfbench_jobs
from test_package import FOOTPRINT, seen


def run(argv: list[str], oracle: bool = False) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv), its argv read by the CLI,
    or by the oracle, which prints help and usage errors at COLUMNS=80 and
    whose words past 40 characters are then cut as the CLI cuts them."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = argparse_args(list(argv)) if oracle else None
        except SystemExit as exc:
            code = exc.code
        else:
            with mock.patch.object(cli, "parse_args", lambda _: args) if oracle else contextlib.nullcontext():
                code = main(list(argv))
    texts = [out.getvalue(), err.getvalue()]
    for word in [word for word in argv if len(word) > 40] if oracle else []:
        texts = [text.replace(repr(word), text_repr(word)).replace(word, text_repr(word)) for text in texts]
    return code, *texts


OPTIONS = sorted({option for _, options in _GRAMMAR.values() for option in options})
ABBREVIATED = ["--var", "--pr", "--deg", "--c1", "--sm", "--js", "--na", "--gr", "--c"]
SPECIAL = ["-h", "--help", "--", "--p=7", "--variety=fermat4", "--degrees=2", "-p", "---p",
           "-hx", "-h=3", "--=3", "--c=5", "--json=1", "--k=", "-x y", "-1e5", "w" * 50]
# values an int converter takes (primes lists included), then other words
INTS = ["-12", "-٣", "+7", "7\n", "1_0", " 7 ", "-0", "0", "1", "2", "3", "4", "5", "7", "١٢"]
VALUES = INTS + [
    "", "2,x", "--json", "-", "-x", "-1.5", "-.5", "-7\n", "fermat4", "P1xP1", "Bl1P2", "K3", "nope",
    "2,3", "2,,3", ",", "7,7", "8,4,spin", "h.json", "-h",
]
COMMANDS = list(_GRAMMAR) + ["frobnicate", "-h", "", "--", "--json", "-x", "cou"]


@st.composite
def argv_from_vocabulary(draw):
    """A command and most of its options in any order, each option with a
    value drawn from the vocabulary (mostly an int where it takes one), then
    half the time one or two stray words anywhere, before the command too:
    often a valid command, often just off it."""
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
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


def older_argparse_differs(argv: list[str]) -> bool:
    """Whether argparse before 3.13.13 reads argv otherwise: `--` before the
    command (it names `--` as an invalid choice), -h with more characters
    after it (an ignored explicit argument), or an ambiguous abbreviation
    that the CLI does not report as the error (older argparse reports it
    before any other error, and before -h)."""
    first = next((word for word in argv if cli._lookup(word, cli._HELP) is None), None)
    ambiguous = any(len(cli._lookup(word, (*cli._HELP, *options)) or ()) > 1
                    for _, options in _GRAMMAR.values() for word in argv)
    return (first == "--" or any(word[:2] == "-h" and word != "-h" for word in argv)
            or ambiguous and "ambiguous option" not in run(argv)[2])


@settings(max_examples=600, deadline=None)
@given(argv=argv_from_vocabulary())
def test_reader_declines_or_matches_argparse(argv):
    """The reader declines no argv: whatever the argv, it matches the oracle."""
    assume(sys.version_info >= (3, 13, 13) or not older_argparse_differs(argv))
    assert run(argv) == run(argv, oracle=True), argv


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
    assert vars(parse_args(argv)) == {"command": argv[0], **expected} == vars(argparse_args(argv))


@pytest.mark.parametrize("argv", [line.split() for line in [
    "", "-h", "count -h", "count --variety fermat4 --p 5 --help", "count --var fermat4 --p 5",
    "count --variety=fermat4 --p 5", "count --variety fermat4 --p 5 --p 7",
    "count --variety fermat4 --p 5 --json --json", "count -- --variety fermat4 --p 5", "count --variety fermat4",
    "count --variety fermat4 --p five", "count --variety fermat4 --p", "count --variety --json --p 5",
    "count --variety -x --p 5", "count --variety fermat4 --p -12.0", "counterexample --primes 2 --degrees 4",
    "counterexample --primes 2,x", "surface", "surface --c1sq 9", "frobnicate",
    "surface --name K3 --c1sq 8 --c2 4"]])
def test_reader_declines(argv):
    """argv off the form that every valid command takes: each is read, or
    refused, as the oracle reads or refuses it."""
    assert run(argv) == run(argv, oracle=True)


def test_reader_takes_every_benchmark_job_that_runs(tmp_path):
    """Every exit-0 and exit-1 argv of the four workloads (seeds 1-3) and of
    the coverage jobs is read to what the oracle makes of it."""
    jobs = perfbench_jobs()
    runs = [job for job in jobs.coverage_jobs(str(tmp_path)) if job.exit_code in (0, 1)]
    for workload in jobs.WORKLOADS:
        for seed in (1, 2, 3):
            for block in jobs.make_blocks(workload, seed, 1, str(tmp_path)):
                runs += [job for job in block if job.exit_code in (0, 1)]
    assert len(runs) > 500
    for job in runs:
        assert vars(parse_args(job.argv)) == vars(argparse_args(job.argv)), job.argv


ARGV_ROWS = [row for row in FOOTPRINT if not row.startswith("import ")]
# help, an unknown command and an abbreviation: the argv off the form of a valid command
OFF_FORM = ["-h", "frobnicate", "count --var fermat4 --p 5"]
TAKEN = [row for row in ARGV_ROWS if row not in OFF_FORM]


@pytest.mark.parametrize("row", TAKEN, ids=[f"{row.split()[0]}-{FOOTPRINT[row][1]}" for row in TAKEN])
def test_valid_command_loads_no_argparse(row, tmp_path):
    assert "argparse" not in seen(row, tmp_path)[3]

