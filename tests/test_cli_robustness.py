"""The CLI on malformed and extreme input.

A Gram file that cannot be read or parsed is refused as InvalidInput
(exit 1). Whatever the arguments, `main` returns 0, 1 or 2, argparse's
usage errors included; no exception escapes and nothing prints a
traceback. Real field sizes are drawn from q <= 49, so every call that
gets as far as counting stays cheap; every other int is over the cap,
composite, negative or otherwise refused before any counting.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import run_fresh
from strategies import huge_symmetric_rows
from surftop.cli import main
from test_cli_golden import check_rows

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
REAL_FIELDS = [(p, k) for p in SMALL_PRIMES for k in (1, 2, 3) if p**k <= 49]

huge = st.integers(min_value=10**18, max_value=10**60)
composite = st.builds(lambda a, b: a * b, st.integers(2, 40), st.integers(2, 40))
# ints that must be refused before any counting: never a prime p with p^k <= 343
bad_int = st.one_of(
    huge,
    huge.map(lambda v: -v),
    st.integers(-50, 1),
    composite,
    st.sampled_from([347, 349, 1000000000000000003]),
)
any_int = st.one_of(bad_int, st.integers(-10, 10), huge).map(str)
junk = st.one_of(
    st.sampled_from(["", " ", "x", "1e3", "0x10", "1.5", "-", "--", "3,", "١٢"]),
    st.text(max_size=8),
)
json_flag = st.sampled_from([[], ["--json"]])


@st.composite
def count_argv(draw):
    variety = draw(
        st.one_of(
            st.sampled_from(["P1xP1", "Bl1P2"] + [f"fermat{d}" for d in range(0, 8)]),
            junk,
        )
    )
    if draw(st.booleans()):
        p, k = draw(st.sampled_from(REAL_FIELDS))
        p, k = str(p), str(k)
    else:
        p = draw(st.one_of(bad_int.map(str), junk))
        k = draw(st.one_of(st.sampled_from(["1", "2", "3"]), any_int, junk))
    argv = ["count", "--variety", variety, "--p", p]
    if draw(st.booleans()):
        argv += ["--k", k]
    return argv + draw(json_flag)


@st.composite
def counterexample_argv(draw):
    degrees = draw(st.sampled_from(["1", "2", "3"]))
    real = [p for p in (2, 3, 5, 7) if p ** int(degrees) <= 49]
    token = st.sampled_from(real).map(str)
    if draw(st.booleans()):
        token = st.one_of(token, bad_int.map(str), junk)
    primes = ",".join(draw(st.lists(token, max_size=3)))
    argv = ["counterexample", "--primes", primes]
    if draw(st.booleans()):
        argv += ["--degrees", degrees if draw(st.booleans()) else draw(st.one_of(any_int, junk))]
    return argv + draw(json_flag)


surface_name = st.sampled_from(["K3", "P2", "P1xP1", "BlP2", "Bl9P2", "deg6", "Enriques", ""])


@st.composite
def surface_argv(draw):
    argv = ["surface"]
    if draw(st.booleans()):
        argv += ["--name", draw(st.one_of(surface_name, junk))]
    if draw(st.booleans()):
        argv += ["--c1sq", draw(st.one_of(any_int, junk))]
    if draw(st.booleans()):
        argv += ["--c2", draw(st.one_of(any_int, junk))]
    if draw(st.booleans()):
        argv += ["--spin"]
    return argv + draw(json_flag)


spec = st.one_of(
    surface_name,
    st.builds(
        lambda a, b, tail: ",".join([a, b, *tail]),
        any_int,
        any_int,
        st.lists(st.sampled_from(["spin", "shiny", "", "x"]), max_size=2),
    ),
    junk,
)


@st.composite
def compare_argv(draw):
    return ["compare", "--a", draw(spec), "--b", draw(spec)] + draw(json_flag)


def gram_text(n, entries):
    return json.dumps({"n": n, "entries": entries}).encode()


@st.composite
def gram_matrix(draw):
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), huge, st.sampled_from([True, 1.5, None, "1"]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):  # symmetric, which is where the real work is
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    n_field = draw(st.one_of(st.just(n), st.integers(-2, 7), st.sampled_from(["2", None, 2.0])))
    return gram_text(n_field, rows)


json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["n", "entries", "x"]), inner, max_size=3),
    max_leaves=10,
)
UNIMODULAR = [
    [[0, 1], [1, 0]],
    [[1, 0], [0, -1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 1], [1, 1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
]
gram_bytes = st.one_of(
    st.sampled_from(UNIMODULAR).map(lambda rows: gram_text(len(rows), rows)),
    gram_matrix(),
    json_value.map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=40),
    st.sampled_from([10, 5000, 200_000]).map(lambda depth: b"[" * depth),
    st.integers(4000, 6000).map(lambda digits: b'{"n": 1, "entries": [[' + b"7" * digits + b"]]}"),
    gram_matrix().map(lambda text: b"\xff\xfe" + text),
)


@st.composite
def classify_argv(draw):
    argv = ["classify", "--gram", "{missing}" if draw(st.integers(0, 9)) == 0 else "{gram}"]
    if draw(st.booleans()):
        argv += ["--smooth"]
    return argv + draw(json_flag)


@pytest.fixture(scope="module")
def gram_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv, gram_dir, gram):
    path = gram_dir / "gram.json"
    path.write_bytes(gram)
    argv = [
        str(path) if a == "{gram}" else str(gram_dir / "none.json") if a == "{missing}" else a
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 1:  # a domain rejection names its error on stderr
        assert err.getvalue().split(":", 1)[0].isidentifier()


@settings(max_examples=400)
@given(
    argv=st.one_of(
        count_argv(), counterexample_argv(), surface_argv(), compare_argv(), classify_argv()
    ),
    gram=gram_bytes,
)
def test_cli_never_escapes(gram_dir, argv, gram):
    run(argv, gram_dir, gram)


class TestMalformedGramFile:
    """Parse failures that used to escape as a traceback or a usage error."""

    def classify(self, tmp_path, capsys, content: bytes):
        path = tmp_path / "gram.json"
        path.write_bytes(content)
        code = main(["classify", "--gram", str(path)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.err

    def test_deep_nesting(self, tmp_path, capsys):
        code, err = self.classify(tmp_path, capsys, b"[" * 200_000)
        assert code == 1 and err.startswith("InvalidInput")

    def test_integer_over_digit_limit(self, tmp_path, capsys):
        content = b'{"n": 1, "entries": [[' + b"1" * 4301 + b"]]}"
        code, err = self.classify(tmp_path, capsys, content)
        assert code == 1 and err.startswith("InvalidInput")

    def test_not_utf8(self, tmp_path, capsys):
        content = b"\xff\xfe" + json.dumps({"n": 2, "entries": [[0, 1], [1, 0]]}).encode()
        code, err = self.classify(tmp_path, capsys, content)
        assert code == 1 and err.startswith("InvalidInput")


class TestClassifyWorkCap:
    """A Gram file whose elimination would run for minutes is a usage error
    at once, the way q over the enumeration cap is."""

    def test_rank_40_of_4300_digit_entries(self, tmp_path, capsys):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"n": 40, "entries": huge_symmetric_rows(40, seed=40)}))
        start = time.perf_counter()
        code = main(["classify", "--gram", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert re.fullmatch(r"usage error: elimination work \d+ exceeds the cap 20000000000\n", captured.err)
        assert elapsed < 1


class TestHugeSurfaceSums:
    """Surface numbers whose sum c1^2 + c2 has more digits than str() converts
    used to exit 2 as usage errors."""

    @pytest.mark.parametrize("case", ["surface N N", "surface 1 N", "compare N,N K3"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_invalid_surface(self, tmp_path, case, flags):
        check_rows(tmp_path, " ".join([case, *flags]))


class TestClosedStdout:
    """A reader that is gone before the result is written, as in
    `surftop counterexample ... | head -1`, used to get a BrokenPipeError
    traceback from the print, or an "Exception ignored" line at exit."""

    @pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
    def test_exit_1_and_nothing_on_stderr(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = run_fresh("-m", "surftop.cli", "counterexample", "--primes", "2,3,5,7",
                            env=unbuffered, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (1, "")


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["-h"], ["count", "-h"]], ids=" ".join)
def test_help_to_closed_stdout_exits_1_and_nothing_on_stderr(argv, unbuffered):
    """argparse prints help and raises SystemExit(0). The flush that finds
    the reader gone used to come at interpreter exit, as exit 120 and an
    "Exception ignored" line. Unbuffered, argparse from 3.11 on swallowed
    the failed write itself and exited 0."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_fresh("-m", "surftop.cli", *argv, env=unbuffered, stdout=write_end, stderr=subprocess.PIPE,
                        text=True)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")


class TestProgramExit:
    """main() is the program: it ends its process with os._exit once its
    output is flushed, so interpreter teardown (atexit handlers included)
    is skipped. main(argv) returns the code and leaves the process alone."""

    ATEXIT = "import atexit, sys; atexit.register(lambda: sys.stderr.write('atexit ran\\n')); "
    COUNT = ["count", "--variety", "fermat4", "--p", "5"]

    def _run(self, code: str, argv: list[str]) -> subprocess.CompletedProcess:
        return run_fresh("-c", code, *argv, capture_output=True, text=True)

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (COUNT, 0, ""),
            (["count", "--variety", "fermat4", "--p", "9"], 1, "NotPrime: 9 is not prime\n"),
            (["count", "--variety", "fermat4", "--p", "347"], 2, "usage error: "),
            (["frobnicate"], 2, "usage: "),
        ],
        ids=["success", "domain", "usage", "argparse"],
    )
    def test_program_skips_atexit(self, argv, code, error):
        out = self._run(self.ATEXIT + "from surftop.cli import main; sys.exit(main())", argv)
        assert out.returncode == code
        assert out.stderr.startswith(error)
        assert "atexit ran" not in out.stderr
        if code == 0:
            assert out.stdout == "fermat4 over GF(5): 0 points\n"

    def test_program_help_reaches_stdout(self):
        # argparse writes -h into the stdout buffer; only the final flush sends it
        out = self._run(self.ATEXIT + "from surftop.cli import main; sys.exit(main())", ["count", "-h"])
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.startswith("usage: surftop count [-h]")

    def test_main_argv_returns_and_atexit_runs(self):
        out = self._run(
            self.ATEXIT + "from surftop.cli import main; print('returned', main(sys.argv[1:]))",
            self.COUNT,
        )
        assert (out.returncode, out.stdout, out.stderr) == (
            0, "fermat4 over GF(5): 0 points\nreturned 0\n", "atexit ran\n",
        )

    def test_bug_keeps_its_traceback_and_normal_exit(self):
        out = self._run(
            self.ATEXIT + "import surftop.cli as cli\n"
            "def boom(args):\n"
            "    raise RuntimeError('boom')\n"
            "cli._RUNNERS['count'] = boom\n"
            "sys.exit(cli.main())",
            self.COUNT,
        )
        assert out.returncode == 1
        assert out.stderr.startswith("Traceback (most recent call last):\n")
        assert out.stderr.endswith("RuntimeError: boom\natexit ran\n")
