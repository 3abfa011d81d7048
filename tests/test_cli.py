import codecs
import json
import locale
import os
import select
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import run_fresh
from surftop import cli_gram, surfaces
from surftop.cli import _GRAMMAR, _machine, _plain, main, parse_args
from surftop.classification import ClassificationMode, IndefiniteOdd, Parity
from surftop.errors import text_repr
from test_cli_golden import CASES, golden, rows, run_case


H_OBJ = {"n": 2, "entries": [[0, 1], [1, 0]]}


class TestParseArgs:
    def test_classify_defaults(self):
        args = parse_args(["classify", "--gram", "h.json"])
        assert args.command == "classify"
        assert args.gram == "h.json"
        assert args.smooth is False
        assert args.json is False

    test_missing_required_exits_2 = rows("usage classify")
    test_no_subcommand_exits_2 = rows("usage")
    test_bad_primes_exit_2 = rows("usage empty prime list", "usage counterexample --primes 2,x",
                                  "usage prime list of commas")
    test_degrees_choices = rows("usage degree 4")


class TestClassifyCommand:
    test_hyperbolic = rows("classify H")
    test_json_output = rows("classify H --json")
    test_e8_refused_without_smooth = rows("domain DefiniteNotClassified")
    test_definite_odd_with_smooth = rows("classify one smooth")
    test_missing_file = rows("classify missing file")
    test_malformed_json = rows("classify bad json")
    test_asymmetric_matrix = rows("classify asymmetric")
    test_degenerate = rows("classify degenerate")
    test_big_integers_parsed_exactly = rows("classify 10^40")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_refused_at_the_read_cap(self, capsys):
        start = time.perf_counter()
        assert main(["classify", "--gram", "/dev/zero"]) == 1
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("InvalidInput: ")
        assert f"cap of {cli_gram.MAX_GRAM_CHARS} characters" in err

    def test_file_of_the_cap_parses_and_one_more_character_is_refused(self, tmp_path, capsys, monkeypatch):
        text = json.dumps(H_OBJ) + "  "  # JSON allows the trailing whitespace
        monkeypatch.setattr(cli_gram, "MAX_GRAM_CHARS", len(text))
        path = tmp_path / "h.json"
        path.write_text(text)
        assert main(["classify", "--gram", str(path)]) == 0
        assert "class: H" in capsys.readouterr().out
        path.write_text(text + " ")
        assert main(["classify", "--gram", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"InvalidInput: {text_repr(str(path))}: file is longer than the cap of {len(text)} characters\n"
        )

    @pytest.mark.skipif(codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
                        reason="open() does not read UTF-8 here")
    def test_the_cap_counts_characters_not_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("g.json").write_text('{"n": 1, "entries": [[1]], "é": 0}', encoding="utf-8")  # 34 characters, 35 bytes
        for cap, error in [(34, "Gram object must have exactly the fields 'n' and 'entries'"),
                           (33, "file is longer than the cap of 33 characters")]:
            monkeypatch.setattr(cli_gram, "MAX_GRAM_CHARS", cap)
            assert main(["classify", "--gram", "g.json"]) == 1
            assert capsys.readouterr().err == f"InvalidInput: 'g.json': {error}\n"


class TestGramFileThatWaits:
    """Opening a Gram file never waits: a FIFO is polled for GRAM_WAIT_S seconds."""

    needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")

    @needs_fifo
    def test_fifo_with_no_writer_refused_after_the_wait(self, tmp_path):
        fifo = tmp_path / "h.json"
        os.mkfifo(fifo)
        start = time.perf_counter()
        proc = run_fresh(  # a hang fails here, after the timeout, instead of stalling the suite
            "-m", "surftop.cli", "classify", "--gram", str(fifo),
            capture_output=True, text=True, timeout=cli_gram.GRAM_WAIT_S + 2,
        )
        assert time.perf_counter() - start < cli_gram.GRAM_WAIT_S + 2
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"InvalidInput: {text_repr(str(fifo))}: no writer opened it within {cli_gram.GRAM_WAIT_S} s\n"

    @needs_fifo
    def test_fifo_whose_writer_opens_late_is_read(self, tmp_path, capsys):
        fifo = tmp_path / "h.json"
        os.mkfifo(fifo)

        def write():
            time.sleep(0.2)
            with open(fifo, "w") as fh:
                fh.write(json.dumps(H_OBJ))

        writer = threading.Thread(target=write, daemon=True)  # a daemon: open() waits for a reader
        writer.start()
        start = time.perf_counter()
        assert main(["classify", "--gram", str(fifo)]) == 0
        assert time.perf_counter() - start < cli_gram.GRAM_WAIT_S
        writer.join(5)
        assert not writer.is_alive()
        assert "class: H" in capsys.readouterr().out

    @needs_fifo
    def test_fifo_whose_writer_is_silent_past_the_wait_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_gram, "GRAM_WAIT_S", 0.1)
        fifo = tmp_path / "h.json"
        os.mkfifo(fifo)
        writer_in = threading.Event()

        def write():
            with open(fifo, "w") as fh:  # returns once the reader has opened the FIFO
                writer_in.set()
                time.sleep(0.3)
                fh.write(json.dumps(H_OBJ))

        class AfterTheWriterOpens:  # so the read after the wait finds the pipe held
            def __init__(self, real=select.poll):
                self.real = real()
                self.register = self.real.register

            def poll(self, timeout):
                writer_in.wait(5)
                return self.real.poll(timeout)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        monkeypatch.setattr(select, "poll", AfterTheWriterOpens)
        assert main(["classify", "--gram", str(fifo)]) == 0
        writer.join(5)
        assert not writer.is_alive()
        assert "class: H" in capsys.readouterr().out

    def test_data_after_the_wait_is_kept(self, tmp_path, capsys, monkeypatch):
        class NoEvents:  # the wait runs out just before the data comes
            def register(self, *args):
                pass

            def poll(self, timeout):
                return []

        monkeypatch.setattr(select, "poll", NoEvents, raising=False)
        path = tmp_path / "h.json"
        path.write_text(json.dumps(H_OBJ))
        assert main(["classify", "--gram", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["class"]["h_count"] == 1

    def test_directory_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("grams")
        assert main(["classify", "--gram", "grams"]) == 1
        assert capsys.readouterr().err == "InvalidInput: cannot read 'grams': Is a directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_refused(self, capsys):
        assert main(["classify", "--gram", "/dev/null"]) == 1
        assert capsys.readouterr().err == "InvalidInput: '/dev/null': Expecting value: line 1 column 1 (char 0)\n"


class TestSurfaceCommand:
    test_by_name = rows("surface P1xP1")
    test_by_numbers = rows("surface numbers --json")
    test_unknown_name = rows("surface nope")
    test_invalid_numbers = rows("surface invalid numbers")
    test_missing_spec_is_usage_error = rows("usage surface")
    test_partial_numbers_is_usage_error = rows("usage surface --c1sq only")
    test_name_with_numbers_is_usage_error = rows("usage surface name and numbers", "usage surface name and spin")


class TestCompareCommand:
    test_the_counterexample_pair = rows("compare P1xP1 BlP2")
    test_cubic_vs_blowups = rows("compare deg3 Bl6P2")
    test_inline_spec = rows("compare inline P1xP1 --json")
    test_bad_inline_spec = rows("compare bad inline")
    test_json_round_trip = rows("compare P1xP1 BlP2 --json")


class TestCounterexampleCommand:
    test_human_output = rows("counterexample 3")
    test_json_round_trip = rows("counterexample 2,3 k1 --json")
    test_json_sets_the_topology_beside_the_counts = rows("counterexample 3 --json")
    test_not_prime = rows("counterexample 6")
    test_repeated_prime_named = rows("usage repeated prime")

    def test_fields_up_to_the_cap_in_seconds(self, capsys):
        # Bl1P2 and P1xP1 at q = 125 and 343, the largest fields the cap admits
        start = time.perf_counter()
        assert main(["counterexample", "--primes", "2,3,5,7", "--degrees", "3", "--json"]) == 0
        assert time.perf_counter() - start < 2.0
        report = json.loads(capsys.readouterr().out)
        assert [row["q"] for block in report["primes"] for row in block["counts"]] == [
            2, 4, 8, 3, 9, 27, 5, 25, 125, 7, 49, 343]
        assert report["all_counts_equal"] is True

    def test_conclusion_when_the_conditions_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(surfaces, "homeomorphic", lambda a, b: True)
        assert main(["counterexample", "--primes", "2", "--degrees", "1"]) == 0
        out = capsys.readouterr().out
        assert "homeomorphic: True" in out
        assert out.endswith("expected counterexample conditions were NOT met; see the data\n")

    def test_repeated_prime_refused_at_once(self, capsys):
        # a 120 KB argument that would count GF(7) and GF(49) 60,000 times each
        start = time.perf_counter()
        assert main(["counterexample", "--primes", ",".join(["7"] * 60_000)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "prime 7 is repeated" in err
        assert len(err) < 300


class TestCountCommand:
    test_fermat4_at_5 = rows("count fermat4 5 --json")
    test_human = rows("count P1xP1 k2")
    test_unknown_variety = rows("count nope")
    test_not_prime = rows("count P1xP1 GF(4)")
    test_degree_too_big = rows("count P1xP1 k4")
    test_cap_exceeded_is_usage_error = rows("usage over cap text")


def long_values(value: str) -> list[str]:
    """value at about 5000 characters, of its shape: each number of a comma
    list lengthened to nines (equal numbers alike, so `2,7,3,07` still
    repeats a prime), each other part kept (`2,x`, `8,4,shiny`); and at
    4000, where a single number still reads as an int (5000 digits do not)
    and reaches its option's converter. A value with no number becomes
    letters, as a name, a path or a command word (`,` too)."""
    parts = value.split(",")
    numeric = [part for part in parts if part.lstrip("-").isdecimal()]
    if not numeric:
        return ["v" * 5000]
    numbers = sorted({int(part) for part in numeric})
    return [",".join("-" * part.startswith("-") + "9" * (size // len(numeric) - numbers.index(int(part)))
                     if part.lstrip("-").isdecimal() else part for part in parts) for size in (5000, 4000)]


def long_argvs(options):
    """(case, argv, value) for each value of one of options in an argv of
    CASES, replaced by each of its long_values; the option "" stands before
    the command word. Not derived: a value inside its option's word
    (`--p=5`), a value after an abbreviation that the reader expands
    (`--var`), a value that a later repeat of its option replaces (`--p 5
    --p 7`), a word that the reader reads as an option, not a value (`--p
    -x`, `--c1sq --c2`), and the numbers inside a Gram file, which the
    `classify 6000-digit determinant` rows pin."""
    for case, argv in CASES.items():
        words = ["", *argv]
        for i in range(len(words) - 1):
            value = words[i + 1]
            if (words[i] in options and words[i] not in words[i + 2:]
                    and not (value.startswith("-") and not value[1:].isdecimal())):
                for long in long_values(value):
                    yield case, [*words[1:i + 1], long, *words[i + 2:]], long


def value_options() -> dict[str, set[str]]:
    """Each option of _GRAMMAR that takes a value, and "" for the command
    word, under the name of its test."""
    names = {"--primes": "prime list", "--name": "surface name", "--a": "surface spec", "--b": "surface spec",
             "--gram": "gram path"}
    grouped = {"command": {""}}
    for _, options in _GRAMMAR.values():
        for option, kwargs in options.items():
            if "action" not in kwargs:
                grouped.setdefault(names.get(option, option[2:]), set()).add(option)
    return grouped


class TestLongArgumentsAreNotEchoed:
    """A message quotes at most the first 40 characters of an argument, and
    its length, and names a number past 40 digits by its size, whatever the
    option or the command word."""

    @pytest.mark.parametrize("options", value_options().values(), ids=value_options())
    def test_stderr_stays_short(self, options, tmp_path):
        derived = list(long_argvs(options))
        assert derived, options
        for case, argv, value in derived:
            row = run_case(argv, tmp_path)
            err = row["stderr"]
            assert row["exit"] in (1, 2), case
            assert "Traceback" not in row["stdout"] + err, case
            assert len(err.encode()) < 300 and value[:41] not in err, (case, err[:300])
            if repr(value[:40]) in err:
                assert text_repr(value) in err, (case, err)

    @pytest.mark.parametrize("word", ["x" * 5000, "--" + "x" * 5000], ids=["unrecognized", "unknown option"])
    def test_unrecognized_word_is_cut(self, word, tmp_path):
        row = run_case(["count", "--variety", "fermat4", "--p", "5", word], tmp_path)
        err = row["stderr"]
        assert (row["exit"], row["stdout"]) == (2, "")
        assert len(err.encode()) < 300 and err.endswith(f": unrecognized arguments: {text_repr(word)}\n"), err[:300]

    def test_ambiguous_option_is_cut(self, tmp_path):
        word = "--c=" + "x" * 5000
        row = run_case(["surface", word], tmp_path)
        err = row["stderr"]
        assert (row["exit"], row["stdout"]) == (2, "")
        assert len(err.encode()) < 300 and err.endswith(
            f"ambiguous option: {text_repr(word)} could match --c1sq, --c2\n"), err[:300]


class TestCapBeforePrimality:
    """A huge characteristic is refused by the cap, before any trial division."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--variety", "P1xP1", "--p", "1000000000000000003"],
            ["counterexample", "--primes", "1000000000000000003"],
        ],
    )
    def test_huge_prime_exits_2_quickly(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeds the enumeration cap" in capsys.readouterr().err

    test_composite_over_cap_is_usage_error = rows("usage composite over cap")


# text over every code point: astral ones, C0 controls, DEL and lone surrogates among them
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from("\x00\x1f\x7f\"\\\ud800\udfff\U0001f600"))
JSON_VALUES = st.recursive(
    TEXT | st.integers() | st.integers(2**64, 2**200) | st.booleans() | st.none()
    | st.sampled_from([*Parity, *ClassificationMode])
    | st.builds(IndefiniteOdd, st.integers(1, 2**70), st.integers(1, 9))
    | st.builds(surfaces.SurfaceData, name=TEXT, c1_sq=st.integers(), c2=st.integers(), spin=st.booleans()),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(TEXT, inner), max_leaves=10)


class TestMachineEncoder:
    @given(JSON_VALUES)
    def test_writes_what_json_dumps_writes(self, value):
        assert _machine(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), default=_plain)

    def test_records_and_enums(self):
        assert _machine({"class": IndefiniteOdd(1, 1), "parity": Parity.ODD}) == (
            '{"class":{"n_minus":1,"n_plus":1,"variant":"IndefiniteOdd"},"parity":"odd"}')

    @pytest.mark.parametrize("obj", [object(), {1, 2}, 1j])
    def test_non_record_is_a_type_error(self, obj):
        with pytest.raises(TypeError, match="cannot encode"):
            _machine({"value": [obj]})


class TestOutputHygiene:
    """Over every row of the CLI table."""

    def test_no_ansi_escapes(self):
        assert [case for case, row in golden().items() if "\x1b" in row["stdout"] + row["stderr"]] == []

    def test_json_has_no_floats(self):
        """Each --json row prints one canonical line, without a float."""
        def no_float(text):
            raise AssertionError(f"float {text} in JSON output")

        for case, argv in CASES.items():
            stdout = golden()[case]["stdout"]
            if "--json" in argv and golden()[case]["exit"] == 0:
                assert stdout.endswith("\n") and stdout.count("\n") == 1, case
                obj = json.loads(stdout, parse_float=no_float)
                assert json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" == stdout, case
