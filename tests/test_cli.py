import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import surftop
from oracles import E8, gram_to_dict
from surftop import cli, surfaces
from surftop.cli import _machine, main, parse_args
from surftop.classification import IndefiniteOdd, Parity


def write_gram(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


H_OBJ = {"n": 2, "entries": [[0, 1], [1, 0]]}


class TestParseArgs:
    def test_classify_defaults(self):
        args = parse_args(["classify", "--gram", "h.json"])
        assert args.command == "classify"
        assert args.gram == "h.json"
        assert args.smooth is False
        assert args.json is False

    def test_compare(self):
        args = parse_args(["compare", "--a", "P1xP1", "--b", "BlP2"])
        assert (args.command, args.a, args.b) == ("compare", "P1xP1", "BlP2")

    def test_missing_required_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["classify"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_primes_parsing(self):
        args = parse_args(["counterexample", "--primes", "2,3,5"])
        assert args.primes == [2, 3, 5]

    def test_bad_primes_exit_2(self):
        for bad in ("", "2,x", ","):
            with pytest.raises(SystemExit) as exc:
                parse_args(["counterexample", "--primes", bad])
            assert exc.value.code == 2

    def test_degrees_choices(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["counterexample", "--primes", "3", "--degrees", "4"])
        assert exc.value.code == 2


class TestClassifyCommand:
    def test_hyperbolic(self, tmp_path, capsys):
        path = write_gram(tmp_path, "h.json", H_OBJ)
        assert main(["classify", "--gram", path]) == 0
        out = capsys.readouterr().out
        assert "class: H" in out
        assert "signature 0" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_gram(tmp_path, "h.json", H_OBJ)
        assert main(["classify", "--gram", path, "--json"]) == 0
        out = capsys.readouterr().out.strip()
        obj = json.loads(out)
        assert obj["class"] == {"variant": "IndefiniteEven", "e8_signed_count": 0, "h_count": 1}
        assert obj["invariants"]["determinant"] == -1
        assert canonical(obj) == out  # byte-identical round trip

    def test_e8_refused_without_smooth(self, tmp_path, capsys):
        path = write_gram(tmp_path, "e8.json", gram_to_dict(E8))
        assert main(["classify", "--gram", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("DefiniteNotClassified")

    def test_definite_odd_with_smooth(self, tmp_path, capsys):
        path = write_gram(tmp_path, "one.json", {"n": 1, "entries": [[1]]})
        assert main(["classify", "--gram", path, "--smooth"]) == 0
        assert "⟨1⟩" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["classify", "--gram", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("InvalidInput")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--gram", str(path)]) == 1
        assert capsys.readouterr().err.startswith("InvalidInput")

    def test_asymmetric_matrix(self, tmp_path, capsys):
        path = write_gram(tmp_path, "asym.json", {"n": 2, "entries": [[0, 1], [2, 0]]})
        assert main(["classify", "--gram", path]) == 1
        assert capsys.readouterr().err.startswith("InvalidInput")

    def test_degenerate(self, tmp_path, capsys):
        path = write_gram(tmp_path, "deg.json", {"n": 1, "entries": [[0]]})
        assert main(["classify", "--gram", path]) == 1
        assert capsys.readouterr().err.startswith("DegenerateForm")

    def test_big_integers_parsed_exactly(self, tmp_path, capsys):
        big = 10**40
        obj = {"n": 2, "entries": [[0, big], [big, 0]]}
        path = write_gram(tmp_path, "big.json", obj)
        assert main(["classify", "--gram", path]) == 1
        assert capsys.readouterr().err.startswith("NotUnimodular")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_refused_at_the_read_cap(self, capsys):
        start = time.perf_counter()
        assert main(["classify", "--gram", "/dev/zero"]) == 1
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("InvalidInput: ")
        assert f"cap of {cli.MAX_GRAM_CHARS} characters" in err

    def test_file_of_the_cap_parses_and_one_more_character_is_refused(self, tmp_path, capsys, monkeypatch):
        text = json.dumps(H_OBJ) + "  "  # JSON allows the trailing whitespace
        monkeypatch.setattr(cli, "MAX_GRAM_CHARS", len(text))
        path = tmp_path / "h.json"
        path.write_text(text)
        assert main(["classify", "--gram", str(path)]) == 0
        assert "class: H" in capsys.readouterr().out
        path.write_text(text + " ")
        assert main(["classify", "--gram", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"InvalidInput: {path}: file is longer than the cap of {len(text)} characters\n"
        )


class TestGramFileThatWaits:
    """Opening a Gram file never waits: a FIFO is polled for GRAM_WAIT_S seconds."""

    needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")

    @needs_fifo
    def test_fifo_with_no_writer_refused_after_the_wait(self, tmp_path):
        fifo = tmp_path / "h.json"
        os.mkfifo(fifo)
        start = time.perf_counter()
        proc = subprocess.run(  # a hang fails here, after the timeout, instead of stalling the suite
            [sys.executable, "-B", "-m", "surftop.cli", "classify", "--gram", str(fifo)],
            env={"PYTHONPATH": str(Path(surftop.__file__).parents[1]), "PATH": ""},
            capture_output=True, text=True, timeout=cli.GRAM_WAIT_S + 2,
        )
        assert time.perf_counter() - start < cli.GRAM_WAIT_S + 2
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"InvalidInput: {fifo}: no writer opened it within {cli.GRAM_WAIT_S} s\n"

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
        assert time.perf_counter() - start < cli.GRAM_WAIT_S
        writer.join(5)
        assert not writer.is_alive()
        assert "class: H" in capsys.readouterr().out

    @needs_fifo
    def test_fifo_whose_writer_is_silent_past_the_wait_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GRAM_WAIT_S", 0.1)
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
        path = write_gram(tmp_path, "h.json", H_OBJ)
        assert main(["classify", "--gram", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["class"]["h_count"] == 1

    def test_directory_refused(self, tmp_path, capsys):
        assert main(["classify", "--gram", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"InvalidInput: cannot read {tmp_path}: ")
        assert err.count(str(tmp_path)) == 2  # named by its path, not by a descriptor

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_refused(self, capsys):
        assert main(["classify", "--gram", "/dev/null"]) == 1
        assert capsys.readouterr().err == "InvalidInput: /dev/null: Expecting value: line 1 column 1 (char 0)\n"


class TestSurfaceCommand:
    def test_by_name(self, capsys):
        assert main(["surface", "--name", "P1xP1"]) == 0
        out = capsys.readouterr().out
        assert "intersection form: H" in out

    def test_by_numbers(self, capsys):
        assert main(["surface", "--c1sq", "0", "--c2", "24", "--spin", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["invariants"]["b2"] == 22
        assert obj["class"]["variant"] == "IndefiniteEven"

    def test_unknown_name(self, capsys):
        assert main(["surface", "--name", "nope"]) == 1
        assert capsys.readouterr().err.startswith("InvalidInput")

    def test_invalid_numbers(self, capsys):
        assert main(["surface", "--c1sq", "1", "--c2", "3"]) == 1
        assert capsys.readouterr().err.startswith("InvalidSurface")

    def test_missing_spec_is_usage_error(self, capsys):
        assert main(["surface"]) == 2
        assert capsys.readouterr().err.endswith("error: need --name, or both --c1sq and --c2\n")

    def test_partial_numbers_is_usage_error(self, capsys):
        assert main(["surface", "--c1sq", "9"]) == 2
        assert capsys.readouterr().err.endswith("error: need --name, or both --c1sq and --c2\n")


class TestCompareCommand:
    def test_the_counterexample_pair(self, capsys):
        assert main(["compare", "--a", "P1xP1", "--b", "BlP2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: not homeomorphic" in out
        assert "H" in out and "⟨1⟩ ⊕ ⟨-1⟩" in out

    def test_cubic_vs_blowups(self, capsys):
        assert main(["compare", "--a", "deg3", "--b", "Bl6P2"]) == 0
        assert "verdict: homeomorphic" in capsys.readouterr().out

    def test_inline_spec(self, capsys):
        assert main(["compare", "--a", "8,4,spin", "--b", "P1xP1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["homeomorphic"] is True

    def test_bad_inline_spec(self, capsys):
        assert main(["compare", "--a", "8,4,shiny", "--b", "P1xP1"]) == 1
        assert capsys.readouterr().err.startswith("InvalidInput")

    def test_json_round_trip(self, capsys):
        assert main(["compare", "--a", "P1xP1", "--b", "BlP2", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        assert canonical(json.loads(out)) == out


class TestCounterexampleCommand:
    def test_human_output(self, capsys):
        assert main(["counterexample", "--primes", "3", "--degrees", "2"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "==" in ln]
        assert len(lines) == 2  # q = 3 and q = 9
        assert all("==" in ln for ln in lines)
        assert "homeomorphic: False" in out
        assert "does not determine homeomorphism type" in out

    def test_json_round_trip(self, capsys):
        assert main(["counterexample", "--primes", "2,3", "--degrees", "1", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        obj = json.loads(out)
        assert canonical(obj) == out
        assert obj["homeomorphic"] is False
        qs = [row["q"] for block in obj["primes"] for row in block["counts"]]
        assert qs == [2, 3]

    def test_json_sets_the_topology_beside_the_counts(self, capsys):
        assert main(["counterexample", "--primes", "3", "--degrees", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["primes"][0]["counts"]
        assert [(r["q"], r["P1xP1"], r["Bl1P2"]) for r in rows] == [(3, 16, 16), (9, 100, 100)]
        assert report["homeomorphic"] is False
        assert report["form_classes"] == {
            "P1xP1": {"variant": "IndefiniteEven", "e8_signed_count": 0, "h_count": 1},
            "Bl1P2": {"variant": "IndefiniteOdd", "n_plus": 1, "n_minus": 1},
        }
        assert report["invariants"] == {
            "P1xP1": {"b2": 2, "sigma": 0, "parity": "even"},
            "Bl1P2": {"b2": 2, "sigma": 0, "parity": "odd"},
        }
        assert "does not determine homeomorphism type" in report["conclusion"]

    def test_conclusion_when_the_conditions_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(surfaces, "homeomorphic", lambda a, b: True)
        assert main(["counterexample", "--primes", "2", "--degrees", "1"]) == 0
        out = capsys.readouterr().out
        assert "homeomorphic: True" in out
        assert out.endswith("expected counterexample conditions were NOT met; see the data\n")

    def test_not_prime(self, capsys):
        assert main(["counterexample", "--primes", "6"]) == 1
        assert capsys.readouterr().err.startswith("NotPrime")

    def test_repeated_prime_named(self, capsys):
        assert main(["counterexample", "--primes", "2,7,3,07"]) == 2
        assert capsys.readouterr().err.endswith(
            "surftop counterexample: error: argument --primes: prime 7 is repeated\n")

    def test_repeated_prime_refused_at_once(self, capsys):
        # a 120 KB argument that would count GF(7) and GF(49) 60,000 times each
        start = time.perf_counter()
        assert main(["counterexample", "--primes", ",".join(["7"] * 60_000)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "prime 7 is repeated" in err
        assert len(err) < 300


class TestCountCommand:
    def test_fermat4_at_5(self, capsys):
        assert main(["count", "--variety", "fermat4", "--p", "5", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"variety": "fermat4", "p": 5, "k": 1, "q": 5, "count": 0}

    def test_human(self, capsys):
        assert main(["count", "--variety", "P1xP1", "--p", "3", "--k", "2"]) == 0
        assert "100 points" in capsys.readouterr().out

    def test_unknown_variety(self, capsys):
        assert main(["count", "--variety", "nope", "--p", "3"]) == 1
        assert capsys.readouterr().err.startswith("InvalidInput")

    def test_not_prime(self, capsys):
        assert main(["count", "--variety", "P1xP1", "--p", "4"]) == 1
        assert capsys.readouterr().err.startswith("NotPrime")

    def test_degree_too_big(self, capsys):
        assert main(["count", "--variety", "P1xP1", "--p", "3", "--k", "4"]) == 1
        assert capsys.readouterr().err.startswith("UnsupportedDegree")

    def test_cap_exceeded_is_usage_error(self, capsys):
        assert main(["count", "--variety", "P1xP1", "--p", "347"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestLongArgumentsAreNotEchoed:
    """A message quotes at most the first 40 characters of an argument, and its length."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["counterexample", "--primes", "7" * 60_000 + ",x"], 2),
            (["count", "--variety", "v" * 100_000, "--p", "3"], 1),
            (["surface", "--name", "v" * 100_000], 1),
            (["compare", "--a", "8,4," + "v" * 100_000, "--b", "P1xP1"], 1),
        ],
        ids=["prime list", "variety", "surface name", "surface spec"],
    )
    def test_stderr_stays_short(self, argv, code, capsys):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{argv[2][:40]!r}... ({len(argv[2])} characters)" in err
        assert len(err.encode()) < 300


class TestUnknownNameMessages:
    """An unknown name is reported by its message, not by the repr of a KeyError."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["surface", "--name", "Enriques"], "InvalidInput: no catalog surface named 'Enriques'"),
            (["count", "--variety", "nope", "--p", "3"], "InvalidInput: no countable model named 'nope'"),
            (["compare", "--a", "nope", "--b", "P2"], "InvalidInput: no catalog surface named 'nope'"),
        ],
        ids=["surface", "count", "compare"],
    )
    def test_stderr_line(self, argv, line, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == line + "\n"


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

    def test_composite_over_cap_is_usage_error(self, capsys):
        assert main(["count", "--variety", "P1xP1", "--p", "1000"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestMachineOutputRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["surface", "--name", "K3", "--json"],
            ["compare", "--a", "deg2", "--b", "P1xP1", "--json"],
            ["counterexample", "--primes", "3", "--degrees", "1", "--json"],
            ["count", "--variety", "Bl1P2", "--p", "2", "--k", "2", "--json"],
        ],
    )
    def test_byte_identical(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        body = out[:-1]
        assert "\n" not in body  # a single object on one line
        assert canonical(json.loads(body)) == body

    def test_classify_byte_identical(self, tmp_path, capsys):
        path = write_gram(tmp_path, "h.json", H_OBJ)
        assert main(["classify", "--gram", path, "--json"]) == 0
        body = capsys.readouterr().out.strip()
        assert canonical(json.loads(body)) == body


class TestMachineEncoder:
    def test_records_and_enums(self):
        assert _machine({"class": IndefiniteOdd(1, 1), "parity": Parity.ODD}) == (
            '{"class":{"n_minus":1,"n_plus":1,"variant":"IndefiniteOdd"},"parity":"odd"}')

    @pytest.mark.parametrize("obj", [object(), {1, 2}, 1j])
    def test_non_record_is_a_type_error(self, obj):
        with pytest.raises(TypeError, match="cannot encode"):
            _machine({"value": [obj]})


class TestOutputHygiene:
    def test_no_ansi_escapes(self, tmp_path, capsys):
        path = write_gram(tmp_path, "h.json", H_OBJ)
        main(["classify", "--gram", path])
        main(["compare", "--a", "P1xP1", "--b", "BlP2"])
        out = capsys.readouterr().out
        assert "\x1b[" not in out

    def test_json_has_no_floats(self, capsys):
        main(["counterexample", "--primes", "2,3,5", "--degrees", "2", "--json"])
        out = capsys.readouterr().out

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_floats(v) for v in obj)
            return True

        assert no_floats(json.loads(out))
