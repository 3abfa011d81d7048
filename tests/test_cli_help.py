"""Help screens and usage errors pinned byte for byte.

argparse runs only for argv that the CLI's direct reader declines: help,
usage errors, abbreviated options and the other forms it leaves alone.
`tests/data/cli_help.json` holds the exit code, stdout and stderr of
`main(argv)` for `-h`, every `<command> -h`, the benchmark's usage errors
and the bad argv of the other CLI tests. Python 3.10 to 3.13, the
versions CI runs, print the same bytes, so one snapshot serves every
version, and a version whose argparse words a message differently fails
here. With COLUMNS=80 argparse wraps at a fixed width. Rewrite the snapshot from the running
version (this needs neither pytest nor hypothesis) with

    PYTHONPATH=src python3.X tests/test_cli_help.py
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

from surftop.cli import main

SNAPSHOT = Path(__file__).parent / "data" / "cli_help.json"
COMMANDS = ("classify", "surface", "compare", "counterexample", "count")


def perfbench_jobs():
    """perfbench/jobs.py, imported by path: the benchmark's job lists."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", Path(__file__).parents[1] / "perfbench" / "jobs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module


CASES = [
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in COMMANDS),
    *perfbench_jobs().USAGE_ERRORS,
    # usage errors of tests/test_cli.py
    ["counterexample", "--primes", ""],
    ["counterexample", "--primes", ","],
    ["counterexample", "--primes", "3", "--degrees", "4"],
    ["surface", "--c1sq", "9"],
    # forms the direct reader declines and argparse accepts or refuses
    ["count", "--var", "fermat4", "--p", "5"],
    ["count", "--variety", "fermat4", "--p=5"],
    ["count", "--variety", "fermat4", "--p", "5", "--p", "7"],
    ["count", "--variety", "fermat4", "--p", "5", "--json", "--json"],
    ["count", "--variety", "fermat4", "--p", "--json"],
    ["count", "--variety", "fermat4", "--p", "5", "--bogus"],
    ["count", "--variety", "fermat4", "--p", "-x"],
    ["surface", "--name", "K3", "--c1sq", "--c2", "1"],
]


def capture(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def key(argv: list[str]) -> str:
    return json.dumps(argv, ensure_ascii=False)


def test_help_and_usage_match_snapshot(monkeypatch):
    snapshot = json.loads(SNAPSHOT.read_text())
    monkeypatch.setenv("COLUMNS", "80")
    assert sorted(snapshot) == sorted(key(argv) for argv in CASES)
    for argv in CASES:
        assert capture(argv) == snapshot[key(argv)], (
            f"{argv}: the snapshot is checked on Python 3.10 to 3.13; if Python "
            f"{sys.version_info[0]}.{sys.version_info[1]} only words argparse's output "
            "differently, rewrite it with `PYTHONPATH=src python3.X tests/test_cli_help.py`")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    snapshot = {key(argv): capture(argv) for argv in CASES}
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
