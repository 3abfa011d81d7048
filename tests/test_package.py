"""The `surftop` package namespace: its public names and their lazy loading.

FOOTPRINT below is the one table of what each command, and each layer on
its own, loads. Every row runs once, in a fresh interpreter: test_load_footprint
pins each row, and the tests after it pin the rules the rows follow.
"""

import ast
from pathlib import Path

import pytest

import surftop
from oracles import run_fresh
from surftop import classification, errors, lattice, surfaces, zeta

# written by hand from the re-export blocks the package had before it loaded lazily
PUBLIC = {
    classification: {
        "ClassificationMode", "DefiniteDiagonal", "FormClass", "FormInvariants",
        "IndefiniteEven", "IndefiniteOdd", "Parity", "classify_form", "describe",
    },
    errors: {"DomainError"},
    lattice: {"GramMatrix", "determinant", "invariants", "parity"},
    surfaces: {
        "SurfaceData", "SurfaceInvariants", "blow_up", "catalog", "catalog_lookup",
        "compute_invariants", "homeomorphic", "hypersurface", "intersection_form_class",
    },
    zeta: {
        "FiniteField", "PointCount", "build_field", "count_blowup_p2", "count_hypersurface_p3",
        "count_p1xp1", "count_variety", "counterexample_report", "fermat_form",
    },
}
OWNER = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_lists_the_32_public_names():
    assert len(OWNER) == 32
    assert len(surftop.__all__) == 32
    assert set(surftop.__all__) == set(OWNER)


def test_lattice_takes_only_the_invariant_record_and_parity_from_classification():
    tree = ast.parse(Path(lattice.__file__).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "classification" and node.level == 1
             for alias in node.names}
    assert names == {"FormInvariants", "Parity"}


@pytest.mark.parametrize("name", sorted(OWNER))
def test_name_resolves_to_its_module_attribute(name):
    assert getattr(surftop, name) is getattr(OWNER[name], name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from surftop import *", namespace)
    assert {name: namespace[name] for name in OWNER} == {
        name: getattr(module, name) for name, module in OWNER.items()
    }


def test_layer_modules_are_attributes():
    assert surftop.zeta.MAX_Q == 343
    for module in PUBLIC:
        assert getattr(surftop, module.__name__.rpartition(".")[2]) is module


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        surftop.nope
    assert not hasattr(surftop, "cli_main")


def test_dir_lists_public_names():
    assert set(OWNER) <= set(dir(surftop))


def test_access_reads_the_module_each_time(monkeypatch):
    surftop.determinant
    assert "determinant" not in vars(surftop)
    sentinel = object()
    monkeypatch.setattr(lattice, "determinant", sentinel)
    assert surftop.determinant is sentinel


# the standard-library modules whose loading the table pins
WATCHED = ("argparse", "json", "dataclasses", "inspect", "random", "fractions", "decimal", "__future__")
# runs a row in a fresh interpreter; prints its exit code, the first line of
# its stdout and stderr, the surftop modules loaded, and the watched ones
PROBE = """\
import contextlib, io, sys
code, out = None, io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    {}
print(code, out.getvalue().partition("\\n")[0], sep="\\n")
print(*sorted(m for m in sys.modules if m.split(".")[0] == "surftop"))
print(*(m for m in {!r} if m in sys.modules))
"""
SURFACE = "classification cli cli_surfaces errors surfaces"
HELP = "cli cli_help errors"
K3 = "surface --name K3"
COUNT = "count --variety fermat4 --p 5"
COUNTEREXAMPLE = "counterexample --primes 2 --degrees 1"
CLASSIFY = "classify --gram h.json"

# what each command loads. A row is code, or an argv (split on spaces) that
# main(argv) runs; it gives the exit code (None for code) and the start of the
# first line of output; the surftop modules it loads beside the package; the
# WATCHED modules it loads. `cli` holds the reader, the encoder and the count
# runner; cli_help, loaded only for help and an argparse usage error, writes
# them; cli_gram runs classify, and cli_surfaces surface, compare and
# counterexample. No argv loads argparse; json is loaded only to read a Gram
# file (--json output is written without it); a layer loads no layer it does
# not use, and none loads rational arithmetic, dataclasses, inspect, random or
# __future__.
FOOTPRINT = {
    "import surftop.classification": (None, "", "classification errors", ""),
    "import surftop.zeta as z; z.counterexample_report([2], 1)": (None, "", "errors zeta", ""),
    "import surftop.cli": (None, "", "cli errors", ""),
    COUNT: (0, "fermat4 over GF(5): 0 points", "cli errors zeta", ""),
    "count --variety fermat4 --p 9": (1, "NotPrime: 9 is not prime", "cli errors zeta", ""),
    "count --variety P1xP1 --p 347": (2, "usage error: q = 347 exceeds", "cli errors zeta", ""),
    f"{COUNT} --json": (0, '{"count":0,"k":1,"p":5,"q":5,"variety":"fermat4"}', "cli errors zeta", ""),
    "count --var fermat4 --p 5": (0, "fermat4 over GF(5): 0 points", "cli errors zeta", ""),
    "-h": (0, "usage: surftop [-h]", HELP, ""),
    "frobnicate": (2, "usage: surftop [-h]", HELP, ""),
    K3: (0, "deg4: c1^2 0, c2 24, spin", SURFACE, ""),
    f"{K3} --json": (0, '{"class":', SURFACE, ""),
    "compare --a P1xP1 --b BlP2": (0, "P1xP1: c1^2 8, c2 4, spin", SURFACE, ""),
    "compare --a K3 --b Bl1P2 --json": (0, '{"a":', SURFACE, ""),
    COUNTEREXAMPLE: (0, "surfaces: P1xP1 vs Bl1P2", f"{SURFACE} zeta", ""),
    f"{COUNTEREXAMPLE} --json": (0, '{"all_counts_equal":true', f"{SURFACE} zeta", ""),
    CLASSIFY: (0, "rank 2  b+ 1  b- 1", "classification cli cli_gram errors lattice", "json"),
}
_SEEN = {}


def seen(row: str, cwd: Path) -> tuple[str, str, list[str], list[str]]:
    """(exit code, first line of output, surftop layers, WATCHED modules) of a
    FOOTPRINT row, run in a fresh interpreter in cwd, once per test session."""
    if row not in _SEEN:
        (cwd / "h.json").write_text('{"n": 2, "entries": [[0, 1], [1, 0]]}')
        run = row if row.startswith("import ") else (
            f"import surftop.cli; code = surftop.cli.main({row.split()})")
        out = run_fresh("-c", PROBE.format(run, WATCHED), cwd=cwd, capture_output=True, text=True,
                        check=True).stdout
        status, first, loaded, stdlib = out.split("\n")[:4]
        assert loaded.split()[0] == "surftop"
        _SEEN[row] = status, first, [m.partition(".")[2] for m in loaded.split()[1:]], stdlib.split()
    return _SEEN[row]


@pytest.mark.parametrize("row", FOOTPRINT)
def test_load_footprint(row, tmp_path):
    code, first_line, layers, watched = FOOTPRINT[row]
    status, first, loaded, stdlib = seen(row, tmp_path)
    assert (status, first[:len(first_line)], loaded, stdlib) == (str(code), first_line, layers.split(),
                                                                 watched.split())


# the rules the table follows, each under its own name
def test_classify_loads_no_zeta(tmp_path):
    assert "zeta" not in seen(CLASSIFY, tmp_path)[2]


@pytest.mark.parametrize("row", [CLASSIFY], ids=["classify h.json"])
def test_json_io_loads_json(row, tmp_path):
    assert "json" in seen(row, tmp_path)[3]


# `python -m surftop.cli` runs cli as __main__, not as surftop.cli. No CLI submodule
# imports cli, so none of the three paths that load one loads a second copy of it
@pytest.mark.parametrize("row", [CLASSIFY, "-h", "frobnicate"], ids=lambda row: row.split()[0])
def test_module_run_imports_no_second_cli(row, tmp_path):
    (tmp_path / "h.json").write_text('{"n": 2, "entries": [[0, 1], [1, 0]]}')
    proc = run_fresh("-X", "importtime", "-m", "surftop.cli", *row.split(), cwd=tmp_path,
                     capture_output=True, text=True)
    code, first_line = FOOTPRINT[row][:2]
    assert (proc.returncode, first_line in proc.stdout + proc.stderr) == (code, True)
    assert "surftop.cli" not in [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
