"""The `surftop` package namespace: its public names and their lazy loading."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import surftop
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


def test_importing_one_layer_loads_no_other():
    code = (
        "import sys, surftop.classification; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'surftop')))"
    )
    src = str(Path(surftop.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["surftop", "surftop.classification", "surftop.errors"]


def test_counting_the_counterexample_loads_no_other_layer():
    code = (
        "import sys, surftop.zeta; surftop.zeta.counterexample_report([2], 1); "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'surftop')))"
    )
    src = str(Path(surftop.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["surftop", "surftop.errors", "surftop.zeta"]


def test_cli_start_loads_no_rational_arithmetic():
    code = "import sys, surftop.cli; print(' '.join(m for m in ('fractions', 'decimal') if m in sys.modules))"
    src = str(Path(surftop.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == []


def _loaded_by(argv: list[str], cwd: Path) -> tuple[list[str], list[str]]:
    """(surftop modules, of __future__, dataclasses, inspect and random those loaded)
    after a fresh process runs surftop.cli.main(argv) with stdout captured.
    The process starts without site (-S), so that no .pth file imports a
    module before surftop does."""
    code = (
        "import contextlib, io, sys, surftop.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = surftop.cli.main({argv!r})\n"
        "assert code == 0, code\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'surftop')))\n"
        "print(' '.join(m for m in ('__future__', 'dataclasses', 'inspect', 'random') if m in sys.modules))"
    )
    src = str(Path(surftop.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code],
        cwd=cwd,
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    layers, stdlib = out.split("\n")[:2]
    return layers.split(), stdlib.split()


def test_count_loads_only_zeta(tmp_path):
    layers, stdlib = _loaded_by(["count", "--variety", "fermat4", "--p", "5"], tmp_path)
    assert layers == ["surftop", "surftop.cli", "surftop.errors", "surftop.zeta"]
    assert stdlib == []


SURFACE_LAYERS = ["surftop", "surftop.classification", "surftop.cli", "surftop.errors", "surftop.surfaces"]


def test_surface_loads_no_zeta(tmp_path):
    layers, _ = _loaded_by(["surface", "--name", "K3"], tmp_path)
    assert layers == SURFACE_LAYERS


def test_compare_loads_no_zeta(tmp_path):
    layers, _ = _loaded_by(["compare", "--a", "K3", "--b", "Bl1P2"], tmp_path)
    assert layers == SURFACE_LAYERS


def test_classify_loads_no_zeta(tmp_path):
    (tmp_path / "h.json").write_text('{"n": 2, "entries": [[0, 1], [1, 0]]}')
    layers, _ = _loaded_by(["classify", "--gram", "h.json"], tmp_path)
    assert layers == [
        "surftop", "surftop.classification", "surftop.cli", "surftop.errors", "surftop.lattice",
    ]


def test_counterexample_loads_every_layer_but_lattice(tmp_path):
    layers, _ = _loaded_by(["counterexample", "--primes", "2", "--degrees", "1"], tmp_path)
    assert layers == [
        "surftop", "surftop.classification", "surftop.cli", "surftop.errors",
        "surftop.surfaces", "surftop.zeta",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--name", "K3"],
        ["classify", "--gram", "h.json"],
        ["counterexample", "--primes", "2", "--degrees", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_layer_commands_load_no_dataclasses_inspect_or_random(argv, tmp_path):
    (tmp_path / "h.json").write_text('{"n": 2, "entries": [[0, 1], [1, 0]]}')
    _, stdlib = _loaded_by(argv, tmp_path)
    assert stdlib == []


def _json_loaded(code: str, cwd: Path) -> bool:
    """Whether json is in sys.modules after a fresh process runs code."""
    src = str(Path(surftop.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code + "\nprint('json' in sys.modules)"],
        cwd=cwd,
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.splitlines()[-1] == "True"


def _main_code(argv: list[str]) -> str:
    return (
        "import contextlib, io, sys, surftop.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert surftop.cli.main({argv!r}) == 0\n"
    )


def test_cli_import_loads_no_json(tmp_path):
    assert not _json_loaded("import sys, surftop.cli", tmp_path)


@pytest.mark.parametrize(
    "argv",
    [["count", "--variety", "fermat4", "--p", "5"], ["surface", "--name", "K3"]],
    ids=lambda argv: argv[0],
)
def test_text_commands_load_no_json(argv, tmp_path):
    assert not _json_loaded(_main_code(argv), tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--gram", "h.json"],
        ["count", "--variety", "fermat4", "--p", "5", "--json"],
        ["surface", "--name", "K3", "--json"],
        ["compare", "--a", "K3", "--b", "Bl1P2", "--json"],
        ["counterexample", "--primes", "2", "--degrees", "1", "--json"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-1:]),
)
def test_json_io_loads_json(argv, tmp_path):
    (tmp_path / "h.json").write_text('{"n": 2, "entries": [[0, 1], [1, 0]]}')
    assert _json_loaded(_main_code(argv), tmp_path)
