"""The package's lazy exports: every public name resolves to the object its
submodule defines, dir() lists them, unknown names raise AttributeError,
submodules still import through the package, and no module imports a
name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import qexpand


def test_every_export_is_the_submodule_object():
    for name in qexpand.__all__:
        module = importlib.import_module(f"qexpand.{qexpand._MODULE_OF[name]}")
        assert getattr(qexpand, name) is getattr(module, name), name


def test_exports_cover_the_public_api():
    # the 58 names the package has always exported, none lost
    assert len(qexpand.__all__) == len(set(qexpand.__all__)) == 58
    for name in ("build_sides", "base_matrix", "check_qqq", "MultiPoly",
                 "TruncSeries", "QExpandError", "DEFAULT_PRECISION"):
        assert name in qexpand.__all__


def test_dir_lists_every_export():
    assert set(qexpand.__all__) <= set(dir(qexpand))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="nosuch"):
        qexpand.nosuch  # noqa: B018
    assert not hasattr(qexpand, "_mul_terms")


def test_submodules_import_through_the_package():
    from qexpand import identities, inversion, numeric, ring, series

    assert identities.build_sides is qexpand.build_sides
    assert inversion.base_matrix is qexpand.base_matrix
    assert numeric.check_qqq is qexpand.check_qqq
    assert ring.MultiPoly is qexpand.MultiPoly
    assert series.TruncSeries is qexpand.TruncSeries


def _unused_imports(source: str):
    """Names a module imports (anywhere, __future__ aside) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder_flags_only_unread_names():
    source = "from a import b, c\nimport d.e\nimport f as g\nc(d, g)\n"
    assert _unused_imports(source) == [(1, "b")]


def test_no_module_imports_an_unused_name():
    src = Path(qexpand.__file__).parent
    found = {
        path.name: _unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
