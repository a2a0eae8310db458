"""The package's lazy exports: every public name resolves to the object its
submodule defines, dir() lists them, unknown names raise AttributeError,
submodules still import through the package, no module imports a name it
never uses, and no private helper goes unused."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import qexpand


def test_every_export_is_the_submodule_object():
    for name in qexpand.__all__:
        module = importlib.import_module(f"qexpand.{qexpand._MODULE_OF[name]}")
        assert getattr(qexpand, name) is getattr(module, name), name


def test_exports_cover_the_public_api():
    # the 58 names the package has exported, less qpoch_num and
    # spot_check_series, deleted because only tests called them
    assert len(qexpand.__all__) == len(set(qexpand.__all__)) == 56
    assert not {"qpoch_num", "spot_check_series"} & set(qexpand.__all__)
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


def _read_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dead_helpers(modules):
    """(module, name) of each private module-level function and private
    method that no code in `modules` reads outside its own definition.

    `modules` maps a module name to its (source, namespace).  Dunders are
    exempt, and so are methods that override a base-class method, which
    the base class's code calls.
    """
    reads = Counter()
    helpers = []
    for module, (source, namespace) in modules.items():
        tree = ast.parse(source)
        reads.update(filter(None, map(_read_name, ast.walk(tree))))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                helpers.append((module, node.name, node))
            elif isinstance(node, ast.ClassDef):
                bases = namespace[node.name].__mro__[1:]
                helpers += [(module, f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not any(hasattr(base, item.name) for base in bases)]
    dead = []
    for module, qualname, node in helpers:
        name = node.name
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        own = sum(_read_name(n) == name for n in ast.walk(node))
        if reads[name] == own:
            dead.append((module, qualname))
    return sorted(dead)


def test_dead_helper_finder_flags_only_unread_helpers():
    source = (
        "class Base:\n"
        "    def run(self): return self._hook()\n"
        "    def _hook(self): return 0\n"
        "class Sub(Base):\n"
        "    def _hook(self): return 1\n"
        "    def _recurse(self): return self._recurse()\n"
        "    def __len__(self): return 0\n"
        "def _used(): return 0\n"
        "def _dead(): return 0\n"
        "def public(): return _used()\n"
    )
    namespace = {}
    exec(source, namespace)
    assert _dead_helpers({"m": (source, namespace)}) == [("m", "Sub._recurse"), ("m", "_dead")]


def test_no_private_helper_is_unused():
    src = Path(qexpand.__file__).parent
    modules = {}
    for path in sorted(src.glob("*.py")):
        name = "qexpand" if path.stem == "__init__" else f"qexpand.{path.stem}"
        modules[name] = (path.read_text(encoding="utf-8"), vars(importlib.import_module(name)))
    assert _dead_helpers(modules) == []


_TERM_FORMAT = {"terms", "runs", "pack", "unpack"}


def _term_format_reads(source: str):
    """(line, attribute) of each read of the packed-term attributes."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in _TERM_FORMAT
                  and isinstance(node.ctx, ast.Load))


def test_term_format_finder_flags_only_reads():
    source = ("n = len(p.terms)\nx.runs = {}\nk = table.pack(v)\n"
              "table.unpack(k)\np.term_count\nruns = terms\n")
    assert _term_format_reads(source) == [(1, "terms"), (3, "pack"), (4, "unpack")]


def test_term_format_stays_in_ring():
    # only ring.py decodes the packed keys and runs, so the format can
    # change there alone
    src = Path(qexpand.__file__).parent
    found = {
        path.name: _term_format_reads(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py")) if path.name != "ring.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
