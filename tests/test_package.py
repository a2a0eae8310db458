"""The package's lazy exports: every public name resolves to the object its
submodule defines, dir() lists them, unknown names raise AttributeError,
submodules still import through the package, no module imports a name it
never uses, no private helper goes unused, only listed public functions go
unread, only ring.py builds normal forms, coerces scalars and checks
symbol tables, IdentitySides is the one sides class and the only writer of
its private state, and README's Python examples run."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import qexpand


def test_every_export_is_the_submodule_object():
    for name in qexpand.__all__:
        module = importlib.import_module(f"qexpand.{qexpand._MODULE_OF[name]}")
        assert getattr(qexpand, name) is getattr(module, name), name


def test_exports_cover_the_public_api():
    # the 58 names the package has exported, less qpoch_num,
    # spot_check_series, pochhammer_finite, qpoch_param, qpoch_param_range
    # and substitute_in_series, deleted because only tests called them, and
    # qpow, deleted because q ** e builds the same value
    assert len(qexpand.__all__) == len(set(qexpand.__all__)) == 51
    assert not {"qpoch_num", "spot_check_series", "pochhammer_finite", "qpoch_param",
                "qpoch_param_range", "substitute_in_series", "qpow"} & set(qexpand.__all__)
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


def _unread_functions(modules):
    """(module, qualified name) of each module-level function and method
    that no code in `modules` reads outside its own definition.

    `modules` maps a module name to its (source, namespace).  Dunders are
    exempt, and so are methods that override a base-class method, which
    the base class's code calls.  A read is matched by the bare name, so a
    function read only by a same-named function or method elsewhere (as
    each `embed` once read the next) is not seen.
    """
    reads = Counter()
    functions = []
    for module, (source, namespace) in modules.items():
        tree = ast.parse(source)
        reads.update(filter(None, map(_read_name, ast.walk(tree))))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((module, node.name, node))
            elif isinstance(node, ast.ClassDef):
                bases = namespace[node.name].__mro__[1:]
                functions += [(module, f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not any(hasattr(base, item.name) for base in bases)]
    unread = []
    for module, qualname, node in functions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        own = sum(_read_name(n) == name for n in ast.walk(node))
        if reads[name] == own:
            unread.append((module, qualname))
    return sorted(unread)


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
    assert _unread_functions({"m": (source, namespace)}) == [
        ("m", "Base.run"), ("m", "Sub._recurse"), ("m", "_dead"), ("m", "public")]


def _unread_in_src():
    src = Path(qexpand.__file__).parent
    modules = {}
    for path in sorted(src.glob("*.py")):
        name = "qexpand" if path.stem == "__init__" else f"qexpand.{path.stem}"
        modules[name] = (path.read_text(encoding="utf-8"), vars(importlib.import_module(name)))
    return _unread_functions(modules)


def _is_private(qualname):
    return qualname.rpartition(".")[2].startswith("_")


def test_no_private_helper_is_unused():
    assert [hit for hit in _unread_in_src() if _is_private(hit[1])] == []


# the public functions and methods that no code in src/ reads, each with
# the reason it stays; a name that gains a src/ caller leaves the list
_UNREAD_PUBLIC = [
    # each side's coefficients with the clearing scale divided out, the
    # values a specialization of a check is stated on
    ("qexpand.identities", "IdentitySides.unscaled_lhs"),
    ("qexpand.identities", "IdentitySides.unscaled_rhs"),
    # Theorem 16 over any coefficient list, beside the registered instances
    ("qexpand.identities", "check_theorem16"),
    # Carlitz's formula, a paper formula the repository reproduces
    ("qexpand.inversion", "carlitz_coeffs"),
    # Corollary 3.10's coefficients, a paper formula
    ("qexpand.inversion", "coro310_coeffs"),
    # Theorem 25's matrix entry and matrix, paper formulas
    ("qexpand.inversion", "matrix_entry_thm25"),
    ("qexpand.inversion", "matrix_thm25"),
    # sum_n c_n z^n (az;q)_n/(bz;q)_n, the expansion summed back
    ("qexpand.inversion", "reconstruct"),
    # the cleared row sum S_n(y) of the paper
    ("qexpand.inversion", "sn_polynomial"),
    # perfbench/tracer.py wraps it; it goes with that metric
    ("qexpand.numeric", "check_qqq"),
    # exact evaluation at a point, kept to check built sides against analytic values
    ("qexpand.ring", "RatFun.evaluate"),
    # the series inverse; perfbench/tracer.py wraps it as series.invert
    ("qexpand.series", "TruncSeries.invert"),
    # multiplication by z^j, the shift the displayed forms are rebuilt with
    ("qexpand.series", "TruncSeries.mul_z"),
    # the substitution z -> zq^k of the paper's functional equations
    ("qexpand.series", "TruncSeries.shift_q"),
]


def test_only_listed_public_functions_are_unread():
    assert [hit for hit in _unread_in_src() if not _is_private(hit[1])] == _UNREAD_PUBLIC


_TERM_FORMAT = {"terms", "runs", "pack", "unpack", "_step", "_shifts", "_degshift"}


def _term_format_reads(source: str):
    """(line, attribute) of each read of the packed-term attributes, and
    of each subscript of a `names` attribute, as in asking which symbol
    leads a table and so holds its runs."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _TERM_FORMAT \
                and isinstance(node.ctx, ast.Load):
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "names":
            hits.append((node.lineno, "names[]"))
    return sorted(hits)


def test_term_format_finder_flags_only_reads():
    source = ("n = len(p.terms)\nx.runs = {}\nk = table.pack(v)\n"
              "table.unpack(k)\np.term_count\nruns = terms\n"
              "x = table.names[0]\nw = p.table._step\nfor n in args.names: pass\n")
    assert _term_format_reads(source) == [
        (1, "terms"), (3, "pack"), (4, "unpack"), (7, "names[]"), (8, "_step")]


def test_term_format_stays_in_ring():
    # only ring.py decodes the packed keys and runs, or knows which symbol
    # holds the runs, so the layout can change there alone
    src = Path(qexpand.__file__).parent
    found = {
        path.name: _term_format_reads(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py")) if path.name != "ring.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


_NORMAL_FORM = {"_ratfun", "_poly", "_cancel"}


def _normal_form_imports(source: str):
    """(line, name) of each import of ring's builders of normal forms and
    run values."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in _NORMAL_FORM)


def test_normal_form_import_finder_flags_only_builders():
    source = "from .ring import RatFun, SymbolTable, _dot\nfrom .ring import _ratfun as r\n"
    assert _normal_form_imports(source) == [(2, "_ratfun")]


def test_normal_forms_are_built_only_in_ring():
    # only ring builds normal forms and run values, so no other module can
    # make a value that skips RatFun's normalization or MultiPoly's bounds
    src = Path(qexpand.__file__).parent
    found = {
        path.name: _normal_form_imports(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py")) if path.name != "ring.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def _ring_job_copies(source: str):
    """(line, job) of each definition of `_coerce_scalar` and of each
    "mixed symbol tables" text, the jobs ring.py owns."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_coerce_scalar":
            hits.append((node.lineno, "_coerce_scalar"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "mixed symbol tables" in node.value:
            hits.append((node.lineno, "mixed symbol tables"))
    return sorted(hits)


def test_ring_job_finder_flags_only_copies():
    source = ("from .ring import _coerce_scalar\n"
              "def _coerce_scalar(t, c): return c\n"
              "raise StructureError('mixed symbol tables')\n"
              "raise StructureError(f'mixed symbol tables: {x}')\n")
    assert _ring_job_copies(source) == [
        (2, "_coerce_scalar"), (3, "mixed symbol tables"), (4, "mixed symbol tables")]


def test_scalar_coercion_and_table_checks_live_only_in_ring():
    # ring.py alone turns a scalar into a RatFun and rejects operands of
    # different symbol tables, so every layer coerces and checks alike
    src = Path(qexpand.__file__).parent
    found = {
        path.name: _ring_job_copies(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py")) if path.name != "ring.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def _run_int(target):
    """The name of the run int where a loop target unpacks a run, g, (lo, x)."""
    if isinstance(target, ast.Tuple) and len(target.elts) == 2:
        run = target.elts[1]
        if isinstance(run, ast.Tuple) and len(run.elts) == 2 and isinstance(run.elts[1], ast.Name):
            return run.elts[1].id
    return None


def _multiplies(nodes, x1, x2):
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
               and {getattr(n.left, "id", None), getattr(n.right, "id", None)} == {x1, x2}
               for node in nodes for n in ast.walk(node))


def _run_pair_loops(source: str):
    """Line of each loop over one poly's runs, in a loop or comprehension
    over another's, that multiplies the two run ints: a run-pair product."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For) and (x1 := _run_int(node.target)):
            if any(inner is not node and isinstance(inner, ast.For)
                   and (x2 := _run_int(inner.target)) and _multiplies(inner.body, x1, x2)
                   for inner in ast.walk(node)):
                hits.append(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            xs = [x for x in map(_run_int, (g.target for g in node.generators)) if x]
            elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            if any(_multiplies(elts, x1, x2) for x1 in xs for x2 in xs if x1 != x2):
                hits.append(node.lineno)
    return sorted(hits)


def test_run_pair_loop_finder_flags_only_pair_products():
    source = ("for g1, (lo1, x1) in r1.items():\n"
              "    for g2, (lo2, x2) in r2.items():\n"
              "        acc[g1 + g2] = (lo1 + lo2, x1 * x2 << s)\n"
              "out = {g1 + g2: (lo1 + lo2, x1 * x2) for g2, (lo2, x2) in many.items()}\n"
              "for g1, (lo1, x1) in r1.items():\n"
              "    for g2, (lo2, x2) in r2.items():\n"
              "        acc[g1 + g2] = x1 + x2\n"
              "out = [x1 * x2 for _, (_, x1) in r1.items() for _, (_, x2) in r2.items()]\n")
    assert _run_pair_loops(source) == [1, 8]


def test_the_run_pair_loop_is_written_once():
    # every product of two polys, and every sum of products, goes through
    # ring._add_products, so no second copy of the loop can drift from it
    src = Path(qexpand.__file__).parent
    found = {path.name: _run_pair_loops(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    assert {name: len(hits) for name, hits in found.items() if hits} == {"ring.py": 1}


def _sides_privates(source: str):
    """The private names IdentitySides defines or sets on self."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "IdentitySides":
            for n in ast.walk(node):
                if isinstance(n, ast.FunctionDef):
                    names.add(n.name)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) \
                        and getattr(n.value, "id", None) == "self":
                    names.add(n.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _sides_bypasses(source: str, privates):
    """(line, what) of each subclass of IdentitySides, and of each write,
    outside IdentitySides, of one of its private names to anything but
    `self` (another class's own attribute)."""
    hits = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any("IdentitySides" in (getattr(b, "id", None), getattr(b, "attr", None))
                       for b in child.bases):
                    hits.append((child.lineno, f"subclass {child.name}"))
                if child.name == "IdentitySides":
                    continue
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store) \
                    and child.attr in privates and getattr(child.value, "id", None) != "self":
                hits.append((child.lineno, ast.unparse(child)))
            visit(child)

    visit(ast.parse(source))
    return sorted(hits)


def test_sides_bypass_finder_flags_only_bypasses():
    source = ("class IdentitySides:\n"
              "    def __init__(self, read):\n"
              "        self._read, self._terms = read, None\n"
              "    def _edited(self, other):\n"
              "        other._terms = []\n"
              "class Mapped(IdentitySides):\n"
              "    pass\n"
              "class Failure:\n"
              "    def __init__(self, read):\n"
              "        self._read = read\n"
              "sides._read = None\n"
              "sides.rhs_terms, sides._edited = [], None\n"
              "x._other = 1\n"
              "def build():\n"
              "    class Deep(identities.IdentitySides): pass\n")
    privates = _sides_privates(source)
    assert privates == {"_read", "_terms", "_edited"}
    assert _sides_bypasses(source, privates) == [
        (6, "subclass Mapped"), (11, "sides._read"), (12, "sides._edited"), (15, "subclass Deep")]


def test_identity_sides_are_the_one_read_boundary():
    # IdentitySides alone turns built values into read values: no second
    # sides class, and no builder sets a sides object's state after the
    # fact, so every read map goes through its constructor
    src = Path(qexpand.__file__).parent
    privates = _sides_privates((src / "identities.py").read_text(encoding="utf-8"))
    assert {"_read", "_terms"} <= privates
    found = {path.name: _sides_bypasses(path.read_text(encoding="utf-8"), privates)
             for path in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_readme_python_examples_run():
    # each ```python block of README.md runs in a fresh namespace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
