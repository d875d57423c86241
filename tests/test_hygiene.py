"""Static checks that keep the package surface small: every exported name
and every dataclass field has a reader inside the package, no module
imports what it never uses, the lattice loads no scipy, no module imports
scipy outside the SuperLU path, the sampler holds no process plumbing,
every name the benchmark's tracer wraps still exists and runs as often as
the tracer counts it, the CLI has one error path whose exit codes the
docs name, only ``fileio`` spells the CSV dialect of the files the CLI
writes, only ``lattice.pow2_scaled`` spells the power-of-two scale rule,
and only ``model.check_window`` and ``model.check_positive`` spell the
window and positive-and-finite rules."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import openblas_in_scipy_and_numpy

from smfdenoise import cli, sampler
from smfdenoise.lattice import Raster
from smfdenoise.model import HyperParams

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smfdenoise"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# a package's __init__ imports in order to re-export
SOURCES = [p for p in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
           if p.name != "__init__.py"]


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    """The string entries of the module's top-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def read_names(tree):
    """Names the module reads, bare or as an attribute.  The strings of
    ``__all__`` are constants, so they do not count as reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def attribute_reads(tree):
    """Attribute names the module reads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def dataclass_fields(tree):
    """(class, field) for each annotated field of each ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def imported(tree):
    """(bound name, line) of each top-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_export_is_read_inside_the_package():
    # a public name that only tests read is test-only API
    trees = {p.stem: parse(p) for p in MODULES}
    reads = set().union(*(read_names(t) for t in trees.values()))
    unread = [f"{name}.{export}" for name, tree in trees.items()
              for export in exported(tree) if export not in reads]
    assert unread == []


def test_every_dataclass_field_is_read_inside_the_package():
    # a field that nothing reads is dead state that every caller still fills
    trees = {p.stem: parse(p) for p in MODULES}
    attrs = set().union(*(attribute_reads(t) for t in trees.values()))
    unread = [f"{name}.{cls}.{field}" for name, tree in trees.items()
              for cls, field in dataclass_fields(tree) if field not in attrs]
    assert unread == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported(tree) if name not in used]
    assert unused == []


def test_lattice_loads_no_scipy():
    # a precision is its edge weights and Q's closed-form entries; a sparse
    # form of Q would load scipy with the lattice.  The package __init__
    # re-exports the sampler, which loads scipy's LAPACK extension, so the
    # module is imported into a bare package.
    code = ("import sys, types; pkg = types.ModuleType('smfdenoise'); "
            "pkg.__path__ = [sys.argv[1]]; sys.modules['smfdenoise'] = pkg; "
            "import smfdenoise.lattice; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(PACKAGE)], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def scopes_where(tree, matches):
    """The scope of each node for which ``matches`` holds: the dotted names
    of its enclosing classes and functions, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if matches(child):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def imports_scipy(node):
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module]
    else:
        modules = []
    return any(m == "scipy" or m.startswith("scipy.") for m in modules)


def test_scipy_is_imported_only_on_the_superlu_path():
    # importing scipy's packages more than doubles a CLI process's start-up;
    # the sampler loads only scipy's LAPACK extension, and only a lattice
    # past the band bound, whose sweeps take seconds, imports scipy.sparse
    scopes = {f"{p.stem}:{scope}" for p in sorted(PACKAGE.glob("*.py"))
              for scope in scopes_where(parse(p), imports_scipy)}
    assert scopes <= {"sampler:splu", "sampler:SuperLUSolver.solve"}


def test_sampler_holds_no_process_plumbing():
    # the chain pool lives in pool.py, so sampler.py is the Gibbs chain alone
    banned = ("atexit", "os", "multiprocessing", "concurrent.futures")
    modules = set()
    for node in ast.walk(parse(PACKAGE / "sampler.py")):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert sorted(m for m in modules
                  if any(m == b or m.startswith(b + ".") for b in banned)) == []


def traced_attributes():
    """(module, attribute) for each package attribute that
    ``perfbench/tracing.py``'s ``install`` reads, wraps or replaces."""
    tree = parse(ROOT / "perfbench" / "tracing.py")
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {alias.asname or alias.name for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) and node.module == "smfdenoise"
               for alias in node.names}
    found = set()
    for node in ast.walk(install):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_wrap"
                and isinstance(node.args[0], ast.Name) and node.args[0].id in modules):
            found.add((node.args[0].id, node.args[1].value))
    return sorted(found)


def test_every_traced_attribute_exists():
    # a renamed or removed name would break --trace 1 and --self-test only
    # when the benchmark runs
    traced = traced_attributes()
    assert ("sampler", "splu") in traced and ("cli", "denoise") in traced
    missing = [f"{module}.{attr}" for module, attr in traced
               if not hasattr(importlib.import_module(f"smfdenoise.{module}"), attr)]
    assert missing == []


@pytest.mark.parametrize("variant", [sampler.IGMRF, sampler.HIGMRF])
def test_traced_sampler_names_run_as_the_tracer_counts_them(monkeypatch, variant):
    # the tracer counts sweeps by sample_field_given_gamma and times each
    # stage by the name it wraps, so a chain that stopped calling one of
    # them through the module would drop out of the traced metrics silently
    n_iter = 7
    higmrf = n_iter if variant == sampler.HIGMRF else 0
    expected = {"sample_field_given_gamma": n_iter, "sample_gamma": n_iter,
                "sample_kappas": n_iter, "get_binary_image": higmrf,
                "build_higmrf_precision": higmrf,
                "build_igmrf_precision": int(variant == sampler.HIGMRF), "splu": 0}
    assert {attr for module, attr in traced_attributes() if module == "sampler"} == set(expected)
    calls = dict.fromkeys(expected, 0)
    for name in expected:
        def counted(*args, name=name, orig=getattr(sampler, name), **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(sampler, name, counted)
    y = Raster.from_2d(np.random.default_rng(3).standard_normal((12, 12)))
    sampler.denoise(y, HyperParams(n_iter=n_iter, burn_in=2), variant)
    assert calls == expected


def test_openblas_thread_setter_resolves():
    # without them the banded factor silently goes back to threaded BLAS-3
    # calls past kd = 64, and the spectral solve to threaded matmuls, so a
    # build that renames the symbol must fail here
    if openblas_in_scipy_and_numpy():
        assert len(sampler._blas_setters) == 2


def documented_exit_codes(text, start):
    """The codes of the list that follows ``start`` in ``text``: one per
    line, the code first (in backticks in README.md), up to a blank line."""
    assert start in text
    block = text.split(start, 1)[1].strip("\n").split("\n\n", 1)[0]
    return {int(m) for m in re.findall(r"^\s*(?:- )?`?(\d+)`?\s", block, re.M)}


def test_exit_codes_agree_across_readme_docstring_and_constants():
    # README.md and cli must document the same codes the CLI returns
    constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert set(cli._EXIT_CODES.values()) <= constants
    assert documented_exit_codes(cli.__doc__, "Exit codes:") == constants
    readme = (ROOT / "README.md").read_text()
    assert documented_exit_codes(readme, "Exit codes:") == constants


def test_commands_raise_rather_than_report_failures():
    # one error path: a command raises, and only cli.main prints to stderr
    # and maps the failure to its exit code
    tree = parse(PACKAGE / "cli.py")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    writers = sorted(f.name for f in functions if any(
        isinstance(node, ast.Attribute) and node.attr == "stderr" for node in ast.walk(f)))
    assert writers == ["main"]

    def codes(expr):
        if expr is None:  # a bare return
            return {"None"}
        if isinstance(expr, ast.IfExp):
            return codes(expr.body) | codes(expr.orelse)
        return {expr.id if isinstance(expr, ast.Name) else ast.unparse(expr)}

    returned = {f.name: set().union(*(codes(node.value) for node in ast.walk(f)
                                      if isinstance(node, ast.Return)))
                for f in functions if f.name.startswith("cmd_")}
    assert set(returned) == {"cmd_synth", "cmd_denoise", "cmd_bench", "cmd_diagnose"}
    stray = {name: r - {"EXIT_OK", "EXIT_NOT_CONVERGED"} for name, r in returned.items()}
    assert not any(stray.values()), stray


def dialect_spellings(tree):
    """Lines that spell the CSV dialect outside the text of a ``raise``: a
    string that holds the 9-digit number format, or an f-string that opens
    with "# " and a value, as an echo line does."""
    raised = {id(node) for r in ast.walk(tree) if isinstance(r, ast.Raise)
              for node in ast.walk(r)}
    found = []
    for node in ast.walk(tree):
        if id(node) in raised:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".9g" in node.value:
            found.append(node.lineno)
        elif (isinstance(node, ast.JoinedStr) and len(node.values) > 1
              and getattr(node.values[0], "value", None) == "# "
              and isinstance(node.values[1], ast.FormattedValue)):
            found.append(node.lineno)
    return found


def test_only_fileio_spells_the_csv_dialect():
    # every file the CLI writes frames its lines and formats its numbers
    # through fileio, so a change to the dialect is made in one place; an
    # error message may still show a number to 9 digits
    assert "fileio" in {p.stem for p in MODULES}
    spellings = {p.stem: dialect_spellings(parse(p)) for p in MODULES if p.stem != "fileio"}
    assert {name: lines for name, lines in spellings.items() if lines} == {}
    assert dialect_spellings(parse(PACKAGE / "fileio.py")) != []


def spells_frexp(node):
    return ((isinstance(node, ast.Attribute) and node.attr == "frexp")
            or (isinstance(node, ast.Name) and node.id == "frexp"))


def test_only_pow2_scaled_spells_the_scale_rule():
    # every sum or square of intensities or traces runs on them divided by
    # one power of two, taken in one helper; a second frexp would be a
    # second copy of the rule
    found = {p.stem: scopes_where(parse(p), spells_frexp) for p in MODULES}
    assert {name: where for name, where in found.items() if where} == {
        "lattice": ["pow2_scaled"]}


def spells(phrase):
    def matches(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value
    return matches


@pytest.mark.parametrize("phrase,owner", [("must be odd", "check_window"),
                                          ("must be positive and finite", "check_positive")])
def test_only_model_spells_the_parameter_rules(phrase, owner):
    # a window and a scale are each checked by one helper; a second message
    # would be a second copy of the rule
    found = {p.stem: scopes_where(parse(p), spells(phrase)) for p in MODULES}
    assert {name: where for name, where in found.items() if where} == {"model": [owner]}
