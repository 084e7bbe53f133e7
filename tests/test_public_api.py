"""The package's public names, the hooks the benchmark wraps, and imports.

`import teachsim` exports an explicit `__all__`; every name in it has a
caller outside the package's own modules.  `perfbench/tracer.py` rebinds
package functions and methods by name, so a rename must fail here rather
than silently break `perfbench/run.py --trace 1`.
"""

import ast
import glob
import importlib.util
import os
import re
import subprocess
import sys
import types

import teachsim
from teachsim.exam import RemoteLearner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "teachsim")

# Callers whose reach decides what the package root exports.
_CALLERS = (glob.glob(os.path.join(ROOT, "demos", "*.py"))
            + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
            + [os.path.join(ROOT, "tests", "test_acceptance.py"),
               os.path.join(ROOT, "README.md"),
               os.path.join(PACKAGE, "cli.py"),
               os.path.join(PACKAGE, "config.py")])


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _literal_all(tree):
    """The strings of a module-level `__all__ = [...]`, or None."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            return [elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)]
    return None


def test_all_is_a_literal_list_of_names():
    names = _literal_all(_parse(os.path.join(PACKAGE, "__init__.py")))
    assert names == teachsim.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not isinstance(getattr(teachsim, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from teachsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(teachsim.__all__)


def test_every_exported_name_has_a_caller():
    text = ""
    for path in _CALLERS:
        with open(path) as fh:
            text += fh.read()
    for name in teachsim.__all__:
        assert re.search(rf"\b{name}\b", text), (
            f"{name} is exported but no demo, perfbench script, acceptance "
            f"test, README or CLI/config module names it")


def test_benchmark_hooks_resolve():
    tracer = _tracer()
    for module, name in tracer.SPANNED + tracer.COUNTED:
        assert callable(getattr(importlib.import_module(f"teachsim.{module}"),
                                name)), f"teachsim.{module}.{name}"
    teachers = importlib.import_module("teachsim.teachers")
    for cls in tracer._TEACHER_KIND:
        assert callable(getattr(teachers, cls).step), cls
    for method in ("query", "teach", "observe_parameters"):
        assert callable(getattr(RemoteLearner, method)), method
    # perfbench/run.py: from teachsim import read_trace, samples_to_threshold
    assert callable(teachsim.read_trace)
    assert callable(teachsim.samples_to_threshold)


def test_tracer_installs_after_a_bare_package_import():
    # The tracer reads modules from sys.modules once `from teachsim import
    # cli, exam, teachers` has run, so that lookup must load all of them.
    code = ("import importlib.util, sys, teachsim\n"
            "spec = importlib.util.spec_from_file_location('tracer', "
            "sys.argv[1])\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "tracer.Tracer('t').install()\n")
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    proc = subprocess.run(
        [sys.executable, "-c", code,
         os.path.join(ROOT, "perfbench", "tracer.py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_package_definition_is_used_or_exported():
    # a top-level def or class must be named, as an ast.Name or an
    # ast.Attribute, in the package, a demo or perfbench, or be exported
    modules = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    used, defined = set(teachsim.__all__), []
    for path in (modules + glob.glob(os.path.join(ROOT, "demos", "*.py"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path in modules:
            defined += [(os.path.basename(path), node.name)
                        for node in tree.body
                        if isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
    assert [(mod, name) for mod, name in defined if name not in used] == []


def _unused_imports(path):
    tree = _parse(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_literal_all(tree) or ())  # re-exported names are used
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_package_modules_have_no_unused_imports():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert paths
    found = {os.path.basename(p): _unused_imports(p) for p in paths}
    assert {k: v for k, v in found.items() if v} == {}


def test_tests_and_demos_have_no_unused_imports():
    paths = sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))
                   + glob.glob(os.path.join(ROOT, "demos", "*.py")))
    assert paths
    found = {os.path.relpath(p, ROOT): _unused_imports(p) for p in paths}
    assert {k: v for k, v in found.items() if v} == {}
