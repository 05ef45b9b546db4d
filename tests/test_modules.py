"""Module-level checks: annotations resolve, every import is used (in the
tests too), the README names only modules that exist, and the cli imports
stay lean."""

import ast
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import typing

import pytest

import gradleak

MODULES = sorted(f"gradleak.{m.name}" for m in pkgutil.iter_modules(gradleak.__path__))


def _defined_callables(module):
    """Functions and methods whose code lives in `module`, by qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_every_annotation_resolves(module_name):
    # stands in for an undefined-name lint: a name used only in an
    # annotation fails here rather than when someone introspects it
    module = importlib.import_module(module_name)
    unresolved = []
    for qualname, fn in _defined_callables(module):
        try:
            typing.get_type_hints(fn)
        except NameError as e:
            unresolved.append(f"{qualname}: {e}")
    assert not unresolved


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (at any depth) but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


TESTS = os.path.dirname(os.path.abspath(__file__))
SOURCES = [pytest.param(importlib.util.find_spec(m).origin, id=m) for m in MODULES] + [
    pytest.param(os.path.join(TESTS, f), id=f"tests/{f}")
    for f in sorted(os.listdir(TESTS)) if f.endswith(".py")
]


@pytest.mark.parametrize("path", SOURCES)
def test_every_import_is_used(path):
    # stands in for an unused-import lint over the package and its tests;
    # the package __init__, whose imports are re-exports, is not among MODULES
    with open(path, encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == []


def test_no_test_seeds_from_the_salted_builtin_hash():
    # hash() of a str is salted per process, so a seed drawn from it moves
    # every run's probe points; zlib.crc32 of the name is the same everywhere
    seeded = []
    for f in sorted(os.listdir(TESTS)):
        if f.endswith(".py"):
            with open(os.path.join(TESTS, f), encoding="utf-8") as fh:
                seeded += [f"{f}: {line.strip()}" for line in fh
                           if re.search(r"SeedRng\(.*\bhash\(", line)]
    assert seeded == []


def test_readme_layout_names_only_package_modules():
    # a deleted module's row cannot linger in the README's Layout table
    with open(os.path.join(os.path.dirname(TESTS), "README.md"), encoding="utf-8") as fh:
        layout = fh.read().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(gradleak\.\w+)` \|", layout, flags=re.MULTILINE)
    assert rows
    assert [m for m in rows if m not in MODULES] == []


def test_cli_import_leaves_out_the_worker_pool():
    src = os.path.dirname(os.path.dirname(gradleak.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = "import sys, gradleak.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
