"""Every name the package exports serves the package or a documented library use.

A name exported by ``apmlab/__init__.py`` must be read somewhere in
``src/apmlab`` outside its own definition and the export, or be named in the
README's "Library entry points" section.  A name that only its own tests call
fails here.  That section's example runs as written, and every function it
names is an attribute of ``apmlab``.  The README lists every hypothesis of
``apmlab.checks.HYPOTHESES`` with its skip reason.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re

import apmlab
from apmlab.checks import HYPOTHESES

PACKAGE_DIR = os.path.dirname(apmlab.__file__)
README = os.path.join(os.path.dirname(os.path.dirname(PACKAGE_DIR)), "README.md")


def exported_names() -> list[str]:
    with open(os.path.join(PACKAGE_DIR, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_read_in_package() -> set[str]:
    """Names the package's modules load, imports excluded.

    An attribute counts only on an alias of an apmlab module, as in
    ``curv.psi1``: a method that shares an exported name, such as
    ``entry.eval_jet``, does not read the export.
    """
    read = set()
    for entry in os.listdir(PACKAGE_DIR):
        if not entry.endswith(".py") or entry == "__init__.py":
            continue
        with open(os.path.join(PACKAGE_DIR, entry)) as fh:
            tree = ast.parse(fh.read())
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return read


def library_entry_points_section() -> str:
    with open(README) as fh:
        text = fh.read()
    match = re.search(r"^## Library entry points\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, "README has no 'Library entry points' section"
    return match.group(1)


def test_every_export_is_used_or_documented():
    read = names_read_in_package()
    section = library_entry_points_section()
    unserved = [
        name for name in exported_names()
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", section)
    ]
    assert unserved == []


def test_library_entry_points_example_runs(capsys):
    (example,) = re.findall(r"^```python\n(.*?)^```", library_entry_points_section(), re.M | re.S)
    namespace: dict = {}
    exec(compile(example, README, "exec"), namespace)
    label, value = capsys.readouterr().out.splitlines()
    assert label == "W1"
    assert math.isfinite(float(value))
    assert namespace["residual"] < 1e-12


def test_library_entry_points_name_only_exports():
    """Each `name(` the section writes, not a method as in `frame.connection(`, is exported."""
    called = re.findall(r"`([A-Za-z_]\w*)\(", library_entry_points_section())
    assert called
    assert [name for name in called if not hasattr(apmlab, name)] == []


def test_no_class_in_the_package_is_generated_at_import():
    """No class defined in apmlab is a dataclass or a NamedTuple.

    Both decorators write each class's methods as source text and ``exec`` it
    when the module is imported, 0.6-1.4 ms per class: with 14 such classes
    that was about a quarter of every ``apmlab`` start-up.  A plain class with
    a hand-written ``__init__`` costs about 10 us.  This guards import time.
    """
    generated = []
    for info in pkgutil.iter_modules(apmlab.__path__):
        if info.name == "__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(f"apmlab.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(cls) or (issubclass(cls, tuple) and hasattr(cls, "_fields")):
                generated.append(f"{module.__name__}.{name}")
    assert generated == []


def test_readme_lists_each_hypothesis_with_its_skip_reason():
    with open(README) as fh:
        text = " ".join(fh.read().split())  # a list item may wrap
    for name, reason in HYPOTHESES.items():
        assert f"- `{name}`: `{reason}`" in text, name
