"""Package layout: public names resolve and the census layer's imports stay narrow."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import revprime

MODULES = sorted(info.name for info in pkgutil.iter_modules(revprime.__path__))


def package_imports(module) -> set[str]:
    """The revprime modules a module's source imports, read with ast."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("revprime."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("revprime."):
                    found.add(alias.name.split(".")[1])
    return found


def test_every_public_name_resolves():
    checked = 0
    for name in ["revprime", *(f"revprime.{m}" for m in MODULES)]:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), name
        for public in exported:
            assert hasattr(module, public), f"{name}.{public}"
        checked += len(exported)
    assert checked > 0


def test_revcount_reads_only_arith_and_basedigits():
    from revprime import revcount

    assert package_imports(revcount) == {"arith", "basedigits"}


def test_package_import_loads_no_submodule():
    # the re-exports resolve on first access, so a bare import of the
    # package leaves basedigits and seeds unloaded
    src = Path(revprime.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = (
        "import sys, revprime; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('revprime'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert proc.stdout.split() == ["revprime"]


def test_lazy_names_are_the_module_objects():
    from revprime import basedigits, seeds

    assert revprime.reverse is basedigits.reverse
    assert revprime.sod_seed is seeds.sod_seed
    with pytest.raises(AttributeError, match="no_such_name"):
        revprime.no_such_name
