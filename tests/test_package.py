"""Package layout: public names resolve and the census layer's imports stay narrow."""

import ast
import importlib
import pkgutil
from pathlib import Path

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

