"""Package layout: public names resolve and the census layer's imports stay narrow."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import revprime

MODULES = sorted(info.name for info in pkgutil.iter_modules(revprime.__path__))


def package_imports(module, top_level=False) -> set[str]:
    """The revprime modules a module's source imports, read with ast.

    With top_level, only the imports run when the module loads count:
    none inside a function or an ``if TYPE_CHECKING:`` block.
    """
    found = set()
    tree = ast.parse(Path(module.__file__).read_text())
    for node in tree.body if top_level else ast.walk(tree):
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


def test_seeds_read_only_basedigits():
    from revprime import seeds

    assert package_imports(seeds) == {"basedigits"}


def test_expsum_reads_only_basedigits_and_seeds():
    from revprime import expsum

    assert package_imports(expsum) == {"basedigits", "seeds"}


def private_imports(module) -> set[str]:
    """"sibling._name" for every _-prefixed, non-dunder name a module
    imports from the package, read with ast."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("revprime.")
            if node.level or source != node.module:
                found.update(
                    f"{source}.{alias.name}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                )
    return found


def test_private_names_stay_home():
    # a module that imports a sibling's private name copies its internals;
    # primesum shares expsum's e() kernel and its phase tree
    allowed = {"primesum": {"expsum._cis", "expsum._phase_tree"}}
    for name in MODULES:
        module = importlib.import_module(f"revprime.{name}")
        assert private_imports(module) == allowed.get(name, set()), name


def unread_imports(module) -> set[str]:
    """The names a module imports from the package but never reads, with ast."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("revprime."))
        for alias in node.names
    }
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read


def perfbench_wrapped() -> set[tuple[str, str]]:
    """(module, name) of every revprime name perfbench's PLAN wraps, with ast."""
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    if not run.exists():
        return set()
    return {
        (node.elts[0].value.removeprefix("revprime."), node.elts[1].value)
        for node in ast.walk(ast.parse(run.read_text()))
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2])
        and node.elts[0].value.startswith("revprime.")
    }


def test_every_sibling_import_is_read():
    # a name imported only to stay reachable under a second module keeps
    # code alive that no command calls; the one reason allowed is that
    # perfbench's traced run wraps it there by name, and such a name must
    # go once perfbench stops wrapping it
    wrapped = perfbench_wrapped()
    for name in MODULES:
        module = importlib.import_module(f"revprime.{name}")
        assert {(name, n) for n in unread_imports(module)} <= wrapped, name


TESTS = Path(__file__).resolve().parent


def module_functions(path: Path) -> set[str]:
    """Names of the functions a file defines at module level."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_oracles_read_only_the_seed_types():
    # an oracle that imported the code it checks could agree with it by construction
    import oracles

    assert package_imports(oracles) == {"seeds"}


def test_each_oracle_has_one_home():
    names = module_functions(TESTS / "oracles.py")
    assert names
    for path in sorted(TESTS.glob("*.py")):
        if path.name != "oracles.py":
            assert not names & module_functions(path), path.name


def attribute_calls(module, name: str, owner: str = "np") -> list[str]:
    """The functions of a module whose bodies call <owner>.<name>, once per call."""
    found = []
    for fn in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == owner
                ):
                    found.append(fn.name)
    return found


def test_cis_is_the_one_exponential():
    # every e(x) goes through expsum._cis, so no module calls np.exp or
    # math.cos (sin_sum_check's math.sin is a sine, not an e(x)), and
    # np.mod stays only where the sign of its argument is unknown
    from revprime import expsum

    for name in MODULES:
        module = importlib.import_module(f"revprime.{name}")
        assert attribute_calls(module, "exp") == [], name
        assert attribute_calls(module, "cos", owner="math") == [], name
    assert sorted(attribute_calls(expsum, "mod")) == [
        "_progression_abs", "l1_moment_bound", "psi", "psi",
    ]


def test_cli_loads_only_the_census_layer():
    from revprime import cli

    # the census sieves through revcount; RunConfig checks every
    # command's sieve limit, so main reads no sieve code of its own
    assert package_imports(cli, top_level=True) == {"__version__", "config", "revcount"}


def run_child(code: str) -> list[str]:
    """stdout lines of a fresh interpreter running code on this package."""
    src = Path(revprime.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return proc.stdout.splitlines()


def test_package_import_loads_no_submodule():
    # the package re-exports nothing: a bare import loads no submodule
    # and exposes only __version__
    code = (
        "import sys, revprime; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('revprime')))); "
        "print(' '.join(sorted(n for n in vars(revprime) if not n.startswith('__'))))"
    )
    loaded, public = run_child(code)
    assert loaded.split() == ["revprime"]
    assert public == ""
    assert revprime.__version__ == "0.1.0"


VERIFY_STACK = (
    "revprime.verify", "revprime.expsum", "revprime.primesum", "revprime.seeds",
    "concurrent.futures",
)


def test_census_command_loads_no_verify_stack(tmp_path):
    code = f"""
import sys
from revprime.cli import main
stack = {VERIFY_STACK!r}
census = main(["census", "--g", "2", "--L", "6", "--q", "3", "--a", "1",
               "--out", {str(tmp_path / "c.csv")!r}])
print(census, *[m for m in stack if m in sys.modules])
verify = main(["verify", "vaughan", "--limit", "200", "--out", {str(tmp_path / "v.jsonl")!r}])
print(verify, *[m for m in stack if m in sys.modules])
"""
    after_census, after_verify = run_child(code)
    assert after_census.split() == ["0"]
    assert after_verify.split() == ["0", *VERIFY_STACK]
    assert (tmp_path / "c.csv").exists() and (tmp_path / "v.jsonl").exists()


def test_usage_error_is_one_class():
    from revprime import config, verify

    assert verify.UsageError is config.UsageError
    assert "UsageError" in verify.__all__


# every src function that no command of tests/conftest.py's command_trace
# enters, with why it stays
PERFBENCH = "perfbench's traced run wraps it by name (ROADMAP item 8)"
UNREACHED = {
    "arith.vaughan_terms": PERFBENCH,
    "arith.mangoldt_tail": PERFBENCH,
    "arith.mobius_mangoldt_window": PERFBENCH,
    "basedigits.reverse": PERFBENCH,
    "expsum.phi": "paper API: the single-position sum phi, one factor of the product formula",
    "expsum.gamma_i": "paper API: the decay weight of one position, summed by sigma",
    "expsum.omega_exponent": "paper API: the savings exponent of the L-infinity bound",
    "expsum.i0_landing": "paper API: the landing lemma, g^i0 alpha 1/(g+1) from the integers",
    "expsum.sigma_lower_blocks": "paper API: the blocked lower bound K/(g+1)^2 on the phase gaps",
    "revcount.rho_total": "paper API: the density mass identity sum_a rho(g, a, q)/q = (g-1)/g",
    "revcount.psi_theta_pi": "paper API: the psi, theta, pi counts of the Siegel-Walfisz analogue",
    "revcount.sharp_factor_deviation": "paper API: the Siegel-Walfisz step to the sharp modulus",
    "seeds.Seed.frac_rows": "abstract: every seed family overrides it",
}


# each module's source file, as its code objects name it
SOURCES = {Path(revprime.__file__).resolve().with_name(f"{m}.py"): m for m in MODULES}


def src_functions() -> set[str]:
    """"module.qualname" of every function src defines, from its code objects.

    Lambdas, comprehensions and class bodies are not functions here.
    """
    found = set()
    for path, name in SOURCES.items():
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if inspect.iscode(const):
                    stack.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        found.add(f"{name}.{const.co_qualname}")
    return found


def test_every_src_function_is_reached_or_listed(command_trace):
    _, entered = command_trace
    reached = set()
    for code in entered:
        name = SOURCES.get(Path(code.co_filename).resolve())
        if name:
            reached.add(f"{name}.{code.co_qualname}")
    unreached = src_functions() - reached
    assert unreached - set(UNREACHED) == set(), "unreached and unlisted"
    assert set(UNREACHED) - unreached == set(), "listed, but reached or gone"
    wrapped = perfbench_wrapped()
    for dotted, why in UNREACHED.items():
        if why == PERFBENCH:
            module, name = dotted.split(".")
            target = getattr(importlib.import_module(f"revprime.{module}"), name)
            assert any(
                getattr(importlib.import_module(f"revprime.{m}"), n, None) is target
                for m, n in wrapped
            ), f"{dotted}: no PLAN tuple of perfbench wraps it"
