import dataclasses
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import sppa


def test_every_all_name_resolves():
    # a name left in __all__ after its definition was deleted breaks
    # `from module import *` and misdocuments the public surface
    missing = []
    for name in ["sppa"] + [f"sppa.{m.name}" for m in pkgutil.iter_modules(sppa.__path__)]:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"__all__ names without an attribute: {missing}"


def test_only_the_problem_records_are_dataclasses():
    # every other record is a plain class, which compiles no generated
    # methods at import; bench/ builds traced specs with dataclasses.replace
    modules = [sppa] + [importlib.import_module(f"sppa.{m.name}")
                        for m in pkgutil.iter_modules(sppa.__path__)]
    found = {f"{value.__module__}.{value.__qualname__}" for module in modules
             for value in vars(module).values()
             if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert found == {"sppa.problems.NonlinearTerm", "sppa.problems.ProblemSpec"}, sorted(found)


def test_solving_a_milp_imports_no_scipy():
    # the package depends on numpy alone
    code = textwrap.dedent("""
        import sys
        import sppa
        from sppa.milp import LpProblem, solve_milp
        p = LpProblem(2, ["<="])  # x in [0, 2], n in [0, 3] integer, x + n <= 3.5
        p.ub[:], p.is_int[1] = [2.0, 3.0], True
        p.A[0], p.rhs[0] = [1.0, 1.0], 3.5
        p.c[:], p.sense = [1.0, 2.0], "max"
        res = solve_milp(p)
        assert res.status == "optimal" and res.x.tolist() == [0.5, 3.0], res
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_sppa_after_numpy_loads_only_its_own_modules():
    # set-up is timed from source in fresh processes: beyond numpy's, sppa
    # imports its own modules and three of the standard library's
    code = textwrap.dedent("""
        import sys
        import numpy
        before = set(sys.modules)
        import sppa
        print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "sppa"))
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == str(["__future__", "copy", "dataclasses"])
