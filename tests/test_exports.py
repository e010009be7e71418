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
        p = LpProblem()
        x, n = p.add_var(0, 2), p.add_var(0, 3, integer=True)
        p.add_row({x: 1.0, n: 1.0}, "<=", 3.5)
        p.set_objective({x: 1.0, n: 2.0}, sense="max")
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
