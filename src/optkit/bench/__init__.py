"""Built-in test problem registry and benchmark suite driver."""

import time

import numpy as np
from dataclasses import dataclass

from ..problem import ScaledView
from ..solvers import SOLVERS, OptionError
from .analytic import (bean, quadratic_example, quartic, rosen_coupled,
                       rosen_uncoupled, rosenbrock2)
from .beam import cantilever, uniform_compliance
from .profiles import (Profile, ProfileTable, data_profile, performance_profile,
                       write_suite_csv)
from .spacecraft import spacecraft


@dataclass
class TestProblem:
    """Registry entry: a spec factory plus the known solution, if the source states one."""

    factory: callable
    known_solution: tuple = None      # (x_star, f_star) or None
    default_size: int = None          # the factory's size argument, if it takes one


REGISTRY = {
    "quartic": TestProblem(quartic, known_solution=(np.zeros(2), 0.0)),
    "rosenbrock2": TestProblem(rosenbrock2, known_solution=(np.ones(2), 0.0)),
    "bean": TestProblem(bean, known_solution=(np.array([1.21314, 0.82414]), 0.09194)),
    "quadratic_example": TestProblem(quadratic_example,
                                     known_solution=(np.array([1.0, 0.0]), 1.0)),
    "rosen_uncoupled": TestProblem(rosen_uncoupled, default_size=8,
                                   known_solution=(None, 0.0)),
    "rosen_coupled": TestProblem(rosen_coupled, default_size=8,
                                 known_solution=(None, 0.0)),
    "cantilever": TestProblem(cantilever, default_size=20),
    "spacecraft": TestProblem(spacecraft, default_size=10),
}


def problem_names():
    return sorted(REGISTRY)


def make_problem(name, size=None):
    """Instantiate a registry problem; ``size`` feeds the factory's size parameter."""
    if name not in REGISTRY:
        raise KeyError(f"unknown problem {name!r}; valid names: {problem_names()}")
    entry = REGISTRY[name]
    if entry.default_size is None:
        if size is not None:
            raise ValueError(f"problem {name!r} takes no size parameter")
        return entry.factory()
    return entry.factory(int(size) if size is not None else entry.default_size)


def parse_problem_token(token):
    """Parse 'name' or 'name:size' into a ProblemSpec; a size that is not an
    integer is a ValueError that quotes the token."""
    name, colon, size = token.partition(":")
    try:
        size = int(size) if colon else None
    except ValueError:
        raise ValueError(f"problem size in {token!r} must be an integer") from None
    return make_problem(name.strip(), size)


def run_suite(problems, solvers, options=None, budget=None):
    """Run every (solver, problem) pair in isolation and tabulate the outcomes.

    ``problems`` holds ProblemSpecs or registry names; ``solvers`` holds
    solver callables or registry names.  ``options`` optionally maps solver
    name -> option overrides.  ``budget`` is (maxiter, wall_seconds); a run
    counts as solved only if it converges within both.  An option a solver
    does not declare raises its OptionError; any other failure of a run is
    caught and marks the run unsolved.
    """
    if not problems or not solvers:
        raise ValueError("run_suite needs nonempty problem and solver lists")
    specs = [make_problem(p) if isinstance(p, str) else p for p in problems]
    solver_fns = []
    for s in solvers:
        if isinstance(s, str):
            if s not in SOLVERS:
                raise KeyError(f"unknown solver {s!r}; valid names: {sorted(SOLVERS)}")
            solver_fns.append((s, SOLVERS[s]))
        else:
            solver_fns.append((s.__name__, s))

    maxiter, wall_cap = (budget if budget is not None else (None, None))
    n_s, n_p = len(solver_fns), len(specs)
    solved = np.zeros((n_s, n_p), dtype=bool)
    times = np.full((n_s, n_p), np.inf)
    evals = np.full((n_s, n_p), np.inf)
    runs = []

    for i, (sname, fn) in enumerate(solver_fns):
        for j, spec in enumerate(specs):
            overrides = dict((options or {}).get(sname, {}))
            if maxiter is not None:
                overrides.setdefault("maxiter", int(maxiter))
            view = ScaledView(spec)
            t0 = time.perf_counter()
            report = None
            try:
                report = fn(view, **overrides)
                elapsed = report.wall_time
            except OptionError:
                raise
            except Exception:
                elapsed = time.perf_counter() - t0
            ok = (report is not None and report.converged
                  and (wall_cap is None or elapsed <= wall_cap))
            solved[i, j] = ok
            if ok:
                times[i, j] = elapsed
                evals[i, j] = report.counters.n_obj
            runs.append({
                "solver": sname,
                "problem": spec.name,
                "solved": bool(ok),
                "time_s": elapsed,
                "n_obj": view.counters.n_obj,
                "n_grad": view.counters.n_grad,
                "f_star": None if report is None else report.f_star,
                "optimality": None if report is None else report.optimality,
            })

    return ProfileTable(solvers=[s for s, _ in solver_fns],
                        problems=[spec.name for spec in specs],
                        solved=solved, time=times, evals=evals,
                        dims=[spec.n for spec in specs], runs=runs)


__all__ = [
    "REGISTRY", "TestProblem", "make_problem", "parse_problem_token",
    "problem_names", "run_suite", "Profile", "ProfileTable",
    "performance_profile", "data_profile", "write_suite_csv",
    "quartic", "rosenbrock2", "bean", "quadratic_example", "rosen_uncoupled",
    "rosen_coupled", "cantilever", "uniform_compliance", "spacecraft",
]
