"""Workload definitions: the cells each workload solves and their reference checks.

A *cell* is one (solver, problem, options) solve.  Each workload is a fixed
list of cells; the workload seed only perturbs the ``rosen_*`` starting
points slightly and seeds the stochastic solvers, so the same seed always
gives the same inputs.  Every cell has a fixed cap (seconds): a cell that
raises, stops unconverged or fails its reference check is charged the cap,
and a cell still running at its cap is stopped and charged the cap.

Problems come from the public registry (``make_problem``, ``REGISTRY``)
and the problem modules' public constants.
"""

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from optkit.bench import REGISTRY, make_problem, uniform_compliance
from optkit.bench.beam import BREADTH, LENGTH, VOLUME

# relative size of the seeded perturbation of the rosen_* starting points
START_JITTER = 1e-3
# objective at the chained Rosenbrock local minimum near (-1, 1, ..., 1)
LOCAL_F = 3.9866
# box used by the sampling solvers on rosenbrock2
SAMPLE_BOX = {"sample_lower": [-2.0, -2.0], "sample_upper": [2.0, 2.0]}


@dataclass
class Cell:
    """One solve: solver name, problem token, options and how it is checked."""

    solver: str
    problem: str                 # registry name, optionally ":size"
    cap_s: float                 # time charged when the cell fails
    check: tuple                 # (kind, parameters) for verify()
    options: dict = field(default_factory=dict)
    withhold: tuple = ()         # callbacks removed so the view falls back to FD
    jitter: bool = False         # seeded perturbation of the starting point
    seeded: bool = False         # pass the workload seed as the solver's seed
    record: bool = False         # solve recorded, then write/read/replay

    @property
    def cell_id(self):
        tag = f"{self.solver}:{self.problem}"
        if self.withhold:
            tag += "/no-" + "-".join(self.withhold)
        return tag


@dataclass
class Workload:
    name: str
    cells: list
    probe: Cell = None           # record cell measured in its own process


_WITHHOLD_FIELD = {"grad": "gradient", "jac": "jacobian"}


def build_spec(cell, seed):
    """The ProblemSpec a cell solves, derived from the registry and the seed."""
    name, _, size = cell.problem.partition(":")
    spec = make_problem(name, int(size) if size else None)
    if cell.jitter:
        rng = np.random.default_rng([seed, zlib.crc32(cell.cell_id.encode())])
        scale = START_JITTER * np.maximum(1.0, np.abs(spec.x0))
        spec = replace(spec, x0=spec.x0 + scale * rng.uniform(-1.0, 1.0, spec.n))
    if cell.withhold:
        cb = spec.callbacks
        spec = replace(spec, callbacks=replace(
            cb, **{_WITHHOLD_FIELD[k]: None for k in cell.withhold}))
    return spec


def solver_options(cell, seed):
    options = dict(cell.options)
    if cell.seeded:
        options["seed"] = int(seed)
    return options


# ---------------------------------------------------------------------------
# Reference checks: each returns None when the report is verified, else a reason
# ---------------------------------------------------------------------------

def _known(report, spec, params):
    """Registry known solution within (x_tol, f_tol)."""
    x_tol, f_tol = params
    x_star, f_star = REGISTRY[spec.name].known_solution
    if np.max(np.abs(report.x_star - x_star)) > x_tol:
        return f"x* off the known solution by more than {x_tol:g}"
    if abs(report.f_star - f_star) > f_tol:
        return f"f*={report.f_star!r} off the known {f_star} by more than {f_tol:g}"
    return None


def _rosen(report, spec, params):
    """Global minimum (f*=0), or for the chained form the local minimum near (-1,1,...,1)."""
    x_tol, local_tol = params
    x = report.x_star
    if spec.name.startswith("rosen_uncoupled"):
        # each pair (a, b) is minimal at a = 1, b = +-1
        off = max(np.max(np.abs(x[0::2] - 1.0)), np.max(np.abs(np.abs(x[1::2]) - 1.0)))
    else:
        off = np.max(np.abs(x - 1.0))
    if off <= x_tol and abs(report.f_star) <= 1e-8:
        return None
    if spec.name.startswith("rosen_coupled"):
        # the local minimum lies near (-1, 1, ..., 1) with f* = 3.9866 for n >= 8
        local = np.ones(spec.n)
        local[0] = -1.0
        if np.max(np.abs(x - local)) <= local_tol and abs(report.f_star - LOCAL_F) <= 1e-2:
            return None
    return f"x* is neither the global nor the known local minimum (f*={report.f_star!r})"


def _cantilever(report, spec, params):
    """Volume held, thickness non-increasing to the tip, compliance below uniform."""
    h = report.x_star
    n_el = spec.n
    if abs(BREADTH * LENGTH / n_el * np.sum(h) - VOLUME) > 1e-6:
        return "volume constraint violated"
    if np.any(np.diff(h) > 1e-8):
        return "thickness increases toward the tip"
    if not report.f_star < uniform_compliance(n_el):
        return "compliance not below the uniform design"
    return None


_CHECKS = {"known": _known, "rosen": _rosen, "cantilever": _cantilever}


def verify(cell, spec, report):
    """None if the report is a verified solution of the cell, else the reason."""
    if not report.converged:
        return "solver stopped unconverged"
    kind, params = cell.check
    return _CHECKS[kind](report, spec, params)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

ROSEN = ("rosen", (1e-4, 0.1))
CANTILEVER = ("cantilever", None)
QUAD_TIGHT = ("known", (1e-3, 3e-3))
QUAD_LOOSE = ("known", (1e-2, 3e-2))
SMOOTH_2D = ("known", (1e-4, 1e-8))
BEAN = ("known", (1e-2, 1e-3))


def _unconstrained(tiny):
    big, mid = (24, 16) if tiny else (256, 128)
    return Workload("unconstrained", [
        Cell("quasi_newton", f"rosen_coupled:{mid}", 3.0, ROSEN,
             {"maxiter": 5000}, jitter=True),
        Cell("quasi_newton", f"rosen_coupled:{big}", 20.0, ROSEN,
             {"maxiter": 5000}, jitter=True),
        Cell("quasi_newton", f"rosen_uncoupled:{big}", 10.0, ROSEN,
             {"maxiter": 5000}, jitter=True),
        Cell("quasi_newton", "rosenbrock2", 1.0, SMOOTH_2D),
        Cell("newton", "rosenbrock2", 1.0, SMOOTH_2D),
        Cell("newton", "bean", 1.0, BEAN),
    ], probe=Cell("quasi_newton", f"rosen_coupled:{mid // 2}", 1.0, ROSEN,
                  {"maxiter": 5000}, record=True))


def _constrained(tiny):
    sizes = (8, 10, 12) if tiny else (80, 200, 400)
    return Workload("constrained", [
        *(Cell("sqp", f"cantilever:{n}", cap, CANTILEVER)
          for n, cap in zip(sizes, (1.0, 3.0, 12.0))),
        Cell("sqp", "quadratic_example", 1.0, QUAD_TIGHT),
        Cell("quadratic_penalty", f"cantilever:{8 if tiny else 20}", 1.0, CANTILEVER),
        Cell("quadratic_penalty", "quadratic_example", 1.0, QUAD_TIGHT),
        Cell("exact_penalty", "quadratic_example", 1.0, QUAD_LOOSE),
    ], probe=Cell("sqp", f"cantilever:{8 if tiny else 40}", 1.0, CANTILEVER, record=True))


def _cheap_evals(tiny):
    return Workload("cheap_evals", [
        Cell("steepest_descent", "bean" if tiny else "rosenbrock2", 10.0,
             BEAN if tiny else SMOOTH_2D, {"maxiter": 20000}),
        Cell("nelder_mead", f"rosen_coupled:{4 if tiny else 8}", 2.0, ROSEN,
             {"maxiter": 20000}, jitter=True),
        Cell("pso", "rosenbrock2", 1.0, SMOOTH_2D, SAMPLE_BOX, seeded=True),
        # annealing only has to land in the basin of (1, 1); it counts as
        # converged when its last 50-step window improved f by at most the
        # 1e-2 the check allows (late gains of up to 6e-4 occur on ~1% of seeds)
        Cell("simulated_annealing", "rosenbrock2", 6.0, ("known", (0.2, 1e-2)),
             {**SAMPLE_BOX, "k_max": 2000 if tiny else 20000, "opt_tol": 1e-2},
             seeded=True),
        Cell("quasi_newton", f"rosen_coupled:{8 if tiny else 32}", 2.0, ROSEN,
             {"opt_tol": 1e-4, "maxiter": 5000}, withhold=("grad",), jitter=True),
        Cell("sqp", f"cantilever:{8 if tiny else 40}", 1.0, CANTILEVER,
             withhold=("grad", "jac")),
    ], probe=Cell("nelder_mead", f"rosen_coupled:{4 if tiny else 8}", 3.0, ROSEN,
                  {"maxiter": 20000}, record=True))


def _record_replay(tiny):
    return Workload("record_replay", [
        Cell("quasi_newton", f"rosen_coupled:{16 if tiny else 128}", 5.0, ROSEN,
             {"maxiter": 5000}, jitter=True, record=True),
        Cell("sqp", f"cantilever:{10 if tiny else 200}", 3.0, CANTILEVER, record=True),
        Cell("quadratic_penalty", f"cantilever:{8 if tiny else 80}", 1.0, CANTILEVER,
             record=True),
    ])


WORKLOADS = {
    "unconstrained": _unconstrained,
    "constrained": _constrained,
    "cheap_evals": _cheap_evals,
    "record_replay": _record_replay,
}


def get_workload(name, tiny=False):
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; valid names: {sorted(WORKLOADS)}")
    return WORKLOADS[name](tiny)
