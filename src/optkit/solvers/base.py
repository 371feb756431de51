"""Shared solver infrastructure: option validation, reports, run plumbing."""

import time

import numpy as np
from dataclasses import dataclass

from ..problem import EvalCounters, ProblemSpec, ScaledView
from ..recording import OutputsDecl, update_outputs


class OptionError(ValueError):
    """Unknown option name or ill-typed option value."""


class SolverError(RuntimeError):
    """Unrecoverable numerical failure inside a solver."""


COMMON_OPTIONS = {
    "maxiter": (int, 500),
    "opt_tol": (float, 1e-6),
    "feas_tol": (float, 1e-6),
}


class SolverOptions:
    """Declared-option container: unknown names are errors, values type-checked.

    ``declared`` maps option name -> (type or tuple of types, default).
    Ints are accepted where floats are declared.
    """

    def __init__(self, declared, values=None):
        self._declared = dict(declared)
        self._values = {}
        for name, (_, default) in self._declared.items():
            self._values[name] = default
        for name, value in (values or {}).items():
            self.set(name, value)

    def set(self, name, value):
        if name not in self._declared:
            raise OptionError(f"unknown option {name!r}; valid options: {sorted(self._declared)}")
        types, _ = self._declared[name]
        if not isinstance(types, tuple):
            types = (types,)
        if value is None and type(None) in types:
            self._values[name] = None
            return
        if float in types and isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            value = float(value)
        if int in types and isinstance(value, np.integer):
            value = int(value)
        if bool not in types and isinstance(value, bool):
            raise OptionError(f"option {name!r} must be {types}, got bool")
        if not isinstance(value, tuple(t for t in types if t is not type(None))):
            raise OptionError(f"option {name!r} must be of type {types}, got {type(value).__name__}")
        self._values[name] = value

    def __getattr__(self, name):
        values = self.__dict__.get("_values", {})
        if name in values:
            return values[name]
        raise AttributeError(name)

    def as_dict(self):
        return dict(self._values)


def make_options(extra=None, values=None):
    declared = dict(COMMON_OPTIONS)
    if extra:
        declared.update(extra)
    return SolverOptions(declared, values)


@dataclass
class SolverReport:
    """Terminal state of one solve, in the user's (unscaled) units.

    ``optimality`` and ``feasibility`` are the solver's scaled-space
    convergence measures; ``multipliers`` (when present) are the constraint
    multipliers in user units, the view's ``unscale_lam`` of the solver's,
    under the convention L = f - lam @ (c - target), as a recorded
    iteration's ``lam`` is.
    """

    solver: str
    problem: str
    x_star: np.ndarray
    f_star: float
    optimality: float
    feasibility: float
    niter: int
    counters: EvalCounters
    wall_time: float
    converged: bool
    m: int = 0
    replayed: EvalCounters = None
    multipliers: np.ndarray = None


def ensure_view(problem):
    """Accept a ProblemSpec or an already-configured ScaledView."""
    if isinstance(problem, ScaledView):
        return problem
    if isinstance(problem, ProblemSpec):
        return ScaledView(problem)
    raise TypeError(f"expected ProblemSpec or ScaledView, got {type(problem).__name__}")


def require_unconstrained(view, solver):
    if view.m != 0:
        raise SolverError(f"{solver} handles unconstrained problems only (m={view.m}); "
                          "wrap constraints with a penalty solver instead")


class RunContext:
    """Per-run bookkeeping: wall clock, output declaration, report assembly."""

    def __init__(self, view, solver_name, outputs, options):
        self.view = view
        self.solver_name = solver_name
        self.decl = OutputsDecl(outputs)
        self.options = options
        self.t0 = time.perf_counter()
        if view.record is not None:
            view.record.set_solver(solver_name, options.as_dict())
        # the declared iterate, objective and multipliers, each with the view
        # method that takes it to user units; none when every scaler is 1,
        # since dividing by 1 keeps the bits
        spec = view.spec
        unit = spec.f_scaler == 1.0 and np.all(spec.x_scaler == 1.0) and np.all(spec.c_scaler == 1.0)
        self._unscale = () if unit else tuple((name, unscale) for name, unscale in (
            ("x", view.unscale_x), ("obj", view.unscale_f), ("lam", view.unscale_lam))
            if name in self.decl.decl)

    def emit(self, **values):
        """Validate and record one iteration's outputs; without a record, validate only.

        A recorded iteration holds ``x``, ``obj`` and ``lam`` in the user's
        units, as the evaluation events and the report's x* and f* are: the view's
        ``unscale_x``, ``unscale_f`` and ``unscale_lam`` of the solver's
        scaled values, so an iterate has the bits of its evaluated x.  Every
        other output (``opt``, ``feas``, ``merit``, ``rho``, ``spread``,
        ``T``) stays the solver's scaled-space measure.
        """
        record = self.view.record
        if record is None:      # update_outputs would repack ``values`` to do the same
            return self.decl.validate(values, convert=False)
        event = update_outputs(self.decl, record, **values)
        out = event.values
        for name, unscale in self._unscale:
            out[name] = unscale(out[name])
        return event

    def finish(self, xs, fs, optimality, feasibility, niter, converged, multipliers=None):
        view = self.view
        return SolverReport(
            solver=self.solver_name,
            problem=view.name,
            x_star=view.unscale_x(xs),
            f_star=view.unscale_f(fs),
            optimality=float(optimality),
            feasibility=float(feasibility),
            niter=int(niter),
            counters=view.counters.copy(),
            replayed=view.replayed.copy(),
            wall_time=time.perf_counter() - self.t0,
            converged=bool(converged),
            m=view.m,
            multipliers=None if multipliers is None else view.unscale_lam(multipliers),
        )
