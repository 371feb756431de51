"""The solver contract: option checks, the run context, and the report."""

import time
from types import SimpleNamespace

import numpy as np
from dataclasses import dataclass

from .. import recording
from ..problem import EvalCounters, ProblemSpec, ScaledView


class OptionError(ValueError):
    """Unknown option name or ill-typed option value."""


class SolverError(RuntimeError):
    """Unrecoverable numerical failure inside a solver."""


COMMON_OPTIONS = {
    "maxiter": (int, 500),
    "opt_tol": (float, 1e-6),
    "feas_tol": (float, 1e-6),
}


def _checked_options(declared, values, solver_name):
    """``values`` over the ``declared`` defaults, each type-checked, then each
    final value range-checked.  A declaration is name -> (type or tuple of
    types, default) or (types, default, (test, text)): unknown names and
    ill-typed values are OptionErrors (ints are accepted where floats are
    declared), and a value ``test`` refuses is a SolverError that reads
    "{name} must {text}, got {value!r}"."""
    out = {name: decl[1] for name, decl in declared.items()}
    for name, value in values.items():
        if name not in declared:
            raise OptionError(f"unknown option {name!r} for {solver_name}; "
                              f"valid options: {sorted(declared)}")
        types = declared[name][0]
        if not isinstance(types, tuple):
            types = (types,)
        if value is None and type(None) in types:
            out[name] = None
            continue
        if float in types and isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            value = float(value)
        if int in types and isinstance(value, np.integer):
            value = int(value)
        if bool not in types and isinstance(value, bool):
            raise OptionError(f"option {name!r} must be {types}, got bool")
        if not isinstance(value, tuple(t for t in types if t is not type(None))):
            raise OptionError(f"option {name!r} must be of type {types}, got {type(value).__name__}")
        out[name] = value
    for name, (_, _, *value_range) in declared.items():
        for test, text in value_range:
            if not test(out[name]):
                raise SolverError(f"{name} must {text}, got {out[name]!r}")
    return SimpleNamespace(**out)


# value ranges for option declarations, the third slot of an entry
_NONZERO_FINITE = (lambda v: v != 0.0 and np.isfinite(v), "be nonzero and finite")
_FINITE_NONNEGATIVE = (lambda v: np.isfinite(v) and v >= 0.0, "be finite and nonnegative")


@dataclass
class SolverReport:
    """Terminal state of one solve, in the user's (unscaled) units.

    ``optimality`` is the solver's scaled-space convergence measure and
    ``feasibility`` the view's (``ScaledView.feasibility``) at x*: the
    larger scaled violation of the variable bounds and of the constraint
    bounds.  ``converged`` is the solver's verdict and feasibility at most
    feas_tol.  ``multipliers`` (when present) are the constraint multipliers
    in user units, the view's ``unscale_lam`` of the solver's, under the
    convention L = f - lam @ (c - target), as a recorded iteration's ``lam`` is.
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


class RunContext:
    """The contract a solver is written against: one per run.

    ``problem`` (a ProblemSpec, or an already-configured ScaledView) becomes
    ``view``, through which the solver reads the problem in scaled units.
    ``options`` (name -> value) is checked against ``COMMON_OPTIONS``
    (maxiter, opt_tol, feas_tol) plus ``declared`` (name -> (type or tuple
    of types, default), or (types, default, (test, text)) for an option
    with a range) into ``options``, read as attributes.  An unknown name or
    a wrong type raises OptionError, and a value its range refuses raises
    SolverError, both before any callback is called.  With
    ``unconstrained`` the solver declares that it handles m == 0 only, and
    a constrained problem raises SolverError.
    The solver then names its per-iteration outputs with
    ``declare_outputs``, reports each iteration with ``emit`` and returns
    ``finish(...)``, the SolverReport in user units, whose feasibility the
    context measures itself.
    """

    def __init__(self, problem, solver_name, options=None, declared=None, *,
                 unconstrained=False):
        if isinstance(problem, ProblemSpec):
            problem = ScaledView(problem)
        elif not isinstance(problem, ScaledView):
            raise TypeError(f"expected ProblemSpec or ScaledView, got {type(problem).__name__}")
        self.view = view = problem
        self.solver_name = solver_name
        if view.record is not None:
            # named before the options are checked: a refused run's record
            # still says which solver refused it
            view.record.set_solver(solver_name)
        self.options = _checked_options({**COMMON_OPTIONS, **(declared or {})}, options or {},
                                        solver_name)
        if unconstrained and view.m != 0:
            raise SolverError(f"{solver_name} handles unconstrained problems only (m={view.m}); "
                              "wrap constraints with a penalty solver instead")
        self.decl = recording.OutputsDecl({})
        self._unscale = ()
        self.t0 = time.perf_counter()
        if view.record is not None:
            view.record.set_solver(solver_name, vars(self.options))

    def declare_outputs(self, **outputs):
        """Name the per-iteration outputs: name -> int, float or (float, shape)."""
        self.decl = recording.OutputsDecl(outputs)
        # the declared iterate, objective and multipliers, each with the view
        # method that takes it to user units; none when every scaler is 1,
        # since dividing by 1 keeps the bits
        view, spec = self.view, self.view.spec
        unit = spec.f_scaler == 1.0 and np.all(spec.x_scaler == 1.0) and np.all(spec.c_scaler == 1.0)
        self._unscale = () if unit else tuple((name, unscale) for name, unscale in (
            ("x", view.unscale_x), ("obj", view.unscale_f), ("lam", view.unscale_lam))
            if name in outputs)

    def emit(self, **values):
        """Validate one iteration's outputs and append them to the view's record
        as an IterEvent, which is returned; without a record, check only (no
        event) and return None.  Outputs of their exact declared types pass
        one test each (``OutputsDecl.fits``); only the rest go through
        ``validate``, which words any error the same way on both paths.

        A recorded iteration holds ``x``, ``obj`` and ``lam`` in the user's
        units, as the evaluation events and the report's x* and f* are: the view's
        ``unscale_x``, ``unscale_f`` and ``unscale_lam`` of the solver's
        scaled values, so an iterate has the bits of its evaluated x.  Every
        other output (``opt``, ``feas``, ``merit``, ``rho``, ``spread``,
        ``T``) stays the solver's scaled-space measure.
        """
        record = self.view.record
        if record is None:
            if not self.decl.fits(values):
                self.decl.validate(values)
            return None
        event = recording.IterEvent(values=self.decl.validate(values))
        out = event.values
        for name, unscale in self._unscale:
            out[name] = unscale(out[name])
        record.events.append(event)
        return event

    def finish(self, xs, fs, optimality, niter, converged, multipliers=None):
        """SolverReport at scaled x* and f*; feasibility is measured here (see SolverReport)."""
        view = self.view
        feasibility = view.feasibility(xs)
        return SolverReport(
            solver=self.solver_name,
            problem=view.name,
            x_star=view.unscale_x(xs),
            f_star=view.unscale_f(fs),
            optimality=float(optimality),
            feasibility=feasibility,
            niter=int(niter),
            counters=view.counters.copy(),
            replayed=view.replayed.copy(),
            wall_time=time.perf_counter() - self.t0,
            converged=bool(converged) and feasibility <= self.options.feas_tol,
            m=view.m,
            multipliers=None if multipliers is None else view.unscale_lam(multipliers),
        )
