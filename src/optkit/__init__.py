"""optkit: a modular nonlinear-optimization toolkit.

Solvers are assembled from interchangeable pieces (line searches, merit
functions, Hessian-approximation updates, a QP subsolver) and consume user
problems through a uniform scaled, counted, recordable, and hot-startable
evaluation interface.  A built-in problem registry and profile generator
support benchmarking.
"""

from .problem import (Bounds, DerivativeCheck, EvalCallbacks, EvalCounters,
                      EvaluationError, ProblemError, ProblemSpec, ScaledView,
                      build_problem, check_first_derivatives, fd_derivative)
from .kit import (HessianApprox, LineSearchResult, QpError, line_search,
                  merit_value, qp_solve)
from .recording import (EvalEvent, HotStartError, IterEvent, RecordError, RunRecord,
                        print_results, read_record, write_readable_outputs, write_record)
from .solvers import (SOLVERS, OptionError, RunContext, SolverError, SolverReport,
                      exact_penalty, nelder_mead, newton, newton_lagrange,
                      pso, quadratic_penalty, quasi_newton, simulated_annealing,
                      sqp, steepest_descent)
from . import bench

__version__ = "0.1.0"

__all__ = [
    "Bounds", "DerivativeCheck", "EvalCallbacks", "EvalCounters",
    "EvaluationError", "ProblemError", "ProblemSpec", "ScaledView",
    "build_problem", "check_first_derivatives", "fd_derivative",
    "HessianApprox", "LineSearchResult", "QpError",
    "line_search", "merit_value", "qp_solve",
    "EvalEvent", "HotStartError", "IterEvent", "RecordError", "RunRecord",
    "print_results", "read_record", "write_readable_outputs", "write_record",
    "SOLVERS", "OptionError", "RunContext", "SolverError", "SolverReport",
    "steepest_descent", "newton", "quasi_newton", "newton_lagrange",
    "quadratic_penalty", "exact_penalty", "sqp", "nelder_mead", "pso",
    "simulated_annealing", "bench", "__version__",
]
