"""Solver drivers and the name -> function registry used by the CLI and benchmarks."""

from .base import OptionError, RunContext, SolverError, SolverReport
from .constrained import exact_penalty, newton_lagrange, quadratic_penalty, sqp
from .direct import nelder_mead, pso, simulated_annealing
from .gradient import newton, quasi_newton, steepest_descent

SOLVERS = {
    "steepest_descent": steepest_descent,
    "newton": newton,
    "quasi_newton": quasi_newton,
    "newton_lagrange": newton_lagrange,
    "quadratic_penalty": quadratic_penalty,
    "exact_penalty": exact_penalty,
    "sqp": sqp,
    "nelder_mead": nelder_mead,
    "pso": pso,
    "simulated_annealing": simulated_annealing,
}

__all__ = [
    "OptionError", "RunContext", "SolverError", "SolverReport",
    "SOLVERS", "steepest_descent", "newton", "quasi_newton", "newton_lagrange",
    "quadratic_penalty", "exact_penalty", "sqp", "nelder_mead", "pso",
    "simulated_annealing",
]
