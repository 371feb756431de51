"""Solvers reach the view, the line search and emit through patchable names.

perfbench's tracer replaces ``ScaledView`` methods, ``kit.line_search`` and
``RunContext.emit`` while it is installed, so a solver must look each of them
up when it is called, never keep a reference taken at import.  These tests
wrap the same names with counting wrappers and check that every call of a
run went through them.
"""

from collections import Counter

import pytest

from optkit import kit, nelder_mead, simulated_annealing, steepest_descent
from optkit.bench import parse_problem_token
from optkit.problem import ScaledView
from optkit.solvers.base import RunContext


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls through the wrapped names, restored after the test."""
    counts = Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(ScaledView, "obj"), (ScaledView, "grad"),
                        (RunContext, "emit"), (kit, "line_search")]:
        counting(owner, name)
    return counts


def test_steepest_descent_calls_go_through_patched_names(calls):
    report = steepest_descent(parse_problem_token("rosenbrock2"), maxiter=2000)
    assert report.niter > 0
    assert calls["obj"] + calls["grad"] == report.counters.n_obj + report.counters.n_grad
    assert calls["emit"] == report.niter + 1
    assert calls["line_search"] == report.niter


def test_simulated_annealing_calls_go_through_patched_names(calls):
    report = simulated_annealing(parse_problem_token("rosenbrock2"), k_max=500, seed=3,
                                 sample_lower=[-2.0, -2.0], sample_upper=[2.0, 2.0])
    assert calls["obj"] == report.counters.n_obj == 501
    assert calls["emit"] == report.niter + 1


def test_nelder_mead_calls_go_through_patched_names(calls):
    report = nelder_mead(parse_problem_token("rosen_coupled:8"), maxiter=3000)
    assert report.niter > 0
    assert calls["obj"] == report.counters.n_obj
    assert calls["emit"] == report.niter + 1
