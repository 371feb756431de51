import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optkit import (Bounds, EvaluationError, ProblemError, ScaledView,
                    build_problem, check_first_derivatives, fd_derivative)
from optkit.problem import CBRT_EPS, KINDS, SQRT_EPS, _fd_columns, _is_finite
from optkit.bench import bean, parse_problem_token, quadratic_example, rosenbrock2
from optkit.solvers import SOLVERS


def quad_spec(**kwargs):
    return build_problem("quad", [1.0, 0.0], obj=lambda x: float(x @ x),
                         grad=lambda x: 2.0 * x, **kwargs)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_build_paper_quadratic_is_valid():
    spec = quadratic_example()
    assert spec.n == 2 and spec.m == 2
    assert_allclose(spec.x0, [500.0, 5.0])
    assert spec.var_bounds.lower[0] == 0.0 and np.isinf(spec.var_bounds.lower[1])
    assert_allclose(spec.con_bounds.lower, [1.0, 1.0])
    assert spec.con_bounds.upper[0] == 1.0 and np.isinf(spec.con_bounds.upper[1])
    assert (spec.con_bounds.lower == spec.con_bounds.upper).tolist() == [True, False]


def test_build_unconstrained_without_callback():
    spec = quad_spec()
    assert spec.m == 0
    assert spec.callbacks.constraints is None


def test_zero_scaler_rejected():
    with pytest.raises(ProblemError):
        quad_spec(x_scaler=[0.0, 1.0])
    with pytest.raises(ProblemError):
        quad_spec(f_scaler=-1.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ProblemError):
        quad_spec(xl=[0.0, 0.0, 0.0])


def test_crossed_bounds_rejected():
    # crossed, NaN, or a side no value can meet: lower = +inf or upper = -inf
    for lower, upper in [(1.0, 0.0), (np.nan, 1.0), (0.0, np.nan),
                         (np.inf, np.inf), (-np.inf, -np.inf)]:
        with pytest.raises(ProblemError):
            Bounds(np.array([lower]), np.array([upper]))


def test_bounds_hold_read_only_copies():
    lower = np.array([0.0, -1.0])
    bounds = Bounds(lower, [1.0, 1.0])
    lower[0] = 5.0
    assert bounds.lower.tolist() == [0.0, -1.0] and lower.flags.writeable
    for side in (bounds.lower, bounds.upper):
        with pytest.raises(ValueError, match="read-only"):
            side[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            np.add(side, 1.0, out=side)


def test_bounds_violation_and_signed_violation():
    # rows: two-sided, lower only, upper only, free, equality
    bounds = Bounds([0.0, 1.0, -np.inf, -np.inf, 2.0], [1.0, np.inf, 3.0, np.inf, 2.0])
    cases = [  # (c, violation, signed violation)
        ([-0.5, 0.25, 4.0, -1e300, 2.5], [0.5, 0.75, 1.0, 0.0, 0.5], [-0.5, -0.75, 1.0, 0.0, 0.5]),
        ([1.5, 1e300, -1e300, 1e300, 1.5], [0.5, 0.0, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, 0.0, -0.5]),
        ([1.0, 1.0, 3.0, 0.0, 2.0], [0.0] * 5, [0.0] * 5),
    ]
    for c, want, want_signed in cases:
        assert bounds.violation(c).tolist() == want
        assert bounds.signed_violation(np.array(c)).tolist() == want_signed
    # an empty (m = 0) block measures nothing
    empty = Bounds(np.zeros(0), np.zeros(0))
    for measure in (empty.violation, empty.signed_violation):
        v = measure(np.zeros(0))
        assert v.shape == (0,) and v.dtype == float


def test_view_bounds_are_the_scaled_spec_bounds():
    spec = build_problem("b", [0.5, 0.5], obj=lambda x: float(x @ x), con=lambda x: 2.0 * x,
                         xl=[0.1, -np.inf], xu=[0.3, 2.0], cl=[1.0, -np.inf], cu=[1.0, 0.7],
                         x_scaler=[0.01, 3.0], c_scaler=[0.1, 7.0])
    view = ScaledView(spec)
    assert (view.n, view.m, view.name) == (2, 2, "b")
    for got, scaler, bounds in ((view.var_bounds, spec.x_scaler, spec.var_bounds),
                                (view.con_bounds, spec.c_scaler, spec.con_bounds)):
        assert got.lower.tobytes() == (scaler * bounds.lower).tobytes()
        assert got.upper.tobytes() == (scaler * bounds.upper).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got.upper[0] = 0.0
    # x0 is a fresh scaled copy that a solver may clip in place
    x0 = view.var_bounds.clip(view.x0)
    assert x0[0] == view.var_bounds.upper[0] and x0[1] == 0.5 * 3.0
    assert view.x0.tobytes() == (spec.x_scaler * spec.x0).tobytes()


def test_missing_constraint_callback_rejected():
    with pytest.raises(ProblemError):
        build_problem("bad", [1.0], obj=lambda x: 0.0, cl=[0.0], cu=[1.0])


# ---------------------------------------------------------------------------
# scaled evaluation
# ---------------------------------------------------------------------------

def test_unit_scaling_identity():
    view = ScaledView(quad_spec())
    assert view.obj(np.array([1.0, 0.0])) == 1.0


def test_scaled_objective_and_gradient():
    # f = x^2 with x_scaler=2, f_scaler=3: at x_scaled=2 (x=1) the scaled
    # objective is 3*1 and the scaled gradient (3/2)*2 = 3
    spec = build_problem("s", [1.0], obj=lambda x: float(x[0] ** 2),
                         grad=lambda x: 2.0 * x, x_scaler=2.0, f_scaler=3.0)
    view = ScaledView(spec)
    assert view.obj(np.array([2.0])) == pytest.approx(3.0)
    assert view.grad(np.array([2.0]))[0] == pytest.approx(3.0)


def test_rosenbrock_gradient_value():
    spec = rosenbrock2()
    g = spec.callbacks.gradient(np.array([-1.2, 1.0]))
    assert_allclose(g, [-215.6, -88.0], rtol=1e-12)
    g_fd = fd_derivative(spec, "grad", [-1.2, 1.0])
    assert_allclose(g, g_fd, rtol=1e-5)


def test_scaling_consistency_roundtrip():
    # scaled evaluation unscales back to the raw evaluation within 4 eps;
    # power-of-two x scalers keep the evaluation point bit-identical
    rng = np.random.default_rng(11)
    spec = build_problem(
        "c", [0.7, -1.3],
        obj=lambda x: float(np.sin(x[0]) + x[1] ** 2),
        grad=lambda x: np.array([np.cos(x[0]), 2.0 * x[1]]),
        con=lambda x: np.array([x[0] * x[1], x[0] + 2.0]),
        jac=lambda x: np.array([[x[1], x[0]], [1.0, 0.0]]),
        cl=[-10.0, -10.0], cu=[10.0, 10.0],
        x_scaler=[4.0, 0.25], f_scaler=7.0, c_scaler=[0.5, 40.0])
    plain = ScaledView(build_problem(
        "c0", [0.7, -1.3], obj=spec.callbacks.objective, grad=spec.callbacks.gradient,
        con=spec.callbacks.constraints, jac=spec.callbacks.jacobian,
        cl=[-10.0, -10.0], cu=[10.0, 10.0]))
    view = ScaledView(spec)
    eps4 = 4.0 * np.finfo(float).eps
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 2)
        xs = spec.x_scaler * x
        assert_allclose(view.obj(xs) / spec.f_scaler, plain.obj(x), rtol=eps4)
        assert_allclose(view.grad(xs) * spec.x_scaler / spec.f_scaler, plain.grad(x), rtol=eps4)
        assert_allclose(view.con(xs) / spec.c_scaler, plain.con(x), rtol=eps4)
        assert_allclose(view.jac(xs) * spec.x_scaler[None, :] / spec.c_scaler[:, None],
                        plain.jac(x), rtol=eps4)


def test_lagrangian_hessian_scaling():
    # quadratic objective and constraint make the Lagrangian Hessian exact
    spec = build_problem(
        "lh", [1.0, 1.0], obj=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
        con=lambda x: np.array([x[0] ** 2]), jac=lambda x: np.array([[2.0 * x[0], 0.0]]),
        lag_hess=lambda x, lam: 2.0 * np.eye(2) - lam[0] * np.array([[2.0, 0.0], [0.0, 0.0]]),
        cl=[1.0], cu=[1.0], x_scaler=[2.0, 5.0], f_scaler=3.0, c_scaler=[4.0])
    view = ScaledView(spec)
    lam_s = np.array([0.25])
    H = view.lag_hess(spec.x_scaler * np.array([1.0, 1.0]), lam_s)
    lam_raw = lam_s * 4.0 / 3.0
    H_raw = 2.0 * np.eye(2) - lam_raw[0] * np.array([[2.0, 0.0], [0.0, 0.0]])
    expect = 3.0 * H_raw / np.outer([2.0, 5.0], [2.0, 5.0])
    assert_allclose(H, expect, rtol=1e-14)


def one_constraint_spec(**overrides):
    """n = 2, m = 1 problem with every callback; ``overrides`` replace some."""
    callbacks = dict(obj=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
                     con=lambda x: np.array([x[0] + x[1]]),
                     jac=lambda x: np.array([[1.0, 1.0]]),
                     obj_hess=lambda x: 2.0 * np.eye(2),
                     lag_hess=lambda x, lam: 2.0 * np.eye(2))
    callbacks.update(overrides)
    return build_problem("bad", [1.0, 0.5], cl=[0.0], cu=[2.0], **callbacks)


# case -> (kind, callback override, expected message)
BAD_RESULTS = {
    "obj-nan": ("obj", {"obj": lambda x: float("nan")}, "non-finite"),
    "obj-inf": ("obj", {"obj": lambda x: np.inf}, "non-finite"),
    "obj-neg-inf": ("obj", {"obj": lambda x: -np.inf}, "non-finite"),
    "obj-float64-inf": ("obj", {"obj": lambda x: np.float64(np.inf)}, "non-finite"),
    "obj-0d-nan": ("obj", {"obj": lambda x: np.array(np.nan)}, "non-finite"),
    "grad-nan": ("grad", {"grad": lambda x: np.array([1.0, np.nan])}, "non-finite"),
    "con-inf": ("con", {"con": lambda x: np.array([np.inf])}, "non-finite"),
    "jac-inf": ("jac", {"jac": lambda x: np.array([[1.0, np.inf]])}, "non-finite"),
    "obj_hess-inf": ("obj_hess", {"obj_hess": lambda x: np.array([[2.0, 0.0], [0.0, np.inf]])},
                     "non-finite"),
    "lag_hess-nan": ("lag_hess", {"lag_hess": lambda x, lam: np.full((2, 2), np.nan)},
                     "non-finite"),
    "obj-vector": ("obj", {"obj": lambda x: np.array([1.0, 2.0])}, "expected a scalar"),
    "grad-wrong-shape": ("grad", {"grad": lambda x: np.ones(3)}, "expected \\(2,\\)"),
    "jac-wrong-shape": ("jac", {"jac": lambda x: np.ones((2, 2))}, "expected \\(1, 2\\)"),
}


@pytest.mark.parametrize("case", list(BAD_RESULTS))
def test_nonfinite_callback_raises_with_context(case):
    kind, override, message = BAD_RESULTS[case]
    view = ScaledView(one_constraint_spec(**override))
    x = np.array([1.0, 0.5])
    with pytest.raises(EvaluationError, match=message) as err:
        view.lag_hess(x, np.array([0.3])) if kind == "lag_hess" else getattr(view, kind)(x)
    assert err.value.kind == kind
    if message == "non-finite":
        assert err.value.x is not None
    assert sum(view.counters.as_dict().values()) == 1   # the bad call still counts


@pytest.mark.parametrize("n", [2, 64])
def test_finiteness_check_is_exact_at_any_size(n):
    """Finite entries pass even when their sum overflows; a NaN or an inf at
    either end raises, for arrays on both sides of the check's size switch."""
    x0 = np.ones(n)
    big = np.full(n, 1e308)
    view = ScaledView(build_problem("big", x0, obj=lambda x: 0.0, grad=lambda x: big))
    np.testing.assert_array_equal(view.grad(x0), big)
    for bad in (np.nan, np.inf, -np.inf):
        for i in (0, n - 1):
            g = big.copy()
            g[i] = bad
            view = ScaledView(build_problem("bad", x0, obj=lambda x: 0.0, grad=lambda x: g))
            with pytest.raises(EvaluationError, match="non-finite") as err:
                view.grad(x0)
            assert err.value.kind == "grad"
            np.testing.assert_array_equal(err.value.x, x0)


@pytest.mark.parametrize("n", [17, 256])
def test_vector_finiteness_from_one_sum_of_squares(n):
    # above 16 entries a vector is proved finite by one sum of squares; a
    # square that overflows sends it to the exact count, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _is_finite(np.full(n, 1e200))
        assert _is_finite(np.linspace(-1.0, 1.0, n))
        for bad in (np.inf, -np.inf, np.nan):
            for i in (0, n // 2, n - 1):
                r = np.full(n, 1e200)
                r[i] = bad
                assert not _is_finite(r), (bad, i)


def test_matrix_finiteness_takes_the_exact_count():
    M = np.full((5, 5), 1e200)
    assert _is_finite(M)
    M[2, 3] = np.nan
    assert not _is_finite(M)
    M[2, 3] = -np.inf
    assert not _is_finite(M)


def test_one_nan_in_a_32_entry_gradient_raises():
    n = 32
    x0 = np.ones(n)

    def grad(x):
        g = 2.0 * x
        g[n // 2] = np.nan
        return g

    view = ScaledView(build_problem("nan32", x0, obj=lambda x: float(x @ x), grad=grad))
    with pytest.raises(EvaluationError, match="non-finite") as err:
        view.grad(x0)
    assert err.value.kind == "grad"


_SHARED_GRAD = np.zeros(2)
_SHARED_CON = np.zeros(1)


def _shared_grad(x):
    _SHARED_GRAD[:] = 2.0 * x       # the same array on every call, overwritten
    return _SHARED_GRAD


def _shared_con(x):
    _SHARED_CON[:] = x[0] * x[1]
    return _SHARED_CON


def test_view_keeps_no_alias_of_callback_or_returned_arrays():
    """Neither a callback that reuses its result array nor a solver that
    writes into what the view returned changes the memo, the next answer
    or the record."""
    spec = build_problem("shared", [1.0, 2.0], obj=lambda x: float(x @ x), grad=_shared_grad,
                         con=_shared_con, cl=[0.0], cu=[1.0])
    view = ScaledView(spec, record=True)
    x = np.array([1.0, 2.0])
    g, c = view.grad(x), view.con(x)
    g[:] = -1.0
    c[:] = -1.0
    # the memo answers the next requests at x with the values first given
    np.testing.assert_array_equal(view.grad(x), [2.0, 4.0])
    np.testing.assert_array_equal(view.con(x), [2.0])
    view.grad(np.array([3.0, 4.0]))
    J = view.jac(x)                 # forward differences from the memo's con base at x
    assert view.counters.n_con == 1 + 2
    assert_allclose(J, [[2.0, 1.0]], rtol=1e-6)
    events = view.record.eval_events()
    assert [e.kind for e in events[:3]] == ["grad", "con", "grad"]
    np.testing.assert_array_equal(events[0].result, [2.0, 4.0])
    np.testing.assert_array_equal(events[1].result, [2.0])
    np.testing.assert_array_equal(events[2].result, [6.0, 8.0])


@pytest.mark.parametrize("value", [3, np.float32(0.1), np.float64(0.1), 0.1,
                                   np.array(0.1), np.array([0.1]), [0.1]],
                         ids=["int", "float32", "float64", "float", "0d", "shape1", "list"])
def test_objective_result_is_a_python_float(value):
    """Every accepted objective type reaches the solver as the same Python float."""
    view = ScaledView(build_problem("t", [1.0], obj=lambda x: value), record=True)
    f = view.obj(np.array([1.0]))
    assert type(f) is float
    assert f == float(np.asarray(value, dtype=float).reshape(()))
    assert type(view.record.eval_events()[0].result) is float


@pytest.mark.parametrize("value, n", [
    (np.array([1.5, -2.0], dtype=np.float32), 2), ([1.5, -2.0], 2), ((1.5, -2.0), 2),
    (np.array([3, -2]), 2), (np.array([[1.5], [-2.0]]), 2), (np.float64(1.5), 1), (1.5, 1),
], ids=["float32", "list", "tuple", "int", "column", "float64-n1", "float-n1"])
def test_array_result_of_another_type_is_coerced(value, n):
    """A gradient that is not a float64 array of shape (n,) reaches the solver
    as one, with the values np.array(value, dtype=float) gives."""
    view = ScaledView(build_problem("t", np.ones(n), obj=lambda x: 0.0, grad=lambda x: value),
                      record=True)
    g = view.grad(np.ones(n))
    assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == (n,)
    assert g.tobytes() == np.array(value, dtype=float).reshape(n).tobytes()
    assert view.record.eval_events()[0].result.tobytes() == g.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_array_result_is_copied_in_its_own_layout(order):
    """A float64 Jacobian of the declared shape is copied as np.array copies
    it, layout and all, so J.T @ lam sums in the order it does on the
    callback's array; the copy outlives the callback writing into its array."""
    rng = np.random.default_rng(5)
    J = np.asarray(rng.standard_normal((3, 7)), order=order)
    reused = np.zeros((3, 7), order=order)

    def jac(x):
        reused[...] = J
        return reused

    spec = build_problem("layout", np.ones(7), obj=lambda x: 0.0, con=lambda x: np.zeros(3),
                         jac=jac, cl=np.zeros(3), cu=np.zeros(3))
    view = ScaledView(spec)
    x, lam = np.ones(7), rng.standard_normal(3)
    scaled = view.jac(x)
    raw = view._raw("jac", x)             # the memo's copy, served without a call
    assert raw is not reused and raw.flags.f_contiguous == (order == "F")
    assert (raw.T @ lam).tobytes() == (np.array(J, dtype=float).T @ lam).tobytes()
    assert scaled.tobytes() == (view._jac_scale * np.array(J, dtype=float)).tobytes()
    reused[...] = 0.0                     # the callback's array changes later
    assert view.jac(x).tobytes() == scaled.tobytes()
    assert view.counters.n_jac == 1


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_gradient_quadratic():
    spec = build_problem("q", [1.0, 1.0], obj=lambda x: float(x @ x))
    g = fd_derivative(spec, "grad", [1.0, 1.0])
    assert_allclose(g, [2.0, 2.0], atol=1e-6)


def test_fd_jacobian_exact_on_linear_map():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1.0, 1.0, (3, 4))
    spec = build_problem("lin", np.ones(4), obj=lambda x: 0.0,
                         con=lambda x: A @ x, m=3)
    J = fd_derivative(spec, "jac", rng.uniform(-1.0, 1.0, 4))
    assert np.max(np.abs(J - A)) <= 1e-8 * np.linalg.norm(A)


def test_fd_matches_analytic_on_rosenbrock():
    spec = rosenbrock2()
    g = spec.callbacks.gradient(np.array([-1.2, 1.0]))
    g_fd = fd_derivative(spec, "grad", [-1.2, 1.0])
    assert_allclose(g_fd, g, rtol=1e-5)


def test_fd_hessian_via_gradient():
    spec = rosenbrock2()
    x = np.array([-1.2, 1.0])
    H = fd_derivative(spec, "obj_hess", x)
    assert_allclose(H, spec.callbacks.obj_hessian(x), rtol=1e-4)


def test_view_fd_hessian_when_callback_missing():
    spec = build_problem("q", [0.3, -0.2], obj=lambda x: float(x @ x), grad=lambda x: 2.0 * x)
    view = ScaledView(spec)
    H = view.obj_hess(np.array([0.3, -0.2]))
    assert_allclose(H, 2.0 * np.eye(2), atol=1e-5)


@pytest.mark.parametrize("token", ["rosenbrock2", "bean", "cantilever:6", "spacecraft:3"])
def test_fd_derivative_is_the_view_fd_fallback(token):
    # with unit scalers, fd_derivative and a view without the callback take
    # the same differences and must agree bit for bit
    spec = parse_problem_token(token)
    spec = replace(spec, x_scaler=np.ones(spec.n), f_scaler=1.0, c_scaler=np.ones(spec.m))
    x = spec.x0 + 0.01
    lam = np.linspace(0.5, 1.5, spec.m)
    for kind in ("grad", "jac", "obj_hess", "lag_hess"):
        withheld = replace(spec.callbacks, **{KINDS[kind][0]: None})
        view = ScaledView(replace(spec, callbacks=withheld))
        if kind == "lag_hess":
            assert np.array_equal(fd_derivative(spec, kind, x, lam), view.lag_hess(x, lam))
        else:
            assert np.array_equal(fd_derivative(spec, kind, x), getattr(view, kind)(x))


def test_fd_derivative_wraps_raising_callback():
    def boom(x):
        raise ValueError("boom")

    spec = build_problem("raise", [1.0], obj=boom)
    with pytest.raises(EvaluationError, match="boom"):
        fd_derivative(spec, "grad", [1.0])
    with pytest.raises(ProblemError, match="kind"):
        fd_derivative(spec, "obj", [1.0])


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def test_counters_count_each_objective_call():
    # four requests at one x make one call; requests that alternate between
    # two points make one call each
    view = ScaledView(quad_spec())
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for _ in range(4):
        view.obj(x)
    assert view.counters.n_obj == 1
    for _ in range(3):
        view.obj(y)
        view.obj(x)
    assert view.counters.n_obj == 1 + 6


# ---------------------------------------------------------------------------
# the view's memo of the last request of each kind
# ---------------------------------------------------------------------------

def test_memo_serves_each_kind_independently():
    view = ScaledView(one_constraint_spec(), record=True)
    x, y = np.array([1.0, 0.5]), np.array([0.25, 2.0])
    first = [view.obj(x), view.grad(x), view.con(x), view.jac(x), view.obj_hess(x)]
    view.obj(y)             # displaces the objective at x, no other kind
    again = [view.grad(x), view.con(x), view.jac(x), view.obj_hess(x)]
    assert view.counters.as_dict() == {"n_obj": 2, "n_grad": 1, "n_con": 1, "n_jac": 1,
                                       "n_hess": 1}
    for got, want in zip(again, first[1:]):
        assert np.array_equal(got, want)
    assert view.obj(x) == first[0]
    assert view.counters.n_obj == 3
    assert [e.kind for e in view.record.eval_events()] == [
        "obj", "grad", "con", "jac", "obj_hess", "obj", "obj"]


def test_fd_stencils_do_not_displace_a_requested_value():
    spec = one_constraint_spec(grad=None, jac=None, obj_hess=None)
    view = ScaledView(spec)
    x = np.array([1.0, 0.5])
    f, c = view.obj(x), view.con(x)
    g, J = view.grad(x), view.jac(x)        # bases from the memo, n stencil points each
    assert view.counters.n_obj == view.counters.n_con == 1 + 2
    view.obj_hess(x)                        # differences the memo's gradient at x
    assert view.counters.n_obj == 1 + 2 + 2 * 3
    before = view.counters.copy()
    assert view.obj(x) == f
    assert np.array_equal(view.con(x), c)
    assert np.array_equal(view.grad(x), g)
    assert np.array_equal(view.jac(x), J)
    assert view.counters == before


def test_a_request_with_multipliers_is_never_served_by_the_memo():
    calls = []
    spec = one_constraint_spec(lag_hess=lambda x, lam: calls.append(lam.copy()) or
                               (2.0 - 2.0 * lam[0]) * np.eye(2))
    view = ScaledView(spec)
    x, lam = np.array([1.0, 0.5]), np.array([0.25])
    H = view.lag_hess(x, lam)
    assert np.array_equal(view.lag_hess(x, lam), H)
    assert not np.array_equal(view.lag_hess(x, 2.0 * lam), H)
    assert view.counters.n_hess == len(calls) == 3


def test_fd_gradient_adds_exactly_n_objective_calls():
    # after an objective evaluation at x, the FD gradient reuses that base
    # value and costs exactly n extra objective calls, none for the gradient
    spec = build_problem("fd", np.array([0.4, 1.7, -2.0]), obj=lambda x: float(x @ x))
    view = ScaledView(spec)
    x = view.x0
    view.obj(x)
    assert view.counters.n_obj == 1
    view.grad(x)
    assert view.counters.n_obj == 1 + 3
    assert view.counters.n_grad == 0


def _fd_columns_by_column(func, x, base=None):
    """_fd_columns as written a column at a time: the reference for its bits."""
    x = np.asarray(x, dtype=float)
    central = base is None
    h = (CBRT_EPS if central else SQRT_EPS) * np.maximum(1.0, np.abs(x))
    if not central:
        base = np.asarray(base, dtype=float).ravel()
    cols = None
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h[i]
        col = np.asarray(func(xp), dtype=float).ravel()
        if central:
            xm = x.copy()
            xm[i] -= h[i]
            col = (col - np.asarray(func(xm), dtype=float).ravel()) / (2.0 * h[i])
        else:
            col = (col - base) / h[i]
        if cols is None:
            cols = np.empty((col.size, x.size))
        cols[:, i] = col
    return cols


@pytest.mark.parametrize("token, case", [
    (token, case) for token in ("rosenbrock2", "cantilever:6", "spacecraft:3")
    for case in ("forward", "central", "jacobian", "hessian")
    if token != "rosenbrock2" or case != "jacobian"])
def test_fd_columns_match_the_column_at_a_time_reference(token, case):
    # the same points in the same order, and every difference with the same bits
    spec = parse_problem_token(token)
    cb = spec.callbacks
    x = spec.x0 + 0.01
    func = {"forward": cb.objective, "central": cb.objective,
            "jacobian": cb.constraints, "hessian": cb.gradient}[case]
    base = None if case == "central" else func(x)
    results, calls = [], []
    for columns in (_fd_columns, _fd_columns_by_column):
        log = []
        results.append(columns(lambda y: log.append(y.copy()) or func(y), x, base))
        calls.append(np.array(log))
    got, want = results
    assert got.shape == want.shape == (np.size(func(x)), spec.n)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert calls[0].tobytes() == calls[1].tobytes()


def test_fd_evaluation_events_keep_their_order():
    # a recorded view's FD Jacobian and central FD gradient ask the same
    # (kind, x) sequence as the column-at-a-time reference
    spec = parse_problem_token("cantilever:6")
    spec = replace(spec, x_scaler=np.ones(spec.n), f_scaler=1.0, c_scaler=np.ones(spec.m),
                   callbacks=replace(spec.callbacks, gradient=None, jacobian=None))
    view = ScaledView(spec, record=True)
    x = spec.x0 + 0.01
    J = view.jac(x)
    assert view.central_fd_grad()
    g = view.grad(x)
    asked = []

    def logged(kind):
        fn = spec.callbacks.objective if kind == "obj" else spec.callbacks.constraints
        return lambda y: asked.append((kind, y.tobytes())) or fn(y)

    con = logged("con")
    assert np.array_equal(J, _fd_columns_by_column(con, x, con(x)))
    assert np.array_equal(g, _fd_columns_by_column(logged("obj"), x).ravel())
    assert [(e.kind, e.x.tobytes()) for e in view.record.eval_events()] == asked


def test_fd_gradient_at_fresh_point_adds_n_plus_one():
    spec = build_problem("fd", np.array([0.4, 1.7]), obj=lambda x: float(x @ x))
    view = ScaledView(spec)
    view.grad(view.x0)
    assert view.counters.n_obj == 3  # base + n probes


def test_central_fd_gradient_switch_is_one_way():
    # after the switch an FD gradient costs 2n objective calls and no base
    # value, and its error falls from O(h) to O(h^2); the memo's forward
    # gradient at x is not served after it
    spec = build_problem("cubic", np.array([0.4, 1.7, -2.0]), obj=lambda x: float(np.sum(x ** 3)))
    view = ScaledView(spec)
    x = view.x0
    exact = 3.0 * x ** 2
    forward = view.grad(x)
    assert np.array_equal(view.grad(x), forward)
    assert view.central_fd_grad()
    assert not view.central_fd_grad()
    before = view.counters.n_obj
    central = view.grad(x)
    assert view.counters.n_obj - before == 2 * x.size
    assert np.array_equal(central, _fd_columns(spec.callbacks.objective, x).ravel())
    assert np.max(np.abs(central - exact)) < 1e-2 * np.max(np.abs(forward - exact))
    # an analytic gradient has nothing to switch
    assert not ScaledView(quad_spec()).central_fd_grad()


# ---------------------------------------------------------------------------
# the empty constraint block of an unconstrained problem
# ---------------------------------------------------------------------------

def test_unconstrained_view_has_an_empty_constraint_block():
    # con and jac callbacks given with m=0 must never be called
    def boom(x):
        raise AssertionError("constraint callback called")

    spec = build_problem("free", [1.0, 0.0], obj=lambda x: float(x @ x),
                         grad=lambda x: 2.0 * x, con=boom, jac=boom, m=0)
    view = ScaledView(spec, record=True)
    x = np.array([0.5, -0.5])
    c, J = view.con(x), view.jac(x)
    assert c.shape == (0,) and c.dtype == float
    assert J.shape == (0, 2) and J.dtype == float
    assert view.feasibility(x) == 0.0
    assert view.con_bounds.lower.shape == view.con_bounds.upper.shape == (0,)
    assert not any(view.counters.as_dict().values())
    assert view.record.eval_events() == []
    # the verification path gives the same block and calls nothing either
    assert fd_derivative(spec, "jac", x).shape == (0, 2)


@pytest.mark.parametrize("solver", ["sqp", "quadratic_penalty", "exact_penalty", "newton_lagrange"])
def test_constrained_solvers_read_no_constraint_of_an_unconstrained_problem(solver):
    view = ScaledView(bean(), record=True)
    report = SOLVERS[solver](view)
    assert report.converged
    assert report.counters.n_con == report.counters.n_jac == 0
    assert not {e.kind for e in view.record.eval_events()} & {"con", "jac"}


# ---------------------------------------------------------------------------
# derivative checking
# ---------------------------------------------------------------------------

def test_check_clean_quadratic():
    report = check_first_derivatives(quadratic_example())
    assert report.ok
    assert report.max_rel_error < 1e-6
    assert report.jac_errors is not None


def test_check_flags_wrong_gradient():
    spec = build_problem("bug", [1.0, 1.0], obj=lambda x: float(x @ x),
                         grad=lambda x: 2.0 * x + 1.0)
    report = check_first_derivatives(spec)
    assert not report.ok
    assert any(section == "grad" for section, _, _ in report.flagged)


def test_check_unconstrained_has_no_jacobian_section():
    report = check_first_derivatives(quad_spec())
    assert report.jac_errors is None
    assert report.ok


def test_check_requires_analytic_derivatives():
    spec = build_problem("none", [1.0], obj=lambda x: float(x[0] ** 2))
    with pytest.raises(ProblemError):
        check_first_derivatives(spec)


def _raise_zero_division(x):
    return 1.0 / 0


# case -> (kind, callback override, expected message); each was passed or
# escaped as the callback's own exception when the check called them raw
BAD_DERIVATIVES = {
    "grad-nan": ("grad", {"grad": lambda x: np.array([np.nan, 1.0])}, "non-finite"),
    "jac-inf": ("jac", {"jac": lambda x: np.array([[1.0, np.inf]])}, "non-finite"),
    "grad-raises": ("grad", {"grad": _raise_zero_division}, "ZeroDivisionError"),
}


@pytest.mark.parametrize("case", list(BAD_DERIVATIVES))
def test_check_raises_the_view_error_for_a_bad_derivative(case):
    kind, override, message = BAD_DERIVATIVES[case]
    with pytest.raises(EvaluationError, match=message) as err:
        check_first_derivatives(one_constraint_spec(**override))
    assert err.value.kind == kind
    np.testing.assert_array_equal(err.value.x, [1.0, 0.5])


# ---------------------------------------------------------------------------
# dispatch by kind method
# ---------------------------------------------------------------------------

def test_evaluate_dispatch_and_lam_rules():
    view = ScaledView(quadratic_example())
    x = view.x0
    assert view.obj(x) == view.spec.callbacks.objective(np.array([500.0, 5.0]))
    assert_allclose(view.grad(x), [1000.0, 10.0])
    assert_allclose(view.con(x), [505.0, 495.0])
    H = view.lag_hess(x, np.array([0.5, 0.5]))
    assert_allclose(H, 2.0 * np.eye(2))
