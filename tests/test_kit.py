import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optkit import Bounds, HessianApprox, QpError, line_search, merit_value, qp_solve

VARIANTS = ("broyden", "sr1", "bfgs", "dfp")


# ---------------------------------------------------------------------------
# Hessian updates
# ---------------------------------------------------------------------------

def test_bfgs_noop_when_secant_already_holds():
    H = HessianApprox(n=2, variant="bfgs")
    skipped = H.update(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert not skipped
    assert_allclose(H.B, np.eye(2), atol=1e-15)


def test_sr1_rank_one_example():
    H = HessianApprox(n=2, variant="sr1")
    skipped = H.update(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert not skipped
    assert_allclose(H.B, [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_sr1_skips_degenerate_denominator():
    H = HessianApprox(n=2, variant="sr1")
    d = np.array([1.0, 2.0])
    skipped = H.update(d, H.B @ d)  # w == Bd exactly
    assert skipped
    assert_allclose(H.B, np.eye(2))


def test_bfgs_skips_negative_curvature():
    H = HessianApprox(n=2, variant="bfgs")
    skipped = H.update(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))  # w'd = -1
    assert skipped
    assert_allclose(H.B, np.eye(2))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [2, 5, 20])
def test_secant_condition_random_trials(variant, n):
    # 100 trials per (variant, n): every applied update satisfies B+ d = w
    rng = np.random.default_rng(1000 + n)
    applied = 0
    for _ in range(100):
        H = HessianApprox(n=n, variant=variant)
        M = rng.normal(size=(n, n))
        H.B = M @ M.T + n * np.eye(n)  # SPD start
        d = rng.normal(size=n)
        w = rng.normal(size=n)
        if variant in ("bfgs", "dfp") and w @ d <= 0:
            w = w - 2.0 * (w @ d) * d / (d @ d)  # flip to positive curvature
        skipped = H.update(d, w)
        if skipped:
            continue
        applied += 1
        resid = np.linalg.norm(H.B @ d - w)
        bound = 1e-9 * (np.linalg.norm(H.B) * np.linalg.norm(d) + np.linalg.norm(w))
        assert resid <= bound
        if variant != "broyden":
            asym = np.max(np.abs(H.B - H.B.T))
            assert asym <= 1e-12 * max(np.max(np.abs(H.B)), 1e-300)
    assert applied >= 90


def test_bfgs_stays_positive_definite():
    rng = np.random.default_rng(7)
    H = HessianApprox(n=5, variant="bfgs")
    for _ in range(50):
        d = rng.normal(size=5)
        d /= np.linalg.norm(d)
        w = rng.normal(size=5)
        w /= np.linalg.norm(w)
        if w @ d <= 1e-3:
            continue
        H.update(d, w)
        assert np.min(np.linalg.eigvalsh(H.B)) > 0.0


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("d, w", [([1.0, 0.0], [np.nan, 0.0]),
                                  ([np.inf, 0.0], [1.0, 0.0]),
                                  ([1.0, -np.inf], [1.0, 1.0])],
                         ids=["nan_w", "inf_d", "neg_inf_d"])
def test_nonfinite_pair_is_skipped(variant, inverse, d, w):
    H = HessianApprox(n=2, variant=variant, inverse=inverse)
    assert H.update(d, w)
    assert np.array_equal(H.H if inverse else H.B, np.eye(2))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("inverse", [False, True])
def test_pair_whose_square_overflows_is_skipped(variant, inverse):
    # the guards read finiteness from d'd and w'w, so a finite d whose
    # square overflows is skipped like an infinite one
    H = HessianApprox(n=2, variant=variant, inverse=inverse)
    with np.errstate(over="ignore"):
        assert H.update([1e200, 0.0], [1.0, 0.0])
    assert np.array_equal(H.H if inverse else H.B, np.eye(2))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("d, w", [([1e200, 0.0], [1.0, 0.0]), ([1.0, 0.0], [1.0, 1e200])],
                         ids=["d", "w"])
def test_overflowing_square_is_skipped_without_a_warning(inverse, d, w):
    H = HessianApprox(n=2, variant="bfgs", inverse=inverse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert H.update(d, w)
    assert np.array_equal(H.H if inverse else H.B, np.eye(2))


@pytest.mark.parametrize("variant", ["bfgs", "sr1"])
def test_add_outer_keeps_inverse_equal_to_inverse_of_direct(variant):
    # the same updates and rank-one additions B + sigma a a' in both modes:
    # Sherman-Morrison keeps H = inv(B), also across folds (over 16 columns)
    n = 6
    rng = np.random.default_rng(3)
    M = rng.normal(size=(n, n))
    A = M @ M.T + n * np.eye(n)
    direct = HessianApprox(n=n, variant=variant)
    inv = HessianApprox(n=n, variant=variant, inverse=True)
    folds = 0
    for _ in range(16):
        d = rng.normal(size=n)
        k = inv._k
        assert direct.update(d, A @ d) == inv.update(d, A @ d) is False
        a, sigma = rng.normal(size=n), 10.0 ** rng.uniform(-1, 3)
        direct.add_outer(a, sigma)
        inv.add_outer(a, sigma)
        folds += inv._k <= k
    assert folds    # H is read only here, since reading it folds as well
    assert_allclose(inv.H @ direct.B, np.eye(n), atol=1e-8)
    assert_allclose(inv.H, np.linalg.inv(direct.B), rtol=1e-8, atol=1e-12)


def test_add_outer_folds_only_when_the_pending_columns_are_full():
    H = HessianApprox(n=3, inverse=True)
    for j in range(16):
        H.add_outer(np.eye(3)[j % 3], 1.0)
        assert H._k == j + 1
    H.add_outer([1.0, 2.0, 3.0], 1.0)
    assert H._k == 1


def test_inverse_mode_rejects_direct_matrix():
    with pytest.raises(ValueError, match="H when inverse=True"):
        HessianApprox(n=2, inverse=True, B=np.eye(2))


@pytest.mark.parametrize("variant", VARIANTS)
def test_inverse_update_tracks_inverse_of_direct(variant):
    # duality: starting from H0 = inv(B0), the inverse-mode updates keep
    # H_k = inv(B_k) and the inverse secant condition H w = d
    n = 12
    for seed in range(5):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        B0 = M @ M.T + n * np.eye(n)
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)  # secant pairs w = A d have w'd > 0
        direct = HessianApprox(n=n, variant=variant, B=B0)
        inv = HessianApprox(n=n, variant=variant, inverse=True, H=np.linalg.inv(B0))
        for _ in range(10):
            d = rng.normal(size=n)
            w = A @ d
            skipped = direct.update(d, w)
            assert inv.update(d, w) == skipped
            assert not skipped
            assert np.linalg.norm(inv.H @ w - d) <= 1e-10 * np.linalg.norm(d)
            assert np.linalg.norm(inv.H @ direct.B - np.eye(n)) <= 1e-8


@pytest.mark.parametrize("variant, make_w", [
    ("sr1", lambda B, d: B @ d),                     # w == Bd: zero SR1 numerator
    ("bfgs", lambda B, d: -d),                       # w'd < 0
    ("dfp", lambda B, d: -d),
    ("bfgs", lambda B, d: np.array([0.0, 1.0, 0.0])),  # w'd == 0
    ("dfp", lambda B, d: np.array([0.0, 1.0, 0.0])),
], ids=["sr1_w_eq_Bd", "bfgs_negative", "dfp_negative", "bfgs_zero", "dfp_zero"])
def test_guards_skip_in_both_modes(variant, make_w):
    # power-of-two diagonal: B0 @ d and H0 @ (B0 @ d) are exact
    B0 = np.diag([2.0, 4.0, 0.5])
    d = np.array([1.0, 0.0, 3.0])
    w = make_w(B0, d)
    direct = HessianApprox(n=3, variant=variant, B=B0)
    inv = HessianApprox(n=3, variant=variant, inverse=True, H=np.diag([0.5, 0.25, 2.0]))
    assert direct.update(d, w)
    assert inv.update(d, w)
    assert np.array_equal(direct.B, B0)
    assert np.array_equal(inv.H, np.diag([0.5, 0.25, 2.0]))


def _matrix(approx):
    return approx.H if approx.inverse else approx.B


def _close(a, b):
    return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("inverse", [False, True])
def test_pending_columns_match_folding_after_every_update(variant, inverse):
    # one approximation is never read, so its updates stay pending until a
    # fold; the other folds after every update by reading its matrix
    n = 12
    rng = np.random.default_rng(42)
    M = rng.normal(size=(n, n))
    A = M @ M.T + n * np.eye(n)  # secant pairs w = A d have w'd > 0
    lazy = HessianApprox(n=n, variant=variant, inverse=inverse)
    eager = HessianApprox(n=n, variant=variant, inverse=inverse)
    for _ in range(40):
        d = rng.normal(size=n)
        assert lazy.update(d, A @ d) == eager.update(d, A @ d)
        _matrix(eager)
        x = rng.normal(size=n)
        assert _close(lazy.dot(x), eager.dot(x))
    assert _close(_matrix(lazy), _matrix(eager))


@pytest.mark.parametrize("inverse", [False, True])
def test_pending_columns_reset_assign_skip_and_earlier_reads(inverse):
    n = 12
    rng = np.random.default_rng(3)
    approx = HessianApprox(n=n, inverse=inverse)
    early = _matrix(approx)
    first = early.copy()
    x = rng.normal(size=n)
    for _ in range(3):
        d = rng.normal(size=n)
        assert not approx.update(d, 2.0 * d)
    # a skipped update (w'd < 0) leaves the pending state as it was
    before = approx.dot(x)
    assert approx.update(d, -d)
    assert np.array_equal(approx.dot(x), before)
    approx.reset()
    assert np.array_equal(approx.dot(x), x)
    assert np.array_equal(_matrix(approx), np.eye(n))
    for _ in range(3):
        d = rng.normal(size=n)
        approx.update(d, 2.0 * d)
    given = np.diag(np.arange(1.0, n + 1))
    if inverse:
        approx.H = given
    else:
        approx.B = given
    assert np.array_equal(approx.dot(x), given @ x)
    assert np.array_equal(_matrix(approx), given)
    with pytest.raises(ValueError, match="H when inverse=True"):
        if inverse:
            approx.B = given
        else:
            approx.H = given
    # an array read earlier never changes through later updates and folds
    mid = _matrix(approx)
    for _ in range(20):
        d = rng.normal(size=n)
        approx.update(d, 2.0 * d)
    _matrix(approx)
    given[0, 0] = 7.0  # assigning copied the array
    assert np.array_equal(mid, np.diag(np.arange(1.0, n + 1)))
    assert np.array_equal(early, first)
    assert (approx.B if inverse else approx.H) is None


@pytest.mark.parametrize("inverse", [False, True])
def test_set_identity_scales_in_place(inverse):
    n = 256
    rng = np.random.default_rng(5)
    approx = HessianApprox(n=n, inverse=inverse)
    for _ in range(3):
        d = rng.normal(size=n)
        approx.update(d, 2.0 * d)
    early = _matrix(approx).copy()
    held = _matrix(approx)
    for _ in range(2):
        d = rng.normal(size=n)
        approx.update(d, 2.0 * d)
    scale = 0.37
    tracemalloc.start()
    try:
        approx.set_identity(scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scaled identity is built in place: one n x n array, no product or copy
    assert peak < 1.5 * 8 * n * n
    assert approx._k == 0
    assert np.array_equal(_matrix(approx), scale * np.eye(n))
    assert _matrix(approx).tobytes() == (scale * np.eye(n)).tobytes()
    assert np.array_equal(held, early)      # an array read earlier keeps its values


@pytest.mark.parametrize("variant", VARIANTS)
def test_update_dot_with_the_bits_of_h_w_matches_plain_update(monkeypatch, variant):
    # 20 updates overflow the 16 pending columns, so both runs fold; an
    # update handed H w with the bits of dot(w) leaves the same bits, and
    # update is still entered as update(d, w)
    calls = []
    update = HessianApprox.update

    def spy(self, *args, **kwargs):
        calls.append((len(args), kwargs))
        return update(self, *args, **kwargs)

    monkeypatch.setattr(HessianApprox, "update", spy)
    n = 12
    rng = np.random.default_rng(9)
    M = rng.normal(size=(n, n))
    A = M @ M.T + n * np.eye(n)  # secant pairs w = A d have w'd > 0
    plain = HessianApprox(n=n, variant=variant, inverse=True)
    handed = HessianApprox(n=n, variant=variant, inverse=True)
    folded = False
    for _ in range(20):
        d = rng.normal(size=n)
        w = A @ d
        x = rng.normal(size=n)
        k = handed._k
        Hx, skipped = handed.update_dot(d, w, handed.dot(w), x, handed.dot(x))
        folded |= handed._k < k
        assert skipped == plain.update(d, w)
        assert handed.dot(x).tobytes() == plain.dot(x).tobytes()
        assert _close(Hx, plain.dot(x))
    assert folded
    assert calls == [(2, {})] * 40


def test_update_allocates_no_dense_matrix_before_a_fold():
    # seven inverse-BFGS updates fit in the pending columns: none may build
    # an n x n array (2 MiB at n = 512)
    n = 512
    rng = np.random.default_rng(0)
    pairs = [(d, 2.0 * d) for d in rng.normal(size=(7, n))]
    approx = HessianApprox(n=n, inverse=True)
    tracemalloc.start()
    try:
        for d, w in pairs:
            assert not approx.update(d, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


# ---------------------------------------------------------------------------
# line searches
# ---------------------------------------------------------------------------

def test_armijo_accepts_unit_step():
    # f(x)=x^2 at x=1 along p=-1: f(0)=0 <= 1 - 2e-4, first trial wins
    phi = lambda a: (1.0 - a) ** 2
    res = line_search("armijo", phi, f0=1.0, slope0=-2.0)
    assert res.alpha == 1.0 and res.converged
    assert res.n_f_evals == 1


def test_armijo_backtracks_enumerated_sequence():
    # f(x)=x^2 at x=1 along p=-4 with c1=0.5: trials 1 (f=9), 0.5 (f=1), 0.25 (f=0)
    phi = lambda a: (1.0 - 4.0 * a) ** 2
    res = line_search("armijo", phi, f0=1.0, slope0=-8.0, c1=0.5, tau=0.5)
    assert res.alpha == 0.25
    assert res.f_new == 0.0
    assert res.n_f_evals == 3


def test_ascent_direction_rejected():
    with pytest.raises(ValueError):
        line_search("armijo", lambda a: a, f0=0.0, slope0=1.0)


@pytest.mark.parametrize("kind", ["armijo", "wolfe"])
@pytest.mark.parametrize("max_iters", [0, -1])
def test_trial_budget_below_one_rejected(kind, max_iters):
    # with no trial there is no evaluated alpha to return
    def phi(a):
        raise AssertionError("phi called")

    with pytest.raises(ValueError, match="max_iters"):
        line_search(kind, phi, dphi=phi, f0=0.0, slope0=-1.0, max_iters=max_iters)


def test_armijo_exhaustion_returns_best():
    phi = lambda a: 1.0 + a  # never decreases
    res = line_search("armijo", phi, f0=1.0, slope0=-1.0, max_iters=5)
    assert not res.converged
    assert res.alpha > 0.0


def test_armijo_all_trials_nonfinite_returns_an_evaluated_alpha():
    # every trial is inf or NaN: the alpha returned is the last one phi saw,
    # not the next one, which phi never saw
    seen = []

    def phi(a):
        seen.append(a)
        return np.inf if len(seen) % 2 else np.nan

    res = line_search("armijo", phi, f0=0.0, slope0=-1.0)
    assert not res.converged and len(seen) == 30
    assert res.alpha == seen[-1]


def test_wolfe_satisfies_strong_curvature():
    # phi(a) = (a-1)^2 from a=0: slope0=-2; strong Wolfe at the minimizer
    phi = lambda a: (a - 1.0) ** 2
    dphi = lambda a: 2.0 * (a - 1.0)
    res = line_search("wolfe", phi, dphi, f0=1.0, slope0=-2.0, c2=0.9)
    assert res.converged
    assert abs(dphi(res.alpha)) <= 0.9 * 2.0
    assert phi(res.alpha) <= 1.0 + 1e-4 * res.alpha * (-2.0)


def test_wolfe_zooms_past_too_long_step():
    # minimum at 0.05: alpha=1 fails Armijo, zoom must recover a valid step
    phi = lambda a: 100.0 * (a - 0.05) ** 2
    dphi = lambda a: 200.0 * (a - 0.05)
    res = line_search("wolfe", phi, dphi, f0=phi(0.0), slope0=dphi(0.0))
    assert res.converged
    assert abs(dphi(res.alpha)) <= 0.9 * abs(dphi(0.0))


# phi, dphi, f0, slope0, options; then the alphas phi and dphi see, in order,
# and the result's alpha, f_new and converged
_WOLFE_PATHS = {
    # alpha = 1 meets both conditions
    "first_trial": (lambda a: (a - 1.0) ** 2, lambda a: 2.0 * (a - 1.0), 1.0, -2.0, {},
                    [1.0], [1.0], 1.0, 0.0, True),
    # the slope stays steep and negative: alpha doubles to the minimizer at 4
    "expansion": (lambda a: (a - 4.0) ** 2, lambda a: 2.0 * (a - 4.0), 16.0, -8.0, {"c2": 0.1},
                  [1.0, 2.0, 4.0], [1.0, 2.0, 4.0], 4.0, 0.0, True),
    # alpha = 1 fails Armijo; the zoom bisects [0, 1] down to 0.0625, whose
    # slope is too steep and positive, so the bracket flips to [0.0625, 0]
    "zoom": (lambda a: 100.0 * (a - 0.05) ** 2, lambda a: 200.0 * (a - 0.05), 0.25, -10.0,
             {"c2": 0.1}, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.046875],
             [0.0625, 0.046875], 0.046875, 100.0 * (0.046875 - 0.05) ** 2, True),
    # two expansions spend the budget: the last accepted alpha comes back
    "exhausted_expansion": (lambda a: (a - 4.0) ** 2, lambda a: 2.0 * (a - 4.0), 16.0, -8.0,
                            {"c2": 0.1, "max_iters": 2}, [1.0, 2.0], [1.0, 2.0], 2.0, 4.0, False),
    # the zoom gets the budget left at its trial (3) and every bisection
    # fails Armijo: alpha = 0, the bracket's low end, comes back with f0
    "exhausted_zoom": (lambda a: 100.0 * (a - 0.05) ** 2, lambda a: 200.0 * (a - 0.05), 0.25, -10.0,
                       {"max_iters": 3}, [1.0, 0.5, 0.25, 0.125], [], 0.0, 0.25, False),
}


@pytest.mark.parametrize("path", list(_WOLFE_PATHS))
def test_wolfe_trial_sequence_is_pinned(path):
    phi, dphi, f0, slope0, options, f_alphas, g_alphas, alpha, f_new, converged = _WOLFE_PATHS[path]
    seen_f, seen_g = [], []

    def logged_phi(a):
        seen_f.append(a)
        return phi(a)

    def logged_dphi(a):
        seen_g.append(a)
        return dphi(a)

    res = line_search("wolfe", logged_phi, logged_dphi, f0=f0, slope0=slope0, **options)
    assert seen_f == f_alphas and seen_g == g_alphas
    assert (res.n_f_evals, res.n_g_evals) == (len(f_alphas), len(g_alphas))
    assert (res.alpha, res.f_new, res.converged) == (alpha, f_new, converged)


# ---------------------------------------------------------------------------
# merit functions
# ---------------------------------------------------------------------------

def test_merit_feasible_returns_objective():
    c = np.array([0.5])
    bounds = Bounds(np.array([0.0]), np.array([1.0]))
    for kind in ("l1", "linf", "quadratic_penalty"):
        assert merit_value(kind, 10.0, 3.25, c, bounds) == 3.25


def test_merit_l1_and_quadratic_values():
    # equality c=0 with bound 1, rho=10: violation 1
    c = np.array([0.0])
    bounds = Bounds(np.array([1.0]), np.array([1.0]))
    assert merit_value("l1", 10.0, 1.0, c, bounds) == 11.0
    assert merit_value("quadratic_penalty", 10.0, 1.0, c, bounds) == 6.0


def test_merit_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown merit kind 'l2'"):
        merit_value("l2", 10.0, 1.0, np.array([0.0]), Bounds(np.array([1.0]), np.array([1.0])))


# ---------------------------------------------------------------------------
# QP solver
# ---------------------------------------------------------------------------

def _qp(H, g, A_eq=None, b_eq=None, A_in=None, b_in=None, **kwargs):
    # A_eq p = b_eq and A_in p >= b_in as two-sided rows: the equalities
    # first with lo = hi = b_eq, then the inequalities with hi = +inf; the
    # signed lam is split back by those row counts into (lam_eq, lam_in)
    n = np.size(g)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    A_in = np.zeros((0, n)) if A_in is None else np.asarray(A_in, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    b_in = np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float).ravel()
    p, lam, _ = qp_solve(H, g, np.vstack([A_eq, A_in]), np.concatenate([b_eq, b_in]),
                         np.concatenate([b_eq, np.full(b_in.size, np.inf)]), **kwargs)
    return p, lam[:b_eq.size], lam[b_eq.size:]


def test_qp_unconstrained_newton_step():
    p, lam, mu = qp_solve(np.eye(2), np.array([-1.0, 0.0]))
    assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert lam.size == 0 and np.array_equal(mu, [0.0, 0.0])


def test_qp_single_equality():
    p, lam_eq, _ = _qp(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert_allclose(p, [0.5, 0.5], atol=1e-12)
    # stationarity H p + g = A_eq' lam gives lam = 1/2
    assert_allclose(lam_eq, [0.5], atol=1e-12)


def test_qp_active_inequality_multiplier():
    p, _, lam_in = _qp(np.eye(2), np.array([-2.0, 0.0]),
                            A_in=[[-1.0, 0.0]], b_in=[0.0])
    assert_allclose(p, [0.0, 0.0], atol=1e-12)
    assert_allclose(lam_in, [2.0], atol=1e-9)


def test_qp_inactive_inequality_ignored():
    p, _, lam_in = _qp(np.eye(2), np.array([-1.0, 0.0]),
                            A_in=[[1.0, 0.0]], b_in=[-5.0])
    assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert_allclose(lam_in, [0.0])


def test_qp_not_positive_definite_raises():
    with pytest.raises(QpError):
        qp_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]))


def test_qp_inconsistent_equalities_raise():
    with pytest.raises(QpError):
        _qp(np.eye(2), np.zeros(2),
                 A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[0.0, 1.0])


def test_qp_matches_grid_enumeration():
    # compare against brute-force minimization over a box grid, n <= 3
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for _ in range(20):
            M = rng.normal(size=(n, n))
            H = M @ M.T + n * np.eye(n)
            g = rng.normal(size=n)
            lo = -np.ones(n)
            hi = np.ones(n)
            A_in = np.vstack([np.eye(n), -np.eye(n)])
            b_in = np.concatenate([lo, -hi])
            p, _, _ = _qp(H, g, A_in=A_in, b_in=b_in)

            axes = [np.linspace(lo[i], hi[i], 41) for i in range(n)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
            vals = 0.5 * np.einsum("ij,jk,ik->i", grid, H, grid) + grid @ g
            best = grid[np.argmin(vals)]
            obj = lambda z: 0.5 * z @ H @ z + g @ z
            spacing = (hi[0] - lo[0]) / 40.0
            assert obj(p) <= obj(best) + 1e-9
            assert np.max(np.abs(p - best)) <= spacing + 1e-9


def test_qp_kkt_conditions_random_fuzz():
    # every solved random QP satisfies stationarity, feasibility,
    # complementarity, and dual feasibility; inequality-only problems are
    # feasible by construction and must never error
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(1, 9))
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.5 * np.eye(n)
        g = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        q = int(rng.integers(0, 2 * n + 1))
        A_in = rng.normal(size=(q, n)) if q else None
        z = rng.normal(size=n)
        b_in = (A_in @ z - rng.uniform(0.0, 2.0, q)) if q else None
        p, _, li = _qp(H, g, A_in=A_in, b_in=b_in)
        r = H @ p + g - (A_in.T @ li if q else 0.0)
        worst = max(worst, float(np.max(np.abs(r))))
        if q:
            slack = A_in @ p - b_in
            assert np.min(slack) >= -1e-7
            assert np.min(li) >= 0.0
            worst = max(worst, float(np.max(np.abs(li * slack))))
    assert worst <= 1e-6


def test_qp_mixed_rows_kkt_conditions_random_fuzz():
    # equality rows, general inequality rows and identity bound rows in one
    # QP, feasible by construction around a random point z
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(2, 9))
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.5 * np.eye(n)
        g = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        z = rng.normal(size=n)
        k = int(rng.integers(1, n))
        A_eq = rng.normal(size=(k, n))
        b_eq = A_eq @ z
        q = int(rng.integers(1, n + 1))
        A_gen = rng.normal(size=(q, n))
        A_in = np.vstack([A_gen, np.eye(n), -np.eye(n)])
        b_in = np.concatenate([A_gen @ z - rng.uniform(0.0, 2.0, q),
                               z - rng.uniform(0.0, 1.0, n),
                               -z - rng.uniform(0.0, 1.0, n)])
        p, le, li = _qp(H, g, A_eq, b_eq, A_in, b_in)
        r = H @ p + g - A_eq.T @ le - A_in.T @ li
        slack = A_in @ p - b_in
        worst = max(worst, float(np.max(np.abs(r))),
                    float(np.max(np.abs(A_eq @ p - b_eq))),
                    float(np.max(np.abs(li * slack))))
        assert np.min(slack) >= -1e-7
        assert np.min(li) >= 0.0
    assert worst <= 1e-6


def _fuzz_qp(rng):
    # equality rows consistent at z (sometimes one duplicated with its b),
    # inequality rows feasible at z (sometimes one duplicated, sometimes half
    # scaled by 1e3), and in one QP of ten a contradictory pair a p >= 1,
    # a p <= -0.5; the last item says whether the pair is there
    n = int(rng.integers(1, 9))
    M = rng.normal(size=(n, n))
    H = M @ M.T + 0.5 * np.eye(n)
    g = rng.normal(size=n) * rng.uniform(0.1, 10.0)
    z = rng.normal(size=n)
    A_eq = rng.normal(size=(int(rng.integers(0, n)), n))
    b_eq = A_eq @ z
    if b_eq.size and rng.random() < 0.3:
        A_eq, b_eq = np.vstack([A_eq, A_eq[:1]]), np.append(b_eq, b_eq[0])
    A_in = rng.normal(size=(int(rng.integers(1, 2 * n + 1)), n))
    b_in = A_in @ z - rng.uniform(0.0, 2.0, A_in.shape[0])
    if rng.random() < 0.3:
        A_in, b_in = np.vstack([A_in, A_in[:1]]), np.append(b_in, b_in[0])
    if rng.random() < 0.3:
        scaled = rng.random(b_in.size) < 0.5
        A_in[scaled] *= 1e3
        b_in[scaled] *= 1e3
    contradictory = rng.random() < 0.1
    if contradictory:
        a = rng.normal(size=n)
        A_in, b_in = np.vstack([A_in, a, -a]), np.append(b_in, [1.0, 0.5])
    return H, g, A_eq, b_eq, A_in, b_in, contradictory


def test_qp_inverse_form_agrees_with_dense():
    # given inv(H) or given H (Cholesky-inverted), the QP solves the same
    # QPs with the same steps to rounding, and it raises "infeasible" on
    # exactly the QPs that carry the contradictory pair
    rng = np.random.default_rng(5)
    solved = infeasible = 0
    for _ in range(400):
        H, g, A_eq, b_eq, A_in, b_in, contradictory = _fuzz_qp(rng)
        outcome = []
        for M, inverse in ((H, False), (np.linalg.inv(H), True)):
            try:
                outcome.append(_qp(M, g, A_eq, b_eq, A_in, b_in, inverse=inverse))
            except QpError as exc:
                outcome.append(str(exc))
        dense, inv = outcome
        assert isinstance(dense, str) == contradictory, dense
        if contradictory:
            assert "infeasible" in dense and isinstance(inv, str) and "infeasible" in inv, inv
            infeasible += 1
            continue
        assert not isinstance(inv, str), inv
        solved += 1
        p, le, li = inv
        assert np.max(np.abs(p - dense[0])) <= 1e-9 * (1.0 + np.max(np.abs(dense[0])))
        slack = A_in @ p - b_in
        assert np.max(np.abs(H @ p + g - A_eq.T @ le - A_in.T @ li)) <= 1e-6 * (1.0 + np.max(np.abs(g)))
        assert np.max(np.abs(A_eq @ p - b_eq), initial=0.0) <= 1e-6
        assert np.min(slack) >= -1e-6 * (1.0 + np.max(np.abs(b_in)))
        assert np.min(li) >= 0.0 and np.max(np.abs(li * slack)) <= 1e-6 * (1.0 + np.max(np.abs(g)))
    assert solved >= 300 and infeasible >= 20


def test_qp_reads_hessian_approx_without_folding():
    # an inverse-mode HessianApprox with BFGS updates still pending poses the
    # QP of its folded matrix: the same p and multipliers to rounding, or the
    # same QpError, and the call leaves the pending columns as they were
    rng = np.random.default_rng(17)
    solved = failed = 0
    for _ in range(300):
        H, g, A_eq, b_eq, A_in, b_in, _ = _fuzz_qp(rng)
        n = g.size
        N = rng.normal(size=(n, n))
        A = N @ N.T + 0.5 * np.eye(n)  # secant pairs w = A d have w'd > 0
        approx = HessianApprox(n=n, inverse=True, H=np.linalg.inv(H))
        for d in rng.normal(size=(int(rng.integers(1, 16)), n)):
            assert not approx.update(d, A @ d)
        pending = approx._k
        assert pending > 0
        got = _outcome(_qp, approx, g, A_eq, b_eq, A_in, b_in, inverse=True)
        assert approx._k == pending
        want = _outcome(_qp, approx.H.copy(), g, A_eq, b_eq, A_in, b_in, inverse=True)
        if isinstance(want, str):
            assert got == want
            failed += 1
            continue
        assert not isinstance(got, str), got
        for x, y in zip(got, want):
            assert np.max(np.abs(x - y), initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(y), initial=0.0))
        solved += 1
    assert solved >= 200 and failed >= 10


def test_qp_working_set_storage_is_sized_by_its_rows():
    # one equality row on n = 1500: the working-set arrays hold at most
    # min(n, n_eq + q) rows, so no n x n array (18 MB here) is allocated
    n = 1500
    H_inv, g, A = np.eye(n), np.ones(n), np.ones((1, n))
    tracemalloc.start()
    try:
        p, lam, mu = qp_solve(H_inv, g, A, [1.0], [1.0], inverse=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert abs(float(A[0] @ p) - 1.0) <= 1e-12
    assert_allclose(p + g, lam[0] * A[0], atol=1e-12)
    assert not mu.any()


def test_qp_inverse_array_is_taken_as_given():
    # H^-1 is not symmetrized: p = -H^-1 g even for a nonsymmetric array
    H_inv = np.array([[1.0, 1.0], [0.0, 1.0]])
    p, _, _ = qp_solve(H_inv, [1.0, 2.0], inverse=True)
    assert np.array_equal(p, [-3.0, -2.0])
    with pytest.raises(ValueError, match="only in inverse mode"):
        qp_solve(HessianApprox(n=2), [1.0, 2.0], inverse=True)
    with pytest.raises(ValueError, match="only in inverse mode"):
        qp_solve(HessianApprox(n=2, inverse=True), [1.0, 2.0])


@pytest.mark.parametrize("eps", [1e-6, 1e-7])
@pytest.mark.parametrize("inverse", [False, True])
def test_qp_nearly_dependent_rows_fail_the_residual_guard(eps, inverse):
    # the rows are independent, but the multipliers reach 1/eps^2: the second
    # row looks dependent to rounding (a'z below 1e-12 a'H^-1 a) or the
    # computed p misses A p = b by far more than 1e-7; both forms refuse it
    with pytest.raises(QpError, match="numerically singular or inconsistent"):
        _qp(np.eye(2), np.zeros(2), A_eq=[[1.0, eps], [1.0, 0.0]], b_eq=[0.0, 1.0],
                 inverse=inverse)


@pytest.mark.parametrize("inverse", [False, True])
def test_qp_feasible_unconstrained_minimizer_takes_no_cycles(inverse):
    # the unconstrained minimizer (1, 0) satisfies p0 >= -5: no step at all
    p, _, lam_in = _qp(np.eye(2), [-1.0, 0.0], A_in=[[1.0, 0.0]], b_in=[-5.0],
                            max_cycles=0, inverse=inverse)
    assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert_allclose(lam_in, [0.0])


@pytest.mark.parametrize("inverse", [False, True])
def test_qp_one_blocking_row_takes_one_cycle(inverse):
    # p0 <= 1 cuts the unconstrained minimizer (2, 0): one step adds it
    args = (np.eye(2), [-2.0, 0.0])
    rows = dict(A_in=[[-1.0, 0.0]], b_in=[-1.0], inverse=inverse)
    p, _, lam_in = _qp(*args, max_cycles=1, **rows)
    assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert_allclose(lam_in, [1.0], atol=1e-12)
    with pytest.raises(QpError, match="cycle limit"):
        _qp(*args, max_cycles=0, **rows)


@pytest.mark.parametrize("inverse", [False, True])
def test_qp_duplicated_equality_row(inverse):
    # a duplicated equality row is dependent: an exact duplicate is skipped
    # with a zero multiplier, and one whose b is one ulp off (as A @ z from a
    # BLAS product can give for two equal rows) gives the same step
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.5 * np.eye(n)
        H_arg = np.linalg.inv(H) if inverse else H
        g = rng.normal(size=n)
        z = rng.normal(size=n)
        A_eq = rng.normal(size=(int(rng.integers(1, n)), n))
        b_eq = A_eq @ z
        A_in = rng.normal(size=(n, n))
        b_in = A_in @ z - rng.uniform(0.0, 2.0, n)
        p, le, li = _qp(H_arg, g, A_eq, b_eq, A_in, b_in, inverse=inverse)
        A_dup = np.vstack([A_eq, A_eq[:1]])
        p_exact, le_exact, _ = _qp(H_arg, g, A_dup, np.append(b_eq, b_eq[0]), A_in, b_in,
                                        inverse=inverse)
        assert np.array_equal(p_exact, p) and np.array_equal(le_exact, np.append(le, 0.0))
        b_ulp = np.append(b_eq, np.nextafter(b_eq[0], np.inf))
        p_ulp, le_ulp, li_ulp = _qp(H_arg, g, A_dup, b_ulp, A_in, b_in, inverse=inverse)
        assert np.max(np.abs(p_ulp - p)) <= 1e-9 * (1.0 + np.max(np.abs(p)))
        resid = H @ p_ulp + g - A_dup.T @ le_ulp - A_in.T @ li_ulp
        assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(g)))


def test_qp_vertex_swap_under_bad_scaling():
    # anisotropic rows force the working set to trade a bound for a constraint
    H = np.eye(2)
    g = np.array([500.0, 500.0])
    A_eq = np.array([[0.1, 10.0]])
    b_eq = np.array([-504.0])
    A_in = np.array([[0.1, -10.0], [1.0, 0.0]])
    b_in = np.array([-494.0, -5000.0])
    p, lam_eq, lam_in = _qp(H, g, A_eq, b_eq, A_in, b_in)
    resid = H @ p + g - A_eq.T @ lam_eq - A_in.T @ lam_in
    assert np.max(np.abs(resid)) <= 1e-7
    assert np.all(A_in @ p - b_in >= -1e-7)
    assert np.all(lam_in >= 0.0)


def _bounded_qp(rng):
    # a QP feasible at z with equality and general inequality rows and bounds
    # on p around z: one- and two-sided, infinite on some entries, and in one
    # QP of eight a crossed pair lower > upper that no p satisfies
    n = int(rng.integers(1, 9))
    M = rng.normal(size=(n, n))
    H = M @ M.T + 0.5 * np.eye(n)
    g = rng.normal(size=n) * rng.uniform(0.1, 10.0)
    z = rng.normal(size=n)
    A_eq = rng.normal(size=(int(rng.integers(0, n)), n))
    A_in = rng.normal(size=(int(rng.integers(0, n + 1)), n))
    b_in = A_in @ z - rng.uniform(0.0, 2.0, A_in.shape[0])
    lower = z - rng.uniform(0.0, 1.0, n)
    upper = z + rng.uniform(0.0, 1.0, n)
    lower[rng.random(n) < 0.3] = -np.inf
    upper[rng.random(n) < 0.3] = np.inf
    if rng.random() < 0.125:
        k = int(rng.integers(n))
        lower[k], upper[k] = 1.0, 0.5
    return H, g, A_eq, A_eq @ z, A_in, b_in, lower, upper


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except QpError as exc:
        return str(exc)


@pytest.mark.parametrize("inverse", [False, True])
def test_qp_bounds_as_index_rows_equal_explicit_rows(inverse):
    # lower/upper give bit for bit the result of explicit two-sided identity
    # rows with lo = lower and hi = upper: the same p, the same lam on the
    # rows of A, mu equal to the identity rows' lam, or the same QpError
    # message with identity row m + i named as the bound on p[i]; the
    # caller's matrix is never written
    rng = np.random.default_rng(13 + inverse)
    solved = failed = 0
    for _ in range(300):
        H, g, A_eq, b_eq, A_in, b_in, lower, upper = _bounded_qp(rng)
        if rng.random() < 0.15:
            lower = None
        if rng.random() < 0.15:
            upper = None
        H_arg = np.linalg.inv(H) if inverse else H
        n, m = g.size, b_eq.size + b_in.size
        A = np.vstack([A_eq, A_in])
        lo = np.concatenate([b_eq, b_in])
        hi = np.concatenate([b_eq, np.full(b_in.size, np.inf)])
        H_before = H_arg.copy()
        got = _outcome(qp_solve, H_arg, g, A, lo, hi, inverse=inverse, lower=lower, upper=upper)
        assert np.array_equal(H_arg, H_before)
        want = _outcome(qp_solve, H_arg, g, np.vstack([A, np.eye(n)]),
                        np.concatenate([lo, np.full(n, -np.inf) if lower is None else lower]),
                        np.concatenate([hi, np.full(n, np.inf) if upper is None else upper]),
                        inverse=inverse)
        if isinstance(want, str):
            def as_bound(row):
                i = int(row[1]) - m
                return row[0] if i < 0 else f"bound on p[{i}]"
            assert got == re.sub(r"row (\d+) of A", as_bound, want)
            failed += 1
            continue
        assert not isinstance(got, str), got
        p, lam, mu = got
        assert np.array_equal(p, want[0])
        assert np.array_equal(lam, want[1][:m]) and np.array_equal(mu, want[1][m:])
        solved += 1
    assert solved >= 200 and failed >= 10


def test_qp_absent_bound_sides():
    # None and an all-infinite side both mean no rows on that side
    H, g = np.eye(2), np.array([-2.0, 2.0])
    p, lam, mu = qp_solve(H, g, lower=None, upper=[1.0, np.inf])
    assert_allclose(p, [1.0, -2.0], atol=1e-12)
    assert lam.size == 0
    # the upper side of p[0] is active: its multiplier enters mu negated
    assert_allclose(mu, [-1.0, 0.0], atol=1e-12)
    p_inf, _, mu_inf = qp_solve(H, g, lower=[-np.inf, -np.inf], upper=[1.0, np.inf])
    assert np.array_equal(p_inf, p) and np.array_equal(mu_inf, mu)
    # the lower side of p[1] is active too, and enters mu as it is
    p, _, mu = qp_solve(H, g, lower=[-np.inf, -1.0], upper=[1.0, np.inf])
    assert_allclose(p, [1.0, -1.0], atol=1e-12)
    assert_allclose(mu, [-1.0, 1.0], atol=1e-12)


def test_qp_nan_bound_raises():
    with pytest.raises(ValueError, match="NaN"):
        qp_solve(np.eye(2), np.zeros(2), lower=[0.0, np.nan])
    with pytest.raises(ValueError, match="NaN"):
        qp_solve(np.eye(2), np.zeros(2), upper=[np.nan, np.inf])


def test_qp_neg_inf_inequality_never_binds():
    # the -inf row is left out of the slack tolerance, which would otherwise
    # be infinite and switch off the finite row as well
    p, _, lam_in = _qp(np.eye(2), np.zeros(2), A_in=np.eye(2), b_in=[1.0, -np.inf])
    assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert_allclose(lam_in, [1.0, 0.0], atol=1e-12)


def test_qp_pos_inf_inequality_cannot_be_reached():
    # the message names the caller's row or bound and its side
    with pytest.raises(QpError, match=r"row 1 of A, lower side cannot be reached"):
        _qp(np.eye(2), np.zeros(2), A_in=np.eye(2), b_in=[1.0, np.inf])
    with pytest.raises(QpError, match=r"bound on p\[1\], upper side cannot be reached"):
        qp_solve(np.eye(2), np.zeros(2), upper=[1.0, -np.inf])


def test_qp_nan_inequality_raises():
    with pytest.raises(ValueError, match="NaN"):
        _qp(np.eye(2), np.zeros(2), A_in=np.eye(2), b_in=[1.0, np.nan])
