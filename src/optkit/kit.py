"""Reusable solver building blocks: quasi-Newton updates, line searches,
merit functions, and an active-set QP subsolver (dense KKT or range-space)."""

import numpy as np
from dataclasses import dataclass

from .problem import violation

HESSIAN_VARIANTS = ("broyden", "sr1", "bfgs", "dfp")
MERIT_KINDS = ("l1", "l2sq", "linf", "quadratic_penalty", "lagrangian", "augmented_lagrangian")


class QpError(RuntimeError):
    """QP subproblem failure (singular KKT system, infeasible constraints, cycling)."""


# ---------------------------------------------------------------------------
# Hessian approximations
# ---------------------------------------------------------------------------

def _bfgs(B, d, w):
    # B - Bd Bd'/d'Bd + w w'/w'd as one n x 2 by 2 x n product, O(n^2)
    Bd = B @ d
    dBd = d @ Bd
    if dBd <= 0.0:
        return None
    return B + np.column_stack((w, Bd)) @ np.vstack((w / (w @ d), -Bd / dBd))


def _dfp(B, d, w):
    # (I - w d'/wd) B (I - d w'/wd) + w w'/wd for symmetric B, expanded into
    # the rank-2 form B + w u' + u w': an n x 2 by 2 x n product, O(n^2)
    wd = w @ d
    Bd = B @ d
    u = (0.5 * (1.0 + (d @ Bd) / wd) / wd) * w - Bd / wd
    return B + np.column_stack((w, u)) @ np.vstack((u, w))


def _sr1(B, d, w):
    v = w - B @ d
    denom = v @ d
    # standard SR1 safeguard: |v'd| must not be negligible vs |v||d|
    if abs(denom) <= 1e-8 * np.linalg.norm(d) * np.linalg.norm(v):
        return None
    return B + np.outer(v, v) / denom


def _broyden(B, d, w):
    return B + np.outer(w - B @ d, d) / (d @ d)


def _broyden_inverse(H, d, w):
    # Sherman-Morrison inverse of the direct Broyden update
    Hw = H @ w
    dHw = d @ Hw
    if abs(dHw) <= 1e-8 * np.linalg.norm(d) * np.linalg.norm(Hw):
        return None
    return H + np.outer(d - Hw, d @ H) / dHw


_FORMULAS = {"broyden": _broyden, "sr1": _sr1, "bfgs": _bfgs, "dfp": _dfp}
# the inverse form of each rule is its dual formula applied to (w, d)
_DUALS = {"sr1": _sr1, "bfgs": _dfp, "dfp": _bfgs}


@dataclass
class HessianApprox:
    """Quasi-Newton approximation with a rank-1/rank-2 update rule.

    In direct mode (``inverse=False``) the matrix ``B`` approximates the
    Hessian and ``update(d, w)`` applies the variant's formula for step d and
    gradient change w, maintaining the secant condition B_new @ d = w.  With
    ``inverse=True`` the matrix ``H`` approximates the inverse Hessian and the
    update maintains H_new @ w = d, so a direction is a matrix-vector product
    instead of a linear solve.  The inverse updates use duality: inverse BFGS
    is the DFP formula with (d, w) swapped, inverse DFP is the BFGS formula
    swapped, SR1 is self-dual, and Broyden uses the Sherman-Morrison form.
    Every update costs O(n^2).  In exact arithmetic H_new = inv(B_new).
    The SR1, BFGS and DFP updates add symmetric terms, so a symmetric matrix
    stays symmetric up to rounding.

    Non-finite pairs, degenerate denominators and curvature violations skip
    the update (matrix unchanged).
    """

    n: int
    variant: str = "bfgs"
    skip_tol: float = 1e-10
    B: np.ndarray = None
    inverse: bool = False
    H: np.ndarray = None

    def __post_init__(self):
        if self.variant not in HESSIAN_VARIANTS:
            raise ValueError(f"unknown Hessian update variant {self.variant!r}; expected one of {HESSIAN_VARIANTS}")
        given, unused = (self.H, self.B) if self.inverse else (self.B, self.H)
        if unused is not None:
            raise ValueError("HessianApprox takes B when inverse=False and H when inverse=True")
        self._set(np.eye(self.n) if given is None
                  else np.asarray(given, dtype=float).reshape(self.n, self.n).copy())

    def _set(self, M):
        if self.inverse:
            self.H = M
        else:
            self.B = M

    def reset(self):
        self._set(np.eye(self.n))

    def update(self, d, w):
        """Apply one update; returns True if the update was skipped by a guard."""
        d = np.asarray(d, dtype=float).ravel()
        w = np.asarray(w, dtype=float).ravel()
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(w))):
            return True
        nd = np.linalg.norm(d)
        if nd == 0.0:
            return True
        # bfgs / dfp need positive curvature along the step (symmetric in d, w)
        if self.variant in ("bfgs", "dfp") and w @ d <= self.skip_tol * np.linalg.norm(w) * nd:
            return True

        if not self.inverse:
            M = _FORMULAS[self.variant](self.B, d, w)
        elif self.variant == "broyden":
            M = _broyden_inverse(self.H, d, w)
        else:
            M = _DUALS[self.variant](self.H, w, d)
        if M is None:
            return True
        self._set(M)
        return False


# ---------------------------------------------------------------------------
# Line searches
# ---------------------------------------------------------------------------

@dataclass
class LineSearchResult:
    alpha: float
    f_new: float
    n_f_evals: int = 0
    n_g_evals: int = 0
    converged: bool = True
    slope_new: float = None
    g_new: np.ndarray = None   # filled by callers that capture gradients


def line_search(kind, phi, dphi=None, f0=None, slope0=None, *,
                c1=1e-4, c2=0.9, tau=0.5, max_iters=30, alpha0=1.0):
    """Find a step length along a descent direction.

    ``phi(alpha)`` is the objective along the ray and ``dphi(alpha)`` its
    slope (wolfe only).  ``armijo`` backtracks from ``alpha0`` by factor
    ``tau`` until phi(a) <= f0 + c1*a*slope0.  ``wolfe`` brackets and zooms
    to also satisfy the strong curvature condition |dphi(a)| <= c2*|slope0|.

    Raises ValueError for a non-descent direction (slope0 >= 0).  When the
    trial budget runs out the best alpha seen is returned with
    ``converged=False``.
    """
    if not (0.0 < c1 < 1.0 and c1 < c2 < 1.0 and 0.0 < tau < 1.0):
        raise ValueError(f"invalid line-search parameters c1={c1}, c2={c2}, tau={tau}")
    if f0 is None:
        raise ValueError("f0 (objective at alpha=0) is required")
    if slope0 is None or slope0 >= 0.0:
        raise ValueError(f"line search requires a descent direction, got slope0={slope0}")

    if kind == "armijo":
        return _armijo(phi, f0, slope0, c1, tau, max_iters, alpha0)
    if kind == "wolfe":
        if dphi is None:
            raise ValueError("wolfe line search requires dphi")
        return _wolfe(phi, dphi, f0, slope0, c1, c2, max_iters, alpha0)
    raise ValueError(f"unknown line search kind {kind!r}")


def _armijo(phi, f0, slope0, c1, tau, max_iters, alpha0):
    alpha = float(alpha0)
    best = (None, np.inf)
    n_f = 0
    for _ in range(max_iters):
        fa = phi(alpha)
        n_f += 1
        if fa < best[1]:
            best = (alpha, fa)
        if fa <= f0 + c1 * alpha * slope0:
            return LineSearchResult(alpha=alpha, f_new=fa, n_f_evals=n_f, converged=True)
        alpha *= tau
    alpha, fa = best if best[0] is not None else (alpha, np.inf)
    return LineSearchResult(alpha=alpha, f_new=fa, n_f_evals=n_f, converged=False)


def _wolfe(phi, dphi, f0, slope0, c1, c2, max_iters, alpha0):
    # bracket-and-zoom strong Wolfe search (quadratic/bisection zoom)
    n = {"f": 0, "g": 0}

    def eval_phi(a):
        n["f"] += 1
        return phi(a)

    def eval_slope(a):
        n["g"] += 1
        return dphi(a)

    def result(alpha, fa, slope, ok):
        return LineSearchResult(alpha=alpha, f_new=fa, n_f_evals=n["f"],
                                n_g_evals=n["g"], converged=ok, slope_new=slope)

    def zoom(lo, f_lo, hi, f_hi, budget):
        best = (lo, f_lo, None)
        for _ in range(budget):
            a = 0.5 * (lo + hi)
            fa = eval_phi(a)
            if fa > f0 + c1 * a * slope0 or fa >= f_lo:
                hi, f_hi = a, fa
            else:
                sa = eval_slope(a)
                if abs(sa) <= c2 * abs(slope0):
                    return result(a, fa, sa, True)
                if sa * (hi - lo) >= 0.0:
                    hi, f_hi = lo, f_lo
                lo, f_lo = a, fa
                best = (a, fa, sa)
            if abs(hi - lo) < 1e-16:
                break
        a, fa, sa = best
        return result(a, fa, sa, False)

    alpha_prev, f_prev = 0.0, f0
    alpha = float(alpha0)
    for i in range(max_iters):
        fa = eval_phi(alpha)
        if fa > f0 + c1 * alpha * slope0 or (i > 0 and fa >= f_prev):
            return zoom(alpha_prev, f_prev, alpha, fa, max_iters - i)
        sa = eval_slope(alpha)
        if abs(sa) <= c2 * abs(slope0):
            return result(alpha, fa, sa, True)
        if sa >= 0.0:
            return zoom(alpha, fa, alpha_prev, f_prev, max_iters - i)
        alpha_prev, f_prev = alpha, fa
        alpha = min(2.0 * alpha, 1e6)
    return result(alpha_prev, f_prev, None, False)


# ---------------------------------------------------------------------------
# Merit functions
# ---------------------------------------------------------------------------

@dataclass
class MeritSpec:
    """Merit function selector: penalty kind, parameter rho, multipliers."""

    kind: str = "l1"
    rho: float = 0.0
    lam: np.ndarray = None

    def __post_init__(self):
        if self.kind not in MERIT_KINDS:
            raise ValueError(f"unknown merit kind {self.kind!r}; expected one of {MERIT_KINDS}")
        if not np.isfinite(self.rho) or self.rho < 0.0:
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho}")


def merit_value(spec, f, c, con_lower, con_upper):
    """Evaluate the merit function for objective f and constraint values c.

    Violations are measured against the two-sided bounds; the Lagrangian kinds
    use c - clip(c, lower, upper), i.e. the residual to the nearest bound of
    each violated or active constraint.
    """
    c = np.asarray(c, dtype=float)
    f = float(f)
    v = violation(c, con_lower, con_upper)
    if spec.kind == "l1":
        return f + spec.rho * float(np.sum(v))
    if spec.kind == "linf":
        return f + spec.rho * (float(np.max(v)) if v.size else 0.0)
    if spec.kind in ("l2sq", "quadratic_penalty"):
        return f + 0.5 * spec.rho * float(v @ v)
    # lagrangian / augmented_lagrangian
    lam = np.zeros_like(c) if spec.lam is None else np.asarray(spec.lam, dtype=float)
    residual = c - np.clip(c, con_lower, con_upper)
    value = f - float(lam @ residual)
    if spec.kind == "augmented_lagrangian":
        value += 0.5 * spec.rho * float(v @ v)
    return value


# ---------------------------------------------------------------------------
# Quadratic programming
# ---------------------------------------------------------------------------

def _solve_eqp(H, g, A, b):
    """Equality-constrained QP via the dense KKT system.

    Returns (p, lam) with the stationarity convention H p + g = A' lam.
    """
    n = g.size
    p_rows = A.shape[0]
    if p_rows == 0:
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise QpError("QP Hessian is not positive definite; regularize the Hessian") from None
        y = np.linalg.solve(L, -g)
        return np.linalg.solve(L.T, y), np.zeros(0)
    K = np.zeros((n + p_rows, n + p_rows))
    K[:n, :n] = H
    K[:n, n:] = -A.T
    K[n:, :n] = A
    rhs = np.concatenate([-g, b])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        raise QpError("singular KKT system (dependent constraints or indefinite Hessian); "
                      "regularize the Hessian") from None
    p, lam = sol[:n], sol[n:]
    # guard against a numerically singular but factorizable system
    scale = 1.0 + float(np.max(np.abs(rhs)))
    if not np.all(np.isfinite(sol)) or np.max(np.abs(K @ sol - rhs)) > 1e-7 * scale:
        raise QpError("KKT system is numerically singular or inconsistent; regularize the Hessian")
    return p, lam


def _range_space_eqp(H_inv, H_inv_g, A, b):
    """Equality-constrained QP from the inverse Hessian (range-space form).

    Minimizes 0.5 x'Hx + g'x subject to A x = b through the p x p Schur
    complement M = A H^-1 A' (Nocedal & Wright 16.2): M lam = b + A H^-1 g,
    x = H^-1 (A' lam - g).  Costs O(n^2 p); H^-1 is taken as given.
    Returns (x, lam) with the stationarity convention H x + g = A' lam.
    """
    if A.shape[0] == 0:
        return -H_inv_g, np.zeros(0)
    H_inv_At = H_inv @ A.T
    rhs = b + A @ H_inv_g
    try:
        lam = np.linalg.solve(A @ H_inv_At, rhs)
    except np.linalg.LinAlgError:
        raise QpError("singular KKT system (dependent constraints or indefinite Hessian); "
                      "regularize the Hessian") from None
    x = H_inv_At @ lam - H_inv_g
    # the same guard as the dense KKT solve: the working rows must hold
    scale = 1.0 + float(np.max(np.abs(rhs)))
    if (not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam)))
            or np.max(np.abs(A @ x - b)) > 1e-7 * scale):
        raise QpError("KKT system is numerically singular or inconsistent; regularize the Hessian")
    return x, lam


def _active_set_loop(eqp_step, A_eq, b_eq, A_in, b_in, p, max_cycles):
    """Feasible-point primal active set from a feasible start p.

    ``eqp_step(p, A_w, b_w)`` returns the step d from p to the minimizer on
    the working rows A_w x = b_w, with its multipliers.  Steps clip at the
    first blocking inequality, negative-multiplier rows leave.  The step is
    computed once per working set: after a full step on an unchanged working
    set the next subproblem has d = 0 and the same multipliers, so the
    multiplier test runs on the ones in hand.
    Returns (p, lam_eq, lam_in).
    """
    q = A_in.shape[0]
    n_eq = A_eq.shape[0]
    lam_tol = 1e-9
    # a row blocks the step only if it decreases by more than rounding along d
    block_tol = -1e-13 * (1.0 + np.max(np.abs(A_in), axis=1))
    working = np.zeros(q, dtype=bool)
    for _ in range(max_cycles):
        rows = np.flatnonzero(working)
        d, lam = eqp_step(p, np.vstack([A_eq, A_in[rows]]), np.concatenate([b_eq, b_in[rows]]))
        if float(np.max(np.abs(d))) > 1e-11 * (1.0 + float(np.max(np.abs(p)))):
            # clip the step at the first blocking inequality: the first row
            # with the smallest ratio, if that ratio is below 1
            Ad = A_in @ d
            hit = ~working & (Ad < block_tol)
            ratio = np.full(q, np.inf)
            ratio[hit] = np.maximum((b_in[hit] - A_in[hit] @ p) / Ad[hit], 0.0)
            blocker = int(np.argmin(ratio))
            if ratio[blocker] < 1.0:
                p = p + ratio[blocker] * d
                working[blocker] = True
                continue
            p = p + d
        lam_w = lam[n_eq:]
        if lam_w.size == 0 or float(np.min(lam_w)) >= -lam_tol * (1.0 + float(np.max(np.abs(lam_w)))):
            lam_in = np.zeros(q)
            lam_in[rows] = np.maximum(lam_w, 0.0)
            return p, lam[:n_eq], lam_in
        working[rows[np.argmin(lam_w)]] = False
    raise QpError(f"active-set cycle limit exceeded ({max_cycles} iterations)")


def _dense_step(H, g):
    """Working-set step from the dense KKT system of H at the gradient H p + g."""
    def step(p, A_w, b_w):
        return _solve_eqp(H, H @ p + g, A_w, np.zeros(b_w.size))
    return step


def _phase1_point(A_eq, b_eq, A_in, b_in, n):
    """Feasible starting point for the inequality-constrained QP.

    The equality least-squares point is tried first; if it violates the
    inequalities, an elastic problem with one slack t >= max violation is
    solved with the same active-set loop (it has a trivially feasible start),
    driving t to zero exactly for feasible systems.
    """
    if A_eq.shape[0]:
        p, *_ = np.linalg.lstsq(A_eq, b_eq, rcond=None)
        resid = float(np.max(np.abs(A_eq @ p - b_eq)))
        if resid > 1e-7 * (1.0 + float(np.max(np.abs(b_eq)))):
            raise QpError(f"equality constraints inconsistent (residual {resid:.3e})")
    else:
        p = np.zeros(n)

    q = A_in.shape[0]
    if q == 0:
        return p
    scale = 1.0 + float(np.max(np.abs(b_in)))
    tol = 1e-9 * scale
    worst = float(np.min(A_in @ p - b_in))
    if worst >= -tol:
        return p

    # lift: minimize (eps/2)(|p|^2 + t^2) + M t  s.t.  A_in p + t >= b_in,
    # t >= 0, A_eq p = b_eq; start feasible at (p, worst violation + 1)
    eps = 1e-6
    p_lift = np.concatenate([p, [-worst + 1.0]])
    A_eq_l = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
    A_in_l = np.vstack([np.hstack([A_in, np.ones((q, 1))]),
                        np.concatenate([np.zeros(n), [1.0]])[None, :]])
    b_in_l = np.concatenate([b_in, [0.0]])
    H_l = eps * np.eye(n + 1)
    for penalty in (1.0, 1e4, 1e8):
        g_l = np.zeros(n + 1)
        g_l[n] = penalty * scale
        p_lift, _, _ = _active_set_loop(_dense_step(H_l, g_l), A_eq_l, b_eq, A_in_l, b_in_l,
                                        p_lift, 20 * (n + q + 2))
        if p_lift[n] <= tol:
            return p_lift[:n]
    raise QpError("linearized constraints are infeasible "
                  f"(minimum violation {p_lift[n]:.3e})")


def qp_solve(H, g, A_eq=None, b_eq=None, A_in=None, b_in=None, max_cycles=None, *,
             inverse=False):
    """Minimize 0.5 p'Hp + g'p subject to A_eq p = b_eq and A_in p >= b_in.

    Inequalities are handled by a feasible-point primal active-set iteration
    over equality subproblems: blocking rows join the working set as steps
    hit them and negative-multiplier rows leave it.  Each working set is
    solved once: after a full, unblocked step the multipliers of that solve
    are final for the working set and are tested directly.

    With ``inverse=False`` H is the Hessian and must be positive definite;
    each working set is solved through the dense KKT system.  With
    ``inverse=True`` (as in :class:`HessianApprox`) the first argument is
    H^-1, taken as given with no positive-definiteness check, and each
    working set is solved in range-space form through its p x p Schur
    complement, O(n^2 p) with no n x n factorization.  Either way an
    infeasible start is lifted by the same elastic phase-1 problem on the
    dense KKT system.  Returns (p, lam_eq, lam_in): multipliers satisfy the
    stationarity convention H p + g = A_eq' lam_eq + A_in' lam_in with
    lam_in >= 0 and lam_in = 0 on inactive rows.
    """
    g = np.asarray(g, dtype=float).ravel()
    n = g.size
    H = np.asarray(H, dtype=float).reshape(n, n)
    H = 0.5 * (H + H.T)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    A_in = np.zeros((0, n)) if A_in is None else np.asarray(A_in, dtype=float).reshape(-1, n)
    b_in = np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float).ravel()
    if A_eq.shape[0] != b_eq.size or A_in.shape[0] != b_in.size:
        raise ValueError("constraint matrix/vector sizes disagree")

    # drop exactly duplicated equality rows so the KKT system stays regular;
    # multipliers are reported against the original rows (zeros on duplicates)
    n_eq_orig = A_eq.shape[0]
    keep = list(range(n_eq_orig))
    if n_eq_orig > 1:
        rows = {}
        for i in range(n_eq_orig):
            key = (A_eq[i].tobytes(), float(b_eq[i]).hex())
            rows.setdefault(key, i)
        keep = sorted(rows.values())
        if len(keep) < n_eq_orig:
            A_eq, b_eq = A_eq[keep], b_eq[keep]

    def expand_eq(lam_kept):
        if len(keep) == n_eq_orig:
            return lam_kept
        lam_full = np.zeros(n_eq_orig)
        lam_full[keep] = lam_kept
        return lam_full

    if inverse:
        H_inv_g = H @ g

        def step(p, A_w, b_w):
            x, lam = _range_space_eqp(H, H_inv_g, A_w, b_w)
            return x - p, lam
    else:
        step = _dense_step(H, g)

    q = A_in.shape[0]
    if q == 0:
        p, lam_eq = step(np.zeros(n), A_eq, b_eq) if inverse else _solve_eqp(H, g, A_eq, b_eq)
        return p, expand_eq(lam_eq), np.zeros(0)

    p = _phase1_point(A_eq, b_eq, A_in, b_in, n)
    if max_cycles is None:
        max_cycles = 10 * (n + q)
    p, lam_eq, lam_in = _active_set_loop(step, A_eq, b_eq, A_in, b_in, p, max_cycles)
    return p, expand_eq(lam_eq), lam_in
