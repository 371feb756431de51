"""Reusable solver building blocks: quasi-Newton updates, line searches,
merit values, and a Goldfarb-Idnani dual active-set QP subsolver on H^-1.
A solver's option values (a merit's rho, an update variant) reach these
already range-checked by its RunContext declaration."""

import math
from dataclasses import dataclass

import numpy as np

HESSIAN_VARIANTS = ("broyden", "sr1", "bfgs", "dfp")


class QpError(RuntimeError):
    """QP subproblem failure (dependent or inconsistent equalities, infeasible
    constraints, cycling, an indefinite Hessian)."""


# ---------------------------------------------------------------------------
# Hessian approximations
# ---------------------------------------------------------------------------

def _bfgs(Bd, d, w, wd):
    # B + w w'/w'd - Bd Bd'/d'Bd: columns (w, Bd) against (w/w'd, -Bd/d'Bd)
    dBd = d.dot(Bd)
    if dBd <= 0.0:
        return None
    return (w, Bd), (w / wd, -Bd / dBd)


def _dfp(Bd, d, w, wd):
    # (I - w d'/wd) B (I - d w'/wd) + w w'/wd for symmetric B, expanded into
    # the rank-2 form B + w u' + u w'
    u = (0.5 * (1.0 + d.dot(Bd) / wd) / wd) * w - Bd / wd
    return (w, u), (u, w)


def _sr1(Bd, d, w, wd):
    v = w - Bd
    denom = v.dot(d)
    # standard SR1 safeguard: |v'd| must not be negligible vs |v||d|
    if abs(denom) <= 1e-8 * np.linalg.norm(d) * np.linalg.norm(v):
        return None
    return (v,), (v / denom,)


def _broyden(Bd, d, w, wd):
    return (w - Bd,), (d / d.dot(d),)


def _broyden_inverse(Hw, tdot, d, w):
    # Sherman-Morrison inverse of the direct Broyden update: H + (d - Hw) d'H / d'Hw
    dHw = d.dot(Hw)
    if abs(dHw) <= 1e-8 * np.linalg.norm(d) * np.linalg.norm(Hw):
        return None
    return (d - Hw,), (tdot(d) / dHw,)


_FORMULAS = {"broyden": _broyden, "sr1": _sr1, "bfgs": _bfgs, "dfp": _dfp}
# the inverse form of each rule is its dual formula applied to (w, d)
_DUALS = {"sr1": _sr1, "bfgs": _dfp, "dfp": _bfgs}
_CAPACITY = 16  # pending columns held before a fold: eight rank-2 updates
_SKIP_TOL = 1e-10  # bfgs / dfp skip a step with w'd <= _SKIP_TOL |w| |d|


class HessianApprox:
    """Quasi-Newton approximation with a rank-1/rank-2 update rule.

    In direct mode (``inverse=False``) the matrix ``B`` approximates the
    Hessian and ``update(d, w)`` applies the variant's formula for step d and
    gradient change w, maintaining the secant condition B_new @ d = w.  With
    ``inverse=True`` the matrix ``H`` approximates the inverse Hessian and the
    update maintains H_new @ w = d, so a direction is a matrix-vector product
    instead of a linear solve.  A quasi-Newton iteration costs one product
    with H, plus one fold (below) per eight rank-2 or sixteen rank-1
    updates: ``update_dot`` takes the update's H w and the next direction's
    H g from the one product H g at the new iterate, since H w = H g_new -
    H g_old and -H g_old was the last direction.  The inverse updates use
    duality: inverse BFGS is the DFP formula with (d, w) swapped, inverse DFP
    is the BFGS formula swapped, SR1 is self-dual, and Broyden uses the
    Sherman-Morrison form.
    In exact arithmetic H_new = inv(B_new).  The SR1, BFGS and DFP updates
    add symmetric terms, so a symmetric matrix stays symmetric up to rounding.
    The approximation is held as M + L'R, a dense M and up to 16 pending
    columns (Byrd, Nocedal & Schnabel 1994): an update takes its vectors from
    M x + L'(R x) and appends its columns, first folding them into a new M
    with one (n x k)(k x n) product when they do not fit.  ``dot(x)`` needs
    no fold, and ``qp_solve(approx, ..., inverse=True)`` reads H^-1 only
    through it, so ``sqp`` folds once per eight updates, inside ``update``;
    reading ``H`` (inverse mode) or ``B`` folds and returns M, which later
    folds never write; assigning it (copied), ``set_identity(scale)`` or
    ``reset()`` replaces M.

    ``add_outer(a, sigma)`` adds a known term, B <- B + sigma a a': one
    pending column pair, in inverse mode by Sherman-Morrison from one
    product H a.  ``quadratic_penalty`` adds (gamma - 1) rho J_a'J_a this
    way, a row at a time, each time rho grows by gamma.

    Non-finite pairs (or pairs whose squared norms overflow, with no
    warning), degenerate denominators and curvature violations skip the
    update (approximation unchanged).
    """

    B = property(lambda self: None if self.inverse else self._fold(),
                 lambda self, M: self._assign(B=M))
    H = property(lambda self: self._fold() if self.inverse else None,
                 lambda self, M: self._assign(H=M))

    def __init__(self, n, variant="bfgs", B=None, inverse=False, H=None):
        if variant not in HESSIAN_VARIANTS:
            raise ValueError(f"unknown Hessian update variant {variant!r}; expected one of {HESSIAN_VARIANTS}")
        self.n, self.variant, self.inverse = n, variant, inverse
        # row j of _L and _R holds the j-th pending left and right column
        self._L, self._R = np.empty((2, _CAPACITY, n))
        self._Hw = None     # H w handed to update by update_dot
        self._assign(B=B, H=H)

    def _assign(self, B=None, H=None):
        given, unused = (H, B) if self.inverse else (B, H)
        if unused is not None:
            raise ValueError("HessianApprox takes B when inverse=False and H when inverse=True")
        if given is None:
            self.set_identity()
        else:
            self._M, self._k = np.asarray(given, dtype=float).reshape(self.n, self.n).copy(), 0

    def _fold(self):
        if self._k:
            M = self._L[:self._k].T @ self._R[:self._k]
            M += self._M
            self._M, self._k = M, 0
        return self._M

    def dot(self, x):
        """The approximation (H or B) times x, without a fold."""
        k = self._k
        return self._M.dot(x) + self._L[:k].T.dot(self._R[:k].dot(x)) if k else self._M.dot(x)

    def _tdot(self, x):
        # x' times the approximation
        return x @ self._M + (self._L[:self._k] @ x) @ self._R[:self._k]

    def set_identity(self, scale=1.0):
        """Replace the approximation by scale * I and drop the pending columns.
        I is scaled in place, so no product or copy sits beside the old M."""
        M = np.eye(self.n)
        M *= scale
        self._M, self._k = M, 0

    def reset(self):
        self.set_identity()

    def update(self, d, w):
        """Apply one update; returns True if the update was skipped by a guard."""
        d = np.asarray(d, dtype=float).ravel()
        w = np.asarray(w, dtype=float).ravel()
        # a NaN or inf in d or w, or a square that overflows, makes d'd or
        # w'w NaN or inf.  These two take vdot, which unlike .dot and @ warns
        # of no overflow; its root is np.linalg.norm's own 1-D formula
        dd, ww = np.vdot(d, d), np.vdot(w, w)
        if not (0.0 < dd < math.inf and ww < math.inf):
            return True
        wd = w.dot(d)
        # bfgs / dfp need positive curvature along the step (symmetric in d, w)
        if self.variant in ("bfgs", "dfp") and wd <= _SKIP_TOL * math.sqrt(ww) * math.sqrt(dd):
            return True

        if not self.inverse:
            cols = _FORMULAS[self.variant](self.dot(d), d, w, wd)
        else:
            Hw = self.dot(w) if self._Hw is None else self._Hw
            if self.variant == "broyden":
                cols = _broyden_inverse(Hw, self._tdot, d, w)
            else:
                cols = _DUALS[self.variant](Hw, w, d, wd)
        if cols is None:
            return True
        self._append(cols)
        return False

    def _append(self, cols):
        # pending columns (left, right), folded first when they do not fit;
        # a row assignment per column costs less than a slice assignment
        # from a tuple of arrays
        left, right = cols
        if self._k + len(left) > _CAPACITY:
            self._fold()
        L, R, k = self._L, self._R, self._k
        for a, b in zip(left, right):
            L[k], R[k] = a, b
            k += 1
        self._k = k

    def add_outer(self, a, sigma):
        """B <- B + sigma a a' for sigma > 0, a known change of the Hessian.
        Direct mode appends (a, sigma a).  Inverse mode applies the
        Sherman-Morrison form H - (Ha)(Ha)' / (1/sigma + a'Ha): one product
        with H and one pending column pair, no solve or factorization."""
        a = np.asarray(a, dtype=float).ravel()
        if not self.inverse:
            self._append(((a,), (sigma * a,)))
            return
        Ha = self.dot(a)
        self._append(((Ha,), (Ha / -(1.0 / sigma + a @ Ha),)))

    def update_dot(self, d, w, Hw, x, Hx):
        """``update(d, w)`` in inverse mode with H w already known, then the
        updated H times x.  ``Hw`` is H w and ``Hx`` is H x, both before the
        update; the result is Hx plus the columns the update appended, times
        x.  So neither step takes a product with H (broyden still forms d'H),
        where ``update(d, w)`` and ``dot(x)`` take one each.  Returns
        (H x, skipped).
        """
        self._Hw, k0 = Hw, self._k
        try:
            skipped = self.update(d, w)
        finally:
            self._Hw = None
        # a fold before the append leaves only the new columns pending
        k = self._k
        j = k0 if k >= k0 else 0
        if k > j:
            Hx = Hx + self._L[j:k].T.dot(self._R[j:k].dot(x))
        return Hx, skipped


# ---------------------------------------------------------------------------
# Line searches
# ---------------------------------------------------------------------------

@dataclass
class LineSearchResult:
    # _armijo and _wolfe build it positionally, at half the cost of keywords
    alpha: float
    f_new: float
    n_f_evals: int = 0
    n_g_evals: int = 0
    converged: bool = True


def line_search(kind, phi, dphi=None, f0=None, slope0=None, *,
                c1=1e-4, c2=0.9, tau=0.5, max_iters=30, alpha0=1.0):
    """Find a step length along a descent direction.

    ``phi(alpha)`` is the objective along the ray and ``dphi(alpha)`` its
    slope (wolfe only).  ``armijo`` backtracks from ``alpha0`` by factor
    ``tau`` until phi(a) <= f0 + c1*a*slope0.  ``wolfe`` brackets and zooms
    to also satisfy the strong curvature condition |dphi(a)| <= c2*|slope0|.

    Raises ValueError for a non-descent direction (slope0 >= 0) or a trial
    budget ``max_iters`` below 1.  When the budget runs out the best alpha
    seen (armijo: the last one tried if every trial was inf or NaN) is
    returned with ``converged=False``.
    """
    if not (0.0 < c1 < 1.0 and c1 < c2 < 1.0 and 0.0 < tau < 1.0):
        raise ValueError(f"invalid line-search parameters c1={c1}, c2={c2}, tau={tau}")
    if max_iters < 1:
        raise ValueError(f"line search needs max_iters >= 1, got {max_iters}")
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
    best_alpha, best_f = None, math.inf
    for n_f in range(1, max_iters + 1):
        fa = phi(alpha)
        if fa <= f0 + c1 * alpha * slope0:
            return LineSearchResult(alpha, fa, n_f, 0, True)
        if fa < best_f:
            best_alpha, best_f = alpha, fa
        last_alpha, last_f = alpha, fa
        alpha *= tau
    if best_alpha is None:
        # every trial inf or NaN: the last alpha phi saw, not one it never did
        return LineSearchResult(last_alpha, last_f, n_f, 0, False)
    return LineSearchResult(best_alpha, best_f, n_f, 0, False)


def _wolfe(phi, dphi, f0, slope0, c1, c2, max_iters, alpha0):
    # bracket-and-zoom strong Wolfe search: the bracket loop doubles alpha
    # until a trial brackets a step, then the zoom loop bisects [lo, hi]
    # with the trials the bracket loop left unspent
    n_f = n_g = 0
    curvature = c2 * abs(slope0)
    alpha_prev, f_prev = 0.0, f0
    alpha = float(alpha0)
    for i in range(max_iters):
        fa = phi(alpha)
        n_f += 1
        if fa > f0 + c1 * alpha * slope0 or (i > 0 and fa >= f_prev):
            lo, f_lo, hi = alpha_prev, f_prev, alpha
            break
        sa = dphi(alpha)
        n_g += 1
        if abs(sa) <= curvature:
            return LineSearchResult(alpha, fa, n_f, n_g, True)
        if sa >= 0.0:
            lo, f_lo, hi = alpha, fa, alpha_prev
            break
        alpha_prev, f_prev = alpha, fa
        alpha = min(2.0 * alpha, 1e6)
    else:
        return LineSearchResult(alpha_prev, f_prev, n_f, n_g, False)

    # lo is the best trial seen and meets Armijo; hi is the bracket's other end
    for _ in range(max_iters - i - 1):     # the bracket loop spent i + 1 trials
        a = 0.5 * (lo + hi)
        fa = phi(a)
        n_f += 1
        if fa > f0 + c1 * a * slope0 or fa >= f_lo:
            hi = a
        else:
            sa = dphi(a)
            n_g += 1
            if abs(sa) <= curvature:
                return LineSearchResult(a, fa, n_f, n_g, True)
            if sa * (hi - lo) >= 0.0:
                hi = lo
            lo, f_lo = a, fa
        if abs(hi - lo) < 1e-16:
            break
    return LineSearchResult(lo, f_lo, n_f, n_g, False)


# ---------------------------------------------------------------------------
# Merit functions
# ---------------------------------------------------------------------------

def merit_value(kind, rho, f, c, bounds):
    """The ``kind`` merit ('l1', 'linf' or 'quadratic_penalty') of objective f
    and constraint values c at penalty rho, with violations measured by
    ``bounds.violation(c)`` (a :class:`Bounds`, the view's ``con_bounds`` or
    a stack of rows); an unknown kind is a ValueError.  rho is the caller's
    to keep finite and nonnegative."""
    f = float(f)
    v = bounds.violation(c)
    if kind == "l1":
        return f + rho * float(np.sum(v))
    if kind == "linf":
        return f + rho * float(np.max(v, initial=0.0))
    if kind == "quadratic_penalty":
        return f + 0.5 * rho * float(v @ v)
    raise ValueError(f"unknown merit kind {kind!r}; expected 'l1', 'linf' or 'quadratic_penalty'")


# ---------------------------------------------------------------------------
# Quadratic programming
# ---------------------------------------------------------------------------

def _side_name(s, j, m):
    # the caller's name for side s of column j of qp_solve's S
    what = f"row {j} of A" if j < m else f"bound on p[{j - m}]"
    return f"{what}, {('lower', 'upper')[s]} side"


def qp_solve(H, g, A=None, lo=None, hi=None, max_cycles=None, *,
             inverse=False, lower=None, upper=None):
    """Minimize 0.5 p'Hp + g'p subject to lo <= A p <= hi and lower <= p <= upper.

    Row j of A is an equality where lo[j] == hi[j].  Otherwise each of its
    sides is present unless it is infinite in its absent direction
    (lo[j] = -inf, hi[j] = +inf), and the same holds for ``lower``/``upper``
    (length n; a None side is absent).  A side no p can reach (lo or lower
    at +inf, hi or upper at -inf) raises QpError, and a NaN side raises
    ValueError.

    Goldfarb-Idnani dual active set (Math. Prog. 27, 1983) on H^-1.  It
    starts at the unconstrained minimizer -H^-1 g, adds the equality rows one
    at a time, then repeatedly adds the most violated inequality side.  Each
    step toward a row keeps the working rows N tight and their multipliers
    dual feasible: with r = (N H^-1 N')^-1 N H^-1 a and z = H^-1 a - H^-1 N' r
    the step either reaches the row (full step) or stops where a working
    inequality's multiplier reaches zero, and that row leaves (partial step).
    A row that no step can reach proves the constraints infeasible, so no
    feasible start or phase 1 is needed; the QpError names it as the caller
    does ("row j of A, lower side", "bound on p[i], upper side").
    (N H^-1 N')^-1 is bordered when a row joins and reduced when one leaves,
    so a step costs O(n^2 + n p + p^2) with no factorization.  ``max_cycles``
    (default 10 (n + q), q the number of inequality sides) bounds the
    inequality steps; equality rows never leave, and a dependent equality row
    with a consistent right-hand side is skipped with a zero multiplier.
    The sides of ``lower``/``upper`` are index rows: the slack scan reads
    them from p, and only a row the dual loop steps toward is formed as a
    dense row.

    With ``inverse=False`` H is the Hessian, which must be positive definite:
    it is symmetrized and H^-1 is built from its Cholesky factor.  With
    ``inverse=True`` the first argument is H^-1, taken as given (neither
    checked nor symmetrized): an (n, n) array, or an inverse-mode
    :class:`HessianApprox`, which is read only through ``dot`` (p = -H^-1 g
    and H^-1 a per row stepped toward), so no call folds it or forms an
    n x n matrix from it.

    Returns (p, lam, mu), with lam of length m and mu of length n.  Each is
    signed as the lower side's multiplier minus the upper side's, so
    H p + g = A' lam + mu; it is 0 on a side that is absent or inactive.
    """
    g = np.asarray(g, dtype=float).ravel()
    n = g.size
    if not isinstance(H, HessianApprox):
        H = np.asarray(H, dtype=float).reshape(n, n)
    elif not (inverse and H.inverse):
        raise ValueError("qp_solve takes a HessianApprox only in inverse mode, with inverse=True")
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    m = A.shape[0]
    lo = np.full(m, -np.inf) if lo is None else np.asarray(lo, dtype=float).ravel()
    hi = np.full(m, np.inf) if hi is None else np.asarray(hi, dtype=float).ravel()
    if lo.size != m or hi.size != m:
        raise ValueError("constraint matrix/vector sizes disagree")
    # side s in {0: lower, 1: upper} of row j is the row sgn a_j'p >= S[s, j]
    # with sgn = 1 - 2s, and that of the bound on p[i] is the index row
    # sgn p[i] >= S[s, m + i]; a side at -inf is absent, and a NaN or +inf
    # side makes a tolerance below non-finite
    S = np.empty((2, m + n))
    S[0, :m] = lo
    S[1, :m] = -hi
    S[0, m:] = -np.inf if lower is None else lower
    S[1, m:] = -np.inf if upper is None else np.negative(upper)
    ne = lo != hi
    present = S != -np.inf
    present[:, :m] &= ne
    side_r, row = present[:, :m].nonzero()
    side_b, idx = present[:, m:].nonzero()
    # the inequality sides in the order of the rows below: side and column of S
    side, column = np.concatenate([side_r, side_b]), np.concatenate([row, m + idx])
    sgn = np.array([1.0, -1.0])[side]
    sgn_b = sgn[row.size:]
    eq = ~ne
    A_eq, b_eq = A[eq], lo[eq]
    A_in = A[row] * sgn[:row.size, None]
    if not inverse:
        H = H + H.T
        H *= 0.5
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(H))
        except np.linalg.LinAlgError:
            raise QpError("QP Hessian is not positive definite; regularize the Hessian") from None
        H = L_inv.T @ L_inv
    # from here H is H^-1, an array or an inverse-mode HessianApprox, and it
    # is read only through products H.dot(x): never folded, copied or symmetrized

    # rows: the equalities in A_eq, the rows' lower then upper sides in A_in,
    # then the bounds' lower then upper sides as index rows
    n_eq, n_gen, q = A_eq.shape[0], A_eq.shape[0] + row.size, column.size
    if max_cycles is None:
        max_cycles = 10 * (n + q)
    b = np.concatenate([b_eq, S[side, column]])
    eq_tol = 1e-7 * (1.0 + float(np.abs(b_eq).max())) if n_eq else 1e-7
    slack_tol = 1e-9 * (1.0 + float(np.abs(b[n_eq:]).max())) if q else 1e-9
    if not math.isfinite(eq_tol + slack_tol):
        if np.isnan(S).any():
            raise ValueError("a side lo, hi, lower or upper is NaN")
        s, j = np.argwhere(S == np.inf)[0]
        raise QpError(f"linearized constraints are infeasible ({_side_name(s, j, m)} cannot be reached)")
    p = -H.dot(g)
    # working rows: their row numbers (equalities, then inequalities), H^-1 a,
    # (N H^-1 N')^-1, multipliers; a row joins only on a full step, so at
    # most n rows work at once, and never more than the n_eq + q there are
    cap = min(n, n_eq + q)
    rows = np.empty(cap, dtype=int)
    V = np.empty((cap, n))
    M_inv = np.empty((cap, cap))
    u = np.empty(cap)
    nw = 0
    working = np.zeros(n_eq + q, dtype=bool)
    cycles = 0

    def targets():
        # the equality rows in order, then the most violated inequality
        yield from range(n_eq)
        while q:
            slack = np.concatenate([A_in @ p, sgn_b * p[idx]]) - b[n_eq:]
            slack[working[n_eq:]] = np.inf
            j = int(slack.argmin())
            if slack[j] >= -slack_tol:
                return
            yield n_eq + j

    for new in targets():
        if new < n_eq:
            a = A_eq[new]
        elif new < n_gen:
            a = A_in[new - n_eq]
        else:
            # the loop steps toward an index row: form its dense row once
            a = np.zeros(n)
            a[idx[new - n_gen]] = sgn_b[new - n_gen]
        v = H.dot(a)
        u_new = 0.0
        while True:
            r = M_inv[:nw, :nw] @ (V[:nw] @ a)
            z = v - V[:nw].T @ r
            az = float(a @ z)
            s = float(a @ p) - b[new]
            full = nw < n and az > 1e-12 * float(a @ v) and s > -np.inf
            if new < n_eq:
                if not full:
                    # a dependent equality row: redundant or inconsistent
                    if abs(s) > eq_tol:
                        raise QpError("KKT system is numerically singular or inconsistent; "
                                      "regularize the Hessian")
                    break
                t, leave = -s / az, None
            else:
                if cycles >= max_cycles:
                    raise QpError(f"active-set cycle limit exceeded ({max_cycles} iterations)")
                cycles += 1
                # the working inequality whose multiplier reaches zero first
                t, leave = np.inf, None
                can_leave = (rows[:nw] >= n_eq) & (r > 0.0)
                if can_leave.any():
                    ratio = np.full(nw, np.inf)
                    ratio[can_leave] = u[:nw][can_leave] / r[can_leave]
                    leave = int(np.argmin(ratio))
                    t = float(ratio[leave])
                if full and -s / az <= t:
                    t, leave = -s / az, None
                elif leave is None:
                    k = new - n_eq
                    raise QpError(f"linearized constraints are infeasible ({_side_name(side[k], column[k], m)} "
                                  f"cannot be reached, slack {s:.3e})")
            if full:
                p = p + t * z
            u[:nw] -= t * r
            u_new += t
            if leave is None:
                # border (N H^-1 N')^-1 with the new row: its Schur complement is a'z
                M_inv[:nw, :nw] += np.outer(r / az, r)
                M_inv[:nw, nw] = M_inv[nw, :nw] = -r / az
                M_inv[nw, nw] = 1.0 / az
                rows[nw], V[nw], u[nw] = new, v, u_new
                working[new] = True
                nw += 1
                break
            # reduce (N H^-1 N')^-1 by the leaving row, then move the last
            # working row into its slot
            M = M_inv[:nw, :nw]
            col = M[:, leave].copy()
            M -= np.outer(col / col[leave], col)
            last = nw - 1
            M[leave, :] = M[last, :]
            M[:, leave] = M[:, last]
            working[rows[leave]] = False
            rows[leave], V[leave], u[leave] = rows[last], V[last], u[last]
            nw = last

    lam = np.zeros(n_eq + q)
    lam[rows[:nw]] = u[:nw]
    if (not (np.isfinite(p).all() and np.isfinite(lam).all())
            or n_eq and np.abs(A_eq @ p - b_eq).max() > eq_tol):
        raise QpError("KKT system is numerically singular or inconsistent; regularize the Hessian")
    # each side's multiplier, signed lower minus upper, back on its column of S
    lam_S = np.zeros(m + n)
    lam_S[:m][eq] = lam[:n_eq]
    np.add.at(lam_S, column, sgn * np.maximum(lam[n_eq:], 0.0))
    return p, lam_S[:m], lam_S[m:]
