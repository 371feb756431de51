"""Canonical problem container, scaling, evaluation plumbing and derivative checks.

A problem is a bounded NLP

    minimize f(x)  subject to  cl <= c(x) <= cu,  xl <= x <= xu,

held in an immutable :class:`ProblemSpec`.  Solvers never touch the spec
directly; they evaluate through a :class:`ScaledView`, which applies the
diagonal scaling, counts callback invocations, falls back to finite
differences for missing derivatives (forward, or central for a gradient once
a solver nears a stationary point), and (optionally) records or replays
every evaluation.  A request at the bits of the last x requested of its kind
returns the earlier value, so no solver keeps its own per-point cache.
Every call of a user callback goes through ``ScaledView._invoke``: solver
evaluations, finite-difference stencils and the analytic side of
:func:`check_first_derivatives` alike.
"""

import math
from functools import cached_property

import numpy as np
from dataclasses import asdict, dataclass, field, replace

SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
CBRT_EPS = float(np.cbrt(np.finfo(float).eps))

# evaluation kind -> (EvalCallbacks field, EvalCounters bucket, result shape
# in terms of n and m); both Hessian kinds share one counter
KINDS = {
    "obj": ("objective", "n_obj", ()),
    "grad": ("gradient", "n_grad", ("n",)),
    "con": ("constraints", "n_con", ("m",)),
    "jac": ("jacobian", "n_jac", ("m", "n")),
    "obj_hess": ("obj_hessian", "n_hess", ("n", "n")),
    "lag_hess": ("lag_hessian", "n_hess", ("n", "n")),
}
EVAL_KINDS = tuple(KINDS)


class ProblemError(ValueError):
    """Invalid problem definition (dimensions, bounds, scalers, callbacks)."""


class EvaluationError(RuntimeError):
    """A callback failed or returned non-finite values.

    Carries the evaluation kind and the offending iterate for context.
    """

    def __init__(self, message, kind=None, x=None):
        super().__init__(message)
        self.kind = kind
        self.x = None if x is None else np.array(x, dtype=float)


def _vector(value, n, name):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.ndim != 1 or v.size != n:
        raise ProblemError(f"{name} must be a vector of length {n}, got shape {v.shape}")
    return v.copy()


@dataclass(frozen=True)
class Bounds:
    """Elementwise lower/upper bounds, held as read-only copies; entries may be -inf/+inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float, ndmin=1)
        up = np.array(self.upper, dtype=float, ndmin=1)
        if lo.shape != up.shape or lo.ndim != 1:
            raise ProblemError(f"bound vectors must be 1-D with equal length, got {lo.shape} and {up.shape}")
        if np.any(lo > up):
            bad = int(np.argmax(lo > up))
            raise ProblemError(f"lower bound exceeds upper bound at index {bad}: {lo[bad]} > {up[bad]}")
        unmet = np.isnan(lo) | np.isnan(up) | (lo == np.inf) | (up == -np.inf)
        if unmet.any():
            bad = int(np.argmax(unmet))
            raise ProblemError(f"no value meets the bounds at index {bad}: [{lo[bad]}, {up[bad]}]")
        lo.flags.writeable = up.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        # clip and project skip a side whose bounds are all infinite: clipping
        # to -inf/inf leaves an entry as it is (NaN and -0.0 included)
        object.__setattr__(self, "_has_lower", bool(np.any(lo != -np.inf)))
        object.__setattr__(self, "_has_upper", bool(np.any(up != np.inf)))

    @classmethod
    def unbounded(cls, n):
        return cls(np.full(n, -np.inf), np.full(n, np.inf))

    def clip(self, x):
        """Clip the float array ``x`` (a point or rows of points) in place; return it."""
        if self._has_lower:
            np.maximum(x, self.lower, out=x)
        if self._has_upper:
            np.minimum(x, self.upper, out=x)
        return x

    def project(self, g, x, tol=1e-12):
        """A copy of ``g`` with the components that push against an active
        bound at ``x`` zeroed; ``g`` itself when no bound is finite."""
        if not (self._has_lower or self._has_upper):
            return g
        g = np.array(g, dtype=float)
        g[((x <= self.lower + tol) & (g > 0.0)) | ((x >= self.upper - tol) & (g < 0.0))] = 0.0
        return g

    def violation(self, c):
        """Nonnegative violation of the bounds by ``c``, per component."""
        c = np.asarray(c, dtype=float)
        return np.maximum(self.lower - c, 0.0) + np.maximum(c - self.upper, 0.0)

    def signed_violation(self, c):
        """Per component, c - lower below the lower bound, c - upper above the
        upper one and 0 between: the gradient of 0.5*||violation(c)||^2."""
        c = np.asarray(c, dtype=float)
        out = np.zeros_like(c)
        below = c < self.lower
        above = c > self.upper
        out[below] = (c - self.lower)[below]
        out[above] = (c - self.upper)[above]
        return out


@dataclass(frozen=True)
class EvalCallbacks:
    """User callbacks for the problem functions; missing derivatives fall back to FD.

    All callbacks take the unscaled variable vector. ``lag_hessian`` takes
    ``(x, lam)`` where the Lagrangian is ``f(x) - lam @ c(x)``.
    """

    objective: callable
    gradient: callable = None
    constraints: callable = None
    jacobian: callable = None
    obj_hessian: callable = None
    lag_hessian: callable = None


@dataclass
class EvalCounters:
    """Number of underlying callback invocations, one bucket per kind."""

    n_obj: int = 0
    n_grad: int = 0
    n_con: int = 0
    n_jac: int = 0
    n_hess: int = 0

    def copy(self):
        return replace(self)

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Validated, immutable problem definition. Build with :func:`build_problem`."""

    name: str
    n: int
    m: int
    x0: np.ndarray
    var_bounds: Bounds
    con_bounds: Bounds
    x_scaler: np.ndarray
    f_scaler: float
    c_scaler: np.ndarray
    callbacks: EvalCallbacks


def _expand(value, size, default, label):
    """A length-``size`` vector from None (all ``default``), a scalar, or a vector."""
    if value is None:
        return np.full(size, default, dtype=float)
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        return np.full(size, float(v))
    return _vector(v, size, label)


def validate_scalers(n, m, x_scaler=None, f_scaler=1.0, c_scaler=None):
    """Expand the x, f and c scalers to lengths n, 1 and m and require every
    entry to be strictly positive and finite.  Returns (x_scaler, f_scaler, c_scaler)."""
    def scaler_vec(value, size, label):
        s = _expand(value, size, 1.0, label)
        if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
            raise ProblemError(f"{label} entries must be strictly positive and finite")
        return s

    x_scaler = scaler_vec(x_scaler, n, "x_scaler")
    c_scaler = scaler_vec(c_scaler, m, "c_scaler")
    f_scaler = float(f_scaler)
    if not np.isfinite(f_scaler) or f_scaler <= 0.0:
        raise ProblemError("f_scaler must be strictly positive and finite")
    return x_scaler, f_scaler, c_scaler


def build_problem(name, x0, obj, *, grad=None, con=None, jac=None,
                  obj_hess=None, lag_hess=None, m=None,
                  xl=None, xu=None, cl=None, cu=None,
                  x_scaler=None, f_scaler=1.0, c_scaler=None):
    """Validate and assemble a :class:`ProblemSpec`.

    Unspecified bounds default to +-inf and unspecified scalers to 1.
    An equality constraint is encoded as ``cl[j] == cu[j]``.  ``m`` is
    inferred from the constraint bounds when given; it must be passed
    explicitly if ``con`` is supplied without bounds.
    """
    if not callable(obj):
        raise ProblemError("objective callback must be callable")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x0.ndim != 1 or x0.size == 0:
        raise ProblemError(f"x0 must be a nonempty vector, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ProblemError("x0 must be finite")
    n = x0.size

    var_bounds = Bounds(_expand(xl, n, -np.inf, "xl"), _expand(xu, n, np.inf, "xu"))

    if m is None:
        if cl is not None:
            m = np.atleast_1d(np.asarray(cl, dtype=float)).size
        elif cu is not None:
            m = np.atleast_1d(np.asarray(cu, dtype=float)).size
        elif con is None:
            m = 0
        else:
            raise ProblemError("pass m= (or constraint bounds) when supplying a constraint callback")
    m = int(m)
    if m < 0:
        raise ProblemError("m must be nonnegative")
    if m > 0 and con is None:
        raise ProblemError(f"m={m} constraints declared but no constraint callback given")
    con_bounds = Bounds(_expand(cl, m, -np.inf, "cl"), _expand(cu, m, np.inf, "cu"))

    x_scaler, f_scaler, c_scaler = validate_scalers(n, m, x_scaler, f_scaler, c_scaler)
    callbacks = EvalCallbacks(objective=obj, gradient=grad, constraints=con,
                              jacobian=jac, obj_hessian=obj_hess, lag_hessian=lag_hess)
    return ProblemSpec(name=str(name), n=n, m=m, x0=x0,
                       var_bounds=var_bounds, con_bounds=con_bounds,
                       x_scaler=x_scaler, f_scaler=f_scaler, c_scaler=c_scaler,
                       callbacks=callbacks)


# ---------------------------------------------------------------------------
# Raw (unscaled) evaluation helpers
# ---------------------------------------------------------------------------

def _coerce_result(kind, value, want):
    """Coerce a callback result to its canonical shape ``want``; raises on mismatch.

    A float objective (np.float64 included) is returned as a Python float
    without a round trip through NumPy; array results are always copied, so
    the view never holds an array the callback may reuse.
    """
    if kind == "obj":
        if isinstance(value, float):
            return float(value)
        v = np.asarray(value, dtype=float)
        if v.size != 1:
            raise EvaluationError(f"objective returned shape {v.shape}, expected a scalar", kind=kind)
        return float(v.reshape(()))
    v = np.array(value, dtype=float)
    if v.shape != want and v.size == math.prod(want):
        v = v.reshape(want)
    if v.shape != want:
        raise EvaluationError(f"{kind} callback returned shape {v.shape}, expected {want}", kind=kind)
    return v


def _is_finite(result):
    """True when a float or float array has only finite entries."""
    if isinstance(result, float):
        return math.isfinite(result)
    # a loop over at most 16 Python floats costs less than two ufunc calls
    if result.size <= 16:
        return all(map(math.isfinite, result.ravel().tolist()))
    # a vector's sum of squares is finite only when every entry is: an inf
    # or NaN makes it inf or NaN.  One vdot (which, unlike a ufunc, warns of
    # no overflow) proves most vectors finite; an inf or NaN sum, or a
    # matrix, takes the exact count, a fraction of the cost of .all()
    if result.ndim == 1 and math.isfinite(np.vdot(result, result)):
        return True
    return np.count_nonzero(np.isfinite(result)) == result.size


def _fd_columns(func, x, base=None):
    """d(func)/dx as a (size, n) array, with steps h_i = c * max(1, |x_i|):
    forward differences from the known value ``base`` at x (c = sqrt(eps)),
    or central ones when ``base`` is None (c = eps^(1/3); Nocedal & Wright,
    sec. 8.1).

    ``func`` is called at x + h_0 e_0, x + h_1 e_1, ... in that order (for
    central differences x + h_i e_i, then x - h_i e_i), each on its own copy
    of x.  The values are collected and every column is formed in one array
    operation, elementwise the same subtract and divide as a column at a time.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    central = base is None
    h = (CBRT_EPS if central else SQRT_EPS) * np.maximum(1.0, np.abs(x))
    plus, minus = [], []
    for i in range(n):
        xp = x.copy()
        xp[i] += h[i]
        plus.append(func(xp))
        if central:
            xm = x.copy()
            xm[i] -= h[i]
            minus.append(func(xm))
    vals = np.array(plus, dtype=float).reshape(n, -1)
    if central:
        cols = ((vals - np.array(minus, dtype=float).reshape(n, -1)) / (2.0 * h)[:, None]).T
    else:
        cols = ((vals - np.asarray(base, dtype=float).ravel()) / h[:, None]).T
    # row-major, as a column-at-a-time fill left it: BLAS sums a product such
    # as J.T @ lam in another order on the transposed layout
    return np.ascontiguousarray(cols)


def fd_derivative(spec, kind, x, lam=None):
    """Forward-difference derivative of ``spec`` at x, in user units.

    Supports kind in {grad, jac, obj_hess, lag_hess}; the Hessian kinds
    difference the gradient of f - lam @ c.  The differences are taken by the
    same code as the solvers' FD fallback, on a throwaway :class:`ScaledView`,
    so nothing is counted against or recorded in any solver's view.
    """
    if kind not in ("grad", "jac", "obj_hess", "lag_hess"):
        raise ProblemError(f"fd_derivative does not support kind={kind!r}")
    x = _vector(x, spec.n, "x")
    if kind == "jac" and not spec.m:
        return np.zeros((0, spec.n))  # the empty block, as ScaledView.jac gives it
    if kind in ("obj_hess", "lag_hess"):
        lam = _vector(lam, spec.m, "lam") if spec.m and lam is not None else None
    return ScaledView(spec)._fd(kind, x, lam)


# ---------------------------------------------------------------------------
# Scaled evaluation view
# ---------------------------------------------------------------------------

class ScaledView:
    """Solver-facing view of a problem: scaled, counted, replayable.

    Scaling conventions (s = scaler, elementwise):
        x_s = x_scaler * x          f_s = f_scaler * f        c_s = c_scaler * c
        grad_s[i]  = (f_scaler / x_scaler[i]) * grad[i]
        jac_s[j,i] = (c_scaler[j] / x_scaler[i]) * jac[j,i]
        hess_s[i,k] = (f_scaler / (x_scaler[i] * x_scaler[k])) * hess[i,k]

    Multipliers passed to :meth:`lag_hess` are scaled-space multipliers; the
    raw multiplier is ``lam = (c_scaler / f_scaler) * lam_scaled``.

    ``n``, ``m`` and ``name`` are the spec's.  ``var_bounds`` and
    ``con_bounds`` are the scaled bounds, x_scaler and c_scaler times the
    spec's, built once as :class:`Bounds` whose arrays are read-only, so no
    solver can change the bounds that a later call sees.  :attr:`x0` is a
    fresh scaled copy on each access, which a solver may clip in place.

    A request repeats no work: when its unscaled x has the bytes of the
    last x requested of its kind, the view returns that request's result
    and calls, counts and records nothing.  Each kind keeps its own last
    request; a request that passes multipliers (:meth:`lag_hess`) is always
    evaluated.  Finite-difference stencil points are evaluated afresh and
    kept by no memo; the base at x of a requested FD derivative is itself a
    request.  Every entry point returns a fresh array, so a solver may
    change what it is given.

    A problem with m = 0 has an empty constraint block: :meth:`con` and
    :meth:`jac` return float arrays of shape (0,) and (0, n) and call,
    count and record nothing, so a constrained solver needs no m = 0 path.

    Every user callback call is made by :meth:`_invoke`, which replays it
    from a hot start or calls it, wraps what it raises, coerces its shape,
    checks that it is finite and counts it.  When ``record`` is given (a
    RunRecord, or True to create one), every such invocation is appended as
    an evaluation event.  When ``hot_start`` is given (a RunRecord or
    HotStartCache from a compatible prior run), evaluations are replayed
    sequentially from it until the first mismatch.
    """

    def __init__(self, spec, record=None, hot_start=None):
        self.spec = spec
        self.n, self.m, self.name = spec.n, spec.m, spec.name
        xb, cb = spec.var_bounds, spec.con_bounds
        self.var_bounds = Bounds(spec.x_scaler * xb.lower, spec.x_scaler * xb.upper)
        self.con_bounds = Bounds(spec.c_scaler * cb.lower, spec.c_scaler * cb.upper)
        self.counters = EvalCounters()
        self.replayed = EvalCounters()
        # kind -> (x bytes, raw result) of the last request of that kind
        self._memo = dict.fromkeys(KINDS, (None, None))
        self._central_grad = False  # FD gradient by central differences
        # the spec is frozen, so derivative scale factors and the table of
        # kind -> (callback or None, counter name, result shape) are fixed per view
        self._grad_scale = spec.f_scaler / spec.x_scaler
        dims = {"n": spec.n, "m": spec.m}
        self._table = {kind: (getattr(spec.callbacks, name), counter, tuple(dims[d] for d in shape))
                       for kind, (name, counter, shape) in KINDS.items()}

        # local import: recording depends on problem types
        from .recording import RunRecord, HotStartCache
        if record is True:
            record = RunRecord.for_problem(spec)
        self.record = record
        if hot_start is not None and not isinstance(hot_start, HotStartCache):
            hot_start = HotStartCache(hot_start, spec)
        self._cache = hot_start

    # m x n and n x n scale factors, built on the first Jacobian or Hessian
    # call: a view that never asks for one holds no such matrix
    @cached_property
    def _jac_scale(self):
        return self.spec.c_scaler[:, None] / self.spec.x_scaler[None, :]

    @cached_property
    def _hess_den(self):
        return np.outer(self.spec.x_scaler, self.spec.x_scaler)

    # -- scaled problem data -------------------------------------------------
    @property
    def x0(self):
        return self.spec.x_scaler * self.spec.x0

    def unscale_x(self, xs):
        return np.asarray(xs, dtype=float) / self.spec.x_scaler

    def unscale_f(self, fs):
        return float(fs) / self.spec.f_scaler

    def unscale_lam(self, lam_s):
        return np.asarray(lam_s, dtype=float) * self.spec.c_scaler / self.spec.f_scaler

    # -- raw counted layer ----------------------------------------------------
    def _invoke(self, kind, x, lam=None):
        """One raw invocation of the ``kind`` callback: replay if possible, else call and count."""
        fn, counter, shape = self._table[kind]
        if self._cache is not None:
            hit, result = self._cache.try_replay(kind, x, lam)
            if hit:
                self.replayed.__dict__[counter] += 1
                if self.record is not None:
                    self.record.append_eval(kind, x, lam, result)
                return result

        try:
            raw = fn(x, lam) if kind == "lag_hess" else fn(x)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"{kind} callback raised {exc!r} at x={x}", kind=kind, x=x) from exc
        self.counters.__dict__[counter] += 1
        result = _coerce_result(kind, raw, shape)
        if not _is_finite(result):
            raise EvaluationError(f"{kind} callback returned non-finite values at x={x}", kind=kind, x=x)
        if self.record is not None:
            self.record.append_eval(kind, x, lam, result)
        return result

    def _raw(self, kind, x):
        """Raw-space result of a request: the memo's when ``x`` has the bytes
        of the last request of its kind, else a fresh :meth:`_evaluate`,
        which the memo then keeps."""
        key = x.tobytes()
        last, result = self._memo[kind]
        if key != last:
            result = self._evaluate(kind, x)
            self._memo[kind] = key, result
        return result

    def _evaluate(self, kind, x, lam=None, value=None):
        """Raw-space result for any kind, dispatching to FD (``value`` as in :meth:`_fd`)."""
        if self._table[kind][0] is not None:
            return self._invoke(kind, x, lam)
        if kind in ("obj", "con"):
            raise EvaluationError(f"no {kind} callback available", kind=kind, x=x)
        return self._fd(kind, x, lam, value)

    def central_fd_grad(self):
        """Take this view's FD gradient by central differences from now on.

        Forward differences err by about h |f''| / 2, which near a
        stationary point can exceed the gradient itself; central ones err by
        O(h^2) at twice the evaluations.  The switch is one way.  Returns
        True when this call made it, False when the gradient has a callback
        or is central already.  The gradient solvers call it once, when the
        projected gradient norm first falls to 10 opt_tol.
        """
        if self._central_grad or self.spec.callbacks.gradient is not None:
            return False
        self._central_grad = True
        self._memo["grad"] = None, None     # the next request is differenced afresh
        return True

    def _fd(self, kind, x, lam=None, value=None):
        """Finite-difference derivative of kind grad, jac, obj_hess or lag_hess.

        Gradients and Jacobians difference the obj/con callbacks, forward or,
        for the gradient after :meth:`central_fd_grad`, central; Hessians
        take forward differences of the (analytic or FD) gradient of
        f - lam @ c.  ``value(kind, x)`` gives the base at x: by default
        :meth:`_raw`, so the base is a request that reuses the last one at
        x.  Stencil points are evaluated afresh, and a Hessian stencil's
        gradient takes its own base by :meth:`_invoke`, so no stencil
        writes the memo.
        """
        value = value or self._raw
        if kind in ("grad", "jac"):
            base_kind = "obj" if kind == "grad" else "con"
            base = None if kind == "grad" and self._central_grad else value(base_kind, x)
            cols = _fd_columns(lambda y: self._invoke(base_kind, y), x, base)
            return cols.ravel() if kind == "grad" else cols

        # Hessians: difference the (FD or analytic) gradient of the Lagrangian.
        lam_use = lam if lam is not None and np.any(lam != 0.0) else None

        def grad_lag(y, value=lambda kind, y: self._evaluate(kind, y, value=self._invoke)):
            g = value("grad", y)
            if lam_use is not None:
                g = g - value("jac", y).T @ lam_use
            return g

        H = _fd_columns(grad_lag, x, grad_lag(x, value))
        return 0.5 * (H + H.T)

    # -- scaled entry points ----------------------------------------------------
    # obj and grad unscale inline: xs / x_scaler is unscale_x without its asarray
    def obj(self, xs):
        return self.spec.f_scaler * self._raw("obj", xs / self.spec.x_scaler)

    def grad(self, xs):
        return self._grad_scale * self._raw("grad", xs / self.spec.x_scaler)

    def con(self, xs):
        if not self.spec.m:
            return np.zeros(0)
        return self.spec.c_scaler * self._raw("con", self.unscale_x(xs))

    def jac(self, xs):
        if not self.spec.m:
            return np.zeros((0, self.spec.n))
        return self._jac_scale * self._raw("jac", self.unscale_x(xs))

    def obj_hess(self, xs):
        H = self._raw("obj_hess", self.unscale_x(xs))
        return self.spec.f_scaler * H / self._hess_den

    def lag_hess(self, xs, lam_s):
        # evaluated on every request, since the result depends on lam as well
        H = self._evaluate("lag_hess", self.unscale_x(xs), self.unscale_lam(lam_s))
        return self.spec.f_scaler * H / self._hess_den

    def feasibility(self, xs):
        """Largest scaled constraint violation at a scaled iterate; 0.0 when
        every constraint holds, and so when there are none."""
        return float(np.max(self.con_bounds.violation(self.con(xs)), initial=0.0))


# ---------------------------------------------------------------------------
# Derivative verification
# ---------------------------------------------------------------------------

@dataclass
class DerivativeCheck:
    """Relative errors between analytic and finite-difference first derivatives."""

    x: np.ndarray
    grad_errors: np.ndarray = None        # (n,) or None if no analytic gradient
    jac_errors: np.ndarray = None         # (m, n) or None if no analytic jacobian / m=0
    tol: float = 1e-4
    flagged: list = field(default_factory=list)   # (section, index, error)

    @property
    def max_rel_error(self):
        worst = 0.0
        for arr in (self.grad_errors, self.jac_errors):
            if arr is not None and arr.size:
                worst = max(worst, float(np.max(arr)))
        return worst

    @property
    def ok(self):
        return not self.flagged

    def __str__(self):
        lines = ["derivative check"]
        if self.grad_errors is not None:
            lines.append(f"  gradient: max relative error {np.max(self.grad_errors):.3e} over {self.grad_errors.size} entries")
        if self.jac_errors is not None:
            lines.append(f"  jacobian: max relative error {np.max(self.jac_errors):.3e} over {self.jac_errors.size} entries")
        if self.flagged:
            lines.append(f"  FLAGGED {len(self.flagged)} entries above {self.tol:g}:")
            for section, index, err in self.flagged[:20]:
                lines.append(f"    {section}[{index}]: {err:.3e}")
        else:
            lines.append(f"  all entries within {self.tol:g}")
        return "\n".join(lines)


def check_first_derivatives(spec, x=None, tol=1e-4):
    """Compare analytic gradient/jacobian callbacks against forward differences.

    The analytic side comes from a :class:`ScaledView`'s ``_invoke`` and the
    differences from its ``_fd``, so a bad callback raises the EvaluationError
    a solve raises.  Relative error is |analytic - fd| / max(1, |analytic|)
    per entry; entries above ``tol`` are flagged.  Requires at least one
    analytic first-derivative callback.
    """
    cb = spec.callbacks
    if cb.gradient is None and cb.jacobian is None:
        raise ProblemError("no analytic first-derivative callbacks to check")
    x = spec.x0.copy() if x is None else _vector(x, spec.n, "x")

    view = ScaledView(spec)
    report = DerivativeCheck(x=x, tol=tol)
    if cb.gradient is not None:
        g = view._invoke("grad", x)
        g_fd = view._fd("grad", x)
        report.grad_errors = np.abs(g - g_fd) / np.maximum(1.0, np.abs(g))
        for i in np.flatnonzero(report.grad_errors > tol):
            report.flagged.append(("grad", int(i), float(report.grad_errors[i])))
    if cb.jacobian is not None and spec.m > 0:
        J = view._invoke("jac", x)
        J_fd = view._fd("jac", x)
        report.jac_errors = np.abs(J - J_fd) / np.maximum(1.0, np.abs(J))
        for j, i in zip(*np.nonzero(report.jac_errors > tol)):
            report.flagged.append(("jac", (int(j), int(i)), float(report.jac_errors[j, i])))
    return report
