"""Outside-in layer timing: spans recorded around the calls into each optkit layer.

The tracer wraps public entry points of each layer while it is installed and
restores them afterwards; nothing inside ``src/`` is edited.  Spans nest on a
stack, and each span's *self* time is its duration minus the time its child
spans cover, so the self times of all layers add up to the solver spans.

Layers, outermost first:

    solver    the solver function called by the benchmark (``SOLVERS[name]``)
    view      ScaledView.obj/grad/con/jac/obj_hess/lag_hess/feasibility
    callback  the problem's user callbacks (wrapped per spec, see wrap_spec)
    ls        kit.line_search
    qp        kit.qp_solve
    hess      HessianApprox.update / reset
    emit      RunContext.emit (validates outputs even when recording is off)
    append    RunRecord.append_eval
    replay    HotStartCache.try_replay
"""

import time
from collections import defaultdict
from dataclasses import replace

from optkit import kit
from optkit.problem import ScaledView
from optkit.recording import HotStartCache, RunRecord
from optkit.solvers.base import RunContext

VIEW_METHODS = ("obj", "grad", "con", "jac", "obj_hess", "lag_hess", "feasibility")
# view methods whose user-level obj/con calls are finite-difference probes
FD_METHODS = ("grad", "jac", "obj_hess", "lag_hess")
CALLBACK_FIELDS = {"objective": "obj", "gradient": "grad", "constraints": "con",
                   "jacobian": "jac", "obj_hessian": "obj_hess", "lag_hessian": "lag_hess"}


class Tracer:
    """Span stack plus per-layer accumulators for one traced round."""

    def __init__(self):
        self._stack = []          # frames: [child seconds, layer, tag]
        self._saved = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.solver_span_s = 0.0

    def call(self, layer, tag, fn, args, kwargs):
        frame = [0.0, layer, tag]
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dur - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += dur
            else:
                self.solver_span_s += dur

    def in_fd_probe(self):
        """True when the innermost view span is a derivative the view differences."""
        for _, layer, tag in reversed(self._stack):
            if layer == "view":
                return tag in FD_METHODS
        return False

    # -- wrappers ---------------------------------------------------------------
    def wrap_spec(self, spec):
        """A copy of ``spec`` whose user callbacks are traced (absent ones stay absent)."""
        cb = spec.callbacks
        wrapped = {name: self._callback(kind, getattr(cb, name))
                   for name, kind in CALLBACK_FIELDS.items() if getattr(cb, name) is not None}
        return replace(spec, callbacks=replace(cb, **wrapped))

    def _callback(self, kind, fn):
        def traced(*args):
            if kind in ("obj", "con") and self.in_fd_probe():
                self.counts["fd_calls"] += 1
            return self.call("callback", kind, fn, args, {})
        return traced

    def _patches(self):
        tracer = self

        def view_method(name, fn):
            def traced(*args, **kwargs):
                return tracer.call("view", name, fn, args, kwargs)
            return traced

        def line_search(*args, **kwargs):
            res = tracer.call("ls", "ls", orig_ls, args, kwargs)
            tracer.counts["ls.trials"] += res.n_f_evals + res.n_g_evals
            tracer.counts["ls.unconverged"] += not res.converged
            return res

        def qp_solve(*args, **kwargs):
            try:
                return tracer.call("qp", "qp", orig_qp, args, kwargs)
            except kit.QpError:
                tracer.counts["qp.failed"] += 1
                raise

        def hess_update(self, d, w):
            skipped = tracer.call("hess", "hess", orig_update, (self, d, w), {})
            tracer.counts["hess.skipped" if skipped else "hess.updates"] += 1
            return skipped

        def hess_reset(self):
            tracer.counts["hess.resets"] += 1
            return tracer.call("hess", "hess", orig_reset, (self,), {})

        def emit(self, **values):
            if self.view.record is not None:
                tracer.counts["record.events"] += 1
            return tracer.call("emit", "emit", orig_emit, (self,), values)

        def append_eval(self, *args):
            tracer.counts["record.events"] += 1
            return tracer.call("append", "append", orig_append, (self,) + args, {})

        def try_replay(self, *args):
            hit, result = tracer.call("replay", "replay", orig_replay, (self,) + args, {})
            tracer.counts["replay.hits"] += bool(hit)
            return hit, result

        orig_ls, orig_qp = kit.line_search, kit.qp_solve
        orig_update, orig_reset = kit.HessianApprox.update, kit.HessianApprox.reset
        orig_emit, orig_append = RunContext.emit, RunRecord.append_eval
        orig_replay = HotStartCache.try_replay
        patches = [(kit, "line_search", line_search), (kit, "qp_solve", qp_solve),
                   (kit.HessianApprox, "update", hess_update),
                   (kit.HessianApprox, "reset", hess_reset),
                   (RunContext, "emit", emit), (RunRecord, "append_eval", append_eval),
                   (HotStartCache, "try_replay", try_replay)]
        patches += [(ScaledView, name, view_method(name, getattr(ScaledView, name)))
                    for name in VIEW_METHODS]
        return patches

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._patches():
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------
    def layer_metrics(self):
        """Per-layer times (s) and counts accumulated since the last reset."""
        s, c, n = self.self_s, self.calls, self.counts
        return {
            "solver.self_s": s["solver"],
            "hess.updates": n["hess.updates"],
            "hess.skipped": n["hess.skipped"],
            "hess.resets": n["hess.resets"],
            "hess.s": s["hess"],
            "qp.calls": c["qp"],
            "qp.s": s["qp"],
            "qp.failed": n["qp.failed"],
            "ls.calls": c["ls"],
            "ls.trials": n["ls.trials"],
            "ls.unconverged": n["ls.unconverged"],
            "ls.self_s": s["ls"],
            "view.calls": c["view"],
            "view.self_s": s["view"],
            "callbacks.calls": c["callback"],
            "callbacks.s": s["callback"],
            "callbacks.fd_calls": n["fd_calls"],
            "record.emit_s": s["emit"],
            "record.append_s": s["append"],
            "record.events": n["record.events"],
            "replay.hits": n["replay.hits"],
            "replay.s": s["replay"],
        }

    def self_time_total(self):
        return sum(self.self_s.values())
