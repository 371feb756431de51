"""Run records, hot-start replay, readable outputs, and result presentation.

Record file format (version 1): UTF-8, newline-delimited JSON objects.
Line 1 is the header::

    {"format_version": 1, "problem": ..., "solver": ..., "n": ..., "m": ...,
     "x0": [hexfloats], "scalers": {"x": [...], "f": ..., "c": [...]},
     "options": {...}, "timestamp": "..."}

Every following line is one event::

    {"t": "eval", "k": "obj|grad|con|jac|obj_hess|lag_hess",
     "x": [hexfloats], "lam": [hexfloats]?, "r": scalar | [..] | [[..]]}
    {"t": "iter", <declared output names>: <values>}

Floats are written as hexadecimal literals (float.hex()), which round-trip
bit-exactly.  Evaluation events store the unscaled iterate and the raw
callback result.  The timestamp lives only in the header, so record bodies
from identical runs compare byte-for-byte.
"""

import json
import os
import time

import numpy as np
from dataclasses import dataclass, field

FORMAT_VERSION = 1


class RecordError(RuntimeError):
    """Malformed, truncated, or incompatible record data."""


class HotStartError(RuntimeError):
    """Record is incompatible with the problem being solved."""


# ---------------------------------------------------------------------------
# hexfloat helpers
# ---------------------------------------------------------------------------

def _hex(value):
    return float(value).hex()


def _unhex(text):
    try:
        return float.fromhex(text)
    except (ValueError, TypeError) as exc:
        raise RecordError(f"bad hexfloat {text!r}") from exc


def _hex_vec(v):
    return [_hex(x) for x in np.asarray(v, dtype=float).ravel()]


def _unhex_vec(items):
    return np.array([_unhex(s) for s in items], dtype=float)


def _encode_result(r):
    arr = np.asarray(r, dtype=float)
    if arr.ndim == 0:
        return _hex(arr)
    if arr.ndim == 1:
        return _hex_vec(arr)
    return [_hex_vec(row) for row in arr]


def _decode_result(r):
    if isinstance(r, str):
        return _unhex(r)
    if r and isinstance(r[0], list):
        return np.array([[_unhex(s) for s in row] for row in r], dtype=float)
    return _unhex_vec(r)


def _encode_value(v):
    """Encode an iter-output value: ints stay ints, floats go hex."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return _hex(v)
    arr = np.asarray(v)
    if arr.ndim == 1:
        return _hex_vec(arr)
    raise RecordError(f"cannot encode iteration value of type {type(v).__name__}")


def _decode_value(v):
    if isinstance(v, str):
        return _unhex(v)
    if isinstance(v, list):
        return _unhex_vec(v)
    return v


# ---------------------------------------------------------------------------
# Events and declarations
# ---------------------------------------------------------------------------

@dataclass
class EvalEvent:
    kind: str
    x: np.ndarray
    lam: np.ndarray = None
    result: object = None

    def __eq__(self, other):
        if not isinstance(other, EvalEvent):
            return NotImplemented
        if self.kind != other.kind or not np.array_equal(self.x, other.x):
            return False
        if (self.lam is None) != (other.lam is None):
            return False
        if self.lam is not None and not np.array_equal(self.lam, other.lam):
            return False
        return np.array_equal(np.asarray(self.result), np.asarray(other.result))


@dataclass
class IterEvent:
    values: dict

    def __eq__(self, other):
        if not isinstance(other, IterEvent):
            return NotImplemented
        if self.values.keys() != other.values.keys():
            return False
        return all(np.array_equal(np.asarray(self.values[k]), np.asarray(other.values[k]))
                   for k in self.values)


class OutputsDecl:
    """Declared per-iteration solver outputs: name -> int | float | (float, shape)."""

    def __init__(self, decl):
        self.decl = dict(decl)
        # per name: int, float, or the declared shape as a tuple
        self._fields = [(name, spec if spec in (int, float) else tuple(spec[1]))
                        for name, spec in self.decl.items()]

    @property
    def names(self):
        return list(self.decl)

    def validate(self, values):
        if values.keys() != self.decl.keys():
            got, want = set(values), set(self.decl)
            missing = sorted(want - got)
            extra = sorted(got - want)
            parts = []
            if missing:
                parts.append(f"missing {missing}")
            if extra:
                parts.append(f"undeclared {extra}")
            raise RecordError("iteration outputs do not match declaration: " + ", ".join(parts))
        out = {}
        for name, spec in self._fields:     # declaration order fixes serialization order
            v = values[name]
            if spec is int:
                if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                    raise RecordError(f"output {name!r} must be an integer, got {type(v).__name__}")
                out[name] = int(v)
            elif spec is float:
                if not isinstance(v, (int, float, np.integer, np.floating)):
                    raise RecordError(f"output {name!r} must be a float, got {type(v).__name__}")
                out[name] = float(v)
            else:
                arr = np.array(v, dtype=float)
                if arr.shape != spec:
                    raise RecordError(f"output {name!r} has shape {arr.shape}, declared {spec}")
                out[name] = arr
        return out


def update_outputs(decl, record, **values):
    """Validate one iteration's declared outputs and append them to the record."""
    checked = decl.validate(values)
    event = IterEvent(values=checked)
    if record is not None:
        record.events.append(event)
    return event


# ---------------------------------------------------------------------------
# RunRecord
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """Append-only log of one solver run: header plus evaluation/iteration events."""

    header: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    @classmethod
    def for_problem(cls, spec):
        header = {
            "format_version": FORMAT_VERSION,
            "problem": spec.name,
            "solver": None,
            "n": spec.n,
            "m": spec.m,
            "x0": spec.x0.copy(),
            "scalers": {"x": spec.x_scaler.copy(), "f": float(spec.f_scaler), "c": spec.c_scaler.copy()},
            "options": {},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        return cls(header=header)

    def set_solver(self, name, options=None):
        self.header["solver"] = name
        if options is not None:
            self.header["options"] = dict(options)

    def append_eval(self, kind, x, lam, result):
        self.events.append(EvalEvent(kind=kind, x=np.array(x, dtype=float),
                                     lam=None if lam is None else np.array(lam, dtype=float),
                                     result=np.array(result, dtype=float) if np.ndim(result) else float(result)))

    def eval_events(self):
        return [e for e in self.events if isinstance(e, EvalEvent)]

    def iter_events(self):
        return [e for e in self.events if isinstance(e, IterEvent)]

    def body_lines(self):
        return [_event_line(e) for e in self.events]

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        if _header_json(self.header) != _header_json(other.header):
            return False
        return len(self.events) == len(other.events) and all(
            a == b for a, b in zip(self.events, other.events))


def _header_json(header):
    payload = {
        "format_version": header.get("format_version", FORMAT_VERSION),
        "problem": header.get("problem"),
        "solver": header.get("solver"),
        "n": header.get("n"),
        "m": header.get("m"),
        "x0": _hex_vec(header.get("x0", [])),
        "scalers": {
            "x": _hex_vec(header.get("scalers", {}).get("x", [])),
            "f": _hex(header.get("scalers", {}).get("f", 1.0)),
            "c": _hex_vec(header.get("scalers", {}).get("c", [])),
        },
        "options": header.get("options", {}),
        "timestamp": header.get("timestamp", ""),
    }
    return json.dumps(payload, separators=(",", ":"))


def _event_line(event):
    if isinstance(event, EvalEvent):
        payload = {"t": "eval", "k": event.kind, "x": _hex_vec(event.x)}
        if event.lam is not None:
            payload["lam"] = _hex_vec(event.lam)
        payload["r"] = _encode_result(event.result)
        return json.dumps(payload, separators=(",", ":"))
    payload = {"t": "iter"}
    for name, value in event.values.items():
        payload[name] = _encode_value(value)
    return json.dumps(payload, separators=(",", ":"))


def write_record(record, path):
    """Serialize a record to a newline-delimited file; floats are bit-exact."""
    lines = [_header_json(record.header)]
    lines.extend(record.body_lines())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_record(path):
    """Parse a record file; malformed lines report their 1-based line number."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines or not lines[0].strip():
        raise RecordError(f"{path}:1: empty record file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise RecordError(f"{path}:1: malformed header: {exc}") from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise RecordError(f"{path}:1: unsupported format_version {version!r} (expected {FORMAT_VERSION})")

    record = RunRecord(header={
        "format_version": version,
        "problem": header.get("problem"),
        "solver": header.get("solver"),
        "n": header.get("n"),
        "m": header.get("m"),
        "x0": _unhex_vec(header.get("x0", [])),
        "scalers": {
            "x": _unhex_vec(header.get("scalers", {}).get("x", [])),
            "f": _unhex(header.get("scalers", {}).get("f", "0x1.0p+0")),
            "c": _unhex_vec(header.get("scalers", {}).get("c", [])),
        },
        "options": header.get("options", {}),
        "timestamp": header.get("timestamp", ""),
    })
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            tag = payload.get("t")
            if tag == "eval":
                lam = payload.get("lam")
                record.events.append(EvalEvent(
                    kind=payload["k"],
                    x=_unhex_vec(payload["x"]),
                    lam=None if lam is None else _unhex_vec(lam),
                    result=_decode_result(payload["r"])))
            elif tag == "iter":
                values = {k: _decode_value(v) for k, v in payload.items() if k != "t"}
                record.events.append(IterEvent(values=values))
            else:
                raise RecordError(f"unknown event tag {tag!r}")
        except RecordError as exc:
            raise RecordError(f"{path}:{lineno}: {exc}") from None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise RecordError(f"{path}:{lineno}: malformed record line: {exc}") from exc
    return record


# ---------------------------------------------------------------------------
# Hot starting
# ---------------------------------------------------------------------------

class HotStartCache:
    """Sequential replay of a prior run's evaluation events.

    The next requested (kind, x, lam) must match the event at the cursor
    bit-for-bit; the first mismatch (or exhausting the record) permanently
    switches to live evaluation.
    """

    def __init__(self, source, spec):
        header = source.header
        problems = (header.get("problem"), spec.name)
        if problems[0] != problems[1]:
            raise HotStartError(f"record is for problem {problems[0]!r}, not {problems[1]!r}")
        if header.get("n") != spec.n or header.get("m") != spec.m:
            raise HotStartError(
                f"record dimensions (n={header.get('n')}, m={header.get('m')}) "
                f"do not match problem (n={spec.n}, m={spec.m})")
        scalers = header.get("scalers", {})
        same = (np.array_equal(np.asarray(scalers.get("x", [])), spec.x_scaler)
                and float(scalers.get("f", np.nan)) == spec.f_scaler
                and np.array_equal(np.asarray(scalers.get("c", [])), spec.c_scaler))
        if not same:
            raise HotStartError("record scalers do not match the problem scalers")
        self.events = source.eval_events()
        self.cursor = 0
        self.live = False

    def try_replay(self, kind, x, lam=None):
        """Return (hit, result); a miss flips to live mode for good."""
        if self.live or self.cursor >= len(self.events):
            self.live = True
            return False, None
        event = self.events[self.cursor]
        if event.kind != kind or not np.array_equal(event.x, x):
            self.live = True
            return False, None
        if (event.lam is None) != (lam is None) or (
                lam is not None and not np.array_equal(event.lam, lam)):
            self.live = True
            return False, None
        self.cursor += 1
        result = event.result
        return True, (result.copy() if isinstance(result, np.ndarray) else result)


# ---------------------------------------------------------------------------
# Readable outputs and result presentation
# ---------------------------------------------------------------------------

def write_readable_outputs(record, names, directory):
    """Write one whitespace-separated text file per named output.

    Each file has one row per iteration event; vectors are flattened into
    columns; floats carry 17 significant digits.
    """
    iters = record.iter_events()
    declared = set()
    for event in iters:
        declared.update(event.values)
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in names:
        if iters and name not in declared:
            raise RecordError(f"unknown output {name!r}; record provides {sorted(declared)}")
        path = os.path.join(directory, f"{name}.out")
        with open(path, "w", encoding="utf-8") as fh:
            for event in iters:
                value = event.values[name]
                arr = np.atleast_1d(np.asarray(value))
                if arr.dtype.kind in "iub":
                    fh.write(" ".join(str(int(v)) for v in arr.ravel()) + "\n")
                else:
                    fh.write(" ".join(f"{float(v):.17g}" for v in arr.ravel()) + "\n")
        paths.append(path)
    return paths


def print_results(report):
    """Format a solver report as a human-readable block (returned as text)."""
    counters = report.counters
    lines = [
        "-" * 44,
        f"problem:     {report.problem}",
        f"solver:      {report.solver}",
        f"converged:   {'true' if report.converged else 'false'}",
        f"f*:          {report.f_star:.10g}",
        f"optimality:  {report.optimality:.6e}",
    ]
    if report.m > 0:
        lines.append(f"feasibility: {report.feasibility:.6e}")
    lines.append(f"iterations:  {report.niter}")
    lines.append("evaluations: " + " ".join(f"{k[2:]}={v}" for k, v in counters.as_dict().items()))
    if report.replayed is not None and any(report.replayed.as_dict().values()):
        lines.append("replayed:    " + " ".join(f"{k[2:]}={v}" for k, v in report.replayed.as_dict().items()))
    lines.append(f"wall time:   {report.wall_time:.4g} s")
    x = np.asarray(report.x_star)
    with np.printoptions(precision=8, threshold=12, linewidth=100):
        lines.append(f"x*:          {x}")
    lines.append("-" * 44)
    return "\n".join(lines)
