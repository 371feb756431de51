"""Run records, hot-start replay, readable outputs, and result presentation.

Record file format (version 5): UTF-8, newline-delimited JSON objects.
Line 1 is the header::

    {"format_version": 5, "problem": ..., "solver": ..., "n": ..., "m": ...,
     "x0": [hexfloats], "scalers": {"x": [...], "f": ..., "c": [...]},
     "options": {...}, "timestamp": "..."}

Every following line is one event::

    {"t": "eval", "k": "obj|grad|con|jac|obj_hess|lag_hess",
     "x": block | index, "lam": block?, "r": hexfloat | block | {"same": 1}}
    {"t": "iter", <declared output names>: int | bool | hexfloat | block | ref}

Scalars are hexadecimal literals (float.hex()).  A block is one float
array, ``{"f8": "<base64>"}``: the base64 of the array's little-endian
float64 bytes, with ``"shape": [...]`` added for any array that is not 1-D.
float.hex() writes every NaN as "nan", so a NaN scalar whose sign or
payload differs from float("nan")'s is written as a 0-d block
(``"shape": []``), which reads back as a float with those bits.  Both forms
round-trip bit-exactly, and a block is told apart from a scalar by its JSON
type, never by its text.  The first evaluation event at a given
x carries that x as a block; every later event at a bit-identical x stores
instead the index of that x among the distinct x of the file, counted from
0 in order of first appearance (the x table).  An iteration output array
with the shape and float64 bits of an x already in the table is written as
the ref ``{"ref": index}``; any other array is a block.  Iteration arrays
only point into the table and never join it.  Evaluation events store the
unscaled iterate and the raw callback result.  Iteration events store the
outputs ``x``, ``obj`` and ``lam`` in the same user units (the solver's
scaled values through the view's ``unscale_x``, ``unscale_f`` and
``unscale_lam``), so an iteration x has the bits of an evaluated x and is
written as a ref, in a scaled run as in an unscaled one; every other output
(``opt``, ``feas``, ...) is the solver's scaled-space measure.  An
evaluation result array with the shape and float64 bits of the previous
array result of the same kind is written as the marker ``{"same": 1}``
instead of a block, so the Jacobian of linear constraints and the Hessian
of a quadratic objective, which never change, are written once.  Scalar
results are always written out and never count as the previous array
result.  A marker is told apart from a block by its keys.  The timestamp
lives only in the header, so record bodies from identical runs compare
byte-for-byte.

:func:`read_record` reads this one version, the one :func:`write_record`
writes; a header of any other ``"format_version"`` is a RecordError at
line 1.  It returns the events at one distinct x sharing one read-only
``x`` array; a ref decodes to a writable copy of its x, and a result marker
to a writable copy of the result it repeats.  A marker with no earlier
array result of its kind is a RecordError with its line number.

One line encoder serves both :meth:`RunRecord.body_lines` and
:func:`write_record`: it builds each event line as text by concatenation
rather than through ``json``, and writes the same bytes as a
``json.JSONEncoder(separators=(",", ":"))`` over the event's payload would,
so the file format is unchanged.  :func:`read_record` streams its file line
by line and parses each line with ``json.JSONDecoder().raw_decode``; a line
that parse does not consume whole (surrounding whitespace, trailing data,
malformed text) goes to ``json.loads``, which parses it under json's own
whitespace rules or raises the error reported for that line.  Lines are
never joined, so two broken lines cannot pass as one event.  The decoder
turns each event's values into floats and arrays in place, in one pass.  An
evaluation kind outside ``EVAL_KINDS`` is a RecordError both ways.
"""

import base64
import json
import os
import struct
import time
from binascii import b2a_base64

import numpy as np
from dataclasses import dataclass, field

from .problem import EVAL_KINDS

FORMAT_VERSION = 5
_dumps = json.JSONEncoder(separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode
_fromhex = float.fromhex


class RecordError(RuntimeError):
    """Malformed, truncated, or incompatible record data."""


class HotStartError(RuntimeError):
    """Record is incompatible with the problem being solved."""


# ---------------------------------------------------------------------------
# hexfloat scalars and float64 blocks
# ---------------------------------------------------------------------------

def _hex(value):
    return float(value).hex()


def _unhex(text):
    try:
        return _fromhex(text)
    except (ValueError, TypeError, OverflowError) as exc:
        raise RecordError(f"bad hexfloat {text!r}") from exc


def _hex_vec(v):
    return [_hex(x) for x in np.asarray(v, dtype=float).ravel()]


def _unhex_vec(items):
    return np.array([_unhex(s) for s in items], dtype=float)


def _unblock(block):
    """A read-only array over a float64 block's bytes; a malformed block is a RecordError.

    Callers copy it where the event should own a writable array.
    """
    if type(block) is not dict:
        raise RecordError(f"expected a float block, got {block!r}")
    try:
        raw = base64.b64decode(block["f8"], validate=True)
    except KeyError:
        raise RecordError(f"float block without 'f8': {block!r}") from None
    except (TypeError, ValueError) as exc:   # binascii.Error is a ValueError
        raise RecordError(f"bad base64 in float block: {exc}") from None
    if len(block) == 1:                      # the common case: a vector
        if not len(raw) % 8:
            return np.frombuffer(raw, "<f8")
        shape = None
    else:
        shape = block.get("shape")
    if shape is None:
        raise RecordError(f"float block of {len(raw)} bytes is not a float64 vector")
    if (type(shape) is not list or len(block) != 2
            or not all(type(dim) is int and dim >= 0 for dim in shape)):
        raise RecordError(f"bad float block shape {shape!r}")
    size = 1
    for dim in shape:
        size *= dim
    if 8 * size != len(raw):
        raise RecordError(f"float block of {len(raw)} bytes does not hold shape {shape!r}")
    return np.frombuffer(raw, "<f8").reshape(shape)


def _owned(block):
    """A block as a value an event owns: a writable copy of its array, or the
    float of a 0-d block, the form of a NaN scalar whose bits hexfloat text
    would lose."""
    arr = _unblock(block)
    return arr.copy() if arr.ndim else float(arr)


def _iter_array(v, xs):
    """An iter-output value that is neither a hexfloat nor an int: a ref into
    ``xs``, the x table read so far, or a block."""
    if type(v) is dict and "ref" in v:
        index = v["ref"]
        if len(v) != 1 or type(index) is not int:
            raise RecordError(f"bad x ref {v!r}")
        if not 0 <= index < len(xs):
            raise RecordError(f"x ref {index} is not one of the {len(xs)} x read so far")
        return xs[index].copy()
    return _owned(v)


# ---------------------------------------------------------------------------
# Events and declarations
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    """True when a and b have the same shape and float64 bit pattern, so
    0.0 and -0.0 differ and a NaN equals the same NaN."""
    a = np.asarray(a, dtype="<f8")
    b = np.asarray(b, dtype="<f8")
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class EvalEvent:
    kind: str
    x: np.ndarray
    lam: np.ndarray = None
    result: object = None

    def __eq__(self, other):
        """Bit-exact equality (see :func:`_same_bits`)."""
        if not isinstance(other, EvalEvent):
            return NotImplemented
        if self.kind != other.kind or not _same_bits(self.x, other.x):
            return False
        if (self.lam is None) != (other.lam is None):
            return False
        if self.lam is not None and not _same_bits(self.lam, other.lam):
            return False
        return _same_bits(self.result, other.result)


@dataclass
class IterEvent:
    values: dict

    def __eq__(self, other):
        """Bit-exact equality of every declared output (see :func:`_same_bits`)."""
        if not isinstance(other, IterEvent):
            return NotImplemented
        if self.values.keys() != other.values.keys():
            return False
        return all(_same_bits(self.values[k], other.values[k]) for k in self.values)


_F8 = np.dtype(float)


class OutputsDecl:
    """Declared per-iteration solver outputs: name -> int | float | (float, shape)."""

    def __init__(self, decl):
        self.decl = dict(decl)
        # per name: int, float, or the declared shape as a tuple
        self._fields = [(name, spec if spec in (int, float) else tuple(spec[1]))
                        for name, spec in self.decl.items()]

    def validate(self, values, convert=True):
        """Check ``values`` against the declaration and return them as ints, floats
        and float-array copies; with ``convert`` false, check only and return None."""
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
        out = {} if convert else None
        for name, spec in self._fields:     # declaration order fixes serialization order
            v = values[name]
            t = type(v)
            # exact types first: an int, a float, or a float64 array of the
            # declared shape passes with one test and no conversion
            if t is spec or t is np.ndarray and v.dtype is _F8 and v.shape == spec:
                pass
            elif spec is int:
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise RecordError(f"output {name!r} must be an integer, got {t.__name__}")
            elif spec is float:
                if not isinstance(v, (int, float, np.integer, np.floating)):
                    raise RecordError(f"output {name!r} must be a float, got {t.__name__}")
            else:
                v = np.asarray(v, dtype=float)
                if v.shape != spec:
                    raise RecordError(f"output {name!r} has shape {v.shape}, declared {spec}")
            if convert:
                out[name] = spec(v) if spec in (int, float) else np.array(v)
        return out


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
        """The event lines, exactly as :func:`write_record` writes them after the header."""
        return _encode_body(self.events)

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        if _header_json(self.header) != _header_json(other.header):
            return False
        return len(self.events) == len(other.events) and all(
            a == b for a, b in zip(self.events, other.events))


def _header_json(header):
    payload = {
        "format_version": FORMAT_VERSION,
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
    return _dumps(payload)


# ---------------------------------------------------------------------------
# The line encoder: each event line is built as JSON text by concatenation.
# Every piece is fixed text, a JSON-encoded output name, an int, or base64 and
# hexfloat text, none of which needs escaping, so a line is byte for byte what
# json.JSONEncoder(separators=(",", ":")) writes for the same payload.
# ---------------------------------------------------------------------------

# an eval line up to its x, per evaluation kind
_EVAL_START = {kind: '{"t":"eval","k":"' + kind + '","x":' for kind in EVAL_KINDS}
_pack_f8 = struct.Struct("<d").pack
_NAN_BITS = _pack_f8(float("nan"))
_SAME = '{"same":1}'     # an array result with the bits of the previous one of its kind


def _block_text(raw, shape):
    """The block of float64 bytes ``raw`` holding an array of ``shape``, as JSON text."""
    b64 = b2a_base64(raw, newline=False).decode("ascii")
    if len(shape) == 1:
        return f'{{"f8":"{b64}"}}'
    return f'{{"f8":"{b64}","shape":[{",".join(map(str, shape))}]}}'


def _array_text(v):
    arr = np.asarray(v, dtype="<f8")
    return _block_text(arr.tobytes(), arr.shape)


def _nan_text(v):
    """A NaN scalar: hexfloat "nan" when it has the bits of float("nan"),
    else a 0-d block, since float.hex() writes every NaN as "nan"."""
    raw = _pack_f8(v)
    return '"nan"' if raw == _NAN_BITS else _block_text(raw, ())


def _value_text(v, xs):
    """An iter-output value: ints stay ints, floats go hex, an array bit-identical
    to an x of the table ``xs`` goes to a ref, other arrays to blocks."""
    if type(v) is float:                    # the common case first
        return f'"{v.hex()}"' if v == v else _nan_text(v)
    if isinstance(v, (bool, np.bool_)):     # before int: a bool is an int
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _value_text(float(v), xs)
    arr = np.asarray(v)
    if arr.ndim and arr.dtype.kind in "biuf":
        arr = np.asarray(arr, dtype="<f8")
        raw = arr.tobytes()
        index = xs.get((arr.shape, raw))
        return _block_text(raw, arr.shape) if index is None else f'{{"ref":{index}}}'
    raise RecordError(f"cannot encode iteration value of type {type(v).__name__}")


def _encode_body(events):
    """The event lines of a record body, in order; an event that cannot be
    encoded is a RecordError."""
    xs = {}         # (shape, bytes) of each distinct eval x written so far -> its index
    last = {}       # evaluation kind -> (shape, bytes) of its latest array result
    names = {}      # output name -> its JSON text between "," and ":"
    lines = []
    for event in events:
        if isinstance(event, EvalEvent):
            try:
                start = _EVAL_START[event.kind]
            except (KeyError, TypeError):
                raise RecordError(f"unknown evaluation kind {event.kind!r}") from None
            x = np.asarray(event.x, dtype="<f8")
            key = (x.shape, x.tobytes())
            x_text = xs.get(key)
            if x_text is None:
                xs[key] = len(xs)
                x_text = _block_text(key[1], x.shape)
            lam_text = "" if event.lam is None else ',"lam":' + _array_text(event.lam)
            r = event.result
            if type(r) is float or not np.ndim(r):
                r = float(r)
                r_text = f'"{r.hex()}"' if r == r else _nan_text(r)
            else:
                r = np.asarray(r, dtype="<f8")
                key = (r.shape, r.tobytes())
                if last.get(event.kind) == key:
                    r_text = _SAME
                else:
                    last[event.kind] = key
                    r_text = _block_text(key[1], r.shape)
            lines.append(f'{start}{x_text}{lam_text},"r":{r_text}}}')
        else:
            parts = ['{"t":"iter"']
            for name, value in event.values.items():
                key = names.get(name)
                if key is None:
                    if not isinstance(name, str) or name == "t":
                        raise RecordError(f"cannot encode iteration output name {name!r}")
                    key = names[name] = "," + json.dumps(name) + ":"
                parts.append(key)
                parts.append(_value_text(value, xs))
            parts.append("}")
            lines.append("".join(parts))
    return lines


# lines joined per write: no copy of the whole file is made in memory
_LINES_PER_WRITE = 256


def write_record(record, path):
    """Serialize a record to a newline-delimited file; floats are bit-exact.

    Every line is encoded before the file is opened, so a record that cannot
    be encoded leaves ``path`` as it was.
    """
    header = _header_json(record.header)
    lines = record.body_lines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("\n")
        for i in range(0, len(lines), _LINES_PER_WRITE):
            fh.write("\n".join(lines[i:i + _LINES_PER_WRITE]))
            fh.write("\n")
    return path


def _event(payload, xs, last):
    """One event of a record body.  ``xs`` is the x table read so far and
    ``last`` maps each evaluation kind to its latest array result, which a
    result marker repeats.  The event's values are decoded in place
    in ``payload``, which an iteration event keeps as its values."""
    tag = payload.get("t")
    if tag == "eval":
        kind = payload["k"]
        if type(kind) is not str or kind not in _EVAL_START:
            raise RecordError(f"unknown evaluation kind {kind!r}")
        x = payload["x"]
        if type(x) is int:
            if not 0 <= x < len(xs):
                raise RecordError(f"x index {x} is not one of the {len(xs)} x read so far")
            x = xs[x]
        else:
            x = _unblock(x)     # read-only, so every event at this x can share it
            xs.append(x)
        lam = payload.get("lam")
        r = payload["r"]
        if type(r) is str:
            try:
                r = _fromhex(r)
            except (ValueError, OverflowError):
                _unhex(r)       # raises the RecordError
        elif type(r) is dict and "same" in r:
            r = _same_result(r, kind, last)
        else:
            r = _unblock(r)
            if r.ndim:
                last[kind] = r  # read-only: a later marker decodes to a copy
                r = r.copy()
            else:               # a 0-d block: a NaN scalar
                r = float(r)
        return EvalEvent(kind, x, None if lam is None else _unblock(lam).copy(), r)
    if tag == "iter":
        del payload["t"]
        for name, v in payload.items():
            cls = type(v)
            if cls is str:
                try:
                    payload[name] = _fromhex(v)
                except (ValueError, OverflowError):
                    _unhex(v)       # raises the RecordError
            elif cls is not int and cls is not bool:
                payload[name] = _iter_array(v, xs)
        return IterEvent(payload)
    raise RecordError(f"unknown event tag {tag!r}")


def _same_result(marker, kind, last):
    """A writable copy of the latest array result of ``kind``, which the
    result marker ``marker`` repeats."""
    if len(marker) != 1 or type(marker["same"]) is not int or marker["same"] != 1:
        raise RecordError(f"bad result marker {marker!r}")
    prev = last.get(kind)
    if prev is None:
        raise RecordError(f"result marker with no earlier {kind} array result")
    return prev.copy()


def _decode_header(header):
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise RecordError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    scalers = header.get("scalers", {})
    return {
        "format_version": version,
        "problem": header.get("problem"),
        "solver": header.get("solver"),
        "n": header.get("n"),
        "m": header.get("m"),
        "x0": _unhex_vec(header.get("x0", [])),
        "scalers": {
            "x": _unhex_vec(scalers.get("x", [])),
            "f": _unhex(scalers.get("f", "0x1.0p+0")),
            "c": _unhex_vec(scalers.get("c", [])),
        },
        "options": header.get("options", {}),
        "timestamp": header.get("timestamp", ""),
    }


def read_record(path):
    """Parse a record file of the version :func:`write_record` writes.

    Malformed lines report their 1-based line number, and a header of any
    other ``format_version`` is a RecordError at line 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.strip():
            raise RecordError(f"{path}:1: empty record file")
        try:
            header = json.loads(first)
            if type(header) is not dict:
                raise RecordError("header is not a JSON object")
            record = RunRecord(header=_decode_header(header))
        except RecordError as exc:
            raise RecordError(f"{path}:1: {exc}") from None
        except (json.JSONDecodeError, AttributeError, TypeError, ValueError) as exc:
            raise RecordError(f"{path}:1: malformed header: {exc}") from exc
        xs = []     # the x table: each distinct eval x of the body, in order of first appearance
        last = {}   # evaluation kind -> its latest array result
        append = record.events.append
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line or line.isspace():
                continue
            try:
                try:
                    payload, end = _raw_decode(line)
                except json.JSONDecodeError:
                    end = None
                if end != len(line):    # json.loads parses the line or raises its error
                    payload = json.loads(line)
                if type(payload) is not dict:
                    raise RecordError(f"event is not a JSON object: {line[:40]!r}")
                append(_event(payload, xs, last))
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
        ex = event.x        # float64 arrays, compared by shape and bytes
        if event.kind != kind or ex.shape != x.shape or ex.tobytes() != x.tobytes():
            self.live = True
            return False, None
        elam = event.lam
        if (elam is None) != (lam is None) or (lam is not None and (
                elam.shape != lam.shape or elam.tobytes() != lam.tobytes())):
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
