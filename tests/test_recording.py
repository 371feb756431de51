import base64
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from optkit import (EvalEvent, HotStartError, IterEvent, RecordError, RunContext, RunRecord,
                    ScaledView, build_problem, nelder_mead, print_results, quasi_newton,
                    read_record, recording, simulated_annealing, sqp, steepest_descent,
                    write_readable_outputs, write_record)
from optkit.bench import parse_problem_token, quadratic_example, rosenbrock2
from optkit.problem import KINDS


def quad_spec():
    return build_problem("quad", [1.0, 0.0], obj=lambda x: float(x @ x),
                         grad=lambda x: 2.0 * x)


# ---------------------------------------------------------------------------
# output declarations
# ---------------------------------------------------------------------------

def context(record, spec=None, **outputs):
    """A steepest_descent RunContext on ``spec`` (default quad_spec()) whose
    view records to ``record`` (a RunRecord, True, or None for no record),
    with ``outputs`` declared."""
    ctx = RunContext(ScaledView(spec or quad_spec(), record=record), "steepest_descent")
    ctx.declare_outputs(**outputs)
    return ctx


def test_emit_appends_declared_outputs():
    record = RunRecord()
    event = context(record, itr=int, obj=float, x=(float, (2,))).emit(
        itr=0, obj=1.0, x=np.array([1.0, 1.0]))
    assert record.events == [event]
    assert event.values["itr"] == 0
    assert record.header["solver"] == "steepest_descent"
    assert context(None, itr=int).emit(itr=0) is None


def test_update_outputs_rejects_undeclared_name():
    record = RunRecord()
    with pytest.raises(RecordError, match="foo"):
        context(record, itr=int).emit(itr=0, foo=1.0)
    assert record.events == []


def test_update_outputs_rejects_missing_name():
    record = RunRecord()
    with pytest.raises(RecordError, match="missing"):
        context(record, itr=int, obj=float).emit(itr=0)
    assert record.events == []


def test_update_outputs_rejects_bad_shape():
    record = RunRecord()
    with pytest.raises(RecordError, match="shape"):
        context(record, x=(float, (2,))).emit(x=np.zeros(3))
    assert record.events == []


@pytest.mark.parametrize("record", [None, True], ids=["off", "on"])
def test_emit_before_declare_outputs_is_undeclared(record):
    ctx = RunContext(ScaledView(quad_spec(), record=record), "steepest_descent")
    with pytest.raises(RecordError, match="undeclared \\['itr'\\]"):
        ctx.emit(itr=0)


@pytest.mark.parametrize("values, message", [
    ({"itr": 0, "obj": 1.0}, "missing \\['x'\\]"),
    ({"itr": 0, "obj": 1.0, "x": np.zeros(2), "step": 0.5}, "undeclared \\['step'\\]"),
    ({"itr": 0, "obj": 1.0, "x": np.zeros(3)}, "'x' has shape \\(3,\\)"),
    ({"itr": 1.5, "obj": 1.0, "x": np.zeros(2)}, "'itr' must be an integer, got float"),
    ({"itr": True, "obj": 1.0, "x": np.zeros(2)}, "'itr' must be an integer, got bool"),
    ({"itr": 0, "obj": "a", "x": np.zeros(2)}, "'obj' must be a float, got str"),
], ids=["missing", "undeclared", "shape", "float-itr", "bool-itr", "str-obj"])
def test_emit_validates_with_recording_off(values, message):
    messages = []
    for record in (None, True):
        ctx = context(record, rosenbrock2(), itr=int, obj=float, x=(float, (2,)))
        view = ctx.view
        ctx.emit(itr=0, obj=1.0, x=np.zeros(2))
        with pytest.raises(RecordError, match=message) as info:
            ctx.emit(**values)
        messages.append(str(info.value))
        assert (view.record is None) == (record is None)
    assert messages[0] == messages[1]   # the same check with recording off and on
    assert len(view.record.iter_events()) == 1


_DECLARED = {"itr": int, "obj": float, "T": float, "x": (float, (2,))}
_DROP = object()


@pytest.mark.parametrize("change", [
    {}, {"itr": True}, {"itr": np.int64(3)}, {"obj": np.float32(1.5)}, {"obj": 2},
    {"obj": np.float64(1.5)}, {"x": [1.0, 2.0]}, {"x": np.array([1.0, 2.0], dtype=np.float32)},
    {"x": np.asfortranarray([1.0, 2.0])}, {"x": np.zeros(3)}, {"x": np.zeros((1, 2))},
    {"T": _DROP}, {"step": 0.5}, {"T": _DROP, "step": 0.5},
], ids=["exact", "bool-itr", "int64-itr", "float32-obj", "int-obj", "float64-obj", "list-x",
        "float32-x", "fortran-x", "shape-x", "2d-x", "missing", "extra", "renamed"])
def test_emit_accepts_and_rejects_as_validate_does(change):
    # the one-test-per-output check an emit makes first passes only what
    # validate accepts; validate decides everything else, with its message,
    # whether the run is recorded or not
    values = {"itr": 3, "obj": 1.5, "T": 0.25, "x": np.array([1.0, 2.0]), **change}
    values = {name: v for name, v in values.items() if v is not _DROP}
    decl = recording.OutputsDecl(_DECLARED)
    try:
        expected = decl.validate(values)
    except RecordError as exc:
        expected = str(exc)
    assert not (decl.fits(values) and isinstance(expected, str))
    for record in (None, True):
        ctx = context(record, rosenbrock2(), **_DECLARED)
        if isinstance(expected, str):
            with pytest.raises(RecordError) as info:
                ctx.emit(**values)
            assert str(info.value) == expected
        elif record is None:
            assert ctx.emit(**values) is None
        else:
            assert ctx.emit(**values) == IterEvent(values=expected)


def test_unrecorded_solve_builds_no_iter_event(monkeypatch):
    def no_event(**_):
        raise AssertionError("IterEvent built for a run without a record")

    monkeypatch.setattr(recording, "IterEvent", no_event)
    for solver in (steepest_descent, quasi_newton, nelder_mead, sqp):
        assert solver(ScaledView(quadratic_example() if solver is sqp else rosenbrock2()),
                      maxiter=20).niter > 0
    with pytest.raises(AssertionError, match="IterEvent built"):
        quasi_newton(ScaledView(rosenbrock2(), record=True), maxiter=20)


def _simulated_annealing(spec, **options):
    return simulated_annealing(spec, seed=3, k_max=500, sample_lower=[-2.0, -2.0],
                               sample_upper=[2.0, 2.0], **options)


@pytest.mark.parametrize("solver, spec", [
    (steepest_descent, rosenbrock2), (quasi_newton, rosenbrock2), (nelder_mead, rosenbrock2),
    (_simulated_annealing, rosenbrock2), (sqp, quadratic_example),
], ids=["steepest_descent", "quasi_newton", "nelder_mead", "simulated_annealing", "sqp"])
def test_recording_does_not_change_a_solve(solver, spec):
    off = solver(ScaledView(spec(), record=None), maxiter=300)
    on = solver(ScaledView(spec(), record=True), maxiter=300)
    assert on.x_star.tobytes() == off.x_star.tobytes()
    assert on.f_star.hex() == off.f_star.hex()
    assert (on.niter, on.counters) == (off.niter, off.counters)


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------

def test_empty_record_roundtrip(tmp_path):
    record = RunRecord.for_problem(quad_spec())
    path = tmp_path / "empty.rec"
    write_record(record, path)
    text = path.read_text().splitlines()
    assert len(text) == 1  # header only
    assert read_record(path) == record


def test_irrational_values_roundtrip_bitexact(tmp_path):
    record = RunRecord.for_problem(quad_spec())
    record.set_solver("quasi_newton", {"maxiter": 10})
    record.append_eval("obj", np.array([math.pi, math.e]), None, math.pi)
    record.append_eval("grad", np.array([1.0 / 3.0, math.sqrt(2.0)]), None,
                       np.array([2.0 * math.pi, 2.0 * math.e]))
    record.append_eval("jac", np.array([0.1, 0.2]), None,
                       np.array([[math.pi, 1e-301], [3.0, 4.0]]))
    record.append_eval("lag_hess", np.array([0.1, 0.2]), np.array([math.tau]),
                       np.eye(2) * math.pi)
    path = tmp_path / "pi.rec"
    write_record(record, path)
    back = read_record(path)
    assert back == record
    ev = back.eval_events()[0]
    assert ev.x[0] == math.pi and ev.result == math.pi  # bit-exact, not approx


def test_empty_2d_result_roundtrip(tmp_path):
    record = RunRecord.for_problem(quad_spec())
    record.append_eval("jac", np.array([1.0, 2.0]), None, np.zeros((0, 2)))
    path = tmp_path / "rows0.rec"
    write_record(record, path)
    back = read_record(path)
    assert back == record
    assert back.eval_events()[0].result.shape == (0, 2)


def test_events_compare_by_bit_pattern():
    # the sign of zero counts, and a NaN output equals itself
    assert EvalEvent("obj", np.array([0.0]), result=1.0) != EvalEvent("obj", np.array([-0.0]), result=1.0)
    assert EvalEvent("obj", np.array([1.0]), result=0.0) != EvalEvent("obj", np.array([1.0]), result=-0.0)
    assert EvalEvent("grad", np.array([1.0]), result=np.zeros(2)) != \
        EvalEvent("grad", np.array([1.0]), result=np.zeros((1, 2)))
    nan_iter = IterEvent({"itr": 0, "obj": math.nan, "x": np.array([math.nan, 1.0])})
    assert nan_iter == IterEvent({"itr": 0, "obj": math.nan, "x": np.array([math.nan, 1.0])})
    assert IterEvent({"obj": 0.0}) != IterEvent({"obj": -0.0})

    a, b = RunRecord(), RunRecord()
    context(a, itr=int, obj=float).emit(itr=0, obj=0.0)
    context(b, itr=int, obj=float).emit(itr=0, obj=-0.0)
    assert a != b


def test_nan_output_roundtrip(tmp_path):
    record = RunRecord.for_problem(quad_spec())
    context(record, itr=int, obj=float, x=(float, (2,))).emit(
        itr=0, obj=math.nan, x=np.array([-0.0, math.inf]))
    record.append_eval("obj", np.array([-0.0, 0.0]), None, math.nan)
    path = tmp_path / "nan.rec"
    write_record(record, path)
    back = read_record(path)
    assert back == record
    assert math.copysign(1.0, back.eval_events()[0].x[0]) == -1.0


def test_each_distinct_x_stored_once(tmp_path):
    record = RunRecord.for_problem(quad_spec())
    x, neg = np.array([0.0, 1.0]), np.array([-0.0, 1.0])   # equal, not bit-identical
    record.append_eval("obj", x, None, 1.0)
    record.append_eval("grad", x, None, np.array([0.0, 2.0]))
    record.append_eval("obj", neg, None, 1.0)
    record.append_eval("obj", x.copy(), None, 1.0)
    path = tmp_path / "dedup.rec"
    write_record(record, path)
    lines = path.read_text().splitlines()
    assert lines[1:] == record.body_lines()
    assert [json.loads(line)["x"] for line in lines[2:]] == [
        0, {"f8": base64.b64encode(neg.tobytes()).decode("ascii")}, 0]
    events = read_record(path).eval_events()
    assert events[0].x is events[1].x is events[3].x
    assert np.signbit(events[2].x[0]) and not np.signbit(events[0].x[0])
    with pytest.raises(ValueError, match="read-only"):
        events[0].x[0] = 5.0


def _edit(lineno, edit):
    """A corruption of line ``lineno``: ``edit`` changes its parsed JSON in place."""
    def corrupt(lines):
        payload = json.loads(lines[lineno - 1])
        edit(payload)
        lines[lineno - 1] = json.dumps(payload)
    return corrupt


def _replace(lineno, text):
    """A corruption that replaces line ``lineno`` with ``text``."""
    def corrupt(lines):
        lines[lineno - 1] = text
    return corrupt


def _rewrite(lineno, lines_of):
    """A corruption that replaces line ``lineno`` with the lines ``lines_of`` makes of its text."""
    def corrupt(lines):
        lines[lineno - 1:lineno] = lines_of(lines[lineno - 1])
    return corrupt


def _truncate(lines):
    lines[-1] = lines[-1][:-10]


@pytest.mark.parametrize("corrupt, lineno, message", [
    (_truncate, 5, "malformed record line"),
    (_edit(2, lambda p: p["x"].update(f8="*" + p["x"]["f8"][1:])), 2, "bad base64"),
    (_edit(4, lambda p: p["x"].update(f8=base64.b64encode(bytes(12)).decode())), 4,
     "12 bytes is not a float64 vector"),
    (_edit(4, lambda p: p["r"].update(shape=[2, 3])), 4, "does not hold shape"),
    (_edit(3, lambda p: p.update(x=1)), 3, "x index 1 is not one of the 1"),
    (_edit(1, lambda p: p.update(format_version=6)), 1, "unsupported format_version 6"),
    (_edit(1, lambda p: p.update(format_version=1)), 1, r"unsupported format_version 1 \(expected 5\)"),
    (_edit(1, lambda p: p.update(format_version=4)), 1, r"unsupported format_version 4 \(expected 5\)"),
    (_edit(1, lambda p: p.update(x0=5)), 1, "malformed header"),
    (_edit(2, lambda p: p.update(k="foo")), 2, "unknown evaluation kind 'foo'"),
    (_replace(3, "[1, 2]"), 3, r"event is not a JSON object: '\[1, 2\]'$"),
    (_rewrite(3, lambda line: [line + " " + line]), 3, "malformed record line"),
    # {"t":"eval" on line 3 and the rest of the event on line 4
    (_rewrite(3, lambda line: line.split(",", 1)), 3, "malformed record line"),
    (_edit(5, lambda p: p.update(r="0x1p+99999")), 5, "bad hexfloat '0x1p\\+99999'"),
], ids=["truncated", "non_base64", "not_8_bytes", "shape_mismatch", "x_index_forward",
        "unsupported_version", "version_1", "version_4", "header_x0", "unknown_kind",
        "not_an_object", "two_objects", "split_event", "hexfloat_overflow"])
def test_corrupt_record_reports_line(tmp_path, corrupt, lineno, message):
    record = RunRecord.for_problem(quad_spec())
    record.append_eval("obj", np.array([1.0, 2.0]), None, 5.0)
    record.append_eval("grad", np.array([1.0, 2.0]), None, np.array([2.0, 4.0]))
    record.append_eval("jac", np.array([3.0, 4.0]), None, np.eye(2))
    record.append_eval("obj", np.array([3.0, 4.0]), None, 25.0)
    path = tmp_path / "good.rec"
    write_record(record, path)
    lines = path.read_text().splitlines()
    corrupt(lines)
    (tmp_path / "bad.rec").write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordError, match=rf"bad\.rec:{lineno}: .*{message}"):
        read_record(tmp_path / "bad.rec")


@pytest.mark.parametrize("rewrite", [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.split("\n", 1)[0] + "\n" + "".join(
        f" \t{line}\t \n" for line in text.split("\n")[1:-1]),
], ids=["crlf", "padded_lines"])
def test_record_lines_read_under_json_whitespace_rules(tmp_path, rewrite):
    record = _oracle_record()
    path = tmp_path / "a.rec"
    write_record(record, path)
    text = path.read_bytes().decode("utf-8")
    path.write_bytes(rewrite(text).encode("utf-8"))
    assert read_record(path) == record


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v9.rec"
    path.write_text('{"format_version": 9}\n')
    with pytest.raises(RecordError, match="format_version"):
        read_record(path)


@pytest.mark.parametrize("text", ["", "\n", "  \n{}\n"], ids=["no_bytes", "newline", "blank_header"])
def test_empty_record_file_rejected(tmp_path, text):
    path = tmp_path / "empty.rec"
    path.write_text(text)
    with pytest.raises(RecordError, match=r"empty\.rec:1: empty record file"):
        read_record(path)


def test_blank_lines_skipped_and_counted(tmp_path):
    record = tiny_record()
    write_record(record, tmp_path / "good.rec")
    lines = (tmp_path / "good.rec").read_text().splitlines()
    lines[2:2] = ["", "   "]             # the grad event moves to line 5
    path = tmp_path / "blank.rec"
    path.write_text("\n".join(lines) + "\n\n")
    assert read_record(path) == record
    lines[4] = lines[4][:-10]
    path.write_text("\n".join(lines))    # no newline after the last line
    with pytest.raises(RecordError, match=r"blank\.rec:5: malformed record line"):
        read_record(path)


TINY_X, TINY_LAM = np.array([0.5, 1.0 / 3.0]), np.array([0.25])


def tiny_spec():
    return build_problem("tiny", [1.0, 2.0], obj=lambda x: float(x @ x),
                         grad=lambda x: 2.0 * x,
                         con=lambda x: np.array([x[0] + x[1] - 1.0]),
                         jac=lambda x: np.array([[1.0, 1.0]]),
                         lag_hess=lambda x, lam: 2.0 * np.eye(2), cl=[0.0], cu=[0.0])


def tiny_record():
    """A one-iteration run at one x, built in memory."""
    spec = tiny_spec()
    record = RunRecord.for_problem(spec)
    record.header["timestamp"] = "2026-01-01T00:00:00"
    ctx = RunContext(ScaledView(spec, record=record), "sqp", {"maxiter": 1})
    ctx.declare_outputs(itr=int, obj=float, opt=float, x=(float, (2,)))
    for kind in ("obj", "grad", "jac"):
        record.append_eval(kind, TINY_X, None, getattr(spec.callbacks, KINDS[kind][0])(TINY_X))
    record.append_eval("lag_hess", TINY_X, TINY_LAM, 2.0 * np.eye(2))
    ctx.emit(itr=0, obj=float(TINY_X @ TINY_X), opt=math.inf, x=TINY_X)
    return record


def test_iteration_x_refers_to_eval_x(tmp_path):
    record = tiny_record()
    path = tmp_path / "v5.rec"
    write_record(record, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["format_version"] == 5
    assert json.loads(lines[-1])["x"] == {"ref": 0}
    back = read_record(path)
    assert back == record
    x = back.iter_events()[0].values["x"]
    assert x.tobytes() == TINY_X.tobytes()
    x[0] = 5.0      # a ref decodes to a writable copy of the eval x
    assert back.eval_events()[0].x[0] == 0.5


def test_iteration_x_refs_need_identical_bits(tmp_path):
    nan_a = np.array([math.nan, 1.0])
    nan_b = nan_a.copy()
    nan_b.view(np.int64)[0] |= 1            # the same NaN value, another payload
    record = RunRecord.for_problem(quad_spec())
    ctx = context(record, itr=int, x=(float, (2,)))
    record.append_eval("obj", np.array([0.0, 1.0]), None, 1.0)
    record.append_eval("obj", nan_a, None, math.nan)
    for itr, x in enumerate([np.array([-0.0, 1.0]), nan_b, nan_a, np.array([0.0, 1.0])]):
        ctx.emit(itr=itr, x=x)
    path = tmp_path / "bits.rec"
    write_record(record, path)
    xs = [json.loads(line)["x"] for line in path.read_text().splitlines()[3:]]
    assert xs[:2] == [{"f8": base64.b64encode(x.tobytes()).decode("ascii")}
                      for x in (np.array([-0.0, 1.0]), nan_b)]
    assert xs[2:] == [{"ref": 1}, {"ref": 0}]
    back = read_record(path)
    assert back == record
    assert [e.values["x"].tobytes() for e in back.iter_events()] == [
        e.values["x"].tobytes() for e in record.iter_events()]


@pytest.mark.parametrize("ref, message", [
    ({"ref": 99}, "x ref 99 is not one of the 1 x read so far"),
    ({"ref": -1}, "x ref -1 is not one of the 1"),
    ({"ref": 0, "f8": ""}, "bad x ref"),
    ({"ref": "0"}, "bad x ref"),
], ids=["out_of_range", "negative", "extra_key", "not_int"])
def test_bad_x_ref_reports_line(tmp_path, ref, message):
    write_record(tiny_record(), tmp_path / "good.rec")
    lines = (tmp_path / "good.rec").read_text().splitlines()
    payload = json.loads(lines[5])      # the iteration event: its x is {"ref": 0}
    assert payload["x"] == {"ref": 0}
    payload["x"] = ref
    lines[5] = json.dumps(payload)
    path = tmp_path / "bad.rec"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordError, match=rf"bad\.rec:6: .*{message}"):
        read_record(path)


def _marker_record():
    """Array results that repeat the previous one of their kind, and some that do not."""
    record = RunRecord.for_problem(quad_spec())
    J, K = np.array([[1.0, -0.0]]), np.array([[1.0, 0.0]])   # equal, not bit-identical
    x = [np.array([float(i), 1.0]) for i in range(6)]
    record.append_eval("jac", x[0], None, J)
    record.append_eval("obj", x[0], None, 2.0)
    record.append_eval("jac", x[1], None, J.copy())           # a marker
    record.append_eval("grad", x[1], None, J.ravel())         # another kind: a block
    record.append_eval("jac", x[2], None, K)                  # other bits: a block
    record.append_eval("jac", x[3], None, J)                  # not the previous jac: a block
    record.append_eval("jac", x[4], None, J)                  # a marker
    record.append_eval("jac", x[4], None, J.reshape(2, 1))    # another shape: a block
    record.append_eval("obj", x[5], None, 2.0)                # scalars are written out
    record.append_eval("lag_hess", x[5], np.array([1.0]), np.eye(2))
    record.append_eval("lag_hess", x[5], np.array([2.0]), np.eye(2))   # a marker
    return record


def test_repeated_result_written_as_marker(tmp_path):
    record = _marker_record()
    lines = record.body_lines()
    assert lines == _reference_body_lines(record)
    results = [json.loads(line)["r"] for line in lines]
    markers = [i for i, r in enumerate(results) if r == {"same": 1}]
    assert markers == [2, 6, 10]
    assert results[8] == "0x1.0000000000000p+1"
    assert lines[10].endswith(',"lam":{"f8":"AAAAAAAAAEA="},"r":{"same":1}}')
    path = tmp_path / "same.rec"
    write_record(record, path)
    assert json.loads(path.read_text().splitlines()[0])["format_version"] == 5
    back = read_record(path)
    assert back == record
    events = back.eval_events()
    assert [e.result.tobytes() for e in events[2:7:4]] == [events[0].result.tobytes()] * 2
    # a marker decodes to a writable copy of the result it repeats
    events[2].result[0, 0] = 5.0
    assert events[0].result[0, 0] == 1.0 and events[6].result[0, 0] == 1.0
    assert events[10].result.flags.writeable and events[10].result is not events[9].result


def test_v5_record_round_trips_and_hot_starts(tmp_path):
    spec = parse_problem_token("cantilever:40")
    first = ScaledView(spec, record=True)
    report = sqp(first)
    path, again = tmp_path / "c.rec", tmp_path / "c2.rec"
    write_record(first.record, path)
    back = read_record(path)
    write_record(back, again)
    assert again.read_bytes() == path.read_bytes()
    # the cantilever's one constraint is linear: its Jacobian is written once
    jac_lines = [line for line in path.read_text().splitlines() if '"k":"jac"' in line]
    assert len(jac_lines) > 1
    assert sum('"f8"' in line for line in jac_lines) == 1
    assert all(line.endswith('"r":{"same":1}}') for line in jac_lines[1:])
    # and the record replays the whole run with no live call
    view = ScaledView(spec, hot_start=back)
    replayed = sqp(view)
    assert view.counters.as_dict() == {"n_obj": 0, "n_grad": 0, "n_con": 0,
                                       "n_jac": 0, "n_hess": 0}
    assert view.replayed == first.counters
    assert replayed.x_star.tobytes() == report.x_star.tobytes()
    assert replayed.f_star.hex() == report.f_star.hex()


@pytest.mark.parametrize("lineno, r, message", [
    (5, {"same": 1}, "result marker with no earlier grad array result"),
    (2, {"same": 1}, "result marker with no earlier jac array result"),
    (3, {"same": 1}, "result marker with no earlier obj array result"),
    (4, {"same": True}, "bad result marker"),
    (4, {"same": 2}, "bad result marker"),
    (4, {"same": 1, "f8": ""}, "bad result marker"),
], ids=["first_of_kind", "first_event", "after_a_scalar", "bool", "not_one", "extra_key"])
def test_bad_result_marker_reports_line(tmp_path, lineno, r, message):
    path = tmp_path / "good.rec"
    write_record(_marker_record(), path)
    lines = path.read_text().splitlines()
    payload = json.loads(lines[lineno - 1])
    payload["r"] = r
    lines[lineno - 1] = json.dumps(payload)
    path = tmp_path / "bad.rec"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordError, match=rf"bad\.rec:{lineno}: .*{message}"):
        read_record(path)


def test_record_bodies_deterministic():
    spec = rosenbrock2()
    bodies = []
    for _ in range(2):
        view = ScaledView(spec, record=True)
        quasi_newton(view, maxiter=15)
        bodies.append("\n".join(view.record.body_lines()))
    assert bodies[0] == bodies[1]


# The payload encoder that the text line encoder replaced: each event's
# payload built as a dict and written by json.  body_lines must match it
# byte for byte.
_reference_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _reference_block(v):
    arr = np.asarray(v, dtype="<f8")
    block = {"f8": base64.b64encode(arr.tobytes()).decode("ascii")}
    if arr.ndim != 1:
        block["shape"] = list(arr.shape)
    return block


def _reference_scalar(v):
    """A float as hexfloat text, or as a 0-d block for a NaN whose bits are not
    those of float("nan"): float.hex() writes every NaN as "nan"."""
    v = float(v)
    if math.isnan(v) and np.float64(v).tobytes() != np.float64(math.nan).tobytes():
        return _reference_block(v)
    return v.hex()


def _reference_body_lines(record):
    xs = {}
    last = {}       # kind -> (shape, bytes) of its latest array result
    lines = []
    for event in record.events:
        if isinstance(event, EvalEvent):
            x = np.asarray(event.x, dtype="<f8")
            key = (x.shape, x.tobytes())
            payload = {"t": "eval", "k": event.kind, "x": xs.get(key)}
            if payload["x"] is None:
                payload["x"] = _reference_block(x)
                xs[key] = len(xs)
            if event.lam is not None:
                payload["lam"] = _reference_block(event.lam)
            r = event.result
            if np.ndim(r):
                arr = np.asarray(r, dtype="<f8")
                key = (arr.shape, arr.tobytes())
                payload["r"] = {"same": 1} if last.get(event.kind) == key else _reference_block(arr)
                last[event.kind] = key
            else:
                payload["r"] = _reference_scalar(r)
        else:
            payload = {"t": "iter"}
            for name, v in event.values.items():
                if isinstance(v, (bool, np.bool_)):
                    v = bool(v)
                elif isinstance(v, (int, np.integer)):
                    v = int(v)
                elif isinstance(v, (float, np.floating)):
                    v = _reference_scalar(v)
                else:
                    arr = np.asarray(v, dtype="<f8")
                    index = xs.get((arr.shape, arr.tobytes()))
                    v = _reference_block(arr) if index is None else {"ref": index}
                payload[name] = v
        lines.append(_reference_dumps(payload))
    return lines


def _oracle_record():
    record = RunRecord.for_problem(quad_spec())
    nan_x = np.array([math.nan, -0.0])
    nan_x.view(np.int64)[0] |= 5                        # a NaN with a payload
    nan_r = np.array([math.inf, -math.inf, math.nan])
    nan_r.view(np.int64)[2] |= 3
    record.append_eval("obj", nan_x, None, nan_r[2])
    record.append_eval("grad", nan_x.copy(), None, nan_r[:2])   # x written as its index
    record.append_eval("con", np.array([math.inf, -math.inf]), None, nan_r)
    record.append_eval("jac", np.array([1.0, 2.0]), None, np.arange(6.0).reshape(3, 2))
    record.append_eval("jac", np.array([1.0, 2.0]), None, np.zeros((0, 2)))
    record.append_eval("obj", np.array([1.0, 2.0]), None, -0.0)
    record.append_eval("obj_hess", np.array([1.0, 2.0]), None, -np.eye(2))
    record.append_eval("lag_hess", np.array([1.0, 2.0]), np.array([0.5, -0.0, math.nan]),
                       np.eye(2) * math.pi)
    for itr, x in enumerate([nan_x, np.array([1.0, 2.0]), np.array([2.0, 1.0])]):
        record.events.append(IterEvent({
            "itr": itr, "n64": np.int64(-7 - itr), "ok": True, "np_ok": np.bool_(itr % 2),
            "obj": [-0.0, math.inf, math.nan][itr], "f32": np.float32(0.1),
            "nan": [-math.nan, nan_r[2], np.float32(math.nan)][itr],
            'say "h\u00e9"': x, "x": x}))
    return record


def test_body_lines_match_the_json_encoder(tmp_path):
    record = _oracle_record()
    lines = record.body_lines()
    assert lines == _reference_body_lines(record)
    assert '"shape":[3,2]' in lines[3] and '"shape":[0,2]' in lines[4]
    assert ',"lam":{"f8":' in lines[7]
    xs = [json.loads(line)["x"] for line in lines]
    assert xs[1] == 0 and xs[4:8] == [2, 2, 2, 2]       # repeated x written as its index
    assert xs[8:10] == [{"ref": 0}, {"ref": 2}] and "f8" in xs[10]
    assert '"say \\"h\\u00e9\\"":{"ref":0}' in lines[8]
    # a NaN scalar with a payload or a sign is a 0-d block; float("nan") is "nan"
    assert lines[0].endswith(',"r":{"f8":"AwAAAAAA+H8=","shape":[]}}')
    assert '"nan":{"f8":"AAAAAAAA+P8=","shape":[]}' in lines[8] and '"nan":"nan"' in lines[10]
    path = tmp_path / "oracle.rec"
    write_record(record, path)
    assert path.read_text().splitlines()[1:] == lines
    back = read_record(path)
    assert back.events == record.events
    assert type(back.events[0].result) is float and type(back.events[8].values["nan"]) is float


@pytest.mark.parametrize("solve, spec", [
    (lambda view: quasi_newton(view, maxiter=15), rosenbrock2),
    (lambda view: sqp(view, maxiter=10), quadratic_example),
    (lambda view: nelder_mead(view, maxiter=40), rosenbrock2),
], ids=["quasi_newton", "sqp", "nelder_mead"])
def test_solver_bodies_match_the_json_encoder(solve, spec):
    view = ScaledView(spec(), record=True)
    solve(view)
    assert view.record.body_lines() == _reference_body_lines(view.record)


@pytest.mark.parametrize("event, message", [
    (IterEvent({"itr": 0, "note": "text"}), "cannot encode iteration value of type str"),
    (EvalEvent("hess", np.array([1.0, 2.0]), result=1.0), "unknown evaluation kind 'hess'"),
    (IterEvent({"t": 0}), "cannot encode iteration output name 't'"),
], ids=["str_value", "unknown_kind", "name_t"])
def test_failed_encode_leaves_file_untouched(tmp_path, event, message):
    path = tmp_path / "kept.rec"
    write_record(tiny_record(), path)
    before = path.read_bytes()
    record = tiny_record()
    record.events.append(event)
    with pytest.raises(RecordError, match=message):
        write_record(record, path)
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# hot starting
# ---------------------------------------------------------------------------

def test_full_replay_uses_no_callbacks(tmp_path):
    spec = rosenbrock2()
    v1 = ScaledView(spec, record=True)
    quasi_newton(v1, maxiter=10)
    path = tmp_path / "a.rec"
    write_record(v1.record, path)

    v2 = ScaledView(spec, hot_start=read_record(path))
    quasi_newton(v2, maxiter=10)
    assert v2.counters.as_dict() == {"n_obj": 0, "n_grad": 0, "n_con": 0,
                                     "n_jac": 0, "n_hess": 0}
    assert v2.replayed == v1.counters


def test_hot_start_mismatch_goes_live():
    spec = quad_spec()
    v1 = ScaledView(spec, record=True)
    v1.obj(np.array([1.0, 0.0]))
    v2 = ScaledView(spec, hot_start=v1.record)
    # different request immediately falls back to live evaluation
    assert v2.obj(np.array([0.5, 0.5])) == 0.5
    assert v2.counters.n_obj == 1 and v2.replayed.n_obj == 0
    assert v2._cache.live


def test_hot_start_matches_by_bits():
    spec = quad_spec()
    v1 = ScaledView(spec, record=True)
    v1.obj(np.array([0.0, 1.0]))
    # -0.0 is not 0.0
    v2 = ScaledView(spec, hot_start=v1.record)
    assert v2.obj(np.array([-0.0, 1.0])) == 1.0
    assert v2.counters.n_obj == 1 and v2.replayed.n_obj == 0
    assert v2._cache.live
    # an x holding a NaN matches the same NaN
    record = RunRecord.for_problem(spec)
    record.append_eval("obj", np.array([math.nan, 1.0]), None, 2.0)
    cache = recording.HotStartCache(record, spec)
    assert cache.try_replay("obj", np.array([math.nan, 1.0])) == (True, 2.0)


def test_hot_start_incompatible_record_rejected():
    v1 = ScaledView(quad_spec(), record=True)
    other = build_problem("other", [1.0], obj=lambda x: float(x[0]))
    with pytest.raises(HotStartError):
        ScaledView(other, hot_start=v1.record)


def test_hot_start_scaler_mismatch_rejected():
    spec = quad_spec()
    v1 = ScaledView(spec, record=True)
    from dataclasses import replace
    rescaled = replace(spec, x_scaler=np.array([2.0, 2.0]))
    with pytest.raises(HotStartError):
        ScaledView(rescaled, hot_start=v1.record)


def test_hot_start_extension_counts_only_fresh():
    spec = rosenbrock2()
    v1 = ScaledView(spec, record=True)
    quasi_newton(v1, maxiter=10)

    v2 = ScaledView(spec, hot_start=v1.record)
    quasi_newton(v2, maxiter=25)
    v3 = ScaledView(spec)
    quasi_newton(v3, maxiter=25)
    # replayed + fresh == single-run totals
    for key, total in v3.counters.as_dict().items():
        assert getattr(v2.replayed, key) + getattr(v2.counters, key) == total


# ---------------------------------------------------------------------------
# readable outputs and result formatting
# ---------------------------------------------------------------------------

def test_readable_outputs_files(tmp_path):
    record = RunRecord()
    ctx = context(record, itr=int, obj=float, x=(float, (2,)))
    for k in range(3):
        ctx.emit(itr=k, obj=float(k), x=np.array([k, -k], dtype=float))
    paths = write_readable_outputs(record, ["obj", "x", "itr"], tmp_path)
    obj_lines = open(paths[0]).read().splitlines()
    assert len(obj_lines) == 3
    x_rows = [line.split() for line in open(paths[1]).read().splitlines()]
    assert all(len(row) == 2 for row in x_rows)
    assert float(x_rows[2][1]) == -2.0


def test_readable_outputs_17_digits(tmp_path):
    record = RunRecord()
    context(record, obj=float).emit(obj=math.pi)
    (path,) = write_readable_outputs(record, ["obj"], tmp_path)
    assert float(open(path).read().strip()) == math.pi


def test_readable_outputs_empty_record(tmp_path):
    record = RunRecord()
    (path,) = write_readable_outputs(record, ["obj"], tmp_path)
    assert os.path.getsize(path) == 0


def test_readable_outputs_unknown_name(tmp_path):
    record = RunRecord()
    context(record, obj=float).emit(obj=1.0)
    with pytest.raises(RecordError, match="nope"):
        write_readable_outputs(record, ["nope"], tmp_path)


def test_print_results_converged_block():
    report = sqp(quadratic_example())
    text = print_results(report)
    assert "converged:   true" in text
    assert "f*:          1" in text
    assert "feasibility:" in text


def test_print_results_maxiter_and_unconstrained():
    report = quasi_newton(rosenbrock2(), maxiter=2)
    text = print_results(report)
    assert "converged:   false" in text
    assert "feasibility:" not in text  # m = 0 omits the line
    # unless x* violates a variable bound, which is why the run is unconverged
    assert "feasibility: 2.000000e-01" in print_results(replace(report, feasibility=0.2))
