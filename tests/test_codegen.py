"""The compiled float kernels against the code they are generated from.

The run kernel's DP5 attempt, taken alone through the kernel's one-attempt
return, is compared with the list-comprehension step it replaced, kept here
verbatim as the oracle; each traced right-hand side is compared with its
formula interpreted on floats; the attempt with a compiled right-hand side
inlined is compared with the attempt that calls it.  All must agree bit for
bit.
"""

import gc
import inspect
import math
import os
import random
import struct
import subprocess
import sys
import traceback

import pytest
from hypothesis import given, settings, strategies as st

import solitonlab
from solitonlab import codegen, monitors as M
from solitonlab import rescaled as R
from solitonlab import systems as S
from solitonlab.codegen import trace_function
from solitonlab.integrator import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _A71, _A72, _A73, _A74, _A75, _A76,
    _C2, _C3, _C4, _C5, _D1, _D2, _D3, _D4, _D5, _D6, _D7,
    _E1, _E2, _E3, _E4, _E5, _E6, _E7,
    _STAGE_ERRORS, IntegratorConfig, _error_norm, _validity, compile_run,
)
from solitonlab.systems import DancerWangAnsatz, LuPagePopeAnsatz, TwoSummandsAnsatz
from solitonlab.trajectory import standard_events

from conftest import load_shipped


def bits(values) -> list:
    """The IEEE bit patterns of a float or a nested list of floats."""
    if isinstance(values, (list, tuple)):
        return [bits(v) for v in values]
    return struct.pack("<d", values)


# -- the DP5 attempt -----------------------------------------------------------


def one_attempt(rhs, t, y, f, h, rtol, atol):
    """One attempt by h from (t, y) with slope f, taken by the run kernel
    for ``rhs`` with no event or validity test, which returns after it:
    ((y_new, f_new, err, r5), or None for a failed stage; the right-hand
    sides it evaluated).  A compiled ``rhs`` is inlined, any other called."""
    run = compile_run(rhs, len(y), IntegratorConfig(t_max=math.inf))
    buffers = [], [], [], []
    _, _, _, n_rhs, step = run(
        rhs, [], None, None, t, y, f, h, math.inf, rtol, atol, 1, [], -1, *buffers, True,
    )
    return step, n_rhs


def dp_step_oracle(call, t, y, f, h, rtol, atol):
    """The Dormand-Prince attempt as list comprehensions, kept as the
    reference the compiled kernel must match."""
    k1 = f
    try:
        k2 = call(t + _C2 * h, [yj + h * (a * _A21) for yj, a in zip(y, k1)])
        if not all(map(math.isfinite, k2)):
            return None
        k3 = call(
            t + _C3 * h, [yj + h * (a * _A31 + b * _A32) for yj, a, b in zip(y, k1, k2)]
        )
        if not all(map(math.isfinite, k3)):
            return None
        k4 = call(
            t + _C4 * h,
            [yj + h * (a * _A41 + b * _A42 + c * _A43) for yj, a, b, c in zip(y, k1, k2, k3)],
        )
        if not all(map(math.isfinite, k4)):
            return None
        k5 = call(
            t + _C5 * h,
            [
                yj + h * (a * _A51 + b * _A52 + c * _A53 + d * _A54)
                for yj, a, b, c, d in zip(y, k1, k2, k3, k4)
            ],
        )
        if not all(map(math.isfinite, k5)):
            return None
        k6 = call(
            t + h,
            [
                yj + h * (a * _A61 + b * _A62 + c * _A63 + d * _A64 + e * _A65)
                for yj, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ],
        )
        if not all(map(math.isfinite, k6)):
            return None
        # the stage 7 node is the 5th-order solution
        y_new = [
            yj + h * (a * _A71 + b * _A72 + c * _A73 + d * _A74 + e * _A75 + g * _A76)
            for yj, a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5, k6)
        ]
        k7 = call(t + h, y_new)
        if not all(map(math.isfinite, k7)):
            return None
    except _STAGE_ERRORS:
        return None
    err = [
        h * (a * _E1 + b * _E2 + c * _E3 + d * _E4 + e * _E5 + g * _E6 + k * _E7)
        for a, b, c, d, e, g, k in zip(k1, k2, k3, k4, k5, k6, k7)
    ]
    r5 = [
        h * (a * _D1 + b * _D2 + c * _D3 + d * _D4 + e * _D5 + g * _D6 + k * _D7)
        for a, b, c, d, e, g, k in zip(k1, k2, k3, k4, k5, k6, k7)
    ]
    return y_new, k7, _error_norm(err, y, y_new, rtol, atol), r5


class RecordingRHS:
    """A nonlinear coupled right-hand side that records its inputs; at call
    ``fail_at`` it returns ``fault`` in one component (a float) or raises it
    (an exception class), or returns ``extra`` more components."""

    def __init__(self, fail_at=None, fault=None, extra=0):
        self.calls = []
        self.fail_at, self.fault, self.extra = fail_at, fault, extra

    def __call__(self, t, y):
        self.calls.append(bits([t, list(y)]))
        n = len(y)
        out = [0.3 * t - y[j] * y[(j + 1) % n] + 0.5 * y[j - 1] for j in range(n)]
        if len(self.calls) == self.fail_at:
            if isinstance(self.fault, float):
                out[-1] = self.fault
            elif self.fault is not None:
                raise self.fault("injected")
            out = out + [1.0] * self.extra if self.extra > 0 else out[: n + self.extra]
        return out


_component = st.floats(-4.0, 4.0, allow_nan=False)


def _attempt(n):
    return st.tuples(
        st.lists(_component, min_size=n, max_size=n),
        st.floats(-10.0, 10.0),
        st.floats(1e-6, 0.5),
        st.sampled_from([1e-12, 1e-8, 1e-3]),
        st.sampled_from([1e-14, 1e-10, 1e-4]),
    )


@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=st.integers(1, 12).flatmap(_attempt))
def test_dp5_kernel_is_the_oracle_bit_for_bit(case):
    y, t, h, rtol, atol = case
    f = RecordingRHS()(t, y)
    got_rhs, want_rhs = RecordingRHS(), RecordingRHS()
    got, n_rhs = one_attempt(got_rhs, t, y, f, h, rtol, atol)
    want = dp_step_oracle(want_rhs, t, y, f, h, rtol, atol)
    assert got_rhs.calls == want_rhs.calls
    assert n_rhs == len(got_rhs.calls)
    assert (got is None) == (want is None)
    if want is not None:
        assert type(got[2]) is float
        assert bits(list(got)) == bits(list(want))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(case=st.integers(1, 12).flatmap(_attempt))
def test_dp5_kernel_fails_a_stage_where_the_oracle_does(case):
    y, t, h, rtol, atol = case
    f = RecordingRHS()(t, y)
    for stage_call in range(1, 7):
        for fault in (math.inf, -math.inf, math.nan, *_STAGE_ERRORS):
            got_rhs, want_rhs = RecordingRHS(stage_call, fault), RecordingRHS(stage_call, fault)
            assert one_attempt(got_rhs, t, y, f, h, rtol, atol) == (None, stage_call)
            assert dp_step_oracle(want_rhs, t, y, f, h, rtol, atol) is None
            assert got_rhs.calls == want_rhs.calls
            assert len(got_rhs.calls) == stage_call


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("stage_call", range(1, 7))
def test_dp5_kernel_raises_on_a_stage_of_the_wrong_length(stage_call, extra):
    y = [0.5, -1.0, 2.0]
    rhs = RecordingRHS(stage_call, extra=extra)
    with pytest.raises(ValueError, match="values to unpack"):
        one_attempt(rhs, 0.0, y, RecordingRHS()(0.0, y), 0.1, 1e-8, 1e-10)


# -- traced right-hand sides ---------------------------------------------------

TS = TwoSummandsAnsatz(3, 4, 6.0, 48.0, 12.0)
DW = [
    DancerWangAnsatz((2,), (2,), (1,)),
    DancerWangAnsatz((2, 4), (2, 3), (1, -2)),
    DancerWangAnsatz((2, 2, 4), (1, 2, 3), (-1, 2, -3)),
]
LPP = [LuPagePopeAnsatz(2, 2, 1, 1), LuPagePopeAnsatz(2, 2, 1, 3)]
PHYSICAL = [TS, *DW, *LPP]

# up to 1e160: squares and fourth powers overflow to inf, quotients to 0 or inf
_value = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e160, 1e160), st.sampled_from([1e-170, -0.0]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(y=st.lists(_value, min_size=11, max_size=11), eps=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_traced_rhs_is_the_interpreted_closed_form(y, eps):
    for ansatz in PHYSICAL:
        n = 2 * len(ansatz.dims) + 2
        _traced_equals(S.make_vector_rhs(ansatz, eps), S._vector_rates, y[:n], ansatz, eps)
    for a in DW:
        n = 2 * (a.m + 1) + 3
        _traced_equals(R.make_rescaled_vector_rhs(a, eps), R._rescaled_rates, y[:n], a, eps)


def _traced_equals(fn, formula, y, ansatz, eps):
    a = S.flow_ansatz(ansatz)
    try:
        want = formula(y, a, eps)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fn(0.0, y)
        return
    got = fn(0.0, y)
    assert all(type(v) is float for v in got)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("ansatz", PHYSICAL)
def test_traced_rhs_raises_at_a_zero_component(ansatz):
    y = [1.0] * (2 * len(ansatz.dims) + 2)
    y[0] = 0.0
    with pytest.raises(ZeroDivisionError):
        S.make_vector_rhs(ansatz, 0.5)(0.0, y)


def test_tracing_a_branch_on_a_value_raises():
    with pytest.raises(TypeError):
        trace_function(lambda y: [y[0] if y[0] > 0.0 else -y[0]], 1, "<test branch>")
    with pytest.raises(TypeError):
        trace_function(lambda y: [y[0] if y[0] else 1.0], 1, "<test truth>")
    with pytest.raises(TypeError):
        trace_function(lambda y: [abs(y[0])], 1, "<test abs>")


def test_constants_round_trip():
    def formula(y):
        x = y[0]
        return [
            x * -0.0, -0.0 + x, x + math.inf, x - -math.inf, math.nan * x,
            x - -2.5, -3 * x, x / -7, -x, 0 - x, 2.0 / 3.0 * x, -0.0, math.inf, -4,
        ]

    fn = trace_function(formula, 1, "<test constants>")
    for x in (0.0, -0.0, 1.5, -2.25, 1e308, math.inf):
        got, want = fn(0.0, [x]), formula([x])
        assert [type(v) for v in got] == [type(v) for v in want]
        assert bits([float(v) for v in got]) == bits([float(v) for v in want])


def test_probe_compiles_one_rhs(monkeypatch):
    # the probe's solves differ only in C, so they share one kernel
    compiled = []
    original = codegen.compile_function

    def counting(name, source, filename, namespace):
        compiled.append(filename)
        return original(name, source, filename, namespace)

    codegen._rates_kernel.cache_clear()
    monkeypatch.setattr(codegen, "compile_function", counting)
    spec = load_shipped("ts_probe_d1.json").spec
    rep = M.growth_probe(spec, c=5.0, tau=0.5)
    assert rep.n_solves == 4
    rhs = [name for name in compiled if name.startswith("<solitonlab rhs")]
    assert rhs == [f"<solitonlab rhs {S.flow_ansatz(spec.ansatz)!r} eps={spec.epsilon!r}>"]


def test_generated_source_shows_in_tracebacks_and_getsource():
    fn = S.make_vector_rhs(DW[1], 0.5)
    with pytest.raises(ZeroDivisionError) as info:
        fn(0.0, [0.0] + [1.0] * 7)
    text = "".join(traceback.format_exception(info.value))
    assert f'File "<solitonlab rhs {DW[1]!r} eps=0.5>", line 3, in fn' in text
    assert "_1 = y3 / y0" in text
    assert inspect.getsource(fn).startswith("def fn(t, y):\n    y0, y1, y2, y3,")
    # the run kernel names every callable it inlines, and "call" for one it calls
    plain = compile_run(RecordingRHS(), 6, IntegratorConfig(t_max=1.0))
    assert inspect.getsourcefile(plain) == "<solitonlab run n=6: call>"
    spec = S.ProblemSpec(DW[1], 0.5, -1.0, (1.0, 1.0))
    cfg = IntegratorConfig(t_max=1.0, events=standard_events(spec), validity=_validity(8, 3))
    run = compile_run(fn, 8, cfg)
    inlined = [codegen.traced(g).filename[1:-1] for g in (fn, *(ev.fn for ev in cfg.events), cfg.validity)]
    assert inspect.getsourcefile(run) == f"<solitonlab run n=8: {'; '.join(inlined)}>"
    assert inlined[-1] == "solitonlab validity n=8 k=3"
    assert inspect.getsource(run).startswith("def run(rhs, event_fns, validity, sink, t, y, f, h, ")


def test_a_run_kernel_shows_each_state_test_as_recorded():
    # a state test is recorded over the names the run kernel binds for the
    # new state, so the kernel holds its lines and its result verbatim
    fn = S.make_vector_rhs(DW[2], 0.5)
    spec = S.ProblemSpec(DW[2], 0.5, -1.0, (1.0, 2.0, 0.5))
    cfg = IntegratorConfig(t_max=1.0, events=standard_events(spec), validity=_validity(10, 4))
    source = inspect.getsource(compile_run(fn, 10, cfg))
    events = [codegen.traced(ev.fn) for ev in cfg.events]
    validity = codegen.traced(cfg.validity)
    assert sum(len(trace.lines) for trace in events) > 20
    for trace in (*events, validity):
        assert trace.inputs == tuple(f"yn{j}" for j in range(10))
        # the loop's body is indented twice
        assert "".join(f"        {line}\n" for line in trace.lines) in source
    for i, trace in enumerate(events):
        (value,) = trace.outputs
        shown = f"if {value} <= 0.0 and isfinite(prev{i})" if value.isidentifier() else f"v = {value}\n"
        assert f"        {shown}" in source
    assert f"        invalid = not ({validity.outputs[0]})\n" in source


def test_nothing_is_compiled_at_import():
    code = (
        "import linecache\n"
        "from solitonlab import cli, codegen, integrator, rescaled, systems\n"
        "assert integrator._run_kernel.cache_info().currsize == 0\n"
        "assert codegen._rates_kernel.cache_info().currsize == 0\n"
        "assert not [k for k in linecache.cache if k.startswith('<solitonlab')]\n"
    )
    src = os.path.dirname(os.path.dirname(solitonlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


# -- tape reductions -----------------------------------------------------------

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.5, -2.25)


@pytest.mark.parametrize(
    "op",
    [
        lambda x: x * 1, lambda x: 1 * x, lambda x: x / 1, lambda x: x - 0.0,
        lambda x: x * 1.0, lambda x: 1.0 * x, lambda x: x / 1.0, lambda x: x - 0,
    ],
)
def test_identities_are_not_recorded_and_keep_every_bit(op):
    fn = trace_function(lambda y: [op(y[0])], 1, "<test identity>")
    assert codegen.traced(fn).lines == ()
    for x in _SPECIAL:
        assert bits(fn(0.0, [x])) == bits([op(x)])


@pytest.mark.parametrize(
    "op, line",
    [
        (lambda x: x + 0.0, "_1 = y0 + 0.0"),
        (lambda x: 0.0 + x, "_1 = 0.0 + y0"),
        (lambda x: 0.0 * x, "_1 = 0.0 * y0"),
        (lambda x: x * 0.0, "_1 = y0 * 0.0"),
        (lambda x: x - -0.0, "_1 = y0 - {}"),
        (lambda x: 0.0 - x, "_1 = 0.0 - y0"),
        (lambda x: 1.0 / x, "_1 = 1.0 / y0"),
    ],
)
def test_operations_that_change_a_bit_are_kept(op, line):
    # -0.0 + 0.0 is +0.0, and 0.0 * x is NaN for infinite x and -0.0 for
    # negative x; -0.0 has no literal, so the line names it
    fn = trace_function(lambda y: [op(y[0])], 1, "<test kept>")
    trace = codegen.traced(fn)
    assert trace.lines == (line.format(*trace.namespace),)
    assert bits(list(trace.namespace.values())) == bits([-0.0] if "{}" in line else [])
    for x in _SPECIAL:
        if x == 0.0 and line.endswith("/ y0"):
            continue
        assert bits(fn(0.0, [x])) == bits([op(x)])


def test_a_repeated_operation_is_recorded_once():
    def formula(y):
        a, b = y
        return [a * b + a * b, -a * -a, (a * b) / (a * b)]

    fn = trace_function(formula, 2, "<test repeated>")
    assert codegen.traced(fn).lines == (
        "_1 = y0 * y1", "_2 = _1 + _1", "_3 = -y0", "_4 = _3 * _3", "_5 = _1 / _1",
    )
    for a in _SPECIAL[2:]:
        for b in (3.0, -0.5, math.inf):
            assert bits(fn(0.0, [a, b])) == bits(formula([a, b]))
    with pytest.raises(ZeroDivisionError):
        fn(0.0, [-0.0, 1.0])


def test_int_operands_become_float_literals_below_2_to_the_53():
    big = 2**60 + 1

    def formula(y):
        return [3 * y[0], y[0] / -7, y[0] - 2, big * y[0], 4]

    fn = trace_function(formula, 1, "<test ints>")
    assert codegen.traced(fn).lines == (
        "_1 = 3.0 * y0", "_2 = y0 / (-7.0)", "_3 = y0 - 2.0", f"_4 = {big} * y0",
    )
    for x in _SPECIAL:
        got, want = fn(0.0, [x]), formula([x])
        assert [type(v) for v in got] == [type(v) for v in want]
        assert bits([float(v) for v in got]) == bits([float(v) for v in want])


# -- the attempt with the right-hand side inlined ------------------------------

# the compiled right-hand sides the integrator inlines: each physical flow
# and the compact chart of each circle bundle
SYSTEMS = [*PHYSICAL, *(("chart", a) for a in DW)]


def _compiled_rhs(system, eps):
    if isinstance(system, tuple):
        return R.make_rescaled_vector_rhs(system[1], eps)
    return S.make_vector_rhs(system, eps)


def _both_attempts(fn, y, f, h, rtol=1e-8, atol=1e-10):
    """The inlined and the calling attempt on the compiled right-hand side
    fn, each as (result, right-hand sides evaluated), and the stages that
    raised in the calling one."""
    calls, raised = [], []

    def call(t, x):
        calls.append(t)
        try:
            return fn(t, x)
        except _STAGE_ERRORS:
            raised.append(len(calls))
            raise

    want, want_rhs = one_attempt(call, 0.0, y, f, h, rtol, atol)
    assert want_rhs == len(calls)
    return one_attempt(fn, 0.0, y, f, h, rtol, atol), (want, want_rhs), raised


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    system=st.sampled_from(SYSTEMS),
    eps=st.sampled_from([0.0, 0.5, 2.0]),
    y=st.lists(_value, min_size=11, max_size=11),
    h=st.one_of(st.floats(1e-8, 1.0), st.floats(1.0, 1e4)),
    slope=st.lists(st.floats(-3.0, 3.0), min_size=11, max_size=11),
)
def test_inlined_attempt_is_the_calling_attempt_bit_for_bit(system, eps, y, h, slope):
    fn = _compiled_rhs(system, eps)
    n = len(codegen.traced(fn).inputs)
    y = y[:n]
    try:
        f = fn(0.0, y)
    except ZeroDivisionError:
        f = slope[:n]
    (got, got_rhs), (want, want_rhs), _ = _both_attempts(fn, y, f, h)
    assert got_rhs == want_rhs
    assert (want is None) == (got is None)
    if want is not None:
        assert bits(list(got)) == bits(list(want))


def _system_id(system):
    return f"chart-m{system[1].m}" if isinstance(system, tuple) else repr(system)


@pytest.mark.parametrize("system", SYSTEMS, ids=_system_id)
def test_inlined_attempt_fails_at_every_stage_as_the_calling_one(system):
    # states from O(1) to 1e160 with exact zeros: stages overflow or divide
    # by zero at every depth of the attempt
    fn = _compiled_rhs(system, 0.5)
    n = len(codegen.traced(fn).inputs)
    rng = random.Random(11)
    failed_after, raised = set(), set()
    for _ in range(600):
        scale = 10.0 ** rng.uniform(-3.0, 160.0)
        pick = (0.0, -0.0, 1.0, rng.uniform(-3.0, 3.0), rng.uniform(-scale, scale))
        y = [rng.choice(pick) for _ in range(n)]
        try:
            f = fn(0.0, y)
        except ZeroDivisionError:  # a zero slope keeps the zero in the stages
            f = [rng.choice((0.0, rng.uniform(-3.0, 3.0))) for _ in range(n)]
        h = 10.0 ** rng.uniform(-8.0, 3.0)
        (got, got_rhs), (want, want_rhs), stage_raised = _both_attempts(fn, y, f, h)
        assert got_rhs == want_rhs
        assert (want is None) == (got is None)
        if want is None:
            failed_after.add(want_rhs)
            raised.update(stage_raised)
        else:
            assert bits(list(got)) == bits(list(want))
    assert failed_after == {1, 2, 3, 4, 5, 6}
    assert raised


def test_a_collected_function_leaves_the_registry():
    fn = trace_function(lambda y: [y[0] * y[0]], 1, "<test collected>")
    key = id(fn)
    assert codegen.traced(fn) is not None and key in codegen._TRACES
    del fn
    gc.collect()
    assert key not in codegen._TRACES


# -- min and max as the builtins take them -------------------------------------


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        min_size=1,
        max_size=6,
    ),
    op=st.sampled_from(["<", ">"]),
)
def test_extremum_is_the_builtin_bit_for_bit(values, op):
    names = [f"x{j}" for j in range(len(values))]
    lines = [f"{', '.join(names)}, = xs", *codegen.extremum("m", names, op), "return m"]
    source = "def pick(xs):\n" + "".join(f"    {line}\n" for line in lines)
    pick = codegen.compile_function("pick", source, "<test extremum>", {})
    builtin = min if op == "<" else max
    assert bits(pick(values)) == bits(builtin(values))
