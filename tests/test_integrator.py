import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import codegen, integrator, trajectory
from solitonlab.integrator import EventSpec, IntegratorConfig, _error_norm, integrate

from conftest import comparison_ode_closed_form, load_shipped


def contracting_rhs(a):
    return lambda t, y: np.array([-a + y[0] ** 2 / 2.0])


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 8.0])
def test_tanh_closed_form_on_unit_interval(a):
    res = integrate(contracting_rhs(a), 0.0, [0.0], IntegratorConfig(t_max=5.0))
    assert res.termination == "reached_t_max"
    exact = comparison_ode_closed_form(a, 0.0, 0.0, 5.0)
    assert res.ys[-1][0] == pytest.approx(exact, abs=1e-9)


def test_spec_point_value():
    res = integrate(contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=1.0))
    assert res.ys[-1][0] == pytest.approx(-1.5231883119115297, abs=1e-9)


def test_rejected_attempt_keeps_the_accepted_slope():
    # a front at t = 1 forces rejections after accepted steps; each retry
    # must restart from the slope at the last accepted point.  A retry that
    # starts from the rejected attempt's last stage gives errors near 1.7e-8.
    k = 200.0
    res = integrate(
        lambda t, y: np.array([np.tanh(k * (t - 1.0))]),
        0.0,
        [0.0],
        IntegratorConfig(t_max=2.0, rel_tol=1e-10, abs_tol=1e-12),
    )
    assert res.n_rejected > 0
    exact = (np.log(np.cosh(k * (res.ts - 1.0))) - np.log(np.cosh(k))) / k
    assert np.max(np.abs(res.ys[:, 0] - exact)) <= 1e-9


def test_zero_rhs_is_constant():
    res = integrate(lambda t, y: np.zeros(3), 0.0, [1.0, -2.0, 0.5], IntegratorConfig(t_max=4.0))
    assert res.termination == "reached_t_max"
    np.testing.assert_array_equal(res.ys[-1], [1.0, -2.0, 0.5])


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 8.0])
def test_event_time_matches_closed_form_inversion(a):
    y_target = -0.5 * np.sqrt(2.0 * a)
    ev = EventSpec("target", lambda t, y: y[0] - y_target)
    res = integrate(contracting_rhs(a), 0.0, [0.0], IntegratorConfig(t_max=5.0, events=(ev,)))
    assert res.termination == "event:target"
    # the event point is the final sample
    t_exact = np.arctanh(0.5) / np.sqrt(a / 2.0)
    assert res.ts[-1] == pytest.approx(t_exact, abs=1e-9)
    assert res.ys[-1][0] == pytest.approx(y_target, abs=1e-9)


def test_event_reproducible_across_first_step_choices(monkeypatch):
    ev = EventSpec("target", lambda t, y: y[0] + 1.0)
    initial_step = integrator._initial_step
    times = []
    for h0 in (None, 1e-6, 3e-5, 1e-4):
        monkeypatch.setattr(integrator, "_initial_step", lambda *args: h0 or initial_step(*args))
        res = integrate(contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=5.0, events=(ev,)))
        times.append(res.ts[-1])
    assert max(times) - min(times) < 1e-9


def test_terminal_event_costs_one_step_beyond_its_steps():
    ev = EventSpec("target", lambda t, y: y[0] + 1.0)
    res = integrate(contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=5.0, events=(ev,)))
    # the same attempts without the event, stopped where the event run stopped
    plain = integrate(
        contracting_rhs(2.0),
        0.0,
        [0.0],
        IntegratorConfig(t_max=5.0, max_steps=res.n_accepted + res.n_rejected),
    )
    assert (plain.n_accepted, plain.n_rejected) == (res.n_accepted, res.n_rejected)
    assert res.n_rhs - plain.n_rhs <= 6
    assert len(res.ts) == res.n_accepted + 1


def test_terminal_event_falls_back_to_the_extension():
    # the final step to the event time raises, so the last sample is the
    # accepted step's continuous extension restricted to [t, t_event]
    ev = EventSpec("target", lambda t, y: y[0] + 1.0)
    cfg = IntegratorConfig(t_max=5.0, events=(ev,))
    ref = integrate(contracting_rhs(2.0), 0.0, [0.0], cfg)
    calls = []

    def failing_last_step(t, y):
        calls.append(t)
        if len(calls) > ref.n_rhs - 6:
            raise ValueError("stage outside the domain")
        return contracting_rhs(2.0)(t, y)

    res = integrate(failing_last_step, 0.0, [0.0], cfg)
    assert res.n_rhs == ref.n_rhs - 5  # the final step's first stage raised
    assert res.termination == "event:target"
    assert res.ts[-1] == ref.ts[-1]
    assert res.ys[-1][0] == pytest.approx(-1.0, abs=1e-9)
    np.testing.assert_array_equal(res.ts, ref.ts)
    # the last interval still follows the solution
    t = np.linspace(res.ts[-2], res.ts[-1], 9)
    exact = comparison_ode_closed_form(2.0, 0.0, 0.0, t)
    np.testing.assert_allclose(res.sample_at(t)[:, 0], exact, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.dys[-1], contracting_rhs(2.0)(0.0, res.ys[-1]), atol=1e-8)


def test_the_earliest_crossing_in_a_step_ends_the_run(monkeypatch):
    # y falls from 0 and passes -1 + 1e-9 just before -1: both events cross
    # in one step, and the earlier one ends the run whatever their order
    target = EventSpec("target", lambda t, y: y[0] + 1.0)
    marker = EventSpec("marker", lambda t, y: y[0] + 1.0 - 1e-9)
    refined, refine = [], integrator._refine_event
    monkeypatch.setattr(integrator, "_refine_event", lambda ev, *a: refined.append(ev) or refine(ev, *a))
    for events in ((target, marker), (marker, target)):
        refined.clear()
        res = integrate(contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=3.0, events=events))
        assert refined == list(events)
        assert res.termination == "event:marker"
        assert res.ys[-1][0] == pytest.approx(-1.0 + 1e-9, abs=1e-10)


def test_a_tie_goes_to_the_first_event_and_a_rise_is_no_crossing():
    # -y - 1 rises through zero where y + 1 falls through it
    first = EventSpec("first", lambda t, y: y[0] + 1.0)
    second = EventSpec("second", lambda t, y: y[0] + 1.0)
    rising = EventSpec("rising", lambda t, y: -y[0] - 1.0)
    cfg = IntegratorConfig(t_max=3.0, events=(rising, first, second))
    res = integrate(contracting_rhs(2.0), 0.0, [0.0], cfg)
    assert res.termination == "event:first"
    res = integrate(contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=3.0, events=(rising,)))
    assert res.termination == "reached_t_max"


def test_tolerance_halving_convergence():
    r1 = integrate(
        contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=5.0, rel_tol=1e-10, abs_tol=1e-12)
    )
    r2 = integrate(
        contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=5.0, rel_tol=5e-11, abs_tol=5e-13)
    )
    assert abs(r1.ys[-1][0] - r2.ys[-1][0]) < 10 * 1e-10


def test_bitwise_determinism():
    def run():
        return integrate(contracting_rhs(1.0), 0.0, [0.0], IntegratorConfig(t_max=5.0))

    a, b = run(), run()
    np.testing.assert_array_equal(a.ts, b.ts)
    np.testing.assert_array_equal(a.ys, b.ys)
    assert a.n_rhs == b.n_rhs


def test_dense_output_between_steps():
    # DP5's continuous extension; a cubic Hermite interpolant of the same
    # steps errs by 6.4e-8 here
    res = integrate(contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=5.0))
    t = np.linspace(0.0, 5.0, 999)[1:-1]
    exact = comparison_ode_closed_form(2.0, 0.0, 0.0, t)
    got = res.sample_at(t)
    assert got.shape == (997, 1)
    assert np.max(np.abs(got[:, 0] - exact)) <= 1e-9
    for i in (0, 411, 996):
        np.testing.assert_array_equal(res.sample_at(t[i]), got[i])
    np.testing.assert_array_equal(res.sample_at(res.ts[7]), res.ys[7])
    with pytest.raises(ValueError, match="span"):
        res.sample_at(7.0)


def test_max_steps_reports_step_failure():
    res = integrate(contracting_rhs(2.0), 0.0, [0.0], IntegratorConfig(t_max=5.0, max_steps=3))
    assert res.termination == "step_failure"
    assert res.n_accepted + res.n_rejected <= 3


def test_sample_at_start_when_no_step_was_accepted(monkeypatch):
    monkeypatch.setattr(integrator, "_initial_step", lambda *args: 5.0)
    cfg = IntegratorConfig(t_max=5.0, max_steps=1)
    res = integrate(contracting_rhs(8.0), 0.0, [0.5], cfg)
    assert (res.n_accepted, len(res.ts)) == (0, 1)
    np.testing.assert_array_equal(res.sample_at(0.0), [0.5])
    np.testing.assert_array_equal(res.sample_at([0.0, 0.0]), [[0.5], [0.5]])


def test_validity_callback_flags_invalid_state():
    # flow into y = 0 from above with a validity requirement y > 0.5:
    # steps get rejected and the run ends as state_invalid
    rhs = lambda t, y: np.array([-1.0])
    cfg = IntegratorConfig(t_max=10.0, validity=lambda y: bool(y[0] > 0.5))
    res = integrate(rhs, 0.0, [1.0], cfg)
    assert res.termination == "state_invalid"
    assert res.ys[-1][0] > 0.4


def test_stats_are_counted():
    res = integrate(contracting_rhs(8.0), 0.0, [0.0], IntegratorConfig(t_max=5.0))
    assert res.n_accepted == len(res.ts) - 1
    assert res.n_rhs >= 6 * res.n_accepted


@pytest.mark.parametrize(
    "slope, cause",
    [(lambda y: [1.0 / (y[0] - y[0])], "division by zero"), (lambda y: [float("nan")], "not finite")],
)
def test_a_launch_state_outside_the_rhs_domain_is_named(slope, cause):
    # a stage would reject such a state; at the launch state nothing can
    with pytest.raises(ArithmeticError, match=rf"launch state t = 0\.25 \(.*{cause}.*\).*'initial'"):
        integrate(lambda t, y: slope(y), 0.25, [1.0], IntegratorConfig(t_max=1.0))


def test_config_guards():
    with pytest.raises(ValueError, match="tolerances"):
        IntegratorConfig(t_max=1.0, rel_tol=0.0)
    with pytest.raises(ValueError, match="positive"):
        IntegratorConfig(t_max=-1.0)


@pytest.mark.parametrize("t_max", [0.25, 0.125])
def test_a_horizon_at_or_before_the_start_is_refused(t_max):
    # a run with no interval would be the start alone, reached_t_max
    with pytest.raises(ValueError, match="t_max"):
        integrate(contracting_rhs(2.0), 0.25, [0.0], IntegratorConfig(t_max=t_max))


def _error_norm_oracle(err, y_old, y_new, rtol, atol):
    """The step error norm as first written, kept as the reference."""
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


_finite = st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    vecs=st.integers(1, 16).flatmap(
        lambda n: st.tuples(*(st.lists(_finite, min_size=n, max_size=n) for _ in range(3)))
    ),
    rtol=st.floats(1e-14, 1e-2),
    atol=st.floats(1e-300, 1e-2),
)
def test_error_norm_is_bitwise_the_reference(vecs, rtol, atol):
    err, y_old, y_new = (np.array(v) for v in vecs)
    with np.errstate(over="ignore"):
        got = _error_norm(err, y_old, y_new, rtol, atol)
        want = _error_norm_oracle(err, y_old, y_new, rtol, atol)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _wrapped(fn):
    """fn behind a functools.wraps wrapper (which copies fn's attributes)
    that counts its calls, as a profiler would wrap it."""
    calls = []

    @functools.wraps(fn)
    def wrapper(t, y):
        calls.append(t)
        return fn(t, y)

    return wrapper, calls


def _same_run(a, b):
    assert (a.termination, a.n_accepted, a.n_rejected, a.n_rhs) == (
        b.termination, b.n_accepted, b.n_rejected, b.n_rhs,
    )
    for name in ("ts", "ys", "dys", "dense"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_compiled_rhs_is_inlined_and_a_wrapped_one_is_called(monkeypatch):
    # y' = y^2 from y = 1e100 blows up at t = 1e-100: every attempt's
    # stages overflow, until the step falls below its floor
    fn = codegen.trace_function(lambda y: [y[0] * y[0], 0.5 * y[1]], 2, "<test blow-up>")
    wrapper, calls = _wrapped(fn)
    kernels, original = [], integrator._dp_kernel
    monkeypatch.setattr(integrator, "_dp_kernel", lambda *key: kernels.append(key) or original(*key))
    monkeypatch.setattr(integrator, "_initial_step", lambda *args: 1.0)
    cfg = IntegratorConfig(t_max=2.0)
    inlined = integrate(fn, 0.0, [1e100, 1.0], cfg)
    called = integrate(wrapper, 0.0, [1e100, 1.0], cfg)
    assert kernels == [(2, codegen.traced(fn)), (2, None)]
    assert called.termination == "step_failure" and called.n_rejected > 20
    assert called.n_rhs == len(calls)
    _same_run(inlined, called)


def test_a_wrapped_rhs_is_called_once_per_counted_evaluation(monkeypatch):
    # a run that ends in an event, so the last step is the extra attempt to
    # the event time
    spec = load_shipped("ts_exit_einstein.json").spec
    inlined = trajectory.solve_problem(spec, t_max=20.0).result
    wrapped = []
    factory = trajectory.make_vector_rhs

    def wrapping_factory(ansatz, eps):
        wrapped.append(_wrapped(factory(ansatz, eps)))
        return wrapped[-1][0]

    monkeypatch.setattr(trajectory, "make_vector_rhs", wrapping_factory)
    called = trajectory.solve_problem(spec, t_max=20.0).result
    assert called.termination == "event:shape_exit"
    assert called.n_rhs == len(wrapped[0][1])
    _same_run(inlined, called)


@pytest.mark.parametrize("after", [0.0, -0.0])
def test_an_event_that_lands_exactly_on_zero_is_a_crossing(after):
    # the crossing test at accepted points is skipped only for a value
    # above 0; a value of exactly zero still counts
    ev = EventSpec("step", lambda t, y: 1.0 if t < 0.5 else after)
    res = integrate(lambda t, y: [1.0], 0.0, [0.0], IntegratorConfig(t_max=1.0, events=(ev,)))
    assert res.termination == "event:step"
    assert res.ts[-1] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("event", [False, True])
def test_a_sink_gets_each_full_block_of_final_samples(event):
    # a shipped run, one ending at an event too: the blocks are the
    # result's first rows, in order, and the run is the one without a sink
    spec = load_shipped("ts_exit_einstein.json" if event else "dw_complete_steady.json").spec
    blocks = []

    def sink(ts, ys):
        blocks.append((ts.tobytes(), ys.tobytes()))

    with_sink = trajectory.solve_problem(spec, t_max=100.0, sink=sink)
    plain = trajectory.solve_problem(spec, t_max=100.0)
    _same_run(with_sink.result, plain.result)
    assert with_sink.termination.startswith("event:") == event
    block = integrator._SINK_BLOCK
    assert len(blocks) == len(plain.ts) // block > 0
    n = plain.result.ys.shape[1]
    ts, ys = plain.ts[: len(blocks) * block], plain.result.ys[: len(blocks) * block]
    assert b"".join(t for t, _ in blocks) == ts.tobytes()
    assert b"".join(y for _, y in blocks) == ys.tobytes()
    assert {len(t) for t, _ in blocks} == {8 * block} and {len(y) for _, y in blocks} == {8 * block * n}
