import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab.geometry import scalar_curvature
from solitonlab.launch import launch
from solitonlab.monitors import classify_completeness, dw_apriori_monitor
from solitonlab.runio import _jsonable, build_report, load_config, run_solve
from solitonlab.systems import (
    DancerWangAnsatz,
    ProblemSpec,
    TwoSummandsAnsatz,
    flow_ansatz,
    make_vector_rhs,
    pack_state,
)
from solitonlab import rescaled, trajectory
from solitonlab.trajectory import solve_problem, standard_events

from conftest import (
    SHIPPED_CONFIG_NAMES,
    compiled_dw_margin,
    invariant_margin_fn,
    load_shipped,
    u_second_derivative_identity,
)
from oracles.structure import decomposition, killing_curvature_bound


def test_samples_are_strictly_increasing_and_valid(shipped_runs):
    for name, traj in shipped_runs.items():
        assert np.all(np.diff(traj.ts) > 0), name
        assert np.all(traj.f > 0), name


def test_scalar_curvature_bound_along_trajectories(shipped_runs):
    # tr r <= (1/2) sum d_i b_i / f_i^2 with the ansatz's encoded Killing data
    for name in ("ts_complete_steady.json", "dw_complete_steady.json", "lpp_e1_c10.json"):
        traj = shipped_runs[name]
        dec = decomposition(flow_ansatz(traj.spec.ansatz))
        for st in traj.states[:: max(1, len(traj.states) // 200)]:
            bound = killing_curvature_bound(dec, st.f**2)
            assert scalar_curvature(dec, st.f**2) <= bound + 1e-10 * (1 + abs(bound))


def test_uddot_identity_along_trajectory(shipped_runs):
    traj = shipped_runs["ts_e0_c1.json"]
    ident = u_second_derivative_identity(traj.samples, traj.spec)
    udd = traj.columns["udd"]
    assert np.all(np.abs(ident - 2.0 * udd) <= 1e-8 * (1.0 + 2.0 * np.abs(udd)))


@pytest.mark.parametrize("name", ["ts_e1_c1.json", "dw_e1_c1.json", "lpp_e1_c1.json"])
def test_samples_match_an_independent_integrator(name):
    # scipy's DOP853 at rtol 1e-13 from the same launch state.  The solver
    # runs at rel_tol 1e-11; its global error over t <= 2 was measured at
    # up to 3.8e-9 (1 + |y|) and shrinks with its tolerance, so 1e-7 leaves
    # a wide margin while any defect in the stepper lands far above it.
    scipy_integrate = pytest.importorskip("scipy.integrate")
    cfg = load_shipped(name)
    spec = cfg.spec
    traj = solve_problem(spec, t_max=2.0, rel_tol=1e-11, abs_tol=1e-13, delta=cfg.launch_delta)
    assert traj.reached_horizon
    y0 = pack_state(launch(spec, traj.delta))
    np.testing.assert_array_equal(traj.result.ys[0], y0)
    ref = scipy_integrate.solve_ivp(
        make_vector_rhs(spec.ansatz, spec.epsilon),
        (traj.ts[0], 2.0),
        y0,
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        t_eval=traj.ts,
    )
    assert ref.success
    y_ref = ref.y.T
    assert np.max(np.abs(traj.result.ys - y_ref) / (1.0 + np.abs(y_ref))) <= 1e-7


def test_event_set_matches_ansatz():
    hopf = ProblemSpec(TwoSummandsAnsatz(3, 4, 6.0, 48.0, 12.0), 0.0, -1.0, (1.0,))
    names = [e.name for e in standard_events(hopf)]
    assert names == ["shape_exit", "invariant_exit", "overflow"]
    # no ratio window exists when the discriminant is negative
    bad = ProblemSpec(TwoSummandsAnsatz(2, 2, 2.0, 2.0, 1.0), 0.0, 0.0, (1.0,))
    assert "invariant_exit" not in [e.name for e in standard_events(bad)]


# one solver run that ends on each event the two charts install, and the
# verdict of the physical ones
EVENT_RUNS = {
    "shape_exit": (lambda runs: runs["ts_exit_einstein.json"], "invariant_set_exit"),
    "invariant_exit": (
        lambda runs: solve_problem(
            ProblemSpec(DancerWangAnsatz((2, 2), (2, 2), (1, 1)), 0.0, -1.0, (1.0, 1.0)), t_max=10.0
        ),
        "invariant_set_exit",
    ),
    # a strongly expanding run whose metric grows past 1e12 by t = 6.8
    "overflow": (
        lambda runs: solve_problem(
            ProblemSpec(DancerWangAnsatz((4,), (5,), (3,)), 100.0, 0.0, (100.0,)), t_max=10.0
        ),
        "inconclusive",
    ),
    "t_target": (
        lambda runs: rescaled.solve_rescaled(load_shipped("dw_m2_chart.json").spec, t_max=10.0),
        None,
    ),
    # the flow keeps every Y_i and Lc positive; only a step far too long
    # for the solution, here at tolerance 1, overshoots one through zero
    "chart_degenerate": (
        lambda runs: rescaled.solve_rescaled(
            ProblemSpec(DancerWangAnsatz((2,), (2,), (1,)), 0.0, -50.0, (0.5,)),
            t_max=10.0, rel_tol=1.0, abs_tol=1.0,
        ),
        None,
    ),
}


@pytest.mark.parametrize("event", EVENT_RUNS)
def test_each_event_ends_a_run(shipped_runs, event):
    run, verdict = EVENT_RUNS[event]
    traj = run(shipped_runs)
    assert traj.result.termination == f"event:{event}"
    if verdict is not None:
        assert classify_completeness(traj).kind == verdict


def test_sweep_shows_verdict_boundary_in_C():
    # weakly negative constants exit the preserved set, strongly negative
    # ones survive the horizon
    a = DancerWangAnsatz((2, 2), (2, 2), (1, 1))
    weak = solve_problem(ProblemSpec(a, 0.0, -1.0, (1.0, 1.0)), t_max=50.0)
    strong = solve_problem(ProblemSpec(a, 0.0, -50.0, (1.0, 1.0)), t_max=50.0)
    assert classify_completeness(weak).kind in ("invariant_set_exit", "metric_degenerate")
    assert classify_completeness(strong).kind == "numerically_complete"
    assert dw_apriori_monitor(strong).bound_ok_throughout


def test_report_embeds_anchor_strings(shipped_runs, tmp_path):
    cfg = load_config(
        {
            "system": "dancer_wang",
            "ansatz": {"d": [2], "p": [2], "q": [-2]},
            "epsilon": 0.0,
            "C": -2.0,
            "initial": [1.0],
            "integrator": {"t_max": 2.0},
        }
    )
    run_solve(cfg, str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"], "report must list its checks"
    for entry in report["checks"]:
        assert entry.get("anchor"), entry
    assert "kahler" in report and "a_priori_bounds" in report


@pytest.mark.parametrize("name", SHIPPED_CONFIG_NAMES)
def test_every_check_carries_its_payload_anchor(shipped_runs, name):
    traj = shipped_runs.get(name)
    if traj is None:
        cfg = load_shipped(name)
        traj = solve_problem(
            cfg.spec, t_max=cfg.t_max, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, delta=cfg.launch_delta
        )
    report = json.loads(json.dumps(_jsonable(build_report(traj))))
    for entry in report["checks"]:
        anchor = report[entry["name"]]["anchor"]
        assert isinstance(anchor, str) and entry["anchor"] == anchor, entry


# (accepted steps, rejected attempts, right-hand-side calls) at t_max = 100:
# the stepper's rounding may move, its step sequence may not
COMPLETE_STEADY_COUNTS = {
    "ts_complete_steady.json": (2772, 2, 16646),
    "dw_complete_steady.json": (3415, 2, 20504),
    "lpp_complete_steady.json": (2269, 2, 13628),
}


@pytest.mark.parametrize("name", COMPLETE_STEADY_COUNTS)
def test_complete_steady_step_counts(name, shipped_runs):
    res = shipped_runs[name].result
    assert (res.n_accepted, res.n_rejected, res.n_rhs) == COMPLETE_STEADY_COUNTS[name]


def dw_margin_oracle(w_bounds, c0):
    """The circle-bundle margin as first written, as a closure over
    generators, kept as the reference for the compiled one."""
    m = len(w_bounds)

    def margin(t, y):
        f = y[0]
        g = y[1 : m + 1]
        m_w = min(b - (f / gi) * (f / gi) for b, gi in zip(w_bounds, g))
        if m == 1:
            return m_w
        return min(m_w, min(c0 - gi / gj for gi in g for gj in g))

    return margin


_margin_value = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(1e-3, 1e200),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    m=st.integers(1, 3),
    bounds=st.lists(st.one_of(st.floats(0.0, 10.0), st.just(math.inf)), min_size=3, max_size=3),
    c0=st.floats(1.0, 5.0),
    y=st.lists(_margin_value, min_size=7, max_size=7),
)
def test_dw_margin_is_the_closure_on_floats_and_arrays(m, bounds, c0, y):
    # the compiled margin the events used before the invariant table, now
    # the oracle of the table's events, against the first closure
    got, want = compiled_dw_margin(bounds[:m], c0), dw_margin_oracle(bounds[:m], c0)
    y = y[: 2 * m + 4]
    try:
        expected = want(0.0, y)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            got(0.0, y)
    else:
        value = got(0.0, y)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
    arr = np.array(y)  # the continuous extension's states
    with np.errstate(all="ignore"):
        value, expected = got(0.0, arr), want(0.0, arr)
    assert type(value) is type(expected)
    assert np.float64(value).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("m", [2, 3])
def test_dw_margin_keeps_the_two_minima_apart(m):
    # g1 = inf: the first pair candidate c0 - g1/g1 is NaN, so the pair
    # minimum is NaN and min(m_w, NaN) is m_w = 4; one flat minimum would
    # go on to c0 - g1/g2 = -inf
    bounds, c0 = [5.0] * m, 2.0
    y = [1.0, math.inf] + [1.0] * (m - 1) + [0.0] * (m + 3)
    for state in (y, np.array(y)):
        with np.errstate(invalid="ignore"):
            got = compiled_dw_margin(bounds, c0)(0.0, state)
            want = dw_margin_oracle(bounds, c0)(0.0, state)
        assert got == want == 4.0


def test_dw_event_margin_is_compiled_from_the_spec():
    spec = load_shipped("dw_complete_steady.json").spec
    a = spec.ansatz
    c0 = trajectory.dw_pair_bound_constant(a, spec.initial)
    want = dw_margin_oracle(trajectory.dw_omega_sq_bounds(a, c0).tolist(), c0)
    (event,) = [e for e in standard_events(spec) if e.name == "invariant_exit"]
    for y in ([1.0, 0.5, 2.0, 0, 0, 0, 0, 0], [0.3, 1.0, 0.01, 0, 0, 0, 0, 0]):
        assert event.fn(0.0, y) == want(0.0, y)


# -- the compiled standard events and validity tests ---------------------------


def state_test_oracles(k, chart):
    """The events and the validity test as first written, closures over
    slices and builtins, kept as the reference for the compiled ones: those
    of the physical chart for k = len(dims), those of the compact chart for
    k = m + 1.  shape_exit is compiled per ansatz from the invariant table
    and has its own test, against the same closure."""

    def overflow(t, y):
        return 1e12 - max(map(abs, y))

    if chart:
        events = {"chart_degenerate": lambda s, y: min(y[k : 2 * k + 1]), "overflow": overflow}
        return events, lambda y: all(map(math.isfinite, y))
    return {"overflow": overflow}, lambda y: all(map(math.isfinite, y)) and min(y[:k]) > 0.0


def compiled_state_tests(k, chart):
    """The compiled events and validity test that ``standard_events`` and
    ``solve_problem`` (or ``solve_rescaled``) use for k components."""
    if chart:
        n = 2 * k + 3
        events = {"chart_degenerate": trajectory._min_of(k, 2 * k + 1)}
        return events | {"overflow": trajectory._overflow(n)}, trajectory._validity(n, 0)
    n = 2 * k + 2
    return {"overflow": trajectory._overflow(n)}, trajectory._validity(n, k)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ts and dw m = 1 have k = 2 components, lpp and dw m = 2 have 3, dw m = 3
# has 4; the compact chart of dw m has k = m + 1
_SHAPES = [(k, False) for k in (2, 3, 4)] + [(m + 1, True) for m in (1, 2, 3)]
# a small pool makes ties, signed zeros and non-finite values common
_state_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.mark.parametrize("k, chart", _SHAPES)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_compiled_state_tests_are_the_closures_bit_for_bit(k, chart, data):
    n = 2 * k + 3 if chart else 2 * k + 2
    y = data.draw(st.lists(_state_value, min_size=n, max_size=n))
    events, validity = compiled_state_tests(k, chart)
    oracles, validity_oracle = state_test_oracles(k, chart)
    assert events.keys() == oracles.keys()
    for name, fn in events.items():
        assert_same_bits(fn(0.0, y), oracles[name](0.0, y))
        arr = np.array(y)  # the continuous extension's states
        assert_same_bits(fn(0.0, arr), oracles[name](0.0, arr))
    assert validity(y) is validity_oracle(y)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0],
        [-0.0, 0.0],
        [math.nan, 1.0],
        [1.0, math.nan],
        [1.0, math.nan, -1.0],
        [-0.0, 1.0, 0.0, -0.0],
        [math.inf, -math.inf, -math.inf],
    ],
)
def test_compiled_minimum_breaks_ties_and_nans_as_min(values):
    k = len(values)
    fn = trajectory._min_of(0, k)
    y = values + [1.0] * (k + 2)
    for state in (y, np.array(y)):
        assert_same_bits(fn(0.0, state), min(state[:k]))


def _row_spec(name):
    if name == "dw_m3":
        a = DancerWangAnsatz((2, 4, 2), (1, 2, 3), (1, -1, 2))
        return ProblemSpec(a, 0.0, -1.0, (1.0, 0.7, 1.3))
    return load_shipped(name).spec


# the validity test lets the events see only metric components that are
# finite and positive, and the preserved sets read no others; the shape row
# reads the rest, drawn from the whole pool above
_positive_value = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


# ts, lpp, and dw with m = 1, 2 and 3
@pytest.mark.parametrize(
    "name", ["ts_e0_c1.json", "lpp_e0_c1.json", "dw_e0_c1.json", "dw_m2_chart.json", "dw_m3"]
)
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_invariant_events_are_the_oracle_margins_bit_for_bit(name, data):
    spec = _row_spec(name)
    k = len(spec.ansatz.dims)
    y = data.draw(st.lists(_positive_value, min_size=k, max_size=k))
    y += data.draw(st.lists(_state_value, min_size=k + 2, max_size=k + 2))
    events = {e.name: e.fn for e in standard_events(spec)}
    margin = invariant_margin_fn(spec)
    with np.errstate(all="ignore"):
        for state in (y, np.array(y)):  # accepted points, the continuous extension
            assert_same_bits(events["shape_exit"](0.0, state), min(state[k : 2 * k]))
            assert_same_bits(events["invariant_exit"](0.0, state), margin(0.0, state))


def test_invariant_events_are_compiled_once_per_ansatz_and_sizes():
    spec = load_shipped("dw_m2_chart.json").spec
    events = standard_events(spec)[:2]
    assert [e.name for e in events] == ["shape_exit", "invariant_exit"]
    for other in (spec.with_C(-7.0), ProblemSpec(spec.ansatz, 1.0, spec.C, spec.initial)):
        assert all(a.fn is b.fn for a, b in zip(events, standard_events(other)[:2]))
    resized = ProblemSpec(spec.ansatz, spec.epsilon, spec.C, (2.0, 1.0))
    assert standard_events(resized)[1].fn is not events[1].fn


def test_invariant_events_read_the_sizes_only_through_c0():
    # the two-summands and lpp rows read no orbit size; a dw row reads them
    # through c0 alone, which is 1 for one factor whatever g1
    resizes = {"ts_e0_c1.json": (2.5,), "lpp_e0_c1.json": (2.0, 0.5), "dw_e0_c1.json": (3.0,)}
    for name, initial in resizes.items():
        spec = load_shipped(name).spec
        resized = ProblemSpec(spec.ansatz, spec.epsilon, spec.C, initial)
        assert all(a.fn is b.fn for a, b in zip(standard_events(spec), standard_events(resized)))
    # two factors: the larger ratio g1/g2 or g2/g1 sets c0, so swapping sizes keeps it
    a = load_shipped("dw_m2_chart.json").spec.ansatz
    specs = [ProblemSpec(a, 0.0, -1.0, sizes) for sizes in ((2.0, 1.0), (1.0, 2.0), (3.0, 1.0))]
    c0 = [trajectory.dw_pair_bound_constant(a, spec.initial) for spec in specs]
    events = [standard_events(spec)[1].fn for spec in specs]
    assert c0[0] == c0[1] and events[0] is events[1]
    assert c0[0] != c0[2] and events[0] is not events[2]


def test_specs_with_one_component_count_share_the_compiled_tests(monkeypatch):
    from solitonlab import integrator

    configs = []

    def capture(rhs, t0, y0, cfg):
        configs.append(cfg)
        return integrator.integrate(rhs, t0, y0, cfg)

    monkeypatch.setattr(trajectory, "integrate", capture)
    monkeypatch.setattr(rescaled, "integrate", capture)
    # ts and dw m = 1 both have k = 2; dw_kahler and dw_e1_c10 are dw m = 1
    names = ("ts_e0_c1.json", "dw_e1_c10.json", "dw_kahler.json")
    specs = [load_shipped(name).spec for name in names]
    for spec in specs:
        solve_problem(spec, t_max=0.01)
    for spec in specs[1:]:
        rescaled.solve_rescaled(spec, t_max=0.01)
    phys, chart = configs[:3], configs[3:]
    for cfgs, (k, is_chart) in ((phys, (2, False)), (chart, (2, True))):
        events, validity = compiled_state_tests(k, is_chart)
        for cfg in cfgs:
            assert cfg.validity is validity
            by_name = {ev.name: ev.fn for ev in cfg.events}
            for name, fn in events.items():
                assert by_name[name] is fn
