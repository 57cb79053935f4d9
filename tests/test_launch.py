import numpy as np
import pytest

from solitonlab.launch import _series_state, default_delta, launch
from solitonlab.systems import (
    DancerWangAnsatz,
    LuPagePopeAnsatz,
    ProblemSpec,
    TwoSummandsAnsatz,
    conservation_residual,
    u_dotdot_stable,
)
from solitonlab.trajectory import solve_problem

HOPF = TwoSummandsAnsatz(3, 4, 6.0, 48.0, 12.0)


def residual_at(state, spec):
    return conservation_residual(state, u_dotdot_stable(state, spec.ansatz, spec.epsilon), spec)


def test_two_summands_series_values():
    spec = ProblemSpec(TwoSummandsAnsatz(3, 4, 6.0, 8.0, 3.0), 0.0, -2.0, (1.0,))
    st = _series_state(spec, 1e-3)
    assert st.u == pytest.approx(-2.5e-7, rel=1e-12)
    assert st.du == pytest.approx(-5e-4, rel=1e-12)
    assert st.f[0] == 1e-3 and st.df[0] == 1.0
    # fddot2(0) = (A2/d2)/ (d1+1) for fbar = 1, eps = 0
    spec0 = ProblemSpec(TwoSummandsAnsatz(3, 4, 6.0, 8.0, 3.0), 0.0, 0.0, (1.0,))
    st0 = _series_state(spec0, 1e-3)
    assert st0.f[1] == pytest.approx(1.0 + 2.5e-7, rel=1e-12)
    assert st0.u == 0.0 and st0.du == 0.0  # Einstein seed


def test_dancer_wang_series_values():
    spec = ProblemSpec(DancerWangAnsatz((2,), (2,), (1,)), 0.0, -1.0, (2.0,))
    st = _series_state(spec, 1e-3)
    assert st.f[1] == pytest.approx(2.0 * (1.0 + 1.25e-7), rel=1e-13)
    assert st.du == pytest.approx(-0.5e-3, rel=1e-12)
    assert st.u == pytest.approx(-2.5e-7, rel=1e-12)


def test_lpp_series_values():
    spec = ProblemSpec(LuPagePopeAnsatz(2, 2, 1, 3), 0.0, -1.0, (1.0, 1.0))
    st = _series_state(spec, 1e-3)
    assert st.f[2] == pytest.approx(1.0 + 5e-7, rel=1e-13)
    # d2 = 1 keeps the warped factor flat through this order
    spec1 = ProblemSpec(LuPagePopeAnsatz(2, 2, 1, 1), 0.0, -1.0, (1.0, 1.0))
    st1 = _series_state(spec1, 1e-3)
    assert st1.f[2] == 1.0 and st1.df[2] == 0.0


def test_parity_scaling():
    spec = ProblemSpec(HOPF, 0.0, -1.0, (1.0,))
    small, large = (_series_state(spec, d) for d in (1e-4, 2e-4))
    # odd component vanishes linearly, even components' derivatives vanish linearly
    assert large.f[0] / small.f[0] == pytest.approx(2.0, rel=1e-12)
    assert large.df[1] / small.df[1] == pytest.approx(2.0, rel=1e-12)
    assert (large.f[1] - 1.0) / (small.f[1] - 1.0) == pytest.approx(4.0, rel=1e-6)
    assert large.u / small.u == pytest.approx(4.0, rel=1e-9)


def test_ratio_slope_at_launch():
    spec = ProblemSpec(DancerWangAnsatz((2,), (2,), (1,)), 0.0, -1.0, (2.0,))
    st = _series_state(spec, 1e-4)
    omega = st.f[0] / st.f[1]
    domega = omega * (st.df[0] / st.f[0] - st.df[1] / st.f[1])
    assert omega == pytest.approx(1e-4 / 2.0, rel=1e-6)
    assert domega == pytest.approx(1.0 / 2.0, rel=1e-6)


def test_projection_zeroes_the_first_integral():
    cases = [
        ProblemSpec(HOPF, 0.0, -1.0, (1.0,)),
        ProblemSpec(HOPF, 1.0, -10.0, (0.7,)),
        ProblemSpec(DancerWangAnsatz((2, 2), (2, 3), (1, -2)), 1.0, -2.0, (1.0, 1.3)),
        ProblemSpec(LuPagePopeAnsatz(2, 2, 1, 3), 0.0, -1.0, (1.0, 1.0)),
    ]
    for spec in cases:
        st = launch(spec)
        assert abs(residual_at(st, spec)) < 1e-10
        # the projection is an O(delta^2)-relative nudge of the series data
        raw = _series_state(spec, default_delta(spec))
        assert st.df[0] == pytest.approx(raw.df[0], rel=1e-4)
        assert st.du == pytest.approx(raw.du, rel=1e-4, abs=1e-10)


def test_circle_fibre_series_residual_order():
    # without projection the circle-fibre series already satisfies the first
    # integral to O(delta^2)
    spec = ProblemSpec(DancerWangAnsatz((2,), (2,), (1,)), 0.0, -1.0, (2.0,))
    r1 = abs(residual_at(_series_state(spec, 1e-3), spec))
    r2 = abs(residual_at(_series_state(spec, 1e-4), spec))
    assert r2 < r1 * 0.05


def test_launch_guards():
    spec = ProblemSpec(HOPF, 0.0, -1.0, (1.0,))
    with pytest.raises(ValueError, match="delta"):
        launch(spec, delta=-1e-3)


def test_default_delta_scales_with_smallest_size():
    assert default_delta(ProblemSpec(HOPF, 0.0, -1.0, (0.5,))) == pytest.approx(5e-4)
    spec_dw = ProblemSpec(DancerWangAnsatz((2,), (2,), (1,)), 0.0, -1.0, (3.0,))
    assert default_delta(spec_dw) == pytest.approx(1e-4)


def test_lpp_launch_equals_degenerate_dancer_wang_launch():
    lpp_spec = ProblemSpec(LuPagePopeAnsatz(2, 2, 1, 3), 1.0, -2.0, (1.0, 1.5))
    dw_spec = ProblemSpec(lpp_spec.ansatz.as_dancer_wang(), 1.0, -2.0, (1.0, 1.5))
    a = launch(lpp_spec, 1e-4)
    b = launch(dw_spec, 1e-4)
    np.testing.assert_allclose(a.f, b.f, rtol=1e-12)
    np.testing.assert_allclose(a.df, b.df, rtol=1e-10)
    assert a.du == pytest.approx(b.du, rel=1e-10)


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(HOPF, 0.0, -1.0, (1.0,)),
        ProblemSpec(DancerWangAnsatz((2,), (2,), (-2,)), 0.0, -2.0, (1.0,)),
        ProblemSpec(LuPagePopeAnsatz(2, 2, 1, 3), 1.0, -1.0, (1.0, 1.0)),
    ],
    ids=["two_summands", "dancer_wang", "lpp"],
)
def test_richardson_consistency(spec):
    # halving delta must not move the state at the checkpoint beyond a small
    # multiple of the integration tolerance; a wrong series shows up orders
    # of magnitude above this
    rtol, atol = 1e-9, 1e-11
    delta = default_delta(spec)
    ends = []
    for d in (delta, delta / 2):
        traj = solve_problem(spec, t_max=0.1, rel_tol=rtol, abs_tol=atol, delta=d)
        assert traj.reached_horizon
        ends.append(traj.result.ys[-1])
    scale = 1.0 + np.max(np.abs(ends[0]))
    assert np.max(np.abs(ends[0] - ends[1])) <= 10 * (rtol * scale + atol)
