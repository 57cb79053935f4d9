import dataclasses

import numpy as np
import pytest

from solitonlab import rescaled as R
from solitonlab.launch import launch
from solitonlab.systems import (
    DancerWangAnsatz,
    ProblemSpec,
    SolitonState,
    make_vector_rhs,
    pack_state,
    tr_L,
)

from conftest import solve_both_charts

DW1 = DancerWangAnsatz((2,), (2,), (-2,))
SPEC1 = ProblemSpec(DW1, 0.0, -2.0, (1.0,))


def rescaled_rates(r, a, eps):
    """(dX/ds, dY/ds, dLc/ds) at one compact-chart state from the
    right-hand side the integrator runs."""
    k = a.m + 1
    y = np.concatenate((r.X, r.Y, [r.Lc, r.t, r.u])).tolist()
    out = R.make_rescaled_vector_rhs(a, eps)(r.s, y)
    return np.array(out[:k]), np.array(out[k : 2 * k]), out[2 * k]


# the image of the singular orbit: X_0 = Y_0 = 1, X_1 = Y_1 = 0, Lc = 0
CRITICAL_POINT = R.RescaledState(X=[1.0, 0.0], Y=[1.0, 0.0], Lc=0.0, s=0.0, t=0.0, u=0.0)


def random_moving_state(rng, m):
    return SolitonState(
        1.0,
        rng.uniform(0.5, 2.0, m + 1),
        rng.uniform(0.05, 1.0, m + 1),
        rng.uniform(-1.0, 0.0),
        rng.uniform(-1.5, -0.1),
    )


def test_manufactured_coordinates():
    st = SolitonState(1.0, [1.0, 2.0], [0.5, 0.25], -0.3, -1.0)
    r = R.to_rescaled(st, SPEC1)
    assert tr_L(st, DW1) == pytest.approx(0.75)
    assert r.Lc == pytest.approx(1.0 / 1.75, rel=1e-15)
    assert r.X[0] == pytest.approx(0.5 / 1.75, rel=1e-15)


def test_round_trip():
    rng = np.random.default_rng(20)
    for _ in range(50):
        st = random_moving_state(rng, 1)
        back = R.from_rescaled(R.to_rescaled(st, SPEC1), DW1)
        np.testing.assert_allclose(back.f, st.f, rtol=1e-13)
        np.testing.assert_allclose(back.df, st.df, rtol=1e-13)
        assert back.du == pytest.approx(st.du, rel=1e-13)


def test_round_trip_preconditions():
    st = SolitonState(1.0, [1.0, 1.0], [-1.0, -1.0], 0.0, 1.0)
    with pytest.raises(ValueError, match="tr L"):
        R.to_rescaled(st, SPEC1)
    bad = R.RescaledState(X=[1.0, 0.0], Y=[1.0, 0.0], Lc=0.0, s=0.0, t=0.0, u=0.0)
    with pytest.raises(ValueError, match="positive"):
        R.from_rescaled(bad, DW1)


def test_singular_seed_is_the_critical_point():
    cp = CRITICAL_POINT
    dX, dY, dLc = rescaled_rates(cp, DW1, 0.0)
    assert max(np.max(np.abs(dX)), np.max(np.abs(dY)), abs(dLc)) <= 1e-12
    # the launch state maps within O(delta) of it
    for delta in (1e-3, 1e-4):
        r0 = R.to_rescaled(launch(SPEC1, delta), SPEC1)
        dist = max(np.max(np.abs(r0.X - cp.X)), np.max(np.abs(r0.Y - cp.Y)), abs(r0.Lc))
        assert dist <= 3.0 * delta


def test_lc_growth_is_positive_off_equilibrium():
    rng = np.random.default_rng(21)
    for _ in range(20):
        st = random_moving_state(rng, 1)
        r = R.to_rescaled(st, SPEC1)
        _, _, dLc = rescaled_rates(r, DW1, 0.0)
        # eps = 0: dLc/ds = Lc sum d_j X_j^2 > 0 whenever the shape operator moves
        assert dLc > 0


def test_chain_rule_against_physical_flow():
    rng = np.random.default_rng(22)
    for m, q in ((1, (-2,)), (2, (1, -2))):
        a = DancerWangAnsatz((2,) * m, (2,) * m, q)
        spec = ProblemSpec(a, 0.0, -1.0, (1.0,) * m)
        for eps in (0.0, 0.7):
            for _ in range(15):
                st = random_moving_state(rng, m)
                rr = R.to_rescaled(st, spec)
                k = m + 1
                ddf = np.array(make_vector_rhs(a, eps)(st.t, pack_state(st).tolist())[k : 2 * k])
                z = st.df / st.f
                H = -st.du + tr_L(st, a)
                dz_dt = ddf / st.f - z * z
                dH_dt = eps / 2.0 - float(np.dot(a.dims, z * z))
                dLc_dt = -dH_dt / H**2
                dX_dt = dLc_dt * z + dz_dt / H
                dY_dt = dLc_dt / st.f - st.df / (st.f**2 * H)
                dXs, dYs, dLs = rescaled_rates(rr, a, eps)
                np.testing.assert_allclose(dX_dt / H, dXs, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(dY_dt / H, dYs, rtol=1e-10, atol=1e-12)
                assert dLc_dt / H == pytest.approx(dLs, rel=1e-10, abs=1e-12)


def test_locus_residuals_zero_cases():
    # sphere-at-infinity slice: Y = 0, sum d X = 1, sum d X^2 = 1, Lc = 0
    r = R.RescaledState(X=[1.0, 0.0], Y=[0.0, 0.0], Lc=0.0, s=0.0, t=0.0, u=0.0)
    res = R.rescaled_locus_residuals(r, DW1, 0.7)
    assert res.einstein_linear == 0.0
    assert res.einstein_quadratic == 0.0


def test_einstein_run_stays_on_locus():
    spec = ProblemSpec(DW1, 0.0, 0.0, (1.0,))
    rt = R.solve_rescaled(spec, t_max=10.0)
    res = R.rescaled_locus_residuals(rt.samples, DW1, 0.0)
    assert np.max(np.abs(res.einstein_linear)) <= 1e-7
    assert np.max(np.abs(res.einstein_quadratic)) <= 1e-7


def test_strict_locus_preserved_for_negative_constant():
    rt = R.solve_rescaled(SPEC1, t_max=10.0)
    d = np.asarray(DW1.dims, dtype=float)
    lin = d @ rt.samples.X
    assert np.max(lin) < 1.0


def test_boundedness_inside_admissible_region():
    a = DancerWangAnsatz((2, 2), (2, 2), (1, 1))
    spec = ProblemSpec(a, 0.0, -50.0, (1.0, 1.0))
    rt = R.solve_rescaled(spec, t_max=10.0)
    d = np.asarray(a.dims, dtype=float)
    p = np.asarray(a.p, dtype=float)
    q = np.asarray(a.q, dtype=float)
    n = float(np.sum(d))
    r = rt.samples
    assert np.all(r.Y[1:] ** 2 / r.Y[0] ** 2 < (2.0 * p / q**2)[:, None])
    value = d @ r.X**2 + (d[1:] * p / 2.0) @ r.Y[1:] ** 2 + (n - 1) * spec.epsilon / 2.0 * r.Lc**2
    assert np.all(value <= 1.0 + 1e-8)


@pytest.mark.parametrize(
    "spec",
    [SPEC1, ProblemSpec(DancerWangAnsatz((2, 2), (2, 2), (1, 1)), 0.0, -50.0, (1.0, 1.0))],
    ids=["m1", "m2"],
)
def test_chart_equivalence(spec):
    cmp = R.compare_charts(*solve_both_charts(spec, t_max=10.0))
    assert cmp.n_points > 100
    assert cmp.max_rel_deviation <= 1e-6


def test_kahler_locus_preserved_in_both_charts():
    # q = -p steady seed lies on the Kaehler locus; both residual families
    # stay small along the rescaled flow
    rt = R.solve_rescaled(SPEC1, t_max=10.0)
    res = R.rescaled_locus_residuals(rt.samples, DW1, 0.0)
    assert np.max(np.abs(res.kahler_square)) <= 1e-6
    assert np.max(np.abs(res.kahler_slope)) <= 1e-6


def test_rescaled_solver_rejects_other_systems():
    from solitonlab.systems import TwoSummandsAnsatz

    spec = ProblemSpec(TwoSummandsAnsatz(3, 4, 6.0, 48.0, 12.0), 0.0, -1.0, (1.0,))
    with pytest.raises(TypeError, match="circle-bundle"):
        R.solve_rescaled(spec)


def test_chart_comparison_needs_one_launch_slice():
    from solitonlab.trajectory import solve_problem

    phys, resc = solve_both_charts(SPEC1, t_max=1.0)
    other = solve_problem(SPEC1, t_max=1.0, delta=2.0 * phys.delta)
    with pytest.raises(ValueError, match="launch slice"):
        R.compare_charts(other, resc)


def test_chart_comparison_skips_samples_outside_the_chart():
    # a chart_degenerate run may end on a sample with some Y_i <= 0, which
    # does not invert; the comparison leaves any such sample out
    phys, resc = solve_both_charts(SPEC1, t_max=1.0)
    ys = resc.result.ys.copy()
    ys[len(ys) // 2, resc.k + 1] = 0.0
    cut = dataclasses.replace(resc, result=dataclasses.replace(resc.result, ys=ys))
    with pytest.raises(ValueError, match="positive"):
        R.from_rescaled(cut.samples, DW1)
    full = R.compare_charts(phys, resc)
    assert R.compare_charts(phys, cut).n_points == full.n_points - 1
