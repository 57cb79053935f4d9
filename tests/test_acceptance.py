"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale runs only; the shipped configs are shared through the session
fixture so the whole suite stays fast.
"""

import json

import numpy as np
import pytest

from solitonlab import monitors as M
from solitonlab import rescaled as R
from solitonlab.geometry import ricci_eigenvalues, scalar_curvature
from solitonlab.integrator import EventSpec, IntegratorConfig, integrate
from solitonlab.launch import launch
from solitonlab.runio import run_solve
from solitonlab.systems import (
    conservation_residual,
    conservation_residual_curvature,
    kahler_residual,
)
from solitonlab.trajectory import solve_problem

from conftest import (
    CONFIG_NAMES_GRID, comparison_ode_closed_form, load_shipped, sample_states, solve_both_charts,
)
from oracles import lie_bases as lb
from test_geometry import random_decomposition


def report(num, description, ok):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_conservation_fidelity(shipped_runs):
    worst_res, worst_gap, ok = 0.0, 0.0, True
    for name in CONFIG_NAMES_GRID:
        traj = shipped_runs[name]
        spec = traj.spec
        tol = 1e-8 * (1.0 + abs(spec.C))
        r3 = np.array(
            [conservation_residual(s, u, spec) for s, u in zip(sample_states(traj), traj.udd)]
        )
        r4 = np.array([conservation_residual_curvature(s, spec) for s in sample_states(traj)])
        worst_res = max(worst_res, float(np.max(np.abs(r3))) / tol)
        gap = float(np.max(np.abs(r3 - r4))) / (1e-10 * (1.0 + abs(spec.C)))
        worst_gap = max(worst_gap, gap)
        ok &= np.max(np.abs(r3)) <= tol and gap <= 1.0
    report(
        1,
        f"12-spec conservation within 1e-8 (1+|C|) (worst {worst_res:.3f} of budget), "
        f"variants agree to 1e-10 (worst {worst_gap:.3f} of budget)",
        ok,
    )


def test_criterion_02_curvature_oracle_equivalence():
    ok = True
    # closed forms against the orthonormal-basis oracle on su(2)+su(2) data
    rng = np.random.default_rng(100)
    for name in ("su2", "su2su2_product", "su2su2_diag_u1"):
        space = lb.named_space(name)
        dec = space.extract_decomposition()
        for _ in range(20):
            x = rng.uniform(0.3, 3.0, size=len(space.p_blocks))
            ok &= abs(scalar_curvature(dec, x) - space.scalar_curvature(x)) <= 1e-12 * max(
                1.0, abs(space.scalar_curvature(x))
            )
            r_closed, r_oracle = ricci_eigenvalues(dec, x), space.ricci(x)
            ok &= np.all(np.abs(r_closed - r_oracle) <= 1e-12 * (1.0 + np.abs(r_oracle)))
    # flat torus exactly zero
    torus = lb.flat_torus(2).extract_decomposition()
    ok &= scalar_curvature(torus, [1.3, 0.4]) == 0.0
    # trace identity on 1000 random decompositions
    for _ in range(1000):
        dec = random_decomposition(rng)
        x = rng.uniform(0.2, 5.0, size=dec.s)
        s = scalar_curvature(dec, x)
        ok &= abs(float(np.dot(dec.d, ricci_eigenvalues(dec, x))) - s) <= 1e-12 * (1.0 + abs(s))
    report(2, "closed-form curvature matches the basis oracle; trace identity holds", ok)


def test_criterion_03_integrator_oracle():
    ok = True
    for a in (0.5, 1.0, 2.0, 8.0):
        rhs = lambda t, y, a=a: np.array([-a + y[0] ** 2 / 2.0])
        res = integrate(rhs, 0.0, [0.0], IntegratorConfig(t_max=5.0))
        exact = comparison_ode_closed_form(a, 0.0, 0.0, 5.0)
        ok &= abs(res.ys[-1][0] - exact) <= 1e-9
        y_t = -0.5 * np.sqrt(2.0 * a)
        ev = EventSpec("target", lambda t, y, y_t=y_t: y[0] - y_t)
        res = integrate(rhs, 0.0, [0.0], IntegratorConfig(t_max=5.0, events=(ev,)))
        t_exact = np.arctanh(0.5) / np.sqrt(a / 2.0)
        ok &= abs(res.ts[-1] - t_exact) <= 1e-9
    report(3, "comparison flow matches its closed form to 1e-9, events included", ok)


def test_criterion_04_potential_monotonicity(shipped_runs):
    ok = True
    checked = 0
    for name, traj in shipped_runs.items():
        if traj.spec.C >= 0:
            continue
        checked += 1
        rep = M.potential_report(traj)
        ok &= rep.ok
    report(4, f"u < 0, du < 0 (and ddu < 0 where required) on all {checked} C < 0 runs", ok)


def test_criterion_05_steady_asymptote(shipped_runs):
    traj = shipped_runs["ts_complete_steady.json"]
    rep = M.asymptote_check(traj)
    ok = (
        traj.reached_horizon
        and rep.terminal_slope_abs_error <= 0.01 * rep.terminal_slope_target
        and abs(rep.terminal_udd) <= 1e-3
    )
    report(
        5,
        f"steady slope [off by {rep.terminal_slope_abs_error / rep.terminal_slope_target:.2%}] "
        f"and terminal uddot {rep.terminal_udd:.1e}",
        ok,
    )


def test_criterion_06_expanding_upper_bound(shipped_runs):
    ok = True
    checked = 0
    for name, traj in shipped_runs.items():
        if traj.spec.epsilon != 1.0:
            continue
        checked += 1
        rep = M.asymptote_check(traj)
        ok &= rep.upper_bound_violations == 0
    report(6, f"expanding slope under the linear barrier on all {checked} runs", ok)


def test_criterion_07_growth_probe(shipped_runs):
    spec = shipped_runs["ts_probe_d1.json"].spec
    rep = M.growth_probe(spec, c=5.0, tau=0.5)
    ok = rep.empirical_C0 < 0 and rep.bracket[0] is not None
    ok &= all(s >= 5.0 for C, s in rep.samples if C <= rep.empirical_C0)
    rep2 = M.growth_probe(spec, c=10.0, tau=0.5)
    ok &= abs(rep2.empirical_C0) >= abs(rep.empirical_C0)
    report(
        7,
        f"threshold bracketed at C0={rep.empirical_C0:.2f}; doubling the target "
        f"moves it to {rep2.empirical_C0:.2f}",
        ok,
    )


def test_criterion_08_invariant_set_preservation(shipped_runs):
    ts = shipped_runs["ts_complete_steady.json"]
    dw = shipped_runs["dw_complete_steady.json"]
    lpp = shipped_runs["lpp_complete_steady.json"]
    exit_run = shipped_runs["ts_exit_einstein.json"]
    ok = (
        M.classify_completeness(ts).kind == "numerically_complete"
        and M.two_summands_omega_monitor(ts).below_root_throughout
        and M.classify_completeness(dw).kind == "numerically_complete"
        and M.dw_apriori_monitor(dw).bound_ok_throughout
        and M.classify_completeness(lpp).kind == "numerically_complete"
        and M.lpp_bound_monitor(lpp).ok
        and M.classify_completeness(exit_run).kind == "invariant_set_exit"
    )
    report(8, "complete specs hold their preserved sets to t=100; the exit spec exits", ok)


def test_criterion_09_chart_equivalence():
    ok = True
    for name in ("dw_kahler.json", "dw_m2_chart.json"):
        cfg = load_shipped(name)
        cmp = R.compare_charts(*solve_both_charts(cfg.spec, t_max=10.0))
        ok &= cmp.n_points > 100 and cmp.max_rel_deviation <= 1e-6
    # exact critical point [X0, X1, Y0, Y1, Lc, t, u]: stationary to rounding
    spec = load_shipped("dw_kahler.json").spec
    cp = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    ok &= max(map(abs, R.make_rescaled_vector_rhs(spec.ansatz, 0.0)(0.0, cp)[:5])) <= 1e-12
    # the launch seed lands within O(delta) of it
    r0 = R.to_rescaled(launch(spec, 1e-4), spec)
    ok &= max(np.max(np.abs(r0.X - cp[0:2])), np.max(np.abs(r0.Y - cp[2:4])), r0.Lc) <= 1e-3
    report(9, "both charts agree to 1e-6 on [delta, 10]; singular seed is the critical point", ok)


def test_criterion_10_kahler_locus():
    cfg = load_shipped("dw_kahler.json")
    spec = cfg.spec
    a = spec.ansatz
    assert a.q[0] < 0
    ok = True
    # physical chart, from its own launch offset (1e-4): first-order condition
    # and both compact-chart families.  The shipped run launches both charts
    # at the compact chart's 1e-3, and the second-order launch leaves its
    # physical chart off the locus by O(delta^2): its report reads 3.0e-6.
    traj = solve_problem(spec, t_max=cfg.t_max, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
    states = sample_states(traj)
    ok &= float(np.max(np.abs([kahler_residual(s, a) for s in states]))) <= 1e-6
    for st in states:
        res = R.rescaled_locus_residuals(R.to_rescaled(st, spec), a, spec.epsilon)
        ok &= np.max(np.abs(res.kahler_square)) <= 1e-6
        ok &= np.max(np.abs(res.kahler_slope)) <= 1e-6
    # compact chart
    rt = R.solve_rescaled(spec, t_max=10.0)
    res = R.rescaled_locus_residuals(rt.samples, a, spec.epsilon)
    ok &= np.max(np.abs(res.kahler_square)) <= 1e-6
    ok &= np.max(np.abs(res.kahler_slope)) <= 1e-6
    report(10, "Kaehler-locus residual families stay under 1e-6 in both charts", ok)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: the second-order launch series at delta = 1e-3 leaves the shipped"
    " run off the Kaehler locus by O(delta^2), 3.04e-6 against the 1e-6 bound",
)
def test_the_shipped_kahler_run_reports_on_locus(tmp_path):
    # criterion 10 launches its physical run at 1e-4; the shipped run is
    # chart: both, so both charts launch at the compact chart's 1e-3.  The
    # marker goes when a higher-order launch series closes the gap.
    run_solve(load_shipped("dw_kahler.json"), str(tmp_path))
    kahler = json.loads((tmp_path / "report.json").read_text())["kahler"]
    assert kahler["on_locus"], kahler["max_abs_residual"]


@pytest.mark.parametrize(
    "name", ["ts_e0_c1.json", "dw_kahler.json", "lpp_e1_c1.json"], ids=["ts", "dw", "lpp"]
)
def test_criterion_11_determinism(name, tmp_path):
    cfg = load_shipped(name)
    run_solve(cfg, str(tmp_path / "a"))
    run_solve(cfg, str(tmp_path / "b"))
    same = (tmp_path / "a/trajectory.csv").read_bytes() == (tmp_path / "b/trajectory.csv").read_bytes()
    if (tmp_path / "a/rescaled.csv").exists():
        same &= (tmp_path / "a/rescaled.csv").read_bytes() == (tmp_path / "b/rescaled.csv").read_bytes()
    report(11, f"re-running {name} reproduces byte-identical CSV", same)
