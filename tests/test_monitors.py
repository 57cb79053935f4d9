import copy
import dataclasses
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import monitors as M
from solitonlab.integrator import IntegrationResult, IntegratorConfig, integrate
from solitonlab.launch import launch
from solitonlab.runio import ConfigError, load_config
from solitonlab.systems import (
    DancerWangAnsatz,
    ProblemSpec,
    SolitonState,
    TwoSummandsAnsatz,
    pack_state,
)
from solitonlab.trajectory import (
    Trajectory, dw_pair_bound_constant, invariants, lpp_ratio_bound, solve_problem,
)

from conftest import (
    SHIPPED_CONFIG_NAMES, classify_oracle, comparison_ode_closed_form, config_path, load_shipped,
)


def _floor_reason(t) -> str:
    """The verdict's reason for a step_failure at the step floor, at the
    last sample's t."""
    floor = 16.0 * np.finfo(float).eps * max(1.0, abs(t))
    return f"the step fell below its floor 16 eps max(1, |t|) = {floor:.3e} at t = {t:.17g}"


def one_sample_run(state, spec):
    """A run holding the single sample ``state``: its columns and reports are
    those the package computes for every sample of a real run."""
    ys = pack_state(state)[None, :]
    result = IntegrationResult(
        ts=np.array([state.t]), ys=ys, dys=np.zeros_like(ys), dense=ys[:0], termination="reached_t_max"
    )
    return Trajectory(spec=spec, delta=0.0, result=result)


def potential_violations_oracle(traj, l_nonzero_tol=1e-12):
    """potential_report's violations as its per-sample loop computed them."""
    spec = traj.spec
    out = []
    zmax = np.max(np.abs(traj.df / traj.f), axis=1)
    for i, t in enumerate(traj.ts):
        if t <= traj.delta:
            continue
        bad = {}
        if traj.u[i] >= 0:
            bad["u"] = float(traj.u[i])
        if traj.du[i] >= 0:
            bad["du"] = float(traj.du[i])
        concavity_applies = spec.epsilon > 0 or zmax[i] > l_nonzero_tol
        if concavity_applies and traj.udd[i] >= 0:
            bad["udd"] = float(traj.udd[i])
        if bad:
            bad["t"] = float(t)
            out.append(bad)
    return out


class TestRoots:
    def test_circle_fibre_example(self):
        d = M.two_summands_roots(TwoSummandsAnsatz(1, 2, 0.0, 6.0, 1.0))
        assert d.D == pytest.approx(0.5625, rel=1e-15)
        assert d.omega1 == 0.0
        assert d.omega2 == pytest.approx(np.sqrt(1.5), rel=1e-12)
        assert d.omega1_sq_below_quarter and d.omega2_sq_below_half

    def test_circle_fibre_always_has_zero_lower_root(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = TwoSummandsAnsatz(1, int(rng.integers(1, 9)), 0.0, rng.uniform(0.5, 20), rng.uniform(0.1, 5))
            d = M.two_summands_roots(a)
            assert d.D >= 0 and d.omega1 == 0.0

    def test_negative_discriminant_has_no_roots(self):
        d = M.two_summands_roots(TwoSummandsAnsatz(2, 2, 2.0, 2.0, 1.0))
        assert d.D < 0 and d.omega1 is None and d.omega2 is None

    def test_back_substitution_into_ratio_polynomial(self):
        rng = np.random.default_rng(1)
        found = 0
        while found < 200:
            d1 = int(rng.integers(1, 5))
            a = TwoSummandsAnsatz(
                d1, int(rng.integers(1, 7)), float(d1 * (d1 - 1)), rng.uniform(0.5, 30), rng.uniform(0.05, 5)
            )
            diag = M.two_summands_roots(a)
            if diag.D < 0:
                continue
            found += 1
            for res in diag.quartic_residuals:
                assert abs(res) <= 1e-10 * a.A2

    def test_discriminant_equivalence_with_submersion_data(self):
        # D >= 0 iff Ric^2 / (4 |A|^2) >= (2 d1 + d2)(d1 - 1)/d1 for
        # geometric constants, with Ric = A2/d2 and |A|^2 = A3/d2
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d1 = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 7))
            a = TwoSummandsAnsatz(
                d1, d2, float(d1 * (d1 - 1)), float(rng.uniform(0.5, 30)), float(rng.uniform(0.05, 5))
            )
            lhs = (a.A2 / d2) ** 2 / (4.0 * (a.A3 / d2))
            rhs = (2 * d1 + d2) * (d1 - 1) / d1
            assert (M.two_summands_roots(a).D >= 0) == (lhs >= rhs)


class TestPredicatesAndClosedForm:
    def test_zero_constant_windows(self):
        pred = M.c0_zero_predicates(TwoSummandsAnsatz(1, 2, 0.0, 10.0, 1.0))
        assert pred.circle_fibre is True  # 100 > 16
        boundary = M.c0_zero_predicates(TwoSummandsAnsatz(1, 2, 0.0, 4.0, 1.0))
        assert boundary.circle_fibre is False  # 16 == 16, strict inequality required

    def test_general_window_reduces_to_circle_window_at_d1_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = TwoSummandsAnsatz(1, int(rng.integers(1, 7)), 0.0, rng.uniform(0.5, 20), rng.uniform(0.05, 4))
            pred = M.c0_zero_predicates(a)
            # (d1+1) A2^2 > 4 d1 d2 (2 d1 + d2) A3 at d1 = 1 reads
            # 2 A2^2 > 4 d2 (d2 + 2) A3, i.e. exactly the circle predicate
            assert pred.general == pred.circle_fibre

    def test_comparison_closed_form_values(self):
        assert comparison_ode_closed_form(2.0, 0.0, 0.0, 1.0) == pytest.approx(
            -1.5231883119115297, rel=1e-12
        )
        assert comparison_ode_closed_form(2.0, 0.0, 0.0, 0.0) == 0.0
        ss = np.linspace(0.0, 4.0, 41)
        ys = comparison_ode_closed_form(1.0, -0.3, 0.0, ss)
        assert np.all(np.diff(ys) < 0)  # monotone decreasing for y* <= 0

    def test_comparison_closed_form_preconditions(self):
        with pytest.raises(ValueError, match="positive"):
            comparison_ode_closed_form(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="branch"):
            comparison_ode_closed_form(1.0, 2.0, 0.0, 1.0)

    def test_growth_threshold_exists_on_comparison_surrogate(self):
        # for the surrogate there is a threshold a0(c, s0) with -y(s0) >= c
        # for every a above it
        c, s0 = 2.0, 1.0
        met = lambda a: -comparison_ode_closed_form(a, 0.0, 0.0, s0) >= c
        lo, hi = 1e-3, 1e6
        assert not met(lo) and met(hi)
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            lo, hi = (mid, hi) if not met(mid) else (lo, mid)
        a0 = hi
        assert met(1.01 * a0) and met(2 * a0) and met(10 * a0)
        assert not met(0.99 * a0)

    @pytest.mark.parametrize(
        "c, tau, y_star, s_star",
        [(5.0, 0.5, -5e-5, 1e-4), (2.0, 1.0, 0.0, 0.0), (20.0, 0.2, -2.5e-3, 1e-3), (1.0, 3.0, -0.3, 0.1),
         (0.5, 2.0, 0.4, 0.0)],
    )
    def test_comparison_threshold_is_the_riccati_threshold(self, c, tau, y_star, s_star):
        # the Riccati ODE itself, integrated by scipy, reaches -c at tau from
        # a0 and misses it just below
        integrate = pytest.importorskip("scipy.integrate")
        a0 = M.comparison_threshold(c, tau, y_star, s_star)

        def y_at_tau(a):
            sol = integrate.solve_ivp(
                lambda s, y: [-a + y[0] ** 2 / 2.0], (s_star, tau), [y_star], rtol=1e-12, atol=1e-14
            )
            return sol.y[0, -1]

        assert a0 > c * c / 2.0
        assert y_at_tau(a0) == pytest.approx(-c, rel=1e-9)
        assert y_at_tau(a0 * (1.0 - 1e-6)) > -c > y_at_tau(a0 * (1.0 + 1e-6))
        assert comparison_ode_closed_form(a0, y_star, s_star, tau) <= -c
        assert comparison_ode_closed_form(np.nextafter(a0, 0.0), y_star, s_star, tau) > -c

    def test_comparison_threshold_preconditions(self):
        for c, tau, y_star, s_star in [(1.0, 1.0, -1.0, 0.0), (1.0, 1.0, 2.0, 0.0), (1.0, 0.5, 0.0, 0.5)]:
            with pytest.raises(ValueError, match="needs"):
                M.comparison_threshold(c, tau, y_star, s_star)


class TestGrowthEstimate:
    def test_estimate_on_the_probe_config(self, shipped_runs):
        # C0 = -2 a0 - c_star - (n - 1) eps / 2, with a0 from the launch slice
        spec = shipped_runs["ts_probe_d1.json"].spec
        state = launch(spec)
        a0 = M.comparison_threshold(5.0, 0.5, float(state.du), state.t)
        C0 = M.growth_estimate(spec, 5.0, 0.5)
        assert C0 == -2.0 * a0 - M.curvature_budget_at_launch(spec) - (spec.orbit_dim - 1) * spec.epsilon / 2.0
        assert C0 == pytest.approx(-37.760776186588615, rel=1e-12)
        assert M._start(C0) == -64.0

    @pytest.mark.parametrize(
        "name, c, tau, why",
        [
            ("ts_complete_steady.json", 5.0, 0.5, "A1 / f0^2 in c_star"),
            ("ts_probe_d1.json", 5.0, 1e-5, "tau at the launch slice"),
            ("ts_probe_d1.json", 4e-5, 0.5, "the launch slice reaches c"),
            ("ts_probe_d1.json", 1e5, 0.5, "C0 at or below the limit"),
        ],
    )
    def test_a_vacuous_estimate_is_none(self, shipped_runs, name, c, tau, why):
        assert M.growth_estimate(shipped_runs[name].spec, c, tau) is None, why

    def test_no_start_or_one_past_the_limit_is_the_scan_start(self):
        assert M._start(None) == -0.125
        # C0 in (-1e9, -0.125 * 2^32): its grid point -0.125 * 2^33 is past the limit
        assert M._start(-0.125 * 2.0**32) == -0.125 * 2.0**32
        assert M._start(-0.125 * 2.0**32 - 1.0) == -0.125
        assert M._start(-0.25) == -0.25 and M._start(-0.2) == -0.25

    @pytest.mark.parametrize("name", ["ts_probe_d1.json", "dw_e0_c1.json", "lpp_complete_steady.json"])
    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(c=st.floats(1.0, 50.0), tau=st.floats(0.1, 3.0))
    def test_the_estimate_keeps_the_scan_bracket_with_no_more_solves(self, name, c, tau):
        """Where the estimate's start reaches c, the walk from it gives the
        bracket of the search started at -1/8, bit for bit; for targets c
        of 1 and above it never takes more solves."""
        cfg = load_config(json.loads(config_path(name).read_text()))
        tols = dict(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, delta=cfg.launch_delta)
        probe = dict(spec=cfg.spec, c=c, tau=tau, **tols)
        rep = M.growth_probe(**probe)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "growth_estimate", lambda *args: None)
            scan = M.growth_probe(**probe)
        assert rep.C0_estimate is not None and rep.estimate_holds
        assert (scan.start, scan.estimate_holds) == (-0.125, None)
        assert rep.bracket == scan.bracket
        assert rep.n_solves <= scan.n_solves

    def test_a_vacuous_estimate_keeps_todays_scan(self, shipped_runs):
        cfg = shipped_runs["ts_complete_steady.json"]
        rep = M.growth_probe(cfg.spec, c=5.0, tau=0.5)
        assert (rep.C0_estimate, rep.start, rep.estimate_holds) == (None, -0.125, None)
        assert rep.bracket == (-62.96867914346162, -63.31059284441443)
        assert rep.n_solves == 17

    def test_an_estimate_that_fails_falls_back_to_the_scan(self, shipped_runs, monkeypatch):
        # an estimate of -2 starts the search at -2, which fails at c = 5;
        # the scan from -1/8 then reuses its outcome
        spec = shipped_runs["ts_probe_d1.json"].spec
        monkeypatch.setattr(M, "growth_estimate", lambda *args: -1.5)
        solved = TestGrowthProbe._count_solves(monkeypatch)
        rep = M.growth_probe(spec, c=5.0, tau=0.5)
        Cs = [C for C, *_ in solved]
        assert Cs[:2] == [-2.0, -0.125] and len(Cs) == len(set(Cs)) == rep.n_solves
        assert (rep.C0_estimate, rep.start, rep.estimate_holds) == (-1.5, -2.0, False)
        assert rep.bracket == (-34.14849282165835, -34.33391576083122)


class TestLocus:
    def test_zero_potential_slope_sits_on_locus_boundary(self):
        spec = ProblemSpec(TwoSummandsAnsatz(3, 4, 6.0, 48.0, 12.0), 0.0, 0.0, (1.0,))
        st = SolitonState(1.0, [0.5, 1.2], [0.4, 0.3], 0.0, 0.0)
        q1 = one_sample_run(st, spec).columns["locus_mean_ratio"]
        assert q1[0] == 1.0  # exact: tr L / (tr L - 0)

    def test_nonpositive_denominator_not_classifiable(self):
        spec = ProblemSpec(TwoSummandsAnsatz(3, 4, 6.0, 48.0, 12.0), 0.0, -1.0, (1.0,))
        st = SolitonState(1.0, [1.0, 1.0], [-1.0, -1.0], -0.1, 0.5)
        assert M.locus_report(one_sample_run(st, spec)).class_counts["not_classifiable"] == 1

    def test_strict_locus_for_negative_constant(self, shipped_runs):
        rep = M.locus_report(shipped_runs["ts_complete_steady.json"])
        assert rep.strict_throughout

    def test_einstein_locus_for_zero_constant(self, shipped_runs):
        rep = M.locus_report(shipped_runs["ts_e0_c0.json"])
        assert rep.einstein_throughout
        assert rep.max_einstein_residual <= 1e-7


class TestPotential:
    def test_no_violations_on_shipped_negative_runs(self, shipped_runs):
        for name, traj in shipped_runs.items():
            if traj.spec.C >= 0:
                continue
            rep = M.potential_report(traj)
            assert rep.ok, (name, rep.violations[:3])

    def test_zero_constant_reports_trivial_potential(self, shipped_runs):
        rep = M.potential_report(shipped_runs["ts_e0_c0.json"])
        assert rep.trivial_potential

    def test_injected_violation_is_flagged(self, shipped_runs):
        src = shipped_runs["ts_e0_c1.json"]
        result = copy.deepcopy(src.result)
        k = len(src.spec.ansatz.dims)
        n = len(result.ts)
        idx = n // 2
        result.ys[idx, 2 * k + 1] = +0.01  # udot forced positive at one sample
        # u, udot and uddot violations alone and together, and all three on
        # the launch slice t = delta, which the report skips
        result.ys[[0, n // 4, n // 3], 2 * k] = +0.02
        result.ys[[0, n // 4], 2 * k + 1] = +0.03
        result.ys[2 * n // 3, 2 * k + 1] = 0.0  # the boundary counts as a violation
        corrupted = Trajectory(spec=src.spec, delta=src.delta, result=result)
        assert corrupted.ts[0] <= corrupted.delta
        udd = corrupted.udd.copy()
        udd[[0, n // 4, idx, n - 1]] = 0.5
        corrupted.udd = udd
        rep = M.potential_report(corrupted)
        assert not rep.ok
        assert any(v["t"] == result.ts[idx] and "du" in v for v in rep.violations)
        want = potential_violations_oracle(corrupted)
        assert [list(v.items()) for v in rep.violations] == [list(v.items()) for v in want]
        assert len(want) == 5 and {"u", "du", "udd"} <= set(want[0])


class TestAsymptotics:
    def test_steady_terminal_slope(self, shipped_runs):
        traj = shipped_runs["ts_complete_steady.json"]
        rep = M.asymptote_check(traj)
        assert rep.kind == "steady"
        assert rep.terminal_slope_abs_error <= 0.01 * rep.terminal_slope_target
        assert abs(rep.terminal_udd) <= 1e-3

    def test_expanding_upper_bound_from_launch(self, shipped_runs):
        traj = shipped_runs["lpp_e1_c1.json"]
        rep = M.asymptote_check(traj)
        assert rep.kind == "expanding"
        assert rep.upper_bound_violations == 0
        # initial slope sits strictly under the barrier
        assert -traj.du[0] < np.sqrt(-traj.spec.C)


class TestInvariantMonitors:
    def test_omega_monitor_on_complete_run(self, shipped_runs):
        rep = M.two_summands_omega_monitor(shipped_runs["ts_complete_steady.json"])
        assert not rep.no_root_regime
        assert rep.domega_ok and rep.below_root_throughout
        assert rep.max_domega <= rep.domega_bound * (1 + 1e-6)

    def test_omega_monitor_no_root_regime(self, shipped_runs):
        rep = M.two_summands_omega_monitor(shipped_runs["ts_exit_einstein.json"])
        assert rep.no_root_regime
        assert rep.omega2 is None

    def test_dw_bounds_on_complete_run(self, shipped_runs):
        rep = M.dw_apriori_monitor(shipped_runs["dw_complete_steady.json"])
        assert rep.bound_ok_throughout and rep.key_estimate_ok
        assert rep.c0 == pytest.approx(1.0 + np.sqrt(2.0))
        assert rep.qdot_ok

    def test_dw_single_factor_uses_unit_constant(self, shipped_runs):
        rep = M.dw_apriori_monitor(shipped_runs["dw_kahler.json"])
        assert rep.c0 == 1.0
        assert rep.bound_ok_throughout

    def test_launch_state_satisfies_bounds(self, shipped_runs):
        traj = shipped_runs["dw_complete_steady.json"]
        omega0 = traj.f[0, 0] / traj.f[0, 1:]
        bounds = M.dw_omega_sq_bounds(traj.spec.ansatz, M.dw_pair_bound_constant(traj.spec.ansatz, traj.spec.initial))
        assert np.all(omega0**2 < bounds)

    def test_lpp_bound_on_complete_run(self, shipped_runs):
        rep = M.lpp_bound_monitor(shipped_runs["lpp_complete_steady.json"])
        assert rep.ok and rep.bound == pytest.approx(2.0)

    def test_kahler_monitor_flags_positive_q(self):
        spec = ProblemSpec(DancerWangAnsatz((2,), (2,), (2,)), 0.0, -1.0, (1.0,))
        traj = solve_problem(spec, t_max=2.0)
        rep = M.kahler_report(traj)
        assert not rep.on_locus
        assert rep.max_abs_residual > 0.1


class TestClassification:
    def test_complete_and_exit(self, shipped_runs):
        v = M.classify_completeness(shipped_runs["ts_complete_steady.json"])
        assert v.kind == "numerically_complete"
        v = M.classify_completeness(shipped_runs["ts_exit_einstein.json"])
        assert v.kind == "invariant_set_exit"
        assert v.t_star is not None

    def test_the_report_and_the_verdict_share_the_conservation_budget(self, shipped_runs):
        # a residual at the budget 1e-8 (1 + |C|) passes both; one ulp above
        # fails both, and the verdict's reason gives the report's numbers
        src = shipped_runs["ts_e0_c1.json"]
        budget = 1e-8 * (1.0 + abs(src.spec.C))
        for worst, ok in ((budget, True), (math.nextafter(budget, math.inf), False)):
            run = Trajectory(spec=src.spec, delta=src.delta, result=src.result)
            residual = np.zeros_like(src.ts)
            residual[len(residual) // 2] = -worst
            run.__dict__["columns"] = src.columns | {"conservation_residual": residual}
            rep, v = M.conservation_report(run), M.classify_completeness(run)
            assert (rep.max_abs_residual, rep.tolerance, rep.ok) == (worst, budget, ok)
            assert v.kind == ("numerically_complete" if ok else "inconclusive")
            reason = f"conservation residual {rep.max_abs_residual:.3e} above {rep.tolerance:.3e}"
            assert v.reasons == ([] if ok else [reason])

    def test_metric_degenerate_mapping(self, shipped_runs):
        src = shipped_runs["ts_e0_c1.json"]
        result = copy.deepcopy(src.result)
        result.termination = "state_invalid"
        v = M.classify_completeness(Trajectory(spec=src.spec, delta=src.delta, result=result))
        assert v.kind == "metric_degenerate"

    @pytest.mark.parametrize(
        "termination, kind",
        [
            ("event:shape_exit", "invariant_set_exit"),
            ("event:invariant_exit", "invariant_set_exit"),
            ("event:overflow", "inconclusive"),
            ("step_failure", "inconclusive"),
        ],
    )
    def test_an_early_end_at_a_row_event_leaves_the_set(self, shipped_runs, termination, kind):
        # every row of the invariant table watches its set with the event
        # named after it; no other termination is a set exit
        src = shipped_runs["dw_e0_c1.json"]
        assert {row.event for row in invariants(src.spec)} == {"shape_exit", "invariant_exit"}
        result = copy.deepcopy(src.result)
        result.termination = termination
        v = M.classify_completeness(Trajectory(spec=src.spec, delta=src.delta, result=result))
        # a step_failure far below the attempt cap names the step floor
        limit = [_floor_reason(src.ts[-1])] if termination == "step_failure" else []
        assert (v.kind, v.reasons) == (kind, [termination, *limit])
        assert v.kind in M.VERDICTS

    def test_a_step_failure_at_the_attempt_cap_names_the_cap(self, shipped_runs):
        # the counts of a run that made every step attempt it is allowed
        src = shipped_runs["dw_e0_c1.json"]
        result = dataclasses.replace(src.result, termination="step_failure", n_accepted=199_998, n_rejected=2)
        v = M.classify_completeness(Trajectory(spec=src.spec, delta=src.delta, result=result))
        assert (v.kind, v.t_star) == ("inconclusive", src.ts[-1])
        assert v.reasons == ["step_failure", "all 200000 step attempts made (199998 accepted, 2 rejected)"]

    def test_a_step_failure_at_the_step_floor_names_the_floor(self, shipped_runs):
        # y' = y^2 blows up at t = 1: the rejected attempts there shrink the
        # step below 16 eps max(1, |t|) long before the attempt cap
        result = integrate(lambda t, y: [y[0] * y[0]], 0.0, [1.0], IntegratorConfig(t_max=2.0))
        assert result.termination == "step_failure" and result.n_accepted + result.n_rejected < 2000
        src = shipped_runs["dw_e0_c1.json"]
        v = M.classify_completeness(Trajectory(spec=src.spec, delta=0.0, result=result))
        assert v.reasons == ["step_failure", _floor_reason(result.ts[-1])]

    def test_a_config_may_expect_each_verdict_and_no_other_name(self):
        doc = json.loads(config_path("ts_e0_c1.json").read_text())
        assert [load_config(dict(doc, expect=kind)).expect for kind in M.VERDICTS] == list(M.VERDICTS)
        with pytest.raises(ConfigError, match="field 'expect': unknown verdict 'complete'"):
            load_config(dict(doc, expect="complete"))

    def test_circle_fibre_window_keeps_zero_constant_runs_alive(self):
        # A2^2 > 2 d2 (d2+2) A3 holds, so even C = 0 stays complete
        a = TwoSummandsAnsatz(1, 2, 0.0, 6.0, 1.0)
        assert M.c0_zero_predicates(a).circle_fibre
        traj = solve_problem(ProblemSpec(a, 0.0, 0.0, (1.0,)), t_max=10.0)
        assert M.classify_completeness(traj).kind == "numerically_complete"

    def test_negative_discriminant_cannot_be_complete(self):
        # even if such a run survived to the horizon it would stay inconclusive
        a = TwoSummandsAnsatz(2, 2, 2.0, 2.0, 1.0)
        spec = ProblemSpec(a, 0.0, -30.0, (1.0,))
        traj = solve_problem(spec, t_max=5.0)
        v = M.classify_completeness(traj)
        assert v.kind != "numerically_complete"


    @pytest.mark.parametrize("name", SHIPPED_CONFIG_NAMES)
    def test_verdict_is_the_oracle_on_every_shipped_config(self, shipped_runs, name):
        traj = shipped_runs.get(name)
        if traj is None:
            cfg = load_shipped(name)
            traj = solve_problem(cfg.spec, t_max=cfg.t_max, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
        v = M.classify_completeness(traj)
        assert (v.kind, v.t_star, v.reasons) == classify_oracle(traj)

    @pytest.mark.parametrize(
        "family, margin, holds",
        [
            ("dw", 0.0, True),
            ("dw", -0.5e-9, True),
            ("dw", -2e-9, False),
            ("lpp", -0.5e-9, True),
            ("lpp", -2e-9, False),
            ("ts", 0.0, False),
            ("shape", 0.0, False),
        ],
    )
    def test_a_row_holds_while_its_margin_exceeds_minus_slack(self, family, margin, holds):
        """One sample bent so that a row's worst candidate is ``margin``: the
        verdict, the monitor's ok field and the oracle agree on the rule
        margin > -slack, with slack 1e-9 for the dw and lpp bounds and 0 for
        the ts window and the shape row."""
        name = {"dw": "dw_m2_chart.json", "lpp": "lpp_e0_c1.json"}.get(family, "ts_e0_c1.json")
        spec = load_shipped(name).spec
        a = spec.ansatz
        if family == "dw":
            c0 = dw_pair_bound_constant(a, spec.initial)
            bend, label = {0: 0.1, 1: c0 - margin, 2: 1.0}, "c0 - g1/g2"  # g2 = 1: the ratio is g1
        elif family == "lpp":
            bend, label = {0: math.sqrt(lpp_ratio_bound(a) - margin), 1: 1.0}, "bound - (f/g1)^2"
        elif family == "ts":
            bend, label = {0: M.two_summands_roots(a).omega2, 1: 1.0}, "omega2 - f1/f2"
        else:
            bend, label = {3: 0.0}, "df2"
        traj = solve_problem(spec, t_max=1.0)
        i = len(traj.ts) // 2
        ys = traj.result.ys.copy()
        for j, value in bend.items():
            ys[i, j] = value
        bent = Trajectory(spec=spec, delta=traj.delta, result=dataclasses.replace(traj.result, ys=ys))
        worst = bent.margins["shape_exit" if family == "shape" else "invariant_exit"]
        assert worst.values[i] == pytest.approx(margin, abs=1e-15) and worst.binding[i] == label
        assert worst.values[i] == worst.values.min() and worst.holds is holds
        v = M.classify_completeness(bent)
        assert (v.kind, v.t_star, v.reasons) == classify_oracle(bent)
        assert (worst.row.reason not in v.reasons) is holds
        if family == "dw":
            assert M.dw_apriori_monitor(bent).bound_ok_throughout is holds
        elif family == "lpp":
            assert M.lpp_bound_monitor(bent).ok is holds
        elif family == "ts":
            assert M.two_summands_omega_monitor(bent).below_root_throughout is holds


def _full_scan_bracket(slope_of, c, c_start=-0.125, c_limit=-1e9, bracket_rel=0.01):
    """The probe's search as first written: solve the whole doubling grid
    down to c_limit, then bisect.  Returns (bracket, samples, excluded), or
    None where no grid point reaches c."""
    samples, excluded = {}, []

    def evaluate(cs):
        cs = [C for C in cs if C not in samples and C not in excluded]
        for C, s in zip(cs, map(slope_of, cs)):
            if s is None:
                excluded.append(C)
            else:
                samples[C] = s

    grid = []
    C = c_start
    while C > c_limit:
        grid.append(C)
        C *= 2.0
    evaluate(grid)
    succ = [C for C, s in samples.items() if s >= c]
    if not succ:
        return None
    c_success = max(succ)
    fails = [C for C, s in samples.items() if s < c and C > c_success]
    c_fail = min(fails) if fails else None
    if c_fail is not None:
        while (c_fail - c_success) > bracket_rel * abs(c_success):
            mid = -np.sqrt(c_fail * c_success)
            evaluate([mid])
            if mid in excluded:
                break
            if samples[mid] >= c:
                c_success = mid
            else:
                c_fail = mid
    return (c_fail, c_success), samples, excluded


def _walk_then_bisect(slope_of, c, start, bracket_rel=0.01):
    """The search from the estimate's grid point ``start`` that solves
    every point it visits: start, then halving toward -1/8 up to the first
    failure, skipping excluded runs, then bisecting.  Returns its bracket
    and the number of C it solved, or None where the start does not reach
    c, so the search scans from -1/8."""
    solved = {start: slope_of(start)}
    if solved[start] is None or solved[start] < c:
        return None
    c_fail, c_success, C = None, start, start
    while C < -0.125:
        C /= 2.0
        s = solved[C] = slope_of(C)
        if s is None:
            continue
        if s < c:
            c_fail = C
            break
        c_success = C
    while c_fail is not None and (c_fail - c_success) > bracket_rel * abs(c_success):
        mid = -math.sqrt(c_fail * c_success)
        s = solved.setdefault(mid, slope_of(mid))
        if s is None:
            break
        c_success, c_fail = (mid, c_fail) if s >= c else (c_success, mid)
    return (c_fail, c_success), len(solved)


def _asked(c, start, slope_of):
    """Run ``_search`` on ``slope_of``: (its result, the C it asked for)."""
    asked = []

    def recorded(C):
        asked.append(C)
        return slope_of(C)

    return M._search(c, start, recorded), asked


class TestGrowthProbe:
    @staticmethod
    def _count_solves(monkeypatch):
        """Record the C and the step counts of every solve the probe makes
        through the module's ``solve_problem``; returns the list of them."""
        solve, solves = M.solve_problem, []

        def counted(spec, *args, **kwargs):
            traj = solve(spec, *args, **kwargs)
            r = traj.result
            solves.append((spec.C, r.n_accepted, r.n_rejected, r.n_rhs))
            return traj

        monkeypatch.setattr(M, "solve_problem", counted)
        return solves

    def test_probe_brackets_threshold(self, shipped_runs):
        spec = shipped_runs["ts_probe_d1.json"].spec
        rep = M.growth_probe(spec, c=5.0, tau=0.5)
        assert rep.empirical_C0 < 0
        fail, success = rep.bracket
        assert fail is not None and abs(fail - success) <= 0.011 * abs(success)
        assert all(s >= 5.0 for C, s in rep.samples if C <= rep.empirical_C0)
        assert rep.monotone
        # curvature budget at launch ~ A2 / fbar^2 for a collapsing circle
        assert rep.c_star == pytest.approx(6.0, rel=1e-4)

    @pytest.mark.parametrize(
        "name, ansatz",
        [("ts_probe_d1.json", {}), ("lpp_e0_c1.json", {"d2": 1}), ("ts_exit_einstein.json", {})],
        ids=["ts_probe_d1", "lpp_flat_circle", "ts_exit_einstein"],
    )
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(C=st.floats(-1e4, 0.0), tau=st.floats(0.05, 2.0))
    def test_a_run_is_excluded_by_the_shape_row_as_by_its_old_test(self, name, ansatz, C, tau):
        """The oracle is the probe's test before it read the shape row: a
        run is excluded when it ends before tau or some fdot_i is not
        positive at some sample, g2 left out on a steady flat circle
        (lpp with d2 = 1), whose slope the flow fixes at 0.
        ``ts_exit_einstein`` leaves the shape row at t = 1.5 - 2.1 for C
        in [-10, 0], so some of its runs are excluded."""
        doc = json.loads(config_path(name).read_text())
        doc["ansatz"] |= ansatz
        flat_circle = ansatz.get("d2") == 1
        cfg = load_config(doc)
        tols = dict(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
        traj = solve_problem(cfg.spec.with_C(C), t_max=tau, **tols)
        df = traj.df[:, :-1] if flat_circle else traj.df
        excluded = not traj.reached_horizon or not np.all(df > 0.0)

        def ask_once(c, start, slope_of):
            """A search that asks for C alone."""
            slope_of(C)
            return None, C

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "growth_estimate", lambda *args: None)
            mp.setattr(M, "_search", ask_once)
            rep = M.growth_probe(cfg.spec, c=1.0, tau=tau, **tols)
        assert rep.excluded == ([C] if excluded else [])
        assert rep.samples == ([] if excluded else [(C, float(-traj.du[-1]))])

    def test_probe_rejects_bad_arguments(self, shipped_runs):
        spec = shipped_runs["ts_probe_d1.json"].spec
        for c, tau in [(-1.0, 0.5), (0.0, 0.5), (math.nan, 0.5), (math.inf, 0.5), (5.0, 0.0),
                       (5.0, math.nan), (5.0, math.inf)]:
            with pytest.raises(ValueError, match="finite and positive"):
                M.growth_probe(spec, c=c, tau=tau)

    def test_probe_range_error(self, shipped_runs, monkeypatch):
        spec = shipped_runs["ts_probe_d1.json"].spec
        solved = self._count_solves(monkeypatch)
        monkeypatch.setattr(M, "_C_LIMIT", -1.0)
        with pytest.raises(M.ProbeRangeError, match=r"no admissible C in \(-1, -0.125\]"):
            M.growth_probe(spec, c=50.0, tau=0.5)
        # the whole grid above the limit, each point once
        assert sorted(C for C, *_ in solved) == [-0.5, -0.25, -0.125]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        nodes=st.lists(st.floats(0.0, 10.0), min_size=34, max_size=34),
        holes=st.sets(st.integers(0, 33), max_size=6),
        c=st.floats(0.5, 9.5),
    )
    def test_early_stop_keeps_the_full_scan_bracket(self, shipped_runs, nodes, holes, c):
        """On slopes that need not be monotone, with excluded runs around some
        grid points (a bisection midpoint can land on one), the probe started
        at -1/8 returns the full scan's bracket and a subset of its samples."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "growth_estimate", lambda *args: None)
            self._check_full_scan_bracket(shipped_runs, nodes, holes, c)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        nodes=st.lists(st.floats(0.0, 10.0), min_size=34, max_size=34).map(sorted),
        holes=st.sets(st.integers(0, 33), max_size=6),
        c=st.floats(0.5, 9.5),
    )
    def test_a_start_from_the_estimate_keeps_the_full_scan_bracket_on_monotone_slopes(
        self, shipped_runs, nodes, holes, c
    ):
        """As above, with slopes that grow with |C| and the search started
        where ``growth_estimate`` points on ts_probe_d1 (-8 to -128 for these
        c): where the start reaches c the walk toward -1/8 finds the full
        scan's bracket, and where it does not the scan runs from -1/8.  The
        predicted ends need not be points the full scan solved, and they
        take at most two solves more than solving every point of the walk
        and the bisection (``_walk_then_bisect``)."""
        self._check_full_scan_bracket(shipped_runs, nodes, holes, c, estimate=True)

    @staticmethod
    def _check_full_scan_bracket(shipped_runs, nodes, holes, c, estimate=False):
        """The probe on fake slopes, interpolated between ``nodes`` at the
        grid points and excluded around ``holes``, against the full scan."""
        spec = shipped_runs["ts_probe_d1.json"].spec
        solved = []  # the C of every solve

        def slope_of(C):
            x = float(np.log2(C / -0.125))  # the grid index, exact on grid points
            if round(x) in holes and abs(x - round(x)) < 0.25:
                return None
            return float(np.interp(x, np.arange(34), nodes))

        def fake_solve(spec, **kwargs):
            solved.append(spec.C)
            s = slope_of(spec.C)
            return SimpleNamespace(
                reached_horizon=s is not None,
                margins={"shape_exit": SimpleNamespace(holds=True)},
                du=np.array([0.0 if s is None else -s]),
                result=SimpleNamespace(n_accepted=1, n_rejected=0, n_rhs=6),
            )

        want = _full_scan_bracket(slope_of, c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "solve_problem", fake_solve)
            if want is None:
                # the whole grid above the limit, each point once
                with pytest.raises(M.ProbeRangeError):
                    M.growth_probe(spec, c=c, tau=0.5)
                assert sorted(solved) == sorted(-0.125 * 2.0**k for k in range(33))
                return
            rep = M.growth_probe(spec, c=c, tau=0.5)
        bracket, samples, excluded = want
        assert rep.bracket == bracket
        if estimate:
            assert all(slope_of(C) == s for C, s in rep.samples)
            assert all(slope_of(C) is None for C in rep.excluded)
            before = _walk_then_bisect(slope_of, c, rep.start)
            assert before is None or rep.n_solves <= before[1] + 2
        else:
            assert all(samples[C] == s for C, s in rep.samples)
            assert set(rep.excluded) <= set(excluded)
        assert len(set(rep.excluded)) == len(rep.excluded)
        assert rep.n_solves == len(solved) == len(set(solved))
        assert rep.n_rhs == 6 * rep.n_solves

    def test_equal_slopes_make_the_walk_halve(self):
        # the line through two equal squared slopes never reaches c^2: the
        # interpolant is degenerate, so the walk asks for the next grid
        # point instead of a predicted pair, and finds the bracket of the
        # search that solves every point
        assert M._root({-64.0: 6.0, -32.0: 6.0}, 5.0) is None
        # a root outside the bracket is degenerate too: squared slopes that
        # fall toward -64 reach 25 only below the weakest success -32
        assert M._root({-64.0: 5.5, -32.0: 6.0}, 5.0) is None

        def slope_of(C):
            return float(np.interp(-C, [0.0, 8.0, 16.0, 1e9], [0.0, 4.0, 6.0, 6.0]))

        found, asked = _asked(5.0, -64.0, slope_of)
        assert asked[:3] == [-64.0, -32.0, -16.0]
        assert found == _walk_then_bisect(slope_of, 5.0, -64.0)[0]

    def test_an_excluded_predicted_end_finishes_by_plain_bisection(self):
        # squared slopes linear in C: the line through -64 and -32 predicts
        # the leaf exactly, and its two ends are the bracket
        def line(C):
            return 0.85 * math.sqrt(-C)

        found, asked = _asked(5.0, -64.0, line)
        assert asked == [-64.0, -32.0, *found] and found == _walk_then_bisect(line, 5.0, -64.0)[0]
        # with the leaf's fail end excluded, the search bisects from the
        # walk's ends solving every midpoint, and stops where that
        # bisection meets the excluded run
        c_fail, c_success = found

        def holed(C):
            return None if C == c_fail else line(C)

        found, asked = _asked(5.0, -64.0, holed)
        assert asked[:5] == [-64.0, -32.0, c_fail, c_success, -math.sqrt(32.0 * 64.0)]
        bracket, before = _walk_then_bisect(holed, 5.0, -64.0)
        assert found == bracket and found[0] != c_fail
        assert len(asked) == len(set(asked)) <= before + 2

    def test_the_walks_plain_fallback_resumes_at_the_weakest_solved_success(self):
        # the line through -128 and -64 guesses that -16 reaches c = 0.5 and
        # -8 fails; both reach c, and the interpolant through the new
        # samples is degenerate (its only root is -8 itself), so the walk
        # solves every point from -8, the weakest success, not from start/2:
        # -32 lies between two successes and is never solved
        def slope_of(C):
            return float(np.interp(np.log2(C / -0.125), [0, 4, 8, 12], [0, 0, 1, 5]))

        found, asked = _asked(0.5, -128.0, slope_of)
        assert asked[:5] == [-128.0, -64.0, -8.0, -16.0, -4.0] and -32.0 not in asked
        f, s = -4.0, -8.0
        for mid in asked[5:]:  # then only the midpoints of the bisection
            assert mid == -math.sqrt(f * s)
            f, s = (f, mid) if slope_of(mid) >= 0.5 else (mid, s)
        assert found == (f, s) == (-7.956795387869065, -8.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        nodes=st.lists(st.floats(0.0, 10.0), min_size=33, max_size=33),
        k=st.integers(3, 10),
        c=st.floats(0.5, 9.5),
    )
    def test_a_non_monotone_slope_still_gives_a_confirmed_bracket(self, nodes, k, c):
        """Slopes that rise and fall with |C| break the monotone assumption
        of the search from a succeeding start -2^k / 8, so its bracket may
        differ from the full scan's; its ends are still solved, a failure
        and a success, at most 1% apart."""
        nodes = [0.0, *nodes]  # -1/8 fails
        nodes[k] = 10.0  # the start reaches c

        def slope_of(C):
            return float(np.interp(np.log2(C / -0.125), np.arange(34), nodes))

        (c_fail, c_success), asked = _asked(c, -0.125 * 2.0**k, slope_of)
        assert {c_fail, c_success} <= set(asked) and len(asked) == len(set(asked))
        assert slope_of(c_fail) < c <= slope_of(c_success)
        assert c_fail - c_success <= 0.01 * abs(c_success)

    def test_a_small_target_takes_no_more_solves_than_the_scan(self):
        # the estimate's grid point -8 lies six halvings from the threshold
        # near -0.2; the walk guesses the grid pair around it instead
        cfg = load_config(json.loads(config_path("dw_e0_c1.json").read_text()))
        tols = dict(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, delta=cfg.launch_delta)
        probe = dict(spec=cfg.spec, c=0.15, tau=2.25, **tols)
        with pytest.MonkeyPatch.context() as mp:
            solves = self._count_solves(mp)
            rep = M.growth_probe(**probe)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "growth_estimate", lambda *args: None)
            scan = M.growth_probe(**probe)
        assert (rep.start, scan.start) == (-8.0, -0.125)
        assert rep.bracket == scan.bracket == (-0.20571943476924565, -0.20683647095702432)
        assert (rep.n_solves, scan.n_solves) == (9, 9)
        # the one shipped case whose walk and bisection each guess more than
        # once: the walk guesses the pairs (-0.5, -1), (-0.25, -0.5) and
        # (-0.125, -0.25), solving the ends not yet known, then the
        # bisection guesses the leaves (-0.2046, -0.2057) and (-0.2057,
        # -0.2068)
        assert [C for C, *_ in solves] == [
            -8.0, -4.0, -0.5, -1.0, -0.25, -0.125,
            -0.2046084312208706, -0.20571943476924565, -0.20683647095702432,
        ]

    def test_probe_walks_from_the_estimate_to_the_first_failure(self, shipped_runs, monkeypatch):
        spec = shipped_runs["ts_probe_d1.json"].spec
        lines = self._count_solves(monkeypatch)
        rep = M.growth_probe(spec, c=5.0, tau=0.5)
        Cs = [C for C, *_ in lines]
        # the estimate -37.76 starts the search at -64, a success; -32 fails,
        # and the line through their squared slopes predicts the bisection's
        # leaf, whose two ends are the bracket
        assert (rep.C0_estimate, rep.start, rep.estimate_holds) == (-37.760776186588615, -64.0, True)
        assert len(Cs) == 4
        assert sorted(Cs) == [-64.0, -34.33391576083122, -34.14849282165835, -32.0]
        assert rep.bracket == (-34.14849282165835, -34.33391576083122)
        assert rep.excluded == []
        assert sorted(C for C, _ in rep.samples) == sorted(Cs)
        assert rep.n_solves == 4
        assert (rep.n_accepted, rep.n_rejected, rep.n_rhs) == (665, 8, 4046)
        _, *counts = zip(*lines)
        assert [rep.n_accepted, rep.n_rejected, rep.n_rhs] == [int(sum(col)) for col in counts]

    def test_probe_solves_conserve(self, shipped_runs):
        # each sample's run, made again, has its slope and conserves within
        # budget
        spec = shipped_runs["ts_probe_d1.json"].spec
        rep = M.growth_probe(spec, c=5.0, tau=0.5)
        assert len(rep.samples) == 4
        for C, slope in rep.samples:
            traj = solve_problem(spec.with_C(C), t_max=0.5)
            assert float(-traj.du[-1]) == slope
            assert M.conservation_report(traj).max_abs_residual <= 1e-8 * (1.0 + abs(C))

    def test_a_solve_that_raises_where_the_search_asks_surfaces(self, shipped_runs, monkeypatch):
        # the point after the start -64, and the fail end of the predicted leaf
        spec = shipped_runs["ts_probe_d1.json"].spec
        solve = M.solve_problem
        for raised in (-32.0, -34.14849282165835):

            def raising(spec, *args, **kwargs):
                if spec.C == raised:
                    raise ArithmeticError(f"solve at {raised}")
                return solve(spec, *args, **kwargs)

            monkeypatch.setattr(M, "solve_problem", raising)
            with pytest.raises(ArithmeticError, match=f"solve at {raised}"):
                M.growth_probe(spec, c=5.0, tau=0.5)

    def test_the_probe_forks_no_child(self, shipped_runs, monkeypatch):
        # two CPUs and os.fork at hand: every solve still runs in this process
        spec = shipped_runs["ts_probe_d1.json"].spec
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("the probe forked"))
        rep = M.growth_probe(spec, c=5.0, tau=0.5)
        assert rep.bracket == (-34.14849282165835, -34.33391576083122)
        assert rep.n_solves == 4
        assert (rep.n_accepted, rep.n_rejected, rep.n_rhs) == (665, 8, 4046)

@pytest.mark.parametrize("m", [3, 4])
def test_curvature_budget_sums_left_to_right(m):
    # one O(1) term and O(1e-16) ones: a compensated sum (builtin sum from
    # Python 3.12 on) keeps the small terms, a left-to-right one drops them
    a = DancerWangAnsatz((2,) * m, (1,) * m, (1,) * m)
    initial = (1.0,) + (1.15e8,) * (m - 1)
    spec = ProblemSpec(a, 0.0, -1.0, initial)
    terms = [d * p / g**2 for d, p, g in zip(a.d, a.p, initial)]
    want = terms[0]
    for term in terms[1:]:
        want += term
    assert math.fsum(terms) != want
    assert np.float64(M.curvature_budget_at_launch(spec)).tobytes() == np.float64(want).tobytes()
