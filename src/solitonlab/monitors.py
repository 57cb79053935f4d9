"""Trajectory diagnostics: preserved sets, potential monotonicity,
asymptotics, a priori bounds, growth probing and run classification.

Every report carries an ``anchor``, a one-line statement of the property
being checked, which is embedded verbatim in emitted JSON so a report can
be read without the code at hand.  A verdict of ``numerically_complete``
is an operational statement -- the run reached its horizon with every
monitored invariant intact -- never a claim of mathematical completeness.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import LaneLost, ProbeRangeError, Report, _beside, _fmt, _lanes
from .integrator import _H_FLOOR, _MAX_STEPS
from .launch import launch
from .systems import (
    ProblemSpec,
    TwoSummandsAnsatz,
    _ricci_rates_split,
    _sum,
    flow_ansatz,
)
from .trajectory import (
    _BOUND_TOL, Trajectory, dw_omega_sq_bounds, dw_pair_bound_constant,
    invariants, lpp_ratio_bound, solve_problem, two_summands_root_squares,
)

__all__ = [
    "TwoSummandsDiagnostics", "two_summands_roots", "quartic_ratio_polynomial",
    "ZeroConstantWindows", "c0_zero_predicates", "locus_report", "PotentialReport",
    "potential_report", "AsymptoteReport", "asymptote_check", "ConservationReport",
    "conservation_report", "OmegaReport", "two_summands_omega_monitor", "DWBoundReport",
    "dw_apriori_monitor", "LppBoundReport", "lpp_bound_monitor", "KahlerReport", "kahler_report",
    "charts_agree", "Verdict", "VERDICTS", "classify_completeness", "GrowthProbeReport",
    "growth_probe", "ProbeRangeError", "curvature_budget_at_launch", "comparison_ode_closed_form",
    "comparison_threshold", "growth_estimate",
]

_LOCUS_TOL = 1e-7  # both locus ratios this close to 1: the Einstein locus
_L_NONZERO_TOL = 1e-12  # every |fdot_i / f_i| below this: a steady run skips concavity
_MAX_T0_GRID = 256  # most grid times the windowed lower bound is checked at
_OMEGA_TOL = 1e-6  # relative slack on the two-summands ratio-slope cap
_KAHLER_TOL = 1e-6  # largest Kaehler residual still on the locus
_C_START = -0.125  # the growth probe's weakest grid point, where its scan starts
_C_LIMIT = -1e9  # the probe's scan gives up at or below this C
_BRACKET_REL = 0.01  # the relative width the probe's bracket is bisected to
_ROUNDS = 4  # predicted rounds of the probe's walk, and of its bisection, before it solves plainly


# -- two-summands root structure ---------------------------------------------


class TwoSummandsDiagnostics(Report):
    anchor: str
    D: float
    omega1: float | None
    omega2: float | None
    omega1_sq_below_quarter: bool | None
    omega2_sq_below_half: bool | None
    quartic_residuals: tuple[float, float] | None


def quartic_ratio_polynomial(a: TwoSummandsAnsatz, omega: float) -> float:
    """A1/d1 - (A2/d2) w^2 + A3 (1/d1 + 2/d2) w^4, the forcing polynomial of
    the fibre/base ratio equation; its positive zeros bound the preserved
    window."""
    return (
        a.A1 / a.d1
        - a.A2 / a.d2 * omega**2
        + a.A3 * (1.0 / a.d1 + 2.0 / a.d2) * omega**4
    )


def two_summands_roots(a: TwoSummandsAnsatz) -> TwoSummandsDiagnostics:
    """Discriminant and the two nonnegative roots of the ratio polynomial,
    from ``two_summands_root_squares``.  Also evaluates the classical checks
    omega1^2 < A2/(4 A3) and omega2^2 < A2/(2 A3).
    """
    D, w1_sq, w2_sq = two_summands_root_squares(a)
    anchor = "ratio polynomial roots bounding the preserved fibre/base window"
    if D < 0:
        return TwoSummandsDiagnostics(anchor=anchor, D=D)
    w1 = float(np.sqrt(max(w1_sq, 0.0)))
    w2 = float(np.sqrt(w2_sq))
    return TwoSummandsDiagnostics(
        anchor=anchor,
        D=D,
        omega1=w1,
        omega2=w2,
        omega1_sq_below_quarter=bool(w1_sq < a.A2 / (4.0 * a.A3)),
        omega2_sq_below_half=bool(w2_sq < a.A2 / (2.0 * a.A3)),
        quartic_residuals=(
            float(quartic_ratio_polynomial(a, w1)),
            float(quartic_ratio_polynomial(a, w2)),
        ),
    )


class ZeroConstantWindows(Report):
    anchor: str
    general: bool
    circle_fibre: bool


def c0_zero_predicates(a: TwoSummandsAnsatz) -> ZeroConstantWindows:
    """Parameter tests under which even C = 0 trajectories stay complete:
    (d1+1) A2^2 > 4 d1 d2 (2d1+d2) A3 in general and A2^2 > 2 d2 (d2+2) A3
    for a collapsing circle."""
    return ZeroConstantWindows(
        anchor="parameter windows where the zero conservation constant already suffices",
        general=bool((a.d1 + 1) * a.A2**2 > 4.0 * a.d1 * a.d2 * (2 * a.d1 + a.d2) * a.A3),
        circle_fibre=bool(a.A2**2 > 2.0 * a.d2 * (a.d2 + 2) * a.A3),
    )


# -- locus membership ----------------------------------------------------------


def _locus_classes(q1, q2):
    """einstein / strict / outside per sample, not_classifiable where the
    ratios are undefined."""
    einstein = (np.abs(q1 - 1.0) <= _LOCUS_TOL) & (np.abs(q2 - 1.0) <= _LOCUS_TOL)
    strict = (q1 < 1.0) & (q2 < 1.0)
    return np.select(
        [np.isnan(q1), einstein, strict], ["not_classifiable", "einstein", "strict"], "outside"
    )


class LocusSeriesReport(Report):
    anchor: str
    class_counts: dict[str, int]
    max_einstein_residual: float
    strict_throughout: bool
    einstein_throughout: bool


def locus_report(traj: Trajectory) -> LocusSeriesReport:
    """Samples per locus class; the per-sample ratios are trajectory.csv's
    two locus columns."""
    q1 = traj.columns["locus_mean_ratio"]
    q2 = traj.columns["locus_curvature_ratio"]
    # samples where the ratios are undefined carry no distance to the locus
    eins = np.fmax.reduce(np.fmax(np.abs(q1 - 1.0), np.abs(q2 - 1.0)))
    cls = _locus_classes(q1, q2)
    counts = {
        c: int(np.count_nonzero(cls == c))
        for c in ("einstein", "strict", "outside", "not_classifiable")
    }
    return LocusSeriesReport(
        anchor="preserved-locus membership along the whole trajectory",
        class_counts=counts,
        max_einstein_residual=float(eins),
        strict_throughout=counts["strict"] == cls.size,
        einstein_throughout=counts["einstein"] == cls.size,
    )


# -- potential monotonicity ------------------------------------------------------


class PotentialReport(Report):
    anchor: str
    trivial_potential: bool
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def potential_report(traj: Trajectory) -> PotentialReport:
    """For C < 0 (and eps >= 0): u < 0 and udot < 0 at every sample past the
    launch slice, and uddot < 0 whenever eps > 0, or eps = 0 with a
    nonvanishing shape operator."""
    spec = traj.spec
    anchor = "strict decay of the soliton potential along any C < 0 trajectory"
    if spec.C >= 0:
        # a C = 0 seed keeps u identically zero up to integration residue
        trivial = bool(np.max(np.abs(traj.du)) <= 1e-7 and np.max(np.abs(traj.u)) <= 1e-7)
        return PotentialReport(anchor=anchor, trivial_potential=trivial, violations=[])
    past = traj.ts > traj.delta
    zmax = np.max(np.abs(traj.df / traj.f), axis=1)
    concavity_applies = (spec.epsilon > 0) | (zmax > _L_NONZERO_TOL)
    checks = (
        ("u", traj.u, past & (traj.u >= 0)),
        ("du", traj.du, past & (traj.du >= 0)),
        ("udd", traj.udd, past & concavity_applies & (traj.udd >= 0)),
    )
    rows = np.flatnonzero(np.logical_or.reduce([bad for _, _, bad in checks]))
    violations = [
        {key: float(col[i]) for key, col, bad in checks if bad[i]} | {"t": float(traj.ts[i])}
        for i in rows
    ]
    return PotentialReport(anchor=anchor, trivial_potential=False, violations=violations)


# -- asymptotics -----------------------------------------------------------------


class AsymptoteReport(Report):
    anchor: str
    kind: str
    terminal_slope: float | None
    terminal_slope_target: float | None
    terminal_slope_abs_error: float | None
    terminal_udd: float | None
    upper_bound_violations: int | None
    lower_bound_violations: int | None
    lower_bound_window_start: float | None


def asymptote_check(traj: Trajectory) -> AsymptoteReport:
    """Steady runs: how far -udot(t_end) sits from sqrt(-C) and how flat
    uddot has become.  Expanding runs: the bound
    -udot(t) < (eps/2) t + sqrt(-C) at every sample, plus the windowed
    lower bound with prefactor 9/10 for grid times t0 > 2 sqrt(5/eps)
    (reported only; classification never depends on it)."""
    spec = traj.spec
    slope = -traj.du
    if spec.epsilon == 0:
        target = float(np.sqrt(-spec.C))
        return AsymptoteReport(
            anchor="steady potential slope approaching sqrt(-C) with vanishing uddot",
            kind="steady",
            terminal_slope=float(slope[-1]),
            terminal_slope_target=target,
            terminal_slope_abs_error=float(abs(slope[-1] - target)),
            terminal_udd=float(traj.udd[-1]),
        )
    eps = spec.epsilon
    upper = eps / 2.0 * traj.ts + np.sqrt(-spec.C)
    n_upper = int(np.sum(slope >= upper))
    # windowed lower bound
    K = np.sqrt(spec.orbit_dim * eps / 2.0) + np.sqrt(-spec.C)
    window = 2.0 * np.sqrt(5.0 / eps)
    phi = slope / (eps / 2.0 * traj.ts + K)
    idx = np.nonzero(traj.ts > window)[0]
    n_lower = 0
    if idx.size:
        suffix_min = np.minimum.accumulate(phi[::-1])[::-1]
        sel = idx if idx.size <= _MAX_T0_GRID else idx[:: max(1, idx.size // _MAX_T0_GRID)]
        n_lower = int(np.sum(suffix_min[sel] < 0.9 * phi[sel]))
    return AsymptoteReport(
        anchor="expanding potential slope pinched between the linear barrier and its windowed fraction",
        kind="expanding",
        upper_bound_violations=n_upper,
        lower_bound_violations=n_lower,
        lower_bound_window_start=float(window),
    )


# -- conservation ---------------------------------------------------------------


class ConservationReport(Report):
    anchor: str
    max_abs_residual: float
    max_abs_residual_curvature: float
    max_variant_disagreement: float
    tolerance: float
    ok: bool


def _conservation_budget(traj: Trajectory) -> tuple[float, float]:
    """The largest |conservation residual| over the samples and the budget
    1e-8 (1 + |C|) it must not exceed: the one rule the report and the
    verdict read."""
    worst = float(np.max(np.abs(traj.columns["conservation_residual"])))
    return worst, 1e-8 * (1.0 + abs(traj.spec.C))


_CHART_TOL = 1e-6  # largest relative deviation between the two charts' samples


def charts_agree(comparison) -> bool:
    """The one rule the chart_comparison check and the verdict read."""
    return comparison.max_rel_deviation <= _CHART_TOL


def conservation_report(traj: Trajectory) -> ConservationReport:
    r3 = traj.columns["conservation_residual"]
    r4 = traj.columns["conservation_residual_curvature"]
    worst, tol = _conservation_budget(traj)
    return ConservationReport(
        anchor="first integral uddot + (-udot + tr L) udot - C - eps u vanishing along the flow",
        max_abs_residual=worst,
        max_abs_residual_curvature=float(np.max(np.abs(r4))),
        max_variant_disagreement=float(np.max(np.abs(r3 - r4))),
        tolerance=tol,
        ok=worst <= tol,
    )


# -- ansatz-specific invariant sets -----------------------------------------------


class OmegaReport(Report):
    anchor: str
    no_root_regime: bool
    omega2: float | None
    max_omega: float
    max_domega: float
    domega_bound: float
    domega_ok: bool | None
    below_root_throughout: bool | None


def two_summands_omega_monitor(traj: Trajectory) -> OmegaReport:
    """Ratio omega = f1/f2: slope never exceeding its launch value 1/fbar
    while omega is in [0, omega2), inside the window row, and omega staying
    below omega2."""
    D, _, w2_sq = two_summands_root_squares(traj.spec.ansatz)
    no_root = D < 0
    omega, domega = traj.columns["omega"], traj.columns["domega"]
    bound = 1.0 / traj.spec.initial[0]  # 1 / fbar
    window = traj.margins["invariant_exit"]
    in_window = (omega >= 0.0) & window.inside  # omega in [0, omega2)
    max_do = float(np.max(domega[in_window])) if np.any(in_window) else -np.inf
    return OmegaReport(
        anchor="fibre/base ratio slope capped by its launch value inside the preserved window",
        no_root_regime=no_root,
        omega2=None if no_root else float(np.sqrt(w2_sq)),
        max_omega=float(np.max(omega)),
        max_domega=float(np.max(domega)) if no_root else max_do,
        domega_bound=bound,
        domega_ok=None if no_root else bool(max_do <= bound * (1.0 + _OMEGA_TOL)),
        below_root_throughout=None if no_root else window.holds,
    )


class DWBoundReport(Report):
    anchor: str
    c0: float
    omega_sq_bounds: list[float]
    bound_ok_throughout: bool
    first_violation_t: float | None
    max_qdot: float | None
    qdot_ceiling: float | None
    qdot_ok: bool | None
    key_estimate_ok: bool


def dw_apriori_monitor(traj: Trajectory) -> DWBoundReport:
    """Circle-bundle a priori bounds: omega_i^2 below its ceiling and all
    ratios g_i/g_j below the pair constant, the ratio-slope ceiling
    sqrt(p_i / ((d_i - 1) g_j(0)^2)), and the key curvature estimate
    p_i/g_i^2 - (q_i^2/2) f^2/g_i^4 >= d_i p_i / ((d_i+2) g_i^2) while the
    bounds hold."""
    spec = traj.spec
    a = spec.ansatz
    c0 = dw_pair_bound_constant(a, spec.initial)
    g = traj.f[:, 1:]
    dg = traj.df[:, 1:]
    bound_ok = traj.margins["invariant_exit"].inside
    first_bad = None if bool(np.all(bound_ok)) else float(traj.ts[int(np.argmin(bound_ok))])

    max_qdot = qdot_ceiling = qdot_ok = None
    if a.m > 1:
        z = dg / g
        ceilings, rates = [], []
        for i in range(a.m):
            for j in range(a.m):
                if i == j or a.d[i] <= 1:
                    continue
                q_ij = g[:, i] / g[:, j]
                dq_ij = q_ij * (z[:, i] - z[:, j])
                rates.append(np.max(dq_ij[bound_ok]) if np.any(bound_ok) else -np.inf)
                ceilings.append(np.sqrt(a.p[i] / ((a.d[i] - 1.0) * spec.initial[j] ** 2)))
        if rates:
            # the ceiling is per-pair; report the worst margin
            margins = [c - r for c, r in zip(ceilings, rates)]
            worst = int(np.argmin(margins))
            max_qdot = float(rates[worst])
            qdot_ceiling = float(ceilings[worst])
            qdot_ok = bool(margins[worst] >= -_BOUND_TOL)

    p = np.asarray(a.p, dtype=float)
    d = np.asarray(a.d, dtype=float)
    lhs = np.array(_ricci_rates_split(traj.samples.f, a)[1][1:]).T  # the rates r_gi
    rhs = d * p / (d + 2.0) / g**2
    key_ok = bool(np.all(lhs[bound_ok] >= rhs[bound_ok] - _BOUND_TOL))
    return DWBoundReport(
        anchor="circle-bundle a priori bounds on f/g_i and g_i/g_j with slope and curvature consequences",
        c0=float(c0),
        omega_sq_bounds=[float(v) for v in dw_omega_sq_bounds(a, c0)],
        bound_ok_throughout=bool(np.all(bound_ok)),
        first_violation_t=first_bad,
        max_qdot=max_qdot,
        qdot_ceiling=qdot_ceiling,
        qdot_ok=qdot_ok,
        key_estimate_ok=key_ok,
    )


class LppBoundReport(Report):
    anchor: str
    bound: float
    max_omega1_sq: float
    ok: bool


def lpp_bound_monitor(traj: Trajectory) -> LppBoundReport:
    return LppBoundReport(
        anchor="warped-product ratio bound omega1^2 < 4 p1 / ((d1+2) q1^2)",
        bound=lpp_ratio_bound(traj.spec.ansatz),
        max_omega1_sq=float(np.max(traj.columns["omega1"] ** 2)),
        ok=traj.margins["invariant_exit"].holds,
    )


class KahlerReport(Report):
    anchor: str
    max_abs_residual: float
    per_factor_max: list[float]
    on_locus: bool


def kahler_report(traj: Trajectory) -> KahlerReport:
    per = np.max(np.abs(traj.columns["kahler_res"]), axis=1)
    return KahlerReport(
        anchor="first-order condition d/dt g_i^2 = -q_i f cutting the preserved Kaehler locus",
        max_abs_residual=float(np.max(per)),
        per_factor_max=[float(v) for v in per],
        on_locus=bool(np.max(per) <= _KAHLER_TOL),
    )


# -- classification --------------------------------------------------------------


class Verdict(Report):
    kind: str
    t_star: float | None
    reasons: list[str]
    note: str


_VERDICT_NOTE = (
    "numerically_complete is a horizon verdict: the run reached t_max with "
    "every monitored invariant intact; it is evidence, not a completeness proof"
)
# every verdict classify_completeness gives, the names a config's expect may take
VERDICTS = ("numerically_complete", "invariant_set_exit", "metric_degenerate", "inconclusive")
# the verdict of a run that ended before t_max, other than at a row's event
_ENDED_EARLY = {"state_invalid": "metric_degenerate"}


def _step_limit(traj: Trajectory) -> str:
    """Which limit ended a step_failure run, read from its counts: the cap
    on step attempts, or else the step floor at the last sample."""
    r = traj.result
    if r.n_accepted + r.n_rejected >= _MAX_STEPS:
        return f"all {_MAX_STEPS} step attempts made ({r.n_accepted} accepted, {r.n_rejected} rejected)"
    t = float(traj.ts[-1])
    return (
        f"the step fell below its floor 16 eps max(1, |t|) = {_H_FLOOR * max(1.0, abs(t)):.3e}"
        f" at t = {_fmt(t)}"
    )


def classify_completeness(traj: Trajectory, comparison=None, compact_termination: str = "") -> Verdict:
    """Sort a finished run into numerically_complete / invariant_set_exit /
    metric_degenerate / inconclusive, with every reason it has.

    A ``step_failure`` run also names the limit that ended it: the cap of
    ``_MAX_STEPS`` step attempts or the step floor.

    Completeness requires the horizon, the conservation residual within
    tolerance, and every row of the invariant table (strictly positive
    shape eigenvalues, the ansatz's preserved set) holding at every sample.
    Given ``comparison``, the ``compare_charts`` report of a compact-chart
    run of the same problem that ended with ``compact_termination``, it
    also requires the charts to agree (``charts_agree``) over the whole
    run.
    """
    term = traj.termination
    charts = []  # why the compact chart, when given, does not confirm the run
    if comparison is not None:
        t_hi, t_end = comparison.t_hi, traj.ts[-1]
        if not charts_agree(comparison):
            charts.append(f"chart deviation {comparison.max_rel_deviation:.3e} above {_CHART_TOL:.3e}")
        # a compact run that ends at t_target reached t_max; its carried t
        # may still land a rounding short of it
        if t_hi < t_end and compact_termination != "event:t_target":
            charts.append(
                f"the charts are compared up to t = {_fmt(t_hi)}, where the compact"
                f" chart ends; ({_fmt(t_hi)}, {_fmt(t_end)}] is not compared"
            )
    if term != "reached_t_max":
        rows = {f"event:{row.event}" for row in invariants(traj.spec)}
        kind = "invariant_set_exit" if term in rows else _ENDED_EARLY.get(term, "inconclusive")
        limit = [_step_limit(traj)] if term == "step_failure" else []
        return Verdict(kind=kind, t_star=float(traj.ts[-1]), reasons=[term, *limit, *charts], note=_VERDICT_NOTE)
    reasons = []
    worst, tol = _conservation_budget(traj)
    if not worst <= tol:
        reasons.append(f"conservation residual {worst:.3e} above {tol:.3e}")
    reasons += [m.row.reason for m in traj.margins.values() if not m.holds]
    reasons += charts
    kind = "inconclusive" if reasons else "numerically_complete"
    return Verdict(kind=kind, t_star=None, reasons=reasons, note=_VERDICT_NOTE)


# -- growth probe -----------------------------------------------------------------


class GrowthProbeReport(Report):
    anchor: str
    c: float
    tau: float
    c_star: float
    empirical_C0: float
    bracket: tuple[float | None, float]
    samples: list[tuple[float, float]]
    excluded: list[float]
    monotone: bool
    n_solves: int
    n_accepted: int
    n_rejected: int
    n_rhs: int
    lanes: int
    n_unused: int
    C0_estimate: float | None
    start: float
    estimate_holds: bool | None


def curvature_budget_at_launch(spec: ProblemSpec, delta: float | None = None) -> float:
    """The trace of the Killing-type curvature budget at the launch slice:
    sum A_i / f_i^2 for the two-summands system, sum d_i p_i / g_i(0)^2 for
    circle bundles (the warped factor contributing d2 (d2 - 1) / g2(0)^2)."""
    a = flow_ansatz(spec.ansatz)
    if isinstance(a, TwoSummandsAnsatz):
        state = launch(spec, delta)
        return float(a.A1 / state.f[0] ** 2 + a.A2 / state.f[1] ** 2)
    # left to right, as on Python < 3.12, whose builtin sum is not compensated
    return float(_sum([d * p / g**2 for d, p, g in zip(a.d, a.p, spec.initial)]))


# -- the growth estimate ------------------------------------------------------------
# While every fdot_i > 0, the identity 2 uddot = C + eps u + udot^2
# + (tr L^2 - (tr L)^2) + tr r + (n-1) eps/2 has its bracket <= 0, tr r below
# c_star and eps u <= 0 for C < 0, so y = udot obeys y' <= -a + y^2/2 with
# a = -(C + c_star + (n-1) eps/2) / 2: the comparison solution from the
# launch slice bounds -udot from below.


def comparison_ode_closed_form(a: float, y_star: float, s_star: float, s):
    """Solution of y' = -a + y^2/2, y(s_star) = y_star:
    sqrt(2a) tanh(sqrt(a/2)(s_star - s) + arctanh(y_star / sqrt(2a))).
    Requires a > 0 and -a + y_star^2/2 < 0."""
    if a <= 0:
        raise ValueError("comparison coefficient a must be positive")
    if -a + y_star**2 / 2.0 >= 0:
        raise ValueError("initial value outside the contracting branch")
    root = np.sqrt(2.0 * a)
    return root * np.tanh(np.sqrt(a / 2.0) * (s_star - s) + np.arctanh(y_star / root))


def comparison_threshold(c: float, tau: float, y_star: float, s_star: float) -> float:
    """a0(c, tau): the least a whose comparison solution from (s_star,
    y_star) has y(tau) <= -c, bisected to adjacent floats.  y(tau) falls as
    a grows and stays above -sqrt(2a), so a0 lies above c^2/2.  Requires
    |y_star| < c and tau > s_star."""
    if not (abs(y_star) < c and tau > s_star):
        raise ValueError("the threshold needs |y_star| < c and tau > s_star")

    def reached(a):
        return comparison_ode_closed_form(a, y_star, s_star, tau) <= -c

    lo = hi = c * c / 2.0
    while not reached(hi):
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return float(hi)


def growth_estimate(spec: ProblemSpec, c: float, tau: float, delta: float | None = None) -> float | None:
    """C0(c, tau) = -2 a0 - c_star - (n-1) eps/2, the C at and below which
    the comparison from the launch slice (``launch``: s = delta, y =
    udot(delta)) predicts -udot(tau) >= c.  None where that is vacuous:
    c_star carries the collapsing fibre's A1/f0^2 (about 6e6 at delta =
    1e-3), the launch slice alone decides (|udot(delta)| >= c, or tau <=
    delta), or C0 is not in (``_C_LIMIT``, ``_C_START``).  None too where
    sizes out of a float's range make c_star fail: the solves report that."""
    a = flow_ansatz(spec.ansatz)
    if isinstance(a, TwoSummandsAnsatz) and a.A1 != 0:
        return None
    state = launch(spec, delta)
    if not (abs(state.du) < c and tau > state.t):
        return None
    try:
        c_star = curvature_budget_at_launch(spec, delta)
    except ArithmeticError:
        return None
    a0 = comparison_threshold(c, tau, float(state.du), float(state.t))
    C0 = -2.0 * a0 - c_star - (spec.orbit_dim - 1) * spec.epsilon / 2.0
    return C0 if _C_LIMIT < C0 < _C_START else None


# -- growth probe -----------------------------------------------------------------


_WORK = ("n_accepted", "n_rejected", "n_rhs")  # a probe's work counts, summed over its solves


def _start(C0: float | None) -> float:
    """The probe's first C: the first point of its doubling grid at or below
    the estimate C0, or ``_C_START`` where there is none above ``_C_LIMIT``."""
    if C0 is None:
        return _C_START
    C = _C_START
    while C > C0:
        C *= 2.0
    return C if C > _C_LIMIT else _C_START


def _grid(j: int) -> float:
    """The probe's doubling grid: -1/8, -1/4, ... at j = 0, 1, ..."""
    return _C_START * 2.0**j


def _root(known: dict, c: float) -> float | None:
    """Where the interpolant of the solved slopes' squares against C
    reaches c^2, between the weakest success and the failure next above it
    (or 0): the line through two samples, or the parabola through the three
    nearest those ends in log|C|.  For steady C < 0 the far field gives
    -udot -> sqrt(-C), so (-udot)^2 is close to linear in C.  None where
    the interpolant is degenerate: equal slopes, no finite root, or no
    single root between those ends."""
    samples = [(C, s) for C, s in known.items() if s is not None]
    lo = max((C for C, s in samples if s >= c), default=None)
    if lo is None:
        return None
    hi = min((C for C, s in samples if s < c and C > lo), default=0.0)
    ends = [lo] if hi == 0.0 else [lo, hi]
    near = sorted(samples, key=lambda p: (min(abs(math.log(p[0] / e)) for e in ends), p[0]))[:3]
    if len(near) < 2:
        return None
    (C0, s0), (C1, s1) = near[:2]
    v0, v1 = s0 * s0, s1 * s1
    d01, rest = (v1 - v0) / (C1 - C0), c * c - v0
    # in z = C - C0 the interpolant reaches c^2 where a z^2 + b z - rest = 0
    a = 0.0
    if len(near) == 3:
        C2, s2 = near[2]
        a = ((s2 * s2 - v1) / (C2 - C1) - d01) / (C2 - C0)
    b = d01 + a * (C0 - C1)
    if a == 0.0:
        zs = [rest / b] if b != 0.0 else []
    elif (disc := b * b + 4.0 * a * rest) < 0.0:
        zs = []
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        zs = [q / a, -rest / q] if q != 0.0 else [0.0]
    inside = [C0 + z for z in zs if math.isfinite(C0 + z) and lo < C0 + z < hi]
    return inside[0] if len(inside) == 1 else None


def _reaches(known: dict, C: float, c: float, x: float | None) -> bool:
    """Whether the run at C is taken to reach c: by its own solve; else by
    monotonicity, a solved success at or above C or a solved failure at or
    below it; else by lying at or below the interpolant's root x."""
    if known.get(C) is not None:
        return known[C] >= c
    if any(s is not None and s >= c and K >= C for K, s in known.items()):
        return True
    if any(s is not None and s < c and K <= C for K, s in known.items()):
        return False
    return x is not None and C <= x


def _search(c: float, start: float, expect: dict | None = None):
    """The probe's search, as a generator: yields each C it asks for and is
    sent -udot(tau) of the run at C, or None when the run is excluded.
    Returns (c_fail or None, c_success), or None when no C above
    ``_C_LIMIT`` reaches c.  A C it has been sent once is never asked
    again.  ``expect``, when given, gets for each C asked whether the
    search expects its run to reach c (``_guess``).

    It scans the grid C = -1/8, -1/4, ... for the weakest success (the
    first in scan order) and the failure nearest it, then bisects in log|C|
    between them until the bracket is 1% tight.  A grid point ``start``
    below -1/8 is the estimate's.  Where its slope does not reach c, the
    scan runs from -1/8, reusing its outcome, and so does its bisection.
    Where it does, the search assumes the slope is monotone in C:

    - The walk toward -1/8 asks for start/2, then predicts the first grid
      failure F from the interpolant (``_root``) and asks for F and 2F back
      to back.  A failing F and a succeeding 2F are the walk's end; every
      grid point weaker than F is taken to fail and every one between 2F
      and the start to succeed.
    - Where the walk's ends are adjacent grid points, the bisection labels
      each midpoint on its path (each ``-math.sqrt(c_fail * c_success)``
      from the ends the labels so far give) by its own solve, by
      monotonicity or by the interpolant (``_reaches``), and asks for the
      two ends of the leaf so predicted, back to back.  A failing fail end
      and a succeeding success end make that leaf the answer, the one the
      bisection solving every midpoint reaches: the leaves partition the
      bracket, and on a monotone slope only one has such ends.

    Otherwise it predicts again with the new samples, and after
    ``_ROUNDS`` rounds, at an excluded end or at a degenerate interpolant it
    finishes plainly, halving toward -1/8 or bisecting, on the samples it
    has."""
    known: dict = {}  # C -> its run's slope, None where excluded

    def ask(C, reaches=None):
        """The slope at C, asked for unless known; ``reaches`` is what the
        search expects of it, by default what monotonicity or the
        interpolant gives, worked out only for ``expect``."""
        if C not in known:
            if expect is not None:
                expect[C] = _reaches(known, C, c, _root(known, c)) if reaches is None else reaches
            known[C] = yield C
        return known[C]

    def label(C):
        """A solved run's outcome: True at a success, False at a failure,
        None where excluded or not solved."""
        s = known.get(C)
        return None if s is None else s >= c

    def walk(g):
        """(F or None, S) from the grid point g's success: S the weakest
        grid success and F the failure next above it, as halving from g
        toward -1/8 and skipping excluded runs finds them."""
        yield from ask(_grid(g - 1), False)
        rounds = 0
        while True:
            ks = min(j for j in range(g + 1) if label(_grid(j)))
            kf = max((j for j in range(ks) if label(_grid(j)) is False), default=-1)
            unknown = [j for j in range(kf + 1, ks) if _grid(j) not in known]
            if not unknown:
                return (_grid(kf) if kf >= 0 else None), _grid(ks)
            x = _root(known, c) if rounds < _ROUNDS else None
            if x is None:  # halve: the next grid point not yet solved
                rounds = _ROUNDS
                yield from ask(_grid(max(unknown)))
                continue
            rounds += 1
            weak = [j for j in [kf, *unknown] if j >= 0 and _grid(j) > x]
            if not weak:  # every unknown point is predicted to reach c
                yield from ask(_grid(min(unknown)), True)
                continue
            k = max(weak)
            ends = [(_grid(k), False), (_grid(k + 1), True)]
            if all(C in known for C, _ in ends):
                rounds = _ROUNDS
                continue
            for C, reaches in ends:
                yield from ask(C, reaches)
            if None in (known[C] for C, _ in ends):
                rounds = _ROUNDS

    def bisect(c_fail, c_success, predict):
        """The log-bisection of (c_fail, c_success) to 1%, stopped by an
        excluded midpoint; with ``predict``, its leaf predicted first."""
        rounds = 0 if predict else _ROUNDS
        while rounds < _ROUNDS:
            x = _root(known, c)
            if x is None:
                break
            rounds += 1
            f, s = c_fail, c_success
            while f - s > _BRACKET_REL * abs(s):
                mid = -math.sqrt(f * s)  # geometric midpoint, both negative
                if mid in known and known[mid] is None:
                    break
                if _reaches(known, mid, c, x):
                    s = mid
                else:
                    f = mid
            sf = yield from ask(f, False)
            ss = yield from ask(s, True)
            if sf is None or ss is None:
                break
            if sf < c <= ss:
                return f, s
        f, s = c_fail, c_success
        while f - s > _BRACKET_REL * abs(s):
            mid = -math.sqrt(f * s)
            sm = yield from ask(mid)
            if sm is None:
                break
            if sm >= c:
                s = mid
            else:
                f = mid
        return f, s

    s_start = yield from ask(start, start != _C_START)  # the estimate's start is expected to hold
    predict = start != _C_START and s_start is not None and s_start >= c
    if predict:
        c_fail, c_success = yield from walk(round(math.log2(start / _C_START)))
    else:
        c_success = c_fail = None
        C = _C_START
        while C > _C_LIMIT:
            s = yield from ask(C, False)
            if s is not None:
                if s >= c:
                    c_success = C
                    break
                c_fail = C
            C *= 2.0
        if c_success is None:
            return None
    if c_fail is None:
        return None, c_success
    # an excluded grid point between the walk's ends: excluded runs may sit
    # on the bisection's path, and only their solves would show it
    return (yield from bisect(c_fail, c_success, predict and c_success == 2.0 * c_fail))


def _guess(sent: list, C, c: float, start: float) -> float:
    """A slope for C before its solve ends: above c where a fresh search
    from ``start``, sent ``sent``, expects the run at C to reach c, below c
    elsewhere.  A wrong guess costs a solve, never a result."""
    expect: dict = {}
    search = _search(c, start, expect)
    with contextlib.suppress(StopIteration):
        next(search)
        for s in sent:
            search.send(s)
    return math.inf if expect.get(C) else -math.inf


def _next_request(slopes: list, c: float, start: float):
    """The C a fresh search from ``start`` asks for once sent ``slopes`` in
    order; None when it would then end."""
    search = _search(c, start)
    C = next(search)
    try:
        for s in slopes:
            C = search.send(s)
    except StopIteration:
        return None
    return C


def growth_probe(
    spec: ProblemSpec,
    c: float,
    tau: float,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    delta: float | None = None,
) -> GrowthProbeReport:
    """Bracket the weakest conservation constant driving -udot(tau) >= c.

    Runs ``_search`` with one solve per C it asks for, from the grid point
    the estimate ``growth_estimate`` predicts (``_start``); with no success
    above ``_C_LIMIT`` it raises ``ProbeRangeError``.  ``estimate_holds``
    says whether the run at that start reached c (None where the search
    started at ``_C_START``).  From a start that holds, the search predicts
    the rest of its walk and its bisection from the slopes it has, and
    solves the two ends of each prediction.  A run that ends before tau or
    leaves the shape row (``margins["shape_exit"]``, which leaves a flat
    warped circle's fixed g2 out) is excluded and reported.

    With two lanes (``_lanes``, and a lane that got its child), a forked
    child (see ``_beside``) solves the C the search will ask for next,
    found by a fresh search sent the slopes so far and, for the C this
    process solves meanwhile, the outcome the search itself expects
    (``_guess``).  The search asks for a prediction's two ends back to
    back, so the child solves the second while this process solves the
    first.  The report is built from the C values the search asked for, so
    it is the one-lane report, and ``n_unused`` counts the child's solves
    it never asked for.
    A solve that raised surfaces only if the search asks for its C.  If the
    child dies, this process finishes the search alone.
    """
    if not (0.0 < c < math.inf and 0.0 < tau < math.inf):
        raise ValueError("slope target c and probe time tau must be finite and positive")

    def outcome(C):
        """-udot(tau) of the run at C, or None when it is excluded, and the
        run's work counts; or the exception the solve raised."""
        try:
            t = solve_problem(spec.with_C(C), t_max=tau, rel_tol=rel_tol, abs_tol=abs_tol, delta=delta)
        except Exception as exc:  # raised here if the search asks for C
            return exc
        work = tuple(getattr(t.result, key) for key in _WORK)
        if not t.reached_horizon or not t.margins["shape_exit"].holds:
            return None, work
        return float(-t.du[-1]), work

    C0 = growth_estimate(spec, c, tau, delta)
    start = _start(C0)
    outcomes: dict = {}  # C -> outcome(C), made in either lane
    asked, sent = [], []  # the C values the search asked for and the slopes it was sent
    search = _search(c, start)
    with _beside(outcome) if _lanes() == 2 else contextlib.nullcontext() as lane:
        lane = lane if getattr(lane, "pid", None) else None  # a lane without a child is none
        lanes = 1 if lane is None else 2
        in_flight = None  # the C the child is solving
        try:
            C = next(search)
            while True:
                # wait for the child's solve: the search needs it now, or
                # the child must be free for the next guess
                if C not in outcomes and in_flight is not None:
                    try:
                        outcomes[in_flight] = lane.answer()
                    except LaneLost:
                        lane = None  # the child is gone: go on alone
                    in_flight = None
                if C not in outcomes:
                    if lane is not None:
                        in_flight = _next_request([*sent, _guess(sent, C, c, start)], c, start)
                        if in_flight in outcomes:
                            in_flight = None
                        elif in_flight is not None:
                            lane.ask(in_flight)
                    outcomes[C] = outcome(C)
                if isinstance(outcomes[C], Exception):
                    raise outcomes[C]
                asked.append(C)
                sent.append(outcomes[C][0])
                C = search.send(sent[-1])
        except StopIteration as stop:
            found = stop.value
        if in_flight is not None:  # a guess the search did not follow
            with contextlib.suppress(LaneLost):
                outcomes[in_flight] = lane.answer()
    if found is None:
        raise ProbeRangeError(
            f"no admissible C in ({_C_LIMIT:g}, {_C_START:g}] reaches -udot({tau:g}) >= {c:g}"
        )
    c_fail, c_success = found
    samples = {C: outcomes[C][0] for C in asked if outcomes[C][0] is not None}
    ordered = sorted(samples.items())  # most negative first
    slopes = [s for _, s in ordered]
    monotone = all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
    work = map(sum, zip(*(outcomes[C][1] for C in asked)))
    holds = None  # no estimate to hold
    if start != _C_START:
        s = outcomes[start][0]
        holds = s is not None and s >= c
    return GrowthProbeReport(
        anchor="empirical threshold on the conservation constant prescribing the potential's slope",
        c=float(c),
        tau=float(tau),
        c_star=curvature_budget_at_launch(spec, delta),
        empirical_C0=float(c_success),
        bracket=(None if c_fail is None else float(c_fail), float(c_success)),
        samples=[(float(k), float(v)) for k, v in ordered],
        excluded=sorted(C for C in asked if outcomes[C][0] is None),
        monotone=bool(monotone),
        n_solves=len(asked),
        **dict(zip(_WORK, work)),
        lanes=lanes,
        n_unused=len(outcomes) - len(asked),
        C0_estimate=C0,
        start=start,
        estimate_holds=holds,
    )
