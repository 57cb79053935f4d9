"""Trajectory diagnostics: preserved sets, potential monotonicity,
asymptotics, a priori bounds, growth probing and run classification.

Every report carries an ``anchor``, a one-line statement of the property
being checked, which is embedded verbatim in emitted JSON so a report can
be read without the code at hand.  A verdict of ``numerically_complete``
is an operational statement -- the run reached its horizon with every
monitored invariant intact -- never a claim of mathematical completeness.
"""

from __future__ import annotations

import math

import numpy as np

from . import ProbeRangeError, Report, _fmt
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
_ROUNDS = 4  # guessed rounds of the probe's walk, and of its bisection, before it solves every point


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


def _reaches(known: dict, C: float, c: float, x: float) -> bool | None:
    """Whether the run at C is taken to reach c: by its own solve, None
    where that excluded it; else by monotonicity, a solved success at or
    above C or a solved failure at or below it; else by lying at or below
    the interpolant's root x."""
    if C in known:
        return None if known[C] is None else known[C] >= c
    if any(s is not None and s >= c and K >= C for K, s in known.items()):
        return True
    if any(s is not None and s < c and K <= C for K, s in known.items()):
        return False
    return C <= x


def _search(c: float, start: float, slope_of):
    """The probe's search: (c_fail or None, c_success), or None when no C
    above ``_C_LIMIT`` reaches c.  It calls ``slope_of(C)`` for -udot(tau)
    of the run at C, None when the run is excluded, at most once per C.

    The search is a grid walk and a log-bisection.  The walk doubles C from
    -1/8 to the first success, or, from a grid point ``start`` below -1/8
    (the estimate's) whose run reaches c, solves start/2 and halves from the
    weakest success to the first failure; it skips excluded runs.  The
    bisection halves the walk's pair in log|C| until it is 1% tight, and
    stops at an excluded midpoint.

    From a start that reaches c, the search assumes the slope is monotone
    in C and runs the walk, and then the bisection of an adjacent grid pair,
    first under guessed outcomes: a run's own solve, else monotonicity,
    else lying at or below the root of the interpolant of the solved slopes
    (``_reaches`` at ``_root``'s x).  It solves only the two ends the stage
    so reaches.  A failing fail end (or none, where the walk guesses no
    failure down to -1/8) and a succeeding success end are the stage's
    answer, the one solving every point would give: on a monotone slope no
    other pair the stage can reach has such ends.  Otherwise it guesses
    again with the new samples, and after ``_ROUNDS`` rounds, at an
    excluded end of a pair or at a degenerate interpolant it runs the stage
    under solved outcomes, reusing every solve."""
    known: dict = {}  # C -> its run's slope, None where excluded

    def solved(C):
        """The run at C, solved unless known: True where it reaches c,
        False where it does not, None where excluded."""
        if C not in known:
            known[C] = slope_of(C)
        return None if known[C] is None else known[C] >= c

    def walk(outcome, C, step):
        """The grid from C by factors of ``step`` while ``_C_LIMIT`` < C <=
        ``_C_START``, skipping runs whose outcome is None, up to the first
        success when doubling or the first failure when halving: (the last
        failure, the last success) it met, None where it met none."""
        last = {False: None, True: None}
        while _C_LIMIT < C <= _C_START:
            reached = outcome(C)
            if reached is not None:
                last[reached] = C
                if reached == (step > 1.0):
                    break
            C *= step
        return last[False], last[True]

    def bisect(outcome, f, s):
        """The log-bisection of (f, s) to 1%, stopped at an excluded run."""
        while f - s > _BRACKET_REL * abs(s):
            mid = -math.sqrt(f * s)  # geometric midpoint, both negative
            reached = outcome(mid)
            if reached is None:
                break
            f, s = (f, mid) if reached else (mid, s)
        return f, s

    def stage(run):
        """(fail, success) from ``run(outcome)``: under guessed outcomes,
        solving only the ends each round reaches, then under solved ones."""
        for _ in range(_ROUNDS):
            x = _root(known, c)
            if x is None:
                break
            f, s = run(lambda C: _reaches(known, C, c, x))
            ends = [solved(C) for C in (f, s) if C is not None]
            if ends in ([False, True], [True]):
                return f, s
            if None in ends and f is not None:  # a lone excluded end, the next round skips it
                break
        return run(solved)

    def halve(outcome):
        """The walk toward -1/8 from the weakest solved success."""
        return walk(outcome, max(C for C, s in known.items() if s is not None and s >= c), 0.5)

    guessed = start != _C_START and solved(start)
    if guessed:
        solved(start / 2.0)
        c_fail, c_success = stage(halve)
    else:
        c_fail, c_success = walk(solved, _C_START, 2.0)
        if c_success is None:
            return None
    if c_fail is None:
        return None, c_success
    if guessed and c_success == 2.0 * c_fail:
        return stage(lambda outcome: bisect(outcome, c_fail, c_success))
    # the scan, or an excluded grid point between the walk's ends: excluded
    # runs may sit on the bisection's path, and only their solves show it
    return bisect(solved, c_fail, c_success)


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
    started at ``_C_START``).  From a start that holds, the search guesses
    the rest of its walk and its bisection from the slopes it has, and
    solves the two ends of each guess.  A run that ends before tau or
    leaves the shape row (``margins["shape_exit"]``, which leaves a flat
    warped circle's fixed g2 out) is excluded and reported.  The solves run
    one after another in this process, and one that raises raises here.
    """
    if not (0.0 < c < math.inf and 0.0 < tau < math.inf):
        raise ValueError("slope target c and probe time tau must be finite and positive")
    solved: dict = {}  # C -> -udot(tau) of its run, None where excluded, and the run's work counts

    def slope_of(C):
        t = solve_problem(spec.with_C(C), t_max=tau, rel_tol=rel_tol, abs_tol=abs_tol, delta=delta)
        slope = float(-t.du[-1]) if t.reached_horizon and t.margins["shape_exit"].holds else None
        solved[C] = slope, tuple(getattr(t.result, key) for key in _WORK)
        return slope

    C0 = growth_estimate(spec, c, tau, delta)
    start = _start(C0)
    found = _search(c, start, slope_of)
    if found is None:
        raise ProbeRangeError(
            f"no admissible C in ({_C_LIMIT:g}, {_C_START:g}] reaches -udot({tau:g}) >= {c:g}"
        )
    c_fail, c_success = found
    ordered = sorted((C, s) for C, (s, _) in solved.items() if s is not None)  # most negative first
    slopes = [s for _, s in ordered]
    monotone = all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
    work = map(sum, zip(*(w for _, w in solved.values())))
    holds = None  # no estimate to hold
    if start != _C_START:
        s = solved[start][0]
        holds = s is not None and s >= c
    return GrowthProbeReport(
        anchor="empirical threshold on the conservation constant prescribing the potential's slope",
        c=float(c),
        tau=float(tau),
        c_star=curvature_budget_at_launch(spec, delta),
        empirical_C0=float(c_success),
        bracket=(None if c_fail is None else float(c_fail), float(c_success)),
        samples=[(float(k), float(v)) for k, v in ordered],
        excluded=sorted(C for C, (s, _) in solved.items() if s is None),
        monotone=bool(monotone),
        n_solves=len(solved),
        **dict(zip(_WORK, work)),
        C0_estimate=C0,
        start=start,
        estimate_holds=holds,
    )
