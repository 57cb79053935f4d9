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

from . import Report, _beside, _lanes
from .systems import (
    DancerWangAnsatz,
    LuPagePopeAnsatz,
    ProblemSpec,
    TwoSummandsAnsatz,
    _ricci_rates_split,
    _sum,
    flow_ansatz,
)
from .trajectory import (
    _BOUND_TOL, Trajectory, _flat_circle, dw_omega_sq_bounds, dw_pair_bound_constant,
    lpp_ratio_bound, solve_problem, two_summands_root_squares,
)

__all__ = [
    "TwoSummandsDiagnostics", "two_summands_roots", "quartic_ratio_polynomial",
    "ZeroConstantWindows", "c0_zero_predicates", "locus_report", "PotentialReport",
    "potential_report", "AsymptoteReport", "asymptote_check", "ConservationReport",
    "conservation_report", "OmegaReport", "two_summands_omega_monitor", "DWBoundReport",
    "dw_apriori_monitor", "LppBoundReport", "lpp_bound_monitor", "KahlerReport", "kahler_report",
    "Verdict", "classify_completeness", "GrowthProbeReport", "growth_probe", "ProbeRangeError",
    "curvature_budget_at_launch",
]

_LOCUS_TOL = 1e-7  # both locus ratios this close to 1: the Einstein locus
_L_NONZERO_TOL = 1e-12  # every |fdot_i / f_i| below this: a steady run skips concavity
_MAX_T0_GRID = 256  # most grid times the windowed lower bound is checked at
# the conservation budget 1e-8 (1 + |C|), one for the report and the verdict
_CONSERVATION_TOL_SCALE = 1e-8
_OMEGA_TOL = 1e-6  # relative slack on the two-summands ratio-slope cap
_KAHLER_TOL = 1e-6  # largest Kaehler residual still on the locus
_C_START = -0.125  # the growth probe's first grid point
_C_LIMIT = -1e9  # the probe's scan gives up at or below this C
_BRACKET_REL = 0.01  # the relative width the probe's bracket is bisected to


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


def conservation_report(traj: Trajectory) -> ConservationReport:
    spec = traj.spec
    r3 = traj.columns["conservation_residual"]
    r4 = traj.columns["conservation_residual_curvature"]
    tol = _CONSERVATION_TOL_SCALE * (1.0 + abs(spec.C))
    m3 = float(np.max(np.abs(r3)))
    return ConservationReport(
        anchor="first integral uddot + (-udot + tr L) udot - C - eps u vanishing along the flow",
        max_abs_residual=m3,
        max_abs_residual_curvature=float(np.max(np.abs(r4))),
        max_variant_disagreement=float(np.max(np.abs(r3 - r4))),
        tolerance=tol,
        ok=bool(m3 <= tol),
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
    while omega sits in [0, omega2], and omega staying below omega2."""
    a = traj.spec.ansatz
    if not isinstance(a, TwoSummandsAnsatz):
        raise TypeError("omega monitor applies to the two-summands system")
    diag = two_summands_roots(a)
    no_root = diag.D < 0
    omega, domega = traj.columns["omega"], traj.columns["domega"]
    bound = 1.0 / traj.spec.initial[0]  # 1 / fbar
    window = traj.margins["invariant_exit"]
    in_window = (omega >= 0.0) & (window.values >= 0.0)  # omega in [0, omega2]
    max_do = float(np.max(domega[in_window])) if np.any(in_window) else -np.inf
    return OmegaReport(
        anchor="fibre/base ratio slope capped by its launch value inside the preserved window",
        no_root_regime=no_root,
        omega2=diag.omega2,
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
    if not isinstance(a, DancerWangAnsatz):
        raise TypeError("a priori bound monitor applies to the circle-bundle system")
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
    a = traj.spec.ansatz
    if not isinstance(a, LuPagePopeAnsatz):
        raise TypeError("bound monitor applies to the warped-product system")
    return LppBoundReport(
        anchor="warped-product ratio bound omega1^2 < 4 p1 / ((d1+2) q1^2)",
        bound=lpp_ratio_bound(a),
        max_omega1_sq=float(np.max(traj.columns["omega1"] ** 2)),
        ok=traj.margins["invariant_exit"].holds,
    )


class KahlerReport(Report):
    anchor: str
    max_abs_residual: float
    per_factor_max: list[float]
    on_locus: bool


def kahler_report(traj: Trajectory) -> KahlerReport:
    a = traj.spec.ansatz
    if not isinstance(a, DancerWangAnsatz):
        raise TypeError("Kaehler residual applies to the circle-bundle system")
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
# the verdict of a run that ended before t_max, by its termination
_ENDED_EARLY = {
    "state_invalid": "metric_degenerate",
    "event:shape_exit": "invariant_set_exit",
    "event:invariant_exit": "invariant_set_exit",
}


def classify_completeness(traj: Trajectory) -> Verdict:
    """Sort a finished run into numerically_complete / invariant_set_exit /
    metric_degenerate / inconclusive.

    Completeness requires the horizon, the conservation residual within
    tolerance, and every row of the invariant table (strictly positive
    shape eigenvalues, the ansatz's preserved set) holding at every sample.
    """
    term = traj.termination
    if term != "reached_t_max":
        kind = _ENDED_EARLY.get(term, "inconclusive")
        return Verdict(kind=kind, t_star=float(traj.ts[-1]), reasons=[term], note=_VERDICT_NOTE)
    reasons = []
    tol = _CONSERVATION_TOL_SCALE * (1.0 + abs(traj.spec.C))
    worst = float(np.max(np.abs(traj.columns["conservation_residual"])))
    if not worst <= tol:
        reasons.append(f"conservation residual {worst:.3e} above {tol:.3e}")
    reasons += [m.row.reason for m in traj.margins.values() if not m.holds]
    kind = "inconclusive" if reasons else "numerically_complete"
    return Verdict(kind=kind, t_star=None, reasons=reasons, note=_VERDICT_NOTE)


# -- growth probe -----------------------------------------------------------------


class ProbeRangeError(RuntimeError):
    """No sampled conservation constant reached the requested slope."""


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


def curvature_budget_at_launch(spec: ProblemSpec, delta: float | None = None) -> float:
    """The trace of the Killing-type curvature budget at the launch slice:
    sum A_i / f_i^2 for the two-summands system, sum d_i p_i / g_i(0)^2 for
    circle bundles (the warped factor contributing d2 (d2 - 1) / g2(0)^2)."""
    from .launch import default_delta, launch

    a = flow_ansatz(spec.ansatz)
    if isinstance(a, TwoSummandsAnsatz):
        state = launch(spec, default_delta(spec) if delta is None else delta)
        return float(a.A1 / state.f[0] ** 2 + a.A2 / state.f[1] ** 2)
    # left to right, as on Python < 3.12, whose builtin sum is not compensated
    return float(_sum([d * p / g**2 for d, p, g in zip(a.d, a.p, spec.initial)]))


_WORK = ("n_accepted", "n_rejected", "n_rhs")  # a probe's work counts, summed over its solves


def _search(c: float):
    """The probe's search, as a generator: yields each C it asks for and is
    sent -udot(tau) of the run at C, or None when the run is excluded.  It
    doubles C from -1/8 and stops one grid point past the first C whose
    slope reaches c.  It then bisects in log|C| between that success and
    the weakest failing point above it until the bracket is 1% tight.
    Returns (c_fail or None, c_success), or None when no C above
    ``_C_LIMIT`` reaches c.

    The first success in scan order is the weakest success of the whole
    grid, so stopping early changes no bracket end."""
    c_success = c_fail = None
    C = _C_START
    while C > _C_LIMIT:
        s = yield C
        if c_success is not None:
            break  # the one point past the first success
        if s is not None:
            if s >= c:
                c_success = C
            else:
                c_fail = C
        C *= 2.0
    if c_success is None:
        return None
    if c_fail is not None:
        while (c_fail - c_success) > _BRACKET_REL * abs(c_success):
            mid = -np.sqrt(c_fail * c_success)  # geometric midpoint, both negative
            s = yield mid
            if s is None:
                break
            if s >= c:
                c_success = mid
            else:
                c_fail = mid
    return c_fail, c_success


def _guess(outcomes: dict, C, c: float) -> float:
    """A slope for C before its solve ends: below c while no run has
    reached c.  After that, above c exactly when |C| lies at or beyond
    where the line through the weakest success and the strongest failure
    weaker than it crosses c, in (log|C|, slope).  A wrong guess costs a
    solve, never a result."""
    known = [(abs(k), o[0]) for k, o in outcomes.items() if isinstance(o, tuple) and o[0] is not None]
    successes = [x for x in known if x[1] >= c]
    if not successes:
        return -math.inf
    x1, s1 = min(successes)
    crossing = math.log(x1)
    failures = [x for x in known if x[0] < x1]  # each below c: x1 is the weakest success
    if failures:
        x0, s0 = max(failures)
        crossing = math.log(x0) + (c - s0) / (s1 - s0) * (crossing - math.log(x0))
    return math.inf if math.log(abs(C)) >= crossing else -math.inf


def _next_request(slopes: list, c: float):
    """The C a fresh search asks for once sent ``slopes`` in order; None
    when it would then end."""
    search = _search(c)
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

    Runs ``_search`` with one solve per C it asks for; with no success
    above ``_C_LIMIT`` it raises ``ProbeRangeError``.  Runs whose shape
    operator loses positivity before tau are excluded and reported; a flat
    warped circle's g2, which the flow fixes, is left out of that test as
    it is out of the shape row.

    With two lanes (``_lanes``), a forked child (see ``_beside``) solves
    the C the search will ask for next, found by a fresh search sent the
    slopes so far and a guessed slope (``_guess``) for the C this process
    solves meanwhile.  The report is built from the C values the search
    asked for, so it is the one-lane report, and ``n_unused`` counts the
    child's solves it never asked for.  A solve that raised surfaces only
    if the search asks for its C.  If the child dies, this process finishes
    the search alone.
    """
    if not (0.0 < c < math.inf and 0.0 < tau < math.inf):
        raise ValueError("slope target c and probe time tau must be finite and positive")
    shaped = slice(-1) if _flat_circle(spec) else slice(None)  # the tested columns of df

    def outcome(C):
        """-udot(tau) of the run at C, or None when it is excluded, and the
        run's work counts; or the exception the solve raised."""
        try:
            t = solve_problem(spec.with_C(C), t_max=tau, rel_tol=rel_tol, abs_tol=abs_tol, delta=delta)
        except Exception as exc:  # raised here if the search asks for C
            return exc
        work = tuple(getattr(t.result, key) for key in _WORK)
        if not t.reached_horizon or not np.all(t.df[:, shaped] > 0.0):
            return None, work
        return float(-t.du[-1]), work

    lanes = _lanes()
    outcomes: dict = {}  # C -> outcome(C), made in either lane
    asked, sent = [], []  # the C values the search asked for and the slopes it was sent
    search = _search(c)
    with _beside(outcome) if lanes == 2 else contextlib.nullcontext() as lane:
        in_flight = None  # the C the child is solving
        try:
            C = next(search)
            while True:
                # wait for the child's solve: the search needs it now, or
                # the child must be free for the next guess
                if C not in outcomes and in_flight is not None:
                    try:
                        outcomes[in_flight] = lane.answer()
                    except RuntimeError:
                        lane = None  # the child is gone: go on alone
                    in_flight = None
                if C not in outcomes:
                    if lane is not None:
                        in_flight = _next_request([*sent, _guess(outcomes, C, c)], c)
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
            with contextlib.suppress(RuntimeError):
                outcomes[in_flight] = lane.answer()
    asked = dict.fromkeys(asked)  # a midpoint on an excluded grid point is asked twice
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
    )
