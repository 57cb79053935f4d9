"""Compactified coordinates for the circle-bundle system.

With H = -udot + tr L and the slow time ds = H dt, the substitution
X_0 = fdot/(f H), X_i = gdot_i/(g_i H), Y_0 = 1/(f H), Y_i = 1/(g_i H) and
Lc = 1/H turns the flow into a polynomial system whose variables stay
bounded on admissible runs; the singular orbit becomes the finite critical
point X_0 = Y_0 = 1, everything else 0.  Physical time and potential are
carried along as quadrature variables (dt/ds = Lc, du/ds = sum d_j X_j - 1),
which keeps the recovered t at integrator accuracy.

State vector layout: [X_0..X_m, Y_0..Y_m, Lc, t, u].  As in ``systems``, a
RescaledState whose X and Y are (m+1, N) arrays and whose Lc, s, t and u are
length-N arrays holds N samples, and the chart inversion and the locus
residuals return one value (or row) per sample.  The polynomial system and
the locus residuals are written once over sequences of components with
+ - * / and left-to-right sums only, so the integrator's right-hand side
(floats) and the CSV columns ((N,) arrays) round alike on any numpy kernel.
The right-hand side is the polynomial system traced once into straight-line
code and compiled (see ``codegen``), cached per ansatz and eps.

Slow time has no cap: the horizon is t_max, where the ``t_target`` event
finds the carried t.  Every event and the all-finite validity test are
compiled state tests (see ``integrator._state_test``), which the run
kernel inlines: ``chart_degenerate``, ``overflow`` and the validity test
are cached per component count, with each min and max in the builtin's
order, and ``t_target`` is cached per component count and t_max.  A run
that meets no event ends at the integrator's attempt cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import Report
from .codegen import Tape, trace_rates
from .integrator import (
    EventSpec, IntegrationResult, IntegratorConfig, _min_of, _overflow, _state, _state_test, _validity,
    compile_run, integrate,
)
from .launch import launch, rescaled_default_delta
from .systems import DancerWangAnsatz, ProblemSpec, SolitonState, _dot, _sum, tr_L

__all__ = [
    "RescaledState",
    "to_rescaled",
    "from_rescaled",
    "make_rescaled_vector_rhs",
    "LocusResiduals",
    "rescaled_locus_residuals",
    "RescaledTrajectory",
    "solve_rescaled",
    "prepare_rescaled",
    "compare_charts",
]


@dataclass
class RescaledState:
    """One slice in compactified coordinates; t and u ride along so the
    physical chart can be recovered without a separate quadrature pass."""

    X: np.ndarray
    Y: np.ndarray
    Lc: float
    s: float
    t: float
    u: float

    def __post_init__(self):
        self.X = np.atleast_1d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_1d(np.asarray(self.Y, dtype=float))
        if self.X.shape != self.Y.shape:
            raise ValueError("X and Y must have matching shapes")


def to_rescaled(state: SolitonState, spec: ProblemSpec) -> RescaledState:
    """The chart's coordinates of one state.  Raises ValueError when
    H = -udot + tr L is not positive, and ArithmeticError when a coordinate
    is not finite or Lc or some Y_i is not positive (f H overflowed)."""
    H = -state.du + tr_L(state, spec.ansatz)
    if H <= 0:
        raise ValueError("rescaling requires -udot + tr L > 0")
    z = state.df / state.f
    with np.errstate(over="ignore"):  # an overflowed f H gives Y_i = 0, refused below
        r = RescaledState(X=z / H, Y=1.0 / (state.f * H), Lc=1.0 / H, s=0.0, t=state.t, u=state.u)
    if not (np.all(np.isfinite([*r.X, *r.Y, r.Lc])) and r.Lc > 0 and np.all(r.Y > 0)):
        raise ArithmeticError("the state maps outside the compact chart (Lc, Y_i > 0, all finite)")
    return r


def from_rescaled(r: RescaledState, ansatz: DancerWangAnsatz) -> SolitonState:
    """Invert the chart: f_i = Lc / Y_i, fdot_i = f_i X_i / Lc,
    udot = (sum d_j X_j - 1) / Lc."""
    if np.any(r.Lc <= 0) or np.any(r.Y <= 0):
        raise ValueError("chart inversion requires positive Lc and Y")
    f = r.Lc / r.Y
    df = f * r.X / r.Lc
    du = (_dot(ansatz.dims, r.X) - 1.0) / r.Lc
    return SolitonState(t=r.t, f=f, df=df, u=r.u, du=du)


def _polynomial_rates(X, Y, Lc, a: DancerWangAnsatz, eps: float):
    """(dX/ds, dY/ds, dLc/ds) of the polynomial system: the circle-bundle
    closed form in chart variables, with the Ricci rate coefficients of
    ``DancerWangAnsatz``.  X and Y are sequences of components, each a float
    or an (N,) array; only + - * / are used, summed left to right."""
    c0, p, c2 = a._rate_coefficients
    soliton = eps / 2.0 * Lc * Lc
    drag = _dot(a.dims, [x * x for x in X]) - soliton
    y0sq = Y[0] * Y[0]
    dX, dY = [0.0], [Y[0] * (drag - X[0])]
    for i in range(len(p)):
        x, y = X[i + 1], Y[i + 1]
        y2 = y * y
        y4 = y2 * y2
        term = c0[i] * y4 / y0sq
        curv0 = term if i == 0 else curv0 + term
        dX.append(x * (drag - 1.0) + soliton + (p[i] * y2 - c2[i] * y4 / y0sq))
        dY.append(y * (drag - x))
    dX[0] = X[0] * (drag - 1.0) + soliton + curv0
    return dX, dY, Lc * drag


def _rescaled_rates(y, a: DancerWangAnsatz, eps: float) -> list:
    """d/ds of [X..., Y..., Lc, t, u]: the formula ``make_rescaled_vector_rhs``
    compiles."""
    k = a.m + 1
    X, Y, Lc = y[:k], y[k : 2 * k], y[2 * k]
    dX, dY, dLc = _polynomial_rates(X, Y, Lc, a, eps)
    return [*dX, *dY, dLc, Lc, _dot(a.dims, X) - 1.0]  # ..., dt/ds, du/ds


def make_rescaled_vector_rhs(a: DancerWangAnsatz, eps: float):
    """Flattened d/ds of [X..., Y..., Lc, t, u] as a list of floats:
    ``_rescaled_rates`` traced into straight-line code, compiled once per
    ansatz and eps (see ``codegen.trace_rates``)."""
    return trace_rates(_rescaled_rates, a, eps, 2 * (a.m + 1) + 3, "rescaled rhs")


def _fourth_ratios(Y) -> list:
    """Y_i^4 / Y_0^2 for i >= 1, with the sphere-at-infinity limit
    Y_i = Y_0 = 0 -> 0."""
    y0sq = Y[0] * Y[0]
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for y in Y[1:]:
            y2 = y * y
            out.append(np.where(y != 0.0, y2 * y2 / y0sq, 0.0))
    return out


class LocusResiduals(Report):
    anchor: str
    einstein_linear: float | np.ndarray
    einstein_quadratic: float | np.ndarray
    kahler_square: np.ndarray
    kahler_slope: np.ndarray


def rescaled_locus_residuals(r: RescaledState, a: DancerWangAnsatz, eps: float) -> LocusResiduals:
    """Residuals of the preserved loci in the compact chart.

    Einstein locus: sum d_i X_i = 1 together with
    sum d_i X_i^2 + sum d_i p_i Y_i^2 - sum (d_i q_i^2/4) Y_i^4/Y_0^2
    + (n-1)(eps/2) Lc^2 = 1.

    Kaehler locus, per factor: X_i^2 = (q_i^2/4) Y_i^4 / Y_0^2 and
    X_i (X_0 + 1) = p_i Y_i^2 + (eps/2) Lc^2.  The slope relation carries
    Lc^2 on the soliton term: differentiating the square relation along the
    polynomial system forces it, and without it the locus would not be
    preserved for eps > 0 (for steady runs the two conventions coincide).
    """
    d = a.dims
    c0 = a._rate_coefficients[0]  # d_i q_i^2 / 4
    X, Y = r.X, r.Y
    lc2 = r.Lc * r.Lc
    fourth = _fourth_ratios(Y)
    lin = _dot(d, X) - 1.0
    quad = (
        _dot(d, [x * x for x in X])
        + _sum([di * pi * (y * y) for di, pi, y in zip(d[1:], a.p, Y[1:])])
        - _dot(c0, fourth)
        + (sum(d) - 1.0) * eps / 2.0 * lc2
        - 1.0
    )
    k_sq = np.array([x * x - q * q / 4.0 * v for x, q, v in zip(X[1:], a.q, fourth)])
    k_sl = np.array([
        x * (X[0] + 1.0) - pi * (y * y) - eps / 2.0 * lc2 for x, pi, y in zip(X[1:], a.p, Y[1:])
    ])
    return LocusResiduals(
        anchor="preserved Einstein and Kaehler loci in the compactified chart",
        einstein_linear=lin,
        einstein_quadratic=quad,
        kahler_square=k_sq,
        kahler_slope=k_sl,
    )


@dataclass
class RescaledTrajectory:
    spec: ProblemSpec
    delta: float
    result: IntegrationResult

    @property
    def k(self) -> int:
        return self.spec.ansatz.m + 1

    @property
    def s(self) -> np.ndarray:
        return self.result.ts

    @property
    def t(self) -> np.ndarray:
        return self.result.ys[:, 2 * self.k + 1]

    @cached_property
    def samples(self) -> RescaledState:
        """Every sample as one batch state: X and Y are (m+1, N) views."""
        k, ys = self.k, self.result.ys
        return RescaledState(
            X=ys[:, :k].T,
            Y=ys[:, k : 2 * k].T,
            Lc=ys[:, 2 * k],
            s=self.result.ts,
            t=ys[:, 2 * k + 1],
            u=ys[:, 2 * k + 2],
        )


def solve_rescaled(*args, **kwargs) -> RescaledTrajectory:
    """Launch physically at t = delta, map to the compact chart, and flow in
    slow time until the carried physical time reaches t_max; the arguments
    are ``prepare_rescaled``'s."""
    return prepare_rescaled(*args, **kwargs)()


def prepare_rescaled(
    spec: ProblemSpec,
    t_max: float = 10.0,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    delta: float | None = None,
) -> Callable[[], RescaledTrajectory]:
    """``solve_rescaled`` up to its integration, which the returned function
    of no arguments runs.  The launch slice is mapped to the chart here
    (raising as ``to_rescaled``; its ArithmeticError also names the launch
    time and 'initial'), and the right-hand side, the state tests and the
    run kernel, which also takes the step to the event that ends the run,
    are compiled here: a process forked after this call runs the
    integration without compiling anything."""
    a = spec.ansatz
    if not isinstance(a, DancerWangAnsatz):
        raise TypeError("the compact chart is only defined for the circle-bundle system")
    delta = rescaled_default_delta(spec) if delta is None else float(delta)
    state0 = launch(spec, delta)
    try:
        r0 = to_rescaled(state0, spec)
    except ArithmeticError as exc:
        raise ArithmeticError(
            f"at the launch state t = {state0.t!r}, {exc}; check the sizes in 'initial'"
        ) from exc
    k = a.m + 1
    y0 = np.concatenate((r0.X, r0.Y, [r0.Lc, r0.t, r0.u]))
    events = (
        EventSpec("t_target", _t_target(len(y0), t_max)),
        EventSpec("chart_degenerate", _min_of(k, 2 * k + 1, len(y0))),
        EventSpec("overflow", _overflow(len(y0))),
    )
    cfg = IntegratorConfig(
        t_max=math.inf,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        events=events,
        validity=_validity(len(y0), 0),
    )
    rhs = make_rescaled_vector_rhs(a, spec.epsilon)
    compile_run(rhs, len(y0), cfg)
    return lambda: RescaledTrajectory(spec=spec, delta=delta, result=integrate(rhs, 0.0, y0, cfg))


@lru_cache(maxsize=None)
def _t_target(n: int, t_max: float):
    """``fn(t, y)`` at slow time t: t_max minus the state's carried
    physical time y[n - 2]."""
    tape = Tape()
    label = f"t_target n={n} t_max={t_max!r}"
    return _state_test(label, n, [], f"{tape.ref(float(t_max))} - {_state(n)[n - 2]}", tape.namespace)


class ChartComparison(Report):
    anchor: str
    t_lo: float
    t_hi: float
    n_points: int
    max_rel_deviation: float
    per_field_max: dict


def compare_charts(phys, resc: RescaledTrajectory) -> ChartComparison:
    """Compare (f, g_i, udot) of a physical-chart run ``phys`` (a
    ``Trajectory``) and a compact-chart run ``resc`` of the same problem at
    the slow-time samples, interpolating the physical run.

    Both runs must start from the same launch slice (the comparison would be
    meaningless otherwise).  Only samples inside the chart (Lc > 0 and every
    Y_i > 0) are compared.  Deviations are relative to 1 + |value|.
    """
    if phys.delta != resc.delta:
        raise ValueError("the two charts must start from the same launch slice")
    t_hi = min(phys.ts[-1], resc.t[-1])
    r = resc.samples
    sel = (phys.ts[0] <= r.t) & (r.t <= t_hi) & (r.Lc > 0) & np.all(r.Y > 0, axis=0)
    got = from_rescaled(
        RescaledState(r.X[:, sel], r.Y[:, sel], r.Lc[sel], r.s[sel], r.t[sel], r.u[sel]),
        resc.spec.ansatz,
    )
    k = got.f.shape[0]
    ref = phys.result.sample_at(got.t)
    ref_f, ref_du = ref[:, :k].T, ref[:, 2 * k + 1]
    per = {
        "f": float(np.max(np.abs(got.f - ref_f) / (1.0 + np.abs(ref_f)), initial=0.0)),
        "du": float(np.max(np.abs(got.du - ref_du) / (1.0 + np.abs(ref_du)), initial=0.0)),
    }
    return ChartComparison(
        anchor="physical and compactified charts describing the same trajectory",
        t_lo=float(phys.ts[0]),
        t_hi=float(t_hi),
        n_points=int(np.count_nonzero(sel)),
        max_rel_deviation=max(per.values()),
        per_field_max=per,
    )
