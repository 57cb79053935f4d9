"""Taylor launch of a trajectory off the singular orbit.

The flow is singular at t = 0, so integration starts from a state at small
t = delta built from the smoothness conditions: the collapsing component is
odd with unit slope, each surviving component f_i is even with the second
derivative the flow forces on it,

    (d_S + 1) fddot_i(0) / f_i(0) = eps/2 + r_i(singular orbit),

r_i being its closed-form Ricci rate, and the potential carries
uddot(0) = C / (d_S + 1).  One formula serves every family; lpp launches
as its degenerate dancer_wang embedding.

The series data alone is second order, which is not good enough for the
conservation law: the first integral
uddot + (-udot + tr L) udot - eps u is exactly conserved by the flow, so a
launch-state error of size eta contaminates every later sample by the same
eta.  When the collapsing sphere has dimension > 1 the truncated series
leaves an O(1) offset (the missing third-order fibre coefficient).  The
launcher therefore closes the series with an exact projection: the fibre
derivative is solved (quadratic equation, closed form) so that the
conservation residual at the launch state is zero to rounding.
"""

from __future__ import annotations

import numpy as np

from .systems import (
    ProblemSpec,
    SolitonState,
    TwoSummandsAnsatz,
    _ricci_rates_split,
    conservation_residual,
    u_dotdot_stable,
)

__all__ = ["default_delta", "rescaled_default_delta", "launch"]


def default_delta(spec: ProblemSpec) -> float:
    """Launch offset.

    Circle-fibre systems use 1e-4 * min(1, sizes).  Collapsing-sphere
    systems use 1e-3: their conserved quantity reacts to the fibre
    derivative like d1(d1-1)/f1^2, so below delta ~ 1e-3 one ulp of that
    state component already moves the conservation residual by more than
    the 1e-8 budget, and integration noise dominates any series gain.
    """
    base = min(1.0, min(spec.initial))
    if isinstance(spec.ansatz, TwoSummandsAnsatz) and spec.ansatz.d1 > 1:
        return 1e-3 * base
    return 1e-4 * base


def rescaled_default_delta(spec: ProblemSpec) -> float:
    """Launch offset for compact-chart runs (``rescaled``); a run with
    ``chart: both`` launches both charts here.

    The slow-time flow spends ~ln(1/delta) near the fibre critical point,
    which amplifies the seed's rounding-level off-manifold error roughly
    like 1/delta^2; 1e-3 keeps the amplified error well under the 1e-7
    locus budgets while the series truncation stays negligible.
    """
    return 1e-3 * min(1.0, min(spec.initial))


def _residual(state: SolitonState, spec: ProblemSpec) -> float:
    return conservation_residual(state, u_dotdot_stable(state, spec.ansatz, spec.epsilon), spec)


def _with_component(state: SolitonState, which: str, value: float) -> SolitonState:
    if which == "fibre":
        df = state.df.copy()
        df[0] = value
        return SolitonState(t=state.t, f=state.f, df=df, u=state.u, du=state.du)
    return SolitonState(t=state.t, f=state.f, df=state.df, u=state.u, du=value)


def _zero_residual_in(state: SolitonState, spec: ProblemSpec, which: str, h: float):
    """Shift one state component so the conservation residual vanishes.

    The residual is an exactly quadratic polynomial in either the fibre
    derivative or udot, so the shift solves qa D^2 + R' D + R = 0; the root
    of smaller magnitude is the physical one (cancellation-safe form)."""
    w0 = state.df[0] if which == "fibre" else state.du
    r_minus = _residual(_with_component(state, which, w0 - h), spec)
    r_mid = _residual(state, spec)
    r_plus = _residual(_with_component(state, which, w0 + h), spec)
    qa = (r_minus - 2.0 * r_mid + r_plus) / (2.0 * h * h)
    slope = (r_plus - r_minus) / (2.0 * h)
    disc = slope * slope - 4.0 * qa * r_mid
    if disc < 0:
        return state
    denom = slope + np.copysign(np.sqrt(disc), slope)
    if denom == 0.0:
        return state
    out = _with_component(state, which, w0 - 2.0 * r_mid / denom)
    # one Newton polish against interpolation rounding
    r_new = _residual(out, spec)
    d_slope = slope + 2.0 * qa * (-2.0 * r_mid / denom)
    if d_slope != 0.0 and np.isfinite(r_new):
        out = _with_component(state, which, (out.df[0] if which == "fibre" else out.du) - r_new / d_slope)
    return out


def _project_conservation(state: SolitonState, spec: ProblemSpec) -> SolitonState:
    """Close the launch series against the conservation first integral.

    The bulk of the series defect is the missing third-order fibre
    coefficient, so the fibre derivative is corrected first.  Because the
    residual's sensitivity to the fibre derivative grows like 1/delta^2,
    one ulp of that component still leaves a small remainder; it is
    absorbed into udot, whose sensitivity is only O(1/delta), leaving the
    residual at rounding level.  Both shifts are O(delta^2) relative.
    """
    out = _zero_residual_in(state, spec, "fibre", 0.5 * max(1.0, abs(state.df[0])))
    scale = abs(out.du) + abs(out.df[0] / out.f[0]) * 1e-6 + 1e-9
    return _zero_residual_in(out, spec, "du", scale)


def _series_state(spec: ProblemSpec, delta: float) -> SolitonState:
    """The truncated series data at t = delta, before the projection."""
    fbar = np.asarray(spec.initial, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the collapsing component's rate is singular there and unused
        _, r = _ricci_rates_split(np.concatenate(([0.0], fbar)), spec.ansatz)
    d_S = spec.ansatz.dims[0]  # the collapsing sphere's dimension
    fdd = fbar * (spec.epsilon / 2.0 + np.array(r[1:])) / (d_S + 1.0)
    udd0 = spec.C / (d_S + 1.0)
    return SolitonState(
        t=delta,
        f=np.concatenate(([delta], fbar + 0.5 * delta**2 * fdd)),
        df=np.concatenate(([1.0], delta * fdd)),
        u=0.5 * delta**2 * udd0,
        du=delta * udd0,
    )


def launch(spec: ProblemSpec, delta: float | None = None) -> SolitonState:
    """State at t = delta from the series data, closed against the
    conservation integral."""
    delta = default_delta(spec) if delta is None else float(delta)
    if delta <= 0:
        raise ValueError("launch delta must be positive")
    # C <= 0, eps >= 0, sizes > 0 are enforced by ProblemSpec itself.  Absurd
    # sizes can make the projection divide by an underflowed square; the
    # launch checks after it name the non-finite state, so numpy need not warn.
    with np.errstate(all="ignore"):
        return _project_conservation(_series_state(spec, delta), spec)
