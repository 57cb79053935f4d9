"""Launch + integrate composition with the standard event set.

The default events watch for metric degeneration (some f_i reaching zero),
loss of shape-operator positivity, exit from the ansatz's preserved set
(fibre/base ratio crossing its root, the circle-bundle a priori bounds, or
the warped-product ratio bound), and state overflow.  All of them are
terminal: past any of these the run no longer tracks the construction the
monitors reason about.

The events and the validity test every attempt passes are compiled into
straight-line code, once per component count (``_min_of``, ``_overflow``,
``_validity``, ``_dw_margin``), and cached: each min and max is taken as
the builtin takes it (``codegen.extremum``), so the same floats are compared
in the same order as by ``min``/``max`` over the components, on a list of
floats at accepted points and on an array on the continuous extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codegen import Tape, compile_function, extremum
from .integrator import EventSpec, IntegrationResult, IntegratorConfig, integrate
from .launch import default_delta, launch
from .systems import (
    DancerWangAnsatz,
    LuPagePopeAnsatz,
    ProblemSpec,
    SolitonState,
    TwoSummandsAnsatz,
    _locus_ratios,
    conservation_residual,
    conservation_residual_curvature,
    kahler_residual,
    make_vector_rhs,
    u_dotdot_stable,
    unpack_state,
)

__all__ = [
    "Trajectory", "standard_events", "solve_problem", "dw_pair_bound_constant",
    "dw_omega_sq_bounds", "two_summands_root_squares", "lpp_ratio_bound",
]


def dw_pair_bound_constant(a: DancerWangAnsatz, initial) -> float:
    """The ratio ceiling: max over pairs of {Q_ij(0), sqrt((d_j+2)/d_j p_i/p_j)} + 1,
    collapsing to 1 for a single factor."""
    if a.m == 1:
        return 1.0
    vals = []
    for i in range(a.m):
        for j in range(a.m):
            if i == j:
                continue
            vals.append(initial[i] / initial[j])
            vals.append(np.sqrt((a.d[j] + 2.0) / a.d[j] * a.p[i] / a.p[j]))
    return float(max(vals)) + 1.0


def dw_omega_sq_bounds(a: DancerWangAnsatz, c0: float) -> np.ndarray:
    """Per-factor ceilings on omega_i^2 = (f/g_i)^2; infinite for degenerate
    factors with q_i = 0."""
    out = np.empty(a.m)
    pmin = min(a.p)
    for i in range(a.m):
        if a.q[i] == 0:
            out[i] = np.inf
        else:
            out[i] = 4.0 * pmin / (a.m * c0 * c0 * (a.d[i] + 2.0) * a.q[i] ** 2)
    return out


def two_summands_root_squares(a: TwoSummandsAnsatz) -> tuple[float, float, float]:
    """The discriminant D = mid^2 - (A1/A3) d2/(2d1+d2), mid = A2/(2 A3)
    d1/(2d1+d2), of the two-summands ratio polynomial and its squared roots
    mid -+ sqrt(D); the roots are NaN when D < 0 (no preserved window)."""
    mid = a.A2 / (2.0 * a.A3) * a.d1 / (2.0 * a.d1 + a.d2)
    D = mid * mid - a.A1 / a.A3 * a.d2 / (2.0 * a.d1 + a.d2)
    sq = np.sqrt(D) if D >= 0 else np.nan
    return float(D), mid - sq, mid + sq


def lpp_ratio_bound(a: LuPagePopeAnsatz) -> float:
    """The warped-product ceiling 4 p1 / ((d1+2) q1^2) on omega1^2 = (f/g1)^2."""
    return 4.0 * a.p1 / ((a.d1 + 2.0) * a.q1**2)


def _invariant_margin_fn(spec: ProblemSpec):
    """Scalar margin that is positive while the ansatz's preserved set holds
    and crosses zero on exit; None when the set has no finite description."""
    a = spec.ansatz
    if isinstance(a, TwoSummandsAnsatz):
        D, _, w2_sq = two_summands_root_squares(a)
        if D < 0:
            return None  # no cone-solution roots: no preserved window to watch
        omega2 = float(np.sqrt(w2_sq))

        def margin(t, y):
            return omega2 - y[0] / y[1]

        return margin
    if isinstance(a, LuPagePopeAnsatz):
        bound = lpp_ratio_bound(a)

        def margin(t, y):
            w = y[0] / y[1]
            return bound - w * w

        return margin
    if isinstance(a, DancerWangAnsatz):
        c0 = dw_pair_bound_constant(a, spec.initial)
        return _dw_margin(dw_omega_sq_bounds(a, c0).tolist(), c0)
    raise TypeError(f"unknown ansatz type {type(a)!r}")


def _dw_margin(w_bounds: list, c0: float):
    """The circle-bundle margin min_i (b_i - (f/g_i)^2), and for m > 1 the
    smaller of that and min_ij (c0 - g_i/g_j), compiled as straight-line
    code.  Each minimum is taken as ``min`` takes it, in the loops' order,
    i then j: the first candidate, replaced by each later one that is
    smaller.  So it returns the same value, NaN included, on a list of
    floats and on an array."""
    tape = Tape()  # writes the constants: a bound may be inf
    g = range(1, len(w_bounds) + 1)
    lines = ["f = y[0]", *(f"g{i} = y[{i}]" for i in g), *(f"w{i} = f / g{i}" for i in g)]
    lines += extremum("m_w", [f"{tape.ref(b)} - w{i} * w{i}" for i, b in zip(g, w_bounds)])
    if len(g) > 1:
        lines += extremum("m_p", [f"{tape.ref(c0)} - g{i} / g{j}" for i in g for j in g])
        lines += ["if m_p < m_w:", "    m_w = m_p"]
    label = f"dw margin bounds={w_bounds!r} c0={c0!r}"
    return _state_test(label, "t, y", lines, "m_w", tape.namespace)


def _state_test(label: str, args: str, lines: list[str], result: str, namespace=None):
    """Compile ``def test(args)``, the lines then ``return result``, as
    ``<solitonlab label>``, with ``isfinite`` and the namespace as globals."""
    body = "".join(f"    {line}\n" for line in [*lines, f"return {result}"])
    source = f"def test({args}):\n{body}"
    namespace = {"isfinite": math.isfinite, **(namespace or {})}
    return compile_function("test", source, f"<solitonlab {label}>", namespace)


@lru_cache(maxsize=None)
def _min_of(lo: int, hi: int):
    """``fn(t, y)``: min(y[lo:hi])."""
    lines = extremum("m", [f"y[{j}]" for j in range(lo, hi)])
    return _state_test(f"min y[{lo}:{hi}]", "t, y", lines, "m")


@lru_cache(maxsize=None)
def _overflow(n: int):
    """``fn(t, y)``: 1e12 - max(map(abs, y)) for a state of n components."""
    lines = extremum("m", [f"abs(y[{j}])" for j in range(n)], ">")
    return _state_test(f"overflow n={n}", "t, y", lines, "1e12 - m")


@lru_cache(maxsize=None)
def _validity(n: int, k: int):
    """``fn(y)`` for a list y of n floats: all finite, and the first k
    positive.  Once all are finite this is min(y[:k]) > 0.0."""
    y = [f"y{j}" for j in range(n)]
    tests = [f"isfinite({v})" for v in y] + [f"{v} > 0.0" for v in y[:k]]
    return _state_test(f"validity n={n} k={k}", "y", [f"{', '.join(y)}, = y"], " and ".join(tests))


def standard_events(spec: ProblemSpec) -> tuple[EventSpec, ...]:
    k = len(spec.ansatz.dims)
    events = [
        EventSpec("metric_degenerate", _min_of(0, k), -1, True),
        EventSpec("shape_exit", _min_of(k, 2 * k), -1, True),
        EventSpec("overflow", _overflow(2 * k + 2), -1, True),
    ]
    margin = _invariant_margin_fn(spec)
    if margin is not None:
        events.insert(2, EventSpec("invariant_exit", margin, -1, True))
    return tuple(events)


@dataclass
class Trajectory:
    """An integrated run: samples, termination verdict material, stats."""

    spec: ProblemSpec
    delta: float
    result: IntegrationResult

    @property
    def termination(self) -> str:
        return self.result.termination

    @property
    def ts(self) -> np.ndarray:
        return self.result.ts

    @cached_property
    def f(self) -> np.ndarray:
        k = len(self.spec.ansatz.dims)
        return self.result.ys[:, :k]

    @cached_property
    def df(self) -> np.ndarray:
        k = len(self.spec.ansatz.dims)
        return self.result.ys[:, k : 2 * k]

    @property
    def u(self) -> np.ndarray:
        k = len(self.spec.ansatz.dims)
        return self.result.ys[:, 2 * k]

    @property
    def du(self) -> np.ndarray:
        k = len(self.spec.ansatz.dims)
        return self.result.ys[:, 2 * k + 1]

    @cached_property
    def samples(self) -> SolitonState:
        """Every sample as one batch state: f and df are (k, N) views, one
        column per sample; t, u and udot are the length-N columns."""
        return SolitonState(t=self.ts, f=self.f.T, df=self.df.T, u=self.u, du=self.du)

    @cached_property
    def udd(self) -> np.ndarray:
        return u_dotdot_stable(self.samples, self.spec.ansatz, self.spec.epsilon)

    @cached_property
    def columns(self) -> dict[str, np.ndarray]:
        """The derived per-sample quantities, each computed once over all
        samples, in the order and under the names of trajectory.csv.

        A length-N array is one column; an (m, N) array is one column per
        factor, numbered from 1.  The monitors, the verdict and the CSV all
        read this table.
        """
        spec, s = self.spec, self.samples
        a = spec.ansatz
        r4 = conservation_residual_curvature(s, spec)
        q1, q2 = _locus_ratios(s, spec, r4)
        cols = {
            "udd": self.udd,
            "conservation_residual": conservation_residual(s, self.udd, spec),
            "conservation_residual_curvature": r4,
            "locus_mean_ratio": q1,
            "locus_curvature_ratio": q2,
        }
        f, df = s.f, s.df
        if isinstance(a, TwoSummandsAnsatz):
            omega = f[0] / f[1]
            cols["omega"] = omega
            cols["domega"] = omega * (df[0] / f[0] - df[1] / f[1])
        elif isinstance(a, DancerWangAnsatz):
            cols["omega"] = f[0] / f[1:]
            cols["kahler_res"] = kahler_residual(s, a)
        else:
            cols["omega1"] = f[0] / f[1]
        return cols

    @cached_property
    def states(self) -> list[SolitonState]:
        """The samples as separate states, for code that walks them one by
        one; the package itself reads ``samples`` and ``columns``."""
        return [
            unpack_state(t, y, self.spec.ansatz) for t, y in zip(self.result.ts, self.result.ys)
        ]

    @property
    def reached_horizon(self) -> bool:
        return self.termination == "reached_t_max"


def solve_problem(
    spec: ProblemSpec,
    t_max: float = 100.0,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    max_steps: int = 200_000,
    max_step: float = np.inf,
    delta: float | None = None,
) -> Trajectory:
    """Launch at small t = delta and integrate with the standard event set."""
    delta = default_delta(spec) if delta is None else float(delta)
    state0 = launch(spec, delta)
    k = len(spec.ansatz.dims)
    cfg = IntegratorConfig(
        t_max=t_max,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_step=max_step,
        max_steps=max_steps,
        events=standard_events(spec),
        validity=_validity(2 * k + 2, k),
    )
    rhs = make_vector_rhs(spec.ansatz, spec.epsilon)
    y0 = np.concatenate((state0.f, state0.df, [state0.u, state0.du]))
    result = integrate(rhs, state0.t, y0, cfg)
    return Trajectory(spec=spec, delta=delta, result=result)
