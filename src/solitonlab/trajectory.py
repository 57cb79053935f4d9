"""Launch + integrate composition with the standard event set.

The default events watch for loss of shape-operator positivity, exit from
the ansatz's preserved set (fibre/base ratio crossing its root, the
circle-bundle a priori bounds, or the warped-product ratio bound), and state
overflow.  Each ends the run: past any of these the run no longer tracks the
construction the monitors reason about.  A metric component reaching zero
needs no event: the validity test rejects every attempt with some f_i <= 0,
so such a run ends as ``state_invalid``.

Each state invariant is declared once, as a row of ``invariants(spec)``
that carries its event's compiled test.  The row is evaluated on all
samples as ``Trajectory.margins``, which the verdict, the monitors' ``ok``
fields and report.json's ``margins`` read under one rule: a row holds when
every sample's margin, the minimum of its candidates, exceeds -slack.

The events and the validity test every attempt passes are state tests
(``integrator._state_test``), compiled into straight-line code over the
names the run kernel binds, which pastes them as they are.  They are
cached per component count (``_overflow``, ``_validity``) or with their
row, on what its candidates read: the shape row on the ansatz and the
flat-circle flag, the set row on the ansatz and c0 (``_set_row``).
Each min and max is taken as the builtin takes it (``codegen.extremum``),
so the same floats are compared in the same order as by ``min``/``max``
over the candidates, on a list of floats at accepted points and on an
array on the continuous extension.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .codegen import Tape, Traced, extremum
from .integrator import (
    EventSpec, IntegrationResult, IntegratorConfig, _overflow, _state, _state_test, _validity, integrate,
)
from .launch import launch
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
    pack_state,
    u_dotdot_stable,
    unpack_state,  # not called here: perfbench/tracing.py wraps this module's reference
)

__all__ = [
    "Trajectory", "Invariant", "Margin", "invariants", "standard_events", "solve_problem",
    "dw_pair_bound_constant", "dw_omega_sq_bounds", "two_summands_root_squares", "lpp_ratio_bound",
]


def dw_pair_bound_constant(a: DancerWangAnsatz, initial) -> float:
    """The ratio ceiling: max over pairs of {Q_ij(0), sqrt((d_j+2)/d_j p_i/p_j)} + 1,
    collapsing to 1 for a single factor."""
    if a.m == 1:
        return 1.0
    vals = []
    for i, j in permutations(range(a.m), 2):
        vals += [initial[i] / initial[j], np.sqrt((a.d[j] + 2.0) / a.d[j] * a.p[i] / a.p[j])]
    return float(max(vals)) + 1.0


def dw_omega_sq_bounds(a: DancerWangAnsatz, c0: float) -> np.ndarray:
    """Per-factor ceilings on omega_i^2 = (f/g_i)^2; infinite for degenerate
    factors with q_i = 0."""
    pmin = min(a.p)
    bounds = [4.0 * pmin / (a.m * c0 * c0 * (d + 2.0) * q**2) if q else np.inf for d, q in zip(a.d, a.q)]
    return np.array(bounds)


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


_BOUND_TOL = 1e-9  # absolute slack on the circle-bundle and warped-product bounds


class Invariant(NamedTuple):
    """A row of the invariant table: the event that watches a set, the
    verdict reason for a run that leaves it, the slack, ``candidates(y)``,
    labelled closed forms over the state components y (floats, (N,) arrays
    or traced values), and ``test``, the event's compiled minimum of the
    candidates (None if no state moves it).  A state is inside while every
    candidate exceeds -slack."""

    event: str
    reason: str
    slack: float
    candidates: Callable[[Sequence], dict]
    test: Callable | None


def invariants(spec: ProblemSpec) -> tuple[Invariant, ...]:
    """The state invariants of spec's ansatz, each declared once: every
    fdot_i > 0, then the preserved set (the two-summands ratio window, the
    warped-product ratio bound or the circle-bundle a priori bounds).  The
    set row reads the orbit sizes only through the circle-bundle pair
    constant c0, 1 for a single factor whatever its size."""
    a = spec.ansatz
    c0 = dw_pair_bound_constant(a, spec.initial) if isinstance(a, DancerWangAnsatz) else None
    return _shape_row(a, _flat_circle(spec)), _set_row(a, c0)


def _flat_circle(spec: ProblemSpec) -> bool:
    """A warped circle (lpp with d2 = 1) on a steady run.  Its factor is
    flat, so the flow fixes g2: gdot_2 = 0 at every sample, and the shape
    row leaves g2 out.  With eps > 0 the soliton term moves g2 and the row
    keeps it."""
    a = spec.ansatz
    return isinstance(a, LuPagePopeAnsatz) and a.d2 == 1 and spec.epsilon == 0.0


def _row(a, event: str, reason: str, slack: float, candidates, label: str = "") -> Invariant:
    """The row, its candidates traced into its test as ``min`` takes them."""
    n = 2 * len(a.dims) + 2
    tape = Tape()
    values = list(candidates([tape.var(v) for v in _state(n)]).values())
    test = None
    if any(isinstance(v, Traced) for v in values):
        lines = [*tape.lines, *extremum("m", [tape.ref(v) for v in values])]
        test = _state_test(f"{event} {a!r}{label}", n, lines, "m", tape.namespace)
    return Invariant(event, reason, slack, candidates, test)


@lru_cache(maxsize=None)
def _shape_row(a, flat_circle: bool) -> Invariant:
    k = len(a.dims)
    shaped = a.component_names[:-1] if flat_circle else a.component_names
    return _row(
        a, "shape_exit", "shape operator lost positivity at some sample", 0.0,
        lambda y: {f"d{name}": y[k + i] for i, name in enumerate(shaped)},
        " flat circle" if flat_circle else "",
    )


@lru_cache(maxsize=None)
def _set_row(a, c0: float | None) -> Invariant:
    row = partial(_row, a, "invariant_exit")
    if isinstance(a, TwoSummandsAnsatz):
        D, _, w2_sq = two_summands_root_squares(a)
        if D < 0:  # no window: the margin is D, which no state moves and no event watches
            return row("no preserved window exists (negative discriminant)", 0.0, lambda y: {"D": D})
        w2 = float(np.sqrt(w2_sq))
        return row("fibre/base ratio reached its root", 0.0, lambda y: {"omega2 - f1/f2": w2 - y[0] / y[1]})
    if isinstance(a, LuPagePopeAnsatz):
        bound = lpp_ratio_bound(a)
        return row(
            "ratio bound violated at some sample", _BOUND_TOL,
            lambda y: {"bound - (f/g1)^2": bound - (y[0] / y[1]) * (y[0] / y[1])},
        )
    if not isinstance(a, DancerWangAnsatz):
        raise TypeError(f"unknown ansatz type {type(a)!r}")
    b = dw_omega_sq_bounds(a, c0).tolist()
    g = range(1, a.m + 1)
    pairs = [(i, j) for i in g for j in g] if a.m > 1 else []
    return row(
        "a priori bound violated at some sample", _BOUND_TOL,
        lambda y: {
            **{f"b{i} - (f/g{i})^2": b[i - 1] - (y[0] / y[i]) * (y[0] / y[i]) for i in g},
            **{f"c0 - g{i}/g{j}": c0 - y[i] / y[j] for i, j in pairs},
        },
        f" c0={c0!r}",
    )


class Margin(NamedTuple):
    """An invariant row on a run's samples: per sample, the smallest
    candidate and the label of the first candidate that attains it."""

    row: Invariant
    values: np.ndarray
    binding: np.ndarray

    @property
    def inside(self) -> np.ndarray:
        """The one rule, per sample: the margin exceeds -slack."""
        return self.values > -self.row.slack

    @property
    def holds(self) -> bool:
        return bool(np.all(self.inside))


def standard_events(spec: ProblemSpec) -> tuple[EventSpec, ...]:
    """The rows' tests, then the overflow guard."""
    rows = [EventSpec(row.event, row.test) for row in invariants(spec) if row.test is not None]
    return (*rows, EventSpec("overflow", _overflow(2 * len(spec.ansatz.dims) + 2)))


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
    def margins(self) -> dict[str, Margin]:
        """Each row of ``invariants(spec)`` on all samples, by event name."""
        y, out = list(self.result.ys.T), {}
        for row in invariants(self.spec):
            candidates = row.candidates(y)
            table = np.array([np.broadcast_to(v, self.ts.shape) for v in candidates.values()])
            first = np.argmin(table, axis=0)
            values = table[first, np.arange(len(self.ts))]
            out[row.event] = Margin(row, values, np.array(list(candidates))[first])
        return out

    @property
    def reached_horizon(self) -> bool:
        return self.termination == "reached_t_max"


def solve_problem(
    spec: ProblemSpec,
    t_max: float = 100.0,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    delta: float | None = None,
    sink=None,
    dense: bool = False,
) -> Trajectory:
    """Launch at small t = delta (by default ``launch``'s) and integrate
    with the standard event set; ``sink`` receives the samples block by
    block (see ``integrate``), and with ``dense`` the result keeps the
    dense output that ``compare_charts`` samples between steps."""
    state0 = launch(spec, delta)
    k = len(spec.ansatz.dims)
    cfg = IntegratorConfig(
        t_max=t_max,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        events=standard_events(spec),
        validity=_validity(2 * k + 2, k),
        sink=sink,
        dense=dense,
    )
    rhs = make_vector_rhs(spec.ansatz, spec.epsilon)
    result = integrate(rhs, state0.t, pack_state(state0), cfg)
    return Trajectory(spec=spec, delta=state0.t, result=result)
