"""The three soliton ansatz families and their ODE right-hand sides.

State convention: metric components are kept as (f_i, fdot_i) rather than
the logarithmic derivatives the equations are usually written in, so that
nothing blows up when a derivative crosses zero; log-derivatives are formed
on demand.  The second derivative of the potential is never a state
variable -- it is recomputed from the right-hand side and cross-checked by
the monitors.

Each family's Ricci rates exist once in closed form (``_ricci_rates_split``);
lpp has none of its own and is integrated as its degenerate dancer_wang
embedding.  The test suite holds an independent route to the same
derivative, assembled from the Ricci eigenvalues of a structure-constant
decomposition of each family, and property-tests the closed forms against
it; nothing here depends on ``geometry``.

The closed forms and the residuals built on them take the components as a
sequence, f[i] being one component: a float for one state or an (N,) array
for N samples.  The integrator's right-hand side passes lists of floats.
The column table passes a batch, a SolitonState whose f and df are (k, N)
arrays, one row per component and one column per sample, and whose t, u
and udot are length-N arrays; each function then returns one value (or one
row) per sample.  Only + - * / are used, integer powers are products, and
every sum over components runs left to right (``_sum``, ``_dot``).  Each
of these operations rounds the same way on a float and on an array element,
so the right-hand side and the columns agree bit for bit, whichever BLAS or
SIMD kernels numpy picked at run time.

The integrator's right-hand side is that closed form compiled: on first
use, ``make_vector_rhs`` runs ``_vector_rates`` once on traced values, and
``codegen`` turns the recorded operations into one straight-line function,
cached per flow ansatz and eps.  It returns the interpreted closed form's
floats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import add, mul, truediv

import numpy as np

from .codegen import trace_rates

__all__ = [
    "TwoSummandsAnsatz",
    "DancerWangAnsatz",
    "LuPagePopeAnsatz",
    "SolitonState",
    "ProblemSpec",
    "flow_ansatz",
    "make_vector_rhs",
    "pack_state",
    "unpack_state",
    "tr_L",
    "conservation_residual",
    "conservation_residual_curvature",
    "kahler_residual",
]


@dataclass(frozen=True)
class TwoSummandsAnsatz:
    """Fibre/base split with curvature constants A1, A2, A3.

    In geometric examples A1 = d1 (d1 - 1); this is never enforced.
    """

    d1: int
    d2: int
    A1: float
    A2: float
    A3: float

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("summand dimensions must be positive")
        if self.A1 < 0 or self.A2 <= 0 or self.A3 <= 0:
            raise ValueError("need A1 >= 0 and A2, A3 > 0")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d1, self.d2)

    @property
    def component_names(self) -> tuple[str, ...]:
        return ("f1", "f2")

    @cached_property
    def _rate_coefficients(self) -> tuple[float, ...]:
        """(geo, c1, c3, c2, c4) of the split rates r1 = geo / (d1 f1^2) +
        c1 / f1^2 + c3 f1^2 / f2^4 and r2 = c2 / f2^2 - c4 f1^2 / f2^4."""
        geo = float(self.d1 * (self.d1 - 1))
        return (
            geo,
            (self.A1 - geo) / self.d1,
            self.A3 / self.d1,
            self.A2 / self.d2,
            2.0 * self.A3 / self.d2,
        )


@dataclass(frozen=True)
class DancerWangAnsatz:
    """Circle bundle over a product of m Fano Kaehler-Einstein factors.

    q_i = 0 is not a geometric datum and is rejected unless
    ``allow_degenerate`` is set; the degenerate flag exists only to embed
    the warped-product system as the special case (p_m, q_m) = (d_m - 1, 0),
    which also admits p_m = 0 (a flat warped circle, d_m = 1).
    """

    d: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]
    allow_degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(v) for v in self.d))
        object.__setattr__(self, "p", tuple(int(v) for v in self.p))
        object.__setattr__(self, "q", tuple(int(v) for v in self.q))
        if not (len(self.d) == len(self.p) == len(self.q)) or not self.d:
            raise ValueError("d, p, q must be nonempty and of equal length")
        if any(di <= 0 for di in self.d):
            raise ValueError("factor dimensions must be positive")
        if any(pi < 0 or (pi == 0 and not self.allow_degenerate) for pi in self.p):
            raise ValueError("Fano indices p_i must be positive")
        if not self.allow_degenerate:
            # Kaehler factors have even real dimension and a nonzero Euler
            # coefficient; both are relaxed only for the warped-product
            # embedding device.
            if any(di % 2 for di in self.d):
                raise ValueError("factor dimensions must be even integers")
            if any(qi == 0 for qi in self.q):
                raise ValueError("Euler coefficients q_i must be nonzero")

    @property
    def m(self) -> int:
        return len(self.d)

    @property
    def dims(self) -> tuple[int, ...]:
        return (1,) + self.d

    @property
    def component_names(self) -> tuple[str, ...]:
        return ("f",) + tuple(f"g{i + 1}" for i in range(self.m))

    @cached_property
    def _rate_coefficients(self) -> tuple[tuple[float, ...], ...]:
        """(c0, p, c2) of the rates r_f = sum c0 f^2 / g^4 and
        r_gi = p_i / g_i^2 - c2_i f^2 / g_i^4, one float per factor."""
        return (
            tuple(d * (q * q) / 4.0 for d, q in zip(self.d, self.q)),
            tuple(float(p) for p in self.p),
            tuple((q * q) / 2.0 for q in self.q),
        )


@dataclass(frozen=True)
class LuPagePopeAnsatz:
    """Single-factor circle bundle warped with a positive Einstein factor N.

    The Einstein constant of N is pinned to d2 - 1 (unit round normalization).
    The system is dancer_wang with a second factor (p2, q2) = (d2 - 1, 0)
    (Lu-Page-Pope 2004, Dancer-Wang 2011), and is integrated as that
    embedding; only its config schema and its ratio bound are its own.
    """

    d1: int
    p1: int
    q1: int
    d2: int

    def __post_init__(self):
        if self.d1 <= 0 or self.d1 % 2:
            raise ValueError("d1 must be a positive even integer")
        if self.p1 <= 0:
            raise ValueError("p1 must be positive")
        if self.q1 == 0:
            raise ValueError("q1 must be nonzero")
        if self.d2 < 1:
            raise ValueError("d2 must be positive")

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dancer_wang.dims

    @property
    def component_names(self) -> tuple[str, ...]:
        return self._dancer_wang.component_names

    def as_dancer_wang(self) -> DancerWangAnsatz:
        """The (p2, q2) = (d2 - 1, 0) degenerate two-factor embedding, built
        once per instance."""
        return self._dancer_wang

    @cached_property
    def _dancer_wang(self) -> DancerWangAnsatz:
        return DancerWangAnsatz(
            d=(self.d1, self.d2), p=(self.p1, self.d2 - 1), q=(self.q1, 0), allow_degenerate=True
        )


Ansatz = TwoSummandsAnsatz | DancerWangAnsatz | LuPagePopeAnsatz


def flow_ansatz(ansatz: Ansatz) -> TwoSummandsAnsatz | DancerWangAnsatz:
    """The ansatz whose closed form carries this one's flow: the degenerate
    dancer_wang embedding for lpp, the ansatz itself otherwise."""
    if isinstance(ansatz, LuPagePopeAnsatz):
        return ansatz.as_dancer_wang()
    if isinstance(ansatz, (TwoSummandsAnsatz, DancerWangAnsatz)):
        return ansatz
    raise TypeError(f"unknown ansatz type {type(ansatz)!r}")


@dataclass
class SolitonState:
    """One time slice (t, f_i, fdot_i, u, udot) of a trajectory."""

    t: float
    f: np.ndarray
    df: np.ndarray
    u: float
    du: float

    def __post_init__(self):
        self.f = np.atleast_1d(np.asarray(self.f, dtype=float))
        self.df = np.atleast_1d(np.asarray(self.df, dtype=float))
        if self.f.shape != self.df.shape:
            raise ValueError("f and df must have matching shapes")


@dataclass(frozen=True)
class ProblemSpec:
    """A solvable problem: ansatz, soliton constant, conservation constant,
    and the sizes of the non-collapsing orbit components at t = 0."""

    ansatz: Ansatz
    epsilon: float
    C: float
    initial: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "initial", tuple(float(v) for v in self.initial))
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0 (steady or expanding)")
        if self.C > 0:
            raise ValueError("conservation constant C must be <= 0")
        n_sizes = len(self.ansatz.dims) - 1  # every component but the collapsing one
        if len(self.initial) != n_sizes:
            raise ValueError(f"expected {n_sizes} initial size(s), got {len(self.initial)}")
        if any(v <= 0 for v in self.initial):
            raise ValueError("initial orbit sizes must be positive")

    @property
    def orbit_dim(self) -> int:
        return int(sum(self.ansatz.dims))

    def with_C(self, C: float) -> "ProblemSpec":
        return replace(self, C=C)


# -- shape-operator traces -------------------------------------------------


def _sum(xs):
    """x_0 + x_1 + ..., left to right: the one order every sum over
    components is taken in, for floats and for (N,) sample columns alike."""
    return reduce(add, xs)


def _dot(c, x):
    """c_0 x_0 + c_1 x_1 + ..., summed as ``_sum``."""
    s = c[0] * x[0]
    for i in range(1, len(c)):
        s = s + c[i] * x[i]
    return s


def _ratios(df, f) -> list:
    """The shape-operator eigenvalues fdot_i / f_i, one per component."""
    return list(map(truediv, df, f))


def tr_L(state: SolitonState, ansatz: Ansatz):
    return _dot(ansatz.dims, _ratios(state.df, state.f))


# -- curvature terms of each system ----------------------------------------


def _ricci_rates_split(f, ansatz: Ansatz):
    """Ricci rates with the collapsing component's singular part split off.

    Returns (geo, extras) with rates = geo / (d0 f0^2) * e_0 + extras and
    geo = d0 (d0 - 1), the curvature coefficient of a unit round collapsing
    sphere.  Near the singular orbit geo / f0^2 cancels against the shape
    term d0 (d0 - 1) fdot0^2 / f0^2; keeping it separate lets callers fold
    the pair into (1 - fdot0)(1 + fdot0) geo / f0^2, which evaluates without
    catastrophic cancellation.  This is the one closed form of each family.

    f is a sequence of components and extras a list with one rate per
    component.  A component is a float for one state (the integrator's
    right-hand side) or an (N,) array for N samples (the column table); the
    closed form uses only + - * /, which round the same way on both, so
    the two agree bit for bit.
    """
    a = flow_ansatz(ansatz)
    if isinstance(a, TwoSummandsAnsatz):
        geo, c1, c3, c2, c4 = a._rate_coefficients
        f1, f2 = f[0], f[1]
        f1sq, f2sq = f1 * f1, f2 * f2
        f2q = f2sq * f2sq
        return geo, [c1 / f1sq + c3 * f1sq / f2q, c2 / f2sq - c4 * f1sq / f2q]
    # circle fibres: d0 = 1, no singular curvature term
    c0, p, c2 = a._rate_coefficients
    ff2 = f[0] * f[0]
    rates = [0.0]
    for i in range(len(p)):
        g2 = f[i + 1] * f[i + 1]
        g4 = g2 * g2
        term = c0[i] * ff2 / g4
        rates[0] = term if i == 0 else rates[0] + term
        rates.append(p[i] / g2 - c2[i] * ff2 / g4)
    return 0.0, rates


# -- cancellation-free assembly near the singular orbit -----------------------
#
# The flow needs f_i ddot f_i / f_i = z_i (z_i - H) + eps/2 + r_i with
# z = fdot/f.  For the collapsing component both z0^2 and r_0 are O(1/t^2)
# and cancel to O(1); evaluated literally, the rounding noise eps_mach/t^2
# swamps the conservation residual at the launch scale.  The grouping below
# is algebraically identical but pairs the singular pieces first:
#
#   d0 z0 (z0 - H) + geo/f0^2 = geo (1 - fdot0)(1 + fdot0)/f0^2
#                                + d0 z0 (udot - T_r),
#
# where geo = d0 (d0 - 1) and T_r is tr L without the collapsing component.


def _second_rates_stable(f, df, du, ansatz: Ansatz, d, eps: float) -> list:
    """Per-component values of fddot_i / f_i, grouped to avoid cancellation;
    d is the ansatz's dims.  Components are floats or (N,) arrays, as in
    ``_ricci_rates_split``."""
    z = _ratios(df, f)
    geo, extras = _ricci_rates_split(f, ansatz)
    t_rest = _dot(d[1:], z[1:])
    H = -du + (d[0] * z[0] + t_rest)
    half = eps / 2.0
    out = [
        geo * (1.0 - df[0]) * (1.0 + df[0]) / (f[0] * f[0]) / d[0]
        + z[0] * (du - t_rest)
        + half
        + extras[0]
    ]
    for i in range(1, len(z)):
        out.append(z[i] * (z[i] - H) + half + extras[i])
    return out


def u_dotdot_stable(state: SolitonState, ansatz: Ansatz, eps: float):
    """uddot from the flow, safe to evaluate arbitrarily close to t = 0."""
    d = ansatz.dims
    return _dot(d, _second_rates_stable(state.f, state.df, state.du, ansatz, d, eps)) - eps / 2.0


# -- vector packing for the integrator ---------------------------------------


def pack_state(state: SolitonState) -> np.ndarray:
    return np.concatenate((state.f, state.df, [state.u, state.du]))


def unpack_state(t: float, y: np.ndarray, ansatz: Ansatz) -> SolitonState:
    k = len(ansatz.dims)
    return SolitonState(t=t, f=y[:k].copy(), df=y[k : 2 * k].copy(), u=y[2 * k], du=y[2 * k + 1])


def _vector_rates(y, a: TwoSummandsAnsatz | DancerWangAnsatz, eps: float) -> list:
    """dy/dt for y = [f..., df..., u, du] in the stable grouping: the formula
    ``make_vector_rhs`` compiles, the same closed form as ``u_dotdot_stable``."""
    d = a.dims
    k = len(d)
    f, df, du = y[:k], y[k : 2 * k], y[2 * k + 1]
    w = _second_rates_stable(f, df, du, a, d, eps)
    return [*df, *map(mul, f, w), du, _dot(d, w) - eps / 2.0]


def make_vector_rhs(ansatz: Ansatz, eps: float):
    """Flattened dy/dt for y = [f..., df..., u, du] as a list of floats:
    ``_vector_rates`` traced into straight-line code, compiled once per
    flow ansatz and eps (see ``codegen.trace_rates``)."""
    a = flow_ansatz(ansatz)
    return trace_rates(_vector_rates, a, eps, 2 * len(a.dims) + 2, "rhs")


# -- conserved quantities and identities --------------------------------------


def conservation_residual(state: SolitonState, udd, spec: ProblemSpec):
    """First-integral residual uddot + (-udot + tr L) udot - C - eps u."""
    H = -state.du + tr_L(state, spec.ansatz)
    return udd + H * state.du - spec.C - spec.epsilon * state.u


def conservation_residual_curvature(state: SolitonState, spec: ProblemSpec):
    """Residual of the curvature form of the same first integral:
    tr r + tr L^2 - (-udot + tr L)^2 + (n-1) eps/2 - C - eps u.

    Expanded so the 1/t^2 pieces of the square and of the scalar curvature
    cancel analytically instead of in floating point.
    """
    a = spec.ansatz
    d = a.dims
    k = len(d)
    f, df, du = state.f, state.df, state.du
    z = _ratios(df, f)
    geo, extras = _ricci_rates_split(f, a)
    w = [d[i] * z[i] for i in range(k)]
    T = _sum(w)
    # sum_{i != j} d_i d_j z_i z_j = 2 sum_{i < j}, without ever forming T^2
    cross = _sum([w[i] * w[j] for i in range(k) for j in range(i + 1, k)])
    diag_rest = _dot([di * (di - 1.0) for di in d[1:]], [zi * zi for zi in z[1:]])
    n = spec.orbit_dim
    return (
        geo * (1.0 - df[0]) * (1.0 + df[0]) / (f[0] * f[0])
        - 2.0 * cross
        - diag_rest
        + 2.0 * T * du
        - du * du
        + _dot(d, extras)
        + (n - 1) * spec.epsilon / 2.0
        - spec.C
        - spec.epsilon * state.u
    )


def _locus_ratios(state: SolitonState, spec: ProblemSpec, r4):
    """The preserved-locus ratios q1 = tr L / H and
    q2 = (tr L^2 + tr r + (n-1) eps/2) / H^2, H = -udot + tr L, both taken
    through the conserved combination: q1 = 1 + udot / H and
    q2 = 1 + (r4 + C + eps u) / H^2 with r4 the curvature residual at the
    same state(s).  NaN where H <= 0, where neither is defined."""
    H = -state.du + tr_L(state, spec.ansatz)
    with np.errstate(divide="ignore", invalid="ignore"):
        q1 = np.where(H > 0, 1.0 + state.du / H, np.nan)
        q2 = np.where(H > 0, 1.0 + (r4 + spec.C + spec.epsilon * state.u) / (H * H), np.nan)
    return q1[()], q2[()]


def kahler_residual(state: SolitonState, a: DancerWangAnsatz) -> np.ndarray:
    """Per-factor residual 2 g_i gdot_i + q_i f of the Kaehler condition
    d/dt g_i^2 = -q_i f.  All zeros exactly on the Kaehler locus, which
    requires every q_i < 0 once the metric is moving."""
    ff, g, dg = state.f[0], state.f[1:], state.df[1:]
    return np.array([2.0 * g[i] * dg[i] + float(a.q[i]) * ff for i in range(a.m)])
