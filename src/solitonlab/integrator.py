"""Adaptive embedded Runge-Kutta integration with event detection.

A hand-rolled Dormand-Prince 5(4) pair: fifth-order propagation, embedded
fourth-order error estimate, PI step-size control, first-same-as-last
stage reuse.  Between samples the solution is Dormand-Prince's own
fourth-order continuous extension (Shampine 1986; Hairer, Norsett and
Wanner, Solving ODEs I, II.6), built from each step's stages at no extra
right-hand-side cost.  It serves ``sample_at`` and event location alike.

The step runs on Python floats: the state and each stage are lists, and
every stage combination, the error vector and the dense-output term is an
explicit sum in a fixed order.  The error norm sums in numpy's pairwise
order, so it equals the array formula bit for bit.  No rounding on the step
depends on the BLAS or SIMD kernels numpy picks at run time, and identical
inputs walk an identical step sequence on any such kernel.  Accepted samples
go to flat double buffers that become the result's arrays.

One attempt is straight-line code generated from the tableau rows for the
state length at hand (``_dp_kernel``): scalar locals, no per-component
loops.  A right-hand side compiled by ``codegen`` (found by the identity
of the function object, so a profiler's wrapper is called like any other
callable) is fused in: each stage is its traced body inlined, and the
attempt counts its own evaluations.  Every stage reuses the body's local
names.  With names of its own per stage the attempt has some 420 locals;
CPython reaches a local past the 256th only through an extended
instruction, and so built the attempt ran no faster than the calling one.
Attempts are compiled on first use and cached.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .codegen import Tape, Trace, compile_function, traced

__all__ = ["EventSpec", "IntegratorConfig", "IntegrationResult", "compile_attempt", "integrate"]

# Dormand-Prince 5(4) tableau: nodes _Ci, stage weights _Aij; the 5th-order
# weights equal the last row _A7j (FSAL), and _Ej = b5_j - b4_j.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A72, _A73, _A74, _A75, _A76 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)
# Dense-output weights: r5 = h sum_j k_j _Dj is the quartic term of the
# continuous extension (the last column of Hairer's DOPRI5 ``d`` coefficients).
_D1, _D2, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ALPHA = 0.7 / 5.0  # PI controller exponents
_BETA = 0.4 / 5.0
# smallest step, relative to max(|t|, 1)
_H_FLOOR = 16.0 * sys.float_info.epsilon
# the samples a sink receives at a time
_SINK_BLOCK = 256


@dataclass(frozen=True)
class EventSpec:
    """Named scalar event g(t, y) that ends the integration where it falls
    through zero: a finite value above 0, then a finite value at or below 0.
    The crossing is located by bisection on the step's continuous extension.
    y is a list of floats at accepted points and an array on the extension,
    so g should index and use builtins (min, max, abs) that serve both."""

    name: str
    fn: Callable[[float, Sequence[float]], float]


@dataclass
class IntegratorConfig:
    t_max: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 200_000
    events: tuple[EventSpec, ...] = ()
    validity: Callable[[list[float]], bool] | None = None
    sink: Callable | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_max <= 0 or self.max_steps <= 0:
            raise ValueError("t_max and max_steps must be positive")


@dataclass
class IntegrationResult:
    """One sample per accepted step, termination verdict and step statistics.

    ``dys`` holds the derivative at each sample and ``dense`` the quartic
    term r5 of each sample interval (one row fewer than ``ts``), so
    ``sample_at`` evaluates the continuous extension with no further
    right-hand-side calls.  An event's point is the last sample, and
    ``termination`` names it.
    """

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    dense: np.ndarray
    termination: str
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0

    def sample_at(self, t) -> np.ndarray:
        """The continuous extension at a time (shape (n,)) or an array of
        times (shape (len(t), n)) within the covered span."""
        ts = self.ts
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * (1 + np.abs(t))
        if np.any(t < ts[0] - slack) or np.any(t > ts[-1] + slack):
            raise ValueError(f"t={t} outside the integrated span [{ts[0]}, {ts[-1]}]")
        if len(ts) == 1:  # no step was accepted: the span is the start point
            return np.broadcast_to(self.ys[0], t.shape + self.ys[0].shape).copy()
        i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        h = (ts[i + 1] - ts[i])[..., None]
        theta = (t - ts[i])[..., None] / h
        ys, dys = self.ys, self.dys
        return _interpolate(ys[i], ys[i + 1], dys[i], dys[i + 1], self.dense[i], h, theta)


def _interpolate(y0, y1, f0, f1, r5, h, theta):
    """Dormand-Prince's continuous extension of one step of size h at the
    fractions theta of it; with r5 = 0 it is the cubic Hermite interpolant."""
    dy = y1 - y0
    a = h * f0 - dy
    b = dy - h * f1 - a
    return y0 + theta * (dy + (1.0 - theta) * (a + theta * (b + (1.0 - theta) * r5)))


def _slope(y0, y1, f0, f1, r5, h, theta):
    """Derivative in theta of ``_interpolate``."""
    dy = y1 - y0
    a = h * f0 - dy
    b = dy - h * f1 - a
    q = a + theta * (b + (1.0 - theta) * r5)
    return dy + (1.0 - 2.0 * theta) * q + theta * (1.0 - theta) * (b + (1.0 - 2.0 * theta) * r5)


def _pairwise_sum(a):
    """Sum of the floats a in numpy's pairwise order, which holds up to 128
    terms: in sequence below 8, else eight interleaved accumulators and a
    sequential tail."""
    n = len(a)
    if n < 8:
        s = 0.0
        for v in a:
            s += v
        return s
    r = list(a[:8])
    end = n - n % 8
    for i in range(8, end, 8):
        for j in range(8):
            r[j] += a[i + j]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in a[end:]:
        s += v
    return s


def _rms(w):
    """sqrt(mean(w^2)), bit-identical to np.sqrt(np.mean(w ** 2))."""
    return math.sqrt(_pairwise_sum([v * v for v in w]) / len(w))


def _error_norm(err, y_old, y_new, rtol, atol):
    """The RMS of err scaled by atol + rtol max(|y_old|, |y_new|), with
    numpy's NaN-propagating maximum."""
    return _rms([
        e / (atol + rtol * (a if a > b or a != a else b))
        for e, a, b in zip(err, map(abs, y_old), map(abs, y_new))
    ])


def _initial_step(call, t0, y0, f0, rtol, atol):
    # standard two-trial heuristic for the starting step
    d0 = _error_norm(y0, y0, y0, rtol, atol)
    d1 = _error_norm(f0, y0, y0, rtol, atol)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = call(t0 + h0, [v + h0 * g for v, g in zip(y0, f0)])
    d2 = _error_norm([b - a for a, b in zip(f0, f1)], y0, y0, rtol, atol) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


# what a stage may raise where numpy would return inf or NaN
_STAGE_ERRORS = (ValueError, FloatingPointError, ZeroDivisionError, OverflowError)

# (node, weights) of stages 2..7; the stage 7 node is the 5th-order solution
_STAGES = (
    (_C2, (_A21,)),
    (_C3, (_A31, _A32)),
    (_C4, (_A41, _A42, _A43)),
    (_C5, (_A51, _A52, _A53, _A54)),
    (1.0, (_A61, _A62, _A63, _A64, _A65)),
    (1.0, (_A71, _A72, _A73, _A74, _A75, _A76)),
)


@lru_cache(maxsize=64)
def _dp_kernel(n: int, rhs: Trace | None = None):
    """One Dormand-Prince attempt on states of n floats, compiled from the
    tableau rows: ``step(call, t, y, f, h, rtol, atol)`` steps by h from
    (t, y) with slope f, each y and f a sequence of n floats.

    Returns (y_new, f_new, err, r5) -- the fifth-order solution, its slope
    (FSAL), the scaled error norm and the quartic term of the step's
    continuous extension -- or a failure when a stage raises one of
    ``_STAGE_ERRORS`` or is not finite.  Each stage is checked before the
    next one is evaluated.  Every combination of stages is
    y_j + h * (k1_j a1 + k2_j a2 + ...), summed left to right with zero
    weights included, so its rounding is fixed.  The error norm is
    ``_error_norm`` unrolled, summed in ``_pairwise_sum``'s order.

    Without ``rhs`` each stage is ``call(t_i, x)``, a failure returns None,
    and a stage of the wrong length raises ValueError.  With the Trace of a
    compiled right-hand side each stage is its traced body inlined, in the
    body's own local names, and ``call`` is not used: a failure returns the
    number of right-hand sides evaluated, and a completed attempt evaluated
    ``len(_STAGES)``.  The source is registered with linecache as
    ``<solitonlab dp5 n=...>``.
    """
    J = range(n)
    err_weights = (_E1, _E2, _E3, _E4, _E5, _E6, _E7)
    dense_weights = (_D1, _D2, _D3, _D4, _D5, _D6, _D7)

    def names(prefix):
        return "".join(f"{prefix}{j}, " for j in J)

    def combined(weights, j):
        return " + ".join(f"k{i}_{j} * {w!r}" for i, w in enumerate(weights, 1))

    def check(stage, failure):
        finite = " and ".join(f"isfinite(k{stage}_{j})" for j in J)
        return [f"        if not ({finite}):", f"            return {failure}"]

    src = ["def dp5(call, t, y, f, h, rtol, atol):", f"    {names('y_')}= y", f"    {names('k1_')}= f"]
    for stage, (node, weights) in enumerate(_STAGES, 2):
        x = [f"y_{j} + h * ({combined(weights, j)})" for j in J]
        src.append("    try:")
        if stage == 7:  # the 5th-order solution, the last stage's node
            src += [f"        yn{j} = {x[j]}" for j in J] + [f"        y_new = [{names('yn')}]"]
            x = [f"yn{j}" for j in J]
        if rhs is None:
            t_node = "t + h" if node == 1.0 else f"t + {node!r} * h"
            arg = "y_new" if stage == 7 else f"[{', '.join(x)}]"
            src.append(f"        k = call({t_node}, {arg})")
            stage_k = [f"    {names(f'k{stage}_')}= k"]
            failure = None
        else:
            src += [f"        {v} = {e}" for v, e in zip(rhs.inputs, x)]
            src += [f"        {line}" for line in rhs.lines]
            stage_k = [f"    k{stage}_{j} = {out}" for j, out in zip(J, rhs.outputs)]
            failure = stage - 1  # the right-hand sides evaluated
        caught = ["    except _STAGE_ERRORS:", f"        return {failure}"]
        src += [*caught, *stage_k, "    try:", *check(stage, failure), *caught]
    for j in J:
        src += [
            f"    a = abs(y_{j})",
            f"    b = abs(yn{j})",
            f"    w{j} = h * ({combined(err_weights, j)}) / (atol + rtol * (a if a > b or a != a else b))",
        ]
    tape = Tape()
    total = _pairwise_sum([w * w for w in (tape.var(f"w{j}") for j in J)])
    src += [f"    {line}" for line in tape.lines]
    r5 = ", ".join(f"h * ({combined(dense_weights, j)})" for j in J)
    f_new = "k" if rhs is None else f"[{names('k7_')}]"
    src.append(f"    return y_new, {f_new}, sqrt({total.name} / {n}), [{r5}]")
    namespace = {"_STAGE_ERRORS": _STAGE_ERRORS, "isfinite": math.isfinite, "sqrt": math.sqrt}
    filename = f"<solitonlab dp5 n={n}>"
    if rhs is not None:
        if (len(rhs.inputs), len(rhs.outputs)) != (n, n):
            raise ValueError(f"{rhs.filename} does not map {n} values to {n}")
        namespace |= rhs.namespace
        filename = f"<solitonlab dp5 n={n} inlining {rhs.filename[1:-1]}>"
    return compile_function("dp5", "\n".join(src) + "\n", filename, namespace)


def compile_attempt(rhs, n: int):
    """The compiled attempt ``integrate`` takes for ``rhs`` on states of n
    floats, and the right-hand sides a completed attempt evaluates inline
    (0 when each stage calls ``rhs``).  Cached: a caller may build it ahead
    of a run, so that a forked process inherits it."""
    trace = traced(rhs)
    return _dp_kernel(n, trace), len(_STAGES) if trace is not None else 0


def _crossed(prev, curr):
    """A fall through zero: a finite value above 0, then one at or below 0."""
    return math.isfinite(prev) and math.isfinite(curr) and prev > 0.0 >= curr


def integrate(rhs, t0: float, y0, cfg: IntegratorConfig) -> IntegrationResult:
    """Advance dy/dt = rhs(t, y) from (t0, y0) until t_max, an event, step
    failure or an invalid state; a t_max at or before t0 is a ValueError.

    ``rhs`` receives the state as a list of floats and returns the
    derivative as a sequence of as many floats; a list is used as it is,
    anything else is converted.  Event times are found by bisection on the
    step's continuous extension to an absolute tolerance of 1e-12 (1 + t).
    The earliest crossing in a step ends the run, the first event in order
    on a tie, with one extra step from the last accepted point to its time.
    Statistics count accepted steps, rejected attempts and right-hand-side
    evaluations.

    A ``cfg.sink`` is called as ``sink(ts, ys)`` with each block of
    ``_SINK_BLOCK`` samples as soon as its last one is accepted: their
    times, then their states row after row, as ``array('d')``.  A sample
    is never changed once accepted, so the rows of a block are final; the
    samples after the last full block (an event's point among them) are
    the result's alone.
    """
    y = np.asarray(y0, dtype=float).tolist()
    n = len(y)
    t = float(t0)
    if not cfg.t_max > t:
        raise ValueError(f"t_max {cfg.t_max!r} must exceed the start time {t!r}")
    n_acc = n_rej = n_rhs = 0
    rtol, atol, validity = cfg.rel_tol, cfg.abs_tol, cfg.validity
    t_max, max_steps = cfg.t_max, cfg.max_steps
    events, sink = cfg.events, cfg.sink
    event_fns = [ev.fn for ev in events]
    isfinite = math.isfinite
    # a compiled right-hand side is inlined into the attempt, which counts
    # its own evaluations: ``inlined`` when it completes, the number it
    # returns when it fails; ``call`` counts every other evaluation
    dp_step, inlined = compile_attempt(rhs, n)

    def call(tt, yy):
        nonlocal n_rhs
        n_rhs += 1
        out = rhs(tt, yy)
        return out if type(out) is list else np.asarray(out, dtype=float).tolist()

    # the launch state's slope and the starting step, failing as a stage would
    try:
        f = call(t, y)
        if not all(map(isfinite, f)):
            raise FloatingPointError("a component is not finite")
        h = min(_initial_step(call, t, y, f, rtol, atol), t_max - t)
    except _STAGE_ERRORS as exc:
        raise ArithmeticError(
            f"the right-hand side fails at the launch state t = {t!r} ({exc});"
            " check the sizes in 'initial'"
        ) from exc
    # one flat buffer per sampled quantity, n values per sample
    ts, ys, dys, dense = array("d", [t]), array("d", y), array("d", f), array("d")
    ev_prev = [fn(t, y) for fn in event_fns]
    # the accepted-step count at which the samples fill the next block
    block_end = -1 if sink is None else _SINK_BLOCK - 1
    err_prev = 1.0
    termination = "reached_t_max"
    rejected_invalid = False

    while t < t_max:
        if n_acc + n_rej >= max_steps:
            termination = "step_failure"
            break
        h = min(h, t_max - t)
        if h < _H_FLOOR * max(abs(t), 1.0):
            termination = "state_invalid" if rejected_invalid else "step_failure"
            break

        step = dp_step(call, t, y, f, h, rtol, atol)
        if type(step) is not tuple:
            n_rhs += step or 0
            n_rej += 1
            h *= 0.25
            continue
        n_rhs += inlined
        y_new, f_new, err, r5 = step
        invalid = validity is not None and not validity(y_new)
        if invalid or not isfinite(err):
            n_rej += 1
            rejected_invalid = invalid
            h *= 0.25
            continue
        if err > 1.0:
            n_rej += 1
            rejected_invalid = False
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            continue

        # accepted
        n_acc += 1
        rejected_invalid = False
        t_new = t + h

        hit = extension = None
        for idx, fn in enumerate(event_fns):
            val = fn(t_new, y_new)
            # a crossing needs a value <= 0 after it; NaN has none
            if val <= 0.0 and _crossed(ev_prev[idx], val):
                if extension is None:
                    extension = (*map(np.array, (y, y_new, f, f_new, r5)), h)
                t_star, y_star = _refine_event(events[idx], t, extension)
                if hit is None or t_star < hit[0]:
                    hit = t_star, y_star, events[idx].name
            ev_prev[idx] = val

        if hit is not None:
            t_star, y_star, name = hit
            termination = f"event:{name}"
            # the last sample is a real step's end; should that step fail,
            # it is the extension restricted to [t, t_star]
            step = dp_step(call, t, y, f, t_star - t, rtol, atol)
            if type(step) is tuple:
                n_rhs += inlined
                y_new, f_new, _, r5 = step
            else:
                n_rhs += step or 0
                sigma = (t_star - t) / h
                y_new, f_new = y_star, _slope(*extension, sigma) / h
                r5 = (sigma * sigma) * (sigma * sigma) * extension[4]
            t_new = t_star

        ts.append(t_new)
        ys.extend(y_new)
        dys.extend(f_new)
        dense.extend(r5)
        if hit is not None:
            break
        t, y, f = t_new, y_new, f_new
        if n_acc == block_end:
            start = block_end + 1 - _SINK_BLOCK
            sink(ts[start:], ys[start * n :])
            block_end += _SINK_BLOCK

        factor = _SAFETY * (err ** -_ALPHA) * (err_prev**_BETA) if err > 0 else _MAX_FACTOR
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = max(err, 1e-4)

    return IntegrationResult(
        ts=np.frombuffer(ts),
        ys=np.frombuffer(ys).reshape(-1, n),
        dys=np.frombuffer(dys).reshape(-1, n),
        dense=np.frombuffer(dense).reshape(-1, n),
        termination=termination,
        n_accepted=n_acc,
        n_rejected=n_rej,
        n_rhs=n_rhs,
    )


def _refine_event(ev: EventSpec, t0, extension):
    """Bisect the event crossing in the accepted step [t0, t0 + h] on its
    continuous extension (y0, y1, f0, f1, r5, h), with no right-hand-side
    call; returns the first bisection point past the crossing and its state."""
    h = extension[-1]
    g_lo = ev.fn(t0, extension[0])
    t_lo, t_hi = t0, t0 + h
    for _ in range(200):
        if t_hi - t_lo <= 1e-12 * (1.0 + abs(t_hi)):
            break
        mid = 0.5 * (t_lo + t_hi)
        g_mid = ev.fn(mid, _interpolate(*extension, (mid - t0) / h))
        if _crossed(g_lo, g_mid):
            t_hi = mid
        else:
            t_lo, g_lo = mid, g_mid
    return t_hi, _interpolate(*extension, (t_hi - t0) / h)
