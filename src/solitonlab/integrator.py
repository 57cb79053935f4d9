"""Adaptive embedded Runge-Kutta integration with event detection.

A hand-rolled Dormand-Prince 5(4) pair: fifth-order propagation, embedded
fourth-order error estimate, PI step-size control, first-same-as-last
stage reuse.  Between samples the solution is Dormand-Prince's own
fourth-order continuous extension (Shampine 1986; Hairer, Norsett and
Wanner, Solving ODEs I, II.6), built from each step's stages at no extra
right-hand-side cost.  It serves ``sample_at`` and event location alike.

The step runs on Python floats, one local per component of the state and
of each stage, and every stage combination, the error vector and the dense-output term is an
explicit sum in a fixed order.  The error norm sums in numpy's pairwise
order, so it equals the array formula bit for bit.  No rounding on the step
depends on the BLAS or SIMD kernels numpy picks at run time, and identical
inputs walk an identical step sequence on any such kernel.  Accepted samples
go to flat double buffers that become the result's arrays.

The whole adaptive loop is one function generated for the state length
and the run's callables (``_run_kernel``), compiled on first use and
cached: the six stages, the error norm, the validity test, every event,
the sample buffers, the sink's blocks and the PI controller, on scalar
locals with no per-component loops.  A callable compiled from a
``codegen.Trace`` -- the right-hand side, an event or the validity test --
is found by the identity of the function object (``codegen.traced``), and
its recorded lines are pasted in as they are.  The right-hand side is
recorded over y0 .. y{n-1}, which each stage binds to its input, so every
stage reuses its local names: with names of its own per stage the loop
would have some 420 locals, and CPython reaches a local past the 256th
only through an extended instruction.  A state test (``_state_test``)
takes (t, y) and is recorded over yn0 .. yn{n-1}, the loop's names for
the new state.  Any other callable, a profiler's wrapper included, is
passed in and called from the same loop.  So the cache key holds the
traces and the call slots, never an uncompiled callable, and an accepted
step calls nothing in Python unless a callable has no trace.

One kernel, one more attempt at a crossing: a step that crosses an event
returns to Python, ``_refine_event`` bisects the crossing, and the step to
its time is the same kernel called once more from the step's start, which
returns after that one attempt.  So a run compiles nothing at a crossing.
Every float operation is the one the step has always made, in the same
order, so samples, counts and terminations do not depend on what is
inlined.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .codegen import Tape, Trace, compile_function, compile_trace, extremum, traced

__all__ = ["EventSpec", "IntegratorConfig", "IntegrationResult", "integrate"]

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
_ERROR_WEIGHTS = (_E1, _E2, _E3, _E4, _E5, _E6, _E7)
_DENSE_WEIGHTS = (_D1, _D2, _D3, _D4, _D5, _D6, _D7)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ALPHA = 0.7 / 5.0  # PI controller exponents
_BETA = 0.4 / 5.0
# smallest step, relative to max(|t|, 1)
_H_FLOOR = 16.0 * sys.float_info.epsilon
# step attempts, accepted and rejected, after which a run ends as step_failure
_MAX_STEPS = 200_000
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
    max_steps: int = _MAX_STEPS
    events: tuple[EventSpec, ...] = ()
    validity: Callable[[float, list[float]], bool] | None = None
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


def _combined(weights, j):
    """The stage combination of component j: k1_j w1 + k2_j w2 + ...,
    summed left to right with zero weights included, so its rounding is
    fixed."""
    return " + ".join(f"k{i}_{j} * {w!r}" for i, w in enumerate(weights, 1))


def _names(prefix, n):
    return "".join(f"{prefix}{j}, " for j in range(n))


def _indented(lines, depth=1):
    return [f"{'    ' * depth}{line}" for line in lines]


def _attempt(n, rhs: Trace | None, y_new: bool) -> list[str]:
    """Source lines of one Dormand-Prince attempt by h from (t, y_j) with
    slope k1_j: the stages k2_j .. k7_j, the fifth-order solution yn_j (and
    the list ``y_new`` of them when asked for), the scaled error norm
    ``err``, the quartic term ``r5`` of the step's continuous extension, and
    ``n_rhs`` counting the stages evaluated.

    Each stage is checked before the next one is evaluated; one that raises
    one of ``_STAGE_ERRORS`` or is not finite counts the stages before it,
    rejects the attempt and quarters h.  Without ``rhs`` each stage is the
    call ``rhs(t_i, x)``, x a list display, and a stage of the wrong length
    raises ValueError.  With the Trace of a compiled right-hand side each
    stage is its body inlined, in the body's own local names.  Every stage
    input is y_j + h * (k1_j a1 + k2_j a2 + ...), and the error norm is
    ``_error_norm`` unrolled, summed in ``_pairwise_sum``'s order."""
    J = range(n)
    y_new = y_new or rhs is None
    src = []
    for stage, (node, weights) in enumerate(_STAGES, 2):
        x = [f"y_{j} + h * ({_combined(weights, j)})" for j in J]
        src.append("try:")
        if stage == 7:  # the 5th-order solution, the last stage's node
            src += _indented(f"yn{j} = {x[j]}" for j in J)
            x = [f"yn{j}" for j in J]
            if y_new:
                src.append(f"    y_new = [{_names('yn', n)}]")
        if rhs is None:
            t_node = "t + h" if node == 1.0 else f"t + {node!r} * h"
            arg = "y_new" if stage == 7 else f"[{', '.join(x)}]"
            src += [f"    k = rhs({t_node}, {arg})", "    if type(k) is not list:", "        k = as_list(k)"]
            stage_k = [f"{_names(f'k{stage}_', n)}= k"]
        else:
            src += _indented(f"{v} = {e}" for v, e in zip(rhs.inputs, x))
            src += _indented(rhs.lines)
            stage_k = [f"k{stage}_{j} = {out}" for j, out in zip(J, rhs.outputs)]
        failure = [f"n_rhs += {stage - 1}", "n_rej += 1", "h *= 0.25", "continue"]
        caught = ["except _STAGE_ERRORS:", *_indented(failure)]
        finite = " and ".join(f"isfinite(k{stage}_{j})" for j in J)
        src += [*caught, *stage_k, "try:", f"    if not ({finite}):", *_indented(failure, 2), *caught]
    for j in J:
        src += [
            f"a = abs(y_{j})",
            f"b = abs(yn{j})",
            f"w{j} = h * ({_combined(_ERROR_WEIGHTS, j)}) / (atol + rtol * (a if a > b or a != a else b))",
        ]
    tape = Tape()
    total = _pairwise_sum([w * w for w in (tape.var(f"w{j}") for j in J)])
    r5 = ", ".join(f"h * ({_combined(_DENSE_WEIGHTS, j)})" for j in J)
    return [*src, *tape.lines, f"err = sqrt({total.name} / {n})", f"r5 = ({r5},)", f"n_rhs += {len(_STAGES)}"]


def _state(n: int) -> tuple[str, ...]:
    """yn0 .. yn{n-1}: the names the run kernel binds for the new state of
    an attempt, over which every state test is recorded."""
    return tuple(f"yn{j}" for j in range(n))


def _state_test(label: str, n: int, lines, result: str, namespace=None):
    """Compile ``fn(t, y)`` for a state y of n floats as
    ``<solitonlab label>``: it unpacks y into ``_state(n)``, runs the lines
    and returns ``result``, with the namespace as globals.  The run kernel
    pastes the lines and the result as they are, so they read the state
    under those names, assign only tape locals and ``codegen.extremum``'s
    m and c, and bind constants by the names a ``Tape`` gives them."""
    trace = Trace(f"<solitonlab {label}>", _state(n), tuple(lines), (result,), namespace or {})
    return compile_trace(trace, result)


@lru_cache(maxsize=None)
def _min_of(lo: int, hi: int, n: int):
    """``fn(t, y)``: min(y[lo:hi]) for a state of n components."""
    return _state_test(f"min y[{lo}:{hi}] n={n}", n, extremum("m", _state(n)[lo:hi]), "m")


@lru_cache(maxsize=None)
def _overflow(n: int):
    """``fn(t, y)``: 1e12 - max(map(abs, y)) for a state of n components."""
    lines = extremum("m", [f"abs({v})" for v in _state(n)], ">")
    return _state_test(f"overflow n={n}", n, lines, "1e12 - m")


@lru_cache(maxsize=None)
def _validity(n: int, k: int):
    """``fn(t, y)`` for a list y of n floats: all finite, and the first k
    positive.  Once all are finite this is min(y[:k]) > 0.0."""
    y = _state(n)
    tests = [f"isfinite({v})" for v in y] + [f"{v} > 0.0" for v in y[:k]]
    return _state_test(f"validity n={n} k={k}", n, [], " and ".join(tests), {"isfinite": math.isfinite})


@lru_cache(maxsize=64)
def _run_kernel(n: int, rhs: Trace | None, events: tuple, validity: tuple):
    """The adaptive loop of ``integrate`` on states of n floats, compiled
    from the attempt (``_attempt``), the validity test, the events, the
    sample buffers, the sink's blocks and the PI controller.

    ``rhs``, each item of ``events`` and the item of ``validity`` (empty
    without a validity test) is the Trace of a compiled callable, whose
    lines are pasted as they were recorded (a state test's over
    ``_state(n)``, see ``_state_test``), or None, a call slot: that
    callable is passed in and called.  Returns (termination, n_acc, n_rej,
    n_rhs, crossing): ``crossing`` is None, or, when an accepted step
    crossed an event, the step's (indices of the events it crossed, t, y,
    f, h, y_new, f_new, r5) with an empty termination; that step is
    counted but not sampled.

    One kernel, one more attempt at a crossing: with ``once`` true the loop
    returns right after its first completed attempt, with an empty
    termination and (y_new, f_new, err, r5) -- the fifth-order solution,
    its slope (FSAL), the scaled error norm and the quartic term -- in place
    of ``crossing``.  A failed stage rejects the attempt as always, so with
    ``max_steps`` 1 the call ends as ``step_failure`` with None.
    """
    J = range(n)
    yn, k7 = _names("yn", n), _names("k7_", n)
    called = rhs is None or None in events or None in validity
    namespace = {
        "_STAGE_ERRORS": _STAGE_ERRORS, "isfinite": math.isfinite, "sqrt": math.sqrt, "as_list": _as_list,
    }
    if rhs is not None:
        if (len(rhs.inputs), len(rhs.outputs)) != (n, n):
            raise ValueError(f"{rhs.filename} does not map {n} values to {n}")
        namespace |= rhs.namespace

    def inline(trace):
        if trace.inputs != _state(n):
            raise ValueError(f"{trace.filename} does not read the new state yn0 .. yn{n - 1}")
        namespace.update(trace.namespace)
        return trace.lines, trace.outputs[0]

    if not validity:
        test = ["invalid = False"]
    elif validity[0] is None:
        test = ["invalid = not validity(t + h, y_new)"]
    else:
        lines, out = inline(validity[0])
        test = [*lines, f"invalid = not ({out})"]
    crossings = []
    for i, trace in enumerate(events):
        if trace is None:
            lines, value = [f"v = ev{i}(t_new, y_new)"], "v"
        else:
            lines, value = inline(trace)
            if not value.isidentifier():
                lines, value = [*lines, f"v = {value}"], "v"
        crossings += [
            *lines,
            f"if {value} <= 0.0 and isfinite(prev{i}) and isfinite({value}) and prev{i} > 0.0:",
            f"    hit += ({i},)",
            f"prev{i} = {value}",
        ]
    # the factors of the PI controller and of a rejection, clamped as by
    # min(_MAX_FACTOR, max(_MIN_FACTOR, factor)), which keeps the first of
    # equal arguments
    lo, hi = repr(_MIN_FACTOR), repr(_MAX_FACTOR)
    step = [
        "if n_acc + n_rej >= max_steps:",
        "    return 'step_failure', n_acc, n_rej, n_rhs, None",
        "if t_max - t < h:",
        "    h = t_max - t",
        "a = abs(t)",
        f"if h < {_H_FLOOR!r} * (1.0 if 1.0 > a else a):",
        "    return 'state_invalid' if rejected_invalid else 'step_failure', n_acc, n_rej, n_rhs, None",
        *_attempt(n, rhs, called),
        "if once:",
        f"    return '', n_acc, n_rej, n_rhs, ([{yn}], [{k7}], err, r5)",
        *test,
        "if invalid or not isfinite(err):",
        "    n_rej += 1",
        "    rejected_invalid = invalid",
        "    h *= 0.25",
        "    continue",
        "if err > 1.0:",
        "    n_rej += 1",
        "    rejected_invalid = False",
        f"    x = {_SAFETY!r} * err ** -0.2",
        f"    h *= x if x > {lo} else {lo}",
        "    continue",
        # accepted
        "n_acc += 1",
        "rejected_invalid = False",
        "t_new = t + h",
        "hit = ()",
        *crossings,
        "if hit:",
        f"    return '', n_acc, n_rej, n_rhs, (hit, t, [{_names('y_', n)}], [{_names('k1_', n)}],"
        f" h, [{yn}], [{k7}], r5)",
        "ts_append(t_new)",
        f"ys_extend(({yn}))",
        f"dys_extend(({k7}))",
        "dense_extend(r5)",
        "t = t_new",
        *(f"y_{j} = yn{j}" for j in J),
        *(f"k1_{j} = k7_{j}" for j in J),
        "if n_acc == block_end:",
        f"    start = block_end + 1 - {_SINK_BLOCK}",
        f"    sink(ts[start:], ys[start * {n}:])",
        f"    block_end += {_SINK_BLOCK}",
        "if err > 0.0:",
        f"    x = {_SAFETY!r} * err ** {-_ALPHA!r} * err_prev ** {_BETA!r}",
        f"    x = x if x > {lo} else {lo}",
        f"    h *= x if x < {hi} else {hi}",
        "else:",
        f"    h *= {hi}",
        "err_prev = 1e-4 if 1e-4 > err else err",
    ]
    src = [f"{_names('y_', n)}= y", f"{_names('k1_', n)}= f"]
    if events:
        src += [f"{_names('ev', len(events))}= event_fns", f"{_names('prev', len(events))}= ev_prev"]
    src += [
        "ts_append, ys_extend, dys_extend, dense_extend = ts.append, ys.extend, dys.extend, dense.extend",
        "n_acc = n_rej = n_rhs = 0",
        "err_prev = 1.0",
        "rejected_invalid = False",
        # CPython 3.11 specializes a function's instructions once it has run
        # a few calls or unconditional back jumps; the conditional back jump
        # of `while t < t_max` counts for neither, so a run would go
        # unspecialized until its eighth call
        "while True:",
        "    if not t < t_max:",
        "        return 'reached_t_max', n_acc, n_rej, n_rhs, None",
        *_indented(step),
    ]
    args = "rhs, event_fns, validity, sink, t, y, f, h, t_max, rtol, atol, max_steps, ev_prev, block_end"
    src = [f"def run({args}, ts, ys, dys, dense, once):", *_indented(src)]
    parts = [("call" if trace is None else trace.filename[1:-1]) for trace in (rhs, *events, *validity)]
    filename = f"<solitonlab run n={n}: {'; '.join(parts)}>"
    return compile_function("run", "\n".join(src) + "\n", filename, namespace)


def _as_list(out) -> list:
    """A called right-hand side's value as a list of floats."""
    return np.asarray(out, dtype=float).tolist()


def compile_run(rhs, n: int, cfg: IntegratorConfig):
    """The compiled loop ``integrate`` runs for ``rhs`` and ``cfg``'s events
    and validity test on states of n floats: each compiled one inlined, any
    other called.  Cached by the traces and call slots, never by an
    uncompiled callable; a caller may build it ahead of a run, so that a
    forked process inherits it."""
    events = tuple(traced(ev.fn) for ev in cfg.events)
    validity = () if cfg.validity is None else (traced(cfg.validity),)
    return _run_kernel(n, traced(rhs), events, validity)


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
    rtol, atol, events, sink = cfg.rel_tol, cfg.abs_tol, cfg.events, cfg.sink

    def call(tt, yy):
        out = rhs(tt, yy)
        return out if type(out) is list else _as_list(out)

    # the launch state's slope and the starting step, failing as a stage would
    try:
        f = call(t, y)
        if not all(map(math.isfinite, f)):
            raise FloatingPointError("a component is not finite")
    except _STAGE_ERRORS as exc:
        raise ArithmeticError(
            f"the right-hand side fails at the launch state t = {t!r} ({exc});"
            " check the sizes in 'initial'"
        ) from exc
    try:
        h = min(_initial_step(call, t, y, f, rtol, atol), cfg.t_max - t)
    except _STAGE_ERRORS as exc:
        raise ArithmeticError(
            f"the starting step at t = {t!r} cannot be chosen ({exc})"
            f" with integrator.abs_tol = {atol!r} and integrator.rel_tol = {rtol!r}"
        ) from exc
    # one flat buffer per sampled quantity, n values per sample
    ts, ys, dys, dense = array("d", [t]), array("d", y), array("d", f), array("d")
    run = compile_run(rhs, n, cfg)
    fns = [ev.fn for ev in events]
    prev = [fn(t, y) for fn in fns]
    # the accepted-step count at which the samples fill the next block
    block_end = -1 if sink is None else _SINK_BLOCK - 1
    termination, n_acc, n_rej, n_rhs, crossing = run(
        rhs, fns, cfg.validity, sink, t, y, f, h, cfg.t_max, rtol, atol, cfg.max_steps, prev,
        block_end, ts, ys, dys, dense, False,
    )
    n_rhs += 2  # the launch state's slope and the starting step's trial
    if crossing is not None:
        hits, t, y, f, h, y_new, f_new, r5 = crossing
        extension = (*map(np.array, (y, y_new, f, f_new, r5)), h)
        hit = None
        for idx in hits:
            t_star, y_star = _refine_event(events[idx], t, extension)
            if hit is None or t_star < hit[0]:
                hit = t_star, y_star, events[idx].name
        t_star, y_star, name = hit
        termination = f"event:{name}"
        # the last sample is the end of one more attempt of the kernel, from
        # the crossing step's start; should that attempt fail, it is the
        # extension restricted to [t, t_star]
        _, _, _, counted, step = run(
            rhs, fns, cfg.validity, sink, t, y, f, t_star - t, t_star, rtol, atol, 1, prev,
            block_end, ts, ys, dys, dense, True,
        )
        n_rhs += counted
        if step is not None:
            y_new, f_new, _, r5 = step
        else:
            sigma = (t_star - t) / h
            y_new, f_new = y_star, _slope(*extension, sigma) / h
            r5 = (sigma * sigma) * (sigma * sigma) * extension[4]
        ts.append(t_star)
        ys.extend(y_new)
        dys.extend(f_new)
        dense.extend(r5)

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


def _crossed(prev, curr):
    """A fall through zero: a finite value above 0, then one at or below 0."""
    return math.isfinite(prev) and math.isfinite(curr) and prev > 0.0 >= curr


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
