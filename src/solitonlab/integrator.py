"""Adaptive embedded Runge-Kutta integration with event detection.

A hand-rolled Dormand-Prince 5(4) pair: fifth-order propagation, embedded
fourth-order error estimate, PI step-size control, first-same-as-last
stage reuse.  Between samples the solution is Dormand-Prince's own
fourth-order continuous extension (Shampine 1986; Hairer, Norsett and
Wanner, Solving ODEs I, II.6), built from each step's stages at no extra
right-hand-side cost.  It serves ``sample_at`` and event location alike.
Everything is double precision and deterministic: identical inputs walk
an identical step sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["EventSpec", "EventHit", "IntegratorConfig", "IntegrationResult", "integrate"]

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# 5th-order weights equal the last A row (FSAL); E = b5 - b4.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Dense-output weights: r5 = h K^T d is the quartic term of the continuous
# extension (the last column of Hairer's DOPRI5 ``d`` coefficients).
_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ALPHA = 0.7 / 5.0  # PI controller exponents
_BETA = 0.4 / 5.0


@dataclass(frozen=True)
class EventSpec:
    """Named scalar event g(t, y); a sign crossing in the given direction
    (-1 falling, +1 rising, 0 both) is located by bisection on the step's
    continuous extension and, if terminal, stops the integration."""

    name: str
    fn: Callable[[float, np.ndarray], float]
    direction: int = -1
    terminal: bool = True


@dataclass
class EventHit:
    name: str
    t: float
    y: np.ndarray


@dataclass
class IntegratorConfig:
    t_max: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    max_steps: int = 200_000
    first_step: float | None = None
    events: tuple[EventSpec, ...] = ()
    validity: Callable[[np.ndarray], bool] | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_max <= 0 or self.max_step <= 0 or self.max_steps <= 0:
            raise ValueError("t_max, max_step and max_steps must be positive")


@dataclass
class IntegrationResult:
    """One sample per accepted step, termination verdict and step statistics.

    ``dys`` holds the derivative at each sample and ``dense`` the quartic
    term r5 of each sample interval (one row fewer than ``ts``), so
    ``sample_at`` evaluates the continuous extension with no further
    right-hand-side calls.  A terminal event's point is the last sample;
    a non-terminal one is recorded in ``events`` only.
    """

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    dense: np.ndarray
    termination: str
    events: list[EventHit] = field(default_factory=list)
    terminal_event: EventHit | None = None
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0

    @property
    def y_end(self) -> np.ndarray:
        return self.ys[-1]

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


def _error_norm(err, y_old, y_new, rtol, atol):
    # the RMS of the scaled error; bit-identical to np.sqrt(np.mean(w ** 2))
    w = err / (atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new)))
    return math.sqrt((w * w).sum() / w.size)


def _initial_step(rhs, t0, y0, f0, rtol, atol, max_step):
    # standard two-trial heuristic for the starting step
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def _dp_step(call, t, y, f, h, rtol, atol):
    """One Dormand-Prince attempt of size h from (t, y) with slope f.

    Returns (y_new, f_new, err, r5) -- the fifth-order solution, its slope
    (FSAL), the scaled error norm and the quartic term of the step's
    continuous extension -- or None when a stage raises or is not finite.
    The stages live in a fresh array per attempt: the returned slope
    becomes the next attempt's first stage, and a shared buffer would let a
    rejected attempt overwrite it.
    """
    K = np.empty((7, y.size))
    K[0] = f
    for i in range(1, 7):
        yi = y + h * (K[:i].T @ _A[i])
        try:
            K[i] = call(t + _C[i] * h, yi)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            return None
        if not np.isfinite(K[i]).all():
            return None
    # the stage 7 node equals the 5th-order solution
    return yi, K[6], _error_norm(h * (K.T @ _E), y, yi, rtol, atol), h * (K.T @ _D)


def _crossed(prev, curr, direction):
    if prev is None or not math.isfinite(prev) or not math.isfinite(curr):
        return False
    return (direction >= 0 and prev < 0.0 <= curr) or (direction <= 0 and prev > 0.0 >= curr)


def integrate(rhs, t0: float, y0, cfg: IntegratorConfig) -> IntegrationResult:
    """Advance dy/dt = rhs(t, y) from (t0, y0) until t_max, a terminal
    event, step failure or an invalid state.

    Event times are found by bisection on the step's continuous extension
    to an absolute tolerance of 1e-12 (1 + t).  A terminal event ends the
    samples with one extra step from the last accepted point to the event
    time.  Statistics count accepted steps, rejected attempts and
    right-hand-side evaluations.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    stats = {"acc": 0, "rej": 0, "rhs": 0}

    def call(tt, yy):
        stats["rhs"] += 1
        return np.asarray(rhs(tt, yy), dtype=float)

    f = call(t, y)
    ts, ys, dys, dense = [t], [y.copy()], [f.copy()], []
    events: list[EventHit] = []
    terminal: EventHit | None = None
    ev_prev = [ev.fn(t, y) for ev in cfg.events]

    h = cfg.first_step or _initial_step(call, t, y, f, cfg.rel_tol, cfg.abs_tol, cfg.max_step)
    h = min(h, cfg.max_step, cfg.t_max - t)
    err_prev = 1.0
    termination = "reached_t_max"
    rejected_invalid = False

    while t < cfg.t_max:
        if stats["acc"] + stats["rej"] >= cfg.max_steps:
            termination = "step_failure"
            break
        h = min(h, cfg.t_max - t)
        h_floor = 16.0 * np.finfo(float).eps * max(abs(t), 1.0)
        if h < h_floor:
            termination = "state_invalid" if rejected_invalid else "step_failure"
            break

        step = _dp_step(call, t, y, f, h, cfg.rel_tol, cfg.abs_tol)
        if step is None:
            stats["rej"] += 1
            h *= 0.25
            continue
        y_new, f_new, err, r5 = step
        if not np.isfinite(err) or (cfg.validity is not None and not cfg.validity(y_new)):
            stats["rej"] += 1
            rejected_invalid = cfg.validity is not None and not cfg.validity(y_new)
            h *= 0.25
            continue
        if err > 1.0:
            stats["rej"] += 1
            rejected_invalid = False
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            continue

        # accepted
        stats["acc"] += 1
        rejected_invalid = False
        t_new = t + h
        extension = (y, y_new, f, f_new, r5, h)

        hits = []
        for idx, ev in enumerate(cfg.events):
            val = ev.fn(t_new, y_new)
            if _crossed(ev_prev[idx], val, ev.direction):
                hits.append((*_refine_event(ev, t, extension), idx))
            ev_prev[idx] = val

        for t_star, y_star, idx in sorted(hits, key=lambda hit: hit[0]):
            ev = cfg.events[idx]
            events.append(EventHit(ev.name, t_star, y_star))
            if ev.terminal:
                terminal = events[-1]
                termination = f"event:{ev.name}"
                # the last sample is a real step's end; should that step
                # fail, it is the extension restricted to [t, t_star]
                step = _dp_step(call, t, y, f, t_star - t, cfg.rel_tol, cfg.abs_tol)
                if step is None:
                    sigma = (t_star - t) / h
                    y_new, f_new, r5 = y_star, _slope(*extension, sigma) / h, sigma**4 * r5
                else:
                    y_new, f_new, _, r5 = step
                t_new = t_star
                break

        ts.append(t_new)
        ys.append(y_new)
        dys.append(f_new.copy())
        dense.append(r5)
        if terminal is not None:
            break
        t, y, f = t_new, y_new, f_new

        factor = _SAFETY * (err ** -_ALPHA) * (err_prev**_BETA) if err > 0 else _MAX_FACTOR
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h = min(h, cfg.max_step)
        err_prev = max(err, 1e-4)

    return IntegrationResult(
        ts=np.asarray(ts),
        ys=np.asarray(ys),
        dys=np.asarray(dys),
        dense=np.asarray(dense).reshape(len(dense), y.size),
        termination=termination,
        events=events,
        terminal_event=terminal,
        n_accepted=stats["acc"],
        n_rejected=stats["rej"],
        n_rhs=stats["rhs"],
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
        if _crossed(g_lo, g_mid, ev.direction):
            t_hi = mid
        else:
            t_lo, g_lo = mid, g_mid
    return t_hi, _interpolate(*extension, (t_hi - t0) / h)
