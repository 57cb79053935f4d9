"""Adaptive embedded Runge-Kutta integration with event detection.

A hand-rolled Dormand-Prince 5(4) pair: fifth-order propagation, embedded
fourth-order error estimate, PI step-size control, first-same-as-last
stage reuse.  Dense output is cubic Hermite between accepted steps and is
used only for event refinement and sampling, never for accuracy claims.
Everything is double precision and deterministic: identical inputs walk
an identical step sequence.
"""

from __future__ import annotations

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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ALPHA = 0.7 / 5.0  # PI controller exponents
_BETA = 0.4 / 5.0


@dataclass(frozen=True)
class EventSpec:
    """Named scalar event g(t, y); a sign crossing in the given direction
    (-1 falling, +1 rising, 0 both) is refined by bisection on the dense
    output and, if terminal, stops the integration."""

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
    """Accepted samples (plus event-refined points), termination verdict
    and step statistics.  ``dys`` holds the derivative at each sample so
    cubic Hermite interpolation needs no further evaluations."""

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    termination: str
    events: list[EventHit] = field(default_factory=list)
    terminal_event: EventHit | None = None
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def y_end(self) -> np.ndarray:
        return self.ys[-1]

    def sample_at(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation at time t within the covered span."""
        ts = self.ts
        if t < ts[0] - 1e-12 * (1 + abs(t)) or t > ts[-1] + 1e-12 * (1 + abs(t)):
            raise ValueError(f"t={t} outside the integrated span [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t, side="right") - 1)
        i = min(max(i, 0), len(ts) - 2)
        return _hermite(ts[i], self.ys[i], self.dys[i], ts[i + 1], self.ys[i + 1], self.dys[i + 1], t)


def _hermite(t0, y0, f0, t1, y1, f1, t):
    h = t1 - t0
    if h == 0.0:
        return y0.copy()
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


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

    Returns (y_new, f_new, err) -- the fifth-order solution, its slope
    (FSAL) and the scaled error norm -- or None when a stage raises or is
    not finite.  The stages live in a fresh array per attempt: the returned
    slope becomes the next attempt's first stage, and a shared buffer would
    let a rejected attempt overwrite it.
    """
    K = np.empty((7, y.size))
    K[0] = f
    for i in range(1, 7):
        yi = y + h * (K[:i].T @ _A[i])
        try:
            K[i] = call(t + _C[i] * h, yi)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            return None
        if not np.all(np.isfinite(K[i])):
            return None
    # the stage 7 node equals the 5th-order solution
    return yi, K[6], _error_norm(h * (K.T @ _E), y, yi, rtol, atol)


def _crossed(prev, curr, direction):
    if prev is None or not np.isfinite(prev) or not np.isfinite(curr):
        return False
    if direction >= 0 and prev < 0.0 <= curr:
        return True
    if direction <= 0 and prev > 0.0 >= curr:
        return True
    return False


def integrate(rhs, t0: float, y0, cfg: IntegratorConfig) -> IntegrationResult:
    """Advance dy/dt = rhs(t, y) from (t0, y0) until t_max, a terminal
    event, step failure or an invalid state.

    Event times are refined by bisection on the dense output to an absolute
    tolerance of 1e-12 (1 + t).  Statistics count accepted steps, rejected
    attempts and right-hand-side evaluations.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    stats = {"acc": 0, "rej": 0, "rhs": 0}

    def call(tt, yy):
        stats["rhs"] += 1
        return np.asarray(rhs(tt, yy), dtype=float)

    f = call(t, y)
    ts, ys, dys = [t], [y.copy()], [f.copy()]
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
        y_new, f_new, err = step
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

        hit = None
        for idx, ev in enumerate(cfg.events):
            val = ev.fn(t_new, y_new)
            if _crossed(ev_prev[idx], val, ev.direction):
                t_star, y_star = _refine_event(call, ev, t, y, t_new, cfg)
                if hit is None or t_star < hit[0]:
                    hit = (t_star, y_star, ev)
            ev_prev[idx] = val

        if hit is not None:
            t_star, y_star, ev = hit
            record = EventHit(ev.name, t_star, y_star)
            events.append(record)
            if ev.terminal:
                ts.append(t_star)
                ys.append(y_star)
                try:
                    dys.append(call(t_star, y_star))
                except (ValueError, FloatingPointError, ZeroDivisionError):
                    dys.append(dys[-1].copy())
                terminal = record
                termination = f"event:{ev.name}"
                break
            ts.append(t_star)
            ys.append(y_star)
            dys.append(call(t_star, y_star))

        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y.copy())
        dys.append(f.copy())

        factor = _SAFETY * (err ** -_ALPHA) * (err_prev**_BETA) if err > 0 else _MAX_FACTOR
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h = min(h, cfg.max_step)
        err_prev = max(err, 1e-4)

    return IntegrationResult(
        ts=np.asarray(ts),
        ys=np.asarray(ys),
        dys=np.asarray(dys),
        termination=termination,
        events=events,
        terminal_event=terminal,
        n_accepted=stats["acc"],
        n_rejected=stats["rej"],
        n_rhs=stats["rhs"],
    )


def _advance(call, t0, y0, t1, rtol, atol):
    """Mini adaptive advance from (t0, y0) to t1, no events, no samples."""
    t, y = t0, y0.copy()
    f = call(t, y)
    h = t1 - t0
    while t < t1:
        h = min(h, t1 - t)
        if h < 4.0 * np.finfo(float).eps * max(abs(t), 1.0):
            break
        step = _dp_step(call, t, y, f, h, rtol, atol)
        if step is None:
            h *= 0.25
            continue
        y_new, f_new, err = step
        if not np.isfinite(err) or err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * max(err, 1e-10) ** (-0.2))
            continue
        t, y, f = t + h, y_new, f_new
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * max(err, 1e-16) ** (-0.2)))
    return y


def _refine_event(call, ev: EventSpec, t0, y0, t1, cfg: IntegratorConfig):
    """Bisect the event crossing inside one accepted step.

    Candidate states are produced by re-integrating the bracket rather than
    interpolating it: the cubic Hermite interpolant of a wide step can
    misplace a crossing by far more than the 1e-12 (1 + t) target.  The
    left endpoint advances as the bracket shrinks, so the total work is
    about one extra step's worth.
    """
    rtol = max(cfg.rel_tol * 1e-2, 1e-14)
    atol = max(cfg.abs_tol * 1e-2, 1e-15)
    g_lo = ev.fn(t0, y0)
    t_lo, y_lo = t0, y0
    t_hi = t1
    y_star = None
    for _ in range(200):
        if t_hi - t_lo <= 1e-12 * (1.0 + abs(t_hi)):
            break
        mid = 0.5 * (t_lo + t_hi)
        y_mid = _advance(call, t_lo, y_lo, mid, rtol, atol)
        g_mid = ev.fn(mid, y_mid)
        if _crossed(g_lo, g_mid, ev.direction):
            t_hi, y_star = mid, y_mid
        else:
            t_lo, y_lo, g_lo = mid, y_mid, g_mid
    if y_star is None:
        y_star = _advance(call, t_lo, y_lo, t_hi, rtol, atol)
    return t_hi, y_star
