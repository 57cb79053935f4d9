import json
from importlib.resources import files

import numpy as np
import pytest

from solitonlab.geometry import scalar_curvature
from solitonlab.rescaled import rescaled_default_delta, solve_rescaled
from solitonlab.runio import load_config
from solitonlab.systems import flow_ansatz
from solitonlab.trajectory import solve_problem

CONFIG_NAMES_GRID = [
    f"{system}_{tag}.json"
    for system in ("ts", "dw", "lpp")
    for tag in ("e0_c0", "e0_c1", "e1_c1", "e1_c10")
]


def config_path(name: str):
    return files("solitonlab") / "configs" / name


def decomposition_path(name: str):
    return files("solitonlab") / "decompositions" / name


def load_shipped(name: str):
    with config_path(name).open("r") as fh:
        return load_config(json.load(fh))


def solve_both_charts(spec, t_max):
    """The physical and the compact-chart run of spec from one launch slice."""
    delta = rescaled_default_delta(spec)
    return solve_problem(spec, t_max=t_max, delta=delta), solve_rescaled(spec, t_max=t_max, delta=delta)


def comparison_ode_closed_form(a: float, y_star: float, s_star: float, s):
    """Solution of y' = -a + y^2/2, y(s_star) = y_star:
    sqrt(2a) tanh(sqrt(a/2)(s_star - s) + arctanh(y_star / sqrt(2a))).
    Requires a > 0 and -a + y_star^2/2 < 0."""
    if a <= 0:
        raise ValueError("comparison coefficient a must be positive")
    if -a + y_star**2 / 2.0 >= 0:
        raise ValueError("initial value outside the contracting branch")
    root = np.sqrt(2.0 * a)
    return root * np.tanh(np.sqrt(a / 2.0) * (s_star - s) + np.arctanh(y_star / root))


def u_second_derivative_identity(state, spec):
    """Twice the potential's second derivative, reconstructed from conserved
    data term by term: C + eps u + udot^2 + tr L^2 - (tr L)^2 + tr r
    + (n-1) eps / 2, with tr r the scalar curvature of the ansatz's
    structure-constant decomposition.  A batch state gives one value per
    sample."""
    d = np.asarray(spec.ansatz.dims, dtype=float)
    z = np.asarray(state.df) / np.asarray(state.f)
    dec = flow_ansatz(spec.ansatz).decomposition()
    tr_r = np.apply_along_axis(lambda x: scalar_curvature(dec, x), 0, np.asarray(state.f) ** 2)
    eps = spec.epsilon
    trace_terms = state.du**2 + d @ (z * z) - (d @ z) ** 2 + tr_r
    return spec.C + eps * state.u + trace_terms + (spec.orbit_dim - 1) * eps / 2.0


@pytest.fixture(scope="session")
def shipped_runs():
    """Solve each shipped config once; shared by monitor and acceptance tests."""
    cache = {}
    names = CONFIG_NAMES_GRID + [
        "ts_complete_steady.json",
        "ts_exit_einstein.json",
        "dw_complete_steady.json",
        "lpp_complete_steady.json",
        "dw_kahler.json",
        "ts_probe_d1.json",
    ]
    for name in names:
        cfg = load_shipped(name)
        cache[name] = solve_problem(
            cfg.spec,
            t_max=cfg.t_max,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            delta=cfg.launch_delta,
        )
    return cache
