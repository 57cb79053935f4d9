import json
from importlib.resources import files

import pytest

from solitonlab.rescaled import rescaled_default_delta, solve_rescaled
from solitonlab.runio import load_config
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
