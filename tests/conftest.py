import json
import math
import os
from importlib.resources import files

import numpy as np
import pytest

from solitonlab.codegen import Tape, compile_function, extremum
from solitonlab.geometry import scalar_curvature
from solitonlab.launch import rescaled_default_delta
from solitonlab.rescaled import solve_rescaled
from solitonlab.runio import load_config
from solitonlab.systems import DancerWangAnsatz, LuPagePopeAnsatz, TwoSummandsAnsatz, flow_ansatz
from solitonlab.trajectory import (
    dw_omega_sq_bounds,
    dw_pair_bound_constant,
    lpp_ratio_bound,
    solve_problem,
    two_summands_root_squares,
)

from oracles.structure import decomposition

CONFIG_NAMES_GRID = [
    f"{system}_{tag}.json"
    for system in ("ts", "dw", "lpp")
    for tag in ("e0_c0", "e0_c1", "e1_c1", "e1_c10")
]


# every shipped config, the 18 above and dw_m2_chart.json
SHIPPED_CONFIG_NAMES = sorted(
    path.name for path in (files("solitonlab") / "configs").iterdir() if path.name.endswith(".json")
)


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
    dec = decomposition(flow_ansatz(spec.ansatz))
    tr_r = np.apply_along_axis(lambda x: scalar_curvature(dec, x), 0, np.asarray(state.f) ** 2)
    eps = spec.epsilon
    trace_terms = state.du**2 + d @ (z * z) - (d @ z) ** 2 + tr_r
    return spec.C + eps * state.u + trace_terms + (spec.orbit_dim - 1) * eps / 2.0


def forked_children(monkeypatch) -> list:
    """The pids of the children ``os.fork`` starts from now on."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


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


# -- the preserved sets as written before the invariant table ------------------
# Kept as the oracles of ``trajectory.invariants``: its events must give these
# margins bit for bit on the states the validity test admits, and
# ``classify_completeness`` these verdicts.

_BOUND_TOL = 1e-9


def invariant_margin_fn(spec):
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
        return compiled_dw_margin(dw_omega_sq_bounds(a, c0).tolist(), c0)
    raise TypeError(f"unknown ansatz type {type(a)!r}")


def compiled_dw_margin(w_bounds: list, c0: float):
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
    body = "".join(f"    {line}\n" for line in [*lines, "return m_w"])
    namespace = {"isfinite": math.isfinite, **tape.namespace}
    return compile_function("test", f"def test(t, y):\n{body}", "<oracle dw margin>", namespace)


def classify_oracle(traj):
    """(kind, t_star, reasons) of ``classify_completeness`` as it read the
    preserved sets before the invariant table: the two-summands window
    against omega2 (strict), and the comparisons the dw a priori monitor
    (non-strict, with slack) and the lpp bound monitor (strict, with slack)
    made for their ``ok`` fields."""
    spec, term = traj.spec, traj.termination
    if term == "state_invalid":
        return "metric_degenerate", float(traj.ts[-1]), [term]
    if term in ("event:shape_exit", "event:invariant_exit"):
        return "invariant_set_exit", float(traj.ts[-1]), [term]
    if term != "reached_t_max":
        return "inconclusive", float(traj.ts[-1]), [term]
    reasons = []
    tol = 1e-8 * (1.0 + abs(spec.C))
    worst = float(np.max(np.abs(traj.columns["conservation_residual"])))
    if not worst <= tol:
        reasons.append(f"conservation residual {worst:.3e} above {tol:.3e}")
    if not np.all(traj.df > 0.0):
        reasons.append("shape operator lost positivity at some sample")
    a = spec.ansatz
    if isinstance(a, TwoSummandsAnsatz):
        D, _, w2_sq = two_summands_root_squares(a)
        if D < 0:
            reasons.append("no preserved window exists (negative discriminant)")
        elif not bool(np.max(traj.f[:, 0] / traj.f[:, 1]) < float(np.sqrt(w2_sq))):
            reasons.append("fibre/base ratio reached its root")
    elif isinstance(a, DancerWangAnsatz):
        c0 = dw_pair_bound_constant(a, spec.initial)
        g = traj.f[:, 1:]
        omega_sq = (traj.f[:, :1] / g) ** 2
        ok = np.all(omega_sq <= dw_omega_sq_bounds(a, c0)[None, :] + _BOUND_TOL)
        if a.m > 1:
            ok &= np.all(g[:, :, None] / g[:, None, :] <= c0 + _BOUND_TOL)
        if not ok:
            reasons.append("a priori bound violated at some sample")
    elif isinstance(a, LuPagePopeAnsatz):
        omega1_sq = (traj.f[:, 0] / traj.f[:, 1]) ** 2
        if not float(np.max(omega1_sq)) < lpp_ratio_bound(a) + _BOUND_TOL:
            reasons.append("ratio bound violated at some sample")
    if reasons:
        return "inconclusive", None, reasons
    return "numerically_complete", None, []


# -- the report records as dataclasses declared them ---------------------------
# The fields of each report type, in order, as its dataclass listed them before
# the reports became ``solitonlab.Report`` records.  ``dataclasses.asdict``
# emitted exactly these keys, defaults included, so report.json,
# probe_report.json and the curvature check's report must keep them.  Fields
# added since come last (the probe's ``lanes`` and ``n_unused``).

REPORT_FIELDS = {
    name: tuple(fields.split())
    for name, fields in {
        "TwoSummandsDiagnostics": "anchor D omega1 omega2 omega1_sq_below_quarter "
        "omega2_sq_below_half quartic_residuals",
        "LocusSeriesReport": "anchor class_counts max_einstein_residual strict_throughout "
        "einstein_throughout",
        "PotentialReport": "anchor trivial_potential violations",
        "AsymptoteReport": "anchor kind terminal_slope terminal_slope_target "
        "terminal_slope_abs_error terminal_udd upper_bound_violations "
        "lower_bound_violations lower_bound_window_start",
        "ConservationReport": "anchor max_abs_residual max_abs_residual_curvature "
        "max_variant_disagreement tolerance ok",
        "OmegaReport": "anchor no_root_regime omega2 max_omega max_domega domega_bound "
        "domega_ok below_root_throughout",
        "DWBoundReport": "anchor c0 omega_sq_bounds bound_ok_throughout first_violation_t "
        "max_qdot qdot_ceiling qdot_ok key_estimate_ok",
        "LppBoundReport": "anchor bound max_omega1_sq ok",
        "KahlerReport": "anchor max_abs_residual per_factor_max on_locus",
        "GrowthProbeReport": "anchor c tau c_star empirical_C0 bracket samples excluded "
        "monotone n_solves n_accepted n_rejected n_rhs lanes n_unused",
        "Verdict": "kind t_star reasons note",
        "ValidationReport": "symmetry_violations negativity_violations wang_ziller_residuals",
        "LocusResiduals": "anchor einstein_linear einstein_quadratic kahler_square "
        "kahler_slope",
        "ChartComparison": "anchor t_lo t_hi n_points max_rel_deviation per_field_max",
        "ZeroConstantWindows": "anchor general circle_fibre",
    }.items()
}

# report.json's blocks and the report type each one holds
REPORT_BLOCKS = {
    "verdict": "Verdict",
    "conservation": "ConservationReport",
    "potential": "PotentialReport",
    "locus": "LocusSeriesReport",
    "asymptote": "AsymptoteReport",
    "roots": "TwoSummandsDiagnostics",
    "ratio_window": "OmegaReport",
    "a_priori_bounds": "DWBoundReport",
    "ratio_bound": "LppBoundReport",
    "kahler": "KahlerReport",
    "chart_comparison": "ChartComparison",
    "zero_constant_windows": "ZeroConstantWindows",
}

# sha256 of report.json as the dataclass reports wrote it (within one C
# library, like the CSVs: the step-size controller calls libm's pow); the
# two-summands digest since zero_constant_windows' checks entry has its anchor
REPORT_DIGESTS = {
    "ts_e1_c1.json": "e55c3cd9a86f761ff66dec45ee4efebb4cd6a91cd4abad8f635806b00804c5a1",
    "dw_m2_chart.json": "6331658e3447e862528f76c39b39c8f4ff146a0415d9c56e6134dd62f6cf1f1c",
    "lpp_complete_steady.json": "22c975f25c5e6b4b9ceeac532a80bf46d30195d737cbcd7b95b1cbd320b1d2df",
}
