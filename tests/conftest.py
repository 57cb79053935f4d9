import json
import math
import os
from importlib.resources import files

import numpy as np
import pytest

from solitonlab.codegen import Tape, compile_function, extremum
from solitonlab.geometry import scalar_curvature
from solitonlab.launch import rescaled_default_delta
from solitonlab.monitors import comparison_ode_closed_form  # the tests import it from here
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
# added since come last (the probe's ``lanes``, ``n_unused``, ``C0_estimate``,
# ``start`` and ``estimate_holds``).

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
        "monotone n_solves n_accepted n_rejected n_rhs lanes n_unused C0_estimate start "
        "estimate_holds",
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

# what `solitonlab solve` gives on every shipped config, each in a fresh
# output directory: the sha256 of each output, the exit code and each
# chart's (accepted, rejected, right-hand-side) counts.  Within one C
# library only: the step-size controller calls libm's pow, and the step
# sequence amplifies a last-bit change.
SHIPPED_OUTPUTS = {
    "dw_complete_steady.json": {
        "exit": 0,
        "trajectory.csv": "71f9ed0e33ffac7535e210a348c2a8d39881a35407ff96b913cda0c7d006c4c8",
        "report.json": "de34e3e3a286da04a4d4dc21fe46d10972a6f118b8986293a7c42ccb4b4f5d88",
        "physical": (3415, 2, 20504),
    },
    "dw_e0_c0.json": {
        "exit": 0,
        "trajectory.csv": "ea7378a513127d2ce1eaa0905f6af3382a7b07134f5eb5596560d418936e2cf3",
        "report.json": "50f31a01248f00e3c21aa705b98cd8512ecbaff0a66239eff84b31fe0cdfb83d",
        "physical": (426, 3, 2576),
    },
    "dw_e0_c1.json": {
        "exit": 0,
        "trajectory.csv": "2a7642195f886d7457d1d851a2da559c683bdcd83cb6c4022d311b77e0c253b7",
        "report.json": "c11b9df2ca4e4bb3f69b040e793ba8f340216481fdfdbe22345b68db1659ad28",
        "physical": (498, 3, 3008),
    },
    "dw_e1_c1.json": {
        "exit": 0,
        "trajectory.csv": "fb26589bf2d504a60a3c50197288a6521da560bd37b3eb8da2349adb5f5e3e3d",
        "report.json": "f57e1d583dc1de455b67e7220da6523e7cfa2cbea7320fd4363cab7c833064d1",
        "physical": (544, 2, 3278),
    },
    "dw_e1_c10.json": {
        "exit": 0,
        "trajectory.csv": "c65c1729855d011b4ce1bd77bcc26792f220e75d4a3fa46af341fd2577619f04",
        "report.json": "15a44689edea791e4ee04e4c6811b1b756f9826c0055817ee05a06b988a28dde",
        "physical": (712, 2, 4286),
    },
    "dw_kahler.json": {
        "exit": 0,
        "trajectory.csv": "85d7759480e9026765ec2034c3fa9a0170d68c90c3820c6bd9a06a451337df60",
        "rescaled.csv": "3365a0c4c447b12d0e37bd664e7722bd1863f4fcdd0c9023fa780b220d15746d",
        "report.json": "4170519313e6d40758975586a39138a4c3b545dd3f1e9ef2b531446335dba2cd",
        "physical": (554, 2, 3338),
        "compact": (752, 0, 4520),
    },
    "dw_m2_chart.json": {
        "exit": 0,
        "trajectory.csv": "ad24f00006dfdab10da55b2e79bbd24bf0b576b7dd3225f80f3f88d920836ada",
        "rescaled.csv": "8106d90cd859e11d83c808330cf94f773cc353085be9ec53d806170576fb316e",
        "report.json": "6331658e3447e862528f76c39b39c8f4ff146a0415d9c56e6134dd62f6cf1f1c",
        "physical": (923, 0, 5540),
        "compact": (1053, 0, 6326),
    },
    "lpp_complete_steady.json": {
        "exit": 0,
        "trajectory.csv": "97aea0a7ab101d1698e8a1f645e84d75ce64287652d78c0fd40219a88118b1aa",
        "report.json": "22c975f25c5e6b4b9ceeac532a80bf46d30195d737cbcd7b95b1cbd320b1d2df",
        "physical": (2269, 2, 13628),
    },
    "lpp_e0_c0.json": {
        "exit": 0,
        "trajectory.csv": "beb431cf999f9a725d166e667d8b76c77c646dcf8ffa615b16dfb51bb8edf616",
        "report.json": "6b03e587fad90a7adea580193b46fb4346352df6b5e75fe5af2596b727ef8312",
        "physical": (683, 2, 4112),
    },
    "lpp_e0_c1.json": {
        "exit": 0,
        "trajectory.csv": "02df9bef26a4ffa6cdd1f5e9f5bcb40066d810b4cbfea29022d7d1dffec5ddd0",
        "report.json": "c3eec68c7dedcd3ac4fe1309132a3446cee2d8df00abf3fb8dc560aa84647af8",
        "physical": (559, 2, 3368),
    },
    "lpp_e1_c1.json": {
        "exit": 0,
        "trajectory.csv": "aa943d987541928563fae7048f31304f2c31d4824f885864f599ccbf5c0107b6",
        "report.json": "2ddc459f3528d7210f0b42b559bee9746ebceda6aa989bdb88c7f7561fdfc9d4",
        "physical": (663, 2, 3992),
    },
    "lpp_e1_c10.json": {
        "exit": 0,
        "trajectory.csv": "6130636055f783b809c540cba9e4881a009ac3c273b547ceeafb6c90b8436930",
        "report.json": "92d9e1a13131747942dea3f3bf81080969cabb75382f938568b268ea55ebad6a",
        "physical": (747, 2, 4496),
    },
    "ts_complete_steady.json": {
        "exit": 0,
        "trajectory.csv": "1908edd5f9e402b0a01242bc9c0ccca3ce1b2b5285518f4b0752fe60e619c460",
        "report.json": "2c98c0835a7fd90c13724f0965b0e3831ff9b4773429e822d33e43166d7c756b",
        "physical": (2772, 2, 16646),
    },
    "ts_e0_c0.json": {
        "exit": 0,
        "trajectory.csv": "90f11dc5d243853b7cb0e0cc3403b6069564d30dd96e738be4e0a4c1f4845c90",
        "report.json": "0178ca77f50867b717aac3ed3b143145cf0d92debcf2a5343eaf823523e84e91",
        "physical": (1306, 2, 7850),
    },
    "ts_e0_c1.json": {
        "exit": 0,
        "trajectory.csv": "d6bca934a27a5c6d48f66660426e47e8b38ba7e0d433af67da97375dbcec473e",
        "report.json": "4afa479f900ca446952b04cf1580b2326f8bba7ee95fd80d8ff31d47c5a05846",
        "physical": (1175, 2, 7064),
    },
    "ts_e1_c1.json": {
        "exit": 0,
        "trajectory.csv": "04dfd205915344eca8802be393bf0c995efd84a6ad63c0070b8610c2dc751dcb",
        "report.json": "e55c3cd9a86f761ff66dec45ee4efebb4cd6a91cd4abad8f635806b00804c5a1",
        "physical": (1331, 2, 8000),
    },
    "ts_e1_c10.json": {
        "exit": 0,
        "trajectory.csv": "6013129ad3d3849871b73ca9710542f8cf3b1647940e19792fb9a864a840faeb",
        "report.json": "35aa078e753434d2f2ea415dcff30b7a0a54f53805f1a71f9790650435928f2e",
        "physical": (1219, 2, 7328),
    },
    "ts_exit_einstein.json": {
        "exit": 0,
        "trajectory.csv": "f48ca680ac80ae7fb718cae4c137793169ac0bacdfe3751bdc2984f5d0a7f3b0",
        "report.json": "e5b45d3b152fdfdfddb059cbf008074ceb2bc4b4f0d6243abdc80f6fad40e534",
        "physical": (607, 2, 3662),
    },
    "ts_probe_d1.json": {
        "exit": 0,
        "trajectory.csv": "f8791803e7d0c48e1a3f2c3a1eed476c944fdcc0136681cb91fd6f48eb478ea6",
        "report.json": "c99d14a50c8e85f3b4d594bea9f574455c5cd4c7f8453a88bdbb35851b107437",
        "physical": (516, 1, 3104),
    },
}

# sha256 of report.json as the dataclass reports wrote it (within one C
# library, like SHIPPED_OUTPUTS); the two-summands digest since
# zero_constant_windows' checks entry has its anchor
REPORT_DIGESTS = {
    name: SHIPPED_OUTPUTS[name]["report.json"]
    for name in ("ts_e1_c1.json", "dw_m2_chart.json", "lpp_complete_steady.json")
}
