"""The per-run column table against the per-state path it replaced.

Each oracle below is the loop the package ran before its closed forms took
batches of samples: one SolitonState at a time, with the scalar bodies of
the former per-state locus classification, ``kahler_residual`` and
``rescaled_locus_residuals`` copied as they were.  Integrated columns and the derived columns that
involve no power must match them bit for bit; the others may differ by the
rounding of a batched power or dot product, bounded by 1e-12 (1 + |value|).
"""

import json

import numpy as np
import pytest

from solitonlab import monitors as M
from solitonlab import rescaled as R
from solitonlab.runio import _write_csv as write_csv
from solitonlab.runio import run_solve, write_rescaled_csv, write_trajectory_csv
from solitonlab.systems import (
    DancerWangAnsatz,
    TwoSummandsAnsatz,
    conservation_residual,
    conservation_residual_curvature,
    make_vector_rhs,
    tr_L,
    u_dotdot_stable,
)
from solitonlab.systems import _second_rates_stable

from conftest import CONFIG_NAMES_GRID, load_shipped, solve_both_charts

SHIPPED = CONFIG_NAMES_GRID + [
    "ts_complete_steady.json",
    "ts_exit_einstein.json",
    "dw_complete_steady.json",
    "lpp_complete_steady.json",
    "dw_kahler.json",
    "ts_probe_d1.json",
]
BOUND = 1e-12
EXACT_PREFIXES = ("omega", "domega", "kahler_res")


def locus_membership_oracle(state, spec, tol=1e-7):
    H = -state.du + tr_L(state, spec.ansatz)
    if H <= 0:
        return np.nan, np.nan, "not_classifiable"
    q1 = 1.0 + state.du / H
    r4 = conservation_residual_curvature(state, spec)
    q2 = 1.0 + (r4 + spec.C + spec.epsilon * state.u) / (H * H)
    if abs(q1 - 1.0) <= tol and abs(q2 - 1.0) <= tol:
        cls = "einstein"
    elif q1 < 1.0 and q2 < 1.0:
        cls = "strict"
    else:
        cls = "outside"
    return float(q1), float(q2), cls


def kahler_residual_oracle(state, a):
    ff = state.f[0]
    g = state.f[1:]
    dg = state.df[1:]
    return 2.0 * g * dg + np.asarray(a.q, dtype=float) * ff


def udd_oracle(traj):
    return np.array([u_dotdot_stable(s, traj.spec.ansatz, traj.spec.epsilon) for s in traj.states])


def trajectory_rows_oracle(traj):
    spec = traj.spec
    a = spec.ansatz
    states = traj.states
    udd = udd_oracle(traj)
    for i, st in enumerate(states):
        row = [st.t]
        row += list(st.f)
        row += list(st.df)
        row += [st.u, st.du, udd[i]]
        row += [
            conservation_residual(st, udd[i], spec),
            conservation_residual_curvature(st, spec),
        ]
        q1, q2, _ = locus_membership_oracle(st, spec)
        row += [q1, q2]
        if isinstance(a, TwoSummandsAnsatz):
            omega = st.f[0] / st.f[1]
            row += [omega, omega * (st.df[0] / st.f[0] - st.df[1] / st.f[1])]
        elif isinstance(a, DancerWangAnsatz):
            row += list(st.f[0] / st.f[1:])
            row += list(kahler_residual_oracle(st, a))
        else:
            row += [st.f[0] / st.f[1]]
        yield row


def rescaled_locus_residuals_oracle(r, a, eps):
    d = np.asarray(a.dims, dtype=float)
    p = np.asarray(a.p, dtype=float)
    q = np.asarray(a.q, dtype=float)
    n = float(np.sum(d))
    fourth = np.zeros_like(r.Y[1:])
    nz = r.Y[1:] != 0.0
    fourth[nz] = r.Y[1:][nz] ** 4 / r.Y[0] ** 2
    lin = float(np.dot(d, r.X)) - 1.0
    quad = (
        float(np.dot(d, r.X * r.X))
        + float(np.sum(d[1:] * p * r.Y[1:] ** 2))
        - float(np.sum(d[1:] * q**2 / 4.0 * fourth))
        + (n - 1.0) * eps / 2.0 * r.Lc**2
        - 1.0
    )
    k_sq = r.X[1:] ** 2 - q**2 / 4.0 * fourth
    k_sl = r.X[1:] * (r.X[0] + 1.0) - p * r.Y[1:] ** 2 - eps / 2.0 * r.Lc**2
    return [lin, quad, *k_sq, *k_sl]


def rescaled_states(rt):
    """The compact-chart samples as separate states, one at a time."""
    r = rt.samples
    for j in range(len(r.s)):
        yield R.RescaledState(r.X[:, j], r.Y[:, j], r.Lc[j], r.s[j], r.t[j], r.u[j])


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def assert_columns_match(names, got, ref, exact):
    assert got.shape == ref.shape
    for j, name in enumerate(names):
        if exact(name):
            assert np.array_equal(got[:, j], ref[:, j], equal_nan=True), name
        else:
            dev = np.abs(got[:, j] - ref[:, j]) / (1.0 + np.abs(ref[:, j]))
            assert np.max(dev) <= BOUND, (name, float(np.max(dev)))


@pytest.mark.parametrize("name", SHIPPED)
def test_trajectory_csv_matches_per_state_rows(name, shipped_runs, tmp_path):
    traj = shipped_runs[name]
    write_trajectory_csv(str(tmp_path / "trajectory.csv"), traj)
    names, got = read_csv(tmp_path / "trajectory.csv")
    ref = np.array(list(trajectory_rows_oracle(traj)))
    n_state = 2 * len(traj.spec.ansatz.dims) + 3  # t, f, df, u, du
    assert_columns_match(
        names, got, ref, lambda c: names.index(c) < n_state or c.startswith(EXACT_PREFIXES)
    )


@pytest.mark.parametrize("name", SHIPPED)
def test_monitors_match_per_state_loops(name, shipped_runs):
    traj = shipped_runs[name]
    spec = traj.spec
    udd = udd_oracle(traj)
    r3 = np.array([conservation_residual(s, u, spec) for s, u in zip(traj.states, udd)])
    r4 = np.array([conservation_residual_curvature(s, spec) for s in traj.states])
    cons = M.conservation_report(traj)
    for got, ref in (
        (cons.max_abs_residual, np.max(np.abs(r3))),
        (cons.max_abs_residual_curvature, np.max(np.abs(r4))),
        (cons.max_variant_disagreement, np.max(np.abs(r3 - r4))),
    ):
        assert abs(got - ref) <= BOUND * (1.0 + abs(ref))
    assert cons.ok == bool(np.max(np.abs(r3)) <= cons.tolerance)

    rows = [locus_membership_oracle(s, spec) for s in traj.states]
    locus = M.locus_report(traj)
    classes = [c for _, _, c in rows]
    assert locus.class_counts == {c: classes.count(c) for c in locus.class_counts}
    assert sum(locus.class_counts.values()) == len(rows)
    eins = max(max(abs(q1 - 1.0), abs(q2 - 1.0)) for q1, q2, _ in rows)
    assert abs(locus.max_einstein_residual - eins) <= BOUND * (1.0 + eins)

    if isinstance(spec.ansatz, DancerWangAnsatz):
        res = np.array([kahler_residual_oracle(s, spec.ansatz) for s in traj.states])
        assert M.kahler_report(traj).per_factor_max == list(np.max(np.abs(res), axis=0))


@pytest.mark.parametrize("name", SHIPPED)
def test_float_rhs_is_the_column_closed_form(name, shipped_runs):
    # at every sample, the integrator's right-hand side on floats gives the
    # rates fddot_i / f_i, fddot_i and uddot of the column table bit for bit
    traj = shipped_runs[name]
    a, eps = traj.spec.ansatz, traj.spec.epsilon
    k, s = len(a.dims), traj.samples
    rates = np.array(_second_rates_stable(s.f, s.df, s.du, a, a.dims, eps))
    fn = make_vector_rhs(a, eps)
    ys = traj.result.ys.tolist()
    out = np.array([fn(t, y) for t, y in zip(traj.ts.tolist(), ys)])
    w = np.array([_second_rates_stable(y[:k], y[k : 2 * k], y[2 * k + 1], a, a.dims, eps) for y in ys])
    assert w.tobytes() == rates.T.tobytes()
    assert out[:, k : 2 * k].tobytes() == (s.f * rates).T.tobytes()
    assert out[:, 2 * k + 1].tobytes() == traj.udd.tobytes()


def test_rescaled_csv_matches_per_state_rows(tmp_path):
    spec = load_shipped("dw_m2_chart.json").spec
    _, rt = solve_both_charts(spec, t_max=10.0)
    write_rescaled_csv(str(tmp_path / "rescaled.csv"), rt)
    names, got = read_csv(tmp_path / "rescaled.csv")
    ref = np.array(
        [
            [r.s, r.t, r.u, r.Lc, *r.X, *r.Y]
            + rescaled_locus_residuals_oracle(r, spec.ansatz, spec.epsilon)
            for r in rescaled_states(rt)
        ]
    )
    n_state = 4 + 2 * (spec.ansatz.m + 1)  # s, t, u, Lc, X, Y
    assert_columns_match(names, got, ref, lambda c: names.index(c) < n_state)


def test_batch_locus_membership_is_the_per_state_one(shipped_runs):
    traj = shipped_runs["ts_e0_c1.json"]
    q1, q2 = traj.columns["locus_mean_ratio"], traj.columns["locus_curvature_ratio"]
    classes = M._locus_classes(q1, q2)
    for i in (0, len(traj.ts) // 2, len(traj.ts) - 1):
        one_q1, one_q2, one_class = locus_membership_oracle(traj.states[i], traj.spec)
        assert one_class == classes[i]
        assert one_q1 == pytest.approx(q1[i], rel=1e-14)
        assert one_q2 == pytest.approx(q2[i], rel=1e-14)


def test_run_solve_makes_one_conservation_report(tmp_path, monkeypatch):
    calls = []
    original = M.conservation_report

    def counting(traj, *args, **kwargs):
        calls.append(traj)
        return original(traj, *args, **kwargs)

    monkeypatch.setattr(M, "conservation_report", counting)
    manifest = run_solve(load_shipped("dw_e0_c1.json"), str(tmp_path / "o"))
    assert manifest["verdict"] == "numerically_complete"
    assert len(calls) == 1


def test_csv_text_is_the_per_row_format_writer(tmp_path):
    # 600 rows cross two chunk boundaries; the values include every class
    # of float the format spells differently
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e17, -1e-300, 0.1, 123456789.0]
    t = np.arange(600.0)
    cols = {"t": t, "x": rng.standard_normal(600) * 10.0 ** rng.integers(-300, 300, 600)}
    cols["s"] = np.resize(special, 600)
    cols["w"] = np.stack([cols["x"][::-1], 1.0 / (t + 1.0)])  # an (m, N) value: w1, w2
    write_csv(str(tmp_path / "a.csv"), cols)
    table = np.column_stack([t, cols["x"], cols["s"], *cols["w"]])
    want = ["t,x,s,w1,w2"] + [",".join("{:.17g}".format(v) for v in row) for row in table.tolist()]
    assert (tmp_path / "a.csv").read_text() == "\n".join(want) + "\n"


def test_each_invariant_monitor_runs_at_most_once_per_solve(tmp_path, monkeypatch, shipped_runs):
    monitors = ("two_summands_omega_monitor", "dw_apriori_monitor", "lpp_bound_monitor")
    calls = []
    for name in (*monitors, "two_summands_roots", "conservation_report"):
        original = getattr(M, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(M, name, counting)
    for name in ("ts_e0_c1.json", "dw_e0_c1.json", "lpp_e0_c1.json"):
        M.classify_completeness(shipped_runs[name])
        assert calls == []  # the verdict reads the invariant table, not the monitors
        run_solve(load_shipped(name), str(tmp_path / name))
        assert [calls.count(m) for m in monitors] == [int(name.startswith(p)) for p in ("ts", "dw", "lpp")]
        calls.clear()


@pytest.mark.parametrize(
    "name, event, candidate, margin, t",
    [
        ("dw_e0_c0.json", "invariant_exit", "b1 - (f/g1)^2", 1.4460e-4, 10.0),
        ("dw_complete_steady.json", "shape_exit", "df", 8.235e-7, 100.0),
    ],
)
def test_report_gives_each_invariant_its_closest_approach(tmp_path, name, event, candidate, margin, t):
    manifest = run_solve(load_shipped(name), str(tmp_path))
    closest = json.loads((tmp_path / "report.json").read_text())["margins"]
    assert sorted(closest) == ["invariant_exit", "shape_exit"]
    assert closest[event]["candidate"] == candidate
    assert closest[event]["margin"] == pytest.approx(margin, rel=1e-3)
    assert closest[event]["t"] == t
    tightest = min(closest, key=lambda e: closest[e]["margin"])
    binding = {"name": tightest, "margin": closest[tightest]["margin"], "t": closest[tightest]["t"]}
    assert manifest["key_diagnostics"]["binding_invariant"] == binding
    assert "margin" not in (tmp_path / "trajectory.csv").read_text().splitlines()[0]
