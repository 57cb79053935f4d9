import contextlib
import copy
import hashlib
import io
import json
import math
import re
import shutil
import warnings
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab.cli import main
from solitonlab.runio import ConfigError, _fmt, load_config

from conftest import config_path, decomposition_path


def test_shipped_configs_are_distinct():
    # a copied config makes every check that walks them solve one run twice
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (files("solitonlab") / "configs").iterdir()
        if path.name.endswith(".json")
    }
    assert len(digests) > 1
    assert len(set(digests.values())) == len(digests), sorted(digests.items(), key=lambda kv: kv[1])


def shipped(name, tmp_path):
    dst = tmp_path / name
    with config_path(name).open("rb") as src, open(dst, "wb") as out:
        shutil.copyfileobj(src, out)
    return str(dst)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "system": "two_summands",
    "ansatz": {"d1": 1, "d2": 2, "A1": 0.0, "A2": 6.0, "A3": 1.0},
    "epsilon": 0.0,
    "C": -1.0,
    "initial": 1.0,
    "integrator": {"t_max": 5.0},
}


class TestSolve:
    def test_complete_run_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--config", write_json(tmp_path, "c.json", BASE), "--out", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "report.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdict"] == "numerically_complete"
        assert manifest["artifacts"][-1] == "manifest.json"
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        for col in ("t", "f1", "df1", "u", "du", "udd", "conservation_residual", "omega"):
            assert col in header.split(",")

    def test_matched_expectation_exits_zero(self, tmp_path):
        cfg = shipped("ts_exit_einstein.json", tmp_path)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_unmet_expectation_exits_two(self, tmp_path):
        doc = dict(BASE, expect="invariant_set_exit")
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_nonpositive_size_is_config_error(self, tmp_path, capsys):
        doc = dict(BASE, initial=-1.0)
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")])
        assert code == 64
        assert "initial" in capsys.readouterr().err

    def test_unknown_system_is_config_error(self, tmp_path, capsys):
        doc = dict(BASE, system="warped")
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")])
        assert code == 64
        assert "system" in capsys.readouterr().err

    # the report holds every check of the run's family, so a config that
    # still names monitors is refused like any field the loader does not read
    @pytest.mark.parametrize("monitors", [5, "conservation", ["conservation", "nope"], ["conservation"]])
    def test_monitors_must_be_a_list_of_names(self, tmp_path, capsys, monitors):
        doc = dict(BASE, monitors=monitors)
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")])
        assert code == 64
        assert "'monitors'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, field", [(None, "epsilom"), ("ansatz", "d3"), ("integrator", "tmax")]
    )
    def test_unknown_field_is_config_error(self, tmp_path, capsys, where, field):
        doc = copy.deepcopy(BASE)
        (doc if where is None else doc[where])[field] = 100
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")])
        assert code == 64
        name = field if where is None else f"{where}.{field}"
        assert f"unknown field '{name}'" in capsys.readouterr().err

    def test_chart_is_physical_or_both(self, tmp_path, capsys):
        doc = json.loads(config_path("dw_m2_chart.json").read_text())
        doc["chart"] = "rescaled"
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")])
        assert code == 64
        assert "'chart' must be physical or both" in capsys.readouterr().err

    def test_rescaled_chart_rejected_off_circle_bundle(self, tmp_path, capsys):
        doc = dict(BASE, chart="both")
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")])
        assert code == 64
        assert "chart" in capsys.readouterr().err

    def test_inconclusive_run_prints_its_reason(self, tmp_path, capsys):
        doc = dict(BASE, integrator={"t_max": 5.0, "max_steps": 10})
        out = tmp_path / "o"
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdict"] == "inconclusive"
        assert manifest["reasons"] == ["step_failure"]
        assert "note: inconclusive (step_failure)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rel_tol", "tight"),
            ("rel_tol", -1),
            ("abs_tol", 0),
            ("abs_tol", True),
            ("max_step", 0),
            ("max_steps", 0),
            ("max_steps", 1.5),
            ("max_steps", True),
        ],
    )
    def test_invalid_integrator_field_is_config_error(self, tmp_path, capsys, field, value):
        doc = dict(BASE, integrator={"t_max": 5.0, field: value})
        cfg = write_json(tmp_path, "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
        assert f"integrator.{field}" in capsys.readouterr().err
        code = main(["sweep", "--config", cfg, "--grid", "C=-1:-1:2", "--out", str(tmp_path / "sw")])
        assert code == 64
        assert f"integrator.{field}" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("C", math.nan),
            ("C", -math.inf),
            ("epsilon", math.nan),
            pytest.param("epsilon", 10**400, id="epsilon-int-beyond-float"),
            ("initial", math.nan),
            ("initial", [math.inf]),
            ("ansatz.A1", math.nan),
            ("ansatz.A3", math.inf),
            ("integrator.t_max", math.inf),
            ("integrator.rel_tol", math.inf),
            ("integrator.abs_tol", math.nan),
            ("integrator.max_step", math.nan),
            ("launch_delta", math.nan),
            ("launch_delta", math.inf),
            ("launch_delta", True),
        ],
    )
    def test_non_finite_or_bool_number_is_config_error(self, tmp_path, capsys, field, value):
        doc = copy.deepcopy(BASE)
        *outer, name = field.split(".")
        target = doc[outer[0]] if outer else doc
        target[name] = value
        cfg = write_json(tmp_path, "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, entries, where",
        [
            ("d", [2.9], "ansatz.d[0]"),
            ("p", [True], "ansatz.p[0]"),
            ("q", ["-2"], "ansatz.q[0]"),
            ("d", [2, 2.0], "ansatz.d[1]"),
            ("q", -2, "ansatz.q"),
            ("d", [2], None),
        ],
    )
    def test_dancer_wang_entries_must_be_integers(self, tmp_path, capsys, field, entries, where):
        # int() would truncate 2.9 to 2 and read true as 1: a typo would run another ansatz
        doc = json.loads(config_path("dw_e0_c1.json").read_text())
        doc["ansatz"][field] = entries
        doc["integrator"]["t_max"] = 0.5
        cfg = write_json(tmp_path, "c.json", doc)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        if where is None:
            assert code == 0
            assert load_config(doc).spec.ansatz.d == (2,)
            return
        assert code == 64
        assert f"'{where}'" in capsys.readouterr().err

    def test_unbounded_max_step_and_integer_launch_delta_are_accepted(self, tmp_path):
        doc = dict(BASE, integrator={"t_max": 5.0, "max_step": math.inf})
        assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")]) == 0
        cfg = load_config(dict(doc, launch_delta=1))
        assert (cfg.max_step, type(cfg.launch_delta), cfg.launch_delta) == (math.inf, float, 1.0)

    def test_manifest_times_each_step(self, tmp_path):
        doc = json.loads(config_path("dw_kahler.json").read_text())
        doc["integrator"] = dict(doc["integrator"], t_max=2.0)
        out = tmp_path / "o"
        main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out), "--plot"])
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings"]
        written = [f"write {name}" for name in manifest["artifacts"][:-1]]
        assert sorted(timings) == sorted(
            ["solve", "report", "solve_rescaled", "compare_charts", *written]
        )
        names = ["trajectory.csv", "rescaled.csv", "trajectory.svg", "report.json"]
        assert written == [f"write {name}" for name in names]
        assert all(type(v) is float and v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= manifest["wall_time_s"]
        for name in ("trajectory.csv", "rescaled.csv", "report.json"):
            assert "timings" not in (out / name).read_text()

    def test_plot_flag_writes_svg(self, tmp_path):
        out = tmp_path / "run"
        main(["solve", "--config", write_json(tmp_path, "c.json", BASE), "--out", str(out), "--plot"])
        svg = (out / "trajectory.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


# -- configs at the family edges ------------------------------------------------
# d2 = 1 (lpp then embeds as dancer_wang with p2 = 0), q = 0, odd d, p = 0 with
# and without an allow_degenerate key (the loader refuses it), extreme C and
# extreme orbit sizes.  Each config varies one field from a shipped one; it must
# load, or raise a ConfigError naming that field (exit 64).  A loaded config
# must solve or end with a documented exit code.

_EDGE_BASE = {"two_summands": "ts_e0_c1.json", "dancer_wang": "dw_e0_c1.json", "lpp": "lpp_e0_c1.json"}
_edge_int = st.integers(-1, 4)
_EDGE_C = [0.0, -0.0, -5e-324, -1e-300, -1.0, -1e300, -1.7976931348623157e308, 5e-324, 1.0]
_EDGE_SIZES = [5e-324, 1e-320, 1e-300, 1.0, 1e300, 1.7976931348623157e308]


def _edge_doc(system: str, field: str, data) -> dict:
    doc = json.loads(config_path(_EDGE_BASE[system]).read_text())
    doc["integrator"] = {"t_max": 0.01, "max_steps": 500}
    if field == "C":
        doc["C"] = data.draw(st.sampled_from(_EDGE_C))
    elif field == "initial":
        sizes = data.draw(st.lists(st.sampled_from(_EDGE_SIZES), min_size=2, max_size=2))
        doc["initial"] = sizes[0] if system == "two_summands" else sizes[: len(doc["initial"])]
    elif system == "dancer_wang":
        m = data.draw(st.integers(1, 3))
        draw = st.lists(_edge_int, min_size=m, max_size=m)
        doc["ansatz"] = {"d": data.draw(draw), "p": data.draw(draw), "q": data.draw(draw)}
        if data.draw(st.booleans()):
            doc["ansatz"]["allow_degenerate"] = True
        doc["initial"] = [1.0] * m
    else:
        doc["ansatz"] |= {name: data.draw(_edge_int) for name in doc["ansatz"] if name[0] in "dpq"}
    return doc


@pytest.mark.parametrize("system", sorted(_EDGE_BASE))
@pytest.mark.parametrize("field", ["ansatz", "C", "initial"])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_edge_configs_load_or_name_the_field(system, field, data, tmp_path_factory):
    doc = _edge_doc(system, field, data)
    try:
        load_config(doc)
    except ConfigError as exc:
        assert re.search(rf"\b{field}\b", str(exc)), str(exc)
        expected = (64,)
    else:
        # p_i = 0 is the warped-product embedding's device, never a config's
        assert not (system == "dancer_wang" and 0 in doc["ansatz"]["p"])
        expected = (0, 2, 70)
    tmp = tmp_path_factory.mktemp("edge")
    path = write_json(tmp, "c.json", doc)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to exit 70
            code = main(["solve", "--config", path, "--out", str(tmp / "o")])
    assert code in expected, doc


def test_lpp_with_a_flat_warped_circle_solves(tmp_path):
    # d2 = 1 embeds as dancer_wang with (p2, q2) = (0, 0); on a steady run the
    # flat circle's g2 starts with zero slope, so the shape row fails at launch
    doc = json.loads(config_path("lpp_e0_c1.json").read_text())
    doc["ansatz"]["d2"] = 1
    assert load_config(doc).spec.ansatz.as_dancer_wang().p == (2, 0)
    out = tmp_path / "o"
    assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination"] == "reached_t_max"
    assert manifest["reasons"] == ["shape operator lost positivity at some sample"]


class TestChartBoth:
    def test_both_charts_reuse_the_written_runs(self, tmp_path, monkeypatch):
        from solitonlab import integrator, rescaled, trajectory

        calls = []

        def counting(rhs, t0, y0, cfg):
            result = integrator.integrate(rhs, t0, y0, cfg)
            calls.append((cfg, result))
            return result

        monkeypatch.setattr(trajectory, "integrate", counting)
        monkeypatch.setattr(rescaled, "integrate", counting)
        doc = json.loads(config_path("dw_kahler.json").read_text())
        doc["integrator"] = dict(doc["integrator"], t_max=2.0, max_step=0.01)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == 0
        # one physical and one compact-chart integration, and the physical
        # one is the run written to trajectory.csv, with the config's max_step
        assert len(calls) == 2
        (phys_cfg, phys), (_, resc) = calls
        assert phys_cfg.max_step == 0.01
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + len(phys.ts)
        kd = json.loads((out / "manifest.json").read_text())["key_diagnostics"]
        assert (kd["n_accepted"], kd["n_rejected"], kd["n_rhs"]) == (
            phys.n_accepted,
            phys.n_rejected,
            phys.n_rhs,
        )
        assert kd["rescaled"] == {
            "n_accepted": resc.n_accepted,
            "n_rejected": resc.n_rejected,
            "n_rhs": resc.n_rhs,
            "h_min": float(np.min(np.diff(resc.ts))),
            "h_max": float(np.max(np.diff(resc.ts))),
        }
        # the step-size range is the physical run's, and a manifest value only
        assert (kd["h_min"], kd["h_max"]) == (np.min(np.diff(phys.ts)), np.max(np.diff(phys.ts)))
        assert 0.0 < kd["h_min"] <= kd["h_max"] <= 0.01 * (1.0 + 1e-12)  # sample spacing
        for csv in ("trajectory.csv", "rescaled.csv"):
            assert "h_m" not in (out / csv).read_text().splitlines()[0]
        report = json.loads((out / "report.json").read_text())
        assert report["chart_comparison"]["max_rel_deviation"] <= 1e-6

    def test_compact_chart_obeys_max_steps(self, tmp_path):
        doc = json.loads(config_path("dw_kahler.json").read_text())
        doc["integrator"] = dict(doc["integrator"], max_steps=50)
        out = tmp_path / "o"
        main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)])
        resc = json.loads((out / "manifest.json").read_text())["key_diagnostics"]["rescaled"]
        assert resc["n_accepted"] + resc["n_rejected"] <= 50

    def test_a_launch_outside_the_compact_chart_exits_70(self, tmp_path, capsys):
        # f H overflows at launch, so Y is 0 there and the chart cannot start
        doc = json.loads(config_path("dw_m2_chart.json").read_text())
        doc |= {"initial": [1e308], "ansatz": {"d": [10**20], "p": [10**20], "q": [1]}}
        path = write_json(tmp_path, "c.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 70
        assert "outside the compact chart" in capsys.readouterr().err

    def test_physical_chart_manifest_has_no_rescaled_counts(self, tmp_path):
        out = tmp_path / "o"
        main(["solve", "--config", write_json(tmp_path, "c.json", BASE), "--out", str(out)])
        kd = json.loads((out / "manifest.json").read_text())["key_diagnostics"]
        assert kd["n_rhs"] > 0
        assert "rescaled" not in kd


class TestDeterminism:
    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", BASE)
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/trajectory.csv").read_bytes() == (tmp_path / "b/trajectory.csv").read_bytes()


class TestSweep:
    def test_single_cell_matches_solve(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", BASE)
        main(["solve", "--config", cfg, "--out", str(tmp_path / "solo")])
        code = main(["sweep", "--config", cfg, "--grid", "C=-1:0:1", "--out", str(tmp_path / "sw")])
        assert code == 0
        assert (tmp_path / "solo/trajectory.csv").read_bytes() == (
            tmp_path / "sw/cell_0000/trajectory.csv"
        ).read_bytes()

    def test_grid_rows_cover_all_cells(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", BASE)
        code = main(
            [
                "sweep", "--config", cfg,
                "--grid", "C=-0.5:-0.5:2",
                "--grid", "fbar=1.0:0.5:2",
                "--out", str(tmp_path / "sw"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "sw/sweep_summary.csv").read_text().splitlines()
        assert lines[0].startswith("C,fbar,cell,verdict")
        assert len(lines) == 1 + 4
        for i in range(4):
            assert (tmp_path / f"sw/cell_{i:04d}/manifest.json").exists()
        assert not (tmp_path / "sw/sweep_errors.json").exists()

    def test_failed_cell_keeps_its_error(self, tmp_path, monkeypatch):
        import solitonlab.cli as cli

        run_cell = cli._run_cell

        def failing(doc, outdir):
            if outdir.endswith("cell_0001"):
                raise RuntimeError("no convergence in cell 1")
            return run_cell(doc, outdir)

        monkeypatch.setattr(cli, "_run_cell", failing)
        cfg = write_json(tmp_path, "c.json", BASE)
        code = main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:3", "--jobs", "1", "--out", str(tmp_path / "sw")])
        assert code == 1
        errors = json.loads((tmp_path / "sw/sweep_errors.json").read_text())
        assert errors == {"cell_0001": "RuntimeError: no convergence in cell 1"}
        rows = (tmp_path / "sw/sweep_summary.csv").read_text().splitlines()
        assert rows[2].split(",")[1:] == ["cell_0001", "error", "error", "nan", "nan"]
        assert rows[1].split(",")[2] == "numerically_complete"

    def test_non_finite_grid_value_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", BASE)
        assert main(["sweep", "--config", cfg, "--grid", "C=nan:1:2", "--out", str(tmp_path / "sw")]) == 64
        assert "'C'" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_bad_grid_spec(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", BASE)
        assert main(["sweep", "--config", cfg, "--grid", "C=oops", "--out", str(tmp_path / "sw")]) == 64
        assert main(["sweep", "--config", cfg, "--grid", "zz=0:1:2", "--out", str(tmp_path / "sw")]) == 64


class TestProbe:
    def test_probe_writes_report_and_samples(self, tmp_path, capsys):
        cfg = shipped("ts_probe_d1.json", tmp_path)
        out = tmp_path / "probe"
        code = main(["probe-c0", "--config", cfg, "--c", "2.0", "--tau", "0.25", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "probe_report.json").read_text())
        assert report["empirical_C0"] < 0
        assert report["n_solves"] == len(report["samples"]) + len(report["excluded"])
        assert report["n_rhs"] >= 6 * report["n_accepted"] > 0
        line = capsys.readouterr().out
        assert f"solves={report['n_solves']} n_rhs={report['n_rhs']}" in line
        lines = (out / "probe_samples.csv").read_text().splitlines()
        assert lines[0] == "C,slope_at_tau"
        assert len(lines) - 1 == len(report["samples"])

    @pytest.mark.parametrize("c, tau, has_fail_end", [(5.0, 0.5, True), (0.01, 0.25, False)])
    def test_bracket_ends_print_alike(self, tmp_path, capsys, c, tau, has_fail_end):
        cfg = shipped("ts_probe_d1.json", tmp_path)
        out = tmp_path / "probe"
        assert main(["probe-c0", "--config", cfg, "--c", str(c), "--tau", str(tau), "--out", str(out)]) == 0
        c_fail, c_success = json.loads((out / "probe_report.json").read_text())["bracket"]
        assert (c_fail is not None) == has_fail_end
        printed = capsys.readouterr().out.split("bracket=(")[1].split(")")[0].split(", ")
        assert printed == [_fmt(c_fail) if has_fail_end else "None", _fmt(c_success)]

    def test_unreachable_target_exits_three(self, tmp_path, capsys):
        doc = dict(BASE, C=-1.0)
        cfg = write_json(tmp_path, "c.json", doc)
        code = main(["probe-c0", "--config", cfg, "--c", "1e9", "--tau", "0.05", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no admissible" in capsys.readouterr().err


class TestCurvature:
    def test_flat_torus(self, capsys):
        code = main(
            ["curvature", "--decomposition", str(decomposition_path("flat_torus_2.json")), "--x", "2,3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scalar_curvature: 0" in out

    def test_round_sphere_value(self, capsys):
        code = main(
            ["curvature", "--decomposition", str(decomposition_path("su2_unit.json")), "--x", "1"]
        )
        assert code == 0
        assert "scalar_curvature: 6" in capsys.readouterr().out

    def test_sign_violation_exits_65(self, tmp_path, capsys):
        doc = {
            "summands": [{"dim": 2, "b": 1.0}],
            "triples": [{"i": 0, "j": 0, "k": 0, "value": -2.0}],
        }
        path = write_json(tmp_path, "bad.json", doc)
        assert main(["curvature", "--decomposition", path, "--x", "1"]) == 65
        assert "sign violation" in capsys.readouterr().err

    def test_duplicate_triple_exits_64(self, tmp_path):
        doc = {
            "summands": [{"dim": 2, "b": 1.0}],
            "triples": [
                {"i": 0, "j": 0, "k": 0, "value": 1.0},
                {"i": 0, "j": 0, "k": 0, "value": 2.0},
            ],
        }
        path = write_json(tmp_path, "dup.json", doc)
        assert main(["curvature", "--decomposition", path, "--x", "1"]) == 64

    def test_dimension_mismatch_is_config_error(self):
        code = main(
            ["curvature", "--decomposition", str(decomposition_path("su2_unit.json")), "--x", "1,2"]
        )
        assert code == 64
