import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import shutil
import time
import warnings
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab.cli import main
from solitonlab.runio import ConfigError, _fmt, load_config

from conftest import config_path, decomposition_path, forked_children


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

    # the step caps are fixed, so max_step and max_steps are fields it does not read
    @pytest.mark.parametrize(
        "where, field",
        [
            (None, "epsilom"),
            ("ansatz", "d3"),
            ("integrator", "tmax"),
            ("integrator", "max_step"),
            ("integrator", "max_steps"),
        ],
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
        # loose tolerances reach the horizon, but above the conservation budget
        doc = json.loads(config_path("ts_e0_c1.json").read_text())
        doc["integrator"] |= {"rel_tol": 1e-5, "abs_tol": 1e-7}
        out = tmp_path / "o"
        code = main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["verdict"], manifest["termination"]) == ("inconclusive", "reached_t_max")
        reason = "conservation residual 1.077e-04 above 2.000e-08"
        assert manifest["reasons"] == [reason]
        assert f"note: inconclusive ({reason})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rel_tol", "tight"),
            ("rel_tol", -1),
            ("abs_tol", 0),
            ("abs_tol", True),
            # the step caps are not settable: refused whatever the value
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

    @pytest.mark.parametrize(
        "name, changes, t_max, offset",
        [
            ("ts_e0_c1.json", {}, 1e-5, 1e-3),
            ("ts_e0_c1.json", {}, 1e-3, 1e-3),  # at the offset
            ("ts_e0_c1.json", {"launch_delta": 0.5}, 0.25, 0.5),
            # with chart both, both charts launch at the compact chart's 1e-3,
            # above the physical chart's own 1e-4
            ("dw_m2_chart.json", {}, 5e-4, 1e-3),
        ],
    )
    def test_a_horizon_at_or_below_the_launch_offset_is_config_error(
        self, tmp_path, capsys, name, changes, t_max, offset
    ):
        # such a run would end reached_t_max with one sample, at the offset
        doc = json.loads(config_path(name).read_text()) | changes
        doc["integrator"]["t_max"] = t_max
        cfg = write_json(tmp_path, "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert "'integrator.t_max'" in err and f"launch offset {offset!r}" in err
        assert not (tmp_path / "o").exists()
        if doc.get("chart") == "both":
            assert load_config(doc | {"chart": "physical"}).t_max == t_max

    def test_integer_launch_delta_is_accepted(self):
        cfg = load_config(dict(BASE, launch_delta=1))
        assert (type(cfg.launch_delta), cfg.launch_delta) == (float, 1.0)

    def test_manifest_times_each_step(self, tmp_path):
        doc = json.loads(config_path("dw_kahler.json").read_text())
        doc["integrator"] = dict(doc["integrator"], t_max=2.0)
        out = tmp_path / "o"
        main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out), "--plot"])
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings"]
        written = [f"write {name}" for name in manifest["artifacts"][:-1]]
        names = ["trajectory.csv", "rescaled.csv", "trajectory.svg", "report.json"]
        assert written == [f"write {name}" for name in names]
        # the compact chart's steps overlap this process's, so each side's
        # steps, not all of them, fit in the wall time
        compact = ["solve_rescaled", "write rescaled.csv"]
        physical = ["solve", "report", "wait compact chart", "compare_charts"]
        physical += [w for w in written if w not in compact]
        assert sorted(timings) == sorted(physical + compact)
        assert all(type(v) is float and v >= 0.0 for v in timings.values())
        for side in (physical, compact):
            assert sum(timings[key] for key in side) <= manifest["wall_time_s"]
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
    doc["integrator"] = {"t_max": 0.01}
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


def flat_warped_circle_shape_margin(tmp_path, epsilon) -> dict:
    """Solve lpp_e0_c1 with d2 = 1 at epsilon; the shape row's closest
    approach, once the run is numerically complete."""
    doc = json.loads(config_path("lpp_e0_c1.json").read_text())
    doc["ansatz"]["d2"] = 1
    doc["epsilon"] = epsilon
    assert load_config(doc).spec.ansatz.as_dancer_wang().p == (2, 0)
    out = tmp_path / "o"
    assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["verdict"], manifest["termination"]) == ("numerically_complete", "reached_t_max")
    return json.loads((out / "report.json").read_text())["margins"]["shape_exit"]


def test_lpp_with_a_flat_warped_circle_solves(tmp_path):
    # d2 = 1 embeds as dancer_wang with (p2, q2) = (0, 0); on a steady run the
    # flat circle's g2 keeps zero slope, so the shape row leaves it out
    shape = flat_warped_circle_shape_margin(tmp_path, 0.0)
    assert shape == {"candidate": "dg1", "margin": 1e-4, "t": 1e-4}


def test_an_expanding_flat_warped_circle_keeps_g2_in_the_shape_row(tmp_path):
    # with eps > 0 the soliton term moves g2, and its slope binds at launch
    shape = flat_warped_circle_shape_margin(tmp_path, 1.0)
    assert shape == {"candidate": "dg2", "margin": 2.5e-5, "t": 1e-4}


# sha256 of each output of the shipped chart: both configs as the two charts
# wrote them one after the other in one process (within one C library, like
# conftest.REPORT_DIGESTS)
CHART_BOTH_DIGESTS = {
    "dw_m2_chart.json": {
        "trajectory.csv": "ad24f00006dfdab10da55b2e79bbd24bf0b576b7dd3225f80f3f88d920836ada",
        "rescaled.csv": "8106d90cd859e11d83c808330cf94f773cc353085be9ec53d806170576fb316e",
        "report.json": "6331658e3447e862528f76c39b39c8f4ff146a0415d9c56e6134dd62f6cf1f1c",
    },
    "dw_kahler.json": {
        "trajectory.csv": "85d7759480e9026765ec2034c3fa9a0170d68c90c3820c6bd9a06a451337df60",
        "rescaled.csv": "3365a0c4c447b12d0e37bd664e7722bd1863f4fcdd0c9023fa780b220d15746d",
        "report.json": "4170519313e6d40758975586a39138a4c3b545dd3f1e9ef2b531446335dba2cd",
    },
}


class TestChartBoth:
    def test_both_charts_reuse_the_written_runs(self, tmp_path, monkeypatch):
        from solitonlab import integrator, rescaled, trajectory

        calls = []  # (process, config, result) of each integration in this process

        def counting(rhs, t0, y0, cfg):
            result = integrator.integrate(rhs, t0, y0, cfg)
            calls.append((os.getpid(), cfg, result))
            # the compact chart's result comes back from the process that
            # made it, carrying that process's count
            result.made_by = (os.getpid(), len(calls))
            return result

        compared = []

        def comparing(phys, resc, compare=rescaled.compare_charts):
            compared.append(resc)
            return compare(phys, resc)

        monkeypatch.setattr(trajectory, "integrate", counting)
        monkeypatch.setattr(rescaled, "integrate", counting)
        monkeypatch.setattr(rescaled, "compare_charts", comparing)
        doc = json.loads(config_path("dw_kahler.json").read_text())
        doc["integrator"] = dict(doc["integrator"], t_max=2.0)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == 0
        # one physical integration here, the run written to trajectory.csv;
        # one compact-chart integration in a forked child, whose result is
        # the one compared
        ((pid, _, phys),) = calls
        assert pid == os.getpid() and phys.made_by == (pid, 1)
        ((resc_pid, resc_calls),) = [r.result.made_by for r in compared]
        assert (resc_pid != os.getpid()) == hasattr(os, "fork") and resc_calls == 1
        resc = compared[0].result
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + len(phys.ts)
        assert len((out / "rescaled.csv").read_text().splitlines()) == 1 + len(resc.ts)
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
        assert 0.0 < kd["h_min"] <= kd["h_max"]  # sample spacing
        for csv in ("trajectory.csv", "rescaled.csv"):
            assert "h_m" not in (out / csv).read_text().splitlines()[0]
        report = json.loads((out / "report.json").read_text())
        assert report["chart_comparison"]["max_rel_deviation"] <= 1e-6

    def test_a_launch_outside_the_compact_chart_exits_70(self, tmp_path, capsys):
        # f H overflows at launch, so Y is 0 there and the chart cannot start
        doc = json.loads(config_path("dw_m2_chart.json").read_text())
        doc |= {"initial": [1e308], "ansatz": {"d": [10**20], "p": [10**20], "q": [1]}}
        path = write_json(tmp_path, "c.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # the overflow is refused, not warned about
            assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 70
        assert [str(w.message) for w in caught] == []
        assert "outside the compact chart" in capsys.readouterr().err

    def test_shipped_configs_keep_their_digests(self, tmp_path):
        shipped = [
            path.name
            for path in (files("solitonlab") / "configs").iterdir()
            if path.name.endswith(".json") and json.loads(path.read_text()).get("chart") == "both"
        ]
        assert sorted(shipped) == sorted(CHART_BOTH_DIGESTS)
        for name, digests in CHART_BOTH_DIGESTS.items():
            out = tmp_path / name
            assert main(["solve", "--config", str(config_path(name)), "--out", str(out)]) == 0
            for output, digest in digests.items():
                got = hashlib.sha256((out / output).read_bytes()).hexdigest()
                assert got == digest, (name, output)

    def test_without_fork_the_compact_chart_runs_here_alike(self, tmp_path, monkeypatch):
        from solitonlab.runio import run_solve

        cfg = load_config(str(config_path("dw_m2_chart.json")))
        forked = run_solve(cfg, str(tmp_path / "forked"))
        monkeypatch.delattr(os, "fork")
        here = run_solve(cfg, str(tmp_path / "here"))
        for name in ("trajectory.csv", "rescaled.csv", "report.json"):
            here_bytes = (tmp_path / "here" / name).read_bytes()
            assert here_bytes == (tmp_path / "forked" / name).read_bytes(), name
        assert sorted(here.pop("timings")) == sorted(forked.pop("timings"))
        assert here.pop("wall_time_s") > 0.0 and forked.pop("wall_time_s") > 0.0
        # the forked run compiled every kernel in this process, so this run compiles none
        forked.pop("counters")
        assert here.pop("counters") == {"kernel_compiles": 0, "kernel_compile_s": 0.0}
        assert here == forked

    def test_the_compact_chart_compiles_here_before_the_fork(self, tmp_path):
        # a long-lived process keeps every kernel the child used
        from solitonlab import integrator, rescaled, trajectory
        from solitonlab.runio import run_solve

        cfg = load_config(str(config_path("dw_m2_chart.json")))
        a, eps = cfg.spec.ansatz, cfg.spec.epsilon
        n = 2 * (a.m + 1) + 3
        caches = (
            rescaled._rescaled_kernel,
            integrator._dp_kernel,
            trajectory._min_of,
            trajectory._overflow,
            trajectory._validity,
        )
        for cache in caches:
            cache.cache_clear()
        run_solve(cfg, str(tmp_path / "o"))
        misses = [cache.cache_info().misses for cache in caches]
        rhs = rescaled.make_rescaled_vector_rhs(a, eps)
        integrator.compile_attempt(rhs, n)
        trajectory._min_of(a.m + 1, 2 * (a.m + 1) + 1)
        trajectory._overflow(n)
        trajectory._validity(n, 0)
        assert [cache.cache_info().misses for cache in caches] == misses

    def test_a_compact_chart_failure_exits_70_with_its_message(self, tmp_path, capsys, monkeypatch):
        from solitonlab import rescaled

        def failing(s, y):
            raise RuntimeError(f"compact right-hand side failed in process {os.getpid()}")

        children = forked_children(monkeypatch)
        monkeypatch.setattr(rescaled, "make_rescaled_vector_rhs", lambda a, eps: failing)
        doc = json.loads(config_path("dw_kahler.json").read_text())
        doc["integrator"] = dict(doc["integrator"], t_max=2.0)
        path = write_json(tmp_path, "c.json", doc)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 70
        (pid,) = children
        err = capsys.readouterr().err
        message = f"compact right-hand side failed in process {pid}"
        assert err == f"error: integration failed: {message}\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_a_failure_here_kills_and_reaps_the_child(self, tmp_path, monkeypatch):
        from solitonlab import rescaled, runio

        def interrupted(traj):
            raise KeyboardInterrupt

        children = forked_children(monkeypatch)
        # a child that would still be integrating when this process fails
        monkeypatch.setattr(rescaled, "integrate", lambda *args: time.sleep(60))
        monkeypatch.setattr(runio, "build_report", interrupted)
        cfg = load_config(str(config_path("dw_m2_chart.json")))
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            runio.run_solve(cfg, str(tmp_path / "o"))
        assert time.monotonic() - start < 30.0
        (pid,) = children
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("chart", ["physical", "both"])
    def test_a_launch_state_outside_the_rhs_domain_exits_70(
        self, chart, tmp_path, capfd, monkeypatch
    ):
        # loadable, but f * f underflows at the launch slice, so the physical
        # right-hand side divides by zero there; the compact chart's launch
        # check, made before any fork, refuses the slice first.  Either names
        # the launch time and 'initial', and numpy does not warn first.
        from solitonlab.launch import default_delta, rescaled_default_delta

        doc = {
            "system": "dancer_wang",
            "ansatz": {"d": [10**20], "p": [2], "q": [-2]},
            "epsilon": 0.0,
            "C": -1.0,
            "initial": [1e-300],
            "chart": chart,
            "integrator": {"t_max": 1.0},
        }
        path = write_json(tmp_path, "c.json", doc)
        children = forked_children(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 70
        assert [str(w.message) for w in caught] == []
        assert children == []
        err = capfd.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        spec = load_config(doc).spec
        if chart == "both":
            cause = r", the state maps outside the compact chart \(Lc, Y_i > 0, all finite\)"
            delta = rescaled_default_delta(spec)
        else:
            cause = r" \(float division by zero\)"
            delta = default_delta(spec)
        match = re.search(rf"launch state t = ([^\s,]+){cause}; check the sizes in 'initial'", err)
        assert match and math.isclose(float(match[1]), delta, rel_tol=1e-12), err

    def test_a_physical_launch_failure_after_the_fork_exits_70_and_reaps(
        self, tmp_path, capsys, monkeypatch
    ):
        from solitonlab import trajectory

        def dividing(t, y):
            return [v / 0.0 for v in y]

        children = forked_children(monkeypatch)
        monkeypatch.setattr(trajectory, "make_vector_rhs", lambda a, eps: dividing)
        doc = json.loads(config_path("dw_kahler.json").read_text())
        doc["integrator"] = dict(doc["integrator"], t_max=2.0)
        path = write_json(tmp_path, "c.json", doc)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 70
        err = capsys.readouterr().err
        assert "launch state t = " in err and "check the sizes in 'initial'" in err
        (pid,) = children
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_a_comparison_short_of_the_run_names_the_span_left_out(self, tmp_path):
        # the compact chart stops at a fixed slow time, s = 400: on this
        # expanding run (ds ~ t dt / 2) that is t ~ 34.6 of the run's 100
        doc = json.loads(config_path("dw_e1_c10.json").read_text())
        doc["chart"] = "both"
        doc["integrator"] = dict(doc["integrator"], t_max=100.0)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "report.json").read_text())
        t_hi = report["chart_comparison"]["t_hi"]
        assert 34.0 < t_hi < 35.0 and manifest["key_diagnostics"]["t_end"] == 100.0
        assert manifest["verdict"] == report["verdict"]["kind"] == "numerically_complete"
        assert manifest["reasons"] == report["verdict"]["reasons"] == [
            f"the charts are compared up to t = {_fmt(t_hi)}, where the compact chart ends;"
            f" ({_fmt(t_hi)}, 100] is not compared"
        ]

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_cell_keeps_its_error(self, jobs, tmp_path, monkeypatch):
        # with --jobs 2, cell 1 fails in the forked child
        from solitonlab import runio

        run_solve = runio.run_solve

        def failing(cfg, outdir):
            if outdir.endswith("cell_0001"):
                raise RuntimeError("no convergence in cell 1")
            return run_solve(cfg, outdir)

        monkeypatch.setattr(runio, "run_solve", failing)
        cfg = write_json(tmp_path, "c.json", BASE)
        code = main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:3", "--jobs", jobs, "--out", str(tmp_path / "sw")])
        assert code == 1
        errors = json.loads((tmp_path / "sw/sweep_errors.json").read_text())
        assert errors == {"cell_0001": "RuntimeError: no convergence in cell 1"}
        rows = (tmp_path / "sw/sweep_summary.csv").read_text().splitlines()
        assert rows[2].split(",")[1:] == ["cell_0001", "error", "error", "nan", "nan"]
        assert rows[1].split(",")[2] == "numerically_complete"

    def test_each_cell_config_is_parsed_once(self, tmp_path, monkeypatch):
        from solitonlab import runio

        parsed = []
        load = runio.load_config
        monkeypatch.setattr(runio, "load_config", lambda doc: parsed.append(doc) or load(doc))
        cfg = write_json(tmp_path, "c.json", BASE)
        code = main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:3", "--out", str(tmp_path / "sw")])
        assert code == 0
        assert [doc["C"] for doc in parsed] == [-0.5, -1.0, -1.5]

    def test_a_pool_sweep_writes_what_one_process_writes(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", BASE)
        for jobs in ("1", "2"):
            args = ["--grid", "C=-0.5:-0.5:2", "--jobs", jobs, "--out", str(tmp_path / jobs)]
            assert main(["sweep", "--config", cfg, *args]) == 0
        for name in ("sweep_summary.csv", "cell_0000/trajectory.csv", "cell_0001/report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_more_jobs_than_cells_fork_no_idle_child(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path, "c.json", BASE)
        args = ["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:2"]
        assert main([*args, "--jobs", "1", "--out", str(tmp_path / "1")]) == 0
        children = forked_children(monkeypatch)
        assert main([*args, "--jobs", "5", "--out", str(tmp_path / "5")]) == 0
        assert len(children) == 1
        for name in ("sweep_summary.csv", "cell_0000/trajectory.csv", "cell_0001/trajectory.csv",
                     "cell_0000/report.json", "cell_0001/report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "5" / name).read_bytes(), name

    def test_without_fork_the_shares_run_here_alike(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path, "c.json", BASE)
        args = ["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:3"]
        assert main([*args, "--jobs", "1", "--out", str(tmp_path / "1")]) == 0
        monkeypatch.delattr(os, "fork")
        assert main([*args, "--jobs", "2", "--out", str(tmp_path / "2")]) == 0
        for name in ("sweep_summary.csv", "cell_0001/trajectory.csv", "cell_0002/report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_a_child_that_ends_without_a_result_fails_its_share(self, tmp_path, monkeypatch):
        from solitonlab import runio

        here = os.getpid()
        run_solve = runio.run_solve

        def dying(cfg, outdir):
            if os.getpid() != here:
                os._exit(3)
            return run_solve(cfg, outdir)

        monkeypatch.setattr(runio, "run_solve", dying)
        children = forked_children(monkeypatch)
        cfg = write_json(tmp_path, "c.json", BASE)
        code = main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:3", "--jobs", "2", "--out", str(tmp_path / "sw")])
        assert code == 1
        (pid,) = children
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        errors = json.loads((tmp_path / "sw/sweep_errors.json").read_text())
        message = "RuntimeError: the child process ended with no result (wait status 768)"
        assert errors == {"cell_0001": message}
        rows = [row.split(",")[2] for row in (tmp_path / "sw/sweep_summary.csv").read_text().splitlines()[1:]]
        assert rows == ["numerically_complete", "error", "numerically_complete"]

    def test_a_child_that_dies_after_its_first_cell_keeps_that_row(self, tmp_path, monkeypatch):
        # --jobs 2 over 4 cells: the child answers cell 1, then dies in cell 3
        from solitonlab import runio

        here = os.getpid()
        run_solve = runio.run_solve

        def dying(cfg, outdir):
            if os.getpid() != here and outdir.endswith("cell_0003"):
                os._exit(3)
            return run_solve(cfg, outdir)

        monkeypatch.setattr(runio, "run_solve", dying)
        children = forked_children(monkeypatch)
        cfg = write_json(tmp_path, "c.json", BASE)
        code = main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:4", "--jobs", "2", "--out", str(tmp_path / "sw")])
        assert code == 1
        (pid,) = children
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        errors = json.loads((tmp_path / "sw/sweep_errors.json").read_text())
        assert errors == {"cell_0003": "RuntimeError: the child process ended with no result (wait status 768)"}
        rows = [row.split(",")[2] for row in (tmp_path / "sw/sweep_summary.csv").read_text().splitlines()[1:]]
        assert rows == ["numerically_complete"] * 3 + ["error"]

    def test_a_dead_child_leaves_no_row_of_an_earlier_sweep(self, tmp_path, monkeypatch):
        from solitonlab import runio

        cfg = write_json(tmp_path, "c.json", BASE)
        args = ["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:4", "--jobs", "2", "--out", str(tmp_path / "sw")]
        assert main(args) == 0
        here = os.getpid()
        run_solve = runio.run_solve

        def dying(cfg, outdir):
            if os.getpid() != here:
                os._exit(3)
            return run_solve(cfg, outdir)

        monkeypatch.setattr(runio, "run_solve", dying)
        assert main(args) == 1
        errors = json.loads((tmp_path / "sw/sweep_errors.json").read_text())
        assert sorted(errors) == ["cell_0001", "cell_0003"]
        rows = [row.split(",")[2] for row in (tmp_path / "sw/sweep_summary.csv").read_text().splitlines()[1:]]
        assert rows == ["numerically_complete", "error"] * 2

    def test_a_child_runs_its_share_while_share_0_runs_whatever_it_answers(self, tmp_path, monkeypatch):
        # --jobs 2 over 200 cells: the child's 100 answers, 2 kB each, pass
        # the 64 KiB a pipe holds, and this process reads none of them until
        # its own cell 0 is done; it waits there for the child's last cell
        from solitonlab import runio

        here = os.getpid()
        done = tmp_path / "child_done"
        waited = []

        def failing(cfg, outdir):
            cell = outdir[-4:]
            if os.getpid() != here:
                if cell == "0199":
                    done.touch()
                raise RuntimeError(f"cell {cell} " + "x" * 2000)
            if cell == "0000":
                start = time.monotonic()
                while not done.exists() and time.monotonic() - start < 20.0:
                    time.sleep(0.01)
                waited.append(done.exists())
            raise RuntimeError(f"cell {cell}")

        monkeypatch.setattr(runio, "run_solve", failing)
        cfg = write_json(tmp_path, "c.json", BASE)
        code = main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.01:200", "--jobs", "2", "--out", str(tmp_path / "sw")])
        assert code == 1
        assert waited == [True]  # the child finished while share 0 was still running
        errors = json.loads((tmp_path / "sw/sweep_errors.json").read_text())
        assert len(errors) == 200
        assert errors["cell_0199"] == "RuntimeError: cell 0199 " + "x" * 2000
        assert errors["cell_0198"] == "RuntimeError: cell 0198"

    def test_a_failure_here_kills_and_reaps_every_child(self, tmp_path, monkeypatch):
        from solitonlab import runio

        here = os.getpid()
        run_solve = runio.run_solve

        def interrupted(cfg, outdir):
            if os.getpid() == here:
                raise KeyboardInterrupt
            time.sleep(60)  # a child still running when this process fails
            return run_solve(cfg, outdir)

        monkeypatch.setattr(runio, "run_solve", interrupted)
        children = forked_children(monkeypatch)
        cfg = write_json(tmp_path, "c.json", BASE)
        start = time.monotonic()
        # the traceback held here keeps the sweep's frame alive: the children
        # must be reaped before the exception leaves it, not when it is freed
        with pytest.raises(KeyboardInterrupt) as caught:
            main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:3", "--jobs", "3", "--out", str(tmp_path / "sw")])
        assert time.monotonic() - start < 30.0
        assert len(children) == 2
        for pid in children:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert caught.traceback

    def test_jobs_below_one_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", BASE)
        assert main(["sweep", "--config", cfg, "--grid", "C=-0.5:-0.5:2", "--jobs", "0", "--out", str(tmp_path / "sw")]) == 64
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_a_repeated_sweep_compiles_no_kernel(self, tmp_path):
        # the DP5 step kernel is compiled once per process: by this process for
        # its share and by the child for its own; a second sweep's child
        # inherits this process's kernels
        from solitonlab import integrator

        integrator._dp_kernel.cache_clear()
        cfg = write_json(tmp_path, "c.json", BASE)
        counters = {}
        for out in ("first", "again"):
            args = ["--grid", "C=-0.5:-0.5:2", "--jobs", "2", "--out", str(tmp_path / out)]
            assert main(["sweep", "--config", cfg, *args]) == 0
            counters[out] = [
                json.loads((tmp_path / out / f"cell_{i:04d}/manifest.json").read_text())["counters"]
                for i in range(2)
            ]
        assert all(c["kernel_compiles"] > 0 and c["kernel_compile_s"] > 0.0 for c in counters["first"])
        assert counters["again"] == [{"kernel_compiles": 0, "kernel_compile_s": 0.0}] * 2

    def test_a_g1_sweep_of_one_factor_compiles_its_events_once(self, tmp_path):
        # with one factor the rows read no orbit size (c0 = 1 for every g1),
        # so the cells after the first compile nothing
        from solitonlab import trajectory

        trajectory._row_events.cache_clear()
        cfg = shipped("dw_e0_c1.json", tmp_path)
        args = ["--grid", "g1=0.8:0.2:3", "--jobs", "1", "--out", str(tmp_path / "sw")]
        assert main(["sweep", "--config", cfg, *args]) == 0
        manifests = [json.loads((tmp_path / f"sw/cell_{i:04d}/manifest.json").read_text()) for i in range(3)]
        compiles = [m["counters"]["kernel_compiles"] for m in manifests]
        assert compiles[0] >= 2 and compiles[1:] == [0, 0]
        assert trajectory._row_events.cache_info().currsize == 1

    def test_non_finite_grid_value_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", BASE)
        assert main(["sweep", "--config", cfg, "--grid", "C=nan:1:2", "--out", str(tmp_path / "sw")]) == 64
        assert "'C'" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("grid", ["C=-1:-10:0", "C=-1:-10:-2"])
    def test_a_grid_count_below_one_is_config_error(self, tmp_path, capsys, grid):
        # such a grid has no cell: the sweep would run nothing and exit 0
        cfg = write_json(tmp_path, "c.json", BASE)
        assert main(["sweep", "--config", cfg, "--grid", grid, "--out", str(tmp_path / "sw")]) == 64
        assert repr(grid) in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize(
        "first, second, name", [("C=-1:-1:2", "C=-5:-1:1", "C"), ("g1=1:1:2", "g01=3:1:1", "g1")]
    )
    def test_a_grid_parameter_named_twice_is_config_error(self, tmp_path, capsys, first, second, name):
        # the later axis would overwrite the earlier one in every cell, while
        # the summary printed the earlier one's values
        cfg = write_json(tmp_path, "c.json", BASE)
        args = ["--grid", first, "--grid", second, "--out", str(tmp_path / "sw")]
        assert main(["sweep", "--config", cfg, *args]) == 64
        assert repr(name) in capsys.readouterr().err
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
        assert report["lanes"] in (1, 2) and report["n_unused"] == 0
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

    def test_a_flat_warped_circle_is_probed(self, tmp_path):
        # an lpp run with d2 = 1 and eps = 0 keeps g2's slope at zero; testing
        # it for positivity excluded every run, and the probe exited 3
        doc = json.loads(config_path("lpp_e0_c1.json").read_text())
        doc["ansatz"]["d2"] = 1
        cfg = write_json(tmp_path, "c.json", doc)
        out = tmp_path / "probe"
        assert main(["probe-c0", "--config", cfg, "--c", "2", "--tau", "0.25", "--out", str(out)]) == 0
        report = json.loads((out / "probe_report.json").read_text())
        assert report["bracket"] == [-17.733894587578856, -17.83018788153428]
        assert (report["n_solves"], report["excluded"]) == (17, [])

    @pytest.mark.parametrize(
        "changes, tau, offset",
        [({}, 1e-5, 1e-4), ({}, 1e-4, 1e-4), ({"launch_delta": 0.5}, 0.25, 0.5)],
    )
    def test_a_tau_at_or_below_the_launch_offset_is_config_error(self, tmp_path, capsys, changes, tau, offset):
        # such a probe would bracket -udot at the offset, not at tau
        doc = json.loads(config_path("ts_probe_d1.json").read_text()) | changes
        cfg = write_json(tmp_path, "c.json", doc)
        code = main(["probe-c0", "--config", cfg, "--c", "5", "--tau", repr(tau), "--out", str(tmp_path / "o")])
        assert code == 64
        err = capsys.readouterr().err
        assert "--tau" in err and f"launch offset {offset!r}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--c", "nan"), ("--c", "inf"), ("--tau", "inf"), ("--tau", "nan")]
    )
    def test_a_non_finite_target_or_time_is_config_error(self, tmp_path, capsys, flag, value):
        # --c nan once ran the whole scan and exited 3; --tau inf integrated
        # each run to an infinite horizon
        cfg = shipped("ts_probe_d1.json", tmp_path)
        values = {"--c": "5", "--tau": "0.5"} | {flag: value}
        args = [arg for item in values.items() for arg in item]
        assert main(["probe-c0", "--config", cfg, *args, "--out", str(tmp_path / "o")]) == 64
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreachable_target_exits_three(self, tmp_path, capsys):
        doc = dict(BASE, C=-1.0)
        cfg = write_json(tmp_path, "c.json", doc)
        code = main(["probe-c0", "--config", cfg, "--c", "1e9", "--tau", "0.05", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no admissible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # argparse reads -inf as an option, so --c has no value
        ["probe-c0", "--config", "c.json", "--c", "-inf", "--tau", "0.5", "--out", "o"],
        ["solve", "--config", "c.json"],
    ],
)
def test_a_usage_error_exits_64(argv, capsys):
    # argparse's own exit status 2 would read as an unmet verdict
    assert main(argv) == 64
    assert "usage: solitonlab" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as caught:
        main([flag])
    assert caught.value.code == 0
    assert "solitonlab" in capsys.readouterr().out


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
