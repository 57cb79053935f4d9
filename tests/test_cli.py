import contextlib
import copy
import dataclasses
import errno
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

from solitonlab import LaneLost, ProbeRangeError, runio
from solitonlab.cli import main
from solitonlab.runio import ConfigError, _fmt, load_config

from conftest import SHIPPED_OUTPUTS, config_path, decomposition_path, forked_children


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
            # beyond a float's range: it exited 70 on the way to the first float
            ("d", [10**400], "ansatz.d[0]"),
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

    def test_the_positivity_check_reads_the_offset_the_run_launches_at(self, tmp_path, capsys):
        # the physical default 1e-4 * 1e-320 rounds to 0, but a chart both
        # run launches at the compact chart's 1e-323: it loads, and its
        # launch slice is refused as with that launch_delta given
        doc = json.loads(config_path("dw_m2_chart.json").read_text()) | {"initial": [1e-320, 1e-320]}
        assert load_config(doc).launch_delta == 1e-323
        errs = []
        for changes in ({}, {"launch_delta": 1e-323}):
            cfg = write_json(tmp_path, "c.json", doc | changes)
            assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 70
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "launch state t = 1e-323" in errs[0] and "check the sizes in 'initial'" in errs[0]
        # in the physical chart no offset is left
        cfg = write_json(tmp_path, "c.json", doc | {"chart": "physical"})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "p")]) == 64
        assert "'initial': sizes this small leave no positive launch offset" in capsys.readouterr().err

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


# -- type-confused config fields --------------------------------------------------
# Every field the loader reads, given a value of the wrong JSON type: a bool, a
# string, a list or object, NaN or Infinity, or a float where an integer is
# due.  solve, probe-c0 and a sweep whose grid replaces C must each refuse it
# with exit 64 and name the field, before any run.

_not_a_number = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_not_an_integer = st.one_of(_not_a_number, st.floats(-10.0, 10.0))
_not_a_string = st.one_of(st.booleans(), st.integers(-2, 2), st.floats(), st.lists(st.text(max_size=2)))
_not_an_object = st.one_of(st.booleans(), st.text(max_size=4), st.floats(), st.lists(st.integers(0, 2), max_size=2))


def _confused_list(entry):
    """A value drawn from ``entry`` that is not a list, or a list whose last
    entry is drawn from it."""
    bad = st.tuples(st.lists(st.integers(1, 3), max_size=2), entry).map(lambda t: [*t[0], t[1]])
    return st.one_of(entry.filter(lambda v: not isinstance(v, list)), bad)


def _confused(system: str, path: tuple[str, ...]):
    """A value of the wrong type for the field at ``path``."""
    if path == ("ansatz",) or path == ("integrator",):
        return _not_an_object
    if path[0] in ("system", "chart", "expect"):
        return _not_a_string
    if path == ("initial",):
        return _confused_list(_not_a_number)
    if path[0] == "ansatz":
        kind = runio._ANSATZ[system][1][path[1]]
        return {int: _not_an_integer, float: _not_a_number, tuple: _confused_list(_not_an_integer)}[kind]
    return _not_a_number


def _config_fields(system: str):
    """Every field the loader reads, as its path in the document."""
    return [
        *((field,) for field in runio._FIELDS),
        *(("integrator", field) for field in runio._INTEGRATOR_FIELDS),
        *(("ansatz", field) for field in runio._ANSATZ[system][1]),
    ]


@pytest.mark.parametrize(
    "system, path",
    [(system, path) for system in sorted(_EDGE_BASE) for path in _config_fields(system)],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else v,
)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_type_confused_field_is_config_error_naming_it(system, path, data, tmp_path_factory):
    value = data.draw(_confused(system, path))
    doc = json.loads(config_path(_EDGE_BASE[system]).read_text())
    if len(path) == 1:
        doc[path[0]] = value
    else:
        doc.setdefault(path[0], {})[path[1]] = value
    tmp = tmp_path_factory.mktemp("confused")
    cfg = write_json(tmp, "c.json", doc)
    name = re.compile(rf"'{re.escape('.'.join(path))}(\[\d+\])?'")
    commands = [
        ["solve", "--config", cfg, "--out", str(tmp / "o")],
        ["probe-c0", "--config", cfg, "--c", "5", "--tau", "0.5", "--out", str(tmp / "p")],
        ["sweep", "--config", cfg, "--grid", "C=-1:-1:2", "--out", str(tmp / "sw")],
    ]
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 64, (argv[0], path, value)
        assert name.search(err.getvalue()), (argv[0], path, value, err.getvalue())
    assert sorted(p.name for p in tmp.iterdir()) == ["c.json"]


def test_a_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # each exited 1 with a UnicodeDecodeError; curvature exited 64 on the same bytes
    path = tmp_path / "c.json"
    path.write_bytes(config_path("ts_probe_d1.json").read_bytes().rstrip() + b"\xff")
    commands = [
        ["solve", "--config", str(path), "--out", str(tmp_path / "o")],
        ["sweep", "--config", str(path), "--grid", "C=-1:-1:2", "--out", str(tmp_path / "sw")],
        ["probe-c0", "--config", str(path), "--c", "5", "--tau", "0.5", "--out", str(tmp_path / "p")],
    ]
    for argv in commands:
        assert main(argv) == 64, argv[0]
        assert capsys.readouterr().err.startswith("error: cannot read config: 'utf-8' codec can't decode"), argv[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


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


@pytest.mark.parametrize("name", sorted(SHIPPED_OUTPUTS))
def test_a_shipped_config_keeps_its_outputs(tmp_path, name):
    out = tmp_path / "o"
    got = {"exit": main(["solve", "--config", str(config_path(name)), "--out", str(out)])}
    for output in ("trajectory.csv", "rescaled.csv", "report.json"):
        if (out / output).exists():
            got[output] = hashlib.sha256((out / output).read_bytes()).hexdigest()
    kd = json.loads((out / "manifest.json").read_text())["key_diagnostics"]
    for chart, counts in (("physical", kd), ("compact", kd.get("rescaled"))):
        if counts is not None:
            got[chart] = (counts["n_accepted"], counts["n_rejected"], counts["n_rhs"])
    assert got == SHIPPED_OUTPUTS[name]


def test_every_shipped_config_has_its_outputs_pinned():
    names = [path.name for path in (files("solitonlab") / "configs").iterdir() if path.name.endswith(".json")]
    assert sorted(names) == sorted(SHIPPED_OUTPUTS)


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
        from solitonlab import codegen, integrator, rescaled
        from solitonlab.runio import run_solve

        cfg = load_config(str(config_path("dw_m2_chart.json")))
        a, eps = cfg.spec.ansatz, cfg.spec.epsilon
        n = 2 * (a.m + 1) + 3
        caches = (
            codegen._rates_kernel,
            integrator._run_kernel,
            integrator._min_of,
            integrator._overflow,
            integrator._validity,
        )
        for cache in caches:
            cache.cache_clear()
        run_solve(cfg, str(tmp_path / "o"))
        misses = [cache.cache_info().misses for cache in caches]
        rhs = rescaled.make_rescaled_vector_rhs(a, eps)
        events = (
            integrator.EventSpec("t_target", rescaled._t_target(n, cfg.t_max)),
            integrator.EventSpec("chart_degenerate", integrator._min_of(a.m + 1, 2 * (a.m + 1) + 1, n)),
            integrator.EventSpec("overflow", integrator._overflow(n)),
        )
        # the run kernel, which also takes the step to the t_target event
        run_cfg = integrator.IntegratorConfig(math.inf, events=events, validity=integrator._validity(n, 0))
        integrator.compile_run(rhs, n, run_cfg)
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

    @pytest.mark.parametrize("name", ["dw_m2_chart.json", "dw_e1_c10.json"])
    def test_the_charts_are_compared_over_the_whole_run(self, tmp_path, name):
        # slow time has no cap of its own: at t_max 100 the compact chart
        # reaches t = 100 (one at s = 400 stopped dw_m2_chart at t = 55.47
        # and dw_e1_c10 at t = 34.59)
        doc = json.loads(config_path(name).read_text()) | {"chart": "both"}
        doc["integrator"] = dict(doc["integrator"], t_max=100.0)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        comparison = json.loads((out / "report.json").read_text())["chart_comparison"]
        assert comparison["t_hi"] == manifest["key_diagnostics"]["t_end"] == 100.0
        assert comparison["max_rel_deviation"] <= 1e-6
        assert manifest["reasons"] == []

    def test_a_compact_run_ending_at_t_target_names_no_span(self, tmp_path):
        # dw_e0_c0's compact run to t_max 300 ends at its t_target event with
        # a carried t of 299.99999999981111: it reached t_max, and the 2e-10
        # short of it is rounding, not a span left out.  The charts deviate
        # by 7.3e-6 there, the one reason the run is inconclusive.
        doc = json.loads(config_path("dw_e0_c0.json").read_text()) | {"chart": "both"}
        doc["integrator"] = dict(doc["integrator"], t_max=300.0)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        comparison = json.loads((out / "report.json").read_text())["chart_comparison"]
        t_hi = comparison["t_hi"]
        assert t_hi == 299.99999999981111 < manifest["key_diagnostics"]["t_end"] == 300.0
        assert manifest["reasons"] == [f"chart deviation {comparison['max_rel_deviation']:.3e} above 1.000e-06"]

    @pytest.mark.parametrize("t_max, code, verdict", [(100.0, 0, "numerically_complete"), (150.0, 2, "inconclusive")])
    def test_charts_that_disagree_make_the_run_inconclusive(self, tmp_path, capsys, t_max, code, verdict):
        # dw_e0_c0's charts deviate by 8.0e-7 at t_max 100 and by 1.8e-6 at
        # 150: past 1e-6 the failed chart_comparison check was written under
        # a numerically_complete verdict with no reason, and the run exited 0
        doc = json.loads(config_path("dw_e0_c0.json").read_text()) | {"chart": "both"}
        doc["integrator"] = dict(doc["integrator"], t_max=t_max)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_json(tmp_path, "c.json", doc), "--out", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "report.json").read_text())
        deviation = report["chart_comparison"]["max_rel_deviation"]
        (check,) = [c for c in report["checks"] if c["name"] == "chart_comparison"]
        assert check["ok"] == (deviation <= 1e-6) == (code == 0)
        assert manifest["verdict"] == report["verdict"]["kind"] == verdict
        reasons = [] if code == 0 else [f"chart deviation {deviation:.3e} above 1.000e-06"]
        assert manifest["reasons"] == report["verdict"]["reasons"] == reasons
        assert ("note: inconclusive (chart deviation" in capsys.readouterr().out) == (code == 2)

    def test_a_comparison_short_of_the_run_names_the_span_left_out(self, tmp_path, monkeypatch):
        # a compact run capped at 300 attempts ends short of the run's t_max;
        # the cap is patched in here, before the fork, so the child that
        # integrates the compact chart inherits it
        from solitonlab import integrator, rescaled

        cap = 300

        def capped(rhs, t0, y0, cfg):
            return integrator.integrate(rhs, t0, y0, dataclasses.replace(cfg, max_steps=cap))

        monkeypatch.setattr(rescaled, "integrate", capped)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(config_path("dw_m2_chart.json")), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "report.json").read_text())
        kd = manifest["key_diagnostics"]
        assert kd["rescaled"]["n_accepted"] + kd["rescaled"]["n_rejected"] == cap
        t_hi, t_end = report["chart_comparison"]["t_hi"], kd["t_end"]
        assert t_hi < t_end == 10.0
        # a span left out is a reason, and a run with a reason is inconclusive
        assert manifest["verdict"] == report["verdict"]["kind"] == "inconclusive"
        assert manifest["reasons"] == report["verdict"]["reasons"] == [
            f"the charts are compared up to t = {_fmt(t_hi)}, where the compact chart ends;"
            f" ({_fmt(t_hi)}, {_fmt(t_end)}] is not compared"
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
        assert errors == {"cell_0001": "integration failed: no convergence in cell 1"}
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
        # the base once, to validate it, then each cell once
        assert parsed == [BASE, *(dict(BASE, C=c) for c in (-0.5, -1.0, -1.5))]

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
        message = "lane lost: the child process ended with no result (wait status 768)"
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
        assert errors == {"cell_0003": "lane lost: the child process ended with no result (wait status 768)"}
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
        assert errors["cell_0199"] == "integration failed: cell 0199 " + "x" * 2000
        assert errors["cell_0198"] == "integration failed: cell 0198"

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
        # the DP5 run kernel is compiled once per process: by this process for
        # its share and by the child for its own; a second sweep's child
        # inherits this process's kernels
        from solitonlab import integrator

        integrator._run_kernel.cache_clear()
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

        rows = (trajectory._shape_row, trajectory._set_row)
        for cache in rows:
            cache.cache_clear()
        cfg = shipped("dw_e0_c1.json", tmp_path)
        args = ["--grid", "g1=0.8:0.2:3", "--jobs", "1", "--out", str(tmp_path / "sw")]
        assert main(["sweep", "--config", cfg, *args]) == 0
        manifests = [json.loads((tmp_path / f"sw/cell_{i:04d}/manifest.json").read_text()) for i in range(3)]
        compiles = [m["counters"]["kernel_compiles"] for m in manifests]
        assert compiles[0] >= 2 and compiles[1:] == [0, 0]
        assert [cache.cache_info().currsize for cache in rows] == [1, 1]

    def test_a_size_sweep_of_two_factors_compiles_only_its_set_row_and_run_kernel(self, tmp_path):
        # g1 moves c0, which the set row reads and the shape row does not:
        # a cold sweep compiles the right-hand side, both rows, the overflow
        # and validity tests and the run kernel once, then a set row and a
        # run kernel per cell
        from solitonlab import codegen, integrator, trajectory

        caches = (
            codegen._rates_kernel, trajectory._shape_row, trajectory._set_row,
            integrator._overflow, integrator._validity, integrator._run_kernel,
        )
        for cache in caches:
            cache.cache_clear()
        doc = json.loads(config_path("dw_m2_chart.json").read_text())
        cfg = write_json(tmp_path, "c.json", dict(doc, chart="physical"))
        args = ["--grid", "g1=3:1:4", "--jobs", "1", "--out", str(tmp_path / "sw")]
        assert main(["sweep", "--config", cfg, *args]) == 0
        manifests = [json.loads((tmp_path / f"sw/cell_{i:04d}/manifest.json").read_text()) for i in range(4)]
        assert [m["counters"]["kernel_compiles"] for m in manifests] == [6, 2, 2, 2]
        assert trajectory._shape_row.cache_info().currsize == 1

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

    def test_a_base_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        # solve refuses the same file with the same message
        cfg = write_json(tmp_path, "c.json", [])
        assert main(["sweep", "--config", cfg, "--grid", "C=-1:-1:2", "--out", str(tmp_path / "sw")]) == 64
        assert capsys.readouterr().err == "error: config document must be a JSON object\n"
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
        assert capsys.readouterr().err == "error: config document must be a JSON object\n"
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("grid", ["g1=1:1:2", "fbar=1:1:2"])
    @pytest.mark.parametrize("initial", [None, "missing"])
    def test_a_size_grid_over_a_base_without_initial_is_config_error(self, tmp_path, capsys, grid, initial):
        # a grid that would set the sizes does not stand in for them
        doc = {key: value for key, value in BASE.items() if key != "initial"}
        if initial is None:
            doc["initial"] = None
        cfg = write_json(tmp_path, "c.json", doc)
        assert main(["sweep", "--config", cfg, "--grid", grid, "--out", str(tmp_path / "sw")]) == 64
        err = capsys.readouterr().err
        assert repr(grid.split("=")[0]) in err and "'initial'" in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("field, value, grid", [("C", "oops", "C=-1:-1:2"), ("initial", ["x"], "g1=1:1:2")])
    def test_a_base_that_solve_refuses_is_config_error(self, tmp_path, capsys, field, value, grid):
        # a grid that replaces a field solve refuses does not stand in for it
        doc = json.loads(config_path("dw_e0_c1.json").read_text())
        cfg = write_json(tmp_path, "c.json", dict(doc, **{field: value}))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
        message = capsys.readouterr().err
        assert main(["sweep", "--config", cfg, "--grid", grid, "--out", str(tmp_path / "sw")]) == 64
        assert capsys.readouterr().err == message and repr(field) in message
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
        assert (report["n_solves"], report["excluded"]) == (6, [])

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


def _refuse_fork(monkeypatch):
    """Make os.fork fail as a full pid or process limit makes it fail, with
    two CPUs asking for the optional lanes."""

    def failing():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", failing, raising=False)


def _nothing_left(root):
    """No child process to reap, and no temporary file under root."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(root.rglob(".tmp_*")) == []


class TestFailedFork:
    """A refused fork: every lane (``_beside``) answers here, so each
    command runs in one process and writes what it writes with children."""

    def test_the_probe_runs_in_one_lane(self, tmp_path, monkeypatch):
        cfg = shipped("ts_probe_d1.json", tmp_path)
        _refuse_fork(monkeypatch)
        out = tmp_path / "probe"
        assert main(["probe-c0", "--config", cfg, "--c", "5", "--tau", "0.5", "--out", str(out)]) == 0
        report = json.loads((out / "probe_report.json").read_text())
        assert report["bracket"] == [-34.14849282165835, -34.33391576083122]
        assert (report["n_solves"], report["n_rhs"], report["lanes"], report["n_unused"]) == (4, 4046, 1, 0)
        _nothing_left(tmp_path)

    def test_a_chart_both_solve_writes_the_forked_bytes(self, tmp_path, monkeypatch):
        cfg = shipped("dw_m2_chart.json", tmp_path)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "forked")]) == 0
        _refuse_fork(monkeypatch)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "here")]) == 0
        for name in ("trajectory.csv", "rescaled.csv", "report.json"):
            assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes(), name
        _nothing_left(tmp_path)

    def test_a_sweep_of_two_jobs_writes_the_one_job_summary(self, tmp_path, monkeypatch):
        cfg = shipped("dw_e0_c1.json", tmp_path)
        _refuse_fork(monkeypatch)
        for jobs in ("1", "2"):
            args = ["--grid", "C=-1:-10:4", "--jobs", jobs, "--out", str(tmp_path / jobs)]
            assert main(["sweep", "--config", cfg, *args]) == 0
        summaries = [(tmp_path / jobs / "sweep_summary.csv").read_bytes() for jobs in ("1", "2")]
        assert summaries[0] == summaries[1]
        assert not (tmp_path / "2" / "sweep_errors.json").exists()
        _nothing_left(tmp_path)


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


_COMMANDS = {
    "solve": ["--config", "c.json", "--out", "o"],
    "sweep": ["--config", "c.json", "--grid", "C=-1:-1:2", "--out", "o"],
    "probe-c0": ["--config", "c.json", "--c", "5", "--tau", "0.5", "--out", "o"],
    "curvature": ["--decomposition", "d.json", "--x", "1"],
}


@pytest.mark.parametrize(
    "error, code, line",
    [
        (ConfigError("field 'C' must be a finite number"), 64, "error: field 'C' must be a finite number"),
        (ArithmeticError("float division by zero"), 70, "error: integration failed: float division by zero"),
        (RuntimeError("no step size left"), 70, "error: integration failed: no step size left"),
        (ProbeRangeError("no admissible C in (-1, -0.125]"), 3, "error: no admissible C in (-1, -0.125]"),
        (LaneLost("the child process ended with no result (wait status 9)"), 71,
         "error: lane lost: the child process ended with no result (wait status 9)"),
        (KeyError("C"), 1, "error: KeyError: 'C'"),
    ],
    ids=["config", "arithmetic", "runtime", "probe range", "lane lost", "other"],
)
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_main_gives_each_command_one_exit_code_per_failure(command, error, code, line, capsys, monkeypatch):
    # only solve mapped an integrator failure to 70: the others exited 1
    from solitonlab import cli

    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), failing)
    assert main([command, *_COMMANDS[command]]) == code
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("command", ["solve", "probe-c0"])
def test_a_failing_launch_exits_70_alike_under_solve_and_probe(command, tmp_path, capfd):
    # f * f underflows at the launch slice, so the right-hand side divides by
    # zero there; probe-c0 exited 1 with the exception's type name, and a
    # sweep cell recorded that type name in place of the line solve prints
    doc = {
        "system": "dancer_wang",
        "ansatz": {"d": [10**20], "p": [2], "q": [-2]},
        "epsilon": 0.0,
        "C": -1.0,
        "initial": [1e-300],
        "integrator": {"t_max": 1.0},
    }
    args = [*_COMMANDS[command]]
    args[1], args[-1] = write_json(tmp_path, "c.json", doc), str(tmp_path / "o")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, *args]) == 70
    assert [str(w.message) for w in caught] == []
    err = capfd.readouterr().err
    assert err == (
        "error: integration failed: the right-hand side fails at the launch state"
        " t = 1.0000000000000002e-304 (float division by zero); check the sizes in 'initial'\n"
    )
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", args[1], "--grid", "C=-1:-1:1", "--out", out]) == 1
    errors = json.loads((tmp_path / "sw/sweep_errors.json").read_text())
    assert errors == {"cell_0000": err.removeprefix("error: ").rstrip("\n")}


def test_a_starting_step_that_fails_names_the_tolerances(tmp_path, capsys):
    # an abs_tol of 1e-300 makes the starting step's trial divide by zero; the
    # right-hand side is fine, so the line names the tolerances, not 'initial'
    doc = json.loads(config_path("ts_exit_einstein.json").read_text())
    doc["integrator"]["abs_tol"] = 1e-300
    cfg = write_json(tmp_path, "c.json", doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 70
    assert capsys.readouterr().err == (
        "error: integration failed: the starting step at t = 0.001 cannot be chosen (float division"
        " by zero) with integrator.abs_tol = 1e-300 and integrator.rel_tol = 1e-11\n"
    )


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

    @pytest.mark.parametrize("x", ["nan,1", "inf,1", "1,-inf"])
    def test_a_non_finite_scaling_is_config_error(self, capsys, x):
        path = str(decomposition_path("hopf_sp1_sp2.json"))
        assert main(["curvature", "--decomposition", path, "--x", x]) == 64
        assert capsys.readouterr().err == "error: metric scalings must be finite and strictly positive\n"

    @pytest.mark.parametrize(
        "x, entry",
        [("a,1", "--x[0] must be a number, got 'a'"), ("1,", "--x[1] must be a number, got ''")],
        ids=["a,1", "1,"],
    )
    def test_an_entry_that_is_not_a_number_names_its_place(self, capsys, x, entry):
        # exited 64 with float()'s message, naming neither --x nor the entry
        path = str(decomposition_path("hopf_sp1_sp2.json"))
        assert main(["curvature", "--decomposition", path, "--x", x]) == 64
        assert capsys.readouterr().err == f"error: {entry}\n"

    @pytest.mark.parametrize(
        "part, key, value, message",
        [
            ("summands", "dim", 2.7, "field 'summands[0].dim' must be an integer >= 1"),
            ("summands", "dim", True, "field 'summands[0].dim' must be an integer >= 1"),
            ("summands", "dim", 0, "field 'summands[0].dim' must be an integer >= 1"),
            ("summands", "dim", -3, "field 'summands[0].dim' must be an integer >= 1"),
            ("triples", "i", 0.9, "field 'triples[0].i' must be an integer"),
            ("summands", "b", "nan", "field 'summands[0].b' must be a finite number"),
            ("triples", "value", "inf", "field 'triples[0].value' must be a finite number"),
            ("summands", "C", 1.0, "unknown field 'summands[0].C'"),
            ("triples", "val", 1.0, "unknown field 'triples[0].val'"),
        ],
        ids=[
            "dim 2.7", "dim true", "dim 0", "dim -3", "index 0.9", "b 'nan'", "value 'inf'", "C for c", "val",
        ],
    )
    def test_a_malformed_decomposition_field_is_config_error(self, tmp_path, capsys, part, key, value, message):
        # each loaded as a truncated dim or index, or gave a nan or inf result
        doc = json.loads(decomposition_path("hopf_sp1_sp2.json").read_text())
        doc[part][0][key] = value
        path = write_json(tmp_path, "d.json", doc)
        assert main(["curvature", "--decomposition", path, "--x", "1,1"]) == 64
        # the loader's message, once prefixed
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc.update(tripels=doc.pop("triples")), "unknown field 'tripels'"),
            (lambda doc: doc.update(triples=5), "field 'triples' must be a list"),
            (lambda doc: doc.update(triples={"i": 0}), "field 'triples' must be a list"),
            (lambda doc: doc.update(summands=5), "field 'summands' must be a list"),
            (lambda doc: doc["summands"].__setitem__(0, 2), "field 'summands[0]' must be an object"),
            (lambda doc: doc["triples"].__setitem__(0, [0, 0, 1]), "field 'triples[0]' must be an object"),
            (lambda doc: doc["summands"][1].pop("b"), "missing field 'summands[1].b'"),
            (lambda doc: doc["triples"][0].pop("k"), "missing field 'triples[0].k'"),
            (lambda doc: doc["triples"][0].update(i=7), "field 'triples[0].i' is out of range: a summand index is 0 to 1"),
            (lambda doc: doc.pop("summands"), "missing field 'summands'"),
        ],
        ids=[
            "tripels", "triples 5", "triples object", "summands 5", "summand 2", "triple list",
            "no b", "no k", "index 7", "no summands",
        ],
    )
    def test_a_misnamed_or_mistyped_decomposition_part_is_config_error(self, tmp_path, capsys, change, message):
        # a misspelt triples list was ignored (scalar_curvature 39, not 34.5),
        # and a number or an object in its place exited 1 or named a key
        doc = json.loads(decomposition_path("hopf_sp1_sp2.json").read_text())
        change(doc)
        path = write_json(tmp_path, "d.json", doc)
        assert main(["curvature", "--decomposition", path, "--x", "1,1"]) == 64
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_unreadable_decomposition_names_the_reader_once(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["curvature", "--decomposition", missing, "--x", "1,1"]) == 64
        err = capsys.readouterr().err
        assert err == f"error: cannot read decomposition: [Errno 2] No such file or directory: {missing!r}\n"

    def test_a_decomposition_off_the_wang_ziller_identity_exits_65(self, tmp_path, capsys):
        # a Casimir constant raised by 1 moves summand 0's residual to 2 d_0 = 6;
        # the curvature of such a file was printed with exit 0
        doc = json.loads(decomposition_path("hopf_sp1_sp2.json").read_text())
        doc["summands"][0]["c"] += 1
        path = write_json(tmp_path, "d.json", doc)
        assert main(["curvature", "--decomposition", path, "--x", "1,1"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "wang_ziller violation: summand 0: residual 6.0 not below 1e-10\n"

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in (files("solitonlab") / "decompositions").iterdir() if p.name.endswith(".json"))
    )
    def test_each_shipped_decomposition_is_valid(self, name, capsys):
        from solitonlab.geometry import load_decomposition, validate

        dec = load_decomposition(str(decomposition_path(name)))
        assert validate(dec).ok
        x = ",".join(["1"] * dec.s)
        assert main(["curvature", "--decomposition", str(decomposition_path(name)), "--x", x]) == 0
        assert capsys.readouterr().err == ""

    def test_dimension_mismatch_is_config_error(self):
        code = main(
            ["curvature", "--decomposition", str(decomposition_path("su2_unit.json")), "--x", "1,2"]
        )
        assert code == 64
