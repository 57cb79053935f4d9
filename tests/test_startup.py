"""What a command pays before it starts: the modules the CLI imports, and the
report records that replaced dataclasses without moving a byte of output."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import solitonlab
from solitonlab import Report
from solitonlab.geometry import load_decomposition, validate
from solitonlab.monitors import growth_probe, two_summands_roots
from solitonlab.rescaled import rescaled_locus_residuals, solve_rescaled
from solitonlab.runio import _jsonable, build_report, load_config, run_solve
from solitonlab.systems import TwoSummandsAnsatz

from conftest import (
    CONFIG_NAMES_GRID,
    REPORT_BLOCKS,
    REPORT_DIGESTS,
    REPORT_FIELDS,
    config_path,
    decomposition_path,
    load_shipped,
)

# modules that only some commands use: run ids (hashlib), the compact chart
# (rescaled) and the basis-level curvature oracle (lie_bases); and a process
# pool's (concurrent.futures and multiprocessing, and the logging that
# concurrent.futures loads), which no command uses: a sweep forks its
# children itself
COMMAND_ONLY = (
    "concurrent.futures",
    "multiprocessing",
    "logging",
    "hashlib",
    "solitonlab.rescaled",
    "solitonlab.lie_bases",
)


# the solver: what ``curvature``, which needs only geometry, must not load
SOLVER = (
    "solitonlab.runio",
    "solitonlab.monitors",
    "solitonlab.trajectory",
    "solitonlab.integrator",
    "solitonlab.codegen",
)


def modules_loaded_by(code: str, *args) -> set:
    """The modules a fresh interpreter has loaded after running ``code``,
    which must print them as a JSON list on its last line."""
    src = os.path.dirname(os.path.dirname(solitonlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_command_only_module():
    code = "import json, sys; from solitonlab import cli, runio; print(json.dumps([*sys.modules]))"
    loaded = modules_loaded_by(code)
    assert "solitonlab.monitors" in loaded  # the child imported this package
    assert sorted(loaded.intersection(COMMAND_ONLY)) == []


def test_a_parallel_sweep_loads_no_process_pool(tmp_path):
    code = (
        "import json, sys; from solitonlab import cli; "
        "code = cli.main(['sweep', '--config', sys.argv[1], '--grid', 'C=-1:-1:3', "
        "'--jobs', '2', '--out', sys.argv[2]]); "
        "print(json.dumps([*sys.modules]) if code == 0 else code)"
    )
    loaded = modules_loaded_by(code, str(config_path("ts_e0_c1.json")), str(tmp_path / "sw"))
    assert "solitonlab.runio" in loaded
    assert sorted(loaded.intersection(("concurrent.futures", "multiprocessing"))) == []


def test_curvature_loads_no_solver_module():
    code = (
        "import json, sys; from solitonlab import cli; "
        "code = cli.main(['curvature', '--decomposition', sys.argv[1], '--x', '1,1']); "
        "print(json.dumps([*sys.modules]) if code == 0 else code)"
    )
    loaded = modules_loaded_by(code, str(decomposition_path("hopf_sp1_sp2.json")))
    assert "solitonlab.geometry" in loaded
    assert sorted(loaded.intersection(SOLVER + COMMAND_ONLY)) == []


def keys_of(report) -> list:
    return sorted(_jsonable(report))


def test_report_json_keeps_the_dataclass_keys_and_bytes(tmp_path):
    # a ts, a dw with chart: both and an lpp run hold every report block
    blocks = set()
    for name, digest in REPORT_DIGESTS.items():
        out = tmp_path / name
        run_solve(load_config(str(config_path(name))), str(out))
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
        for block in report.keys() & REPORT_BLOCKS.keys():
            fields = REPORT_FIELDS[REPORT_BLOCKS[block]]
            assert sorted(report[block]) == sorted(fields), (name, block)
            blocks.add(block)
        assert hashlib.sha256(raw).hexdigest() == digest, name
    assert blocks == REPORT_BLOCKS.keys()


def test_reports_keep_their_keys_on_every_path(shipped_runs):
    # C = 0 (no potential violations list given), steady and expanding
    # asymptotes, all three systems
    kinds = set()
    for name in CONFIG_NAMES_GRID:
        report = build_report(shipped_runs[name])
        for block, kind in REPORT_BLOCKS.items():
            if block in report:
                assert keys_of(report[block]) == sorted(REPORT_FIELDS[kind]), (name, block)
        kinds.add(report["asymptote"].kind)
    assert kinds == {"steady", "expanding"}
    # no preserved window: the roots report sets only anchor and D
    no_window = two_summands_roots(TwoSummandsAnsatz(d1=3, d2=4, A1=6.0, A2=1.0, A3=12.0))
    assert no_window.D < 0 and no_window.omega2 is None
    assert keys_of(no_window) == sorted(REPORT_FIELDS["TwoSummandsDiagnostics"])
    dec = load_decomposition(str(decomposition_path("hopf_sp1_sp2.json")))
    assert keys_of(validate(dec)) == sorted(REPORT_FIELDS["ValidationReport"])
    spec = load_shipped("dw_m2_chart.json").spec
    r = solve_rescaled(spec, t_max=0.5).samples
    residuals = rescaled_locus_residuals(r, spec.ansatz, spec.epsilon)
    assert keys_of(residuals) == sorted(REPORT_FIELDS["LocusResiduals"])
    probe = growth_probe(load_shipped("ts_probe_d1.json").spec, c=2.0, tau=0.25)
    assert keys_of(probe) == sorted(REPORT_FIELDS["GrowthProbeReport"])


def test_reports_compare_and_print_by_their_fields():
    a = TwoSummandsAnsatz(d1=3, d2=4, A1=6.0, A2=48.0, A3=12.0)
    first, second = two_summands_roots(a), two_summands_roots(a)
    assert isinstance(first, Report)
    assert first == second and first is not second
    second.omega2 = np.nextafter(second.omega2, 0.0)
    assert first != second
    assert repr(first).startswith("TwoSummandsDiagnostics(anchor=")
    assert list(vars(first)) == list(REPORT_FIELDS["TwoSummandsDiagnostics"])
