"""trajectory.csv streamed to a forked lane while the integrator runs
(``runio._csv_stream``), against the same file written in one process."""

import os
import time

import pytest

from solitonlab import _lanes, runio
from solitonlab.runio import load_config, run_solve, write_trajectory_csv
from solitonlab.trajectory import solve_problem

from conftest import SHIPPED_CONFIG_NAMES, config_path, forked_children

BLOCK = 256  # the samples the integrator hands a sink at a time
streams = pytest.mark.skipif(_lanes() == 1, reason="the stream needs os.fork and two CPUs")


def reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def streamed(cfg, path, t_max=None):
    """The physical run of cfg to t_max (its own by default), its
    trajectory.csv streamed to path."""
    delta = cfg.launch_delta
    with runio._csv_stream(str(path), cfg.spec, delta) as stream:
        traj = solve_problem(
            cfg.spec,
            t_max=cfg.t_max if t_max is None else t_max,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            delta=delta,
            sink=stream.sink,
        )
        stream.rest(traj)
        child = stream.done()
    return traj, child


def long_run():
    """dw_complete_steady: 14 blocks of samples."""
    return load_config(str(config_path("dw_complete_steady.json")))


@streams
@pytest.mark.parametrize("name", SHIPPED_CONFIG_NAMES)
def test_the_streamed_csv_is_the_written_one(name, tmp_path, monkeypatch):
    # every shipped run fills some blocks; ts_exit_einstein ends at an event
    cfg = load_config(str(config_path(name)))
    children = forked_children(monkeypatch)
    traj, child = streamed(cfg, tmp_path / "streamed.csv")
    assert len(traj.ts) >= BLOCK
    assert list(child) == ["stream trajectory.csv"]
    write_trajectory_csv(str(tmp_path / "written.csv"), traj)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "written.csv").read_bytes()
    assert len(children) == 1
    reaped(children)
    assert sorted(os.listdir(tmp_path)) == ["streamed.csv", "written.csv"]


@streams
@pytest.mark.parametrize("samples", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
def test_runs_near_a_block_stream_alike(samples, tmp_path, monkeypatch):
    # a run shorter than a block forks nothing; one of whole blocks sends
    # an empty rest
    cfg = load_config(str(config_path("ts_e0_c1.json")))
    full = solve_problem(cfg.spec, t_max=cfg.t_max, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
    children = forked_children(monkeypatch)
    traj, child = streamed(cfg, tmp_path / "streamed.csv", t_max=float(full.ts[samples - 1]))
    assert len(traj.ts) == samples
    assert len(children) == (samples >= BLOCK) and bool(child) == (samples >= BLOCK)
    write_trajectory_csv(str(tmp_path / "written.csv"), traj)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "written.csv").read_bytes()
    reaped(children)


@pytest.mark.parametrize("lanes", ["one CPU", "no fork"])
def test_one_lane_forks_nothing_and_writes_the_same_bytes(lanes, tmp_path, monkeypatch):
    cfg = long_run()
    two = run_solve(cfg, str(tmp_path / "two"))
    with monkeypatch.context() as mp:
        if lanes == "one CPU":
            mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            mp.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        else:
            mp.delattr(os, "fork")
        one = run_solve(cfg, str(tmp_path / "one"))
    assert "stream trajectory.csv" not in one["timings"]
    assert ("stream trajectory.csv" in two["timings"]) == (_lanes() == 2)
    for name in ("trajectory.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


@streams
def test_the_manifest_times_the_wait_and_the_child(tmp_path):
    manifest = run_solve(long_run(), str(tmp_path / "o"))
    timings = manifest["timings"]
    assert {"solve", "report", "write trajectory.csv", "stream trajectory.csv"} <= timings.keys()
    assert all(v >= 0.0 for v in timings.values())
    assert manifest["artifacts"] == ["trajectory.csv", "report.json", "manifest.json"]


@streams
def test_a_failure_here_kills_the_child_and_leaves_no_file(tmp_path, monkeypatch):
    here = os.getpid()
    columns = runio._trajectory_columns

    def slow(traj):
        # the child still formats the last samples when this process fails
        # (a child slow on every block would hold up the integration instead)
        if os.getpid() != here and len(traj.ts) < BLOCK:
            time.sleep(60)
        return columns(traj)

    def interrupted(traj):
        raise KeyboardInterrupt

    monkeypatch.setattr(runio, "_trajectory_columns", slow)
    monkeypatch.setattr(runio, "build_report", interrupted)
    children = forked_children(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_solve(long_run(), str(tmp_path / "o"))
    assert time.monotonic() - start < 30.0
    assert len(children) == 1
    reaped(children)
    assert os.listdir(tmp_path / "o") == []


@streams
def test_an_error_in_the_child_is_raised_here(tmp_path, monkeypatch):
    here = os.getpid()
    lines = runio._csv_lines
    blocks = []

    def failing(columns):
        blocks.append(None)
        if os.getpid() != here and len(blocks) == 2:
            raise OSError(28, "No space left on device")
        return lines(columns)

    monkeypatch.setattr(runio, "_csv_lines", failing)
    children = forked_children(monkeypatch)
    with pytest.raises(OSError, match="No space left on device"):
        run_solve(long_run(), str(tmp_path / "o"))
    reaped(children)
    assert os.listdir(tmp_path / "o") == []


@streams
def test_a_child_that_dies_leaves_the_csv_written_here(tmp_path, monkeypatch):
    cfg = long_run()
    run_solve(cfg, str(tmp_path / "a"))
    here = os.getpid()
    lines = runio._csv_lines

    def dying(columns):
        if os.getpid() != here:
            os._exit(3)
        return lines(columns)

    monkeypatch.setattr(runio, "_csv_lines", dying)
    children = forked_children(monkeypatch)
    manifest = run_solve(cfg, str(tmp_path / "b"))
    assert len(children) == 1
    reaped(children)
    assert "stream trajectory.csv" not in manifest["timings"]
    assert (tmp_path / "a/trajectory.csv").read_bytes() == (tmp_path / "b/trajectory.csv").read_bytes()
    assert sorted(os.listdir(tmp_path / "b")) == ["manifest.json", "report.json", "trajectory.csv"]


def test_a_run_beside_an_open_lane_writes_here(tmp_path, monkeypatch):
    # chart: both holds the compact chart's lane open while the physical
    # chart solves: the compact chart is the run's one child
    children = forked_children(monkeypatch)
    manifest = run_solve(load_config(str(config_path("dw_m2_chart.json"))), str(tmp_path / "o"))
    assert "stream trajectory.csv" not in manifest["timings"]
    assert len(children) == (1 if hasattr(os, "fork") else 0)
    reaped(children)


@streams
def test_a_fork_that_fails_leaves_the_csv_written_here(tmp_path, monkeypatch):
    cfg = long_run()
    run_solve(cfg, str(tmp_path / "a"))

    def failing():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing)
    manifest = run_solve(cfg, str(tmp_path / "b"))
    assert "stream trajectory.csv" not in manifest["timings"]
    assert (tmp_path / "a/trajectory.csv").read_bytes() == (tmp_path / "b/trajectory.csv").read_bytes()
    assert sorted(os.listdir(tmp_path / "b")) == ["manifest.json", "report.json", "trajectory.csv"]
