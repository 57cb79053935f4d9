"""The four workloads: inputs made from a seed, one operation, and the checks
that every operation's outputs must pass.

Seed 0 gives the shipped inputs exactly.  Other seeds move only the sweep
grid and the probe target, inside ranges where every check passes; ``solve``
and ``chart_both`` always run the shipped configs, so their recorded
verdicts and CSV digests apply at every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

from solitonlab import cli, monitors, runio

CONSERVATION_TOL = 1e-8  # times (1 + |C|)
CHART_TOL = 1e-6


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Outcome:
    """What the checks of one operation found."""

    def __init__(self):
        self.problems: list[str] = []
        self.conservation_rel = 0.0
        self.chart_deviation = 0.0
        self.digests: dict[str, str] = {}  # output file -> sha256
        self.verdicts: dict[str, list] = {}  # run -> [verdict, termination]
        self.counts: dict = {}  # deterministic counts visible without tracing
        self.extra: dict[str, float] = {}

    def require(self, cond: bool, what: str):
        if not cond:
            self.problems.append(what)

    def check_run(self, label: str, outdir: str, manifest: dict) -> dict:
        """Checks shared by every ``run_solve``: report checks, conservation,
        chart agreement; records the verdict and the CSV digests.  Returns
        the report."""
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        for check in report["checks"]:
            self.require(check.get("ok", True), f"{label}: check {check['name']} not ok")
        C = manifest["config"]["C"]
        cons = manifest["key_diagnostics"]["max_conservation_residual"]
        rel = cons / (1.0 + abs(C))
        self.require(rel <= CONSERVATION_TOL, f"{label}: conservation {rel:.3e} above tolerance")
        self.conservation_rel = max(self.conservation_rel, rel)
        if "chart_comparison" in report:
            dev = report["chart_comparison"]["max_rel_deviation"]
            self.require(dev <= CHART_TOL, f"{label}: chart deviation {dev:.3e} above tolerance")
            self.chart_deviation = max(self.chart_deviation, dev)
        self.verdicts[label] = [manifest["verdict"], manifest["termination"]]
        for name in ("trajectory.csv", "rescaled.csv"):
            path = os.path.join(outdir, name)
            if os.path.exists(path):
                self.digests[f"{label}/{name}"] = sha256_of(path)
        return report


class Workload:
    name = ""
    configs: tuple[str, ...] = ()  # shipped configs the workload loads
    seed_free = False  # inputs do not depend on the seed
    pool_workers = 0  # worker processes the operation keeps alive at once

    def __init__(self, root: str, seed: int):
        self.configs_dir = os.path.join(root, "src", "solitonlab", "configs")
        self.seed = seed
        self.rng = random.Random(seed)

    def config_paths(self) -> list[str]:
        """Configs the workload loads; set-up time covers loading them."""
        return [os.path.join(self.configs_dir, name + ".json") for name in self.configs]

    def run(self, out: str):
        """One operation, writing under ``out``; timed by the caller."""
        raise NotImplementedError

    def check(self, result, out: str, tracer=None) -> Outcome:
        raise NotImplementedError

    def inputs(self) -> dict:
        """The generated inputs, as recorded with every result."""
        return {"configs": [os.path.basename(p) for p in self.config_paths()]}


class Solve(Workload):
    """One ``run_solve`` per family, each to t_max=100 with no event firing
    (about 8.5k accepted steps in all).  Chosen as the long-horizon case:
    report plus CSV take about half the time, the integrator the rest."""

    name = "solve"
    configs = ("ts_complete_steady", "dw_complete_steady", "lpp_complete_steady")
    seed_free = True

    def run(self, out):
        manifests = {}
        for name, path in zip(self.configs, self.config_paths()):
            cfg = runio.load_config(path)
            manifests[name] = runio.run_solve(cfg, os.path.join(out, name))
        return manifests

    def check(self, result, out, tracer=None):
        o = Outcome()
        for name, manifest in result.items():
            o.require(runio.exit_code_for(manifest) == 0, f"{name}: expectation not met")
            o.check_run(name, os.path.join(out, name), manifest)
        return o


class ChartBoth(Workload):
    """``run_solve`` on the ``chart: both`` config.  Chosen because it is the
    only workload that drives the compact chart: four integrations, the
    rescaled CSV, the chart comparison and t_target event refinement."""

    name = "chart_both"
    configs = ("dw_m2_chart",)
    seed_free = True

    def run(self, out):
        cfg = runio.load_config(self.config_paths()[0])
        return runio.run_solve(cfg, os.path.join(out, self.configs[0]))

    def check(self, result, out, tracer=None):
        o = Outcome()
        o.require(runio.exit_code_for(result) == 0, "expectation not met")
        label = self.configs[0]
        report = o.check_run(label, os.path.join(out, label), result)
        o.require("chart_comparison" in report, "no chart comparison reported")
        return o


class Probe(Workload):
    """``growth_probe`` on ts_probe_d1 at tau=0.5: 40 short solves, one of them
    excluded, and no output files.  Chosen because almost all of its time is
    in the integrator and the right-hand side, so lane batching and the probe
    scan show here while post-processing changes should not."""

    name = "probe"
    configs = ("ts_probe_d1",)
    TAU = 0.5

    def __init__(self, root, seed):
        super().__init__(root, seed)
        # c in [4.5, 5.5] keeps the bracket inside the scanned grid
        self.c = 5.0 if seed == 0 else round(self.rng.uniform(4.5, 5.5), 6)
        self.cfg = runio.load_config(self.config_paths()[0])

    def inputs(self):
        return super().inputs() | {"c": self.c, "tau": self.TAU}

    def run(self, out):
        cfg = self.cfg
        return monitors.growth_probe(
            cfg.spec, c=self.c, tau=self.TAU, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
            delta=cfg.launch_delta,
        )

    def check(self, result, out, tracer=None):
        o = Outcome()
        slopes = dict(result.samples)
        c_fail, c_success = result.bracket
        o.require(slopes.get(c_success, -1.0) >= self.c, "bracket success end below target")
        o.require(c_fail is None or slopes.get(c_fail, self.c) < self.c,
                  "bracket fail end reaches target")
        o.require(c_fail is None or c_fail - c_success <= 0.01 * abs(c_success),
                  "bracket wider than 1 %")
        o.verdicts["probe"] = [list(result.bracket)]
        o.counts["monitors.probe_samples"] = len(result.samples)
        o.counts["monitors.probe_excluded"] = len(result.excluded)
        if tracer is not None:
            # deterministic per seed, so the traced operation's value stands for the run
            evals = []
            for traj in tracer.probe_trajectories:
                C = traj.spec.C
                rel = monitors.conservation_report(traj).max_abs_residual / (1.0 + abs(C))
                o.require(rel <= CONSERVATION_TOL, f"C={C!r}: conservation {rel:.3e} above tolerance")
                o.conservation_rel = max(o.conservation_rel, rel)
                ok = traj.reached_horizon and bool((traj.df > 0.0).all())
                evals.append((C, float(-traj.du[-1]) if ok else None))
            o.extra["monitors.probe_useful_ratio"] = useful_ratio(evals, self.c)
        return o


def useful_ratio(evals: list[tuple[float, float | None]], c: float) -> float:
    """Share of probe evaluations that did useful work: every evaluation up to
    the first success, then only those that fall strictly inside the current
    (success, fail) bracket and so can narrow it.  Excluded runs inside the
    bracket count as attempts to narrow it."""
    useful = 0
    succ = None
    fail = None  # weakest-known failing C above the success end
    fails = []
    for C, slope in evals:
        if succ is None:
            useful += 1
            if slope is not None and slope >= c:
                succ = C
                above = [f for f in fails if f > succ]
                fail = min(above) if above else None
            elif slope is not None:
                fails.append(C)
            continue
        if C > succ and (fail is None or C < fail):
            useful += 1
            if slope is not None and slope >= c:
                succ = C
            elif slope is not None:
                fail = C
    return useful / len(evals) if evals else 0.0


class Sweep(Workload):
    """``solitonlab sweep`` of dw_e0_c1 over a 4 x 3 grid of (C, g1) with
    ``--jobs 2``.  Chosen because it runs many medium solves in parallel, each
    paying report, CSV and manifest costs, plus the process pool: a change
    that helps long runs but costs per-run overhead shows here."""

    name = "sweep"
    configs = ("dw_e0_c1",)
    pool_workers = 2

    def __init__(self, root, seed):
        super().__init__(root, seed)
        if seed == 0:
            self.grid = [("C", -1.0, -10.0, 4), ("g1", 0.5, 0.5, 3)]
        else:
            # within 5 % of the shipped grid: the largest conservation residual
            # sits at the grid origin and moves with it
            u = self.rng.uniform
            self.grid = [
                ("C", round(-u(0.95, 1.05), 6), round(-u(9.5, 10.5), 6), 4),
                ("g1", round(u(0.475, 0.525), 6), round(u(0.475, 0.525), 6), 3),
            ]

    def grid_args(self) -> list[str]:
        return [f"{param}={start!r}:{step!r}:{count}" for param, start, step, count in self.grid]

    def inputs(self):
        return super().inputs() | {"grid": self.grid_args(), "jobs": self.pool_workers}

    def argv(self, out):
        args = ["sweep", "--config", self.config_paths()[0]]
        for grid in self.grid_args():
            args += ["--grid", grid]
        return args + ["--jobs", str(self.pool_workers), "--out", out]

    def run(self, out):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(out))

    def check(self, result, out, tracer=None):
        o = Outcome()
        o.require(result == 0, f"sweep exited {result}")
        cells = sorted(d for d in os.listdir(out) if d.startswith("cell_"))
        n_cells = math.prod(count for *_, count in self.grid)
        o.require(len(cells) == n_cells, f"{len(cells)} cell directories, expected {n_cells}")
        cell_s, failed, per_cell = 0.0, 0, []
        for cell in cells:
            path = os.path.join(out, cell, "manifest.json")
            if not os.path.exists(path):
                failed += 1
                o.problems.append(f"{cell}: no manifest")
                continue
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            before = len(o.problems)
            o.check_run(cell, os.path.join(out, cell), manifest)
            kd = manifest["key_diagnostics"]
            per_cell.append([kd["n_accepted"], kd["n_rejected"]])
            failed += len(o.problems) > before
            cell_s += manifest["wall_time_s"]
        # the workers' integrate calls are not visible here; their manifests are
        o.counts["integrator.n_accepted"] = sum(a for a, _ in per_cell)
        o.counts["integrator.n_rejected"] = sum(r for _, r in per_cell)
        o.counts["integrator.per_cell"] = per_cell
        o.extra["cli.cell_s_sum"] = cell_s
        o.extra["cli.cells_failed"] = failed
        return o


WORKLOADS = {w.name: w for w in (Solve, ChartBoth, Probe, Sweep)}
