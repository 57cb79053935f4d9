"""Run configs, trajectory/report/manifest files, and deterministic output.

Every CSV float is written with 17 significant digits, so re-running a
config yields byte-identical CSV.  The manifest is written atomically and
last, after every data file it lists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import tempfile
import time
from types import SimpleNamespace

import numpy as np

from . import (
    ConfigError, LaneLost, Report, __version__, _beside, _field, _fmt, _lanes, _need, _only, _read_json,
    codegen,
)
from . import monitors as mon
from .integrator import IntegrationResult
from .launch import default_delta, rescaled_default_delta
from .systems import DancerWangAnsatz, LuPagePopeAnsatz, ProblemSpec, TwoSummandsAnsatz
from .trajectory import Trajectory, solve_problem

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "run_solve",
    "write_trajectory_csv",
    "write_json",
    "write_svg_plot",
    "run_id_of",
]


# each system's ansatz type and the fields it reads, each an integer, a
# finite number or (tuple) a list of integers
_ANSATZ = {
    "two_summands": (TwoSummandsAnsatz, dict(d1=int, d2=int, A1=float, A2=float, A3=float)),
    "dancer_wang": (DancerWangAnsatz, dict(d=tuple, p=tuple, q=tuple)),
    "lpp": (LuPagePopeAnsatz, dict(d1=int, p1=int, q1=int, d2=int)),
}
_SYSTEMS = tuple(_ANSATZ)
_FIELDS = ("system", "ansatz", "epsilon", "C", "initial", "launch_delta", "integrator", "chart", "expect")
_INTEGRATOR_FIELDS = ("rel_tol", "abs_tol", "t_max")


@dataclasses.dataclass
class RunConfig:
    spec: ProblemSpec
    launch_delta: float  # the launch offset the run uses, resolved by load_config
    rel_tol: float
    abs_tol: float
    t_max: float
    chart: str
    expect: str | None
    raw: dict


def _build_ansatz(system: str, doc: dict):
    cls, fields = _ANSATZ[system]
    _only(doc, fields, "ansatz")
    try:
        return cls(**{field: _need(doc, field, kind, "ansatz") for field, kind in fields.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'ansatz' for system '{system}': {exc}") from exc


def load_config(source) -> RunConfig:
    """Parse and validate a run configuration (path, file object or dict)."""
    doc = _read_json(source, "config")
    _only(doc, _FIELDS)
    system = _need(doc, "system")
    if system not in _SYSTEMS:
        raise ConfigError(f"field 'system' must be one of {_SYSTEMS}, got {system!r}")
    ansatz = _build_ansatz(system, _need(doc, "ansatz"))
    initial = doc.get("initial")
    try:
        initial = tuple(_field(v, "initial") for v in (initial if isinstance(initial, list) else [initial]))
    except ConfigError:
        raise ConfigError("field 'initial' must be a finite number or a list of finite numbers") from None
    try:
        spec = ProblemSpec(
            ansatz=ansatz,
            epsilon=_need(doc, "epsilon", float),
            C=_need(doc, "C", float),
            initial=initial,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    integ = doc.get("integrator", {})
    _only(integ, _INTEGRATOR_FIELDS, "integrator")
    chart = doc.get("chart", "physical")
    if chart not in ("physical", "both"):
        raise ConfigError("field 'chart' must be physical or both")
    if chart == "both" and not isinstance(ansatz, DancerWangAnsatz):
        raise ConfigError("field 'chart': the rescaled chart exists only for dancer_wang")
    expect = doc.get("expect")
    if expect is not None and expect not in mon.VERDICTS:
        raise ConfigError(f"field 'expect': unknown verdict {expect!r}")
    # the run's launch offset, resolved here once: launch_delta, else its
    # chart's default (with chart both, both charts start at the compact one's)
    if doc.get("launch_delta") is not None:
        delta = _field(doc["launch_delta"], "launch_delta", positive=True)
    else:
        delta = rescaled_default_delta(spec) if chart == "both" else default_delta(spec)
        if not delta > 0:
            raise ConfigError("field 'initial': sizes this small leave no positive launch offset")
    t_max = _field(integ.get("t_max", 10.0), "integrator.t_max", positive=True)
    if not t_max > delta:
        raise ConfigError(
            f"field 'integrator.t_max' must exceed the launch offset {delta!r}, got {t_max!r}"
        )
    return RunConfig(
        spec=spec,
        launch_delta=delta,
        rel_tol=_field(integ.get("rel_tol", 1e-11), "integrator.rel_tol", positive=True),
        abs_tol=_field(integ.get("abs_tol", 1e-13), "integrator.abs_tol", positive=True),
        t_max=t_max,
        chart=chart,
        expect=expect,
        raw=doc,
    )


# -- formatting -------------------------------------------------------------------


def run_id_of(config_doc: dict) -> str:
    import hashlib  # only run ids need it
    blob = json.dumps(config_doc, sort_keys=True, separators=(",", ":")) + "|" + __version__
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _atomic_write(path: str, lines):
    """Write each string of ``lines`` and a newline after it to a temporary
    file beside ``path``, then move it over ``path``.  ``lines`` may be a
    generator: each string is written as it is made."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        _remove(tmp)
        raise


def _remove(path: str):
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def _jsonable(obj):
    if isinstance(obj, Report):
        obj = vars(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: str, payload: dict):
    _atomic_write(path, [json.dumps(_jsonable(payload), indent=2, sort_keys=True)])


# -- trajectory CSV -----------------------------------------------------------------


# rows converted to Python floats, formatted and written at a time: the whole
# table held as objects or as text would set the run's memory peak
_CSV_CHUNK = 256


def _csv_lines(columns: dict):
    """One header line of column names, then the rows, up to ``_CSV_CHUNK``
    of them to a string, one row per sample; a length-N value is one
    column, an (m, N) value one column per factor, numbered from 1."""
    names, values = [], []
    for name, col in columns.items():
        if np.ndim(col) == 1:
            names.append(name)
            values.append(col)
        else:
            names += [f"{name}{i + 1}" for i in range(len(col))]
            values += list(col)
    row = ",".join(["%.17g"] * len(names))
    table = np.column_stack(values)
    yield ",".join(names)
    for start in range(0, len(table), _CSV_CHUNK):
        rows = table[start : start + _CSV_CHUNK]
        yield "\n".join([row] * len(rows)) % tuple(rows.ravel().tolist())


def _write_csv(path: str, columns: dict):
    _atomic_write(path, _csv_lines(columns))


def _trajectory_columns(traj: Trajectory) -> dict:
    """trajectory.csv's columns, each a value per sample."""
    names = traj.spec.ansatz.component_names
    columns = {"t": traj.ts}
    columns |= dict(zip(names, traj.f.T))
    columns |= {f"d{n}": col for n, col in zip(names, traj.df.T)}
    columns |= {"u": traj.u, "du": traj.du}
    return columns | traj.columns


def write_trajectory_csv(path: str, traj: Trajectory):
    _write_csv(path, _trajectory_columns(traj))


@contextlib.contextmanager
def _csv_stream(path: str, spec: ProblemSpec, delta: float):
    """trajectory.csv at ``path``, written beside the integration where
    ``_lanes`` allows a second lane.  ``stream.sink`` (None with one lane)
    goes to ``solve_problem``: its first block of samples creates a
    temporary file beside ``path`` and forks a child (see ``_beside``),
    which builds each block's columns and lines as ``write_trajectory_csv``
    does and appends them.  ``stream.rest(traj)`` sends the samples after
    the last block; ``stream.done()`` waits for the child, moves the file
    to ``path`` and returns the child's seconds.  A run that filled no
    block, got a lane without a child, or whose child ended without an
    answer is written here by ``write_trajectory_csv`` and returns ``{}``.
    Leaving the block by an exception kills the child and removes the file.

    Each block is answered with None, a few bytes taken by ``done``: at
    most 200,000 / 256 of them, far below what a pipe holds.  For that, an
    error in the child is kept, the blocks after it are skipped, and
    ``done`` raises it."""
    stack = contextlib.ExitStack()
    parent = SimpleNamespace(lane=None, fd=None, tmp=None, sent=0, asked=0, traj=None)
    child = SimpleNamespace(out=None, error=None, seconds=0.0)

    def append(request):
        """Run in the child: format one block of samples into the file."""
        ts, ys, last = request
        start = time.perf_counter()
        try:
            if child.error is None and len(ts):
                ys = np.frombuffer(ys).reshape(len(ts), -1)
                block = Trajectory(spec, delta, IntegrationResult(np.frombuffer(ts), ys, None, None, ""))
                lines = _csv_lines(_trajectory_columns(block))
                if child.out is None:
                    child.out = os.fdopen(parent.fd, "w", encoding="utf-8", newline="\n")
                else:
                    next(lines)  # the header, written with the first block
                for line in lines:
                    child.out.write(line)
                    child.out.write("\n")
            if last and child.out is not None:
                child.out.close()
        except Exception as exc:
            child.error = child.error or exc
        child.seconds += time.perf_counter() - start
        if last:
            if child.error is not None:
                raise child.error
            return {"stream trajectory.csv": child.seconds}

    def sink(ts, ys):
        if parent.lane is None:
            directory = os.path.dirname(os.path.abspath(path))
            parent.fd, parent.tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
            stack.callback(_remove, parent.tmp)
            try:
                lane = stack.enter_context(_beside(append))
            finally:
                os.close(parent.fd)  # the child's copy is the one that writes
            parent.lane = lane if lane.pid else False  # no child: done() writes here
        if parent.lane:
            parent.lane.ask((ts, ys, False))
            parent.sent += len(ts)
            parent.asked += 1

    def rest(traj):
        parent.traj = traj
        if parent.lane:
            parent.lane.ask((traj.ts[parent.sent :], traj.result.ys[parent.sent :], True))
            parent.asked += 1

    def done():
        if parent.lane:
            try:
                for _ in range(parent.asked):
                    timings = parent.lane.answer()  # the last one's
            except LaneLost:  # the child is gone: write here
                pass
            else:
                os.replace(parent.tmp, path)
                return timings
        write_trajectory_csv(path, parent.traj)
        return {}

    with stack:
        yield SimpleNamespace(sink=sink if _lanes() == 2 else None, rest=rest, done=done)


def write_rescaled_csv(path: str, rtraj):
    from .rescaled import rescaled_locus_residuals  # only the compact chart needs it
    a = rtraj.spec.ansatz
    r = rtraj.samples
    res = rescaled_locus_residuals(r, a, rtraj.spec.epsilon)
    columns = {"s": r.s, "t": r.t, "u": r.u, "Lc": r.Lc}
    columns |= {f"X{i}": col for i, col in enumerate(r.X)}
    columns |= {f"Y{i}": col for i, col in enumerate(r.Y)}
    columns |= {"einstein_linear": res.einstein_linear, "einstein_quadratic": res.einstein_quadratic}
    columns |= {"kahler_sq": res.kahler_square, "kahler_slope": res.kahler_slope}
    _write_csv(path, columns)


# -- SVG line plot (no dependencies) --------------------------------------------------


def write_svg_plot(path: str, xs, series: dict, title: str):
    """Plain polyline plot of several named series against a common abscissa."""
    xs = np.asarray(xs, dtype=float)
    width, height, pad = 900, 480, 60
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
    lo = min(float(np.min(np.asarray(v))) for v in series.values())
    hi = max(float(np.max(np.asarray(v))) for v in series.values())
    if hi == lo:
        hi = lo + 1.0
    x0, x1 = float(xs[0]), float(xs[-1])
    if x1 == x0:
        x1 = x0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - lo) / (hi - lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 18}" font-size="11">{_fmt(x0)}</text>',
        f'<text x="{width - pad}" y="{height - pad + 18}" text-anchor="end" font-size="11">{_fmt(x1)}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="11">{lo:.4g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="11">{hi:.4g}</text>',
    ]
    for i, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 16 * i}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, parts)


# -- full solve pipeline ----------------------------------------------------------------


def _add_check(report: dict, name: str, payload, ok=None):
    """Put ``payload`` in the report under ``name`` and list it among the
    checks with its anchor and, when given, whether it passed."""
    report[name] = payload
    entry = {"name": name, "anchor": getattr(payload, "anchor", None)}
    if ok is not None:
        entry["ok"] = bool(ok)
    report["checks"].append(entry)


def build_report(traj: Trajectory) -> dict:
    """The run's checks of its family; the verdict, which may also read the
    chart comparison, is ``run_solve``'s to add."""
    a = traj.spec.ansatz
    report: dict = {"checks": []}
    # each invariant row's closest approach: its smallest margin, the time
    # of that sample and the candidate that attains it
    report["margins"] = {
        event: dict(margin=float(m.values[i]), t=float(traj.ts[i]), candidate=str(m.binding[i]))
        for event, m in traj.margins.items()
        for i in [int(np.argmin(m.values))]
    }

    add = functools.partial(_add_check, report)
    c = mon.conservation_report(traj)
    add("conservation", c, c.ok)
    p = mon.potential_report(traj)
    add("potential", p, p.ok)
    add("locus", mon.locus_report(traj))
    add("asymptote", mon.asymptote_check(traj))
    if isinstance(a, TwoSummandsAnsatz):
        add("roots", mon.two_summands_roots(a))
        add("ratio_window", mon.two_summands_omega_monitor(traj))
        add("zero_constant_windows", mon.c0_zero_predicates(a))
    elif isinstance(a, DancerWangAnsatz):
        d = mon.dw_apriori_monitor(traj)
        add("a_priori_bounds", d, d.bound_ok_throughout)
        add("kahler", mon.kahler_report(traj))
    else:
        b = mon.lpp_bound_monitor(traj)
        add("ratio_bound", b, b.ok)
    return report


@contextlib.contextmanager
def _timed(timings: dict, key: str):
    """Record the wall seconds the block takes as ``timings[key]``."""
    start = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - start


def run_solve(cfg: RunConfig, outdir: str, plot: bool = False) -> dict:
    """Execute one config: solve, monitor, persist.  Returns the manifest,
    whose ``timings`` give the wall seconds of each step and whose
    ``counters`` give the kernels compiled on the way and their seconds.

    With ``chart: both`` a forked child (see ``_beside``) solves the compact
    chart and writes ``rescaled.csv`` while this process solves the
    physical chart, so the two sides' timings overlap.  Otherwise
    ``_csv_stream`` may write ``trajectory.csv`` in a forked child while
    this process integrates."""
    os.makedirs(outdir, exist_ok=True)
    started = time.perf_counter()
    timings: dict[str, float] = {}
    compiled = dict(codegen.COUNTERS)
    delta = cfg.launch_delta  # one launch slice for both charts
    compact = None
    if cfg.chart == "both":
        from . import rescaled  # only the compact chart needs it
        # the launch check and every compile happen here, before the fork,
        # so that this process keeps what they cache
        with _timed(timings, "solve_rescaled"):
            run_compact = rescaled.prepare_rescaled(
                cfg.spec,
                t_max=cfg.t_max,
                rel_tol=cfg.rel_tol,
                abs_tol=cfg.abs_tol,
                delta=delta,
            )

        def compact(path):
            child: dict[str, float] = {}
            with _timed(child, "solve_rescaled"):
                rtraj = run_compact()
            with _timed(child, "write rescaled.csv"):
                write_rescaled_csv(path, rtraj)
            # the result alone: pickled, rtraj would also copy the sample
            # views that writing the CSV cached on it
            return rtraj.result, child

    artifacts = []

    def emit(name, writer):
        path = os.path.join(outdir, name)
        with _timed(timings, f"write {name}"):
            writer(path)
        artifacts.append(name)

    rtraj = None
    charts = ()  # the chart comparison and the compact run's termination
    with contextlib.ExitStack() as stack:
        if compact is not None:
            lane = stack.enter_context(_beside(compact))
            lane.ask(os.path.join(outdir, "rescaled.csv"))
        # asked with the compact chart's lane open, which it then leaves alone
        stream = stack.enter_context(_csv_stream(os.path.join(outdir, "trajectory.csv"), cfg.spec, delta))
        with _timed(timings, "solve"):
            traj = solve_problem(
                cfg.spec,
                t_max=cfg.t_max,
                rel_tol=cfg.rel_tol,
                abs_tol=cfg.abs_tol,
                delta=delta,
                sink=stream.sink,
            )
        stream.rest(traj)
        with _timed(timings, "report"):
            report = build_report(traj)
        emit("trajectory.csv", lambda p: timings.update(stream.done()))
        if plot:
            emit(
                "trajectory.svg",
                lambda p: write_svg_plot(
                    p,
                    traj.ts,
                    {n: traj.f[:, i] for i, n in enumerate(cfg.spec.ansatz.component_names)}
                    | {"-du": -traj.du},
                    title="metric components and potential slope",
                ),
            )
        if compact is not None:
            with _timed(timings, "wait compact chart"):
                result, child = lane.answer()
            # the compact chart's solve includes its preparation before the fork
            child["solve_rescaled"] += timings["solve_rescaled"]
            timings |= child
            artifacts.insert(1, "rescaled.csv")
            rtraj = rescaled.RescaledTrajectory(spec=cfg.spec, delta=delta, result=result)
            with _timed(timings, "compare_charts"):
                comparison = rescaled.compare_charts(traj, rtraj)
            _add_check(report, "chart_comparison", comparison, mon.charts_agree(comparison))
            charts = (comparison, result.termination)
    report["verdict"] = verdict = mon.classify_completeness(traj, *charts)
    emit("report.json", lambda p: write_json(p, report))

    binding, closest = min(report["margins"].items(), key=lambda item: item[1]["margin"])
    manifest = {
        "run_id": run_id_of(cfg.raw),
        "tool_version": __version__,
        "config": cfg.raw,
        "verdict": verdict.kind,
        "expect": cfg.expect,
        "expectation_matched": None if cfg.expect is None else verdict.kind == cfg.expect,
        "termination": traj.termination,
        "reasons": verdict.reasons,
        "launch_delta": traj.delta,
        "key_diagnostics": {
            "t_end": float(traj.ts[-1]),
            "terminal_du": float(traj.du[-1]),
            "max_conservation_residual": report["conservation"].max_abs_residual,
            "max_locus_einstein_residual": report["locus"].max_einstein_residual,
            "binding_invariant": {"name": binding, "margin": closest["margin"], "t": closest["t"]},
            **_work_counts(traj.result),
        },
        "artifacts": artifacts + ["manifest.json"],
        "timings": timings,
        # kernels this run compiled: none when the process already holds them
        "counters": {key: value - compiled[key] for key, value in codegen.COUNTERS.items()},
        "wall_time_s": time.perf_counter() - started,
    }
    if rtraj is not None:
        manifest["key_diagnostics"]["rescaled"] = _work_counts(rtraj.result)
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


def _work_counts(result) -> dict:
    """Work done and the range of accepted step sizes (None without a step)."""
    steps = np.diff(result.ts)
    return {
        "n_accepted": result.n_accepted,
        "n_rejected": result.n_rejected,
        "n_rhs": result.n_rhs,
        "h_min": float(steps.min()) if steps.size else None,
        "h_max": float(steps.max()) if steps.size else None,
    }


def exit_code_for(manifest: dict) -> int:
    """0 when complete or the stated expectation matched, 2 otherwise."""
    if manifest.get("expectation_matched"):
        return 0
    if manifest["verdict"] == "numerically_complete" and manifest.get("expect") is None:
        return 0
    return 2
