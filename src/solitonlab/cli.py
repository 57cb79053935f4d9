"""Command-line front end: single solves, parameter sweeps, growth probes
and curvature queries.

Exit codes: 0 success or matched expectation (and --help, --version),
1 unexpected error, 2 invariant-set exit / unmet verdict, 3 probe found no
admissible constant, 64 unreadable or malformed config or decomposition
file, or malformed command line (argparse's usage errors included), 65
decomposition validation failure (symmetry, sign or the Wang-Ziller
identity), 70 integrator failure, 71 a lane's child process that ended
with no result (killed, or out of memory, say).  One table,
``_failure``, turns an exception into its exit code and its one line of
text: ``main`` prints that line after ``error: `` for every command, and
a sweep records it for each failed cell in ``sweep_errors.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import sys

from . import ConfigError, LaneLost, ProbeRangeError, __version__, _beside, _fmt, _read_json

# each command imports what it runs: the solver modules (runio, monitors and
# what they load) for solve, sweep and probe-c0, geometry for curvature, so
# that neither side loads the other's

EX_OK = 0
EX_ERROR = 1
EX_VERDICT = 2
EX_NO_ADMISSIBLE_C = 3
EX_CONFIG = 64
EX_DATA = 65
EX_SOLVER = 70
EX_OSERR = 71


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and the one-line text of a command, or a sweep cell,
    that ``exc`` failed."""
    if isinstance(exc, ConfigError):
        return EX_CONFIG, str(exc)
    if isinstance(exc, ProbeRangeError):
        return EX_NO_ADMISSIBLE_C, str(exc)
    if isinstance(exc, LaneLost):
        return EX_OSERR, f"lane lost: {exc}"
    if isinstance(exc, (ArithmeticError, RuntimeError)):
        return EX_SOLVER, f"integration failed: {exc}"
    return EX_ERROR, f"{type(exc).__name__}: {exc}"


def cmd_solve(args) -> int:
    from .runio import exit_code_for, load_config, run_solve

    manifest = run_solve(load_config(args.config), args.out, plot=args.plot)
    print(
        f"run {manifest['run_id']}: verdict={manifest['verdict']} "
        f"termination={manifest['termination']} out={args.out}"
    )
    if manifest["verdict"] == "inconclusive" and manifest.get("expect") is None:
        reasons = "; ".join(r for r in manifest.get("reasons", [])) or "see report.json"
        print(f"note: inconclusive ({reasons})")
    return exit_code_for(manifest)


def _parse_grid(expr: str):
    # PARAM=start:step:count, count >= 1
    try:
        param, rng = expr.split("=", 1)
        start, step, count = rng.split(":")
        start, step, count = float(start), float(step), int(count)
    except ValueError:
        raise ConfigError(f"grid spec {expr!r} is not PARAM=start:step:count") from None
    if count < 1:
        raise ConfigError(f"grid spec {expr!r}: the count must be at least 1")
    param = param.strip()
    if param[:1] == "g" and param[1:].isdigit():
        param = f"g{int(param[1:])}"  # g01 sets g1: one name per parameter
    return param, start, step, count


def _apply_param(doc: dict, param: str, value: float):
    out = copy.deepcopy(doc)
    if param == "C":
        out["C"] = value
        return out
    initial = out.get("initial")
    if initial is None:
        raise ConfigError(f"grid parameter {param!r} sets 'initial', which the base config lacks")
    if param == "fbar":
        if isinstance(initial, list):
            raise ConfigError("grid parameter 'fbar' applies to a scalar 'initial'")
        out["initial"] = value
        return out
    if param.startswith("g") and param[1:].isdigit():
        idx = int(param[1:]) - 1
        sizes = list(initial) if isinstance(initial, list) else [initial]
        if not 0 <= idx < len(sizes):
            raise ConfigError(f"grid parameter {param!r} is out of range for 'initial'")
        sizes[idx] = value
        out["initial"] = sizes
        return out
    raise ConfigError(f"unknown grid parameter {param!r} (use C, fbar or g<i>)")


def cmd_sweep(args) -> int:
    from .runio import _atomic_write, load_config, run_solve, write_json

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    base = _read_json(args.config, "config")
    grids = [_parse_grid(g) for g in args.grid]
    params = [param for param, *_ in grids]
    for param in params:
        if params.count(param) > 1:
            raise ConfigError(f"grid parameter {param!r} is given more than once")
    axes = [
        [(param, start + i * step) for i in range(count)]
        for param, start, step, count in grids
    ]
    cells: list[tuple[dict, list[tuple[str, float]]]] = [(base, [])]
    for axis in axes:
        cells = [
            (_apply_param(doc, param, value), coords + [(param, value)])
            for doc, coords in cells
            for param, value in axis
        ]
    load_config(base)  # the base is a config solve accepts, whatever the grid replaces
    configs = [load_config(doc) for doc, _ in cells]  # every cell validated up front

    os.makedirs(args.out, exist_ok=True)
    shares = min(args.jobs, len(cells))

    def manifest_of(i: int) -> str:
        return os.path.join(args.out, f"cell_{i:04d}", "manifest.json")

    def row(manifest: dict) -> list[str]:
        """A cell's verdict, termination, terminal_du and
        max_conservation_residual as text."""
        key = manifest["key_diagnostics"]
        # float() also reads back the text a manifest holds for nan and inf
        return [manifest["verdict"], manifest["termination"]] + [
            _fmt(float(key[name])) for name in ("terminal_du", "max_conservation_residual")
        ]

    def run_cell(i: int):
        """Cell i's row, or the text its failure prints under solve."""
        try:
            return row(run_solve(configs[i], os.path.dirname(manifest_of(i))))
        except Exception as exc:  # keep sweeping past individual failures
            return _failure(exc)[1]

    # the cells are dealt round-robin into the shares: share 0 runs here and
    # each other share in a forked child (see _beside), so in a long-lived
    # process the children inherit the kernels this process compiled for
    # earlier runs of the family.  A child is asked once, for its whole
    # share, and answers once, when the share is done: however large the
    # grid, its answer can wait on this process but its cells cannot.
    share = [range(j, len(cells), shares) for j in range(shares)]
    with contextlib.ExitStack() as stack:
        lanes = [stack.enter_context(_beside(lambda s: [run_cell(i) for i in s])) for _ in range(1, shares)]
        for lane, mine in zip(lanes, share[1:]):
            for i in mine:  # a manifest of an earlier sweep must not stand for a cell left unrun
                with contextlib.suppress(FileNotFoundError):
                    os.remove(manifest_of(i))
            lane.ask(mine)
        outcomes = {i: run_cell(i) for i in share[0]}
        for lane, mine in zip(lanes, share[1:]):
            try:
                outcomes.update(zip(mine, lane.answer()))
            except LaneLost as exc:  # the child ended before its answer
                for i in mine:  # the cells it finished wrote their manifests
                    try:
                        with open(manifest_of(i), encoding="utf-8") as fh:
                            outcomes[i] = row(json.load(fh))
                    except FileNotFoundError:
                        outcomes[i] = _failure(exc)[1]
    # cell -> its failure, as text
    errors = {f"cell_{i:04d}": v for i, v in outcomes.items() if isinstance(v, str)}

    header = params + ["cell", "verdict", "termination", "terminal_du", "max_conservation_residual"]
    lines = [",".join(header)]
    for i, (_, coords) in enumerate(cells):  # merge in grid order
        fields = outcomes[i]
        if isinstance(fields, str):
            fields = ["error", "error", "nan", "nan"]
        lines.append(",".join([_fmt(v) for _, v in coords] + [f"cell_{i:04d}"] + fields))
    _atomic_write(os.path.join(args.out, "sweep_summary.csv"), lines)
    if errors:
        write_json(os.path.join(args.out, "sweep_errors.json"), errors)
    note = f", errors in {args.out}/sweep_errors.json" if errors else ""
    print(f"sweep: {len(cells)} cells, {len(errors)} failed, summary in {args.out}/sweep_summary.csv{note}")
    return EX_OK if not errors else EX_ERROR


def cmd_probe_c0(args) -> int:
    from .monitors import growth_probe
    from .runio import _atomic_write, load_config, write_json

    cfg = load_config(args.config)
    if not 0.0 < args.c < math.inf:
        raise ConfigError(f"probe needs a finite --c > 0, got {args.c!r}")
    if not math.isfinite(args.tau):
        raise ConfigError(f"--tau must be finite, got {args.tau!r}")
    offset = cfg.launch_delta  # the probe's solves launch where the config's run does
    if not args.tau > offset:
        raise ConfigError(f"--tau must exceed the launch offset {offset!r}, got {args.tau!r}")
    os.makedirs(args.out, exist_ok=True)
    report = growth_probe(
        cfg.spec,
        c=args.c,
        tau=args.tau,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        delta=cfg.launch_delta,
    )
    write_json(os.path.join(args.out, "probe_report.json"), report)
    lines = ["C,slope_at_tau"]
    lines += [",".join((_fmt(c), _fmt(s))) for c, s in report.samples]
    _atomic_write(os.path.join(args.out, "probe_samples.csv"), lines)
    c_fail, c_success = report.bracket
    print(
        f"probe: empirical_C0={_fmt(report.empirical_C0)} "
        f"bracket=({'None' if c_fail is None else _fmt(c_fail)}, {_fmt(c_success)}) "
        f"samples={len(report.samples)} monotone={report.monotone} "
        f"solves={report.n_solves} n_rhs={report.n_rhs}"
    )
    return EX_OK


def _parse_x(text: str) -> list[float]:
    # comma-separated numbers, each entry named by its place if it is not one
    x = []
    for i, v in enumerate(text.split(",")):
        try:
            x.append(float(v))
        except ValueError:
            raise ConfigError(f"--x[{i}] must be a number, got {v!r}") from None
    return x


def cmd_curvature(args) -> int:
    from .geometry import load_decomposition, ricci_eigenvalues, scalar_curvature, validate

    dec = load_decomposition(args.decomposition)
    report = validate(dec)
    if not report.ok:
        for v in report.symmetry_violations:
            print(f"symmetry violation: {v}", file=sys.stderr)
        for v in report.negativity_violations:
            print(f"sign violation: {v}", file=sys.stderr)
        for v in report.wang_ziller_violations:
            print(f"wang_ziller violation: {v}", file=sys.stderr)
        return EX_DATA
    x = _parse_x(args.x)
    s = scalar_curvature(dec, x)
    r = ricci_eigenvalues(dec, x)
    print(f"scalar_curvature: {_fmt(s)}")
    print("ricci_eigenvalues: " + ", ".join(_fmt(v) for v in r))
    if report.wang_ziller_residuals is not None:
        print("wang_ziller_residuals: " + ", ".join(_fmt(v) for v in report.wang_ziller_residuals))
    if dec.metadata:
        print(f"metadata: {dec.metadata}")
    return EX_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="construct and verify cohomogeneity-one gradient Ricci soliton trajectories",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one config and write trajectory, report, manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", action="store_true", help="also write a minimal SVG line plot")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="run a parameter grid of solves")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", action="append", required=True, metavar="PARAM=start:step:count")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("probe-c0", help="bracket the conservation constant reaching a slope target")
    p.add_argument("--config", required=True)
    p.add_argument("--c", type=float, required=True, help="slope target (> 0)")
    p.add_argument("--tau", type=float, required=True, help="probe time (> launch delta)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_probe_c0)

    p = sub.add_parser("curvature", help="evaluate curvature of a decomposition file")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--x", required=True, help="comma-separated metric scalings")
    p.set_defaults(fn=cmd_curvature)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here is EX_VERDICT
        if exc.code == 2:
            return EX_CONFIG
        raise
    try:
        return args.fn(args)
    except BrokenPipeError:
        return EX_ERROR
    except Exception as exc:
        code, text = _failure(exc)
        print(f"error: {text}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
