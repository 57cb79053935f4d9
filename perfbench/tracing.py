"""In-memory span tracer around the public calls of each solitonlab layer.

Installing a ``Tracer`` replaces module attributes of the package with
wrappers defined here; the package itself is not edited.  A span wrapper
replaces every attribute in every package module that refers to the wrapped
function, which covers the names modules imported with ``from .x import y``.
``uninstall`` restores the originals.

Calls that run thousands of times per operation (right-hand-side
evaluations, state unpacking) get a leaf timer instead of a span: a call
count and a summed duration, which are also charged to the enclosing span so
that its self time excludes them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

LAYERS = ("cli", "runio", "monitors", "rescaled", "trajectory", "launch", "integrator", "systems")

# layer -> functions wrapped with a span
SPANNED = {
    "cli": ("main",),
    "runio": (
        "load_config",
        "run_solve",
        "build_report",
        "write_trajectory_csv",
        "write_rescaled_csv",
        "write_json",
    ),
    "monitors": (
        "classify_completeness",
        "conservation_report",
        "potential_report",
        "locus_report",
        "asymptote_check",
        "two_summands_omega_monitor",
        "dw_apriori_monitor",
        "lpp_bound_monitor",
        "kahler_report",
        "growth_probe",
    ),
    "rescaled": ("solve_rescaled", "compare_charts"),
    "trajectory": ("solve_problem",),
    "launch": ("launch",),
    "integrator": ("integrate", "_refine_event"),
}

# (module, factory) -> (leaf name, layer): the factory's returned function is timed
RHS_FACTORIES = {
    ("systems", "make_vector_rhs"): ("systems.rhs", "systems"),
    ("rescaled", "make_rescaled_vector_rhs"): ("rescaled.rhs", "rescaled"),
}

# Only the trajectory module's references are wrapped: launch also calls
# u_dotdot_stable, and that time belongs to the launch layer.
STATE_LEAVES = {("trajectory", "unpack_state"), ("trajectory", "u_dotdot_stable")}

CSV_WRITERS = ("runio.write_trajectory_csv", "runio.write_rescaled_csv")

# spans the deterministic counts are read from (a few dozen calls per operation)
COUNTED = (
    "monitors.growth_probe",
    "rescaled.solve_rescaled",
    "rescaled.compare_charts",
    "trajectory.solve_problem",
    "integrator.integrate",
)


class Tracer:
    """Records spans (name, layer, start, end, parent, operation id) and leaf
    counters while installed.  One operation at a time: call ``begin(op)``
    before it and ``op_metrics()`` after it."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module object
        self.spans: list[list] = []  # [name, layer, start, end, parent, op, covered]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._refining = 0
        self.leaf_layer: dict[str, str] = {}
        self.begin(-1)

    def begin(self, op: int):
        """Start the per-operation counters of operation ``op``."""
        self.op = op
        self.leaf = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.refine_rhs = 0
        self.integrations: list[tuple[int, int, int]] = []  # (accepted, rejected, rhs)
        self.probe_trajectories: list = []
        self.csv_bytes = 0
        self.first_span = len(self.spans)

    # -- wrappers --------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[3] = time.perf_counter()
        if span[4] >= 0:
            self.spans[span[4]][6] += span[3] - span[2]

    def _span(self, fn, name, layer):
        tracer = self
        refine = name == "integrator._refine_event"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name, layer)
            tracer._refining += refine
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._refining -= refine
                tracer._close()
            tracer._observe(name, args, out)
            return out

        return wrapper

    def _leaf(self, fn, name, layer, is_rhs=False):
        tracer = self
        self.leaf_layer[name] = layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                entry = tracer.leaf[name]
                entry[0] += 1
                entry[1] += dt
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][6] += dt
                if is_rhs and tracer._refining:
                    tracer.refine_rhs += 1

        return wrapper

    def _factory(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._leaf(fn(*args, **kwargs), name, layer, is_rhs=True)

        return wrapper

    def _observe(self, name, args, out):
        """Counts read off return values at the layer boundary."""
        if name == "integrator.integrate":
            self.integrations.append((out.n_accepted, out.n_rejected, out.n_rhs))
        elif name == "trajectory.solve_problem" and any(
            self.spans[i][0] == "monitors.growth_probe" for i in self._stack
        ):
            self.probe_trajectories.append(out)
        elif name in CSV_WRITERS:
            self.csv_bytes += os.path.getsize(args[0])

    # -- install / uninstall -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self, full: bool = True):
        """Wrap every listed call; with ``full=False`` only the few calls the
        deterministic counts are read from, which costs nothing measurable."""
        for layer, names in SPANNED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                if full or name in COUNTED:
                    fn = getattr(self.modules[layer], fname)
                    self._replace_everywhere(fn, self._span(fn, name, layer))
        if not full:
            return self
        for (layer, fname), (leaf, leaf_layer) in RHS_FACTORIES.items():
            fn = getattr(self.modules[layer], fname)
            self._replace_everywhere(fn, self._factory(fn, leaf, leaf_layer))
        for layer, fname in STATE_LEAVES:
            mod = self.modules[layer]
            fn = getattr(mod, fname)
            self._patched.append((mod, fname, fn))
            setattr(mod, fname, self._leaf(fn, f"trajectory.{fname}", "trajectory"))
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- per-operation summary -----------------------------------------------------

    def op_metrics(self) -> dict:
        """Per-layer self times and per-function inclusive times of the last
        operation, plus the leaf counters."""
        incl = defaultdict(float)
        calls = defaultdict(int)
        self_s = {layer: 0.0 for layer in LAYERS}
        for name, layer, start, end, _parent, _op, covered in self.spans[self.first_span :]:
            incl[name] += end - start
            calls[name] += 1
            self_s[layer] += end - start - covered
        for name, (_n, secs) in self.leaf.items():
            self_s[self.leaf_layer[name]] += secs
        rhs_calls, rhs_s = self.leaf["systems.rhs"]
        unpack_calls, unpack_s = self.leaf["trajectory.unpack_state"]
        udd_calls, udd_s = self.leaf["trajectory.u_dotdot_stable"]
        acc = sum(a for a, _, _ in self.integrations)
        rej = sum(r for _, r, _ in self.integrations)
        out = {f"{layer}.s": secs for layer, secs in self_s.items()}
        out.update(
            {
                "runio.report_s": incl["runio.build_report"],
                "runio.csv_s": sum(incl[n] for n in CSV_WRITERS),
                "runio.csv_bytes": self.csv_bytes,
                "runio.json_s": incl["runio.write_json"],
                "runio.load_config_s": incl["runio.load_config"],
                "trajectory.states_s": unpack_s + udd_s,
                "trajectory.unpack_state_calls": unpack_calls,
                "trajectory.u_dotdot_stable_calls": udd_calls,
                "monitors.classify_s": incl["monitors.classify_completeness"],
                "monitors.conservation_report_calls": calls["monitors.conservation_report"],
                "monitors.probe_solves": len(self.probe_trajectories),
                "rescaled.solve_s": incl["rescaled.solve_rescaled"],
                "rescaled.compare_s": incl["rescaled.compare_charts"],
                "integrator.calls": len(self.integrations),
                "integrator.n_accepted": acc,
                "integrator.n_rejected": rej,
                "integrator.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
                "integrator.n_rhs": sum(n for _, _, n in self.integrations),
                "integrator.per_call": [list(c) for c in self.integrations],
                "integrator.refine_rhs": self.refine_rhs,
                "systems.rhs_calls": rhs_calls,
                "systems.rhs_us": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
                "launch.calls": calls["launch.launch"],
                "trace.spans": len(self.spans) - self.first_span,
            }
        )
        # integrations made by an operation that uses the compact chart
        uses_chart = calls["rescaled.solve_rescaled"] + calls["rescaled.compare_charts"] > 0
        out["rescaled.integrate_calls"] = len(self.integrations) if uses_chart else 0
        return out

    def dump(self, path: str, header: dict):
        """Write the recorded spans as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, layer, start, end, parent, op, covered in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "self_s": end - start - covered,
                        }
                    )
                    + "\n"
                )
