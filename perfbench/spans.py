"""In-memory span tracer that wraps rarefan's public functions from outside.

Each wrapped function records a span (name, start, end, parent) per call.
Wrappers are bound wherever a rarefan module holds the original object, so
calls through names imported with ``from .x import f`` are traced as well as
calls through the defining module's globals (``step`` reaching ``rhs``).
Nothing inside the package is edited; leaving the ``with`` block restores
every binding.

Two probes run outside the timed spans, under a ``trace.probe`` span that is
subtracted from its parent's self time:
  * every ``DT_PROBE_EVERY``-th step, the convective-only ``dt`` from the
    public ``stable_dt`` with ``eps=0``, for ``solver.dt_conv_over_dt``;
  * once per grid shape, one extra ``rhs`` call under tracemalloc, for
    ``solver.rhs.peak_alloc_mb``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import sys
import time
import tracemalloc

# span name -> (defining module, attribute)
TARGETS = {
    "solver.run": ("rarefan.solver", "run"),
    "solver.step": ("rarefan.solver", "step"),
    "solver.rhs": ("rarefan.solver", "rhs"),
    "solver.stable_dt": ("rarefan.solver", "stable_dt"),
    "waves.profile_lp_norm": ("rarefan.waves", "profile_lp_norm"),
    "waves.smooth_cutoff_distance": ("rarefan.waves", "smooth_cutoff_distance"),
    "waves.cutoff_exact_distance": ("rarefan.waves", "cutoff_exact_distance"),
    "waves.smooth_profile": ("rarefan.waves", "smooth_profile"),
    "waves.sample_exact": ("rarefan.waves", "sample_exact"),
    "analysis.gn_check": ("rarefan.analysis", "gn_check"),
    "analysis.nonzero_mode_energy": ("rarefan.analysis", "nonzero_mode_energy"),
    "analysis.decompose": ("rarefan.analysis", "decompose"),
    "analysis.sup_distance": ("rarefan.analysis", "sup_distance"),
    "analysis.fit_rate": ("rarefan.analysis", "fit_rate"),
    "ansatz.assemble_initial": ("rarefan.ansatz", "assemble_initial"),
    "ansatz.make_perturbation": ("rarefan.ansatz", "make_perturbation"),
}

DT_PROBE_EVERY = 8
PROBE = "trace.probe"


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.dt_ratios: list[float] = []
        self.rhs_probe: dict[tuple, tuple[int, int]] = {}  # shape -> (state B, peak B)
        self._probing = False
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span, unless a probe is running."""
        if self._probing:
            return fn(*args, **kwargs)
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _probe(self, fn, *args, **kwargs):
        idx = self.open(PROBE)
        self._probing = True
        try:
            return fn(*args, **kwargs)
        finally:
            self._probing = False
            self.close(idx)

    # -- installation ----------------------------------------------------
    def __enter__(self):
        """Bind the wrappers wherever rarefan holds the originals."""
        import rarefan.experiments  # loads every module to patch

        originals = {name: getattr(sys.modules[mod], attr)
                     for name, (mod, attr) in TARGETS.items()}
        originals["solver.ghost"] = sys.modules["rarefan.solver"].profile_ghost_source
        wrappers = {name: self.wrap(name, fn) for name, fn in originals.items()}
        wrappers["solver.step"] = self._step_wrapper(originals)
        wrappers["solver.run"] = self._run_wrapper(originals["solver.run"])
        wrappers["solver.ghost"] = self._ghost_wrapper(originals["solver.ghost"])

        by_id = {id(fn): wrappers[name] for name, fn in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rarefan" or modname.startswith("rarefan.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id and callable(val):
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, by_id[id(val)])

        report_cls = rarefan.experiments.StudyReport
        emit = report_cls.emit
        self._restore.append((report_cls, "emit", emit))

        def traced_emit(report, out_dir):
            path = self.call("experiments.emit", emit, report, out_dir)
            side = path[: -len(".csv")] + ".config.json"
            self.count("experiments.emit.bytes",
                       os.path.getsize(path) + os.path.getsize(side))
            return path
        report_cls.emit = traced_emit
        return self

    def __exit__(self, *exc):
        """Restore every binding made by __enter__."""
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- special wrappers ------------------------------------------------
    def _step_wrapper(self, originals):
        step, rhs, stable_dt = (originals["solver.step"], originals["solver.rhs"],
                                originals["solver.stable_dt"])

        @functools.wraps(step)
        def traced_step(fs, g, cfg, ghost_source=None, *args, **kwargs):
            if self._probing:
                return step(fs, g, cfg, ghost_source, *args, **kwargs)
            shape = fs.grid.shape
            if shape not in self.rhs_probe:
                self.rhs_probe[shape] = self._probe(_rhs_peak, rhs, fs, g, cfg, ghost_source)
            out = self.call("solver.step", step, fs, g, cfg, ghost_source, *args, **kwargs)
            n = self.counters.get("solver.step.calls", 0)
            self.count("solver.step.calls")
            self.count("solver.cell_steps", fs.rho.size)
            if n % DT_PROBE_EVERY == 0:
                conv = dataclasses.replace(cfg, eps=0.0, scaled=False)
                dt_conv, _ = self._probe(stable_dt, fs, g, conv)
                self.dt_ratios.append(dt_conv / out[1].dt)
            return out
        return traced_step

    def _run_wrapper(self, run):
        @functools.wraps(run)
        def traced_run(initial, g, cfg, horizon, observers=None, *args, **kwargs):
            if observers:
                observers = {k: self.wrap("experiments.observer", fn)
                             for k, fn in observers.items()}
            return self.call("solver.run", run, initial, g, cfg, horizon,
                             observers, *args, **kwargs)
        return traced_run

    def _ghost_wrapper(self, make_source):
        @functools.wraps(make_source)
        def traced_make_source(*args, **kwargs):
            source = make_source(*args, **kwargs)

            def counted(t):
                if not self._probing:
                    self.count("solver.ghost.calls")
                return source(t)
            return counted
        return traced_make_source

    # -- reduction -------------------------------------------------------
    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), ct in zip(self.spans, child_time):
            st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - ct
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced operation of wall time wall_s."""
        st = self.stats()

        def get(name, key):
            return st.get(name, {}).get(key, 0.0)

        steps = self.counters.get("solver.step.calls", 0)
        cell_steps = self.counters.get("solver.cell_steps", 0)
        m = {
            "solver.step.calls": steps,
            "solver.rhs.calls": get("solver.rhs", "calls"),
            "solver.rhs.s": get("solver.rhs", "s"),
            "solver.rhs_per_step": get("solver.rhs", "calls") / steps if steps else 0.0,
            "solver.step.self_s": get("solver.step", "self_s"),
            "solver.stable_dt.s": get("solver.stable_dt", "s"),
            "solver.run.self_s": get("solver.run", "self_s"),
            "solver.ns_per_cell_step": (get("solver.step", "s") * 1e9 / cell_steps
                                        if cell_steps else 0.0),
            "solver.dt_conv_over_dt": (statistics.median(self.dt_ratios)
                                       if self.dt_ratios else 0.0),
            "solver.ghost.calls": self.counters.get("solver.ghost.calls", 0),
            "solver.wall_share": sum(v["self_s"] for k, v in st.items()
                                     if k.startswith("solver.")) / wall_s,
        }
        if self.rhs_probe:
            # the largest grid of the operation; sizes are float64 arrays
            shape, (state_b, peak_b) = max(self.rhs_probe.items(),
                                           key=lambda kv: kv[1][0])
            cells = state_b / 40
            m["solver.state_mb"] = state_b / 1e6
            m["solver.rhs.peak_alloc_mb"] = peak_b / 1e6
            # computed, not measured: one SSP-RK3 step touches the four stage
            # states U0..U3 and three rhs temporaries sets at their peak size
            m["solver.bytes_per_cell_step_computed"] = (4 * state_b + 3 * peak_b) / cells
        else:
            m["solver.state_mb"] = 0.0
            m["solver.rhs.peak_alloc_mb"] = 0.0
            m["solver.bytes_per_cell_step_computed"] = 0.0
        for name in ("waves.profile_lp_norm", "waves.smooth_profile",
                     "waves.sample_exact", "analysis.gn_check"):
            m[f"{name}.calls"] = get(name, "calls")
            m[f"{name}.s"] = get(name, "s")
        for name in ("waves.smooth_cutoff_distance", "waves.cutoff_exact_distance",
                     "analysis.nonzero_mode_energy", "analysis.decompose",
                     "analysis.sup_distance", "analysis.fit_rate",
                     "ansatz.assemble_initial", "ansatz.make_perturbation",
                     "experiments.emit"):
            m[f"{name}.s"] = get(name, "s")
        m["analysis.observer_share"] = get("experiments.observer", "s") / wall_s
        m["experiments.driver.self_s"] = get("experiments.driver", "self_s")
        m["experiments.emit.bytes"] = self.counters.get("experiments.emit.bytes", 0)
        return m


def _rhs_peak(rhs, fs, g, cfg, ghost_source) -> tuple[int, int]:
    """(state bytes, tracemalloc peak bytes over one rhs call)."""
    tracemalloc.start()
    try:
        rhs(fs, g, cfg, ghost_source, t=fs.time)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return 5 * fs.rho.nbytes, peak
