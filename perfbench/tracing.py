"""Per-layer spans recorded from outside the program.

Every layer boundary the benchmark times is a module attribute that qtm
looks up at call time (`kernels.rotate_head`, the names `engine.run` binds
from `state` and `gates`, `primitives.evolve_angles`, the `io` writers, ...).
Tracer.install replaces each with a timing wrapper and Tracer.uninstall
puts the originals back, so no file of the program changes and untraced
rounds run the program exactly as shipped.

A span is (id, name, start, end, parent id). Self time is a span's duration
minus the time its child spans cover, and is accumulated online. Spans of
per-step calls (kernels, gates, head_bloch, norm, classify) are only
aggregated into per-name totals; every other span is also kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict

MIB = 2.0 ** 20


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id) of kept spans
        self.keep_spans = True
        self.measure_alloc = False
        # [span id, name, start, child time, parent id, tracing allocations]
        self._stack = []
        self._next_id = 0
        self._patched = []
        self.reset()

    def reset(self):
        """Start a new round of totals; kept spans stay."""
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.alloc_peak = defaultdict(float)

    def enter(self, name, alloc=False):
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0,
                 self._stack[-1][0] if self._stack else None, None]
        if alloc and self.measure_alloc and not tracemalloc.is_tracing():
            # traces only what this call allocates; the peak includes the
            # temporaries and the returned arrays
            tracemalloc.start()
            frame[5] = True
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def exit(self, frame, fine=False):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child, parent, alloc_traced = frame
        dur = end - start
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if alloc_traced:
            peak = tracemalloc.get_traced_memory()[1] / MIB
            tracemalloc.stop()
            self.alloc_peak[name] = max(self.alloc_peak[name], peak)
        if self.keep_spans and not fine:
            self.spans.append((span_id, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, owner, attr, name, fine=False, alloc=False, count=None):
        """Replace owner.attr with a wrapper recording a span per call;
        count(counters, args, result) adds the call's work counts."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            frame = self.enter(name, alloc)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.exit(frame, fine)
            if count is not None:
                count(self.counters, args, result)
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def wrap_context(self, owner, attr, name):
        """Like wrap, for a context-manager function: the span covers the
        whole with-block."""
        orig = getattr(owner, attr)

        @contextlib.contextmanager
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name), orig(*args, **kwargs) as value:
                yield value

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def install(self):
        from qtm import analysis, engine, io, kernels, primitives, recursion
        from qtm.state import StateVector

        def moved(factor):
            def add(c, args, _):
                c["kernels.bytes"] += factor * args[0].nbytes
            return add

        def steps(c, _, traj):
            c["engine.steps"] += traj.steps

        def angles(c, args, _):
            c["primitives.angles_stored"] += len(args[0]) * (args[3] + 1)

        def census(c, _, periods):
            c["primitives.patterns"] += len(periods)

        # rotate reads and writes every amplitude, a flip the head-0 half
        self.wrap(kernels, "rotate_head", "kernels.rotate", fine=True,
                  alloc=True, count=moved(2))
        self.wrap(kernels, "cnot_flip", "kernels.flip_x", fine=True,
                  alloc=True, count=moved(1))
        self.wrap(kernels, "cnot_signed_flip", "kernels.flip_iy", fine=True,
                  alloc=True, count=moved(1))
        self.wrap(engine, "apply_head_rotation", "gates.rotation", fine=True)
        self.wrap(engine, "apply_qcnot", "gates.flip", fine=True)
        self.wrap(engine, "head_bloch", "state.head_bloch", fine=True)
        self.wrap(StateVector, "norm_sq", "state.norm", fine=True)
        self.wrap(engine, "make_state", "state.prep")
        self.wrap(engine, "run", "engine.run", count=steps)
        self.wrap(primitives, "evolve_angles", "primitives.evolve")
        self.wrap(primitives, "superpose", "primitives.superpose", alloc=True,
                  count=angles)
        self.wrap(primitives, "period_census", "primitives.census",
                  count=census)
        self.wrap(primitives, "classify", "primitives.classify", fine=True)
        self.wrap(recursion, "run", "recursion.run")
        self.wrap(analysis, "fit_invariant_circles", "analysis.fit")
        self.wrap(analysis, "spectrum", "analysis.spectrum")
        for writer in ("write_trajectory_csv", "write_trajectory_json",
                       "write_trajectory_svg", "write_manifest"):
            self.wrap(io, writer, "io.write")
        self.wrap_context(io, "_open_out", "io.write")

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def layers(self):
        """This round's per-layer numbers (times in s, sizes in MiB)."""
        t, s, n, c = self.total, self.self_time, self.count, self.counters
        kernel_s = t["kernels.rotate"] + t["kernels.flip_x"] + t["kernels.flip_iy"]
        steps = c["engine.steps"]
        return {
            "kernels.rotate_s": t["kernels.rotate"],
            "kernels.flip_s": t["kernels.flip_x"] + t["kernels.flip_iy"],
            "kernels.flip_iy_s": t["kernels.flip_iy"],
            "kernels.calls": n["kernels.rotate"] + n["kernels.flip_x"]
            + n["kernels.flip_iy"],
            "kernels.bytes_computed": c["kernels.bytes"],
            "kernels.gbps_computed": _rate(c["kernels.bytes"] / 1e9, kernel_s),
            "state.prep_s": t["state.prep"],
            "state.head_bloch_s": t["state.head_bloch"],
            "state.head_bloch_per_step": _rate(n["state.head_bloch"], steps),
            "state.norm_s": t["state.norm"],
            "state.norm_calls": n["state.norm"],
            "gates.self_s": s["gates.rotation"] + s["gates.flip"],
            "engine.self_s": s["engine.run"],
            "engine.steps_per_s": _rate(steps, t["engine.run"]),
            "primitives.evolve_s": t["primitives.evolve"],
            "primitives.census_self_s": s["primitives.census"],
            "primitives.patterns_per_s": _rate(c["primitives.patterns"],
                                               t["primitives.census"]),
            "primitives.classify_s": t["primitives.classify"],
            "primitives.superpose_self_s": s["primitives.superpose"],
            "primitives.angles_stored": c["primitives.angles_stored"],
            "recursion.run_s": t["recursion.run"],
            "analysis.fit_s": t["analysis.fit"],
            "analysis.spectrum_s": t["analysis.spectrum"],
            "io.write_s": s["io.write"],
            "io.bytes": c["io.bytes"],
            "cli.self_s": s["cli.main"],
        }

    def alloc_layers(self):
        a = self.alloc_peak
        return {
            "kernels.alloc_peak_mib": max(a["kernels.rotate"], a["kernels.flip_x"],
                                          a["kernels.flip_iy"]),
            "primitives.alloc_peak_mib": a["primitives.superpose"],
        }


def _rate(work, seconds):
    return work / seconds if seconds else 0.0
