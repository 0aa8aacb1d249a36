"""In-memory span recorder and the wrappers that feed it.

Spans are recorded by wrappers around the functions the per-layer metrics
name. A wrapper replaces the function on its defining module and on every
``metastable`` module that imported it by name, so calls reach it whichever
name they go through. Spans live in flat arrays (name id, start, end,
parent, rows) and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute); "Class.method" patches a method on the class
TRACED = (
    ("cli", "load_config"),
    ("landscape", "find_critical_points"),
    ("rates", "build_saddle_frame"),
    ("potentials", "PotentialModel.gradient"),
    ("potentials", "PotentialModel.energy"),
    ("dynamics", "batch_hit_times"),
    ("dynamics", "noise_block"),
    ("dynamics", "run_zero_noise_flow"),
    ("hitting", "estimate_mean_hitting_time"),
    ("hitting", "estimate_equilibrium_potential"),
    ("hitting", "_pairwise_moments"),
    ("capacity", "partition_function"),
    ("capacity", "boundary_capacity_integral"),
    ("capacity", "numerator_integral"),
    ("capacity", "position_box"),
)


NAMES = [f"{module}.{attr.split('.')[-1]}" for module, attr in TRACED]


class Recorder:
    """Spans of one process: flat columns plus the open-span stack."""

    def __init__(self):
        self.on = False
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.stack = []
        # (python_steps, traj_steps, rows) per batch_hit_times call
        self.engine = []

    def __len__(self):
        return len(self.name)

    def columns(self):
        """Copies of the span columns as numpy arrays (name, parent, start, end, rows)."""
        return tuple(
            np.array(col, dtype=dtype)
            for col, dtype in ((self.name, np.int32), (self.parent, np.int32),
                               (self.start, np.float64), (self.end, np.float64),
                               (self.rows, np.int64))
        )

    def write(self, path):
        name, parent, start, end, rows = self.columns()
        np.savez(path, names=np.array(NAMES), name=name, parent=parent,
                 start=start, end=end, rows=rows)


def _rows_of(arg) -> int:
    shape = getattr(arg, "shape", None)
    if shape is None:
        shape = np.shape(arg)
    return 1 if len(shape) <= 1 else int(shape[0])


def _engine_steps(times, dt):
    """(python_steps, traj_steps) of one engine call, from its hit times."""
    steps = np.ceil(np.asarray(times) / dt - 1.0e-9)
    return (int(steps.max()) if steps.size else 0), int(steps.sum())


def _wrap(rec: Recorder, fn, name_id: int, rows_arg):
    """rows_arg: index of the positional argument whose leading axis is the row count."""
    add_name, add_parent, add_rows = rec.name.append, rec.parent.append, rec.rows.append
    add_start, add_end, stack, end = rec.start.append, rec.end.append, rec.stack, rec.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        i = len(end)
        add_name(name_id)
        add_parent(stack[-1] if stack else -1)
        add_rows(_rows_of(args[rows_arg]) if rows_arg is not None and len(args) > rows_arg else 0)
        add_end(0.0)
        stack.append(i)
        add_start(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            end[i] = perf_counter()
            stack.pop()
        if name_id == ENGINE:
            config = args[5] if len(args) > 5 else kwargs["config"]
            py, traj = _engine_steps(out[0], config.dt)
            rec.engine.append((py, traj, rec.rows[i]))
        return out

    return traced


ENGINE = NAMES.index("dynamics.batch_hit_times")
# positional index of the array whose length is the call's row count
_ROWS_ARG = {"potentials.gradient": 1, "dynamics.batch_hit_times": 3}


def install(rec: Recorder):
    """Wrap every TRACED function at its definition and at each import site."""
    import importlib

    modules = {
        short: importlib.import_module(f"metastable.{short}")
        for short in ("cli", "landscape", "rates", "potentials", "dynamics", "hitting",
                      "capacity", "checks", "lyapunov")
    }
    loaded = [m for key, m in sys.modules.items() if key.startswith("metastable.")]
    for name_id, (short, attr) in enumerate(TRACED):
        name = NAMES[name_id]
        owner = modules[short]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(rec, original, name_id, _ROWS_ARG.get(name)))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(rec, original, name_id, _ROWS_ARG.get(name))
        for mod in loaded:
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)


# -- per-layer metrics ---------------------------------------------------------


def _totals(rec: Recorder, lo: int, hi: int):
    """Per-name calls, inclusive seconds, self seconds and rows over spans [lo, hi),
    and the number of gradient spans directly under a zero-noise flow span."""
    name, parent, start, end, rows = (c[lo:hi] for c in rec.columns())
    dur = end - start
    n = len(NAMES)
    calls = np.bincount(name, minlength=n).astype(float)
    incl = np.bincount(name, weights=dur, minlength=n)
    nrows = np.bincount(name, weights=rows.astype(float), minlength=n)
    has_parent = parent >= lo
    child_time = np.zeros(len(name))
    np.add.at(child_time, parent[has_parent] - lo, dur[has_parent])
    self_t = np.bincount(name, weights=dur - child_time, minlength=n)
    grad = NAMES.index("potentials.gradient")
    flow = NAMES.index("dynamics.run_zero_noise_flow")
    under_flow = has_parent & (name == grad)
    under_flow[under_flow] = name[parent[under_flow] - lo] == flow
    return calls, incl, self_t, nrows, int(under_flow.sum())


def layer_metrics(rec: Recorder, timed_from: int, rounds: int) -> dict:
    """Per-layer metrics for the set-up plus one average timed round.

    Spans before ``timed_from`` belong to the set-up and count once; the
    timed section's totals are divided by the number of rounds, so the
    figures do not depend on how many rounds fitted into the run.
    """
    setup = _totals(rec, 0, timed_from)
    timed = _totals(rec, timed_from, len(rec))
    calls, incl, self_t, nrows = (setup[k] + timed[k] / rounds for k in range(4))
    flow_grads = setup[4] + timed[4] / rounds

    # the engine runs only in timed rounds
    py = sum(e[0] for e in rec.engine) / rounds
    traj = sum(e[1] for e in rec.engine) / rounds
    row_steps = sum(e[0] * e[2] for e in rec.engine) / rounds

    def idx(name):
        return NAMES.index(name)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    g, e, b, nb, fl = (idx(n) for n in ("potentials.gradient", "potentials.energy",
                                         "dynamics.batch_hit_times", "dynamics.noise_block",
                                         "dynamics.run_zero_noise_flow"))
    out = {
        "cli.load_config.s": (incl[idx("cli.load_config")], "s"),
        "landscape.find_critical_points.calls": (calls[idx("landscape.find_critical_points")], "count"),
        "landscape.find_critical_points.s": (incl[idx("landscape.find_critical_points")], "s"),
        "rates.build_saddle_frame.s": (incl[idx("rates.build_saddle_frame")], "s"),
        "potentials.gradient.calls": (calls[g], "count"),
        "potentials.gradient.s": (incl[g], "s"),
        "potentials.gradient.us_per_call": (per(incl[g], calls[g], 1e6), "us"),
        "potentials.gradient.rows_per_call": (per(nrows[g], calls[g]), "rows"),
        "potentials.energy.calls": (calls[e], "count"),
        "potentials.energy.s": (incl[e], "s"),
        "dynamics.batch_hit_times.calls": (calls[b], "count"),
        "dynamics.batch_hit_times.s": (incl[b], "s"),
        "dynamics.batch_hit_times.self_s": (self_t[b], "s"),
        "dynamics.noise_block.calls": (calls[nb], "count"),
        "dynamics.noise_block.s": (incl[nb], "s"),
        "dynamics.noise_block.us_per_call": (per(incl[nb], calls[nb], 1e6), "us"),
        "dynamics.python_steps": (py, "count"),
        "dynamics.traj_steps": (traj, "count"),
        "dynamics.row_occupancy": (per(traj, row_steps), "ratio"),
        "dynamics.us_per_python_step": (per(incl[b], py, 1e6), "us"),
        "dynamics.run_zero_noise_flow.calls": (calls[fl], "count"),
        "dynamics.run_zero_noise_flow.s": (incl[fl], "s"),
        "dynamics.flow_gradient_calls_per_start": (per(flow_grads, calls[fl]), "count"),
        "hitting.estimate_mean_hitting_time.s": (incl[idx("hitting.estimate_mean_hitting_time")], "s"),
        "hitting.estimate_equilibrium_potential.s": (
            incl[idx("hitting.estimate_equilibrium_potential")], "s"),
        "hitting._pairwise_moments.calls": (calls[idx("hitting._pairwise_moments")], "count"),
        "hitting._pairwise_moments.s": (incl[idx("hitting._pairwise_moments")], "s"),
        "capacity.partition_function.calls": (calls[idx("capacity.partition_function")], "count"),
        "capacity.partition_function.s": (incl[idx("capacity.partition_function")], "s"),
        "capacity.boundary_capacity_integral.s": (
            incl[idx("capacity.boundary_capacity_integral")], "s"),
        "capacity.numerator_integral.s": (incl[idx("capacity.numerator_integral")], "s"),
        "capacity.position_box.s": (incl[idx("capacity.position_box")], "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}
