"""Span tracing installed from outside the package.

`Tracer.install()` rebinds public functions of the `ensdistill` modules to
timing wrappers in the namespace of every module that imports them (for
example `findwl.forward`, `data.sgd_epoch`, `distill.find_weak_learner`), so
no file of the package changes.  Every call becomes a span (name, start, end,
parent) kept in memory; `save()` writes the spans out at the end and
`summary()` gives calls, total time and self time (total minus the time of
child spans) per span name.  `uninstall()` restores the original bindings.
"""
from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np

# (span name, attribute, module that defines it, modules whose binding is
# replaced).  sgd_epoch is one function timed under three names, by caller.
TRACED = (
    ("nets.forward", "forward", "nets", ("findwl", "distill", "evaluate", "data")),
    ("nets.backward", "backward", "nets", ("findwl",)),
    ("findwl.init_params", "init_params", "nets", ("findwl",)),
    ("findwl.sgd_epoch", "sgd_epoch", "findwl", ("findwl",)),
    ("data.sgd_epoch", "sgd_epoch", "findwl", ("data",)),
    ("evaluate.sgd_epoch", "sgd_epoch", "findwl", ("evaluate",)),
    ("findwl.find_weak_learner", "find_weak_learner", "findwl", ("distill",)),
    ("game.weak_learning_check", "weak_learning_check", "game", ("findwl",)),
    ("game.md_update", "md_update", "game", ("distill", "evaluate")),
    ("distill.run", "run", "distill", ("distill",)),
    ("distill.artifact_io", "save_ensemble", "distill", ("distill",)),
    ("distill.artifact_io", "load_ensemble", "distill", ("distill",)),
    ("distill.artifact_io", "write_history", "distill", ("distill",)),
    ("distill.artifact_io", "read_history", "distill", ("distill",)),
    ("distill.ensemble_predict", "ensemble_predict", "distill", ("evaluate",)),
    ("data.gen", "gen_ellipsoid", "data", ("data",)),
    ("data.gen", "gen_cube", "data", ("data",)),
    ("data.gen", "split", "data", ("data",)),
    ("data.train_teacher", "train_teacher", "data", ("data",)),
    ("data.csv_write", "save_dataset_csv", "data", ("data",)),
    ("data.csv_write", "save_logits_csv", "data", ("data",)),
    ("data.csv_read", "load_dataset_csv", "data", ("data",)),
    ("data.csv_read", "load_logits_csv", "data", ("data",)),
    ("evaluate.anytime_curve", "anytime_curve", "evaluate", ("evaluate",)),
    ("evaluate.early_exit", "early_exit", "evaluate", ("evaluate",)),
    ("evaluate.verify_bound", "verify_bound", "evaluate", ("evaluate",)),
    ("evaluate.baseline_resched", "baseline_resched", "evaluate", ("evaluate",)),
    ("evaluate.train_plain_student", "train_plain_student", "evaluate", ("evaluate",)),
)
RNG_METHODS = ("permutation", "gaussian", "split")


class Tracer:
    """Spans and boundary counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list = []
        self.counts = {"forward_rows": 0, "forward_flop": 0, "accepted_searches": 0,
                       "csv_write_bytes": 0, "csv_read_bytes": 0}

    # -- recording -----------------------------------------------------------

    def _begin(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """One span around a block, such as a whole pipeline phase."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._finish(index)

    def wrap(self, name: str, fn, note=None):
        """`fn` recording a span per call; `note(args, result)` runs after a
        call that returned."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(index)
            if note is not None:
                note(args, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> None:
        """Rebind every traced name; `modules` maps short name -> module."""
        flops = modules["nets"].flops
        counts = self.counts

        def forward_note(args, result):
            rows = np.shape(args[1])[0]
            counts["forward_rows"] += rows
            counts["forward_flop"] += flops(args[0]) * rows

        def find_note(args, result):
            counts["accepted_searches"] += result.params is not None

        def write_note(args, result):
            counts["csv_write_bytes"] += os.path.getsize(args[0])

        def read_note(args, result):
            counts["csv_read_bytes"] += os.path.getsize(args[0])

        notes = {"nets.forward": forward_note, "findwl.find_weak_learner": find_note,
                 "data.csv_write": write_note, "data.csv_read": read_note}
        # take every original before rebinding any, so no wrapper wraps another
        originals = {(home, attr): getattr(modules[home], attr)
                     for _, attr, home, _ in TRACED}
        for name, attr, home, importers in TRACED:
            wrapped = self.wrap(name, originals[home, attr], notes.get(name))
            for importer in importers:
                self._rebind(modules[importer], attr, wrapped)
        rng = modules["core"].RngStream
        for method in RNG_METHODS:
            self._rebind(rng, method, self.wrap("core.rng", getattr(rng, method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}."""
        nid, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float((dur[sel] - child[sel]).sum())}
        return out

    def count_under(self, name: str, parent_name: str) -> int:
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        nid, parent, _, _ = self._arrays()
        parents = parent[(nid == self._ids[name]) & (parent >= 0)]
        return int(np.count_nonzero(nid[parents] == self._ids[parent_name]))

    def save(self, path) -> None:
        nid, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=start, end=end)
