"""Spans around bellsim's public functions, installed from outside ``src/``.

A traced pass wraps each instrumented function in every ``bellsim.*``
namespace that holds it (``bounds`` and ``adversary`` bind names at
import, so patching only the defining module would miss their calls),
plus two class attributes.  Each call records a span ``(id, name,
start, end, parent, thread, attrs)`` in memory; nothing is written until
the run ends.  Spans opened in worker threads take the innermost open
span of the main thread as parent, which is the ``run_experiment`` or
``search`` call that started the pool.

Self time of a span is its duration minus the measure of the union of
its children's intervals, so overlapping children from two worker
threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("sampler", "run_experiment", "sampler.run_experiment"),
    ("sampler", "substream", "sampler.substream"),
    ("sampler", "write_counts_csv", "sampler.write_counts_csv"),
    ("estimator", "read_counts_csv", "estimator.read_counts_csv"),
    ("estimator", "analysis_report", "estimator.analysis_report"),
    ("modelio", "load_model", "modelio.load_model"),
    ("qm", "effective_chsh_value", "qm.effective_chsh_value"),
    ("model", "validate_solution1", "model.validate"),
    ("model", "validate_solution2", "model.validate"),
    ("bounds", "effective_chsh_value", "bounds.effective_chsh_value"),
    ("bounds", "effective_chsh", "bounds.effective_chsh"),
    ("adversary", "objective", "adversary.objective"),
    ("adversary", "search", "adversary.search"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_verify_bounds", "cli.verify_bounds"),
)

# (module, class, method, span name) for class attributes.
METHODS = (
    ("model", "SLHVModel", "triples", "model.triples"),
    ("adversary", "ParametricFamily", "instantiate", "adversary.instantiate"),
)


def _run_experiment_attrs(args, kwargs):
    source, plan = args[0], args[1]
    kind = "qm" if type(source).__name__ == "QMModelParams" else "slhv"
    return {"kind": kind, "trials": 4 * plan.trials_per_pair}


ATTRS = {"sampler.run_experiment": _run_experiment_attrs}


class CountingGenerator:
    """Delegates ``random`` to a numpy Generator and counts the uniforms.

    The sampler's block kernels draw only through ``Generator.random``
    (its documented draw order), so this sees every uniform they use.
    """

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        self._tracer.count_uniforms(1 if size is None else int(size))
        return self._gen.random(size, *args, **kwargs)


class Tracer:
    """In-memory span recorder; create it on the thread that runs the pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.uniforms = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.current_thread()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def count_uniforms(self, n: int) -> None:
        with self._lock:
            self.uniforms += n

    def _parent_and_stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack[-1], stack
        if threading.current_thread() is not self._main_thread and self._main_stack:
            return self._main_stack[-1], stack
        return None, stack

    def wrap(self, name: str, fn):
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, stack = self._parent_and_stack()
            sid = next(self._ids)
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent,
                                   threading.get_ident(), attrs))
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every bellsim namespace; undo with :meth:`uninstall`."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "bellsim" or name.startswith("bellsim."))]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"bellsim.{module_name}"], attr)
            target = original
            if (module_name, attr) == ("sampler", "substream"):
                target = self._counting_substream(original)
            wrapped = self.wrap(span, target)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._set(ns, attr, wrapped)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"bellsim.{module_name}"], cls_name)
            self._set(cls, attr, self.wrap(span, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _counting_substream(self, original):
        def substream(*args, **kwargs):
            return CountingGenerator(original(*args, **kwargs), self)
        return substream

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, tid, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": t0 - self.origin,
                                     "end": t1 - self.origin,
                                     "parent": parent, "thread": tid,
                                     "attrs": attrs}) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanStats:
    """Per-name call counts, inclusive and self times derived from spans."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for sid, _name, t0, t1, parent, _tid, _attrs in spans:
            if parent is not None:
                children[parent].append((t0, t1))
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _parent, _tid, _attrs in spans:
            clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())
                       if b > t0 and a < t1]
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += (t1 - t0) - _union_length(clipped)
        self.spans = spans

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        n = 0
        for span in self.spans:
            if span[1] != name:
                continue
            parent = span[4]
            while parent is not None:
                up = self.by_id[parent]
                if up[1] == ancestor:
                    n += 1
                    break
                parent = up[4]
        return n

    def us_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e6 * self.total_s[name] / calls if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass; layers it never entered read 0."""
    st = SpanStats(tracer.spans)
    trials = {"qm": 0, "slhv": 0}
    busy = {"qm": 0.0, "slhv": 0.0}
    for _sid, name, t0, t1, _parent, _tid, attrs in tracer.spans:
        if name == "sampler.run_experiment":
            trials[attrs["kind"]] += attrs["trials"]
            busy[attrs["kind"]] += t1 - t0
    evals = st.calls.get("bounds.effective_chsh_value", 0)
    reports = st.calls.get("bounds.effective_chsh", 0)
    return {
        "sampler.qm_trials_per_s": _ratio(trials["qm"], busy["qm"]),
        "sampler.slhv_trials_per_s": _ratio(trials["slhv"], busy["slhv"]),
        "sampler.uniforms_per_trial": _ratio(tracer.uniforms,
                                             trials["qm"] + trials["slhv"]),
        "sampler.run_experiment.self_s": st.self_s["sampler.run_experiment"],
        "sampler.substream.calls": st.calls["sampler.substream"],
        "sampler.substream.self_s": st.self_s["sampler.substream"],
        "sampler.write_counts_csv.self_s": st.self_s["sampler.write_counts_csv"],
        "estimator.read_counts_csv.self_s": st.self_s["estimator.read_counts_csv"],
        "estimator.analysis_report.self_s": st.self_s["estimator.analysis_report"],
        "modelio.load_model.self_s": st.self_s["modelio.load_model"],
        "qm.effective_chsh_value.calls": st.calls["qm.effective_chsh_value"],
        "model.triples.calls": st.calls["model.triples"],
        "model.triples.self_s": st.self_s["model.triples"],
        "bounds.triples_per_eval": _ratio(
            st.count_under("model.triples", "bounds.effective_chsh_value"), evals),
        "bounds.effective_chsh_value.calls": evals,
        "bounds.effective_chsh_value.us_per_call":
            st.us_per_call("bounds.effective_chsh_value"),
        "bounds.effective_chsh.calls": reports,
        "bounds.effective_chsh.self_s": st.self_s["bounds.effective_chsh"],
        "bounds.triples_per_report": _ratio(
            st.count_under("model.triples", "bounds.effective_chsh"), reports),
        "model.validate.calls": st.calls["model.validate"],
        "model.validate.self_s": st.self_s["model.validate"],
        "adversary.objective.calls": st.calls["adversary.objective"],
        "adversary.objective.us_per_call": st.us_per_call("adversary.objective"),
        "adversary.instantiate.self_s": st.self_s["adversary.instantiate"],
        "adversary.optimizer_s": st.self_s["adversary.search"],
        "cli.simulate_s": st.total_s["cli.simulate"],
        "cli.analyze_s": st.total_s["cli.analyze"],
        "cli.verify_bounds_s": st.total_s["cli.verify_bounds"],
    }
