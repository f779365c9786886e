"""Layer wrappers for the traced run: calls and self time per function.

The wrappers are installed from outside the package. For a plain
function, every loaded ``repro`` module whose namespace holds the
original object gets the wrapper in its place, so a caller that did
``from repro.flow.absint import compute_facts`` at import time is
patched as well as one that looks the name up in ``repro.flow``. A
method is patched once on its class. ``testbed.scenario`` wraps every
value of the ``SCENARIOS`` table, which is how the harness calls them.

Self time is a span's duration minus the durations of the wrapped
calls made inside it, tracked per thread, so ``sim.step.self_ms`` is
the clock-edge and commit work with ``settle`` taken out.
"""

import functools
import importlib
import inspect
import sys
import threading
import time

#: (metric prefix, module, attribute). ``Class.method`` patches the
#: class; ``SCENARIOS[*]`` patches every value of that dict.
TARGETS = (
    ("hdl.parse", "repro.hdl.parser", "parse"),
    ("hdl.elaborate", "repro.hdl.elaborate", "elaborate"),
    ("hdl.codegen", "repro.hdl.codegen", "generate_module"),
    ("sim.construct", "repro.sim.simulator", "Simulator.__init__"),
    ("sim.step", "repro.sim.simulator", "Simulator.step"),
    ("sim.settle", "repro.sim.simulator", "Simulator.settle"),
    ("core.instrumenter", "repro.core.instrument", "clone_module"),
    ("core.signalcat", "repro.core.signalcat", "SignalCat.__init__"),
    ("core.fsm_monitor", "repro.core.fsm_monitor", "FSMMonitor.__init__"),
    ("core.dependency_monitor", "repro.core.dependency_monitor",
     "DependencyMonitor.__init__"),
    ("core.statistics_monitor", "repro.core.statistics_monitor",
     "StatisticsMonitor.__init__"),
    ("core.losscheck", "repro.core.losscheck", "LossCheck.__init__"),
    ("analysis.detect_fsms", "repro.analysis.fsm_detect", "detect_fsms"),
    ("analysis.build_dependency_graph", "repro.analysis.depgraph",
     "build_dependency_graph"),
    ("analysis.build_propagation_table", "repro.analysis.propagation",
     "build_propagation_table"),
    ("analysis.analyze_module", "repro.analysis.assignments",
     "analyze_module"),
    ("flow.analyze_flow", "repro.flow.checkers", "analyze_flow"),
    ("flow.compute_facts", "repro.flow.absint", "compute_facts"),
    ("flow.build_signal_graph", "repro.flow.graph", "build_signal_graph"),
    ("flow.build_def_use", "repro.flow.defuse", "build_def_use"),
    ("diag.lint_module", "repro.diag.lint", "lint_module"),
    ("diag.check_text", "repro.diag.check", "check_text"),
    ("resources.estimate_resources", "repro.resources.estimator",
     "estimate_resources"),
    ("testbed.scenario", "repro.testbed.scenarios", "SCENARIOS[*]"),
    ("faults.scorer_build", "repro.faults.scoring",
     "DetectionScorer.__init__"),
    ("faults.score", "repro.faults.scoring", "DetectionScorer.score"),
    ("repair.enumerate_sites", "repro.repair.sites", "enumerate_sites"),
    ("repair.enumerate_candidates", "repro.repair.templates",
     "enumerate_candidates"),
    ("repair.validate_candidate", "repro.repair.validate",
     "validate_candidate"),
    ("fuzz.build_anchor_maps", "repro.fuzz.mutator", "_build_anchor_maps"),
    ("wave.capture", "repro.wave.trace", "Trace.from_waveform"),
    ("wave.diff_traces", "repro.wave.align", "diff_traces"),
    ("runtime.journal_append", "repro.runtime", "JsonlJournal.append"),
)

LAYER_NAMES = tuple(name for name, _, _ in TARGETS)


def _repro_namespaces():
    return [vars(module) for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "repro"]


class LayerTracer:
    """Per-thread span stacks feeding per-name call/self-time totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._undo = []
        #: Sum of ``FactTable.iterations`` over every compute_facts call.
        self.absint_iterations = 0

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def _enter(self):
        self._table()
        frame = [time.perf_counter(), 0.0]
        self._local.stack.append(frame)
        return frame

    def _exit(self, name, frame, count):
        elapsed = time.perf_counter() - frame[0]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        entry = self._local.table.setdefault(name, [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += elapsed - frame[1]
        entry[2] += elapsed

    def wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(name, frame, 1)
            if inspect.isgenerator(result):
                return tracer._wrap_generator(name, result)
            if name == "flow.compute_facts":
                tracer.absint_iterations += result.iterations
            return result

        wrapper.__wrapped_layer__ = func
        wrapper.__layer_tracer__ = tracer
        return wrapper

    def _wrap_generator(self, name, generator):
        # A lazy producer does its work on each resume, not at the call.
        while True:
            frame = self._enter()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._exit(name, frame, 0)
            yield item

    def install(self):
        """Patch every target; :meth:`uninstall` restores the originals."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if attr == "SCENARIOS[*]":
                table = module.SCENARIOS
                for key, func in list(table.items()):
                    patched = self.wrap(name, func)
                    self._replace_everywhere(func, patched)
                    table[key] = patched
                    self._undo.append((table.__setitem__, key, func))
            elif "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__))
                else:
                    patched = self.wrap(name, original)
                setattr(cls, method, patched)
                self._undo.append((setattr, cls, method, original))
            else:
                original = getattr(module, attr)
                self._replace_everywhere(original, self.wrap(name, original))
        return self

    def _replace_everywhere(self, original, patched):
        for namespace in _repro_namespaces():
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = patched

    def uninstall(self):
        while self._undo:
            action, *args = self._undo.pop()
            action(*args)
        # Module namespaces, including those of modules first imported
        # while tracing, which bound the wrappers too.
        for namespace in _repro_namespaces():
            for key, value in list(namespace.items()):
                if getattr(value, "__layer_tracer__", None) is self:
                    namespace[key] = value.__wrapped_layer__

    def totals(self):
        """``{name: (calls, self_s, total_s)}`` merged over threads."""
        merged = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s, total_s) in table.items():
                entry = merged[name]
                entry[0] += calls
                entry[1] += self_s
                entry[2] += total_s
        return {name: tuple(entry) for name, entry in merged.items()}


#: Layers each workload must exercise, and layers it must leave alone.
#: A wrapper that a caller bypasses reads zero calls, and fails the
#: traced run's coverage operation instead of reporting a silent zero.
COVERAGE = {
    "check-testbed": (
        ("hdl.parse", "hdl.elaborate", "core.instrumenter",
         "core.signalcat", "core.fsm_monitor", "core.dependency_monitor",
         "core.statistics_monitor", "core.losscheck",
         "analysis.detect_fsms", "analysis.build_dependency_graph",
         "analysis.build_propagation_table", "flow.analyze_flow",
         "flow.compute_facts", "flow.build_signal_graph",
         "flow.build_def_use", "diag.lint_module", "diag.check_text",
         "resources.estimate_resources"),
        ("sim.construct", "sim.step", "sim.settle", "testbed.scenario",
         "faults.scorer_build", "faults.score", "repair.validate_candidate"),
    ),
    "faults-campaign": (
        ("sim.construct", "sim.step", "sim.settle", "testbed.scenario",
         "faults.scorer_build", "faults.score", "wave.capture",
         "runtime.journal_append"),
        ("flow.compute_facts", "flow.analyze_flow", "diag.check_text",
         "repair.validate_candidate"),
    ),
    "repair-d9-c2": (
        ("hdl.parse", "hdl.elaborate", "hdl.codegen", "sim.construct",
         "sim.step", "sim.settle", "repair.enumerate_sites",
         "repair.enumerate_candidates", "repair.validate_candidate",
         "fuzz.build_anchor_maps", "wave.capture", "wave.diff_traces",
         "runtime.journal_append"),
        (),
    ),
    # Worker-side layers show through exec_split's traced re-run of
    # sampled miss jobs in process.
    "serve-mix": (
        ("hdl.parse", "hdl.elaborate", "sim.construct", "sim.step",
         "sim.settle", "core.instrumenter", "core.signalcat",
         "core.fsm_monitor", "core.dependency_monitor",
         "core.statistics_monitor", "core.losscheck",
         "analysis.detect_fsms", "analysis.build_dependency_graph",
         "analysis.build_propagation_table", "analysis.analyze_module",
         "flow.analyze_flow", "flow.compute_facts",
         "flow.build_signal_graph", "flow.build_def_use",
         "diag.lint_module", "diag.check_text", "testbed.scenario",
         "faults.scorer_build", "faults.score", "wave.capture",
         "wave.diff_traces", "runtime.journal_append"),
        ("repair.validate_candidate",),
    ),
}


def coverage_violations(workload, totals):
    """Messages for each predicted layer that did (not) record calls."""
    present, absent = COVERAGE[workload]
    problems = ["%s recorded no calls" % name
                for name in present if totals[name][0] == 0]
    problems += ["%s recorded %d calls, predicted none"
                 % (name, totals[name][0])
                 for name in absent if totals[name][0]]
    return problems
