"""Timing wrappers around the public entry points of each bweyl module.

The wrappers live here, in the benchmark, and are installed into an already
imported package: nothing under ``src/bweyl`` changes.  Spans are kept in
memory, aggregated by their call path (the chain of traced callers), so a
million ``ExtendedWeylGroup.mul`` calls cost one dict entry per distinct path,
not one record per call.  A span's self time is its duration minus the time
covered by its traced child spans.

A function that other modules bind at import time (``from .cyclo import
ell_valuation``) is replaced at every binding site: every module attribute
and every suite-table entry that holds the original object gets the wrapper,
otherwise calls through that name would go uncounted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

from workloads import SUITE_FUNCTIONS

# (metric prefix, module, attribute path) of every traced entry point
TARGETS = [
    ("tits.mul", "tits", "ExtendedWeylGroup.mul"),
    ("tits.inv", "tits", "ExtendedWeylGroup.inv"),
    ("tits.reduced_word", "tits", "ExtendedWeylGroup.reduced_word"),
    ("tits.weyl_torus_matrix", "tits", "ExtendedWeylGroup.weyl_torus_matrix"),
    ("tits.generate", "tits", "GeneratedSubgroup.generate"),
    ("sperm.relative_weyl_centralizer", "sperm", "relative_weyl_centralizer"),
    ("sperm.closure", "sperm", "closure"),
    ("supplement.build_supplement", "supplement", "build_supplement"),
    ("supplement.check_frobenius_conventions", "supplement",
     "check_frobenius_conventions"),
    ("supplement.verify_extmap_hypotheses", "supplement", "verify_extmap_hypotheses"),
    ("chevsign.build_sign_table", "chevsign", "build_sign_table"),
    ("chevsign.conjugate", "chevsign", "conjugate"),
    ("chevsign.verify_commutator_lemmas", "chevsign", "verify_commutator_lemmas"),
    ("chevsign.verify_graph_action", "chevsign", "verify_graph_action"),
    ("chevsign.verify_twist_power_sign", "chevsign", "verify_twist_power_sign"),
    ("charext.extend_character", "charext", "extend_character"),
    ("charext.check_multiplicative", "charext", "check_multiplicative"),
    ("charext.ExtensionCharacter.value", "charext", "ExtensionCharacter.value"),
    ("charext.verify_equivariance", "charext", "verify_equivariance"),
    ("charext.inertia_decomposition", "charext", "inertia_decomposition"),
    ("atlas.enumerate_rows", "atlas", "enumerate_rows"),
    ("atlas.realize_row", "atlas", "realize_row"),
    ("atlas.check_isolated_center_ell_part", "atlas", "check_isolated_center_ell_part"),
    ("atlas.center_disconnection_torsion", "atlas", "center_disconnection_torsion"),
    ("roots.smith_normal_form", "roots", "smith_normal_form"),
    ("roots.quotient_torsion", "roots", "quotient_torsion"),
    ("cyclo.ell_valuation", "cyclo", "ell_valuation"),
    ("cyclo.ell_valuation_phi", "cyclo", "ell_valuation_phi"),
    ("cyclo.e_set", "cyclo", "e_set"),
    ("cli.main", "cli", "main"),
    ("cli.point_task", "cli", "_run_point_suite"),
    ("cli.emit", "cli", "_emit"),
]

MODULES = ("tits", "sperm", "supplement", "chevsign", "charext", "atlas",
           "roots", "cyclo", "suites", "cli")


class Tracer:
    """Span aggregation for one process.  ``stats`` maps a call path (tuple
    of span names, outermost first) to [calls, total_s, child_s];
    ``counters`` holds the per-layer counts the wrappers derive from
    arguments and results."""

    def __init__(self):
        self.pid = os.getpid()
        self.stack: list = []
        self.stats: dict = {}
        self.counters: dict = {}
        self.marks: dict = {}
        self.missing: list = []
        self._seen_pairs: dict = {}
        self._seen_objects: dict = {}

    def reset_if_forked(self) -> None:
        """A forked pool worker inherits its parent's spans and counts; it
        starts them over.  The seen-pair and seen-object sets are kept,
        because the worker also inherits the caches they mirror."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            for state in (self.stack, self.stats, self.counters, self.marks):
                state.clear()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def count_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def count_new_object(self, key: str, obj) -> bool:
        """Count a result not returned before in this process; the object is
        kept alive so its id cannot be reused."""
        seen = self._seen_objects.setdefault(key, {})
        if id(obj) in seen:
            return False
        seen[id(obj)] = obj
        self.count(key)
        return True

    def wrap(self, name: str, fn, after=None):
        stack, stats, clock = self.stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            path = parent[0] + (name,) if parent else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = stats.get(path)
                if entry is None:
                    entry = stats[path] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                after(args, kwargs, result, start, start + elapsed)
            return result

        return functools.update_wrapper(wrapper, fn)

    def mark(self, key: str, start: float, end: float) -> None:
        first, last = self.marks.get(key, (start, end))
        self.marks[key] = (min(first, start), max(last, end))

    # -- per-target hooks ------------------------------------------------------

    def _hooks(self, group_budget, closure_budget) -> dict:
        def mul(args, kwargs, result, start, end):
            group, x, y = args
            entry = self._seen_pairs.get(id(group))
            if entry is None:
                # the group is kept alive so a later group cannot reuse its id
                entry = self._seen_pairs[id(group)] = (group, set())
            key = (x.weyl.images, y.weyl.images)
            if key not in entry[1]:
                entry[1].add(key)
                self.count("tits.mul.new_weyl_pairs")

        def generate(args, kwargs, result, start, end):
            self.count("tits.generate.elements", len(result))
            self.count_max("tits.generate.budget_fill_max",
                           len(result) / group_budget(*args, **kwargs))

        def closure(args, kwargs, result, start, end):
            self.count("sperm.closure.elements", len(result))
            self.count_max("sperm.closure.budget_fill_max",
                           len(result) / closure_budget(*args, **kwargs))

        def sign_table(args, kwargs, result, start, end):
            if self.count_new_object("chevsign.build_sign_table.builds", result):
                self.count("chevsign.build_sign_table.entries", len(result.eta))

        def global_suite(args, kwargs, result, start, end):
            self.mark("cli.global_phase", start, end)

        return {
            "tits.mul": mul,
            "tits.generate": generate,
            "sperm.closure": closure,
            "supplement.build_supplement": lambda a, k, r, s, e:
                self.count_new_object("supplement.build_supplement.builds", r),
            "chevsign.build_sign_table": sign_table,
            "charext.check_multiplicative": lambda a, k, r, s, e:
                self.count("charext.check_multiplicative.pairs", r),
            "atlas.enumerate_rows": lambda a, k, r, s, e:
                self.count("atlas.enumerate_rows.rows", len(r)),
            "cli.emit": lambda a, k, r, s, e: self.mark("cli.emit", s, e),
            "global_suite": global_suite,
        }

    # -- installation ------------------------------------------------------------

    def install(self, package, out_dir: str | None = None) -> None:
        """Wrap every target at every binding site in the loaded bweyl
        modules.  With ``out_dir``, pool workers write their spans there
        after each task, because the pool never lets them exit normally."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in MODULES}
        tits, sperm = modules["tits"], modules["sperm"]

        def budget_of(fn, default_param="budget"):
            sig = inspect.signature(fn)

            def get(*args, **kwargs):
                return sig.bind(*args, **kwargs).arguments.get(
                    default_param, sig.parameters[default_param].default)
            return get

        hooks = self._hooks(budget_of(tits.GeneratedSubgroup.generate),
                            budget_of(sperm.closure))
        replacements = {}
        for name, module_name, attr_path in TARGETS:
            owner = modules[module_name]
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr, None)
            if raw is None:
                self.missing.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.wrap(name, fn, hooks.get(name))
            if name == "cli.point_task" and out_dir is not None:
                wrapped = self._worker_dump(wrapped, out_dir)
            replacements[id(fn)] = wrapped
            if owner_path:
                setattr(owner, attr, staticmethod(wrapped)
                        if isinstance(raw, staticmethod) else wrapped)
        suites = modules["suites"]
        for report_name, fn_name in SUITE_FUNCTIONS.items():
            fn = getattr(suites, fn_name, None)
            if fn is None:
                self.missing.append(f"suites.{report_name}")
                continue
            global_suite = hooks["global_suite"] if report_name in getattr(
                suites, "GLOBAL_SUITES", {}) else None
            replacements[id(fn)] = self.wrap(f"suites.{report_name}", fn, global_suite)
        # every module-level name and suite-table entry bound to a target
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif isinstance(value, dict) and attr.isupper():
                    for key, entry in list(value.items()):
                        if id(entry) in replacements:
                            value[key] = replacements[id(entry)]

    def _worker_dump(self, wrapped, out_dir: str):
        @functools.wraps(wrapped)
        def task(*args, **kwargs):
            self.reset_if_forked()
            try:
                return wrapped(*args, **kwargs)
            finally:
                if os.getpid() != parent_pid:
                    self.dump(os.path.join(out_dir, f"worker-{os.getpid()}.json"))

        parent_pid = os.getpid()
        return task

    # -- output ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": [[list(path), *entry] for path, entry in self.stats.items()],
            "counters": self.counters,
            "marks": self.marks,
        }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


# -- per-layer metrics ---------------------------------------------------------------

def _spec(names: str, unit: str, better: str = "lower") -> list:
    return [(name, unit, better) for name in names.split()]


PER_LAYER = (
    _spec("tits.mul.calls tits.mul.new_weyl_pairs tits.inv.calls "
          "tits.reduced_word.calls tits.weyl_torus_matrix.calls "
          "tits.generate.calls tits.generate.elements", "count")
    + _spec("tits.mul.self_s tits.generate.self_s", "s")
    + _spec("tits.mul.pair_hit_ratio", "ratio", "higher")
    + _spec("tits.generate.budget_fill_max", "ratio")
    + _spec("sperm.relative_weyl_centralizer.calls sperm.closure.calls "
            "sperm.closure.elements", "count")
    + _spec("sperm.relative_weyl_centralizer.self_s sperm.closure.self_s", "s")
    + _spec("sperm.closure.budget_fill_max", "ratio")
    + _spec("supplement.build_supplement.calls supplement.build_supplement.builds",
            "count")
    + _spec("supplement.build_supplement.self_s "
            "supplement.check_frobenius_conventions.self_s "
            "supplement.verify_extmap_hypotheses.self_s", "s")
    + _spec("chevsign.build_sign_table.calls chevsign.build_sign_table.builds "
            "chevsign.build_sign_table.entries chevsign.conjugate.calls", "count")
    + _spec("chevsign.build_sign_table.self_s chevsign.conjugate.self_s "
            "chevsign.verify_commutator_lemmas.self_s "
            "chevsign.verify_graph_action.self_s "
            "chevsign.verify_twist_power_sign.self_s", "s")
    + _spec("charext.extend_character.calls charext.check_multiplicative.calls "
            "charext.ExtensionCharacter.value.calls "
            "charext.inertia_decomposition.calls", "count")
    + _spec("charext.check_multiplicative.pairs", "count", "higher")
    + _spec("charext.extend_character.self_s charext.check_multiplicative.self_s "
            "charext.ExtensionCharacter.value.self_s "
            "charext.verify_equivariance.self_s", "s")
    + _spec("charext.value.mul_per_call", "ratio")
    + _spec("atlas.enumerate_rows.calls roots.smith_normal_form.calls "
            "cyclo.ell_valuation.calls cyclo.ell_valuation_phi.calls", "count")
    + _spec("atlas.enumerate_rows.rows", "count", "higher")
    + _spec("atlas.enumerate_rows.self_s atlas.realize_row.self_s "
            "atlas.check_isolated_center_ell_part.self_s "
            "atlas.center_disconnection_torsion.self_s "
            "roots.smith_normal_form.self_s roots.quotient_torsion.self_s "
            "cyclo.ell_valuation.self_s cyclo.ell_valuation_phi.self_s "
            "cyclo.e_set.self_s", "s")
    + _spec(" ".join(f"suites.{name}.self_s" for name in SUITE_FUNCTIONS), "s")
    + _spec("suites.checks", "count", "higher")
    + _spec("cli.global_phase_s cli.pool_phase_s cli.emit_s cli.worker_busy_s "
            "cli.worker_idle_s", "s")
    + _spec(" ".join(f"{module}.self_s" for module in MODULES), "s")
    + _spec("bench.traced_run_s bench.untraced_run_s bench.trace_overhead_s", "s")
    + _spec("bench.expected_zero_calls", "count")
)

# span names that must record calls on each workload; a zero here means a
# wrapper missed its binding site or the workload no longer does that work
_CORE = ("tits.mul tits.inv tits.reduced_word tits.weyl_torus_matrix "
         "tits.generate supplement.build_supplement ")
EXPECTED_WORK = {
    "supplement-sign": (
        _CORE + "sperm.relative_weyl_centralizer sperm.closure "
        "supplement.check_frobenius_conventions chevsign.build_sign_table "
        "chevsign.conjugate chevsign.verify_commutator_lemmas "
        "chevsign.verify_graph_action chevsign.verify_twist_power_sign "
        "suites.supplement suites.commutators suites.graph-action").split(),
    "charext-heavy": (
        _CORE + "supplement.verify_extmap_hypotheses charext.extend_character "
        "charext.check_multiplicative charext.ExtensionCharacter.value "
        "charext.verify_equivariance charext.inertia_decomposition "
        "suites.charext suites.extmap-hypotheses").split(),
    "verify-cli": [name for name, _, _ in TARGETS]
    + [f"suites.{name}" for name in SUITE_FUNCTIONS],
}


def layer_metrics(workload: str, snapshots: list, traced_run_s: float,
                  untraced_run_s: float, jobs: int, checks: int) -> tuple[dict, list]:
    """Per-layer metric values from the traced run's snapshots (the main
    process first, then any pool workers), and the expected entry points
    that recorded no call."""
    calls: dict = {}
    self_s: dict = {}
    counters: dict = {}
    mul_under_value = 0
    for snap in snapshots:
        for path, n, total, child in snap["stats"]:
            name = path[-1]
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + total - child
            if name == "tits.mul" and "charext.ExtensionCharacter.value" in path:
                mul_under_value += n
        for key, value in snap["counters"].items():
            combine = max if key.endswith("_max") else (lambda a, b: a + b)
            counters[key] = combine(counters.get(key, 0), value)
    main_snapshot = snapshots[0]
    marks = main_snapshot["marks"]
    global_phase = marks.get("cli.global_phase")
    emit = marks.get("cli.emit")
    pool_phase = emit[0] - global_phase[1] if global_phase and emit else 0.0
    busy = sum(total for snap in snapshots[1:]
               for path, _, total, _ in snap["stats"] if path == ["cli.point_task"])
    missing = [name for name in EXPECTED_WORK[workload] if not calls.get(name)]
    mul_calls = calls.get("tits.mul", 0)
    value_calls = calls.get("charext.ExtensionCharacter.value", 0)
    derived = {
        "tits.mul.pair_hit_ratio": (
            1 - counters.get("tits.mul.new_weyl_pairs", 0) / mul_calls
            if mul_calls else 0.0),
        "charext.value.mul_per_call": (
            mul_under_value / value_calls if value_calls else 0.0),
        "suites.checks": checks,
        "cli.global_phase_s": global_phase[1] - global_phase[0] if global_phase else 0.0,
        "cli.pool_phase_s": pool_phase,
        "cli.emit_s": emit[1] - emit[0] if emit else 0.0,
        "cli.worker_busy_s": busy,
        "cli.worker_idle_s": jobs * pool_phase - busy if busy else 0.0,
        "bench.traced_run_s": traced_run_s,
        "bench.untraced_run_s": untraced_run_s,
        "bench.trace_overhead_s": traced_run_s - untraced_run_s,
        "bench.expected_zero_calls": len(missing),
    }
    values = {}
    for metric, _, _ in PER_LAYER:
        prefix, stat = metric.rsplit(".", 1)
        if metric in derived:
            values[metric] = derived[metric]
        elif metric in counters or metric.endswith(("builds", "elements", "pairs",
                                                    "entries", "rows", "_max")):
            values[metric] = counters.get(metric, 0)
        elif stat == "calls":
            values[metric] = calls.get(prefix, 0)
        elif prefix in MODULES:
            values[metric] = sum(v for name, v in self_s.items()
                                 if name.split(".", 1)[0] == prefix)
        else:
            values[metric] = self_s.get(prefix, 0.0)
    return values, missing
