"""Module-boundary tracing from the benchmark's own files.

``install`` replaces each public name that one henkin module reaches in
another (``schemas.evaluate``, ``henkin.evaluate.att``, the names ``cli``
binds with ``from .x import y``, ...) by a wrapper that records a span and
reads deterministic counters from the call's arguments and return value.
Nothing in ``src/`` changes.  A name is never wrapped where it refers to
itself: ``henkin.evaluate.evaluate`` recurses through its module global, so
only the binding in ``schemas`` is wrapped.

Spans live in memory in flat arrays (name, parent index, start, end), with
the operation that caused them at the root, and are written out when the run
ends.  Arrays are not gc-tracked, so hundreds of thousands of spans add
nothing to the collections the program under test triggers.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter


def _searched(counts, args, check):
    """Assignments ``check_schema`` evaluated: the whole product when the
    schema holds, else the counterexample's position in it, plus one."""
    structure = args[0]
    values = check.counterexample.values if check.counterexample else None
    position, total = 0, 1
    for v in check.searched:
        pool = range(structure.size) if v.is_individual else structure.domain(v.arity)
        total *= len(pool)
        if values is not None:
            position = position * len(pool) + list(pool).index(values[v])
    counts["schemas.assignments_searched"] += total if values is None else position + 1


def _choice(counts, args, report):
    counts["fraenkel.choice.candidates_tried"] += report.candidates_tried
    counts["fraenkel.choice.witnessed"] += report.status == "witnessed"


def _saturation(counts, args, result):
    report = result[1]
    counts["evaluate.saturate.rounds"] += report.rounds
    counts["evaluate.saturate.formulas_used"] += report.formulas_used
    counts["evaluate.saturate.tables_added"] += sum(report.added.values())


def _exit_code(counts, args, code):
    counts[f"cli.exit_code.{code}"] += 1


def _chars(counts, args, formula):
    counts["parser.chars"] += len(args[0])


def _serialized(counts, args, doc):
    counts["structures.tables_serialized"] += sum(map(len, doc["domains"].values()))


# (module, attribute, span name, counter hook)
BOUNDARIES = (
    ("henkin.parser", "parse", "parser.parse", _chars),
    ("henkin.cli", "parse", "parser.parse", _chars),
    ("henkin.cli", "format_formula", "syntax.format_formula", None),
    ("henkin.schemas", "check_schema", "schemas.check_schema", _searched),
    ("henkin.schemas", "build", "schemas.build", None),
    ("henkin.schemas", "evaluate", "evaluate.evaluate", None),
    ("henkin.evaluate", "att", "evaluate.att",
     lambda c, a, r: c.update({"evaluate.att.points": len(r.table.bits)})),
    ("henkin.evaluate", "check_comprehension", "evaluate.check_comprehension", None),
    ("henkin.evaluate", "saturate_with_report", "evaluate.saturate_with_report", _saturation),
    ("henkin.cli", "saturate_with_report", "evaluate.saturate_with_report", _saturation),
    ("henkin.corpus", "enumerate_formulas", "corpus.enumerate_formulas",
     lambda c, a, r: c.update({"corpus.formulas": len(r)})),
    ("henkin.structures", "standard_structure", "structures.standard_structure", None),
    ("henkin.cli", "load_structure", "structures.load_structure", None),
    ("henkin.structures", "structure_to_dict", "structures.structure_to_dict", _serialized),
    ("henkin.cli", "structure_to_dict", "structures.structure_to_dict", _serialized),
    ("henkin.groups", "build_permutation_model", "groups.build_permutation_model",
     lambda c, a, r: c.update({"groups.tables_built": sum(map(len, r.domains.values()))})),
    ("henkin.fraenkel", "check_choice_instance_sigma0", "fraenkel.choice", _choice),
    ("henkin.fraenkel", "symbolic_evaluate", "fraenkel.symbolic_evaluate", None),
    ("henkin.fraenkel", "wellorder_counterexample_sweep", "fraenkel.sweep",
     lambda c, a, r: c.update({"fraenkel.sweep.predicates": r.total_predicates})),
    ("henkin.cli", "main", "cli.main", _exit_code),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self._patched: list[tuple] = []

    def add(self, name: str, amount: int) -> None:
        """Count work the benchmark observes itself (CLI report bytes)."""
        if self.active:
            self.counts[name] += amount

    def install(self) -> None:
        # import every module first: a module imported later would bind a
        # wrapper with ``from .x import y`` and keep it after ``uninstall``
        modules = [importlib.import_module(b[0]) for b in BOUNDARIES]
        for module, (_, attr, name, hook) in zip(modules, BOUNDARIES):
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook))
            self._patched.append((module, attr, original))
        self.active = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.active = False

    def begin(self, name: str) -> int:
        sid = len(self.start)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._name_ids[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def end_span(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def spans(self):
        """``(name, parent, start, end)`` for every span, in start order."""
        for k in range(len(self.start)):
            yield self.names[self.name[k]], self.parent[k], self.start[k], self.end[k]

    def _wrap(self, fn, name, hook):
        counts = self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                self.end_span(sid)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: total duration, and self time (duration minus the
        direct children's durations)."""
        total: Counter = Counter()
        children: Counter = Counter()
        for name, parent, start, end in self.spans():
            total[name] += end - start
            children[parent] += end - start
        own: Counter = Counter()
        for k, (name, parent, start, end) in enumerate(self.spans()):
            own[name] += end - start - children[k]
        return total, own

    def choice_split(self) -> dict[str, float]:
        """Inside each ``check_choice_instance_sigma0`` span, the first
        ``symbolic_evaluate`` child is the antecedent and every later one is
        matrix verification; the remaining self time is candidate
        enumeration."""
        choice = self._name_ids.get("fraenkel.choice")
        kids: dict[int, list[float]] = {}
        for name, parent, start, end in self.spans():
            if name == "fraenkel.symbolic_evaluate" and parent >= 0 and self.name[parent] == choice:
                kids.setdefault(parent, []).append(end - start)
        split = {"antecedent": 0.0, "enumeration": 0.0, "verify": 0.0}
        for k, (name, parent, start, end) in enumerate(self.spans()):
            if name == "fraenkel.choice":
                durations = kids.get(k, [])
                split["antecedent"] += durations[0] if durations else 0.0
                split["verify"] += sum(durations[1:])
                split["enumeration"] += end - start - sum(durations)
        return split

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for k, (name, parent, start, end) in enumerate(self.spans()):
                fh.write(f"{k}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
