"""One benchmark worker process: set up one workload from a seed, then, by
mode, stop (``setup``), measure passes with tracing off (``measure``), or
make one untraced and one traced pass (``trace``).  Prints one JSON object
as its last line of stdout.

Run by ``run.py``; by hand:
``python3 perfbench/worker.py --mode measure --workload cli --seed 1 --seconds 5``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
SETUP_BOUNDARY_SAMPLES = 10


def timed_setup(meter, workload: str, seed: int, tmp: Path, tracer: Tracer, trace: bool):
    """From the import of ``henkin`` to every input built."""

    def setup():
        sys.path.insert(0, str(ROOT / "src"))
        import henkin

        if not Path(henkin.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"henkin imported from {henkin.__file__}, not from {ROOT / 'src'}")
        if trace:
            tracer.install()
        return workloads.BUILDERS[workload](seed, tmp, tracer)

    for _ in range(SETUP_BOUNDARY_SAMPLES):
        meter.sample()
    ops, interval = meter.timed(setup)
    for _ in range(SETUP_BOUNDARY_SAMPLES):
        meter.sample()
    return ops, interval[2], meter.normalised(interval)


class Pass:
    """Outcome of one pass over the fixed operation list."""

    def __init__(self):
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.results: list[object] = []
        self.failures: dict[str, str] = {}
        self.wrong: dict[str, str] = {}


def run_pass(meter, ops, tracer: Tracer, keep_results=False) -> Pass:
    from henkin.structures import CapExceeded

    out = Pass()
    intervals = []
    for op in ops:
        # every operation starts from an empty young generation, so the
        # collections it triggers depend only on its own allocations
        gc.collect()
        sid = tracer.begin(op.name) if tracer.active else None
        result = None
        try:
            result, interval = meter.timed(op.run)
        except CapExceeded as exc:
            interval = meter.last
            out.failures[op.name] = f"cap: {exc}"
        except Exception as exc:  # an uncaught error is a failed operation
            interval = meter.last
            out.failures[op.name] = f"raised: {type(exc).__name__}: {str(exc)[:120]}"
        finally:
            if sid is not None:
                tracer.end_span(sid)
        intervals.append(interval)
        if keep_results:
            out.results.append(result)
        if op.name in out.failures:
            continue
        try:
            reason = op.judge(result)
        except workloads.WrongAnswer as exc:
            out.wrong[op.name] = str(exc)
            continue
        if reason is not None:
            out.failures[op.name] = reason
    out.raw = [raw for _, _, raw in intervals]
    out.norm = [meter.normalised(i) for i in intervals]
    return out


def audit(ops, first: Pass) -> dict[str, str]:
    wrong = {}
    for op, result in zip(ops, first.results):
        if op.audit is None or op.name in first.failures or op.name in first.wrong:
            continue
        try:
            op.audit(result)
        except workloads.WrongAnswer as exc:
            wrong[op.name] = str(exc)
    return wrong


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    meter = speed.SpeedMeter(REFERENCE["calibration_s"])
    tracer = Tracer()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        with meter:
            trace = args.mode == "trace"
            ops, setup_raw, setup_s = timed_setup(meter, args.workload, args.seed, tmp, tracer, trace)
            report = {"setup_raw_s": setup_raw, "setup_s": setup_s}
            if args.mode != "setup":
                report.update(measure(args, meter, ops, tracer, trace, scratch))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))


def measure(args, meter, ops, tracer: Tracer, trace: bool, scratch: Path) -> dict:
    tracer.uninstall()
    for op in ops:
        if op.prepare is not None:
            op.prepare()
    # the inputs stay alive for the whole run; collections inside an
    # operation then scan only what the operation allocated
    gc.collect()
    gc.freeze()
    started = perf_counter()
    passes = [run_pass(meter, ops, tracer, keep_results=True)]
    if trace:
        tracer.install()
        passes.append(run_pass(meter, ops, tracer))
        tracer.uninstall()
    else:
        # start another pass only while it is expected to end in time
        while (perf_counter() - started) * (1 + 1 / len(passes)) <= args.seconds:
            passes.append(run_pass(meter, ops, tracer))
    wrong = audit(ops, passes[0])
    for p in passes:
        wrong.update(p.wrong)
    failures = {}
    for p in passes:
        for name, reason in p.failures.items():
            failures.setdefault(name, reason)
    names = [op.name for op in ops]
    out = {
        "ops": len(ops),
        "passes": len(passes),
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p.failures) for p in passes),
        "failures": {n: failures[n] for n in names if n in failures},
        "wrong": {n: wrong[n] for n in names if n in wrong},
        "wall_s": [sum(p.norm) for p in passes],
        "wall_raw_s": [sum(p.raw) for p in passes],
        "op_ms": [1e3 * t for p in passes for t in p.norm],
        "op_raw_ms": [1e3 * t for p in passes for t in p.raw],
        "speed_ratio": meter.speed_ratio(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out["layers"] = layer_metrics(tracer, passes, meter)
        tracer.write(scratch / f"trace-{args.workload}-{args.seed}.tsv")
    return out


def layer_metrics(tracer: Tracer, passes, meter) -> dict:
    """Per-layer metrics over the traced set-up and the traced pass, times in
    reference-speed seconds (raw times scaled by the run's mean speed)."""
    scale = 1 / meter.speed_ratio()
    total, own = tracer.self_times()
    counts = tracer.counts
    split = tracer.choice_split()

    def rate(count, seconds):
        return count / (seconds * scale) if seconds > 0 else 0.0

    m = {
        "parser.parse.calls": counts["parser.parse.calls"],
        "parser.parse.self_s": own["parser.parse"] * scale,
        "parser.chars_per_s": rate(counts["parser.chars"], total["parser.parse"]),
        "syntax.format_formula.self_s": own["syntax.format_formula"] * scale,
        "schemas.build.self_s": own["schemas.build"] * scale,
        "schemas.check_schema.self_s": own["schemas.check_schema"] * scale,
        "schemas.assignments_searched": counts["schemas.assignments_searched"],
        "schemas.assignments_per_s": rate(
            counts["schemas.assignments_searched"], total["schemas.check_schema"]
        ),
        "evaluate.evaluate.calls": counts["evaluate.evaluate.calls"],
        "evaluate.evaluate.self_s": own["evaluate.evaluate"] * scale,
        "evaluate.att.calls": counts["evaluate.att.calls"],
        "evaluate.att.points": counts["evaluate.att.points"],
        "evaluate.att.self_s": own["evaluate.att"] * scale,
        "evaluate.att.points_per_s": rate(counts["evaluate.att.points"], total["evaluate.att"]),
        "evaluate.saturate.rounds": counts["evaluate.saturate.rounds"],
        "evaluate.saturate.formulas_used": counts["evaluate.saturate.formulas_used"],
        "evaluate.saturate.tables_added": counts["evaluate.saturate.tables_added"],
        "evaluate.saturate_with_report.self_s": own["evaluate.saturate_with_report"] * scale,
        "corpus.enumerate_formulas.self_s": own["corpus.enumerate_formulas"] * scale,
        "corpus.formulas": counts["corpus.formulas"],
        "structures.load_structure.self_s": own["structures.load_structure"] * scale,
        "structures.structure_to_dict.self_s": own["structures.structure_to_dict"] * scale,
        "structures.tables_serialized": counts["structures.tables_serialized"],
        "structures.standard_structure.self_s": own["structures.standard_structure"] * scale,
        "groups.build_permutation_model.self_s": own["groups.build_permutation_model"] * scale,
        "groups.tables_built": counts["groups.tables_built"],
        "fraenkel.choice.antecedent_s": split["antecedent"] * scale,
        "fraenkel.choice.enumeration_s": split["enumeration"] * scale,
        "fraenkel.choice.verify_s": split["verify"] * scale,
        "fraenkel.choice.candidates_tried": counts["fraenkel.choice.candidates_tried"],
        "fraenkel.choice.witnessed_ratio": (
            counts["fraenkel.choice.witnessed"] / counts["fraenkel.choice.calls"]
            if counts["fraenkel.choice.calls"]
            else 0.0
        ),
        "fraenkel.symbolic_evaluate.calls": counts["fraenkel.symbolic_evaluate.calls"],
        "fraenkel.sweep.predicates": counts["fraenkel.sweep.predicates"],
        "fraenkel.sweep.predicates_per_s": rate(counts["fraenkel.sweep.predicates"], total["fraenkel.sweep"]),
        "cli.main.self_s": own["cli.main"] * scale,
        "cli.report_bytes": counts["cli.report_bytes"],
        "cli.exit_code.0": counts["cli.exit_code.0"],
        "cli.exit_code.1": counts["cli.exit_code.1"],
        "cli.exit_code.2": counts["cli.exit_code.2"],
        "cli.exit_code.3": counts["cli.exit_code.3"],
        "cli.uncaught": counts["cli.main.raised"],
        "trace.overhead_s": sum(passes[1].norm) - sum(passes[0].norm),
        "bench.speed_ratio": 1.0 / scale,
    }
    return m


if __name__ == "__main__":
    main()
