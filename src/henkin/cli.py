"""Command-line front end.

Every command prints one machine-readable JSON report to stdout and a short
human summary to stderr.  Exit codes are a stable contract:

* 0 - true / holds / witness found / sweep clean
* 1 - false / fails / inconclusive
* 2 - error (bad arguments such as an empty file path, I/O, syntax, arity,
  out-of-range numbers, any other failure); the report's ``result`` holds only ``error``
* 3 - a resource cap was exceeded; the report is partial

Every input ends in one of these codes with one JSON report, including
malformed command lines (``--help`` alone prints usage text and exits 0).
Reports are deterministic given identical inputs and caps, except for the
``timing_s`` field.  ``HENKIN_CAP_TABLES`` overrides the default table cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import suppress
from functools import cache
from importlib import import_module
from pathlib import Path

try:  # CPython's built-in SHA-256; hashlib's would load OpenSSL's libcrypto
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import schemas
from .corpus import DEFAULT_FORMULA_CAP
from .evaluate import evaluate, saturate_with_report
from .parser import parse
from .structures import (
    Assignment,
    CapExceeded,
    DEFAULT_GROUP_CAP,
    DEFAULT_PRED_CAP,
    DEFAULT_TABLE_CAP,
    assignment_from_dict,
    assignment_to_dict,
    load_structure,
    structure_to_dict,
)
from .syntax import depth as formula_depth, format_formula

# the layers only some commands use, loaded by the first handler that asks; names are
# looked up on the module at each call, so a wrapper set on it (a tracer's) is seen
_LAZY = ("fraenkel", "groups")


def _layer(name: str):
    if name not in _LAZY:
        raise KeyError(f"{name} is not a lazy layer")
    return import_module(f".{name}", __package__)


def _read_formula_file(path: str | Path) -> str:
    lines = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    return " ".join(lines)


def _load_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cap(text: str) -> int:
    """A resource cap: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"caps must be >= 0, got {value}")
    return value


def _path(text: str) -> str:
    """An input file path: a non-empty string, so that a given file flag
    is never taken for an absent one."""
    if not text:
        raise argparse.ArgumentTypeError("file path must not be empty")
    return text


def _table_cap(args) -> int:
    if args.cap_tables is not None:
        return args.cap_tables
    env = os.environ.get("HENKIN_CAP_TABLES")
    try:
        return _cap(env) if env else DEFAULT_TABLE_CAP
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"HENKIN_CAP_TABLES must be an integer >= 0, got {env!r}") from None


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_parse(args, report: dict) -> tuple[int, str]:
    f = parse(_read_formula_file(args.formula) if args.formula is not None else args.text)
    report["result"] = {
        "formula": format_formula(f),
        "free_vars": sorted(str(v) for v in f.free_vars),
        "depth": formula_depth(f),
    }
    return 0, f"parsed: {format_formula(f)}"


def _cmd_eval(args, report: dict) -> tuple[int, str]:
    structure = load_structure(args.structure)
    formula = parse(_read_formula_file(args.formula))
    assignment = Assignment({})
    if args.assignment is not None:
        assignment = assignment_from_dict(_load_json(args.assignment), structure)
    truth = evaluate(structure, assignment, formula)
    report["result"] = {"truth": truth}
    return (0 if truth else 1), f"evaluates {'true' if truth else 'false'}"


def _cmd_check(args, report: dict) -> tuple[int, str]:
    structure = load_structure(args.structure)
    payload = None
    if args.h is not None:
        payload = parse(_read_formula_file(args.h))
    sid = schemas.SchemaId(args.schema, args.n, args.m, payload, strict=not args.reflexive)
    check = schemas.check_schema(structure, sid, assignment_cap=args.cap_assignments)
    counterexample = None
    if check.counterexample is not None:
        counterexample = assignment_to_dict(check.counterexample, structure)
    report["result"] = {
        "schema": args.schema,
        "n": args.n,
        "m": args.m,
        "holds": check.holds,
        "counterexample": counterexample,
        "matrix": format_formula(check.matrix),
        "searched": [str(v) for v in check.searched],
    }
    return (0 if check.holds else 1), f"{args.schema}: {'holds' if check.holds else 'fails'}"


def _cmd_saturate(args, report: dict) -> tuple[int, str]:
    structure = load_structure(args.structure)
    out, sat = saturate_with_report(
        structure, args.depth, table_cap=_table_cap(args), formula_cap=args.cap_formulas
    )
    report["result"] = {
        "structure": structure_to_dict(out),
        "rounds": sat.rounds,
        "formulas_used": sat.formulas_used,
        "added": {str(n): k for n, k in sat.added.items()},
        "depth_bound": sat.depth_bound,
    }
    added = sum(sat.added.values())
    return 0, f"saturated in {sat.rounds} rounds, {added} tables added"


def _cmd_build_model(args, report: dict) -> tuple[int, str]:
    groups = _layer("groups")
    data = _load_json(args.structure)
    spec = groups.model_spec_from_dict(data, group_cap=args.cap_group)
    structure = groups.build_permutation_model(
        spec.labels, spec.group, spec.filt, args.max_arity, table_cap=_table_cap(args)
    )
    degenerate = groups.filter_degenerate(spec.filt, spec.group)
    if degenerate:
        report["flags"].append("filter admits every subgroup over this finite universe")
    report["result"] = {
        "structure": structure_to_dict(structure),
        "group_order": spec.group.order,
        "degenerate_filter": degenerate,
        "domain_sizes": {str(n): len(structure.domains[n]) for n in sorted(structure.domains)},
    }
    sizes = ", ".join(f"|J{n}|={len(structure.domains[n])}" for n in sorted(structure.domains))
    return 0, f"built model: {sizes}"


def _cmd_fraenkel_sweep(args, report: dict) -> tuple[int, str]:
    fraenkel = _layer("fraenkel")
    sweep = fraenkel.wellorder_counterexample_sweep(args.max_support, cap=args.cap_preds)
    report["result"] = {
        "max_support": sweep.max_support,
        "total_predicates": sweep.total_predicates,
        "linear_orders_found": sweep.linear_orders_found,
        "all_swap_witnessed": sweep.all_swap_witnessed,
        "buckets": [
            {
                "support_size": b.support_size,
                "predicates": b.predicate_count,
                "failures": dict(sorted(b.failure_counts.items())),
            }
            for b in sweep.buckets
        ],
    }
    found = sweep.linear_orders_found
    summary = f"{found} linear orders found among {sweep.total_predicates} predicates"
    return (0 if found == 0 else 1), summary


def _cmd_fraenkel_eval(args, report: dict) -> tuple[int, str]:
    fraenkel = _layer("fraenkel")
    formula = parse(_read_formula_file(args.formula))
    binding = {}
    if args.bind is not None:
        binding = fraenkel.binding_from_dict(_load_json(args.bind))
    verdict = fraenkel.symbolic_evaluate(
        formula, binding, args.strat, pred_cap=args.cap_preds
    )
    if verdict.stratified:
        report["stratum"] = args.strat
        report["flags"].append("stratified: predicate quantifiers bounded by support size")
    report["result"] = verdict._asdict()
    label = "true" if verdict.truth else "false"
    tag = f" (stratified at {args.strat})" if verdict.stratified else ""
    return (0 if verdict.truth else 1), f"evaluates {label}{tag}"


def _cmd_fraenkel_choice(args, report: dict) -> tuple[int, str]:
    fraenkel = _layer("fraenkel")
    payload = parse(_read_formula_file(args.h))
    outcome = fraenkel.check_choice_instance_sigma0(
        args.n, args.m, payload, args.strat, pred_cap=args.cap_preds
    )
    report["stratum"] = args.strat
    if outcome.cap_hit:
        report["flags"].append("candidate cap hit before the search space was exhausted")
    report["result"] = {
        "status": outcome.status,
        "witness": fraenkel.symbolic_to_dict(outcome.witness) if outcome.witness else None,
        "candidates_tried": outcome.candidates_tried,
        "support_bound": outcome.support_bound,
    }
    summary = {
        "witnessed": "witness found",
        "vacuous": "antecedent fails at this stratum; instance holds vacuously",
        "inconclusive": "no witness within bounds (not a refutation)",
    }[outcome.status]
    return (0 if outcome.status in ("witnessed", "vacuous") else 1), summary


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """Malformed command line."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a malformed command line instead of exiting, so the error
    is reported like any other.  Flags must be spelled out: an abbreviation
    such as ``--h`` would otherwise select ``--help`` and print usage text."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


@cache  # once per process: the tree holds only constants, and each parse fills a fresh Namespace
def _build_argparser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="henkin",
        description="Second-order Henkin-semantics workbench",
    )
    top.add_argument("--seed", type=int, default=None, help="echoed in the report")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", type=_path, help="file with the formula text")
    group.add_argument("--text", help="formula text inline")
    p.set_defaults(run=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula over a structure file")
    p.add_argument("--structure", type=_path, required=True)
    p.add_argument("--formula", type=_path, required=True)
    p.add_argument("--assignment", type=_path, default=None)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("check", help="check an axiom schema over a structure file")
    p.add_argument("--structure", type=_path, required=True)
    p.add_argument("--schema", required=True, choices=schemas.FAMILIES)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--h", type=_path, default=None, help="payload formula file")
    p.add_argument("--reflexive", action="store_true", help="reflexive reading of lo, wo, wo1")
    p.add_argument("--cap-assignments", type=_cap, default=schemas.DEFAULT_ASSIGNMENT_CAP)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("saturate", help="close a structure under depth-bounded definability")
    p.add_argument("--structure", type=_path, required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--cap-tables", type=_cap, default=None)
    p.add_argument("--cap-formulas", type=_cap, default=DEFAULT_FORMULA_CAP)
    p.set_defaults(run=_cmd_saturate)

    p = sub.add_parser("build-model", help="build a permutation model from a model spec")
    p.add_argument("--structure", type=_path, required=True, help="individuals, group, filter")
    p.add_argument("--max-arity", type=int, default=2)
    p.add_argument("--cap-tables", type=_cap, default=None)
    p.add_argument("--cap-group", type=_cap, default=DEFAULT_GROUP_CAP)
    p.set_defaults(run=_cmd_build_model)

    p = sub.add_parser("fraenkel", help="symbolic atom-universe commands")
    fsub = p.add_subparsers(dest="fraenkel_cmd", required=True)

    q = fsub.add_parser("sweep", help="exhaust small-support binary predicates for orders")
    q.add_argument("--max-support", type=int, default=3)
    q.add_argument("--cap-preds", type=_cap, default=DEFAULT_PRED_CAP)
    q.set_defaults(run=_cmd_fraenkel_sweep)

    q = fsub.add_parser("eval", help="stratified evaluation over the atom universe")
    q.add_argument("--formula", type=_path, required=True)
    q.add_argument("--bind", type=_path, default=None)
    q.add_argument("--strat", type=int, default=2)
    q.add_argument("--cap-preds", type=_cap, default=DEFAULT_PRED_CAP)
    q.set_defaults(run=_cmd_fraenkel_eval)

    q = fsub.add_parser("choice", help="search a uniform witness for a choice instance")
    q.add_argument("--n", type=int, default=1)
    q.add_argument("--m", type=int, default=1)
    q.add_argument("--h", type=_path, required=True)
    q.add_argument("--strat", type=int, default=2)
    q.add_argument("--cap-preds", type=_cap, default=DEFAULT_PRED_CAP)
    q.set_defaults(run=_cmd_fraenkel_choice)

    return top


def _to_json(report: dict, started: float) -> str:
    """The report as JSON, timed from ``started`` (a ``perf_counter``)."""
    payload = {**report, "timing_s": round(time.perf_counter() - started, 6)}
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    # the echo, the input digests, the verdicts and the caveats; the
    # handlers fill in ``result`` and may set ``stratum`` and add ``flags``
    report = {
        "command": " ".join(["henkin", *argv]),
        "inputs": {},
        "result": {},
        "flags": [],
        "stratum": None,
        "seed": None,
    }
    try:
        try:
            args = _build_argparser().parse_args(argv)
            report["seed"] = args.seed
            for flag in ("structure", "formula", "assignment", "h", "bind"):
                path = getattr(args, flag, None)
                if path is not None:
                    report["inputs"][path] = sha256(Path(path).read_bytes()).hexdigest()
            code, summary = args.run(args, report)
        except CapExceeded as exc:
            report["stratum"] = getattr(args, "strat", None)  # the count it bounded
            report["flags"].append(f"cap exceeded: {exc}")
            report["result"] = {"error": str(exc), "cap": exc.cap, "needed": exc.needed}
            code, summary = 3, f"cap exceeded: {exc}"
        text = _to_json(report, started)
    except Exception as exc:
        # the exit-code contract: no failure may leak out as a traceback,
        # not even one while the report is serialised
        report["result"] = {"error": f"{type(exc).__name__}: {exc}"}
        code, summary, text = 2, f"error: {exc}", _to_json(report, started)
    except SystemExit:
        # --help printed the usage text
        return 0
    try:
        print(text, flush=True)
    except OSError as exc:  # the reader closed stdout, as `| head` may
        code, summary = 2, f"error: report not written: {exc}"
        # the rest of the buffer goes nowhere, or the flush at exit fails again
        with suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
