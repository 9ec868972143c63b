"""The four workloads: inputs built from a seed, a fixed operation list, and
the known answer each operation is judged against.

Every operation is one user-level request (a schema check, a saturation, a
choice instance, a CLI command).  Known answers never come from the program
under test: they are documented facts about the anchors, answers true by
construction, or verdicts of the independent evaluator in ``oracle.py``.

Each builder runs inside the timed set-up of a fresh worker process: it
imports ``henkin`` and builds every input.  The program is always called
through module attributes (``schemas.check_schema``, not a name bound here),
so the module-boundary wrappers in ``tracing.py`` see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from pathlib import Path
from typing import Callable


class WrongAnswer(Exception):
    """The program gave a verdict that contradicts the known answer."""


@dataclass
class Op:
    """One operation of a workload's fixed list.

    ``run`` performs the request.  ``judge`` sees its result on every pass
    and returns None when the answer is right and inside the contract, or a
    failure reason (a cap hit, an exit code, a JSON fault); it raises
    :class:`WrongAnswer` for a wrong answer.  ``prepare`` computes an
    oracle's known answer once per seed, and ``audit`` replays the first
    pass's result against the oracle; both run outside timing.
    """

    name: str
    run: Callable[[], object]
    judge: Callable[[object], str | None]
    prepare: Callable[[], None] | None = None
    audit: Callable[[object], None] | None = None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Independent helpers, written here and not taken from the program.
# ---------------------------------------------------------------------------


def oracle_holds(structure, formula) -> bool:
    """True iff the formula holds under every assignment of its free
    variables, decided by the independent evaluator."""
    import oracle

    free = sorted(formula.free_vars)
    pools = [
        range(structure.size) if v.is_individual else sorted(structure.domains[v.arity])
        for v in free
    ]
    return all(
        oracle.naive_eval(structure, dict(zip(free, combo)), formula)
        for combo in product(*pools)
    )


def own_depth(f) -> int:
    from henkin.syntax import Atom, Eq, Exists, Forall, Not

    if isinstance(f, (Atom, Eq)):
        return 0
    if isinstance(f, (Not, Forall, Exists)):
        return 1 + own_depth(f.body)
    return 1 + max(own_depth(f.left), own_depth(f.right))


def own_free(f) -> set:
    from henkin.syntax import Atom, Eq, Exists, Forall, Not

    if isinstance(f, Atom):
        return {f.predicate, *f.args}
    if isinstance(f, Eq):
        return {f.left, f.right}
    if isinstance(f, Not):
        return own_free(f.body)
    if isinstance(f, (Forall, Exists)):
        return own_free(f.body) - {f.var}
    return own_free(f.left) | own_free(f.right)


def cost_weight(f, ind_pool: int, pred_pool: int) -> int:
    """A rough cost proxy: the leaves a naive evaluation visits when each
    individual quantifier ranges over ``ind_pool`` values and each predicate
    quantifier over ``pred_pool``."""
    from henkin.syntax import Atom, Eq, Exists, Forall, Not

    if isinstance(f, (Atom, Eq)):
        return 1
    if isinstance(f, Not):
        return cost_weight(f.body, ind_pool, pred_pool)
    if isinstance(f, (Forall, Exists)):
        pool = ind_pool if f.var.is_individual else pred_pool
        return pool * cost_weight(f.body, ind_pool, pred_pool)
    return cost_weight(f.left, ind_pool, pred_pool) + cost_weight(f.right, ind_pool, pred_pool)


def stratified(rng, items: list, k: int, weight) -> list:
    """``k`` items, one drawn from each of ``k`` equal strata of the items
    ranked by weight, so that every seed's draw spans the same cost range."""
    ranked = sorted(items, key=weight)
    return [rng.choice(ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k]) for i in range(k)]


def interleave(rng, anchors: list, seeded: list) -> list:
    """The seeded operations, shuffled, in equal runs between the anchors.
    The anchors include the longest operations, so the short seeded ones are
    measured at moments seconds apart and their latency percentiles average
    over more of the machine's speed states."""
    seeded = list(seeded)
    rng.shuffle(seeded)
    runs = len(anchors) + 1
    out = []
    for i in range(runs):
        out += seeded[i * len(seeded) // runs:(i + 1) * len(seeded) // runs]
        out += anchors[i:i + 1]
    return out


def invariant_table_counts(points: int, group, max_arity: int) -> dict[int, int]:
    """Tables invariant under a permutation group: 2 ** (orbits on n-tuples)."""
    counts = {}
    for n in range(1, max_arity + 1):
        seen: set = set()
        orbits = 0
        for t in product(range(points), repeat=n):
            if t not in seen:
                orbits += 1
                seen.update(tuple(p[i] for i in t) for p in group)
        counts[n] = 2**orbits
    return counts


def even_permutations(points: int) -> list[tuple[int, ...]]:
    def inversions(p):
        return sum(1 for i in range(points) for j in range(i + 1, points) if p[i] > p[j])

    return [p for p in permutations(range(points)) if inversions(p) % 2 == 0]


def boolean_closure(size: int, masks: set[int]) -> set[int]:
    """The Boolean algebra of unary tables (as bitmasks) generated by the
    masks together with the empty and the full table.  Depth-1 saturation of
    a unary-only structure reaches exactly this: complement and intersection
    are depth-1 formulas, and every other depth-1 formula with one free
    individual defines a table inside the algebra."""
    full = (1 << size) - 1
    out = set(masks) | {0, full}
    while True:
        grown = {full ^ a for a in out} | {a & b for a in out for b in out}
        if grown <= out:
            return out
        out |= grown


def unary_mask(bits) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


# ---------------------------------------------------------------------------
# finite-check: exhaustive schema verdicts.
# ---------------------------------------------------------------------------

SINGLETON = "all x2 . (A0^1 x2 <-> x2 = x1)"
PLAIN_FAMILIES = ("ac", "ac-star", "wo1", "lo")
PAYLOAD_FAMILIES = ("choice", "choice-h", "choice-star", "comprehension")
PAYLOADS_PER_CELL = 4
# Seeded checks on random structures get one structure each: a structure's
# tables decide whether most checks on it fail early, so structures shared
# by many checks would make the latency percentiles follow the seed.  The
# domain sizes are fixed, (points, unary tables, binary tables), and the
# seed draws only the tables.
RANDOM_SHAPES = ((2, 3, 6), (3, 4, 6))
RANDOM_CHECKS = 240
PAYLOAD_POOL = 600


def board_maker(structures, rng):
    """A function drawing random structures of a given shape; every table
    list is built once."""
    tables: dict = {}

    def board(size, unary, binary):
        for n in (1, 2):
            if (size, n) not in tables:
                tables[size, n] = structures.all_tables(size, n)
        domains = {1: rng.sample(tables[size, 1], unary), 2: rng.sample(tables[size, 2], binary)}
        return structures.Structure("abc"[:size], domains)

    return board


def a4_model(groups):
    """Demo 04's permutation model: S4 on four points, principal filter over
    the even permutations."""
    return groups.build_permutation_model(
        ("1", "2", "3", "4"),
        groups.Group.symmetric(4),
        groups.PrincipalNormal((groups.Group.alternating(4),)),
        2,
    )


def check_op(schemas, name, structure, sid, documented=None) -> Op:
    """A ``check_schema`` operation.  Anchors carry a documented verdict;
    other checks on structures of at most two points are judged by the
    oracle; every counterexample is replayed against the oracle."""
    known = {"holds": documented}

    def run():
        return schemas.check_schema(structure, sid)

    def judge(check):
        if known["holds"] is not None:
            _expect(check.holds == known["holds"], f"holds={check.holds}, known {known['holds']}")
        return None

    def prepare():
        known["holds"] = oracle_holds(structure, schemas.build(sid))

    def audit(check):
        import oracle

        if not check.holds:
            env = dict(check.counterexample.values)
            _expect(
                not oracle.naive_eval(structure, env, check.matrix),
                "counterexample does not falsify the matrix under the oracle",
            )

    small = documented is None and structure.size <= 2
    return Op(name, run, judge, prepare if small else None, audit)


def build_finite_check(seed: int, tmp: Path, tracer) -> list[Op]:
    from henkin import corpus, groups, parser, schemas, structures, syntax

    std3 = structures.standard_structure(("a", "b", "c"), 2)
    std2 = structures.standard_structure(("a", "b"), 2)
    a4 = a4_model(groups)
    crippled2 = structures.Structure(
        ("a", "b"),
        {1: std2.domains[1], 2: frozenset({structures.Table.constant(2, 2, True)})},
    )
    singleton = parser.parse(SINGLETON)
    rng = random.Random(seed)
    # one large corpus split by role: its generation cost varies less from
    # seed to seed than that of several small ones
    pool = corpus.payload_corpus(seed, PAYLOAD_POOL, 1, 1, 3, require_choice_var=False)
    x1, a0 = syntax.ind(1), syntax.pred(0, 1)
    payloads = {
        "choice": [f for f in pool if a0 in f.free_vars],
        "choice-star": [f for f in pool if a0 in f.free_vars and x1 not in f.free_vars],
        "comprehension": [f for f in pool if a0 not in syntax.all_vars(f)],
    }
    payloads["choice-h"] = payloads["choice"]

    sid = schemas.SchemaId
    anchors = [
        check_op(schemas, "ac@a4", a4, sid("ac"), documented=False),
        check_op(schemas, "ac@std3", std3, sid("ac"), documented=True),
        check_op(schemas, "ac-star@a4", a4, sid("ac-star"), documented=True),
        check_op(schemas, "choice-h.singleton@a4", a4, sid("choice-h", 1, 1, singleton), documented=True),
        check_op(schemas, "ac-star@std3", std3, sid("ac-star"), documented=True),
        check_op(schemas, "wo1@a4", a4, sid("wo1"), documented=False),
    ]
    ops = []
    for board, structure in (("std2", std2), ("a4", a4), ("crippled2", crippled2)):
        # the anchors already check ac, ac-star and wo1 on the A4 model
        for family in PLAIN_FAMILIES if structure is not a4 else ("lo",):
            ops.append(check_op(schemas, f"{family}@{board}", structure, sid(family)))
        weight = partial(cost_weight, ind_pool=structure.size, pred_pool=len(structure.domains[1]))
        for family in PAYLOAD_FAMILIES:
            for k, payload in enumerate(stratified(rng, payloads[family], PAYLOADS_PER_CELL, weight)):
                ops.append(check_op(schemas, f"{family}.{k}@{board}", structure, sid(family, 1, 1, payload)))

    families = PLAIN_FAMILIES + PAYLOAD_FAMILIES
    per_family = RANDOM_CHECKS // len(families)
    weight = partial(cost_weight, ind_pool=2.5, pred_pool=3.5)
    drawn = {f: stratified(rng, payloads[f], per_family, weight) for f in PAYLOAD_FAMILIES}
    for picks in drawn.values():
        rng.shuffle(picks)
    random_board = board_maker(structures, rng)
    for k in range(RANDOM_CHECKS):
        family = families[k % len(families)]
        size, unary, binary = RANDOM_SHAPES[k // len(families) % len(RANDOM_SHAPES)]
        structure = random_board(size, unary, binary)
        payload = drawn[family].pop() if family in drawn else None
        ops.append(check_op(schemas, f"{family}@random{size}.{k}", structure, sid(family, 1, 1, payload)))
    return interleave(rng, anchors, ops)


# ---------------------------------------------------------------------------
# saturate: definability saturation and comprehension instances.
# ---------------------------------------------------------------------------

# growing structures: (points, size of the Boolean closure of two random
# unary tables).  The closure size sets the saturation's cost, so it is fixed
# and the seed draws only which tables generate it.
UNARY_STRUCTURES = ((2, 4), (3, 8), (3, 8), (4, 8))
COMPREHENSION_INSTANCES = 400


def read_only_saturation(evaluate, name, structure) -> Op:
    def run():
        return evaluate.saturate_with_report(structure, 1)

    def judge(result):
        out, report = result
        # a full structure and the invariant model are closed under
        # parameter-free definability: nothing is added
        _expect(report.added == {}, f"added {report.added}, known none")
        _expect(out.domains == structure.domains, "domains changed")
        return None

    return Op(f"saturate@{name}", run, judge)


def growing_saturation(evaluate, name, structure) -> Op:
    initial = {unary_mask(t.bits) for t in structure.domains[1]}
    closure = boolean_closure(structure.size, initial)

    def run():
        return evaluate.saturate_with_report(structure, 1)

    def judge(result):
        out, report = result
        got = {unary_mask(t.bits) for t in out.domains[1]}
        _expect(got == closure, "saturated domain is not the Boolean closure")
        _expect(report.added.get(1, 0) == len(closure) - len(initial), f"added {report.added}")
        return None

    return Op(f"saturate@{name}", run, judge)


def growing_unary(structures, rng, size: int, closure: int):
    """A unary-only structure of two random tables whose Boolean closure has
    ``closure`` tables; the closure size sets the cost of saturating it."""
    tables = structures.all_tables(size, 1)
    while True:
        pair = rng.sample(tables, 2)
        if len(boolean_closure(size, {unary_mask(t.bits) for t in pair})) == closure:
            return structures.Structure("abcd"[:size], {1: pair})


def build_saturate(seed: int, tmp: Path, tracer) -> list[Op]:
    from henkin import corpus, groups, structures

    evaluate = importlib.import_module("henkin.evaluate")  # the package re-exports a function of that name

    std2 = structures.standard_structure(("a", "b"), 2)
    std3 = structures.standard_structure(("a", "b", "c"), 2)
    a4 = a4_model(groups)
    rng = random.Random(seed)
    anchors = []
    for k, (size, closure) in enumerate(UNARY_STRUCTURES):
        s = growing_unary(structures, rng, size, closure)
        anchors.append(growing_saturation(evaluate, f"unary{size}.{k}", s))
    anchors.insert(1, read_only_saturation(evaluate, "std2", std2))
    anchors.insert(3, read_only_saturation(evaluate, "a4", a4))
    ops = []
    # unary instances: a binary predicate quantifier over std3's 512 tables
    # makes single instances take seconds, and how many a seed draws would
    # dominate the spread between seeds
    drawn = corpus.comprehension_corpus(seed, 4 * COMPREHENSION_INSTANCES, 3, 1)
    weight = partial(cost_weight, ind_pool=3, pred_pool=8)
    instances = stratified(rng, drawn, COMPREHENSION_INSTANCES, lambda fx: weight(fx[0]))
    for k, (formula, xs) in enumerate(instances):

        def run(formula=formula, xs=xs):
            return evaluate.check_comprehension(std3, formula, xs)

        def judge(result):
            # the standard structure holds every table
            _expect(result.holds, "comprehension fails on the standard structure")
            return None

        ops.append(Op(f"comprehension.{k}@std3", run, judge))
    return interleave(rng, anchors, ops)


# ---------------------------------------------------------------------------
# symbolic: the Fraenkel engine.
# ---------------------------------------------------------------------------

SWEEP_TOTALS = (4, 36, 1060, 132_132)  # cumulative 2 ** ((k + 1) ** 2 + 1)
SYMBOLIC_SENTENCES = 300


def known_sentence(syntax, corpus, rng, truth: bool):
    """A predicate-quantified sentence whose truth propositional logic fixes:
    the universal closure of ``g <-> g`` or the existential closure of
    ``g <-> ~g``.  Both sides of the biconditional are always evaluated and
    the closure never short-circuits, so the whole stratum-bounded candidate
    space of ``A0^1`` is visited."""
    a0 = syntax.pred(0, 1)
    while True:
        g = corpus.random_formula(
            rng, 2, [syntax.ind(1), syntax.ind(2)], [a0],
            allow_pred_quantifiers=False, allow_pred_equality=False,
        )
        if not g.free_vars & g.bound_vars:
            break
    body = syntax.Iff(g, g) if truth else syntax.Iff(g, syntax.Not(g))
    inds = sorted(v for v in g.free_vars if v.is_individual)
    if truth:
        return syntax.Forall(a0, syntax.forall_many(inds, body))
    return syntax.Exists(a0, syntax.exists_many(inds, body))


def build_symbolic(seed: int, tmp: Path, tracer) -> list[Op]:
    from henkin import corpus, fraenkel, parser, syntax

    anchors = []
    for stratum in (3, 2):
        for name, n, m, text in fraenkel.CHOICE_SUITE:
            payload = parser.parse(text)

            def run(n=n, m=m, payload=payload, stratum=stratum):
                return fraenkel.check_choice_instance_sigma0(n, m, payload, stratum)

            def judge(report):
                # documented: every suite instance has a small-support witness
                _expect(report.status == "witnessed", f"status {report.status}")
                return None

            anchors.append(Op(f"choice.{name}@{stratum}", run, judge))

    def sweep():
        return fraenkel.wellorder_counterexample_sweep(3)

    def judge_sweep(report):
        counts = [b.predicate_count for b in report.buckets]
        cumulative = tuple(sum(counts[: k + 1]) for k in range(len(counts)))
        _expect(cumulative == SWEEP_TOTALS, f"sweep totals {cumulative}")
        _expect(report.linear_orders_found == 0, "sweep found a linear order")
        return None

    anchors.insert(len(anchors) // 2, Op("sweep@3", sweep, judge_sweep))
    rng = random.Random(seed)
    ops = []
    drawn = [
        (known_sentence(syntax, corpus, rng, k % 2 == 0), k % 2 == 0)
        for k in range(4 * SYMBOLIC_SENTENCES)
    ]
    weight = partial(cost_weight, ind_pool=4, pred_pool=18)
    picked = stratified(rng, drawn, SYMBOLIC_SENTENCES, lambda pair: weight(pair[0]))
    for k, (sentence, truth) in enumerate(picked):

        def run(sentence=sentence):
            return fraenkel.symbolic_evaluate(sentence, {}, 2)

        def judge(verdict, truth=truth):
            _expect(verdict.truth == truth, f"truth {verdict.truth}, by construction {truth}")
            _expect(verdict.stratified, "predicate quantifier not labelled stratified")
            return None

        ops.append(Op(f"sentence.{k}@2", run, judge))
    return interleave(rng, anchors, ops)


# ---------------------------------------------------------------------------
# cli: henkin.cli.main in process.
# ---------------------------------------------------------------------------

CLI_PARSE = 40
CLI_EVAL = 30
CLI_CHECK = 21
CLI_SYMBOLIC = 10
CHECK_FAMILIES = ("ac", "ac-star", "wo1", "lo", "choice", "choice-h", "comprehension")
_TIMING = re.compile(r'"timing_s": [-0-9.eE+]+')


def cli_op(cli, tracer, name, argv, code=None, check=None, prepare=None) -> Op:
    """A CLI command.  The contract is the expected exit code plus one JSON
    report on stdout (an error report for exit 2), byte-identical across
    passes except ``timing_s``.  ``prepare`` may fill ``known["code"]``."""
    known = {"code": code, "report": None}

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        text = out.getvalue()
        # without the timing value, whose digit count varies, so the count repeats
        tracer.add("cli.report_bytes", len(_TIMING.sub("", text).encode()))
        return status, text

    def judge(result):
        status, text = result
        stable = _TIMING.sub("", text)
        if known["report"] is None:
            known["report"] = stable
        _expect(stable == known["report"], "report differs from the first pass")
        try:
            report = json.loads(text)
        except ValueError:
            return "json: stdout is not one JSON report"
        if status != known["code"]:
            return f"exit {status}, contract {known['code']}"
        if status == 2:
            return None if "error" in report.get("result", {}) else "json: no error field"
        if check is not None:
            check(report)
        return None

    return Op(name, run, judge, prepare and (lambda: prepare(known)))


def build_cli(seed: int, tmp: Path, tracer) -> list[Op]:
    from henkin import cli, corpus, schemas, structures, syntax

    rng = random.Random(seed)

    def write(name, text):
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def write_structure(name, structure):
        structures.save_structure(structure, tmp / name)
        return str(tmp / name)

    # every seeded draw is stratified by cost, and each eval and check gets
    # its own structure file, so the seed moves the inputs but not the mix
    ops = []
    ind_vars, pred_vars = corpus.default_vocabulary(2)
    drawn = [corpus.random_formula(rng, 5, ind_vars, pred_vars) for _ in range(3 * CLI_PARSE)]
    texts = [syntax.format_formula(f) for f in drawn]
    for k, i in enumerate(stratified(rng, list(range(len(drawn))), CLI_PARSE, lambda i: len(texts[i]))):
        f = drawn[i]

        def check(report, f=f):
            _expect(report["result"]["depth"] == own_depth(f), "parse: depth")
            names = sorted(str(v) for v in own_free(f))
            _expect(report["result"]["free_vars"] == names, "parse: free variables")

        ops.append(cli_op(cli, tracer, f"parse.{k}", ["parse", "--text", texts[i]], 0, check))

    random_board = board_maker(structures, rng)
    weight = partial(cost_weight, ind_pool=2, pred_pool=4.5)
    drawn = [corpus.random_formula(rng, 3, ind_vars, pred_vars) for _ in range(3 * CLI_EVAL)]
    for k, f in enumerate(stratified(rng, drawn, CLI_EVAL, weight)):
        structure = random_board(*RANDOM_SHAPES[0])
        board = write_structure(f"eval{k}.json", structure)
        path = write(f"eval{k}.txt", syntax.format_formula(f) + "\n")

        def prepare(known, structure=structure, f=f):
            import oracle

            # unassigned variables take the first individual and least table
            known["code"] = 0 if oracle.naive_eval(structure, {}, f) else 1

        argv = ["eval", "--structure", board, "--formula", path]
        ops.append(cli_op(cli, tracer, f"eval.{k}", argv, prepare=prepare))

    pool = corpus.payload_corpus(seed, 3 * CLI_CHECK, 1, 1, 2, require_choice_var=False)
    a0 = syntax.pred(0, 1)
    payloads = {
        "choice": [f for f in pool if a0 in f.free_vars],
        "comprehension": [f for f in pool if a0 not in syntax.all_vars(f)],
    }
    payloads["choice-h"] = payloads["choice"]
    for k in range(CLI_CHECK):
        family = CHECK_FAMILIES[k % len(CHECK_FAMILIES)]
        structure = random_board(*RANDOM_SHAPES[0])
        argv = ["check", "--structure", write_structure(f"check{k}.json", structure), "--schema", family]
        payload = None
        if family in payloads:
            payload = rng.choice(payloads[family])
            argv += ["--h", write(f"h{k}.txt", syntax.format_formula(payload) + "\n")]
        sid = schemas.SchemaId(family, 1, 1, payload)

        def prepare(known, structure=structure, sid=sid):
            known["code"] = 0 if oracle_holds(structure, schemas.build(sid)) else 1

        ops.append(cli_op(cli, tracer, f"check.{family}.{k}", argv, prepare=prepare))

    drawn = [
        (known_sentence(syntax, corpus, rng, k % 2 == 0), k % 2 == 0)
        for k in range(3 * CLI_SYMBOLIC)
    ]
    weight = partial(cost_weight, ind_pool=4, pred_pool=18)
    for k, (sentence, truth) in enumerate(stratified(rng, drawn, CLI_SYMBOLIC, lambda p: weight(p[0]))):
        path = write(f"sentence{k}.txt", syntax.format_formula(sentence) + "\n")
        argv = ["fraenkel", "eval", "--formula", path, "--strat", "2"]
        ops.append(cli_op(cli, tracer, f"fraenkel-eval.{k}", argv, 0 if truth else 1))

    # fixed well-formed commands
    spec = write(
        "a4-spec.json",
        json.dumps(
            {
                "individuals": ["1", "2", "3", "4"],
                "group": {"generators": ["(1 2 3 4)", "(1 2)"]},
                "filter": {"kind": "principal-normal", "generators": ["(1 2 3)", "(2 3 4)"]},
            }
        ),
    )
    a4_counts = invariant_table_counts(4, even_permutations(4), 2)

    def check_model(report):
        sizes = {int(n): k for n, k in report["result"]["domain_sizes"].items()}
        _expect(sizes == a4_counts, f"build-model domain sizes {sizes}, orbit count {a4_counts}")

    unary2 = growing_unary(structures, rng, *UNARY_STRUCTURES[0])
    closure = boolean_closure(2, {unary_mask(t.bits) for t in unary2.domains[1]})

    def check_saturate(report):
        bitstrings = report["result"]["structure"]["domains"]["1"]
        got = {unary_mask(c == "1" for c in s) for s in bitstrings}
        _expect(got == closure, "saturate: domain is not the Boolean closure")

    def check_sweep(report):
        _expect(report["result"]["total_predicates"] == SWEEP_TOTALS[2], "sweep total")
        _expect(report["result"]["linear_orders_found"] == 0, "sweep found a linear order")

    def check_witness(report):
        _expect(report["result"]["status"] == "witnessed", "choice: not witnessed")

    singleton = write("singleton.txt", SINGLETON + "\n")
    unary_file = write_structure("unary2.json", unary2)
    ops += [
        cli_op(cli, tracer, "build-model@a4", ["build-model", "--structure", spec], 0, check_model),
        cli_op(cli, tracer, "saturate@unary2", ["saturate", "--structure", unary_file], 0, check_saturate),
        cli_op(cli, tracer, "fraenkel-sweep@2", ["fraenkel", "sweep", "--max-support", "2"], 0, check_sweep),
        cli_op(
            cli, tracer, "fraenkel-choice.singleton@2",
            ["fraenkel", "choice", "--h", singleton, "--strat", "2"], 0, check_witness,
        ),
    ]

    # ROADMAP item 5: each must end as exit 2 with a JSON error report
    std2 = write_structure("std2.json", structures.standard_structure(("a", "b"), 2))
    nested = "~(" * 150 + "x1 = x1" + ")" * 150
    chained = "".join(f"all x{i} . " for i in range(1, 201)) + "x1 = x1"
    wide = write("wide.txt", " & ".join(["x1 = x1"] * 1500) + "\n")
    bad_bits = write("bad-bits.json", json.dumps({"individuals": ["a", "b"], "domains": {"1": [10]}}))
    bad_json = write("bad.json", '{"individuals": ["a", "b"], "domains": ')
    plain = write("plain.txt", "x1 = x1\n")
    ops += [
        cli_op(cli, tracer, "malformed.nested-not", ["parse", "--text", nested], 2),
        cli_op(cli, tracer, "malformed.chained-quantifiers", ["parse", "--text", chained], 2),
        cli_op(cli, tracer, "malformed.wide-conjunction", ["eval", "--structure", std2, "--formula", wide], 2),
        cli_op(cli, tracer, "malformed.non-string-bitstring",
               ["eval", "--structure", bad_bits, "--formula", plain], 2),
        cli_op(cli, tracer, "malformed.negative-support", ["fraenkel", "sweep", "--max-support", "-1"], 2),
        cli_op(cli, tracer, "malformed.invalid-json", ["eval", "--structure", bad_json, "--formula", plain], 2),
    ]
    return ops


BUILDERS = {
    "finite-check": build_finite_check,
    "saturate": build_saturate,
    "symbolic": build_symbolic,
    "cli": build_cli,
}
