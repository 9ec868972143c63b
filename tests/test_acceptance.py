"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from oracle import (
    close_structure_under, evaluation_pool, naive_eval, random_assignment, random_structure,
)

from henkin.corpus import (
    comprehension_corpus,
    default_vocabulary,
    payload_corpus,
    random_formula,
)
from henkin.evaluate import check_comprehension, evaluate
from henkin.fraenkel import (
    CHOICE_SUITE,
    SymbolicPredicate,
    check_choice_instance_sigma0,
    enumerate_types,
    symbolic_evaluate,
    truncate_predicate,
    wellorder_counterexample_sweep,
)
from henkin.groups import (
    Group,
    Permutation,
    PrincipalNormal,
    check_transport,
    check_stabilizer_bound,
)
from henkin.parser import parse
from henkin.schemas import AC, CHOICE, CHOICE_H, COMPREHENSION, SchemaId, check_schema
from henkin.structures import Assignment, Structure, Table
from henkin.syntax import format_formula, free_vars, ind, pred


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_grammar_round_trip():
    ind_vars, pred_vars = default_vocabulary(2)
    rng = random.Random(20240801)
    started = time.perf_counter()
    failures = 0
    for _ in range(1000):
        f = random_formula(rng, 6, ind_vars, pred_vars)
        if parse(format_formula(f)) != f:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    report(1, "grammar round-trip", ok, f"1000 formulas, {failures} failures, {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_2_valuation_oracle():
    ind_vars, pred_vars = default_vocabulary(2)
    rng = random.Random(20240802)
    disagreements = 0
    for _ in range(500):
        size = rng.randint(1, 3)
        structure = random_structure(rng, "abc"[:size], (1, 2))
        formula = random_formula(rng, 4, ind_vars, pred_vars)
        assignment = random_assignment(rng, structure, free_vars(formula))
        mine = evaluate(structure, assignment, formula)
        reference = naive_eval(structure, dict(assignment.values), formula)
        if mine != reference:
            disagreements += 1
    report(2, "valuation oracle", disagreements == 0, f"500 samples, {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_3_truth_and_att_transport():
    ind_vars, pred_vars = default_vocabulary(2)
    rng = random.Random(20240803)
    checked = 0
    truth_failures = 0
    att_failures = 0
    att_checked = 0
    while checked < 1000:
        size = rng.randint(2, 3)
        perm = Permutation(tuple(rng.sample(range(size), size)))
        structure = close_structure_under(
            random_structure(rng, "abc"[:size], (1, 2)), [perm]
        )
        formula = random_formula(rng, 4, ind_vars, pred_vars)
        assignment = random_assignment(rng, structure, free_vars(formula))
        outcome = check_transport(structure, perm, assignment, formula)
        assert outcome.applicable
        checked += 1
        if not outcome.truth_preserved:
            truth_failures += 1
        if outcome.att_transported is not None:
            att_checked += 1
            if not outcome.att_transported:
                att_failures += 1
    ok = truth_failures == 0 and att_failures == 0
    report(
        3,
        "transport along permutations",
        ok,
        f"1000 samples, truth failures {truth_failures}, "
        f"att failures {att_failures}/{att_checked}",
    )
    assert truth_failures == 0 and att_failures == 0


def _assignments_over(structure, variables):
    from itertools import product as iproduct

    pools = [
        range(structure.size) if v.is_individual else structure.domain(v.arity)
        for v in variables
    ]
    for combo in iproduct(*pools):
        yield Assignment(dict(zip(variables, combo)))


def test_criterion_4_invariant_model_is_closed(a4_model):
    corpus = comprehension_corpus(seed=20240804, count=200, max_depth=4)
    counterexamples = 0
    for formula, xs in corpus:
        params = tuple(sorted(v for v in free_vars(formula) if v.is_predicate))
        for assignment in _assignments_over(a4_model, params):
            if not check_comprehension(a4_model, formula, xs, assignment).holds:
                counterexamples += 1
    report(
        4,
        "permutation model closed under definability",
        counterexamples == 0,
        f"200 formulas, {counterexamples} counterexamples",
    )
    assert counterexamples == 0


def test_criterion_4_holds_without_individual_parameters(a4_model):
    # x1 = x2 defines the singleton of x2, which no even permutation but
    # the identity fixes: the model has no such unary table
    check = check_schema(a4_model, SchemaId(COMPREHENSION, 1, 1, parse("x1 = x2")))
    assert not check.holds and check.counterexample.values == {ind(2): 0}
    assert a4_model.individuals[0] == "1"
    assert check_schema(a4_model, SchemaId(COMPREHENSION, 1, 1, parse("~A1^1 x1"))).holds


def test_criterion_5_stabilizer_lower_bound(a4_model):
    group = Group.symmetric(4)
    filt = PrincipalNormal((Group.alternating(4),))
    ind_vars, pred_vars = default_vocabulary(2)
    rng = random.Random(20240805)
    checked = 0
    failures = 0
    while checked < 200:
        formula = random_formula(rng, 3, ind_vars, pred_vars)
        candidates = [
            v
            for v in free_vars(formula)
            if v.is_individual and v not in formula.bound_vars
        ]
        if not 1 <= len(candidates) <= 2:
            continue
        xs = tuple(sorted(candidates)[: rng.randint(1, min(2, len(candidates)))])
        others = [v for v in free_vars(formula) if v not in xs]
        assignment = random_assignment(rng, a4_model, others)
        outcome = check_stabilizer_bound(a4_model, formula, xs, assignment, group, filt)
        checked += 1
        if not outcome.holds:
            failures += 1
    report(5, "stabilizer lower bound", failures == 0, f"200 samples, {failures} failures")
    assert failures == 0


def test_criterion_6_choice_axiom_sensitivity(std2, crippled2):
    started = time.perf_counter()
    on_standard = check_schema(std2, SchemaId(AC, 1, 1))
    on_crippled = check_schema(crippled2, SchemaId(AC, 1, 1))
    elapsed = time.perf_counter() - started
    replayed = (
        on_crippled.counterexample is not None
        and evaluate(crippled2, on_crippled.counterexample, on_crippled.matrix) is False
    )
    ok = on_standard.holds and not on_crippled.holds and replayed and elapsed < 5.0
    report(
        6,
        "choice axiom sensitivity",
        ok,
        f"standard holds={on_standard.holds}, crippled fails with replayable "
        f"counterexample={replayed}, {elapsed:.2f}s",
    )
    assert on_standard.holds
    assert not on_crippled.holds and replayed
    assert elapsed < 5.0


def test_criterion_7_no_small_support_linear_order():
    started = time.perf_counter()
    sweep = wellorder_counterexample_sweep(3)
    elapsed = time.perf_counter() - started
    expected = [2 ** len(enumerate_types(2, tuple(f"p{i}" for i in range(1, s + 1)))) for s in range(4)]
    counts = [bucket.predicate_count for bucket in sweep.buckets]
    ok = (
        sweep.linear_orders_found == 0
        and sweep.all_swap_witnessed
        and counts == expected
        and elapsed < 60.0
    )
    report(
        7,
        "no finitely-supported linear order",
        ok,
        f"{sweep.total_predicates} predicates, {sweep.linear_orders_found} orders, "
        f"swap-witnessed={sweep.all_swap_witnessed}, {elapsed:.2f}s",
    )
    assert sweep.linear_orders_found == 0
    assert sweep.all_swap_witnessed
    assert counts == expected
    assert elapsed < 60.0


def test_criterion_8_truncation_soundness():
    rng = random.Random(20240808)
    ind_vars = [ind(i) for i in (1, 2)]
    pred_vars = [pred(0, 1), pred(0, 2)]
    atoms = ("p", "q")
    disagreements = 0
    for _ in range(300):
        formula = random_formula(
            rng, 3, ind_vars, pred_vars, allow_pred_quantifiers=False
        )
        binding = {}
        for v in free_vars(formula):
            if v.is_individual:
                binding[v] = rng.choice(atoms)
            else:
                support = tuple(sorted(rng.sample(atoms, rng.randint(0, 2))))
                types = enumerate_types(v.arity, support)
                binding[v] = SymbolicPredicate(
                    v.arity, support, frozenset(t for t in types if rng.random() < 0.5)
                )
        pool = evaluation_pool(formula, binding)
        env = {}
        domains: dict[int, set] = {}
        for v, value in binding.items():
            if v.is_individual:
                env[v] = pool.index(value)
            else:
                table = truncate_predicate(value, pool)
                env[v] = table
                domains.setdefault(v.arity, set()).add(table)
        structure = Structure(
            pool,
            {n: frozenset(ts) for n, ts in domains.items()}
            or {1: frozenset({Table.constant(len(pool), 1, False)})},
        )
        symbolic = symbolic_evaluate(formula, binding, 0).truth
        finite = naive_eval(structure, env, formula)
        if symbolic != finite:
            disagreements += 1
    report(8, "truncation soundness", disagreements == 0, f"300 samples, {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_9_uniform_witnesses_exist():
    outcomes = []
    for name, n, m, text in CHOICE_SUITE:
        outcome = check_choice_instance_sigma0(n, m, parse(text), 2)
        outcomes.append((name, outcome))
    witnessed = [name for name, o in outcomes if o.status == "witnessed"]
    ok = len(witnessed) == 10
    details = ", ".join(
        f"{name}={o.status}" for name, o in outcomes if o.status != "witnessed"
    )
    report(
        9,
        "uniform choice witnesses",
        ok,
        f"{len(witnessed)}/10 witnessed at stratum <= 2" + (f"; {details}" if details else ""),
    )
    for name, outcome in outcomes:
        assert outcome.status == "witnessed", f"{name}: {outcome.status}"
        assert len(outcome.witness.support) <= 2


def test_criterion_10_lowered_and_bridged_agree(std2, std3, a4_model):
    payloads = payload_corpus(seed=20240810, count=50, max_depth=3)
    testbeds = [("standard-2", std2), ("standard-3", std3), ("invariant-4", a4_model)]
    disagreements = 0
    checked = 0
    for h in payloads:
        for name, structure in testbeds:
            lowered = check_schema(structure, SchemaId(CHOICE, 1, 1, h)).holds
            bridged = check_schema(structure, SchemaId(CHOICE_H, 1, 1, h)).holds
            checked += 1
            if lowered != bridged:
                disagreements += 1
    report(
        10,
        "lowered and bridged choice agree",
        disagreements == 0,
        f"{checked} checks across {len(testbeds)} structures, {disagreements} disagreements",
    )
    assert disagreements == 0
