"""The seeded corpora against the reference samplers in ``oracle``: the same
formulas, the same text, in the same order, from the same seeds."""

import random
import signal
from contextlib import contextmanager

import pytest

from oracle import ref_comprehension_corpus, ref_payload_corpus, ref_random_formula

from henkin.corpus import (
    BARREN_DRAWS,
    comprehension_corpus,
    default_vocabulary,
    payload_corpus,
    random_formula,
)
from henkin.syntax import ind, pred

SEEDS = range(20)
x1, x2, x3 = ind(1), ind(2), ind(3)


def assert_identical(got, want):
    assert got == want
    assert [str(f) for f in got] == [str(f) for f in want]


# vocabulary, options: the duplicated pool of tests/test_evaluate.py, no
# predicate variables, mixed arities, each option away from its default, and
# tables of 1, 2, 4, 5, 8 and 9 entries, every width of the sampler's
# rejection loop (a table of 1 still reads a word per pick)
VOCABULARIES = {
    **{
        f"tables-of-{k}": ([ind(i) for i in range(1, k + 1)], [pred(j, 1 + j % 2) for j in range(k)], {})
        for k in (1, 2, 4, 5, 8, 9)
    },
    "default-1": (*default_vocabulary(1), {}),
    "default-2": (*default_vocabulary(2), {}),
    "duplicated": ([x1, x2, x3], [pred(0, 1), pred(0, 1), pred(1, 1), pred(2, 2)], {"atom_bias": 0.25}),
    "no-predicates": ([x1, x2, x3], [], {}),
    "mixed-arities": ([x1, x2], [pred(0, 3), pred(1, 1), pred(2, 2), pred(3, 1)], {}),
    "no-pred-quantifiers": (*default_vocabulary(2), {"allow_pred_quantifiers": False}),
    "no-pred-equality": (*default_vocabulary(2), {"allow_pred_equality": False}),
    "flat": ([x1, x2], [pred(0, 1)], {"allow_pred_quantifiers": False, "allow_pred_equality": False}),
}


@pytest.mark.parametrize("name", sorted(VOCABULARIES))
def test_random_formula_matches_the_reference(name):
    ind_vars, pred_vars, options = VOCABULARIES[name]
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for max_depth in (0, 1, 2, 4, 6):
            got = [random_formula(rng, max_depth, ind_vars, pred_vars, **options) for _ in range(10)]
            want = [ref_random_formula(ref_rng, max_depth, ind_vars, pred_vars, **options) for _ in range(10)]
            assert_identical(got, want)
        # the same RNG calls, not just the same formulas
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("count, max_depth, max_arity", [(40, 3, 1), (40, 4, 2), (25, 2, 3), (5, 0, 1)])
def test_comprehension_corpus_matches_the_reference(count, max_depth, max_arity):
    for seed in SEEDS:
        got = comprehension_corpus(seed, count, max_depth, max_arity)
        want = ref_comprehension_corpus(seed, count, max_depth, max_arity)
        assert [xs for _, xs in got] == [xs for _, xs in want]
        assert_identical([f for f, _ in got], [f for f, _ in want])


@pytest.mark.parametrize(
    "count, n, m, max_depth, require_choice_var",
    [(30, 1, 1, 3, True), (30, 1, 1, 3, False), (20, 2, 1, 2, True), (20, 1, 2, 3, True), (2, 1, 1, 0, True)],
)
def test_payload_corpus_matches_the_reference(count, n, m, max_depth, require_choice_var):
    for seed in SEEDS:
        got = payload_corpus(seed, count, n, m, max_depth, require_choice_var=require_choice_var)
        want = ref_payload_corpus(seed, count, n, m, max_depth, require_choice_var=require_choice_var)
        assert_identical(got, want)


def test_benchmark_sized_corpora_match_the_reference():
    got, want = comprehension_corpus(1, 1600, 3, 1), ref_comprehension_corpus(1, 1600, 3, 1)
    assert got == want
    assert_identical([f for f, _ in got], [f for f, _ in want])
    assert_identical(
        payload_corpus(1, 600, 1, 1, 3, require_choice_var=False),
        ref_payload_corpus(1, 600, 1, 1, 3, require_choice_var=False),
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: comprehension_corpus(1, 1, 3, 0),
        lambda: comprehension_corpus(1, -1, 3, 1),
        lambda: comprehension_corpus(1, 1, -1, 1),
        lambda: payload_corpus(1, -1, 1, 1, 3),
        lambda: payload_corpus(1, 1, 1, 1, -1),
        lambda: payload_corpus(1, 3, 1, 1, 2.5),
        lambda: payload_corpus(1, 2.5, 1, 1, 3),
        lambda: payload_corpus(1, 5, -1, 1),
        lambda: payload_corpus(1, 5, 1, 0),
    ],
    ids=[
        "max_arity-0",
        "comprehension-count",
        "comprehension-depth",
        "payload-count",
        "payload-depth",
        "payload-depth-not-integer",
        "payload-count-not-integer",
        "payload-n-negative",
        "payload-m-0",
    ],
)
def test_arguments_no_draw_can_satisfy_are_rejected_up_front(call):
    with pytest.raises(ValueError):
        call()


def test_empty_corpora():
    assert comprehension_corpus(1, 0, 3, 1) == []
    assert payload_corpus(1, 0, 1, 1, 3) == []


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "call",
    [
        lambda: payload_corpus(1, 50, 1, 1, 0),  # two distinct depth-0 payloads exist
        lambda: payload_corpus(5, 10_000, 1, 1, 1, require_choice_var=False),
        lambda: comprehension_corpus(1, 50, 0, 1),
        lambda: comprehension_corpus(7, 10_000, 1, 2),
    ],
    ids=["payload-depth-0", "payload-depth-1", "comprehension-depth-0", "comprehension-depth-1"],
)
def test_a_corpus_larger_than_its_filters_allow_raises(call):
    with time_limit(30), pytest.raises(ValueError, match=f"{BARREN_DRAWS} draws in a row added nothing"):
        call()


@pytest.mark.parametrize(
    "max_depth, ind_vars, pred_vars, options",
    [
        (-1, *default_vocabulary(2), {}),
        # the budget would never reach 0
        (1.5, [x1], [], {"atom_bias": 0}),
        # no individual variable: a pick from an empty table would never end
        (2, [], [pred(0, 1)], {}),
    ],
    ids=["negative-depth", "depth-not-integer", "no-individual-variables"],
)
def test_bad_arguments_are_rejected_before_any_draw(max_depth, ind_vars, pred_vars, options):
    rng = random.Random(3)
    state = rng.getstate()
    with time_limit(5), pytest.raises(ValueError):
        random_formula(rng, max_depth, ind_vars, pred_vars, **options)
    assert rng.getstate() == state
