"""The symbolic atom universe: finite-support predicates as equality types,
stratified quantification, the well-ordering sweep, and uniform choice
witnesses."""

from henkin import (
    SymbolicPredicate,
    check_choice_instance_sigma0,
    classify,
    denotes,
    is_linear_order,
    parse,
    symbolic_evaluate,
    wellorder_counterexample_sweep,
)
from henkin.fraenkel import (
    CHOICE_SUITE,
    EqType,
    cofinite_set,
    equality_symbolic,
    truncate_predicate,
    type_string,
)
from henkin.parser import parse_var

# The equality type of a tuple relative to a support records which
# positions carry support atoms and which share fresh atoms.
print("type of (a,a) over {}:   ", type_string(classify(("a", "a"), ())))
print("type of (a,b) over {}:   ", type_string(classify(("a", "b"), ())))
print("type of (p,a) over {p}:  ", type_string(classify(("p", "a"), ("p",))))

# A predicate is a support plus the accepted types.  The complement of a
# point is cofinite; membership only consults the type.
print()
away = cofinite_set(("p",))
print("complement of {p}: p ->", denotes(away, ("p",)), " q ->", denotes(away, ("q",)))
print("its truncation to (p,q,r):", truncate_predicate(away, ("p", "q", "r")).bitstring())

# A predicate is stored over its least support, whatever support it is
# declared with.
padded = SymbolicPredicate(2, ("p",), frozenset({EqType(("p", "p")), EqType((0, 0))}))
print("equality declared over {p} is stored over support", padded.support)

# Individual quantifiers are decided exactly by a small-model reduction;
# predicate quantifiers are stratified by support size and flagged.
print()
verdict = symbolic_evaluate(parse("all x1 . ex x2 . ~(x1 = x2)"), {}, 0)
print("another atom always exists:", verdict.truth, " stratified:", verdict.stratified)
verdict = symbolic_evaluate(parse("ex A0^1 . (A0^1 x1 & ~(A0^1 x2))"), {parse_var("x1"): "p", parse_var("x2"): "q"}, 1)
print("a separating set exists:   ", verdict.truth, " stratified:", verdict.stratified)

# No finitely-supported binary predicate linearly orders the atoms: the two
# orientations of a fresh pair share a type, so either antisymmetry or
# totality dies.  The sweep exhausts every candidate up to support three.
print()
print("equality as an order:", is_linear_order(equality_symbolic()))
print("{p}-pointed relation:", is_linear_order(
    SymbolicPredicate(2, ("p",), frozenset({EqType(("p", 0)), EqType(("p", "p"))}))
))
report = wellorder_counterexample_sweep(3)
print(f"sweep: {report.total_predicates} predicates, {report.linear_orders_found} linear orders")
for bucket in report.buckets:
    print(f"  support {bucket.support_size}: {bucket.predicate_count:>7} predicates, "
          f"failures {dict(sorted(bucket.failure_counts.items()))}")

# Meanwhile every instance of the bridged choice schema in the documented
# suite has a uniform witness of empty support.
print()
print("uniform choice witnesses at stratum 2:")
for name, n, m, text in CHOICE_SUITE:
    outcome = check_choice_instance_sigma0(n, m, parse(text), 2)
    witness = outcome.witness
    accepted = sorted(type_string(t) for t in witness.accepted)
    print(f"  {name:<20} {outcome.status}: support={list(witness.support)} accepted={accepted}")
