"""Finite predicate structures: truth tables as predicate domains, the
recursive valuation, defined predicates, comprehension, and saturation."""

from henkin import (
    Assignment,
    Structure,
    Table,
    att,
    check_comprehension,
    evaluate,
    ind,
    parse,
    pred,
    saturate,
    standard_structure,
)

# A structure is a universe of labelled individuals plus, per arity, a set
# of truth tables.  The standard structure carries every table.
std = standard_structure(("a", "b"), 2)
print("standard over {a,b}:", {n: len(d) for n, d in std.domains.items()})

# Quantifiers read Henkin-style: predicate quantifiers range over the
# structure's own domain, which may be small.
f = parse("ex A0^1 . (A0^1 x1 & ~(A0^1 x2))")
separating = Assignment({ind(1): 0, ind(2): 1})
print("separating set exists in standard:", evaluate(std, separating, f))

only_false = Structure(("a", "b"), {1: frozenset({Table.constant(2, 1, False)})})
print("separating set exists with one table:", evaluate(only_false, separating, f))

# A formula with distinguished variables defines a table: entry at a tuple
# is the truth value with the tuple plugged in.
print()
section = att(std, parse("x1 = x2"), (ind(1),), Assignment({ind(2): 0}))
print("x1 = x2 with x2 -> a defines:", section.table.bitstring(), "(the {a} indicator)")

negated = att(std, parse("~(A0^1 x1)"), (ind(1),), Assignment({pred(0, 1): section.table}))
print("negating it pointwise:        ", negated.table.bitstring())

# Comprehension asks whether the defined table already lives in the
# structure.  The standard structure always says yes; a gap says no and
# reports the missing table.
print()
gap = Structure(
    ("a", "b"),
    {1: frozenset(t for t in std.domains[1] if t.bitstring() != "10")},
)
outcome = check_comprehension(gap, parse("x1 = x2"), (ind(1),), Assignment({ind(2): 0}))
print("gap structure satisfies the instance:", outcome.holds)
print("missing table:", outcome.table.bitstring())

# Saturation closes the domains under depth-bounded definability, re-run
# until a round adds nothing.
filled = saturate(gap, 1)
print("after saturation:", sorted(t.bitstring() for t in filled.domains[1]))
print("standard is a fixpoint:", saturate(std, 1) == std)
