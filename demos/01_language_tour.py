"""Tour of the formula language: parsing, printing, binding discipline,
unique existence, the depth bound, and derivations."""

from henkin import exists_unique, format_formula, ind, parse
from henkin.parser import ParseError
from henkin.syntax import MAX_DEPTH, derivation

# Individual variables are x0, x1, ...; an n-ary predicate variable is
# written A<i>^<n>.  Application juxtaposes: "A0^2 x1 x2".
f = parse("all x1 . ex A0^1 . A0^1 x1 & ~(A0^1 x2)")
print("parsed:        ", format_formula(f))
print("free variables:", sorted(str(v) for v in f.free_vars))
print("reparse equals: ", parse(format_formula(f)) == f)

# The grammar lets a quantifier bind only a variable that is not bound
# again inside its body.  Sibling binders are fine; nesting is not.
print()
print("sibling binders ok:", format_formula(parse("(all x1 . A0^1 x1) & (all x1 . ~(A0^1 x1))")))
try:
    parse("all x1 . all x1 . x1 = x1")
except ParseError as exc:
    print("nested rebinding rejected:", exc)

# ex!! is sugar for existence plus a two-copy equality clause.
print()
print("ex!! expands to:")
print("  ", format_formula(parse("ex!! x1 . A0^1 x1")))

# The same expansion works for tuples when building axioms by hand.
pair = exists_unique((ind(1), ind(2)), parse("A0^2 x1 x2"))
print("tuple version:")
print("  ", format_formula(pair))

# Formulas nest at most MAX_DEPTH deep; deeper input is a parse error,
# never a crash.
print()
try:
    parse("~(" * (MAX_DEPTH + 1) + "x1 = x1" + ")" * (MAX_DEPTH + 1))
except ParseError as exc:
    print("too deep:", exc)

# Every accepted tree reconstructs its grammar derivation; rule 1 covers
# atoms, 2 connectives, 3 and 4 the two quantifier sorts.
print()
print("derivation of", format_formula(parse("ex A0^1 . A0^1 x1")))
for rule, node in derivation(parse("ex A0^1 . A0^1 x1")):
    print(f"  rule {rule}: {format_formula(node)}")
