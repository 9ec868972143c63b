"""The axiom zoo: the Zermelo and Russell style choice axioms, the
parameterized choice schemas, comprehension, and the well-ordering formula,
checked exhaustively over small structures."""

from henkin import (
    Structure,
    Table,
    check_schema,
    format_formula,
    parse,
    standard_structure,
)
from henkin.schemas import (
    AC,
    AC_STAR,
    CHOICE,
    CHOICE_H,
    CHOICE_STAR,
    COMPREHENSION,
    WO1,
    SchemaId,
    build,
)

# Built formulas are plain language: tuples expanded, unique existence and
# lambda sections lowered.
print("AC^{1,1}:")
print("  ", format_formula(build(SchemaId(AC, 1, 1))))
print()
print("AC_*^{1,1} adds the disjointness premise:")
print("  ", format_formula(build(SchemaId(AC_STAR, 1, 1))))

h = parse("all x2 . (A0^1 x2 <-> x2 = x1)")
print()
print("choice^{1,1} of the singleton payload, lambda lowered by substitution:")
print("  ", format_formula(build(SchemaId(CHOICE, 1, 1, h))))
print("its bridged equivalent:")
print("  ", format_formula(build(SchemaId(CHOICE_H, 1, 1, h))))

print()
print("comprehension instance:")
print("  ", format_formula(build(SchemaId(COMPREHENSION, 1, 1, parse("x1 = x1")))))
print("well-ordering statement:")
print("  ", format_formula(build(SchemaId(WO1))))

# Exhaustive checking peels the universal prefix and searches for a
# falsifying assignment.
std2 = standard_structure(("a", "b"), 2)
print()
print("on the standard structure over two points:")
for family, schema in [
    ("ac", SchemaId(AC, 1, 1)),
    ("ac-star", SchemaId(AC_STAR, 1, 1)),
    ("choice-star", SchemaId(CHOICE_STAR, 1, 1, parse("ex x1 . A0^1 x1"))),
    ("wo1", SchemaId(WO1)),
]:
    print(f"  {family}: {'holds' if check_schema(std2, schema).holds else 'fails'}")

# Starve the binary domain down to the full relation only and the choice
# axiom fails: no selector with unique witnesses is available.
crippled = Structure(
    ("a", "b"), {1: std2.domains[1], 2: frozenset({Table.constant(2, 2, True)})}
)
outcome = check_schema(crippled, SchemaId(AC, 1, 1))
print()
print("with the binary domain reduced to the full relation, ac", "holds" if outcome.holds else "fails")
print("counterexample values:", {str(v): t.bitstring() for v, t in outcome.counterexample.values.items()})

# Lowered and bridged forms agree wherever comprehension holds.
print()
payloads = [h, parse("A0^1 x1"), parse("ex x2 . A0^1 x2")]
for p in payloads:
    lowered = check_schema(std2, SchemaId(CHOICE, 1, 1, p)).holds
    bridged = check_schema(std2, SchemaId(CHOICE_H, 1, 1, p)).holds
    print(f"  payload {format_formula(p)!r}: lowered={lowered} bridged={bridged}")

# The invariant model over four points separates the families.  The
# inequality relation lives in its binary domain, but no invariant table
# picks one witness out of each three-element section, so the Zermelo-style
# axiom fails; the Russell-style premise excludes those sections, and the
# bridged instances never see them because the offending choice sets are
# missing from the unary domain.
from henkin import Group, PrincipalNormal, build_permutation_model

model = build_permutation_model(
    ("1", "2", "3", "4"),
    Group.symmetric(4),
    PrincipalNormal((Group.alternating(4),)),
    2,
)
print()
print("on the invariant model over four points:")
zermelo = check_schema(model, SchemaId(AC, 1, 1))
print("  ac:", "holds" if zermelo.holds else "fails")
print("  counterexample:", {str(v): t.bitstring() for v, t in zermelo.counterexample.values.items()})
print("  ac-star:", "holds" if check_schema(model, SchemaId(AC_STAR, 1, 1)).holds else "fails")
print("  choice-h(singleton):", "holds" if check_schema(model, SchemaId(CHOICE_H, 1, 1, h)).holds else "fails")
print("  wo1:", "holds" if check_schema(model, SchemaId(WO1)).holds else "fails")
