"""Desk-scale workbench for second-order Henkin semantics: a two-sorted
formula language, finite predicate structures, permutation models, choice
axiom schemas, and a symbolic finite-support atom universe.

The core loads with the package.  The names that ``_LAZY`` maps to ``groups``
(``Group``, ``build_permutation_model``, ...) or to ``fraenkel``
(``symbolic_evaluate``, ``wellorder_counterexample_sweep``, ...) load their
module on first use (PEP 562)."""

from importlib import import_module as _import_module

from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    exists_unique,
    format_formula,
    free_vars,
    ind,
    pred,
)
from .parser import ParseError, parse, parse_var
from .structures import (
    Assignment,
    CapExceeded,
    Structure,
    StructureError,
    Table,
    all_tables,
    equality_table,
    load_structure,
    save_structure,
    standard_structure,
)
from .evaluate import (
    ComprehensionResult,
    DefinedPredicate,
    EvalError,
    att,
    check_comprehension,
    evaluate,
    saturate,
)
from .schemas import SchemaId, build, check_schema

# the names of the layers that only some uses need: each loads its module on first use
_LAZY = dict.fromkeys(
    "AllSubgroups FiniteSupports Group Permutation PrincipalNormal act_on_assignment"
    " act_on_predicate build_permutation_model check_transport check_stabilizer_bound"
    " filter_contains pointwise_stabilizer symmetry_subgroup".split(),
    "groups",
) | dict.fromkeys(
    "EqType FraenkelError SymbolicPredicate check_choice_instance_sigma0 classify denotes"
    " is_linear_order symbolic_evaluate wellorder_counterexample_sweep".split(),
    "fraenkel",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
