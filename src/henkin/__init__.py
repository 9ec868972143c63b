"""Desk-scale workbench for second-order Henkin semantics: a two-sorted
formula language, finite predicate structures, permutation models, choice
axiom schemas, and a symbolic finite-support atom universe."""

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
from .groups import (
    AllSubgroups,
    FiniteSupports,
    Group,
    Permutation,
    PrincipalNormal,
    act_on_assignment,
    act_on_predicate,
    build_permutation_model,
    check_transport,
    check_stabilizer_bound,
    filter_contains,
    pointwise_stabilizer,
    symmetry_subgroup,
)
from .fraenkel import (
    EqType,
    FraenkelError,
    SymbolicPredicate,
    check_choice_instance_sigma0,
    classify,
    denotes,
    is_linear_order,
    symbolic_evaluate,
    wellorder_counterexample_sweep,
)
from .schemas import SchemaId, build, check_schema

__version__ = "0.1.0"
