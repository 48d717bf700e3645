"""Introduce a single forall-exists cut into a cut-free first-order proof.

Given a prenex end-sequent, its Herbrand instances and a schematic
grammar describing the cut's instantiation structure, the package
computes candidate cut matrices, verifies them, emits a machine-checkable
proof with one cut, and measures the resulting compression.
"""

from .benchmark import generate_sn, minimal_cutfree_instances
from .calculus import (
    ComplexityTriple,
    Node,
    ancestry,
    check_proof,
    complexities,
    is_tautology,
    maximal_derivation,
    non_tautological_leaves,
)
from .grammar import (
    GStarSystem,
    SchematicPi2Grammar,
    WrappedTerm,
    covers,
    gstar_of,
    reachable_literals,
    rigid_language,
    validate,
)
from .herbrand import (
    ExtendedHerbrandSequent,
    HerbrandInstanceSet,
    PrenexProblem,
    eh_build,
    herbrand_check,
    herbrand_term_set,
    proof_from_eh,
    proof_from_herbrand,
)
from .solver import (
    CapExceeded,
    CoverFailure,
    NoSolutionUnderPool,
    PartitionedLeaf,
    Sehs,
    SolutionReport,
    SolverOptions,
    build_sehs,
    cl_filter,
    gstar_pool,
    introduce_cut,
    is_balanced,
    naive_pool,
    partitioned_dnta,
    sol_filter,
    verify_solution,
)
from .syntax import (
    Atom,
    Formula,
    Literal,
    Sequent,
    Signature,
    Term,
    dnf_of,
    dual,
    free_vars,
    literal_normal_form,
    sharp_count,
    substitute,
)

__all__ = [name for name in dir() if not name.startswith("_")]
