"""Introduce a single forall-exists cut into a cut-free first-order proof.

Given a prenex end-sequent, its Herbrand instances and a schematic
grammar describing the cut's instantiation structure, the package
computes candidate cut matrices, verifies them, emits a machine-checkable
proof with one cut, and measures the resulting compression.
"""

from .benchmark import generate_sn, minimal_cutfree_instances
from .calculus import ComplexityTriple, check_proof, complexities, is_tautology
from .grammar import HerbrandInstanceSet, SchematicPi2Grammar, covers, rigid_language
from .herbrand import (
    ExtendedHerbrandSequent,
    PrenexProblem,
    herbrand_check,
    proof_from_eh,
    proof_from_herbrand,
)
from .solver import (
    CapExceeded,
    NoSolutionUnderPool,
    SolutionReport,
    SolverOptions,
    build_sehs,
    cl_filter,
    gstar_pool,
    introduce_cut,
    is_balanced,
    naive_pool,
    sol_filter,
    verify_solution,
)

__all__ = [
    "CapExceeded",
    "ComplexityTriple",
    "ExtendedHerbrandSequent",
    "HerbrandInstanceSet",
    "NoSolutionUnderPool",
    "PrenexProblem",
    "SchematicPi2Grammar",
    "SolutionReport",
    "SolverOptions",
    "build_sehs",
    "check_proof",
    "cl_filter",
    "complexities",
    "covers",
    "generate_sn",
    "gstar_pool",
    "herbrand_check",
    "introduce_cut",
    "is_balanced",
    "is_tautology",
    "minimal_cutfree_instances",
    "naive_pool",
    "proof_from_eh",
    "proof_from_herbrand",
    "rigid_language",
    "sol_filter",
    "verify_solution",
]
