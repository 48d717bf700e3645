"""Truth-table validity for small ground sequents.

An oracle the benchmark uses to confirm cut matrices and planted
extended sequents without the program's own tautology check (its CNF
translation and SAT search) or its proof checker.  Free variables are
read as uninterpreted constants, so every distinct atom is an
independent propositional variable and validity is decided by trying
every assignment.
"""

from __future__ import annotations

from pi2cut.syntax import ALPHA, X, Y, And, App, Atom, Imp, Not, Or, Var, beta

# Fixtures need at most 6 atoms and planted sequents at most 9; the cap
# keeps a mistaken input from enumerating millions of assignments.
MAX_ATOMS = 12


def substitute(e, mapping):
    """Simultaneous replacement of variables by terms, in terms and
    quantifier-free formulas."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, App):
        return App(e.fn, tuple(substitute(a, mapping) for a in e.args))
    if isinstance(e, Atom):
        return Atom(e.pred, tuple(substitute(a, mapping) for a in e.args))
    if isinstance(e, Not):
        return Not(substitute(e.sub, mapping))
    if isinstance(e, (And, Or, Imp)):
        return type(e)(substitute(e.left, mapping), substitute(e.right, mapping))
    raise TypeError(f"not a term or quantifier-free formula: {e!r}")


def _atoms(f, out: dict) -> None:
    if isinstance(f, Atom):
        out.setdefault(f, len(out))
    elif isinstance(f, Not):
        _atoms(f.sub, out)
    elif isinstance(f, (And, Or, Imp)):
        _atoms(f.left, out)
        _atoms(f.right, out)
    else:
        raise TypeError(f"not a quantifier-free formula: {f!r}")


def _holds(f, index: dict, bits: int) -> bool:
    if isinstance(f, Atom):
        return bool(bits >> index[f] & 1)
    if isinstance(f, Not):
        return not _holds(f.sub, index, bits)
    if isinstance(f, And):
        return _holds(f.left, index, bits) and _holds(f.right, index, bits)
    if isinstance(f, Or):
        return _holds(f.left, index, bits) or _holds(f.right, index, bits)
    return not _holds(f.left, index, bits) or _holds(f.right, index, bits)


def valid(left, right) -> bool:
    """Is the sequent ``left |- right`` true under every assignment?"""
    index: dict = {}
    for f in list(left) + list(right):
        _atoms(f, index)
    if len(index) > MAX_ATOMS:
        raise ValueError(f"{len(index)} atoms, more than {MAX_ATOMS}")
    for bits in range(1 << len(index)):
        if all(_holds(f, index, bits) for f in left) and not any(
            _holds(f, index, bits) for f in right
        ):
            return False
    return True


def _fold(op, formulas):
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = op(f, out)
    return out


def extended_sequent(problem, grammar, matrix):
    """The ground sequent a cut matrix must make valid: the end-sequent
    instances of the grammar's tuples plus the bridge from the matrix's
    existential-witness instances to its universal-witness instances."""
    f_insts = [
        substitute(problem.antecedent, dict(zip(problem.forall_vars, t)))
        for t in grammar.f_tuples
    ]
    g_insts = [
        substitute(problem.succedent, dict(zip(problem.exists_vars, t)))
        for t in grammar.g_tuples
    ]
    alphas = [substitute(matrix, {X: Var(ALPHA), Y: t}) for t in grammar.t_terms]
    betas = [
        substitute(matrix, {X: r, Y: Var(beta(j))})
        for j, r in enumerate(grammar.r_terms, 1)
    ]
    bridge = Imp(_fold(Or, alphas), _fold(And, betas))
    return f_insts + [bridge], g_insts
