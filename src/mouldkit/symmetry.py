# Symmetry predicates on moulds: alternality, alternility up to a constant
# mould, the senary relation in both of its formulations, pus-neutrality
# based membership, and the graded (fixed-weight) solution spaces of the
# combined linear conditions.
#
# Everything here is linear algebra over Q in disguise: each predicate is
# "a finite family of polynomials vanishes", and each polynomial depends
# linearly on the input mould.  The graded solvers exploit exactly that.

from fractions import Fraction
from itertools import combinations
from math import comb

from .kernel import (
    MultiPoly,
    NoSolution,
    NotDivisible,
    PoleError,
    RatMatrix,
    column_rows,
    embed_vars,
    exact_div,
    nullspace,
    permute_vars,
    substitute,
)
from .mould import (
    ConstantMould,
    Mould,
    _check_mould,
    coll,
    is_pus_neutral,
    pus_sum,
    swap,
    u_component,
)


class AlternilityCertificate:
    """Witness that N + C is alternil for the recorded constant mould C.

    residual_defects is a list of (p, q, defect polynomial); the certificate
    is valid exactly when that list is empty (the solver returns NoSolution
    instead of an invalid certificate, but the field keeps failed-solve
    diagnostics uniform for callers that want them)."""

    __slots__ = ("constant", "residual_defects")

    def __init__(self, constant, residual_defects=()):
        assert isinstance(constant, ConstantMould), constant
        self.constant = constant
        self.residual_defects = list(residual_defects)

    @property
    def valid(self):
        return not self.residual_defects

    def __repr__(self):
        return "AlternilityCertificate(constant=%r, residual=%d)" % (
            self.constant,
            len(self.residual_defects),
        )


# ---------------------------------------------------------------------------
# alternality

def _shuffle_perms(p, q):
    """Argument permutations realizing the (p,q) shuffles.

    A shuffle alpha places x_1..x_p (in order) at a chosen p-subset of the
    m = p + q argument slots and x_{p+1}..x_{p+q} (in order) at the rest.
    Evaluating M^m(alpha) = permute_vars(M^m, perm) needs perm indexed by
    argument slot: slot s carries variable perm[s]."""
    m = p + q
    for pos in combinations(range(m), p):
        slot_var = [0] * m
        others = [i for i in range(m) if i not in pos]
        for k, slot in enumerate(pos):
            slot_var[slot] = k
        for k, slot in enumerate(others):
            slot_var[slot] = p + k
        yield slot_var


def alternality_defect(mo, p, q):
    """The (p,q) shuffle sum of the depth p+q component, as a polynomial."""
    _check_mould(mo, "alternality_defect")
    m = p + q
    comp = mo.component(m)
    total = MultiPoly.zero(m)
    if comp.is_zero():
        return total
    for perm in _shuffle_perms(p, q):
        total = total + permute_vars(comp, perm)
    return total


def alternal_witness(mo):
    """None when M is alternal, else {"m0": M^0} or {"p", "q", "defect"}
    for the first nonzero (p,q) shuffle sum by p+q, then p.  The (q,p) sum
    is the (p,q) sum with its variables relabelled, so only p <= q is
    walked: the first failure over all splits has p <= q anyway."""
    _check_mould(mo, "alternal_witness")
    if mo.components[0] != 0:
        return {"m0": mo.components[0]}
    for m in range(2, mo.depth + 1):
        if mo.components[m].is_zero():
            continue
        for p in range(1, m // 2 + 1):
            defect = alternality_defect(mo, p, m - p)
            if not defect.is_zero():
                return {"p": p, "q": m - p, "defect": defect}
    return None


def is_alternal(mo):
    """M^0 = 0 and every (p,q) shuffle sum vanishes, p+q <= declared depth."""
    return alternal_witness(mo) is None


# ---------------------------------------------------------------------------
# alternility
#
# The (p,q) alternility sum with the rational-function coefficients
# specialized at y_i = x_i is computed by a divided-difference recursion:
# interleave the two blocks letter by letter, and each contraction of a pair
# (x_u, x_v) contributes the divided difference of the two single-letter
# continuations.  Both continuations agree on x_u = x_v, so the division is
# exact for every polynomial-component mould; a failure can only mean the
# input is not of that shape and surfaces as PoleError.

def _alternility_eval(mo, omega, eta, rho, nvars):
    if not omega or not eta:
        args = rho + omega + eta
        return embed_vars(mo.component(len(args)), list(args), nvars)
    u, v = omega[0], eta[0]
    a = _alternility_eval(mo, omega[1:], eta, rho + (u,), nvars)
    b = _alternility_eval(mo, omega, eta[1:], rho + (v,), nvars)
    cu = _alternility_eval(mo, omega[1:], eta[1:], rho + (u,), nvars)
    cv = _alternility_eval(mo, omega[1:], eta[1:], rho + (v,), nvars)
    div = MultiPoly.var(nvars, u) - MultiPoly.var(nvars, v)
    try:
        c = exact_div(cu - cv, div)
    except NotDivisible as e:
        raise PoleError(
            "surviving pole at x_%d - x_%d in the (%d,%d) alternility sum"
            % (u + 1, v + 1, len(omega) + len(rho), len(eta))
        ) from e
    return a + b + c


def alternility_defect(mo, p, q):
    """The (p,q) quasi-shuffle sum of N, poles collected, as a polynomial."""
    assert isinstance(mo, Mould), mo
    n = p + q
    return _alternility_eval(
        mo, tuple(range(p)), tuple(range(p, n)), (), n
    )


def alternil_up_to_constant(mo):
    """Solve for a constant mould C with N + C alternil.

    Adding a constant C_m to depth m contributes binom(m, p) * C_m to each
    (p,q) sum with p + q = m (its contraction terms cancel pairwise), so the
    system decouples per depth: the defect must be constant and the constants
    must agree across the splits of m.  Returns an AlternilityCertificate or
    NoSolution carrying the irreducible (p, q, defect) witnesses, or the
    reason alone when M^0 is nonzero."""
    assert isinstance(mo, Mould), mo
    if mo.components[0] != 0:
        return NoSolution("alternility needs a vanishing constant term")
    consts = [Fraction(0), Fraction(0)]
    residual = []
    for m in range(2, mo.depth + 1):
        defects = [(p, m - p, alternility_defect(mo, p, m - p))
                   for p in range(1, m)]
        p0, _, d0 = defects[0]
        c_m = -d0.coefficient((0,) * m) / comb(m, p0)
        for p, q, d in defects:
            leftover = d + MultiPoly.const(m, comb(m, p) * c_m)
            if not leftover.is_zero():
                residual.append((p, q, leftover))
        consts.append(c_m)
    if residual:
        return NoSolution(
            "alternility defects not absorbable by a constant mould",
            defects=residual,
        )
    return AlternilityCertificate(ConstantMould(consts), [])


# ---------------------------------------------------------------------------
# the senary relation
#
# Normative form: both sides written out as divided differences.
#   lhs  = M^r(y) + (1/y_r){M^{r-1}(y_1..y_{r-2}, y_{r-1}+y_r)
#                           - M^{r-1}(y_1..y_{r-1})}
#   rhs  = M^r(-y_1-..-y_r, y_1,..,y_{r-1})
#          + (1/(y_1+..+y_r)){M^{r-1}(-y_2-..-y_r, y_2,..,y_{r-1})
#                             - M^{r-1}(y_1,..,y_{r-1})}
# with the r = 1 instances collapsing to M^1(y_1) resp. M^1(-y_1).  Both
# divisions are exact for every mould (the bracketed differences vanish on
# the divisor's zero set), which the operator identity
# teru = push o mantar o teru o mantar (criterion-level pin) also forces.

def senary_lhs(mo, r):
    assert r >= 1, r
    if r == 1:
        return mo.component(1)
    prev = mo.component(r - 1)
    forms = []
    for j in range(r - 2):
        f = [Fraction(0)] * r
        f[j] = Fraction(1)
        forms.append(tuple(f))
    last = [Fraction(0)] * r
    last[r - 2] = Fraction(1)
    last[r - 1] = Fraction(1)
    forms.append(tuple(last))
    merged = substitute(prev, forms, r)
    plain = embed_vars(prev, list(range(r - 1)), r)
    corr = exact_div(merged - plain, MultiPoly.var(r, r - 1))
    return mo.component(r) + corr


def senary_rhs(mo, r):
    assert r >= 1, r
    if r == 1:
        return substitute(mo.component(1), [(Fraction(-1),)], 1)
    forms = [tuple(Fraction(-1) for _ in range(r))]
    for k in range(2, r + 1):
        f = [Fraction(0)] * r
        f[k - 2] = Fraction(1)
        forms.append(tuple(f))
    main = substitute(mo.component(r), forms, r)
    prev = mo.component(r - 1)
    head = [Fraction(0)] * r
    for j in range(1, r):
        head[j] = Fraction(-1)
    pforms = [tuple(head)]
    for j in range(2, r):
        f = [Fraction(0)] * r
        f[j - 1] = Fraction(1)
        pforms.append(tuple(f))
    merged = substitute(prev, pforms, r)
    plain = embed_vars(prev, list(range(r - 1)), r)
    divisor = MultiPoly(
        r, {tuple(1 if k == j else 0 for k in range(r)): 1 for j in range(r)}
    )
    corr = exact_div(merged - plain, divisor)
    return main + corr


def senary_defect(mo, r):
    """teru(M)^r minus the push o mantar o teru o mantar side, expanded."""
    return senary_lhs(mo, r) - senary_rhs(mo, r)


def senary_holds(mo, r):
    assert isinstance(mo, Mould), mo
    assert r >= 1, r
    return senary_defect(mo, r).is_zero()


def senary_eq41_holds(mo, r):
    """The collision-map formulation at depth r + 1:

        u(M)^{r+1} + coll_{2,3} u(M)^{r+1}
            = u(M)^{r+1}(x_2,..,x_{r+1},x_1) + coll_{1,2} u(M)^{r+1}

    For r = 1 the collision slots degenerate (there is no x_3, and the
    corrections carry no depth-0 content), leaving the bare rotation
    identity u(M)^2(x_1,x_2) = u(M)^2(x_2,x_1).

    Only u(M)^{r+1} and, for the collision maps, u(M)^r are built."""
    assert isinstance(mo, Mould), mo
    assert r >= 1, r
    n = r + 1
    comp = u_component(mo, n)
    rotated = permute_vars(comp, [(j + 1) % n for j in range(n)])
    if r == 1:
        return comp == rotated
    um = Mould.from_components(n, {r: u_component(mo, r), n: comp})
    c23 = coll(um, n, 2).component(n)
    c12 = coll(um, n, 1).component(n)
    return comp + c23 == rotated + c12


# ---------------------------------------------------------------------------
# membership predicates

def in_ari_sena_pusnu(mo):
    """Senary for all r (truncated at depth D + 1: the depth-(D+1) instance
    still has content through the divided differences of M^D, every higher
    one vanishes identically) plus pus-neutrality of swap(M)."""
    assert isinstance(mo, Mould), mo
    if mo.components[0] != 0:
        return False
    for r in range(1, mo.depth + 2):
        if not senary_holds(mo, r):
            return False
    return is_pus_neutral(swap(mo))


def in_ari_al_star_il(mo):
    """Alternal, and swap(M) alternil up to a constant-valued mould."""
    assert isinstance(mo, Mould), mo
    if not is_alternal(mo):
        return False
    cert = alternil_up_to_constant(swap(mo))
    return isinstance(cert, AlternilityCertificate)


# ---------------------------------------------------------------------------
# graded solution spaces at fixed weight
#
# The ambient space of weight-w moulds: depth r carries the monomials of
# degree w - r in r variables, so dim = sum_r binom(w-1, r-1) = 2^(w-1).

def _monomials(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _monomials(total - first, nvars - 1):
            yield (first,) + rest


def weight_mould_basis(w):
    """Deterministic basis of the weight-w ambient mould space."""
    assert w >= 1, w
    out = []
    for r in range(1, w + 1):
        for e in sorted(_monomials(w - r, r)):
            out.append(Mould.from_components(w, {r: {e: Fraction(1)}}))
    return out


def _nullspace_moulds(basis, rows, ncols):
    vecs = nullspace(RatMatrix.from_rows(rows, ncols))
    out = []
    for v in vecs:
        mo = Mould.zero(basis[0].depth if basis else 0)
        nonzero = False
        for j, b in enumerate(basis):
            if v[j]:
                mo = mo + v[j] * b
                nonzero = True
        if nonzero:
            out.append(mo)
    return out


def ari_alil_space(w, fil2=False):
    """Basis of the weight-w moulds that are alternal with swap alternil up
    to a constant mould.  The unknown constants C_2..C_w ride along as extra
    columns of the joint linear system and are projected away at the end
    (the projection is injective: M = 0 forces every C_m = 0)."""
    basis = weight_mould_basis(w)
    if fil2:
        basis = [b for b in basis if b.component(1).is_zero()]
    nconst = max(0, w - 1)
    swaps = [swap(b) for b in basis]
    rows = []
    for m in range(2, w + 1):
        for p in range(1, m):
            q = m - p
            al = [alternality_defect(b, p, q).terms for b in basis]
            rows.extend(column_rows(al + [{}] * nconst))
            # C_m adds binom(m, p) to the constant term of the (p, q) sum
            consts = [{}] * nconst
            consts[m - 2] = {(0,) * m: Fraction(comb(m, p))}
            il = [alternility_defect(s, p, q).terms for s in swaps]
            rows.extend(column_rows(il + consts))
    # the projection to the mould coordinates is injective: M = 0 forces
    # each C_m = 0 through the constant rows, so no solution is dropped
    return _nullspace_moulds(basis, rows, len(basis) + nconst)


def ari_sena_pusnu_space(w):
    """Basis of the weight-w moulds that are alternal, satisfy the senary
    relation for every r, and have pus-neutral swap.  Pus-neutrality at
    depth 1 forces M^1 = 0, so this space sits inside Fil^2 automatically."""
    basis = weight_mould_basis(w)
    swaps = [swap(b) for b in basis]
    rows = []
    for m in range(2, w + 1):
        for p in range(1, m):
            rows.extend(column_rows(
                [alternality_defect(b, p, m - p).terms for b in basis]))
    for r in range(1, w + 1):
        rows.extend(column_rows([senary_defect(b, r).terms for b in basis]))
    for m in range(1, w + 1):
        rows.extend(column_rows([pus_sum(s, m).terms for s in swaps]))
    return _nullspace_moulds(basis, rows, len(basis))
