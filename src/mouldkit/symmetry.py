# Symmetry predicates on moulds: alternality, alternility up to a constant
# mould, the senary relation in both of its formulations, and the graded
# (fixed-weight) solution spaces of the combined linear conditions.
#
# Everything here is linear algebra over Q in disguise: each predicate is
# "a finite family of polynomials vanishes", and each polynomial depends
# linearly on the input mould.  The graded solvers exploit exactly that.

from fractions import Fraction
from functools import lru_cache
from math import comb

from .bridge import XY, ma
from .kernel import (
    MultiPoly,
    NoSolution,
    RatMatrix,
    divided_difference,
    embed_vars,
    nullspace,
    substitute,
)
from .mould import (
    ConstantMould,
    Mould,
    _check_mould,
    coll,
    pus_sum,
    swap,
    u_component,
)
from .ncword import lyndon_basis, lyndon_combination


class AlternilityCertificate:
    """Witness that N + C is alternil for the recorded constant mould C."""

    __slots__ = ("constant",)

    def __init__(self, constant):
        self.constant = constant

    def __repr__(self):
        return "AlternilityCertificate(constant=%r)" % (self.constant,)


# ---------------------------------------------------------------------------
# alternality and alternility
#
# The (p,q) alternility sum is Ecalle's quasi-shuffle of x_1..x_p with
# x_{p+1}..x_{p+q}, contraction coefficients 1/(y_u - y_v), evaluated on N.
# With the coefficients specialized at y_i = x_i it is computed by a
# divided-difference recursion:
# interleave the two blocks letter by letter, and each contraction of a pair
# (x_u, x_v) contributes the divided difference of the two single-letter
# continuations.  x_v occurs in neither block of the continuation that
# contracts to x_u, so the other one is it with x_u renamed x_v, and the
# contraction is the divided_difference of the first alone: three recursive
# calls per step, and nothing is divided.  The (p,q) alternality sum, the
# plain shuffle, is the same recursion without the contraction branch.

def _shuffle_eval(mo, omega, eta, rho, nvars, contract):
    if not omega or not eta:
        args = rho + omega + eta
        return embed_vars(mo.component(len(args)), list(args), nvars)
    u, v = omega[0], eta[0]
    a = _shuffle_eval(mo, omega[1:], eta, rho + (u,), nvars, contract)
    b = _shuffle_eval(mo, omega, eta[1:], rho + (v,), nvars, contract)
    if not contract:
        return a + b
    cu = _shuffle_eval(mo, omega[1:], eta[1:], rho + (u,), nvars, contract)
    return a + b + divided_difference(cu, u, v)


def alternality_defect(mo, p, q):
    """The (p,q) shuffle sum of the depth p+q component, as a polynomial."""
    _check_mould(mo, "alternality_defect")
    m = p + q
    if mo.component(m).is_zero():
        return MultiPoly.zero(m)
    return _shuffle_eval(mo, tuple(range(p)), tuple(range(p, m)), (), m, False)


def alternal_witness(mo):
    """None when M is alternal, else {"m0": c} for M^0 = c != 0 (a Fraction)
    or {"p", "q", "defect"} for the first nonzero (p,q) shuffle sum by p+q,
    then p.  The (q,p) sum is the (p,q) sum with its variables relabelled,
    so only p <= q is walked: the first failure over all splits has p <= q
    anyway."""
    _check_mould(mo, "alternal_witness")
    if not mo.components[0].is_zero():
        return {"m0": mo.components[0].coefficient(())}
    for m in range(2, mo.depth + 1):
        if mo.components[m].is_zero():
            continue
        for p in range(1, m // 2 + 1):
            defect = alternality_defect(mo, p, m - p)
            if not defect.is_zero():
                return {"p": p, "q": m - p, "defect": defect}
    return None


def alternility_defect(mo, p, q):
    """The (p,q) quasi-shuffle sum of N, poles collected, as a polynomial."""
    _check_mould(mo, "alternility_defect")
    n = p + q
    return _shuffle_eval(mo, tuple(range(p)), tuple(range(p, n)), (), n, True)


def alternil_up_to_constant(mo):
    """Solve for a constant mould C with N + C alternil.

    Adding a constant C_m to depth m contributes binom(m, p) * C_m to each
    (p,q) sum with p + q = m (its contraction terms cancel pairwise), so the
    system decouples per depth: the defect must be constant and the constants
    must agree across the splits of m.  Only the splits p <= q are summed:
    the (q, p) sum is the (p, q) sum with its two blocks of variables
    swapped.  Returns an AlternilityCertificate or NoSolution carrying the
    irreducible (p, q, defect) witnesses, or the reason alone when M^0 is
    nonzero."""
    _check_mould(mo, "alternil_up_to_constant")
    if not mo.components[0].is_zero():
        return NoSolution("alternility needs a vanishing constant term")
    consts = [Fraction(0), Fraction(0)]
    residual = []
    for m in range(2, mo.depth + 1):
        half = {p: alternility_defect(mo, p, m - p) for p in range(1, m // 2 + 1)}
        c_m = -half[1].coefficient((0,) * m) / m
        for p in range(1, m):
            q = m - p
            if p <= q:
                d = half[p]
            else:
                d = embed_vars(half[q], list(range(p, m)) + list(range(p)), m)
            leftover = d + MultiPoly.const(m, comb(m, p) * c_m)
            if not leftover.is_zero():
                residual.append((p, q, leftover))
        consts.append(c_m)
    if residual:
        return NoSolution(
            "alternility defects not absorbable by a constant mould",
            defects=residual,
        )
    return AlternilityCertificate(ConstantMould(consts))


# ---------------------------------------------------------------------------
# the senary relation
#
# Normative form: both sides written out as divided differences.
#   lhs  = M^r(y) + (1/y_r){M^{r-1}(y_1..y_{r-2}, y_{r-1}+y_r)
#                           - M^{r-1}(y_1..y_{r-1})}
#   rhs  = M^r(-y_1-..-y_r, y_1,..,y_{r-1})
#          + (1/(y_1+..+y_r)){M^{r-1}(-y_2-..-y_r, y_2,..,y_{r-1})
#                             - M^{r-1}(y_1,..,y_{r-1})}
# with the r = 1 instances collapsing to M^1(y_1) resp. M^1(-y_1).  Each
# bracket is the divided_difference of M^{r-1}, embedded in r variables, in
# the slot that changes and the fresh slot r, with both arguments then put
# in place by one substitute; nothing is divided.  The rhs's two arguments
# differ by -(y_1+..+y_r), so its correction is subtracted.  Neither side
# calls teru, push or mantar: teru = push o mantar o teru o mantar stays an
# independent check of both.

def _check_r(r, name):
    if r < 1:
        raise ValueError("%s needs r >= 1, got %r" % (name, r))


def senary_lhs(mo, r):
    _check_mould(mo, "senary_lhs")
    _check_r(r, "senary_lhs")
    if r == 1:
        return mo.component(1)
    prev = embed_vars(mo.component(r - 1), list(range(r - 1)), r)
    # slot r-1 -> y_{r-1}+y_r, slot r -> y_{r-1}
    forms = [tuple(int(k == j) for k in range(r)) for j in range(r - 2)]
    forms += [tuple(int(k >= r - 2) for k in range(r)),
              tuple(int(k == r - 2) for k in range(r))]
    corr = substitute(divided_difference(prev, r - 2, r - 1), forms, r)
    return mo.component(r) + corr


def senary_rhs(mo, r):
    _check_mould(mo, "senary_rhs")
    _check_r(r, "senary_rhs")
    if r == 1:
        return substitute(mo.component(1), [(-1,)], 1)
    forms = [(-1,) * r] + [tuple(int(k == j) for k in range(r)) for j in range(r - 1)]
    main = substitute(mo.component(r), forms, r)
    prev = embed_vars(mo.component(r - 1), list(range(r - 1)), r)
    # slot 1 -> -(y_2+..+y_r), slot r -> y_1, the others fixed
    pforms = [(0,) + (-1,) * (r - 1)]
    pforms += [tuple(int(k == j) for k in range(r)) for j in range(1, r - 1)]
    pforms.append(tuple(int(k == 0) for k in range(r)))
    corr = substitute(divided_difference(prev, 0, r - 1), pforms, r)
    return main - corr


def senary_defect(mo, r):
    """teru(M)^r minus the push o mantar o teru o mantar side, expanded."""
    return senary_lhs(mo, r) - senary_rhs(mo, r)


def senary_holds(mo, r):
    _check_mould(mo, "senary_holds")
    _check_r(r, "senary_holds")
    return senary_defect(mo, r).is_zero()


def senary_eq41_holds(mo, r):
    """The collision-map formulation at depth r + 1:

        u(M)^{r+1} + coll_{2,3} u(M)^{r+1}
            = u(M)^{r+1}(x_2,..,x_{r+1},x_1) + coll_{1,2} u(M)^{r+1}

    For r = 1 the collision slots degenerate (there is no x_3, and the
    corrections carry no depth-0 content), leaving the bare rotation
    identity u(M)^2(x_1,x_2) = u(M)^2(x_2,x_1).

    Only u(M)^{r+1} and, for the collision maps, u(M)^r are built."""
    _check_mould(mo, "senary_eq41_holds")
    _check_r(r, "senary_eq41_holds")
    n = r + 1
    comp = u_component(mo, n)
    rotated = embed_vars(comp, [(j + 1) % n for j in range(n)], n)
    if r == 1:
        return comp == rotated
    um = Mould.from_components(r, {r: u_component(mo, r)})
    return comp + coll(um, n, 2) == rotated + coll(um, n, 1)


# ---------------------------------------------------------------------------
# graded solution spaces at fixed weight
#
# The unknowns are Lie coordinates.  ma maps L_w, the weight-w part of the
# free Lie algebra on x, y, one to one onto the alternal polynomial moulds of
# weight w for every w >= 2 (Schneps, "ARI, GARI, Zig and Zag",
# arXiv:1507.01534), so the images of the Lyndon brackets of weight w are a
# basis of that space: Witt(w) columns instead of the 2^(w-1) monomial moulds
# of weight w, and no alternality rows.  At w = 1, ma(x) = 0, so w >= 2.
# Before it solves, _lie_columns certifies the two facts it relies on at the
# weight in hand: every column is alternal, and the columns are independent
# (one null space over their components, depth by depth, is empty).  The
# certified columns are kept, one tuple per weight, so both graded spaces of
# a weight share one certificate.  After that each solver imposes only the
# conditions on the swap side.

def _lie_columns(w, name):
    """The ma images of lyndon_basis(w, XY), certified alternal and
    independent; callers only read the shared tuple."""
    if not isinstance(w, int) or w < 2:
        raise ValueError("%s needs a weight w >= 2, got %r" % (name, w))
    return _certified_lie_columns(w)


@lru_cache(maxsize=16)
def _certified_lie_columns(w):
    basis = tuple(ma(b) for b in lyndon_basis(w, XY))
    for j, b in enumerate(basis):
        if alternal_witness(b) is not None:
            raise ArithmeticError("Lie column %d of weight %d is not alternal" % (j, w))
    depths = [[b.component(m).terms for b in basis] for m in range(1, w + 1)]
    if nullspace(RatMatrix(len(basis), *depths)):
        raise ArithmeticError("the Lie columns of weight %d are dependent" % w)
    return basis


def _nullspace_moulds(w, blocks, ncols):
    """ma of the Lie element whose Lyndon coordinates lead each null vector;
    ma is linear, so this is that combination of the Lie columns."""
    n = len(lyndon_basis(w, XY))
    return [ma(lyndon_combination(v[:n], w, XY))
            for v in nullspace(RatMatrix(ncols, *blocks))]


def ari_alil_space(w):
    """Basis of the weight-w moulds that are alternal with swap alternil up
    to a constant mould.  The unknown constants C_2..C_w ride along as extra
    columns of the joint linear system and are projected away at the end
    (the projection is injective: M = 0 forces every C_m = 0).  Only the
    splits p <= q are imposed: the (q, p) rows are the (p, q) rows with the
    variables relabelled, and binom(m, q) = binom(m, p)."""
    basis = _lie_columns(w, "ari_alil_space")
    nconst = w - 1
    swaps = [swap(b) for b in basis]
    blocks = []
    for m in range(2, w + 1):
        for p in range(1, m // 2 + 1):
            # C_m adds binom(m, p) to the constant term of the (p, q) sum
            consts = [{}] * nconst
            consts[m - 2] = {(0,) * m: comb(m, p)}
            il = [alternility_defect(s, p, m - p).terms for s in swaps]
            blocks.append(il + consts)
    return _nullspace_moulds(w, blocks, len(basis) + nconst)


def ari_sena_pusnu_space(w):
    """Basis of the weight-w moulds that are alternal, satisfy the senary
    relation for every r, and have pus-neutral swap.  Pus-neutrality at
    depth 1 forces M^1 = 0, so this space sits inside Fil^2 automatically."""
    basis = _lie_columns(w, "ari_sena_pusnu_space")
    swaps = [swap(b) for b in basis]
    blocks = [[senary_defect(b, r).terms for b in basis] for r in range(1, w + 1)]
    blocks += [[pus_sum(s, m).terms for s in swaps] for m in range(1, w + 1)]
    return _nullspace_moulds(w, blocks, len(basis))
