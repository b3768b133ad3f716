import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mouldkit.mould
import mouldkit.symmetry
from mouldkit import cli
from mouldkit.kernel import MultiPoly, NoSolution, RatMatrix, nullspace
from mouldkit.mould import (
    ConstantMould,
    Mould,
    mantar,
    pus_sum,
    push,
    pusnu_witness,
    swap,
    teru,
)
from mouldkit.symmetry import (
    AlternilityCertificate,
    alternal_witness,
    alternality_defect,
    alternil_up_to_constant,
    alternility_defect,
    ari_alil_space,
    ari_sena_pusnu_space,
    senary_defect,
    senary_eq41_holds,
    senary_holds,
)


def v(m, i):
    return MultiPoly.var(m, i - 1)


def Mo(depth, comps):
    return Mould.from_components(depth, comps)


def dmr3_mould(a=1):
    """The weight-3 mould (0, a*u1^2, -a*(u1 - u2), 0): the ma image of the
    one-dimensional double-shuffle component at weight 3."""
    return Mo(3, {1: {(2,): a}, 2: {(1, 0): -a, (0, 1): a}})


def witness3_mould():
    """Same depth-1 part with the opposite depth-2 sign; fails senary at
    r = 2 and keeps the sign conventions honest."""
    return Mo(3, {1: {(2,): 1}, 2: {(1, 0): 1, (0, 1): -1}})


fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def moulds(draw, max_depth=4, max_deg=4):
    depth = draw(st.integers(min_value=1, max_value=max_depth))
    comps = {}
    for m in range(1, depth + 1):
        exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * m))
        comps[m] = MultiPoly(
            m, draw(st.dictionaries(exps, fractions_st, max_size=3))
        )
    return Mo(depth, comps)


# -- alternality -------------------------------------------------------------


def test_alternal_pins():
    assert alternal_witness(Mo(2, {2: {(1, 0): 1, (0, 1): -1}})) is None
    assert alternal_witness(Mo(2, {2: {(1, 0): 1}})) is not None
    assert alternal_witness(dmr3_mould()) is None
    assert alternal_witness(Mould.zero(3)) is None


def test_alternal_rejects_nonzero_constant_component():
    m = Mould.from_components(2, {0: {(): 1}})
    assert alternal_witness(m) is not None


def test_alternality_defect_11():
    m = Mo(2, {2: {(1, 0): 1}})
    assert alternality_defect(m, 1, 1) == v(2, 1) + v(2, 2)


# -- alternility -------------------------------------------------------------


def test_alternil_zero_mould():
    cert = alternil_up_to_constant(Mould.zero(3))
    assert isinstance(cert, AlternilityCertificate)
    assert cert.constant == ConstantMould([0])


def test_alternil_constant_component_pin():
    # N^2 = 1: the (1,1) sum is 2, absorbed by C_2 = -1
    n = Mo(2, {2: {(0, 0): 1}})
    assert alternility_defect(n, 1, 1) == MultiPoly.const(2, 2)
    cert = alternil_up_to_constant(n)
    assert isinstance(cert, AlternilityCertificate), cert
    assert cert.constant.value(2) == Fraction(-1)


def test_alternil_swap_of_dmr3_certificate():
    n = swap(dmr3_mould())
    assert n.component(2) == v(2, 1) - 2 * v(2, 2)
    cert = alternil_up_to_constant(n)
    assert isinstance(cert, AlternilityCertificate), cert
    assert cert.constant.value(2) == 0
    assert cert.constant.value(3) == Fraction(1, 3)


def test_alternil_scaling_is_linear():
    n = swap(dmr3_mould(a=4))
    cert = alternil_up_to_constant(n)
    assert cert.constant.value(3) == Fraction(4, 3)


def test_alternil_no_solution_carries_defects():
    n = Mo(2, {2: {(1, 0): 1}})
    res = alternil_up_to_constant(n)
    assert isinstance(res, NoSolution), res
    assert len(res.defects) == 1
    p, q, defect = res.defects[0]
    assert (p, q) == (1, 1)
    assert defect == v(2, 1) + v(2, 2)


def test_alternil_nonzero_depth_zero_is_no_solution():
    res = alternil_up_to_constant(Mould.from_components(2, {0: {(): 1}}))
    assert isinstance(res, NoSolution), res
    assert "constant term" in res.reason
    assert res.defects == []


# -- senary ------------------------------------------------------------------


def test_senary_r1_is_evenness():
    assert senary_holds(Mo(1, {1: {(2,): 1}}), 1)
    assert not senary_holds(Mo(1, {1: {(1,): 1}}), 1)
    assert senary_holds(Mo(2, {2: {(1, 1): 1}}), 1)  # Fil^2: M^1 = 0


def test_senary_depth2_counterexample():
    assert not senary_holds(Mo(2, {2: {(1, 0): 1}}), 2)


def test_senary_on_dmr3_mould():
    m = dmr3_mould()
    for r in (1, 2, 3):
        assert senary_holds(m, r), r


def test_senary_flipped_sign_witness_fails_at_r2():
    m = witness3_mould()
    assert senary_holds(m, 1)
    assert not senary_holds(m, 2)


def test_senary_beyond_weight_is_vacuous_on_dmr3():
    m = dmr3_mould()
    for r in (4, 5):
        assert senary_holds(m, r), r


def test_senary_depth_plus_one_has_content():
    # M^1 = u1^2 is even (r = 1 holds) but the r = 2 = depth+1 instance
    # compares 2y1 + y2 with y2 - y1 and fails.
    m = Mo(1, {1: {(2,): 1}})
    assert senary_holds(m, 1)
    assert not senary_holds(m, 2)


def test_senary_matches_operator_composite_on_dmr3():
    m = dmr3_mould()
    lhs = teru(m)
    rhs = push(mantar(teru(mantar(m))))
    for r in (1, 2, 3, 4):
        assert (lhs.component(r) == rhs.component(r)) == senary_holds(m, r)


# -- the collision-map formulation -------------------------------------------


def test_eq41_trivial_pins():
    assert senary_eq41_holds(Mould.zero(3), 1)
    assert senary_eq41_holds(Mould.zero(3), 2)
    assert senary_eq41_holds(Mo(2, {2: {(1, 1): 1}}), 1)  # Fil^2 at r = 1


def test_eq41_depth2_counterexample():
    assert not senary_eq41_holds(Mo(2, {2: {(1, 0): 1}}), 2)


def test_eq41_r1_detects_odd_depth1():
    assert senary_eq41_holds(Mo(1, {1: {(2,): 1}}), 1)
    assert not senary_eq41_holds(Mo(1, {1: {(1,): 1}}), 1)


@settings(max_examples=50, deadline=None)
@given(moulds(max_depth=4, max_deg=4), st.integers(1, 3))
def test_eq41_agrees_with_senary(m, r):
    assert senary_holds(m, r) == senary_eq41_holds(m, r)


@settings(max_examples=30, deadline=None)
@given(moulds(max_depth=3, max_deg=4), st.booleans())
def test_eq41_agrees_with_senary_at_depth_and_beyond(m, beyond):
    r = m.depth + 1 if beyond else m.depth
    assert senary_holds(m, r) == senary_eq41_holds(m, r)


def test_eq41_substitutes_only_what_it_reads(monkeypatch):
    seen = []
    real = mouldkit.mould.substitute

    def recording(p, forms, out_nvars):
        seen.append(out_nvars)
        return real(p, forms, out_nvars)

    monkeypatch.setattr(mouldkit.mould, "substitute", recording)
    m = Mo(4, {1: {(2,): 1}, 2: {(1, 0): 1}, 3: {(1, 0, 0): 1},
               4: {(1, 1, 1, 1): 1}})
    senary_eq41_holds(m, 1)
    assert seen == [2]


# -- membership predicates ---------------------------------------------------
#
# The two ARI memberships, as references built from the witnesses; the
# graded spaces are checked against them.


def in_ari_sena_pusnu(mo):
    """Senary for all r (truncated at depth D + 1: the depth-(D+1) instance
    still has content through the divided differences of M^D, every higher
    one vanishes identically) plus pus-neutrality of swap(M)."""
    return (mo.components[0].is_zero()
            and all(senary_holds(mo, r) for r in range(1, mo.depth + 2))
            and pusnu_witness(swap(mo)) is None)


def in_ari_al_star_il(mo):
    """Alternal, and swap(M) alternil up to a constant-valued mould."""
    return (alternal_witness(mo) is None
            and isinstance(alternil_up_to_constant(swap(mo)), AlternilityCertificate))


def test_in_ari_sena_pusnu_pins():
    assert in_ari_sena_pusnu(Mould.zero(3))
    assert not in_ari_sena_pusnu(Mo(2, {2: {(1, 0): 1}}))
    assert not in_ari_sena_pusnu(Mould.from_components(2, {0: {(): 1}}))


def test_in_ari_sena_pusnu_checks_depth_plus_one():
    # M^2 = u1 u2 (u1 + u2) is push-invariant with pus-neutral swap, so it
    # clears every condition up to r = depth; the r = 3 senary instance is
    # the only obstruction.
    m = Mo(2, {2: {(2, 1): 1, (1, 2): 1}})
    assert pusnu_witness(swap(m)) is None
    assert senary_holds(m, 1) and senary_holds(m, 2)
    assert not senary_holds(m, 3)
    assert not in_ari_sena_pusnu(m)


def test_in_ari_al_star_il_pins():
    assert in_ari_al_star_il(Mould.zero(3))
    assert not in_ari_al_star_il(Mo(2, {2: {(1, 0): 1}}))
    assert in_ari_al_star_il(dmr3_mould())
    assert not in_ari_al_star_il(witness3_mould())


# -- graded spaces -----------------------------------------------------------
#
# The reference solves the same conditions over the monomial moulds of weight
# w (depth r carries the monomials of degree w - r in r variables, 2^(w-1) in
# all) and imposes alternality as rows of its own.


def _monomials(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _monomials(total - first, nvars - 1):
            yield (first,) + rest


def weight_mould_basis(w):
    """Deterministic basis of the weight-w monomial moulds."""
    out = []
    for r in range(1, w + 1):
        for e in sorted(_monomials(w - r, r)):
            out.append(Mould.from_components(w, {r: {e: Fraction(1)}}))
    return out


def _combinations(basis, vectors):
    out = []
    for v in vectors:
        mo = Mould.zero(basis[0].depth)
        for c, b in zip(v, basis):
            if c:
                mo = mo + c * b
        out.append(mo)
    return out


def _alternality_blocks(basis, w, pad=0):
    """One block per (p, q) sum, with pad empty columns after the basis."""
    return [[alternality_defect(b, p, m - p).terms for b in basis] + [{}] * pad
            for m in range(2, w + 1) for p in range(1, m)]


def reference_ari_alil_space(w, fil2=False):
    basis = weight_mould_basis(w)
    if fil2:
        basis = [b for b in basis if b.component(1).is_zero()]
    nconst = w - 1
    swaps = [swap(b) for b in basis]
    blocks = _alternality_blocks(basis, w, nconst)
    for m in range(2, w + 1):
        for p in range(1, m):
            consts = [{}] * nconst
            consts[m - 2] = {(0,) * m: Fraction(comb(m, p))}
            il = [alternility_defect(s, p, m - p).terms for s in swaps]
            blocks.append(il + consts)
    vecs = nullspace(RatMatrix(len(basis) + nconst, *blocks))
    return _combinations(basis, vecs)


def reference_ari_sena_pusnu_space(w):
    basis = weight_mould_basis(w)
    swaps = [swap(b) for b in basis]
    blocks = _alternality_blocks(basis, w)
    blocks += [[senary_defect(b, r).terms for b in basis] for r in range(1, w + 1)]
    blocks += [[pus_sum(s, m).terms for s in swaps] for m in range(1, w + 1)]
    return _combinations(basis, nullspace(RatMatrix(len(basis), *blocks)))


def depth1_vanishing(sols):
    """A basis of the combinations of sols whose depth-1 component vanishes."""
    depth1 = [s.component(1).terms for s in sols]
    return _combinations(sols, nullspace(RatMatrix(len(sols), depth1)))


def _rank(moulds):
    cols = [{(m, e): c for m in range(1, mo.depth + 1)
             for e, c in mo.component(m).terms.items()} for mo in moulds]
    return len(cols) - len(nullspace(RatMatrix(len(cols), cols)))


def test_weight_basis_dimensions():
    for w, expected in [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16), (6, 32)]:
        assert len(weight_mould_basis(w)) == expected, w


def test_weight_basis_is_weight_homogeneous():
    for b in weight_mould_basis(4):
        for m in range(1, b.depth + 1):
            comp = b.component(m)
            if not comp.is_zero():
                assert {sum(e) for e in comp.terms} == {4 - m}


@pytest.mark.parametrize("w", range(2, 9))
def test_graded_spaces_span_the_monomial_reference(w):
    # both sets are bases, so one rank equal to both sizes makes the spans equal
    alil = ari_alil_space(w)
    pairs = {
        "alil": (alil, reference_ari_alil_space(w)),
        "alil fil2": (depth1_vanishing(alil), reference_ari_alil_space(w, fil2=True)),
        "sena pusnu": (ari_sena_pusnu_space(w), reference_ari_sena_pusnu_space(w)),
    }
    for name, (new, ref) in pairs.items():
        assert _rank(new + ref) == len(new) == len(ref), (name, len(new), len(ref))


def test_lie_columns_are_certified_once_per_weight():
    columns = mouldkit.symmetry._lie_columns(4, "ari_alil_space")
    assert mouldkit.symmetry._lie_columns(4, "ari_sena_pusnu_space") is columns
    assert len(columns) == 3
    # the weight check stays in front of the shared columns and names the caller
    for w in (1, 0, "4"):
        with pytest.raises(ValueError, match="ari_sena_pusnu_space needs a weight"):
            ari_sena_pusnu_space(w)


def test_failed_column_certificate_raises(monkeypatch, capsys):
    # a column that is not alternal, then the same Lie column twice; the
    # certified columns are kept per weight, so start from an empty store
    certified = mouldkit.symmetry._certified_lie_columns
    certified.cache_clear()
    monkeypatch.setattr(mouldkit.symmetry, "ma", lambda h: Mo(3, {2: {(1, 0): 1}}))
    with pytest.raises(ArithmeticError, match="not alternal"):
        ari_alil_space(3)
    monkeypatch.undo()
    twice = mouldkit.symmetry.lyndon_basis(3, ("x", "y"))[:1] * 2
    monkeypatch.setattr(mouldkit.symmetry, "lyndon_basis", lambda w, a: twice)
    with pytest.raises(ArithmeticError, match="dependent"):
        ari_sena_pusnu_space(3)
    # an internal error, not a failed check
    assert cli.main(["paper-suite", "--max-weight", "3"]) == 3
    assert "dependent" in capsys.readouterr().err
    # a failed certificate is never kept
    assert certified.cache_info().currsize == 0


def test_ari_alil_space_weight3():
    sols = ari_alil_space(3)
    assert len(sols) == 1
    sol = sols[0]
    # proportional to the dmr image (u1^2, -(u1 - u2), 0)
    c = sol.component(1).coefficient((2,))
    assert c != 0
    assert sol == c * dmr3_mould() or sol == (-c) * dmr3_mould()
    assert in_ari_al_star_il(sol)


def test_ari_sena_pusnu_space_weight3_empty():
    assert ari_sena_pusnu_space(3) == []


def test_ari_spaces_members_pass_predicates():
    for w in (2, 4):
        for sol in ari_alil_space(w):
            assert in_ari_al_star_il(sol), w
        for sol in ari_sena_pusnu_space(w):
            assert in_ari_sena_pusnu(sol), w
            assert alternal_witness(sol) is None, w


# -- operator input checks ---------------------------------------------------

# Every public mould operator refuses a non-Mould with a TypeError that names
# it, also under python -O, which strips assert statements.
OPERATOR_CALLS = {
    "mould_mul": "mould.mould_mul(mo, mould.Mould.zero(1))",
    "swap": "mould.swap(mo)",
    "push": "mould.push(mo)",
    "mantar": "mould.mantar(mo)",
    "teru": "mould.teru(mo)",
    "u_component": "mould.u_component(mo, 2)",
    "coll": "mould.coll(mo, 2, 1)",
    "alternility_defect": "symmetry.alternility_defect(mo, 1, 1)",
    "alternil_up_to_constant": "symmetry.alternil_up_to_constant(mo)",
    "senary_lhs": "symmetry.senary_lhs(mo, 2)",
    "senary_rhs": "symmetry.senary_rhs(mo, 2)",
    "senary_holds": "symmetry.senary_holds(mo, 2)",
    "senary_eq41_holds": "symmetry.senary_eq41_holds(mo, 2)",
    "alternal_witness": "symmetry.alternal_witness(mo)",
    "pusnu_witness": "mould.pusnu_witness(mo)",
}

_RAISED = """
import mouldkit.mould as mould, mouldkit.symmetry as symmetry
for name, call in CALLS.items():
    try:
        eval(call, {"mould": mould, "symmetry": symmetry, "mo": None})
    except Exception as e:
        print(name, type(e).__name__, name in str(e))
    else:
        print(name, "nothing", False)
"""


def _raised_under_optimize(calls):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", "CALLS = %r\n%s" % (calls, _RAISED)],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return dict(line.split(" ", 1) for line in done.stdout.splitlines())


@pytest.fixture(scope="module")
def raised_under_optimize():
    return _raised_under_optimize(OPERATOR_CALLS)


@pytest.mark.parametrize("name", sorted(OPERATOR_CALLS))
def test_operator_rejects_non_mould(name, raised_under_optimize):
    scope = {"mould": mouldkit.mould, "symmetry": mouldkit.symmetry, "mo": None}
    with pytest.raises(TypeError, match=name):
        eval(OPERATOR_CALLS[name], scope)
    assert raised_under_optimize[name] == "TypeError True"


# A negative component index and a senary instance r < 1 are ValueErrors
# that name the function, also under python -O.
BAD_ARGUMENT_CALLS = {
    "component": "mould.Mould.zero(2).component(-1)",
    "senary_lhs": "symmetry.senary_lhs(mould.Mould.zero(2), 0)",
    "senary_rhs": "symmetry.senary_rhs(mould.Mould.zero(2), 0)",
    "senary_holds": "symmetry.senary_holds(mould.Mould.zero(2), 0)",
    "senary_eq41_holds": "symmetry.senary_eq41_holds(mould.Mould.zero(2), -1)",
}


@pytest.fixture(scope="module")
def bad_argument_raised_under_optimize():
    return _raised_under_optimize(BAD_ARGUMENT_CALLS)


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENT_CALLS))
def test_operator_rejects_bad_argument(name, bad_argument_raised_under_optimize):
    scope = {"mould": mouldkit.mould, "symmetry": mouldkit.symmetry, "mo": None}
    with pytest.raises(ValueError, match=name):
        eval(BAD_ARGUMENT_CALLS[name], scope)
    assert bad_argument_raised_under_optimize[name] == "ValueError True"
