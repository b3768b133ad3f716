# Pins and properties for the Lie-algebra membership layer: KV1/KV2, the
# y-alphabet regularization, the coproduct primitivity test, and the graded
# dmr/krv basis solvers.

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldkit import kernel, liealg
from mouldkit.bridge import ftilde_to_F
from mouldkit.kernel import NoSolution, RatMatrix, nullspace
from mouldkit.liealg import (
    WEIGHT_BOUND,
    SubspaceBasis,
    WeightBoundError,
    WeightTooSmall,
    delta_star,
    dmr_basis,
    dmr_witness,
    fil2_dimension,
    kv2_check,
    krv_basis,
    krv_witness,
    primitivity_defect,
    solve_G,
    star_regularize,
)
from mouldkit.ncword import (
    NCPoly,
    coefficient,
    decompose_right,
    lie_bracket,
    lyndon_basis,
    lyndon_words,
    trace,
)
from mouldkit.symmetry import ari_alil_space
from test_delta_star import reference_pi_Y as pi_Y

XY = ("x", "y")
X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")
P1 = lie_bracket(X, lie_bracket(X, Y))
P2 = lie_bracket(Y, lie_bracket(X, Y))


def word(*syms):
    return NCPoly.from_word(XY, syms)


def rationals():
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )


def lie_elements(w):
    basis = lyndon_basis(w, XY)
    return st.lists(
        rationals(), min_size=len(basis), max_size=len(basis)
    ).map(
        lambda cs: sum((c * b for c, b in zip(cs, basis)), NCPoly.zero(XY))
    )


# --- solve_G -------------------------------------------------------------

def test_solve_g_zero():
    assert solve_G(NCPoly.zero(XY), 2) == NCPoly.zero(XY)
    assert solve_G(NCPoly.zero(XY), 5) == NCPoly.zero(XY)


def test_solve_g_weight_too_small():
    with pytest.raises(WeightTooSmall):
        solve_G(X, 1)
    with pytest.raises(WeightTooSmall):
        solve_G(NCPoly.zero(XY), 0)


def test_solve_g_weight2_inconsistent():
    # the only Lie candidates at weight 2 are multiples of [x,y], and
    # [y,[x,y]] is not in the image of ad(x); consistent with krv_2 = {0}
    got = solve_G(lie_bracket(X, Y), 2)
    assert isinstance(got, NoSolution), got


@pytest.mark.parametrize("a", [Fraction(1), Fraction(7, 3), Fraction(-2)])
def test_solve_g_weight3_pin(a):
    G = solve_G(a * P1, 3)
    assert G == -a * P2, G
    # direct KV1 check
    assert (lie_bracket(X, G) + lie_bracket(Y, a * P1)).is_zero()


@pytest.mark.parametrize("b", [Fraction(1), Fraction(-1, 2)])
def test_solve_g_weight3_mixed_fails(b):
    got = solve_G(P1 + b * P2, 3)
    assert isinstance(got, NoSolution), got


@settings(deadline=None, max_examples=30)
@given(st.integers(3, 5).flatmap(lambda w: st.tuples(st.just(w), lie_elements(w))))
def test_solve_g_satisfies_kv1_when_it_succeeds(wf):
    w, F = wf
    G = solve_G(F, w)
    if not isinstance(G, NoSolution):
        assert (lie_bracket(X, G) + lie_bracket(Y, F)).is_zero()


# -- solve_G against the linear solve it replaced ---------------------------

def _solve_in_span(columns, target):
    """Coefficients c with sum c_j columns_j = target, or NoSolution.

    The kernel of [columns | target] in RREF-kernel form: only its last
    vector, of free column n, can be nonzero on the target column, so the
    target is in the span iff that entry is nonzero, and then -v[:n] / v[n]
    is the solution with free variables 0."""
    n = len(columns)
    basis = nullspace(RatMatrix(n + 1, [p.terms for p in columns] + [target.terms]))
    if not basis or not basis[-1][n]:
        return NoSolution("inconsistent linear system")
    v = basis[-1]
    return [-c / v[n] for c in v[:n]]


def reference_solve_G(F, w):
    """The unique Lie G of weight w with [x,G] + [y,F] = 0, or NoSolution,
    by an exact linear solve over the Lyndon coordinates of L_w."""
    x = NCPoly.letter(XY, "x")
    y = NCPoly.letter(XY, "y")
    target = -lie_bracket(y, F)
    basis = lyndon_basis(w, XY)
    columns = [lie_bracket(x, b) for b in basis]
    coeffs = _solve_in_span(columns, target)
    if isinstance(coeffs, NoSolution):
        return coeffs
    G = NCPoly.zero(XY)
    for c, b in zip(coeffs, basis):
        if c:
            G = G + c * b
    return G


def _agrees_with_reference(F, w):
    got, want = solve_G(F, w), reference_solve_G(F, w)
    if isinstance(want, NoSolution):
        assert isinstance(got, NoSolution), (F, got)
        assert got.reason == want.reason
    else:
        assert got == want, F
    return not isinstance(want, NoSolution)


@st.composite
def kv1_inputs(draw):
    """(w, F) with F a krv element (KV1 solvable) plus, or not, a sparse Lie
    element, and sometimes plus non-Lie words (y^w among them, which ad(y)
    kills)."""
    w = draw(st.integers(2, 8))
    coeff = st.one_of(st.just(Fraction(0)), rationals())
    F = NCPoly.zero(XY)
    if draw(st.booleans()):
        for b in lyndon_basis(w, XY):
            F = F + draw(coeff) * b
    for e in krv_basis(w).elements():
        F = F + draw(coeff) * e
    words = st.lists(st.sampled_from("xy"), min_size=w, max_size=w).map(tuple)
    for wd in draw(st.lists(st.one_of(st.just(("y",) * w), words), max_size=2)):
        F = F + draw(rationals()) * NCPoly.from_word(XY, wd)
    return w, F


@settings(deadline=None, max_examples=120)
@given(kv1_inputs())
def test_solve_g_matches_linear_solve(wf):
    w, F = wf
    _agrees_with_reference(F, w)


def test_solve_g_matches_linear_solve_on_krv_and_dmr():
    solvable = 0
    for w in range(3, 10):
        bump = lyndon_basis(w, XY)[-1]
        for F in krv_basis(w).elements() + [
            ftilde_to_F(f) for f in dmr_basis(w).elements()
        ]:
            solvable += _agrees_with_reference(F, w)
            _agrees_with_reference(F + bump, w)
            _agrees_with_reference(F + NCPoly.from_word(XY, ("x",) * (w - 1) + ("y",)), w)
    assert solvable == 2 * sum(krv_basis(w).dimension for w in range(3, 10))


def test_solve_g_rejects_bad_input():
    with pytest.raises(TypeError):
        solve_G(P1.terms, 3)
    with pytest.raises(ValueError):
        solve_G(P1, 4)  # P1 has weight 3
    with pytest.raises(ValueError):
        solve_G(P1 + lie_bracket(X, Y), 3)  # mixed weights


def test_kv2_check_rejects_bad_input():
    with pytest.raises(TypeError):
        kv2_check(P1, None, 3)
    with pytest.raises(TypeError):
        kv2_check("P1", -1 * P2, 3)
    with pytest.raises(ValueError):
        kv2_check(NCPoly.zero(XY), NCPoly.zero(XY), 1)
    with pytest.raises(ValueError):
        kv2_check(P1, -1 * P2, 4)
    with pytest.raises(ValueError):
        kv2_check(P1, lie_bracket(X, Y), 3)


def test_kv_input_checks_survive_optimize():
    # a wrong-weight F must not come back as NoSolution, which reads as a
    # mathematical failure, once python -O strips asserts
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from mouldkit.liealg import kv2_check, solve_G\n"
        "from mouldkit.ncword import NCPoly, lie_bracket\n"
        "XY = ('x', 'y')\n"
        "X, Y = NCPoly.letter(XY, 'x'), NCPoly.letter(XY, 'y')\n"
        "P1 = lie_bracket(X, lie_bracket(X, Y))\n"
        "checks = [(TypeError, lambda: solve_G(P1.terms, 3)),\n"
        "          (ValueError, lambda: solve_G(P1, 4)),\n"
        "          (TypeError, lambda: kv2_check(P1, None, 3)),\n"
        "          (ValueError, lambda: kv2_check(P1, P1, 1)),\n"
        "          (ValueError, lambda: kv2_check(P1, P1, 4))]\n"
        "for exc, check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except exc:\n"
        "        print('rejected')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "rejected\n" * 5


# --- kv2_check -----------------------------------------------------------

def test_trace_target_weight2_pin():
    t = trace((X + Y) ** 2 - X ** 2 - Y ** 2)
    assert t.terms == {("x", "y"): Fraction(2)}, t.terms


def test_kv2_target_is_nonzero_with_positive_coefficients():
    # kv2_check divides by a coefficient of the target with no zero check:
    # the target counts the words with both letters in each cyclic class
    for w in range(2, WEIGHT_BOUND + 1):
        t = liealg._kv2_target(w)
        assert t.terms and all(c > 0 for c in t.terms.values()), w


def test_kv2_zero():
    alpha = kv2_check(NCPoly.zero(XY), NCPoly.zero(XY), 2)
    assert alpha == 0, alpha


@pytest.mark.parametrize("a", [Fraction(1), Fraction(5), Fraction(-2, 7)])
def test_kv2_weight3_pin(a):
    alpha = kv2_check(a * P1, -a * P2, 3)
    assert alpha == a / 3, alpha


def test_kv2_not_proportional():
    got = kv2_check(P2, NCPoly.zero(XY), 3)
    assert isinstance(got, NoSolution), got


def _kv2_reference(F, G, w):
    """kv2_check through the last-letter decomposition and NCPoly products:
    alpha, or None when the traces are not proportional."""
    lhs = trace(decompose_right(G)[0] * X + decompose_right(F)[1] * Y)
    rhs = trace((X + Y) ** w - X ** w - Y ** w)
    key = min(rhs.terms)
    alpha = lhs.terms.get(key, Fraction(0)) / rhs.terms[key]
    return alpha if lhs == alpha * rhs else None


def homogeneous(w):
    words = st.lists(st.sampled_from("xy"), min_size=w, max_size=w).map(tuple)
    return st.dictionaries(words, rationals(), max_size=6).map(lambda d: NCPoly(XY, d))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 7).flatmap(
    lambda w: st.tuples(st.just(w), lie_elements(w), homogeneous(w), st.booleans())))
def test_kv2_check_matches_the_decomposition_form(case):
    w, F, G, solve = case
    if solve and not isinstance(solve_G(F, w), NoSolution):
        G = solve_G(F, w)
    got = kv2_check(F, G, w)
    want = _kv2_reference(F, G, w)
    assert (None if isinstance(got, NoSolution) else got) == want


@pytest.mark.parametrize("w", [3, 5, 7, 8])
def test_kv2_check_matches_the_decomposition_form_on_krv(w):
    for F in krv_basis(w).elements():
        G = solve_G(F, w)
        alpha = kv2_check(F, G, w)
        assert not isinstance(alpha, NoSolution) and alpha == _kv2_reference(F, G, w)


# --- krv membership ------------------------------------------------------

def test_is_krv_pins():
    assert krv_witness(NCPoly.zero(XY), 2) is None
    assert krv_witness(lie_bracket(X, Y), 2) is not None
    assert krv_witness(P1, 3) is None
    assert krv_witness(P2, 3) is not None
    assert krv_witness(P1 + P2, 3) is not None
    assert krv_witness(word("x", "y"), 2) is not None           # not Lie
    assert krv_witness(P1 + lie_bracket(X, Y), 3) is not None   # not homogeneous


def test_krv_basis_weight2_empty():
    b = krv_basis(2)
    assert b.dimension == 0
    assert b.vectors == []
    assert b.elements() == []


def test_krv_basis_weight3():
    b = krv_basis(3)
    assert b.dimension == 1
    (e,) = b.elements()
    assert e == P1, e
    G = solve_G(e, 3)
    assert kv2_check(e, G, 3) == Fraction(1, 3)


def test_krv_dims_regression():
    dims = [krv_basis(w).dimension for w in range(2, 9)]
    assert dims == [0, 1, 0, 1, 0, 1, 1], dims


def test_krv_members_and_complement():
    for w in (3, 5):
        b = krv_basis(w)
        assert b.dimension == 1
        (e,) = b.elements()
        assert krv_witness(e, w) is None
        # perturbing by a Lyndon bracket outside the span must fail
        for extra in lyndon_basis(w, XY):
            cand = e + extra
            if krv_witness(cand, w) is not None:
                break
        else:
            raise AssertionError("no complement witness at w=%d" % w)


# --- pi_Y and star regularization ----------------------------------------
#
# pi_Y, the projection to y-words that star_regularize folds into its one
# pass, is the test-side reference of test_delta_star; its pins stay here.

def test_pi_y_pins():
    assert pi_Y(word("x", "y")).terms == {("y2",): Fraction(-1)}
    assert pi_Y(word("y", "x")).is_zero()
    assert pi_Y(word("y", "y")).terms == {("y1", "y1"): Fraction(1)}


def test_pi_y_longer_word():
    # x x y x y has runs (2, 1): two y-letters, sign (+1)
    got = pi_Y(word("x", "x", "y", "x", "y"))
    assert got.terms == {("y3", "y2"): Fraction(1)}, got.terms
    assert got.alphabet == ("y1", "y2", "y3", "y4", "y5")


def test_pi_y_linear_and_degenerate():
    p = 2 * word("x", "y") - 3 * word("y", "y")
    got = pi_Y(p)
    assert got.terms == {
        ("y2",): Fraction(-2),
        ("y1", "y1"): Fraction(-3),
    }
    assert pi_Y(NCPoly.one(XY)).terms == {(): Fraction(1)}
    assert pi_Y(NCPoly.zero(XY)).is_zero()


def test_star_regularize_pins():
    # the regularization of f(x, -y): x y -> -x y -> -y2 + 1/2 y1 y1 before
    # the flip is undone, so f's own sign on y2 and -1/2 on y1 y1
    got = star_regularize(word("x", "y"))
    assert got.terms == {
        (2,): Fraction(1),
        (1, 1): Fraction(-1, 2),
    }, got.terms
    assert got.alphabet == (1, 2)
    assert star_regularize(word("y", "x")).is_zero()
    assert star_regularize(word("y")).terms == {(1,): Fraction(2)}
    assert star_regularize(word("x")).is_zero()
    # the word x x y x y keeps its coefficient on the composition (3, 2)
    assert star_regularize(-7 * word("x", "x", "y", "x", "y")).terms == {(3, 2): -7}
    assert star_regularize(NCPoly.one(XY)).terms == {(): Fraction(1)}
    assert star_regularize(NCPoly.zero(XY)).alphabet == (1,)


# --- delta_star and primitivity ------------------------------------------

def yw(*parts):
    return NCPoly.from_word((1, 2, 3), parts)


def test_delta_star_generator():
    got = delta_star(yw(2))
    assert got == {
        ((2,), ()): Fraction(1),
        ((1,), (1,)): Fraction(1),
        ((), (2,)): Fraction(1),
    }, got


def test_delta_star_unit_and_product():
    assert delta_star(yw()) == {((), ()): Fraction(1)}
    got = delta_star(yw(1, 1))
    assert got == {
        ((1, 1), ()): Fraction(1),
        ((1,), (1,)): Fraction(2),
        ((), (1, 1)): Fraction(1),
    }, got


def test_primitivity_defect():
    assert primitivity_defect(yw(1)) == {}
    assert primitivity_defect(yw(2)) == {((1,), (1,)): Fraction(1)}


def test_dmr3_certificate_defects():
    assert primitivity_defect(star_regularize(P1 - P2)) == {}
    assert primitivity_defect(star_regularize(P1 + P2)) != {}


# --- dmr membership and dmr_basis -----------------------------------------

def test_is_dmr_pins():
    assert dmr_witness(NCPoly.zero(XY), 3) is None
    assert dmr_witness(lie_bracket(X, Y), 2) is not None    # c_xy = 1
    assert dmr_witness(P1 - P2, 3) is None
    assert dmr_witness(Fraction(5, 3) * (P1 - P2), 3) is None
    assert dmr_witness(P1 + P2, 3) is not None
    assert dmr_witness(P1, 3) is not None                   # c_xy(P1) = 1
    assert dmr_witness(word("y", "y"), 2) is not None       # not Lie
    assert dmr_witness(P1 - P2 + lie_bracket(X, Y), 3) is not None


def test_dmr_basis_weight3():
    b = dmr_basis(3)
    assert b.dimension == 1
    assert b.ambient == (("x", "x", "y"), ("x", "y", "y"))
    assert b.vectors == [(Fraction(1), Fraction(1))]
    (e,) = b.elements()
    assert e == P1 - P2, e
    # depth-1 words agree with the ad(x)^2(y) bracketing
    depth1 = {wd: c for wd, c in e.terms.items() if wd.count("y") == 1}
    assert depth1 == dict(P1.terms), depth1


def test_dmr_dims_regression():
    dims = [dmr_basis(w).dimension for w in range(3, 9)]
    assert dims == [1, 0, 1, 0, 1, 1], dims


def test_dmr_members_and_complement():
    for w in (5, 7):
        b = dmr_basis(w)
        assert b.dimension == 1
        (e,) = b.elements()
        assert dmr_witness(e, w) is None
        for extra in lyndon_basis(w, XY):
            if dmr_witness(e + extra, w) is not None:
                break
        else:
            raise AssertionError("no complement witness at w=%d" % w)


def full_row_dmr_basis(w):
    """The dmr solve on every row of the primitivity defect, next to c_xy."""
    brackets = lyndon_basis(w, XY)
    c_xy = [{("x", "y"): coefficient(b, ("x", "y"))} for b in brackets]
    defects = [primitivity_defect(star_regularize(b)) for b in brackets]
    vectors = nullspace(RatMatrix(len(brackets), c_xy, defects))
    return SubspaceBasis(w, lyndon_words(w, XY), vectors)


def test_dmr_basis_is_the_full_row_solve(monkeypatch):
    # the one-letter-left rows are certified at once: one kernel per solve
    calls = []
    real = kernel._kernel

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernel, "_kernel", counting)
    for w in range(2, 11):
        calls.clear()
        got = dmr_basis(w)
        assert len(calls) == 1, w
        assert got.vectors == full_row_dmr_basis(w).vectors, w


# sha256 of json.dumps([[str(c) for c in v] for v in basis.vectors]),
# recorded from the Fraction-RREF solvers; the modular path must match them
BASIS_DIGESTS = {
    ("dmr", 9): "6afb1f9322b606ee47c658c97fa60b7dd9aef6fb10b5ff54e727af3a05b61567",
    ("krv", 9): "dde55fa20528c55c823da1dc50951e38fb7420684ad9259f372715dd3771b9ac",
    ("dmr", 10): "38dd5352644b34d8b9090834c1173a9e3f52ba8ca48e5307e4b64dbea132ee3b",
    ("krv", 10): "d8c1ecdb995f12af43d99c8b9dc02c205a38d5cd73e77e6dd7fbd2e10089707a",
}


@pytest.mark.parametrize("name, w", sorted(BASIS_DIGESTS))
def test_basis_digest_pins(name, w):
    basis = {"dmr": dmr_basis, "krv": krv_basis}[name](w)
    text = json.dumps([[str(c) for c in v] for v in basis.vectors])
    assert hashlib.sha256(text.encode()).hexdigest() == BASIS_DIGESTS[name, w]


def test_dmr_krv_dims_match_weight3():
    assert dmr_basis(3).dimension == krv_basis(3).dimension == 1


def test_weight_bound_errors():
    with pytest.raises(WeightBoundError):
        dmr_basis(1)
    with pytest.raises(WeightBoundError):
        krv_basis(0)
    with pytest.raises(WeightBoundError):
        dmr_basis(13)


def test_subspace_basis_container():
    b = SubspaceBasis(3, (("x", "x", "y"), ("x", "y", "y")), [(1, 0)])
    assert b.dimension == 1
    assert b.vectors == [(Fraction(1), Fraction(0))]
    assert b.elements() == [P1]
    assert b == SubspaceBasis(3, b.ambient, b.vectors)
    assert b != dmr_basis(3)


def test_subspace_basis_rejects_vector_of_wrong_length():
    ambient = (("x", "x", "y"), ("x", "y", "y"))
    with pytest.raises(ValueError, match="length 1 in a 2-word ambient"):
        SubspaceBasis(3, ambient, [(1, 0), (1,)])
    with pytest.raises(ValueError):
        SubspaceBasis(3, ambient, [(1, 0, 0)])


def test_subspace_basis_rejects_vector_of_wrong_length_under_optimize():
    # the check must not be an assert, which python -O strips
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from mouldkit.liealg import SubspaceBasis\n"
        "try:\n"
        "    SubspaceBasis(3, [('x', 'x', 'y'), ('x', 'y', 'y')], [(1,)])\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "rejected\n"


# --- fil2_dimension and the filtered cross-check ---------------------------

def test_fil2_dimension_pins():
    assert fil2_dimension([]) == 0
    assert fil2_dimension([P1]) == 0       # has depth-1 words
    assert fil2_dimension([P2]) == 1       # none at all
    assert fil2_dimension([P1, P2]) == 1
    assert fil2_dimension(dmr_basis(3).elements()) == 0


def test_fil2_dmr_matches_mould_side():
    # depth-filtered cross-check: the depth >= 2 part of dmr_w has the same
    # dimension as the alternal + swap-alternil-up-to-constant moulds with
    # vanishing depth-1 component
    for w in range(3, 7):
        lhs = fil2_dimension(dmr_basis(w).elements())
        sols = ari_alil_space(w)
        depth1 = [s.component(1).terms for s in sols]
        rhs = len(nullspace(RatMatrix(len(sols), depth1)))
        assert lhs == rhs == 0, (w, lhs, rhs)
