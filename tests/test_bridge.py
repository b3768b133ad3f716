# The polynomial-to-mould dictionary: vimo exponent reading, ma prefix
# sums, the F <-> f-tilde change of variables, nu, and the invariants the
# rest of the pipeline leans on (homomorphism, translation invariance,
# parity, depth compatibility).

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldkit.bridge import (
    CoeffTable,
    F_to_ftilde,
    NotLie,
    flip_y,
    ftilde_to_F,
    ma,
    ncsubstitute,
    nu,
    vimo,
)
from mouldkit.kernel import MultiPoly, embed_vars, substitute
from mouldkit.liealg import dmr_basis, is_sder
from mouldkit.mould import Mould, mould_mul
from mouldkit.ncword import (
    NCPoly,
    NotHomogeneous,
    homogeneous_weight,
    lie_bracket,
    lyndon_basis,
)
from mouldkit.symmetry import is_alternal

XY = ("x", "y")
X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")
P1 = lie_bracket(X, lie_bracket(X, Y))
P2 = lie_bracket(Y, lie_bracket(X, Y))


def word(*syms):
    return NCPoly.from_word(XY, syms)


def rationals():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def nc_polys(max_len=5):
    words = st.lists(
        st.sampled_from(["x", "y"]), min_size=0, max_size=max_len
    ).map(tuple)
    return st.dictionaries(words, rationals(), max_size=6).map(
        lambda d: sum(
            (c * NCPoly.from_word(XY, wd) for wd, c in d.items()),
            NCPoly.zero(XY),
        )
    )


def lie_elements(w):
    basis = lyndon_basis(w, XY)
    return st.lists(
        rationals(), min_size=len(basis), max_size=len(basis)
    ).map(
        lambda cs: sum((c * b for c, b in zip(cs, basis)), NCPoly.zero(XY))
    )


# --- vimo ------------------------------------------------------------------

def test_vimo_pins():
    assert vimo(word("y", "x"), 1).terms == {(0, 1): Fraction(1)}
    assert vimo(word("x", "y"), 1).terms == {(1, 0): Fraction(1)}
    assert vimo(word("y", "y"), 2).terms == {(0, 0, 0): Fraction(1)}


def test_vimo_depth_zero_and_empty_depths():
    assert vimo(word("x", "x"), 0).terms == {(2,): Fraction(1)}
    assert vimo(word("x", "x"), 1).is_zero()
    assert vimo(word("x", "x"), 2).is_zero()
    assert vimo(NCPoly.zero(XY), 3) == MultiPoly.zero(4)


def test_vimo_inhomogeneous_raises():
    with pytest.raises(NotHomogeneous):
        vimo(X + word("x", "y"), 1)


def test_vimo_depth_beyond_weight_raises():
    with pytest.raises(ValueError):
        vimo(word("x", "y"), 3)
    with pytest.raises(ValueError):
        vimo(word("x", "y"), -1)
    with pytest.raises(TypeError):
        vimo("xy", 1)


def test_coeff_table():
    t = CoeffTable.from_poly(word("x", "y") + 2 * word("x", "x"))
    assert t.weight == 2
    assert t.depths() == [0, 1]
    assert t.by_depth[0] == {(2,): Fraction(2)}
    assert t.by_depth[1] == {(1, 0): Fraction(1)}
    with pytest.raises(ValueError):
        CoeffTable(2, {1: {(1, 1): Fraction(1)}})  # exponent sum != w - r
    with pytest.raises(ValueError):
        CoeffTable(2, {1: {(1,): Fraction(1)}})  # r + 1 exponents needed


# --- ma ---------------------------------------------------------------------

def test_ma_pins():
    m = ma(word("y", "x"))
    assert m.component(0) == 0
    assert m.component(1).terms == {(1,): Fraction(1)}
    assert m.component(2).is_zero()
    assert ma(word("x", "y")).component(1).is_zero()
    assert ma(word("y", "y")).component(2).terms == {(0, 0): Fraction(1)}


def test_ma_dmr3_connection():
    # the weight-3 double shuffle generator maps onto the mould whose
    # senary behaviour the symmetry tests pin directly
    (e,) = dmr_basis(3).elements()
    expected = Mould.from_components(
        3,
        {
            1: {(2,): Fraction(1)},
            2: {(1, 0): Fraction(-1), (0, 1): Fraction(1)},
        },
    )
    assert ma(e) == expected


def test_ma_linear_and_constant_part():
    assert ma(NCPoly.one(XY)).is_zero()
    assert ma(2 * NCPoly.one(XY) + Y) == ma(Y)
    h1, h2 = word("y"), word("y", "x")
    assert ma(h1 + h2) == ma(h1) + ma(h2)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 5).flatmap(lie_elements))
def test_ma_of_lie_is_alternal(f):
    assert is_alternal(ma(f))


def test_ma_depth_compatibility():
    # every word of P2 has two letters y, so the mould starts at depth 2
    m = ma(P2)
    assert m.component(1).is_zero()
    assert not m.component(2).is_zero()


# --- the homomorphism property ----------------------------------------------

def test_ma_homomorphism_pins():
    h1, h2 = word("y", "x"), word("y")
    assert ma(h1 * h2) == mould_mul(ma(h1), ma(h2))
    # ma(y * [x,y]) has depth-2 component -u2
    m = ma(Y * lie_bracket(X, Y))
    assert m.component(2).terms == {(0, 1): Fraction(-1)}
    assert ma(Y * lie_bracket(X, Y)) == mould_mul(ma(Y), ma(lie_bracket(X, Y)))


def test_ma_homomorphism_counterexamples():
    # the identity needs the right factor inside the subalgebra generated
    # by y and Lie elements of weight >= 2; these sit outside it
    bad = Y * word("y", "x")
    assert ma(bad) != mould_mul(ma(Y), ma(word("y", "x")))
    assert ma(Y * X) != mould_mul(ma(Y), ma(X))
    assert ma(NCPoly.one(XY) * Y) != mould_mul(ma(NCPoly.one(XY)), ma(Y))


def right_factors():
    """Products of y and small Lie elements: the domain on which the
    homomorphism identity is exact."""
    factor = st.one_of(
        st.just(Y),
        st.integers(2, 3).flatmap(lie_elements).filter(
            lambda p: not p.is_zero()
        ),
    )
    return st.lists(factor, min_size=1, max_size=2).map(
        lambda fs: _prod(fs)
    )


def _prod(fs):
    out = NCPoly.one(XY)
    for f in fs:
        out = out * f
    return out


@settings(deadline=None, max_examples=30)
@given(
    st.integers(1, 3).flatmap(
        lambda w: st.dictionaries(
            st.lists(st.sampled_from(["x", "y"]), min_size=w, max_size=w).map(
                tuple
            ),
            rationals(),
            min_size=1,
            max_size=4,
        ).map(
            lambda d: sum(
                (c * NCPoly.from_word(XY, wd) for wd, c in d.items()),
                NCPoly.zero(XY),
            )
        )
    ),
    right_factors(),
)
def test_ma_homomorphism_property(h1, h2):
    assert ma(h1 * h2) == mould_mul(ma(h1), ma(h2))


def test_vimo_convolution():
    # vimo of a product splits over the shared middle variable; this holds
    # with no restriction on the factors and pins the exponent reading
    pairs = [
        (word("x", "y"), word("y", "x")),
        (word("y", "y"), word("x")),
        (P1, P2),
        (word("x", "y", "x") + 2 * word("y", "x", "x"), word("y")),
    ]
    for h1, h2 in pairs:
        w1 = homogeneous_weight(h1)
        w2 = homogeneous_weight(h2)
        prod = h1 * h2
        for r in range(w1 + w2 + 1):
            lhs = vimo(prod, r)
            rhs = MultiPoly.zero(r + 1)
            for k in range(r + 1):
                a = vimo(h1, k) if k <= w1 else MultiPoly.zero(k + 1)
                b = vimo(h2, r - k) if r - k <= w2 else MultiPoly.zero(r - k + 1)
                ea = embed_vars(a, list(range(k + 1)), r + 1)
                eb = embed_vars(b, list(range(k, r + 1)), r + 1)
                rhs = rhs + ea * eb
            assert lhs == rhs, (h1, h2, r)


# --- translation invariance and parity ---------------------------------------

def _translated(p):
    # p(0, z1 - z0, ..., zr - z0) as a polynomial in z0..zr
    n = p.nvars
    forms = [(0,) * n]
    for i in range(1, n):
        row = [0] * n
        row[0] = -1
        row[i] = 1
        forms.append(tuple(row))
    return substitute(p, forms, n)


def _negated(p):
    n = p.nvars
    forms = []
    for i in range(n):
        row = [0] * n
        row[i] = -1
        forms.append(tuple(row))
    return substitute(p, forms, n)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 5).flatmap(lambda w: st.tuples(st.just(w), lie_elements(w))))
def test_vimo_translation_invariance(wf):
    w, f = wf
    for r in range(w + 1):
        p = vimo(f, r)
        assert p == _translated(p), (w, r)


def test_vimo_translation_weight1_edge():
    # f = x is Lie but its depth-0 part is the bare word x, which is not
    # translation invariant; depth >= 1 still is
    p0 = vimo(X, 0)
    assert p0 != _translated(p0)
    p1 = vimo(X, 1)
    assert p1 == _translated(p1)
    q = vimo(Y, 1)
    assert q == _translated(q)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 5).flatmap(lambda w: st.tuples(st.just(w), lie_elements(w))))
def test_vimo_parity(wf):
    w, f = wf
    for r in range(w + 1):
        p = vimo(f, r)
        sign = 1 if (w - r) % 2 == 0 else -1
        assert p == sign * _negated(p), (w, r)


# --- variable changes and nu --------------------------------------------------

def test_f_to_ftilde_pins():
    assert F_to_ftilde(Y) == -1 * Y
    assert F_to_ftilde(lie_bracket(X, Y)) == lie_bracket(X, Y)
    assert F_to_ftilde(P1) == -1 * (P1 - P2)


def test_ncsubstitute_identity_and_flip():
    images = {"x": X, "y": Y}
    p = 3 * word("x", "y") - word("y") + NCPoly.one(XY)
    assert ncsubstitute(p, images) == p
    assert flip_y(p) == -3 * word("x", "y") + word("y") + NCPoly.one(XY)


@settings(deadline=None, max_examples=40)
@given(nc_polys())
def test_variable_change_round_trip(p):
    assert ftilde_to_F(F_to_ftilde(p)) == p
    assert F_to_ftilde(ftilde_to_F(p)) == p


def test_nu_pins():
    d = nu(lie_bracket(X, Y))
    assert d.value_on_y == P2
    assert d.value_on_x == -1 * P2
    assert (d.value_on_x + d.value_on_y).is_zero()
    with pytest.raises(NotLie):
        nu(word("x", "y"))


def test_nu_dmr3_lands_in_sder():
    (e,) = dmr_basis(3).elements()
    assert is_sder(nu(e))


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 5).flatmap(lie_elements))
def test_nu_kills_x_plus_y(f):
    d = nu(f)
    assert (d.value_on_x + d.value_on_y).is_zero()
