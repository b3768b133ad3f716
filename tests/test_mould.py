import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mouldkit.kernel import (
    MultiPoly,
    embed_vars,
    exact_div,
    substitute,
)
from mouldkit.mould import (
    ConstantMould,
    Mould,
    SlotError,
    coll,
    mantar,
    mould_mul,
    pus_sum,
    push,
    pusnu_witness,
    swap,
    teru,
    u_component,
)


def v(m, i):
    """Variable u_i (1-based) inside the depth-m component."""
    return MultiPoly.var(m, i - 1)


def Mo(depth, comps, m0=0):
    return Mould.from_components(depth, {0: MultiPoly.const(0, m0), **comps})


# -- strategies --------------------------------------------------------------

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def components(draw, nvars, max_deg=3, max_terms=3):
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * nvars))
    terms = draw(st.dictionaries(exps, fractions_st, max_size=max_terms))
    return MultiPoly(nvars, terms)


@st.composite
def moulds(draw, max_depth=4, max_deg=3, min_depth=1, with_const=True):
    depth = draw(st.integers(min_value=min_depth, max_value=max_depth))
    comps = {m: draw(components(m, max_deg=max_deg)) for m in range(1, depth + 1)}
    m0 = draw(fractions_st) if with_const else 0
    return Mo(depth, comps, m0=m0)


# -- Mould basics ------------------------------------------------------------


def test_component_beyond_depth_is_zero():
    m = Mo(2, {1: {(1,): 1}})
    assert m.component(2).is_zero()
    assert m.component(5).is_zero()
    assert m.component(5).nvars == 5


def test_equality_pads_with_zeros():
    a = Mo(1, {1: {(1,): 1}})
    b = Mo(3, {1: {(1,): 1}})
    assert a == b
    b.components[3] = v(3, 1)
    assert a != b


def test_linear_structure():
    a = Mo(2, {1: {(1,): 1}}, m0=2)
    b = Mo(1, {1: {(2,): 3}})
    s = a + b
    assert s.components[0] == MultiPoly.const(0, 2)
    assert s.component(1) == v(1, 1) + 3 * v(1, 1) * v(1, 1)
    assert (s - b) == a
    half = Fraction(1, 2) * a
    assert half.components[0] == MultiPoly.const(0, 1)
    assert (-a) + a == Mould.zero(2)


@pytest.mark.parametrize(
    "components, error",
    [
        ([], ValueError),
        ([{}, "x1"], TypeError),
        ([{}, MultiPoly.var(2, 0)], ValueError),
        ([{}, MultiPoly.zero(1), MultiPoly.zero(3)], ValueError),
        ([1], TypeError),
        ([Fraction(0), MultiPoly.zero(1)], TypeError),
        ([MultiPoly.const(1, 1)], ValueError),
    ],
)
def test_mould_rejects_bad_components(components, error):
    with pytest.raises(error):
        Mould(components)


def test_depth_zero_is_a_polynomial_in_no_variables():
    a = Mould([{(): Fraction(3, 2)}, {(1,): 1}])
    assert a == Mould([MultiPoly.const(0, Fraction(3, 2)), v(1, 1)])
    assert a.component(0).coefficient(()) == Fraction(3, 2)
    assert not Mould([{(): 1}]).is_zero()
    assert Mould.zero(2).component(0) == MultiPoly.zero(0)
    assert repr(a) == "Mould(depth=1, 0: 3/2, 1: x1)"


@pytest.mark.parametrize(
    "depth, comps",
    [(2, {2: MultiPoly.var(3, 0)}), (1, {3: {(1, 0, 0): 1}}), (2, {-1: 1})],
)
def test_from_components_rejects_bad_components(depth, comps):
    with pytest.raises(ValueError):
        Mould.from_components(depth, comps)


@pytest.mark.parametrize("other", [1, Fraction(1), MultiPoly.zero(1), None])
def test_mould_arithmetic_rejects_non_moulds(other):
    with pytest.raises(TypeError, match="Mould arithmetic"):
        Mould.zero(1) + other
    with pytest.raises(TypeError, match="Mould arithmetic"):
        Mould.zero(1) - other


def test_input_validation_survives_optimize():
    # python -O strips assert statements; the checks must not depend on them
    src = Path(__file__).resolve().parents[1] / "src"
    script = "\n".join([
        "from mouldkit.kernel import MultiPoly",
        "from mouldkit.mould import Mould",
        "cases = [lambda: MultiPoly(-1), lambda: MultiPoly(2, {(1,): 1}),",
        "         lambda: MultiPoly(1, {(-1,): 1}), lambda: Mould([]),",
        "         lambda: Mould([{}, MultiPoly.var(2, 0)]), lambda: Mould([{}, 'x1']),",
        "         lambda: Mould([1]),",
        "         lambda: Mould.from_components(2, {2: MultiPoly.var(3, 0)}),",
        "         lambda: Mould.zero(1) + 1, lambda: Mould.zero(1) - 1]",
        "for case in cases:",
        "    try:",
        "        case()",
        "    except (TypeError, ValueError):",
        "        continue",
        "    raise SystemExit('accepted bad input')",
    ])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_constant_mould():
    c = ConstantMould([0, 1, Fraction(-1, 2)])
    assert c.value(2) == Fraction(-1, 2)
    assert c.value(9) == 0
    assert c.value(1) == 1
    assert c == ConstantMould([0, 1, Fraction(-1, 2), 0])


# -- product -----------------------------------------------------------------


def test_mul_unit():
    m = Mo(2, {1: {(2,): 1}, 2: {(1, 1): 3}}, m0=5)
    one = Mould([{(): 1}])
    assert mould_mul(one, m) == m
    assert mould_mul(m, one) == m


def test_mul_depth2_expansion():
    # (A x B)^2 = A^0 B^2(x1,x2) + A^1(x1) B^1(x2) + A^2(x1,x2) B^0
    a = Mo(2, {1: {(2,): 1}, 2: {(1, 1): 1}}, m0=2)
    b = Mo(2, {1: {(1,): 5}, 2: {(0, 1): 1}}, m0=3)
    got = mould_mul(a, b).component(2)
    expected = (
        2 * b.component(2)
        + embed_vars(a.component(1), [0], 2) * embed_vars(b.component(1), [1], 2)
        + 3 * a.component(2)
    )
    assert got == expected


def test_mul_square_of_depth1():
    a = Mo(1, {1: {(1,): 1}})
    sq = mould_mul(a, a)
    assert sq.components[0].is_zero()
    assert sq.component(1).is_zero()
    assert sq.component(2) == v(2, 1) * v(2, 2)


@settings(max_examples=40)
@given(moulds(max_depth=2, max_deg=2), moulds(max_depth=2, max_deg=2),
       moulds(max_depth=2, max_deg=2))
def test_mul_associative(a, b, c):
    assert mould_mul(mould_mul(a, b), c) == mould_mul(a, mould_mul(b, c))


@settings(max_examples=30)
@given(moulds(max_depth=3), moulds(max_depth=3), st.integers(1, 3),
       st.integers(1, 3))
def test_mul_respects_filtration(a, b, fa, fb):
    # kill components below fa (resp. fb), including the constants
    a.components[0] = MultiPoly.zero(0)
    b.components[0] = MultiPoly.zero(0)
    for m in range(1, min(fa, a.depth) + 1):
        if m < fa:
            a.components[m] = MultiPoly.zero(m)
    for m in range(1, min(fb, b.depth) + 1):
        if m < fb:
            b.components[m] = MultiPoly.zero(m)
    prod = mould_mul(a, b)
    assert prod.components[0].is_zero()
    for m in range(1, min(fa + fb, prod.depth + 1)):
        assert prod.component(m).is_zero(), (m, fa, fb)


# -- swap / unswap -----------------------------------------------------------


def unswap(mo):
    """Two-sided inverse of swap:
    unswap(N)^m(u_1..u_m) = N^m(u_1+...+u_m, u_1+...+u_{m-1}, ..., u_1)."""
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        # old slot k gets u_1+...+u_{m-k+1}
        forms = [(1,) * (m - k + 1) + (0,) * (k - 1) for k in range(1, m + 1)]
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def test_swap_depth2_pin():
    m = Mo(2, {2: {(1, 1): 1}})
    got = swap(m).component(2)
    assert got == v(2, 2) * (v(2, 1) - v(2, 2))


def test_swap_is_not_an_involution():
    # literal swap applied twice is not the identity: M^2 = u1
    m = Mo(2, {2: {(1, 0): 1}})
    twice = swap(swap(m)).component(2)
    assert twice == v(2, 1) - v(2, 2)
    assert twice != m.component(2)


def test_unswap_depth2_pin():
    m = Mo(2, {2: {(1, 0): 1}})
    assert unswap(swap(m)) == m
    assert swap(unswap(m)) == m


def test_swap_u_map_consistency():
    # swap(M)^2 evaluated at (x2-x1, x3-x1) equals M^2(x3-x1, x2-x3)
    m = Mo(2, {2: {(2, 1): 1, (0, 1): 3}})
    sw = swap(m).component(2)
    lhs = substitute(sw, [(-1, 1, 0), (-1, 0, 1)], 3)
    rhs = substitute(m.component(2), [(-1, 0, 1), (0, 1, -1)], 3)
    assert lhs == rhs


@settings(max_examples=40)
@given(moulds(max_depth=4, max_deg=4))
def test_unswap_inverts_swap(m):
    assert unswap(swap(m)) == m
    assert swap(unswap(m)) == m


# -- pus / push / mantar / neg -----------------------------------------------


def pus(mo):
    """pus(M)^m(u_1..u_m) = M^m(u_m, u_1, ..., u_{m-1})."""
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        # old slot 1 gets u_m, old slot k >= 2 gets u_{k-1}
        slots = [m - 1] + list(range(m - 1))
        forms = [tuple(int(j == s) for j in range(m)) for s in slots]
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def test_pus_pin():
    m = Mo(3, {3: {(1, 0, 0): 1}})
    assert pus(m).component(3) == v(3, 3)


@settings(max_examples=25)
@given(components(3, max_deg=2))
def test_pus_has_order_three_at_depth_three(c):
    m = Mo(3, {3: c})
    assert pus(pus(pus(m))) == m


def test_push_pins():
    m = Mo(2, {2: {(1, 0): 1}})
    assert push(m).component(2) == -v(2, 1) - v(2, 2)
    sq = Mo(1, {1: {(2,): 1}})
    assert push(sq).component(1) == sq.component(1)
    assert push(Mould([{(): 1}])) == Mould([{(): 1}])


@settings(max_examples=25)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), components(m))))
def test_push_has_order_depth_plus_one(mc):
    m, c = mc
    mo = Mo(m, {m: c})
    out = mo
    for _ in range(m + 1):
        out = push(out)
    assert out == mo


def test_mantar_pins():
    m2 = Mo(2, {2: {(1, 0): 1}})
    assert mantar(m2).component(2) == -v(2, 2)
    m3 = Mo(3, {3: {(1, 0, 0): 1}})
    assert mantar(m3).component(3) == v(3, 3)


def neg(mo):
    """neg(M)^m(u) = M^m(-u_1, ..., -u_m)."""
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        forms = [tuple(-int(j == i) for j in range(m)) for i in range(m)]
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def test_neg_pin():
    m = Mo(2, {1: {(1,): 1}, 2: {(1, 1): 1}})
    assert neg(m).component(1) == -v(1, 1)
    assert neg(m).component(2) == v(2, 1) * v(2, 2)


@settings(max_examples=30)
@given(moulds())
def test_mantar_and_neg_are_involutions(m):
    assert mantar(mantar(m)) == m
    assert neg(neg(m)) == m


# -- teru --------------------------------------------------------------------


def test_teru_pin():
    m = Mo(1, {1: {(2,): 1}})
    t = teru(m)
    assert t.depth == 2
    assert t.component(1) == m.component(1)
    assert t.component(2) == 2 * v(2, 1) + v(2, 2)


def test_teru_unit():
    assert teru(Mould([{(): 1}])) == Mould([{(): 1}])


def test_teru_depth1_of_fil2_vanishes():
    m = Mo(2, {2: {(1, 1): 1}})
    assert teru(m).component(1).is_zero()


@settings(max_examples=40)
@given(moulds(max_depth=4, max_deg=4))
def test_teru_division_is_always_exact(m):
    # teru(M)^r is the senary lhs; the expansion below long-divides
    t = teru(m)
    assert t.depth == m.depth + 1
    for r in range(1, t.depth + 1):
        assert t.component(r) == senary_expansion_lhs(m, r), r


# -- translate_t / u_map -----------------------------------------------------


def translate_t(mo):
    """Parallel translation: identity at m = 0, 1;
    t(M)^m(x_1..x_m) = M^{m-1}(x_2-x_1, ..., x_m-x_1) for m >= 2, up to
    depth D+1."""
    comps = [mo.components[0], mo.component(1)]
    for m in range(2, mo.depth + 2):
        # old slot j+1 gets x_{j+2} - x_1
        forms = [(-1,) + tuple(int(k == j) for k in range(m - 1))
                 for j in range(m - 1)]
        comps.append(substitute(mo.component(m - 1), forms, m))
    return Mould(comps)


def test_translate_pin():
    m = Mo(2, {2: {(1, 0): 1}})
    t = translate_t(m)
    assert t.depth == 3
    assert t.component(2).is_zero()  # t(M)^2 = M^1(x2 - x1) and M^1 = 0
    assert t.component(3) == v(3, 2) - v(3, 1)
    assert t.component(1) == m.component(1)


def test_translate_unit():
    t = translate_t(Mould([{(): 1}]))
    assert t.component(2).is_zero()
    assert t == Mould([{(): 1}])


def test_u_map_depth3_pin():
    m = Mo(2, {2: {(2, 1): 1, (1, 0): 5}})
    got = u_component(m, 3)
    expected = substitute(m.component(2), [(-1, 0, 1), (0, 1, -1)], 3)
    assert got == expected


def test_u_map_depth4_pin():
    m = Mo(3, {3: {(1, 1, 1): 1, (2, 0, 0): 1}})
    got = u_component(m, 4)
    expected = substitute(
        m.component(3),
        [(-1, 0, 0, 1), (0, 0, 1, -1), (0, 1, -1, 0)],
        4,
    )
    assert got == expected


def test_u_component_pins():
    m = Mo(2, {1: {(3,): 2}, 2: {(1, 0): 1}})
    assert u_component(m, 1) == m.component(1)
    assert u_component(m, 4).is_zero() and u_component(m, 4).nvars == 4


@settings(max_examples=40, deadline=None)
@given(moulds(max_depth=4, max_deg=3, min_depth=0))
def test_u_map_is_translate_of_swap(m):
    # the composition t o swap is the oracle for the one-substitution form
    want = translate_t(swap(m))
    assert want.depth == m.depth + 1
    for k in range(1, want.depth + 1):
        assert u_component(m, k) == want.component(k), k


# -- coll --------------------------------------------------------------------


def test_coll_pin():
    m = Mo(2, {2: {(1, 1): 1}})
    # (x1 x2 - x1 x3) / (x2 - x3) = x1, the depth-3 component alone
    assert coll(m, 3, 2) == v(3, 1)


def test_coll_slot_errors():
    m = Mo(2, {2: {(1, 1): 1}})
    with pytest.raises(SlotError):
        coll(m, 3, 3)
    with pytest.raises(SlotError):
        coll(m, 3, 0)
    with pytest.raises(SlotError):
        coll(m, 1, 1)


@settings(max_examples=40)
@given(moulds(max_depth=3, max_deg=4), st.integers(2, 4), st.integers(1, 3))
def test_coll_division_is_always_exact(m, depth, i):
    if i >= depth:
        i = depth - 1
    assert coll(m, depth, i) == coll_expansion(m, depth, i)


def coll_expansion(m, depth, i):
    """The component coll(M, depth, i), by long division."""
    prev = m.component(depth - 1)
    drop_next = embed_vars(prev, [j if j < i else j + 1 for j in range(depth - 1)], depth)
    drop_here = embed_vars(prev, [j if j < i - 1 else j + 1 for j in range(depth - 1)], depth)
    divisor = MultiPoly.var(depth, i - 1) - MultiPoly.var(depth, i)
    return exact_div(drop_next - drop_here, divisor)


# -- pus-neutrality ----------------------------------------------------------


def test_pus_neutral_pins():
    good = Mo(2, {2: {(1, 0): 1, (0, 1): -1}})
    assert pusnu_witness(good) is None
    assert pusnu_witness(Mo(1, {1: {(1,): 1}})) is not None
    assert pusnu_witness(Mo(2, {2: {(1, 0): 1}})) is not None
    assert pusnu_witness(Mould.zero(3)) is None


def test_pus_sum_pins():
    mo = Mo(3, {2: {(1, 0): 1}, 3: {(2, 0, 0): 1}})
    assert pus_sum(mo, 1).is_zero()
    assert pus_sum(mo, 2) == MultiPoly(2, {(1, 0): 1, (0, 1): 1})
    assert pus_sum(mo, 3) == MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    # beyond the declared depth the component, and its sum, are zero
    assert pus_sum(mo, 4) == MultiPoly.zero(4)


@settings(max_examples=30)
@given(moulds(max_depth=4, max_deg=3))
def test_pus_sum_is_the_sum_of_pus_powers(mo):
    powers = [mo]
    for _ in range(mo.depth - 1):
        powers.append(pus(powers[-1]))
    for m in range(1, mo.depth + 1):
        want = MultiPoly.zero(m)
        for pm in powers[:m]:
            want = want + pm.component(m)
        assert pus_sum(mo, m) == want, m


# -- the senary rewriting: composite equals expansion ------------------------


def senary_expansion_lhs(m, r):
    if r == 1:
        return m.component(1)
    prev = m.component(r - 1)
    forms = []
    for j in range(r - 2):
        f = [0] * r
        f[j] = 1
        forms.append(tuple(f))
    last = [0] * r
    last[r - 2] = 1
    last[r - 1] = 1
    forms.append(tuple(last))
    merged = substitute(prev, forms, r)
    plain = embed_vars(prev, list(range(r - 1)), r)
    return m.component(r) + exact_div(merged - plain, MultiPoly.var(r, r - 1))


def senary_expansion_rhs(m, r):
    if r == 1:
        return substitute(m.component(1), [(-1,)], 1)
    forms = [tuple([-1] * r)]
    for k in range(2, r + 1):
        f = [0] * r
        f[k - 2] = 1
        forms.append(tuple(f))
    main = substitute(m.component(r), forms, r)
    prev = m.component(r - 1)
    first = [0] * r
    for j in range(1, r):
        first[j] = -1
    pforms = [tuple(first)]
    for j in range(2, r):
        f = [0] * r
        f[j - 1] = 1
        pforms.append(tuple(f))
    merged = substitute(prev, pforms, r)
    plain = embed_vars(prev, list(range(r - 1)), r)
    divisor = MultiPoly(r, {tuple(1 if k == j else 0 for k in range(r)): 1
                            for j in range(r)})
    return main + exact_div(merged - plain, divisor)


@settings(max_examples=50)
@given(moulds(max_depth=3, max_deg=4, with_const=False))
def test_senary_composite_equals_expansion(m):
    composite = push(mantar(teru(mantar(m))))
    straight = teru(m)
    for r in range(1, 5):
        assert straight.component(r) == senary_expansion_lhs(m, r), r
        assert composite.component(r) == senary_expansion_rhs(m, r), r
