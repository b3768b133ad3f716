import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mouldkit.kernel import (
    MultiPoly,
    NotDivisible,
    MalformedSubstitution,
    RatMatrix,
    divided_difference,
    embed_vars,
    exact_div,
    nullspace,
    rat,
    substitute,
)


def P(nvars, terms):
    return MultiPoly(nvars, terms)


def x(nvars, i):
    return MultiPoly.var(nvars, i)


def dense(rows, cols):
    """The system of dense rows: one block whose key i holds row i."""
    return RatMatrix(cols, [{i: row[j] for i, row in enumerate(rows)} for j in range(cols)])


# -- strategies ------------------------------------------------------------

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def polys(draw, nvars=None, max_deg=3, max_terms=5):
    if nvars is None:
        nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * nvars))
    terms = draw(
        st.dictionaries(exps, fractions_st, max_size=max_terms)
    )
    return MultiPoly(nvars, terms)


# -- MultiPoly basics ------------------------------------------------------


def test_zero_and_const():
    z = MultiPoly.zero(2)
    assert z.is_zero() and z.terms == {}
    c = MultiPoly.const(2, Fraction(3, 4))
    assert c.terms == {(0, 0): Fraction(3, 4)}
    assert (c - c).is_zero()


def test_var_and_arith():
    x1, x2 = x(2, 0), x(2, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((0, 2)) == -1
    assert p.coefficient((1, 1)) == 0


def test_pow():
    x1 = x(1, 0)
    p = (x1 + MultiPoly.const(1, 1)) ** 3
    assert p.coefficient((0,)) == 1
    assert p.coefficient((1,)) == 3
    assert p.coefficient((2,)) == 3
    assert p.coefficient((3,)) == 1


def test_scalar_mul():
    x1 = x(1, 0)
    assert 0 * x1 == MultiPoly.zero(1)
    assert Fraction(1, 2) * (2 * x1) == x1


@pytest.mark.parametrize(
    "nvars, error",
    [(-1, ValueError), (1.0, TypeError), ("2", TypeError), (True, TypeError), (None, TypeError)],
)
def test_multipoly_rejects_bad_nvars(nvars, error):
    with pytest.raises(error):
        MultiPoly(nvars)


@pytest.mark.parametrize("exponent", [(1,), (1, 2, 3), (1, -1), (1, 0.5), (True, 0)])
def test_multipoly_rejects_bad_exponents(exponent):
    with pytest.raises(ValueError):
        MultiPoly(2, {exponent: 1})
    # a zero coefficient drops the term before its exponent is looked at
    assert MultiPoly(2, {exponent: 0}).is_zero()


@given(polys(nvars=2), polys(nvars=2), polys(nvars=2))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero(2) == a
    assert a * MultiPoly.const(2, 1) == a
    assert (a - a).is_zero()


# -- substitution ----------------------------------------------------------


def test_substitute_swap_vars():
    # p(x1, x2) -> p(x2, x1)
    x1, x2 = x(2, 0), x(2, 1)
    p = x1 * x1 + 2 * x2
    q = substitute(p, [(0, 1), (1, 0)], 2)
    assert q == x2 * x2 + 2 * x1


def test_substitute_difference():
    # x1 -> x1 - x2 in one variable to two
    p = x(1, 0) ** 2
    q = substitute(p, [(1, -1)], 2)
    x1, x2 = x(2, 0), x(2, 1)
    assert q == x1 * x1 - 2 * x1 * x2 + x2 * x2


def test_substitute_collapse_to_zero():
    # x1 -> 0 kills everything but the constant term
    p = x(1, 0) + MultiPoly.const(1, 5)
    q = substitute(p, [(0, 0)], 2)
    assert q == MultiPoly.const(2, 5)


def test_substitute_bad_shape():
    p = x(2, 0)
    with pytest.raises(MalformedSubstitution):
        substitute(p, [(1, 0)], 2)
    with pytest.raises(MalformedSubstitution):
        substitute(p, [(1, 0), (0,)], 2)


@given(polys(nvars=2, max_deg=2), polys(nvars=2, max_deg=2))
@settings(max_examples=50)
def test_substitute_is_ring_hom(a, b):
    forms = [(1, 1, 0), (0, 2, -1)]
    sa = substitute(a, forms, 3)
    sb = substitute(b, forms, 3)
    assert substitute(a + b, forms, 3) == sa + sb
    assert substitute(a * b, forms, 3) == sa * sb


def reference_substitute(p, forms, out_nvars):
    """The tuple-and-Fraction substitute that the packed-int one replaced."""

    def add(a, b):
        out = dict(a)
        for k, c in b.items():
            t = out.get(k, 0) + c
            if t:
                out[k] = t
            else:
                out.pop(k, None)
        return out

    def mul(a, b):
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                out = add(out, {tuple(u + v for u, v in zip(ka, kb)): ca * cb})
        return out

    base = []
    for f in forms:
        d = {}
        for j, c in enumerate(f):
            c = rat(c)
            if c:
                e = [0] * out_nvars
                e[j] = 1
                d[tuple(e)] = c
        base.append(d)

    one = {(0,) * out_nvars: Fraction(1)}
    pow_cache = [[one] for _ in range(p.nvars)]
    out = {}
    for e, c in p.terms.items():
        term = {(0,) * out_nvars: c}
        for i, ei in enumerate(e):
            if not ei:
                continue
            cache = pow_cache[i]
            while len(cache) <= ei:
                cache.append(mul(cache[-1], base[i]))
            term = mul(term, cache[ei])
            if not term:
                break
        if term:
            out = add(out, term)
    return out


@st.composite
def substitutions(draw):
    p = draw(polys(max_deg=3, max_terms=4))
    out_nvars = draw(st.integers(min_value=0, max_value=3))
    coeff = st.integers(min_value=-2, max_value=2)
    forms = [
        tuple(draw(st.lists(coeff, min_size=out_nvars, max_size=out_nvars)))
        for _ in range(p.nvars)
    ]
    return p, forms, out_nvars


@given(substitutions())
@settings(max_examples=100)
def test_substitute_matches_reference(case):
    p, forms, out_nvars = case
    got = substitute(p, forms, out_nvars)
    want = reference_substitute(p, forms, out_nvars)
    assert got.nvars == out_nvars
    assert list(got.terms.items()) == list(want.items())
    assert all(isinstance(c, Fraction) for c in got.terms.values())


def test_substitute_packed_pins():
    # a constant has total degree 0, so it packs in base 1
    assert substitute(MultiPoly.const(2, 7), [(1, 2), (3, 4)], 2) == MultiPoly.const(2, 7)
    # rational coefficients of p go over one common denominator
    q = substitute(P(1, {(2,): Fraction(1, 6), (1,): Fraction(1, 4)}), [(1, -1)], 2)
    assert q == P(2, {(2, 0): Fraction(1, 6), (1, 1): Fraction(-1, 3),
                      (0, 2): Fraction(1, 6), (1, 0): Fraction(1, 4),
                      (0, 1): Fraction(-1, 4)})
    # the shape of the forms is checked even when p is zero
    with pytest.raises(MalformedSubstitution):
        substitute(MultiPoly.zero(1), [(1,)], 2)
    # so is every entry: a form takes exact ints only
    for entry in (Fraction(1, 2), Fraction(1), 0.5, True):
        for p in (P(1, {(2,): 6}), MultiPoly.zero(1)):
            with pytest.raises(MalformedSubstitution, match="int"):
                substitute(p, [(entry, 1)], 2)


def test_permute_and_embed():
    x1, x2 = x(2, 0), x(2, 1)
    p = x1 * x1 + 3 * x2
    assert embed_vars(p, [1, 0], 2) == x2 * x2 + 3 * x1
    q = embed_vars(p, [0, 2], 3)
    y1, y3 = x(3, 0), x(3, 2)
    assert q == y1 * y1 + 3 * y3


# -- exact division --------------------------------------------------------


def test_exact_div_pinned():
    # ((x1+x2)^2 - x1^2) / x2 == 2 x1 + x2
    x1, x2 = x(2, 0), x(2, 1)
    num = (x1 + x2) ** 2 - x1 ** 2
    q = exact_div(num, x2)
    assert q == 2 * x1 + x2


def test_exact_div_failure():
    x1, x2 = x(2, 0), x(2, 1)
    with pytest.raises(NotDivisible):
        exact_div(x1 * x1 + x2, x2)
    with pytest.raises(ZeroDivisionError):
        exact_div(x1, MultiPoly.zero(2))


def test_exact_div_zero_numerator():
    assert exact_div(MultiPoly.zero(2), x(2, 1)).is_zero()


@given(polys(nvars=2, max_deg=2), polys(nvars=2, max_deg=2))
@settings(max_examples=60)
def test_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a


# -- divided differences ---------------------------------------------------


def test_divided_difference_pinned():
    # (x1^2 x2 - x2^3) / (x1 - x2) = x1 x2 + x2^2
    x1, x2 = x(2, 0), x(2, 1)
    assert divided_difference(x1 * x1 * x2, 0, 1) == x1 * x2 + x2 * x2
    assert divided_difference(x2 ** 3, 0, 1).is_zero()
    assert divided_difference(MultiPoly.const(2, 5), 1, 0).is_zero()


def test_divided_difference_rejects_bad_slots():
    p = x(3, 0)
    for u, v in ((1, 1), (0, 3), (-1, 0), (2, 7)):
        with pytest.raises(ValueError, match="divided_difference"):
            divided_difference(p, u, v)


@st.composite
def poly_and_slots(draw):
    nvars = draw(st.integers(min_value=2, max_value=4))
    p = draw(polys(nvars=nvars, max_deg=4, max_terms=6))
    u, v = draw(st.lists(st.integers(0, nvars - 1), min_size=2, max_size=2,
                         unique=True))
    return p, u, v


@given(poly_and_slots())
@settings(max_examples=150)
def test_divided_difference_matches_long_division(puv):
    # p may contain x_v: the exponent of x_v must ride along in each term
    p, u, v = puv
    n = p.nvars
    renamed = substitute(
        p, [tuple(int(k == (v if j == u else j)) for k in range(n)) for j in range(n)], n
    )
    diff = p - renamed
    divisor = x(n, u) - x(n, v)
    got = divided_difference(p, u, v)
    assert divisor * got == diff
    assert got == exact_div(diff, divisor)


# -- linear algebra --------------------------------------------------------


def test_nullspace_pinned():
    m = dense([[1, -1]], 2)
    basis = nullspace(m)
    assert basis == [(Fraction(1), Fraction(1))]


def test_nullspace_full_rank():
    m = dense([[1, 0], [0, 1]], 2)
    assert nullspace(m) == []


def test_nullspace_zero_matrix():
    # an all-zero row is no row
    m = dense([[0, 0, 0], [0, 0, 0]], 3)
    assert (m.rows, m.cols) == (0, 3)
    basis = nullspace(m)
    assert len(basis) == 3


def test_column_rows_pinned():
    # column j is the j-th term dict; one integer row per key of a block,
    # keys sorted, blocks in order, each row scaled to integers
    cols = [{(1, 0): Fraction(2)}, {}, {(0, 1): Fraction(-1), (1, 0): Fraction(3, 2)}]
    m = RatMatrix(3, cols, [{"b": 1}, {"a": 0}, {"b": Fraction(1, 3)}])
    assert m.int_rows == [{2: -1}, {0: 4, 2: 3}, {0: 3, 2: 1}]
    assert (m.rows, m.cols) == (3, 3)
    # the same key in two blocks is two rows
    assert RatMatrix(1, [{"a": 1}], [{"a": 2}]).int_rows == [{0: 1}, {0: 2}]
    assert RatMatrix(2, [{}, {}]).int_rows == []
    assert RatMatrix(0, []).int_rows == []


def test_nullspace_without_rows_is_every_unit_vector():
    basis = nullspace(RatMatrix(2, [{}, {}]))
    assert basis == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert nullspace(RatMatrix(2)) == basis


# A system A x = b is solved by the kernel of [A | b]: b is in the column
# span iff the last column is free, and the kernel vector v of that column
# holds the solution with free variables 0, x = -v[:n] / v[n].

def test_solve_linear():
    # x + y = 3, x - y = 1
    m = dense([[1, 1, 3], [1, -1, 1]], 3)
    assert nullspace(m) == [(Fraction(2), Fraction(1), Fraction(-1))]


def test_solve_linear_inconsistent():
    # x = 0, x = 1: the last column is a pivot column
    m = dense([[1, 0], [1, 1]], 2)
    assert nullspace(m) == []


def test_solve_linear_underdetermined():
    # x + y = 5: the free variable y is 0 in the last vector, x = 5
    m = dense([[1, 1, 5]], 3)
    assert nullspace(m)[-1] == (Fraction(5), Fraction(0), Fraction(-1))


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    entries = draw(
        st.lists(
            st.lists(fractions_st, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return entries, cols


@given(matrices())
@settings(max_examples=60)
def test_nullspace_properties(m):
    entries, cols = m
    basis = nullspace(dense(entries, cols))
    for vec in basis:
        for row in entries:
            assert sum(a * v for a, v in zip(row, vec)) == 0
        # primitive integer form, first nonzero entry positive
        nz = [v for v in vec if v]
        assert nz and nz[0] > 0
        assert all(v.denominator == 1 for v in vec)


def test_rat_coercion():
    assert rat("2/3") == Fraction(2, 3)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(1, 7)) == Fraction(1, 7)


def test_term_kernel_module_contract():
    # profilers rebind the kernels on mouldkit._speed; callers look them up there
    import mouldkit
    from mouldkit import _speed

    assert mouldkit.backend_name == "pure"
    for name in ("add_terms", "sub_terms", "scale_terms", "mul_terms", "concat_mul_terms"):
        assert callable(getattr(_speed, name))
    assert _speed.mul_terms({(1,): Fraction(2)}, {(2,): Fraction(3)}) == {(3,): Fraction(6)}


# -- index checks survive python -O ------------------------------------------

# A variable index out of range, and embedding positions that are repeated,
# out of range or too few, are ValueErrors that name the function, also
# under python -O, which strips assert statements.
INDEX_CALLS = {
    "MultiPoly.var": "kernel.MultiPoly.var(2, -1)",
    "embed_vars": "kernel.embed_vars(X1X2SQ, [0, 0], 2)",
    "embed_vars range": "kernel.embed_vars(X1X2SQ, [0, 2], 2)",
    "embed_vars length": "kernel.embed_vars(X1X2SQ, [1], 2)",
}

_INDEX_RAISED = """
import mouldkit.kernel as kernel
X1X2SQ = kernel.MultiPoly(2, {(1, 2): 1})
for case, call in CALLS.items():
    try:
        eval(call, {"kernel": kernel, "X1X2SQ": X1X2SQ})
    except Exception as e:
        print(case, "|", type(e).__name__, case.split()[0] in str(e))
    else:
        print(case, "|", "nothing", False)
"""


@pytest.fixture(scope="module")
def index_raised_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", "CALLS = %r\n%s" % (INDEX_CALLS, _INDEX_RAISED)],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return dict(line.split(" | ") for line in done.stdout.splitlines())


@pytest.mark.parametrize("case", sorted(INDEX_CALLS))
def test_index_arguments_are_checked(case, index_raised_under_optimize):
    import mouldkit.kernel as kernel

    scope = {"kernel": kernel, "X1X2SQ": P(2, {(1, 2): 1})}
    with pytest.raises(ValueError, match=case.split()[0]):
        eval(INDEX_CALLS[case], scope)
    assert index_raised_under_optimize[case] == "ValueError True"
