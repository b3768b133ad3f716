# Tests for ncword: words, Lie machinery, palindromes, decompositions and
# traces; and the shuffle and quasi-shuffle of words in plain
# variables, the definitions that alternality and alternility are checked
# against.

import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mouldkit.kernel import MultiPoly, RatMatrix, nullspace, substitute
from mouldkit import ncword
from mouldkit.liealg import dmr_basis, krv_basis
from mouldkit.mould import Mould
from mouldkit.ncword import (
    AlphabetError,
    HasConstantTerm,
    NCPoly,
    NotHomogeneous,
    anti,
    coefficient,
    decompose_right,
    homogeneous_weight,
    is_anti_palindromic,
    lie_bracket,
    lie_witness,
    lyndon_basis,
    lyndon_bracketing,
    lyndon_combination,
    lyndon_words,
    trace,
)
from mouldkit.symmetry import alternality_defect, alternility_defect

XY = ("x", "y")


def scale_letter(p, sym, c):
    """Rescale every word by c to the power of its sym-letter count; the
    reference for the flip y -> -y that liealg.star_regularize folds into
    its one pass."""
    if sym not in p.alphabet:
        raise AlphabetError("scale_letter: %r is not in the alphabet %r"
                            % (sym, p.alphabet))
    c = Fraction(c)
    return NCPoly(p.alphabet, {w: k * c ** w.count(sym) for w, k in p.terms.items()})


def P(expr):
    """Tiny builder: {"xy": 1, "yx": -1} -> NCPoly."""
    return NCPoly(XY, {tuple(w): c for w, c in expr.items()})


X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")


# --------------------------------------------------------------------------
# weights

def test_homogeneous_weight():
    assert homogeneous_weight(P({"xy": 1, "yx": -1})) == 2
    # a word weighs its length, whatever its letters are called
    assert homogeneous_weight(NCPoly(("y1", "y12"), {("y12", "y1"): 1})) == 2
    assert homogeneous_weight(NCPoly.zero(XY)) is None
    with pytest.raises(NotHomogeneous):
        homogeneous_weight(P({"x": 1, "xy": 1}))


# --------------------------------------------------------------------------
# lie_bracket, and the Dynkin-Specht-Wever reference for lie_witness

def test_lie_bracket_pins():
    assert lie_bracket(X, Y) == P({"xy": 1, "yx": -1})
    inner = lie_bracket(X, Y)
    assert lie_bracket(X, inner) == P({"xxy": 1, "xyx": -2, "yxx": 1})
    assert lie_bracket(X, X).is_zero()


def test_lie_bracket_alphabet_mismatch():
    a = NCPoly.letter(("a", "b"), "a")
    with pytest.raises(AlphabetError):
        lie_bracket(a, X)


def _left_bracketing(alphabet, word):
    # word a1..an -> [[...[a1,a2],...],an]
    q = NCPoly.letter(alphabet, word[0])
    for a in word[1:]:
        la = NCPoly.letter(alphabet, a)
        q = q * la - la * q
    return q


def dsw_is_lie(p):
    """Dynkin-Specht-Wever: for p homogeneous of word length n >= 1,
    p is a Lie element iff sum_W c_W [[..[a1,a2]..],an] equals n*p.

    The reference for lie_witness, and the Lie test of every check on the
    Lyndon basis itself, which lie_witness is built from."""
    if p.is_zero():
        return True
    lengths = {len(w) for w in p.terms}
    if len(lengths) > 1:
        raise NotHomogeneous("mixed word lengths %s" % sorted(lengths))
    n = lengths.pop()
    if n == 0:
        raise NotHomogeneous("constant polynomial has weight 0")
    d = NCPoly.zero(p.alphabet)
    for w, c in p.terms.items():
        d = d + c * _left_bracketing(p.alphabet, w)
    return d == n * p


def test_is_lie_pins():
    assert dsw_is_lie(P({"xy": 1, "yx": -1}))
    assert not dsw_is_lie(P({"xy": 1}))
    assert dsw_is_lie(P({"xxy": 1, "xyx": -2, "yxx": 1}))
    assert dsw_is_lie(NCPoly.zero(XY))
    with pytest.raises(NotHomogeneous):
        dsw_is_lie(P({"x": 1, "xy": 1}))
    with pytest.raises(NotHomogeneous):
        dsw_is_lie(NCPoly.one(XY))


def test_lie_witness_pins():
    assert lie_witness(P({"xy": 1, "yx": -1})) is None
    assert lie_witness(P({"xy": 1})) == P({"yx": 1})
    assert lie_witness(P({"xxy": 1, "xyx": -2, "yxx": 1})) is None
    assert lie_witness(P({"x": 3, "y": -1})) is None
    assert lie_witness(P({"xx": 1})) == P({"xx": 1})
    assert lie_witness(NCPoly.zero(XY)) is None
    with pytest.raises(NotHomogeneous):
        lie_witness(P({"x": 1, "xy": 1}))
    with pytest.raises(NotHomogeneous):
        lie_witness(NCPoly.one(XY))


# --------------------------------------------------------------------------
# Lyndon machinery

def test_lyndon_words_small():
    assert lyndon_words(1, XY) == [("x",), ("y",)]
    assert lyndon_words(2, XY) == [("x", "y")]
    assert lyndon_words(3, XY) == [("x", "x", "y"), ("x", "y", "y")]


def _mobius(n):
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def witt_dimension(w, k):
    """dim of the weight-w part of the free Lie algebra on k letters:
    (1/w) * sum_{d | w} mu(d) k^(w/d)."""
    total = sum(_mobius(d) * k ** (w // d) for d in range(1, w + 1) if w % d == 0)
    assert total % w == 0, (w, k, total)
    return total // w


def test_witt_pins():
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
    for w, d in expected.items():
        assert witt_dimension(w, 2) == d, w


def test_lyndon_basis_counts_and_lieness():
    for w in range(1, 7):
        basis = lyndon_basis(w, XY)
        assert len(basis) == witt_dimension(w, 2), w
        for p in basis:
            assert dsw_is_lie(p), p


def test_lyndon_bracketing_pins():
    b = lambda u, v: lie_bracket(u, v)
    xy = b(X, Y)
    assert lyndon_bracketing("xyyy", XY) == b(b(b(X, Y), Y), Y)
    assert lyndon_bracketing("xxyy", XY) == b(X, b(b(X, Y), Y))
    assert lyndon_bracketing("xxy", XY) == b(X, xy)
    assert lyndon_bracketing("xyy", XY) == b(xy, Y)


def test_lyndon_basis_spans_w5():
    # coordinates of the 6 basis elements over all 32 weight-5 words must
    # have full rank 6: one row per basis element, one column per word
    basis = lyndon_basis(5, XY)
    words = ["".join(t) for t in itertools.product("xy", repeat=5)]
    columns = [{i: coefficient(p, tuple(w)) for i, p in enumerate(basis)} for w in words]
    m = RatMatrix(len(words), columns)
    assert m.cols - len(nullspace(m)) == 6


def test_lyndon_basis_memo_hands_out_fresh_lists():
    first = lyndon_basis(6, XY)
    second = lyndon_basis(6, XY)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    first.append(NCPoly.zero(XY))
    third = lyndon_basis(6, XY)
    assert len(third) == witt_dimension(6, 2)
    assert third == [lyndon_bracketing(wd, XY) for wd in lyndon_words(6, XY)]


# A length below 1, an empty alphabet and a repeated letter are ValueErrors
# that name the function, raised before the memo is looked at, also under
# python -O.
LYNDON_CALLS = {
    "lyndon_words n=0": "ncword.lyndon_words(0, ('x', 'y'))",
    "lyndon_words empty": "ncword.lyndon_words(2, ())",
    "lyndon_words repeated": "ncword.lyndon_words(2, ('x', 'x'))",
    "lyndon_basis n=0": "ncword.lyndon_basis(0, ('x', 'y'))",
    "lyndon_basis n=-1": "ncword.lyndon_basis(-1, ('x', 'y'))",
    "lyndon_basis empty": "ncword.lyndon_basis(2, ())",
    "lyndon_basis repeated": "ncword.lyndon_basis(2, ('x', 'x'))",
}

_RAISED = """
import mouldkit.ncword as ncword
for case, call in CALLS.items():
    before = ncword._lyndon_brackets.cache_info()
    try:
        eval(call, {"ncword": ncword})
    except Exception as e:
        print(case, "|", isinstance(e, ValueError), case.split()[0] in str(e),
              ncword._lyndon_brackets.cache_info() == before)
    else:
        print(case, "|", "nothing")
"""


@pytest.fixture(scope="module")
def lyndon_raised_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", "CALLS = %r\n%s" % (LYNDON_CALLS, _RAISED)],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return dict(line.split(" | ") for line in done.stdout.splitlines())


@pytest.mark.parametrize("case", sorted(LYNDON_CALLS))
def test_lyndon_rejects_bad_arguments(case, lyndon_raised_under_optimize):
    before = ncword._lyndon_brackets.cache_info()
    with pytest.raises(ValueError, match=case.split()[0]):
        eval(LYNDON_CALLS[case], {"ncword": ncword})
    assert ncword._lyndon_brackets.cache_info() == before
    assert lyndon_raised_under_optimize[case] == "True True True"


# Every entry point refuses a non-NCPoly with a TypeError that names it,
# also under python -O.
NCPOLY_CALLS = {
    "NCPoly arithmetic": "X + 3",
    "coefficient": "ncword.coefficient(3, ('x',))",
    "homogeneous_weight": "ncword.homogeneous_weight(3)",
    "lie_bracket": "ncword.lie_bracket(X, 3)",
    "lie_witness": "ncword.lie_witness(3)",
    "anti": "ncword.anti(3)",
    "is_anti_palindromic": "ncword.is_anti_palindromic(3, 2)",
    "decompose_right": "ncword.decompose_right(3)",
    "trace": "ncword.trace(3)",
}

_TYPE_RAISED = """
import mouldkit.ncword as ncword
X = ncword.NCPoly.letter(("x", "y"), "x")
for name, call in CALLS.items():
    try:
        eval(call, {"ncword": ncword, "X": X})
    except Exception as e:
        print(name, "|", type(e).__name__, name in str(e))
    else:
        print(name, "|", "nothing")
"""


@pytest.fixture(scope="module")
def type_raised_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", "CALLS = %r\n%s" % (NCPOLY_CALLS, _TYPE_RAISED)],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return dict(line.split(" | ") for line in done.stdout.splitlines())


@pytest.mark.parametrize("name", sorted(NCPOLY_CALLS))
def test_ncpoly_entry_points_reject_other_types(name, type_raised_under_optimize):
    with pytest.raises(TypeError, match=name):
        eval(NCPOLY_CALLS[name], {"ncword": ncword, "X": X})
    assert type_raised_under_optimize[name] == "TypeError True"


# --------------------------------------------------------------------------
# anti / palindromes

def test_anti_pins():
    assert anti(P({"xxy": 1})) == P({"yxx": 1})
    assert anti(P({"xy": 1, "yx": 1})) == P({"xy": 1, "yx": 1})
    assert anti(NCPoly.zero(XY)).is_zero()


def test_is_anti_palindromic_pins():
    assert is_anti_palindromic(P({"xy": 1, "yx": 1}), 2)
    assert not is_anti_palindromic(P({"xy": 1, "yx": -1}), 2)
    assert is_anti_palindromic(P({"xxy": 1, "yxx": -1}), 3)
    assert is_anti_palindromic(NCPoly.zero(XY), 7)


def test_scale_letter():
    p = P({"xy": 1, "yy": 3, "xx": -2})
    assert scale_letter(p, "y", -1) == P({"xy": -1, "yy": 3, "xx": -2})
    assert scale_letter(scale_letter(p, "y", -1), "y", -1) == p
    assert scale_letter(p, "y", 0) == P({"xx": -2})
    with pytest.raises(NotHomogeneous):
        is_anti_palindromic(P({"xy": 1}), 3)


# --------------------------------------------------------------------------
# decompositions

def test_decompose_right_pins():
    px, py = decompose_right(P({"xy": 1, "yx": -1}))
    assert px == -1 * Y and py == X
    px, py = decompose_right(P({"xx": 1}))
    assert px == X and py.is_zero()
    px, py = decompose_right(NCPoly.zero(XY))
    assert px.is_zero() and py.is_zero()
    with pytest.raises(HasConstantTerm):
        decompose_right(NCPoly.one(XY) + X)


# --------------------------------------------------------------------------
# trace: each word goes to its least rotation

def test_trace_pins():
    assert trace(P({"xy": 1, "yx": -1})).is_zero()
    assert trace(P({"xxy": 1, "xyx": 1})) == P({"xxy": 2})
    assert trace(P({"yxy": 3, "yyx": -1, "x": 1})) == P({"xyy": 2, "x": 1})
    s = (X + Y) ** 2 - X * X - Y * Y
    assert trace(s) == P({"xy": 2})
    assert trace(NCPoly.one(XY)) == NCPoly.one(XY)
    # the alphabet order decides which rotation is least
    YX = ("y", "x")
    assert trace(NCPoly(YX, {("x", "y"): 1})) == NCPoly(YX, {("y", "x"): 1})


def test_coefficient_pins():
    p = P({"xy": 1, "yx": -1})
    assert coefficient(p, ("x", "y")) == 1
    assert coefficient(p, ("y", "x")) == -1
    assert coefficient(p, ("x", "x")) == 0


# --------------------------------------------------------------------------
# random NCPoly strategies

words_xy = st.lists(st.sampled_from(["x", "y"]), min_size=0, max_size=4).map(tuple)
coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)


@st.composite
def ncpolys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        w = draw(words_xy)
        c = draw(coeffs)
        if c:
            terms[w] = terms.get(w, Fraction(0)) + c
    return NCPoly(XY, terms)


@given(ncpolys(), ncpolys())
def test_anti_is_involutive_antihomomorphism(p, q):
    assert anti(anti(p)) == p
    assert anti(p * q) == anti(q) * anti(p)


@given(ncpolys(), ncpolys())
def test_trace_is_cyclic(p, q):
    assert trace(p * q) == trace(q * p)
    assert trace(trace(p)) == trace(p)


@given(ncpolys())
def test_decompose_round_trips(p):
    p = p - coefficient(p, ()) * NCPoly.one(XY)
    px, py = decompose_right(p)
    assert px * X + py * Y == p


@given(ncpolys(), ncpolys(), ncpolys())
def test_lie_bracket_jacobi(a, b, c):
    jac = (
        lie_bracket(a, lie_bracket(b, c))
        + lie_bracket(b, lie_bracket(c, a))
        + lie_bracket(c, lie_bracket(a, b))
    )
    assert jac.is_zero(), jac


# --------------------------------------------------------------------------
# lie_witness against the Dynkin-Specht-Wever reference and against
# shuffle-coproduct primitivity (Friedrichs' criterion)

def _unshuffle_defect(p):
    """Nonstrict part of the coproduct that makes letters primitive:
    returns dict (u, v) -> coeff over nonempty u, v."""
    out = {}
    for w, c in p.terms.items():
        n = len(w)
        for k in range(1, n):
            for positions in itertools.combinations(range(n), k):
                pos = set(positions)
                u = tuple(w[i] for i in range(n) if i in pos)
                v = tuple(w[i] for i in range(n) if i not in pos)
                key = (u, v)
                out[key] = out.get(key, Fraction(0)) + c
                if not out[key]:
                    del out[key]
    return out


@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), st.integers(0, 5)),
                min_size=1, max_size=3),
       st.integers(min_value=2, max_value=5))
@settings(deadline=None)
def test_lie_implies_primitive(combo, w):
    basis = lyndon_basis(w, XY)
    p = NCPoly.zero(XY)
    for c, i in combo:
        p = p + Fraction(c) * basis[i % len(basis)]
    assert dsw_is_lie(p)
    assert _unshuffle_defect(p) == {}, p


@st.composite
def lie_plus_word(draw, alphabet=XY, max_w=5):
    """(p, word): a Lie combination of lyndon_basis(w, alphabet), w <= max_w,
    plus the word when it is not None."""
    w = draw(st.integers(min_value=1, max_value=max_w))
    basis = lyndon_basis(w, alphabet)
    cs = draw(st.lists(coeffs, min_size=len(basis), max_size=len(basis)))
    p = sum((c * b for c, b in zip(cs, basis)), NCPoly.zero(alphabet))
    word = draw(st.none() | st.lists(st.sampled_from(alphabet), min_size=w, max_size=w))
    if word is not None:
        word = tuple(word)
        p = p + NCPoly.from_word(alphabet, word)
    return p, word


def _assert_witness_is_the_remainder(p, got):
    # p minus the witness is Lie, and the reduction left no Lyndon word
    assert dsw_is_lie(p - got), (p, got)
    w = homogeneous_weight(got)
    assert not set(got.terms) & set(lyndon_words(w, p.alphabet)), got


@given(lie_plus_word())
@settings(deadline=None)
def test_non_lie_is_not_primitive(case):
    p, word = case
    lie = word is None or len(word) == 1
    assert (lie_witness(p) is None) == dsw_is_lie(p) == (_unshuffle_defect(p) == {}) == lie, p


@given(lie_plus_word(alphabet=("a", "b", "c"), max_w=4))
@settings(deadline=None, max_examples=60)
def test_lie_witness_matches_dsw_over_three_letters(case):
    p, word = case
    got = lie_witness(p)
    assert (got is None) == dsw_is_lie(p) == (word is None or len(word) == 1), p
    if got is not None:
        _assert_witness_is_the_remainder(p, got)


def test_lie_witness_matches_dsw_on_the_bases():
    for w in range(2, 9):
        elements = dmr_basis(w).elements() + krv_basis(w).elements()
        words = lyndon_words(w, XY)[0], ("y",) + ("x",) * (w - 1)
        for e in elements:
            assert lie_witness(e) is None and dsw_is_lie(e), (w, e)
            for wd in words:
                p = e + NCPoly.from_word(XY, wd)
                got = lie_witness(p)
                assert got is not None and not dsw_is_lie(p), (w, p)
                _assert_witness_is_the_remainder(p, got)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_lyndon_combination_is_the_bracket_sum(w, data):
    basis = lyndon_basis(w, XY)
    cs = data.draw(st.lists(coeffs, min_size=len(basis), max_size=len(basis)))
    want = sum((c * b for c, b in zip(cs, basis)), NCPoly.zero(XY))
    assert lyndon_combination(cs, w, XY) == want


def test_lyndon_combination_needs_one_coordinate_per_bracket():
    assert lyndon_combination([2, 0], 3, XY) == 2 * lyndon_bracketing("xxy", XY)
    with pytest.raises(ValueError, match="lyndon_combination"):
        lyndon_combination([1], 3, XY)


# --------------------------------------------------------------------------
# shuffle and quasi-shuffle of words in plain variables
#
# A word is a tuple of 0-based variable indices.  The quasi-shuffle
# coefficients are rational functions in y_0, y_1, ..., where y_i mirrors
# x_i, held as (num, den) pairs of MultiPoly and compared by
# cross-multiplying.

def shuffle(a, b):
    """Plain shuffle of two words: dict word -> multiplicity.  The
    multiplicities sum to binomial(len(a) + len(b), len(a))."""
    if not a or not b:
        return {a + b: 1}
    out = {}
    for head, tails in ((a[0], shuffle(a[1:], b)), (b[0], shuffle(a, b[1:]))):
        for w, c in tails.items():
            out[(head,) + w] = out.get((head,) + w, 0) + c
    return out


def _q_add(s, t):
    (a, b), (c, d) = s, t
    if b == d:
        return a + c, b
    return a * d + c * b, b * d


def _q_same(s, t):
    return s[0] * t[1] == t[0] * s[1]


def _same_table(s, t):
    return s.keys() == t.keys() and all(_q_same(s[w], t[w]) for w in s)


def quasi_shuffle_star(a, b, nvars):
    """Quasi-shuffle with contractions: dict word -> (num, den).

      u om *sh* v et = u(om *sh* v et) + v(u om *sh* et)
                       + f(u - v) { u(om *sh* et) - v(om *sh* et) }

    with f(0) = 0 and f(x_i - x_j) = 1/(y_i - y_j).  Letters never merge;
    only the coefficients grow."""
    one = MultiPoly.const(nvars, 1)

    def rec(la, lb):
        if not la or not lb:
            return {la + lb: (one, one)}
        u, v = la[0], lb[0]
        parts = [(u, rec(la[1:], lb), one, one), (v, rec(la, lb[1:]), one, one)]
        if u != v:
            inner = rec(la[1:], lb[1:])
            f = MultiPoly.var(nvars, u) - MultiPoly.var(nvars, v)
            parts += [(u, inner, one, f), (v, inner, -one, f)]
        out = {}
        for head, tails, num, den in parts:
            for w, (n, d) in tails.items():
                key, c = (head,) + w, (num * n, den * d)
                out[key] = _q_add(out[key], c) if key in out else c
        return {w: c for w, c in out.items() if not c[0].is_zero()}

    return rec(tuple(a), tuple(b))


def test_shuffle_pins():
    assert shuffle((0,), (1,)) == {(0, 1): 1, (1, 0): 1}
    assert shuffle((0,), (1, 2)) == {(0, 1, 2): 1, (1, 0, 2): 1, (1, 2, 0): 1}
    assert shuffle((), (0, 1)) == {(0, 1): 1}


def test_shuffle_multiplicity():
    # equal letters pile up: (x1) sh (x1) = 2 (x1,x1)
    assert shuffle((0,), (0,)) == {(0, 0): 2}


var_words = st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(tuple)


def _shuffle_tables(ta, tb):
    out = {}
    for wa, ca in ta.items():
        for wb, cb in tb.items():
            for w, c in shuffle(wa, wb).items():
                out[w] = out.get(w, Fraction(0)) + ca * cb * c
                if not out[w]:
                    del out[w]
    return out


@given(var_words, var_words)
def test_shuffle_commutative(a, b):
    assert shuffle(a, b) == shuffle(b, a)


@given(var_words, var_words, var_words)
@settings(deadline=None, max_examples=40)
def test_shuffle_associative(a, b, c):
    left = _shuffle_tables(shuffle(a, b), {c: Fraction(1)})
    right = _shuffle_tables({a: Fraction(1)}, shuffle(b, c))
    assert left == right


@given(var_words, var_words)
def test_shuffle_coefficient_mass(a, b):
    from math import comb
    got = shuffle(a, b)
    assert sum(got.values()) == comb(len(a) + len(b), len(a))


def test_quasi_shuffle_star_depth_one_pair():
    one = MultiPoly.const(2, 1)
    y12 = MultiPoly.var(2, 0) - MultiPoly.var(2, 1)
    got = quasi_shuffle_star((0,), (1,), 2)
    assert _same_table(got, {
        (0, 1): (one, one),
        (1, 0): (one, one),
        (0,): (one, y12),  # 1/(y1 - y2)
        (1,): (-one, y12),
    })


def test_quasi_shuffle_star_f0_is_zero():
    got = quasi_shuffle_star((0,), (0,), 2)
    one = MultiPoly.const(2, 1)
    assert _same_table(got, {(0, 0): (2 * one, one)})


def test_quasi_shuffle_star_unit():
    w = (1, 2)
    one = MultiPoly.const(3, 1)
    assert quasi_shuffle_star((), w, 3) == {w: (one, one)}
    assert quasi_shuffle_star(w, (), 3) == {w: (one, one)}


def test_quasi_shuffle_star_contraction_sign():
    # the contraction of (x2) with (x1) carries 1/(y2 - y1) on x2
    got = quasi_shuffle_star((1,), (0,), 2)
    one = MultiPoly.const(2, 1)
    y12 = MultiPoly.var(2, 0) - MultiPoly.var(2, 1)
    assert _q_same(got[(1,)], (-one, y12))
    assert _q_same(got[(0,)], (one, y12))


@given(var_words, var_words)
@settings(deadline=None, max_examples=60)
def test_quasi_shuffle_star_commutative(a, b):
    assert _same_table(quasi_shuffle_star(a, b, 4), quasi_shuffle_star(b, a, 4))


@given(var_words, var_words)
@settings(deadline=None, max_examples=60)
def test_quasi_shuffle_star_shuffle_part(a, b):
    # dropping every contracted (shorter) word recovers plain shuffle
    full = quasi_shuffle_star(a, b, 4)
    n = len(a) + len(b)
    top = {w: c for w, c in full.items() if len(w) == n}
    sh = shuffle(a, b)
    assert set(top) == set(sh)
    one = MultiPoly.const(4, 1)
    for w, c in sh.items():
        assert _q_same(top[w], (c * one, one)), w


# --------------------------------------------------------------------------
# the shuffle sums as references for alternality and alternility

@st.composite
def split_moulds(draw):
    """A mould of depth n <= 4 and a split p + q = n."""
    n = draw(st.integers(min_value=2, max_value=4))
    p = draw(st.integers(min_value=1, max_value=n - 1))
    comps = {}
    for m in range(1, n + 1):
        exps = st.tuples(*([st.integers(min_value=0, max_value=2)] * m))
        comps[m] = MultiPoly(m, draw(st.dictionaries(exps, coeffs, max_size=3)))
    return Mould.from_components(n, comps), p, n - p


def _evaluate(mo, word, nvars):
    """M^k(x_{word_1}, ..., x_{word_k}) in nvars variables, k = len(word)."""
    forms = [tuple(int(j == i) for j in range(nvars)) for i in word]
    return substitute(mo.component(len(word)), forms, nvars)


@given(split_moulds())
@settings(deadline=None, max_examples=60)
def test_alternality_defect_is_the_shuffle_sum(case):
    mo, p, q = case
    n = p + q
    want = MultiPoly.zero(n)
    for w, c in shuffle(tuple(range(p)), tuple(range(p, n))).items():
        want = want + c * _evaluate(mo, w, n)
    assert alternality_defect(mo, p, q) == want


@given(split_moulds())
@settings(deadline=None, max_examples=100)
def test_alternility_defect_is_the_quasi_shuffle_sum(case):
    # the quasi-shuffle sum at y = x, collected over each denominator
    mo, p, q = case
    n = p + q
    by_den = {}
    for w, (a, b) in quasi_shuffle_star(tuple(range(p)), tuple(range(p, n)), n).items():
        by_den[b] = by_den.get(b, MultiPoly.zero(n)) + a * _evaluate(mo, w, n)
    num, den = MultiPoly.zero(n), MultiPoly.const(n, 1)
    for b, a in by_den.items():
        num, den = _q_add((num, den), (a, b))
    assert alternility_defect(mo, p, q) * den == num
