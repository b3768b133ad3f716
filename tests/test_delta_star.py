"""Differential tests for the dmr row build of liealg.py.

delta_star counts the coproduct in integers, expanding the words that
share a first letter together, and star_regularize maps f straight to
y-words, spelled as compositions (tuples of positive ints).  The references
below are the Fraction implementations they replaced: pi_Y and
star_regularize over the letters "y1", "y2", ..., applied after the flip
y -> -y (scale_letter), and delta_star over int letters, word by word.
Every case must agree with them exactly, and so must the one-letter-left
rows that dmr_basis solves on first.  The input checks must hold under
python -O too."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mouldkit import kernel, liealg
from mouldkit.liealg import (
    _left_letter_defect,
    delta_star,
    dmr_basis,
    primitivity_defect,
    star_regularize,
)
from mouldkit.ncword import NCPoly, coefficient, lyndon_basis, lyndon_combination
from test_ncword import scale_letter

XY = ("x", "y")
Y7 = tuple(range(1, 8))


# -- references: the Fraction implementations ---------------------------------


def _y_alphabet(p):
    n = max(map(len, p.terms), default=0) or 1
    return tuple("y%d" % i for i in range(1, n + 1))


def reference_pi_Y(p):
    """Kill words ending in x; send x^{a_1} y ... x^{a_m} y to
    (-1)^m y_{a_1+1} ... y_{a_m+1}, order preserved."""
    assert isinstance(p, NCPoly), p
    assert set(p.alphabet) <= {"x", "y"}, p.alphabet
    alphabet = _y_alphabet(p)
    out = NCPoly.zero(alphabet)
    for wd, c in p.terms.items():
        if wd and wd[-1] == "x":
            continue
        letters = []
        run = 0
        for s in wd:
            if s == "x":
                run += 1
            else:
                letters.append("y%d" % (run + 1))
                run = 0
        sign = -1 if len(letters) % 2 else 1
        out = out + NCPoly.from_word(alphabet, tuple(letters), sign * c)
    return out


def reference_star_regularize(p):
    """p_* = p_corr + pi_Y(p) with
    p_corr = sum_n (-1)^n / n * c_{x^{n-1} y}(p) * y_1^n."""
    assert isinstance(p, NCPoly), p
    alphabet = _y_alphabet(p)
    out = reference_pi_Y(p)
    for k in range(1, len(alphabet) + 1):
        c = coefficient(p, ("x",) * (k - 1) + ("y",))
        if c:
            sign = -1 if k % 2 else 1
            out = out + NCPoly.from_word(
                alphabet, ("y1",) * k, Fraction(sign, k) * c
            )
    return out


def int_letters(p):
    """Relabel the letters "y<n>" of p as the ints n."""
    return NCPoly(
        tuple(int(a[1:]) for a in p.alphabet),
        {tuple(int(a[1:]) for a in wd): c for wd, c in p.terms.items()},
    )


def reference_dmr_regularize(f):
    """The star regularization of f(x, -y), by the three passes it took
    before: flip y, project to y-words, regularize; int letters."""
    return int_letters(reference_star_regularize(scale_letter(f, "y", -1)))


def reference_delta_star(p):
    """The coproduct with Delta(y_n) = sum_i y_i (x) y_{n-i}, y_0 = 1,
    extended multiplicatively to words and linearly; returned as a mapping
    (left word, right word) -> coefficient."""
    assert isinstance(p, NCPoly), p
    out = {}
    for wd, c in p.terms.items():
        pairs = {((), ()): Fraction(1)}
        for n in wd:
            assert type(n) is int and n >= 1, n
            grown = {}
            for (left, right), cc in pairs.items():
                for i in range(n + 1):
                    nl = left + (i,) if i else left
                    nr = right + (n - i,) if n - i else right
                    key = (nl, nr)
                    grown[key] = grown.get(key, Fraction(0)) + cc
            pairs = grown
        for key, cc in pairs.items():
            v = out.get(key, Fraction(0)) + c * cc
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def reference_primitivity_defect(p):
    """reference_delta_star(p) - p (x) 1 - 1 (x) p."""
    out = reference_delta_star(p)
    for wd, c in p.terms.items():
        for key in ((wd, ()), ((), wd)):
            v = out.get(key, Fraction(0)) - c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


# -- strategies ---------------------------------------------------------------


def rationals():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _y_word(parts):
    # keep the longest prefix of weight at most 7
    word, weight = [], 0
    for n in parts:
        if weight + n > 7:
            break
        word.append(n)
        weight += n
    return tuple(word)


y_words = st.lists(st.integers(1, 7), max_size=7).map(_y_word)
y_polys = st.dictionaries(y_words, rationals(), max_size=6).map(
    lambda terms: NCPoly(Y7, terms)
)
xy_polys = st.dictionaries(
    st.lists(st.sampled_from(XY), max_size=7).map(tuple), rationals(), max_size=8
).map(lambda terms: NCPoly(XY, terms))
# dense y-polynomials: the star regularization of a random Lie element of
# weight 7, which has a term on almost every composition of 7
L7 = len(lyndon_basis(7, XY))
dense_polys = st.lists(rationals(), min_size=L7, max_size=L7).map(
    lambda cs: star_regularize(lyndon_combination(cs, 7, XY))
)


# -- differential tests -------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(y_polys)
def test_delta_star_matches_fraction_reference(p):
    assert delta_star(p) == reference_delta_star(p)


@settings(deadline=None, max_examples=100)
@given(st.one_of(y_polys, dense_polys))
def test_primitivity_defect_matches_fraction_reference(p):
    assert primitivity_defect(p) == reference_primitivity_defect(p)


@settings(deadline=None, max_examples=100)
@given(st.one_of(y_polys, dense_polys))
def test_left_letter_defect_is_the_one_letter_left_part(p):
    # dmr_basis's first solve is a subset of the full rows because of this
    want = {
        (left, right): c
        for (left, right), c in reference_delta_star(p).items()
        if len(left) == 1 and right
    }
    assert _left_letter_defect(p) == want


@settings(deadline=None, max_examples=200)
@given(xy_polys)
@example(NCPoly(XY, {(): 3, ("y",): 2, ("x", "y"): -1, ("x", "x", "x", "x", "x", "x", "y"): 5,
                     ("y", "x"): 1}))
def test_pi_y_and_star_regularize_match_fraction_reference(p):
    # words of length up to 7, the empty word (a constant term) included
    got = star_regularize(p)
    want = reference_dmr_regularize(p)
    assert got == want and list(got.terms) == list(want.terms)


def test_dmr_basis_falls_back_to_full_rows(monkeypatch):
    # with no one-letter-left rows the first kernel is too big, so the
    # certificate fails and the full rows are solved: two kernels, same basis
    want = {w: dmr_basis(w) for w in range(4, 9)}
    calls = []
    real = kernel._kernel

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernel, "_kernel", counting)
    monkeypatch.setattr(liealg, "_left_letter_defect", lambda p: {})
    for w, basis in want.items():
        calls.clear()
        assert dmr_basis(w) == basis
        assert len(calls) == 2, w


# -- input validation survives python -O --------------------------------------


def test_delta_star_rejects_bad_input():
    with pytest.raises(TypeError):
        delta_star({(1,): 1})
    with pytest.raises(ValueError):
        delta_star(NCPoly.from_word(XY, ("x", "y")))
    with pytest.raises(ValueError):
        delta_star(NCPoly.from_word(("y1",), ("y1",)))
    for letter in (0, -1, True, 1.0):
        with pytest.raises(ValueError, match="int letters"):
            delta_star(NCPoly.from_word((letter,), (letter,)))


def test_star_regularize_rejects_bad_input():
    with pytest.raises(TypeError):
        star_regularize("xy")
    with pytest.raises(ValueError):
        star_regularize(NCPoly.from_word(("x", "y", "z"), ("x", "y")))
    with pytest.raises(ValueError):
        star_regularize(NCPoly.from_word(("x", "z"), ("x",)))
    with pytest.raises(ValueError):
        star_regularize(NCPoly.from_word((1, 2), (2,)))


def test_primitivity_defect_rejects_bad_input():
    with pytest.raises(TypeError):
        primitivity_defect(None)
    with pytest.raises(TypeError):
        star_regularize(None)
    with pytest.raises(ValueError, match="primitivity_defect"):
        primitivity_defect(NCPoly.from_word((1, "y2"), ("y2",)))


def test_validation_is_kept_under_optimize():
    src = Path(liealg.__file__).resolve().parents[1]
    script = (
        "from mouldkit.liealg import delta_star, primitivity_defect, star_regularize\n"
        "from mouldkit.ncword import NCPoly\n"
        "checks = [lambda: delta_star({(1,): 1}),\n"
        "          lambda: delta_star(NCPoly.from_word(('x', 'y'), ('x',))),\n"
        "          lambda: delta_star(NCPoly.from_word((0,), (0,))),\n"
        "          lambda: delta_star(NCPoly.from_word((True,), (True,))),\n"
        "          lambda: delta_star(NCPoly.from_word(('y1',), ('y1',))),\n"
        "          lambda: primitivity_defect(NCPoly.from_word((1, 0), (0,))),\n"
        "          lambda: primitivity_defect(NCPoly.from_word((True,), (True,))),\n"
        "          lambda: primitivity_defect(NCPoly.from_word(('y1',), ('y1',))),\n"
        "          lambda: star_regularize('xy'),\n"
        "          lambda: star_regularize(NCPoly.from_word(('x', 'z'), ('z',))),\n"
        "          lambda: primitivity_defect([])]\n"
        "for check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except (TypeError, ValueError):\n"
        "        continue\n"
        "    raise SystemExit('accepted bad input')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
