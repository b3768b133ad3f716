# The polynomial-to-mould dictionary: vimo coefficient tables, the
# associated mould ma, and the change of variables between F and f-tilde.

from fractions import Fraction
from math import lcm

from .kernel import MultiPoly, substitute
from .mould import Mould
from .ncword import XY, NCPoly, _check_xy, _word_exponents, homogeneous_weight


def _signed_word_map(p, y_sign):
    """p(-x + y_sign*y, -y).  Every image word has coefficient +-1, so the
    words are expanded letter by letter as integer counts over the common
    denominator of p's coefficients, with one Fraction per output word."""
    images = {"x": (("x", -1), ("y", y_sign)), "y": (("y", -1),)}
    d = lcm(*(c.denominator for c in p.terms.values()))
    acc = {}
    for wd, c in p.terms.items():
        part = {(): c.numerator * (d // c.denominator)}
        for a in wd:
            img = images[a]
            part = {o + (b,): s * v for o, v in part.items() for b, s in img}
        for o, v in part.items():
            acc[o] = acc.get(o, 0) + v
    return NCPoly._raw(XY, {o: Fraction(v, d) for o, v in acc.items() if v})


def F_to_ftilde(F):
    """F(x, y) -> F(-x + y, -y)."""
    _check_xy(F, "F_to_ftilde")
    return _signed_word_map(F, 1)


def ftilde_to_F(f):
    """Inverse change of variables: f(x, y) -> f(-x - y, -y)."""
    _check_xy(f, "ftilde_to_F")
    return _signed_word_map(f, -1)


def vimo(h, r):
    """The commutative image of the depth-r part of h: the word
    x^{e_0} y ... y x^{e_r} contributes a_e z_0^{e_0} ... z_r^{e_r}."""
    _check_xy(h, "vimo")
    if not (isinstance(r, int) and r >= 0):
        raise ValueError("vimo depth must be a nonnegative int, got %r" % (r,))
    if h.is_zero():
        return MultiPoly.zero(r + 1)
    w = homogeneous_weight(h)
    if r > w:
        raise ValueError("vimo depth %d exceeds the weight %d" % (r, w))
    return MultiPoly._raw(r + 1, {_word_exponents(wd): c
                                  for wd, c in h.terms.items() if wd.count("y") == r})


def ma(h):
    """The associated mould: ma^0 = 0 and
    ma^r(u_1..u_r) = vimo^r(0, u_1, u_1+u_2, ..., u_1+...+u_r),
    extended linearly to inhomogeneous input, with depth the length of the
    longest word of h.  substitute is linear, so the words of every weight
    go to one polynomial per y-count r, which gets the forms once."""
    _check_xy(h, "ma")
    by_depth = {}
    for wd, c in h.terms.items():
        e = _word_exponents(wd)
        by_depth.setdefault(len(e) - 1, {})[e] = c
    depth = max(map(len, h.terms), default=0)
    comps = {}
    for r in range(1, depth + 1):
        # z_0 = 0, z_k = u_1 + ... + u_k
        forms = [(0,) * r] + [(1,) * k + (0,) * (r - k) for k in range(1, r + 1)]
        comps[r] = substitute(MultiPoly._raw(r + 1, by_depth.get(r, {})), forms, r)
    return Mould.from_components(depth, comps)
