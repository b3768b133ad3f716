# The polynomial-to-mould dictionary: vimo coefficient tables, the
# associated mould ma, and the change of variables between F and f-tilde.

from fractions import Fraction

from .kernel import MultiPoly, rat, substitute
from .mould import Mould
from .ncword import NCPoly, _weight_parts, homogeneous_weight

XY = ("x", "y")


def ncsubstitute(p, images):
    """Algebra-map substitution: every letter of p is replaced by its image,
    words multiply out noncommutatively.  All images must share an alphabet,
    which becomes the output alphabet."""
    assert isinstance(p, NCPoly), p
    target = None
    for s in p.alphabet:
        img = images[s]
        assert isinstance(img, NCPoly), (s, img)
        if target is None:
            target = img.alphabet
        assert img.alphabet == target, (img.alphabet, target)
    if target is None:
        target = p.alphabet
    out = NCPoly.zero(target)
    for wd, c in p.terms.items():
        term = c * NCPoly.one(target)
        for s in wd:
            term = term * images[s]
        out = out + term
    return out


def F_to_ftilde(F):
    """F(x, y) -> F(-x + y, -y)."""
    assert isinstance(F, NCPoly), F
    x = NCPoly.letter(XY, "x")
    y = NCPoly.letter(XY, "y")
    return ncsubstitute(F, {"x": -1 * x + y, "y": -1 * y})


def ftilde_to_F(f):
    """Inverse change of variables: f(x, y) -> f(-x - y, -y)."""
    assert isinstance(f, NCPoly), f
    x = NCPoly.letter(XY, "x")
    y = NCPoly.letter(XY, "y")
    return ncsubstitute(f, {"x": -1 * x - y, "y": -1 * y})


def _word_exponents(wd):
    """x-run lengths around the y letters: x^{e_0} y x^{e_1} ... y x^{e_r}
    maps to (e_0, ..., e_r)."""
    runs = [0]
    for s in wd:
        if s == "x":
            runs[-1] += 1
        else:
            assert s == "y", s
            runs.append(0)
    return tuple(runs)


class CoeffTable:
    """Depth-indexed coefficient view of a homogeneous polynomial: by_depth
    maps r to {(e_0..e_r): a_e} over the words with exactly r letters y."""

    __slots__ = ("weight", "by_depth")

    def __init__(self, weight, by_depth):
        self.weight = weight
        self.by_depth = {}
        for r, table in by_depth.items():
            clean = {}
            for e, c in table.items():
                e = tuple(e)
                if len(e) != r + 1 or sum(e) != weight - r:
                    raise ValueError(
                        "depth %d exponents %r need length %d and sum %d"
                        % (r, e, r + 1, weight - r)
                    )
                c = rat(c)
                if c:
                    clean[e] = c
            if clean:
                self.by_depth[r] = clean

    @classmethod
    def from_poly(cls, h):
        assert isinstance(h, NCPoly), h
        assert not h.is_zero(), "coefficient table of the zero polynomial"
        w = homogeneous_weight(h)
        by_depth = {}
        for wd, c in h.terms.items():
            e = _word_exponents(wd)
            by_depth.setdefault(len(e) - 1, {})[e] = c
        return cls(w, by_depth)

    def depths(self):
        return sorted(self.by_depth)


def vimo(h, r):
    """The commutative image of the depth-r part of h: the word
    x^{e_0} y ... y x^{e_r} contributes a_e z_0^{e_0} ... z_r^{e_r}."""
    if not isinstance(h, NCPoly):
        raise TypeError("vimo needs an NCPoly, got %s" % type(h).__name__)
    if not (isinstance(r, int) and r >= 0):
        raise ValueError("vimo depth must be a nonnegative int, got %r" % (r,))
    if h.is_zero():
        return MultiPoly.zero(r + 1)
    w = homogeneous_weight(h)
    if r > w:
        raise ValueError("vimo depth %d exceeds the weight %d" % (r, w))
    table = CoeffTable.from_poly(h)
    return MultiPoly(r + 1, table.by_depth.get(r, {}))


def _ma_homogeneous(h, w):
    comps = [Fraction(0)]
    table = CoeffTable.from_poly(h)
    for r in range(1, w + 1):
        poly = MultiPoly(r + 1, table.by_depth.get(r, {}))
        # z_0 = 0, z_k = u_1 + ... + u_k
        forms = [(0,) * r]
        for k in range(1, r + 1):
            forms.append((1,) * k + (0,) * (r - k))
        comps.append(substitute(poly, forms, r))
    return Mould(comps)


def ma(h):
    """The associated mould: ma^0 = 0 and
    ma^r(u_1..u_r) = vimo^r(0, u_1, u_1+u_2, ..., u_1+...+u_r),
    extended weight-componentwise to inhomogeneous input."""
    assert isinstance(h, NCPoly), h
    out = Mould.zero(0)
    for w, part in _weight_parts(h).items():
        if w == 0:
            continue
        out = out + _ma_homogeneous(part, w)
    return out

