# Lie-algebra membership machinery: the Kashiwara-Vergne side (KV1 linear
# solve, KV2 trace condition), the double shuffle side (star regularization
# of f(x, -y) straight onto y-words, the coproduct on A_Y and its
# primitivity test), and the graded basis solvers over Lyndon coordinates.
#
# A y-word is a composition, a tuple of positive ints.  The flip y -> -y
# that dmr membership applies before regularizing lives in star_regularize:
# its sign (-1)^m on a word with m letters y cancels the (-1)^m of the
# projection to y-words, so no separate pass flips or projects.

from fractions import Fraction
from itertools import product
from math import lcm

from .kernel import NoSolution, RatMatrix, _primitive, nullspace, rat
from .ncword import (
    XY,
    NCPoly,
    NotHomogeneous,
    _check_ncpoly,
    _check_xy,
    _word_exponents,
    coefficient,
    homogeneous_weight,
    lie_witness,
    lyndon_basis,
    lyndon_combination,
    lyndon_words,
    trace,
)

# graded solves beyond this weight are refused rather than attempted; the
# bound is generous for desk scale (the acceptance runs stop at weight 8)
WEIGHT_BOUND = 12


class WeightTooSmall(ValueError):
    pass


class WeightBoundError(ValueError):
    pass


class SubspaceBasis:
    """Exact basis of a graded subspace of L_w in Lyndon coordinates."""

    __slots__ = ("weight", "ambient", "vectors")

    def __init__(self, weight, ambient, vectors):
        self.weight = weight
        self.ambient = tuple(tuple(wd) for wd in ambient)
        self.vectors = [tuple(rat(c) for c in v) for v in vectors]
        for v in self.vectors:
            if len(v) != len(self.ambient):
                raise ValueError("basis vector of length %d in a %d-word ambient"
                                 % (len(v), len(self.ambient)))

    @property
    def dimension(self):
        return len(self.vectors)

    def elements(self):
        """Materialize the basis vectors as Lie polynomials."""
        return [lyndon_combination(v, self.weight, XY) for v in self.vectors]

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return (
            self.weight == other.weight
            and self.ambient == other.ambient
            and self.vectors == other.vectors
        )

    __hash__ = None

    def __repr__(self):
        return "SubspaceBasis(weight=%d, dim=%d)" % (self.weight, self.dimension)


# ---------------------------------------------------------------------------
# word-coordinate linear solves

def _check_kv_input(name, w, *polys):
    """Refuse input that is not an NCPoly over ("x", "y"), w <= 1, and a
    nonzero poly not of weight w."""
    for p in polys:
        _check_xy(p, name)
    if w <= 1:
        raise WeightTooSmall("%s needs weight > 1, got %r" % (name, w))
    for p in polys:
        if not p.is_zero() and homogeneous_weight(p) != w:
            raise ValueError("%s needs polynomials of weight %d" % (name, w))


def _ad_letter(a, terms):
    """The terms of [a, p] = a p - p a for a letter a and p's terms."""
    out = {(a,) + wd: c for wd, c in terms.items()}
    for wd, c in terms.items():
        out[wd + (a,)] = out.get(wd + (a,), 0) - c
    return {k: c for k, c in out.items() if c}


def solve_G(F, w):
    """The unique Lie G of weight w with [x,G] + [y,F] = 0, or NoSolution.

    With H = -[y, F], comparing coefficients of xG - Gx = H gives
    G_u = H_{xu} + [u ends in x] G_{x u[:-1]}, read off H in one pass.
    Every word of H has a y, so x^w, the one word the equation leaves free,
    stays 0, as in every Lie element of weight w >= 2.  Two exact checks
    decide the answer: [x, G] = H, and G is Lie (lie_witness).  ad(x) is
    injective on L_w for w > 1, so G is canonical; for w <= 1 uniqueness
    genuinely fails and the call is refused."""
    _check_kv_input("solve_G", w, F)
    H = {k: -c for k, c in _ad_letter("y", F.terms).items()}
    G = {}
    for h, c in H.items():
        if h[0] == "x":
            u = h[1:]
            for j in range(u.index("y") + 1):
                k = u[j:] + ("x",) * j
                G[k] = G.get(k, 0) + c
    G = NCPoly._raw(XY, {k: c for k, c in G.items() if c})
    if _ad_letter("x", G.terms) != H or lie_witness(G) is not None:
        return NoSolution("inconsistent linear system")
    return G


def _ending(p, a):
    """p_a * a for p = sum_a p_a * a (decompose_right): the words of p that
    end in the letter a."""
    return NCPoly._raw(XY, {wd: c for wd, c in p.terms.items() if wd[-1] == a})


def _kv2_target(w):
    """tr((x+y)^w - x^w - y^w): the trace of every word of length w that
    has both letters."""
    words = product(XY, repeat=w)
    return trace(NCPoly._raw(XY, {wd: Fraction(1) for wd in words if len(set(wd)) == 2}))


def kv2_check(F, G, w):
    """Solve tr(G_x x + F_y y) = alpha * tr((x+y)^w - x^w - y^w) exactly.

    Both sides live in the cyclic-word quotient; the right-hand trace is
    nonzero for every w > 1, which pins alpha uniquely."""
    _check_kv_input("kv2_check", w, F, G)
    lhs = trace(_ending(G, "x") + _ending(F, "y"))
    rhs = _kv2_target(w)
    key = min(rhs.terms)
    alpha = lhs.terms.get(key, Fraction(0)) / rhs.terms[key]
    if lhs == alpha * rhs:
        return alpha
    return NoSolution("traces are not proportional")


def _weight_lie_witness(p, w):
    """The stages krv and dmr membership share: weight w, then Lie."""
    try:
        if homogeneous_weight(p) != w:
            return {"stage": "weight"}
    except NotHomogeneous:
        return {"stage": "weight"}
    return None if lie_witness(p) is None else {"stage": "lie"}


def krv_witness(F, w):
    """None when F lies in krv_w, else the first failed stage of weight w,
    Lie, KV1, KV2 as {"stage": "weight"|"lie"|"kv1"|"kv2"}."""
    _check_xy(F, "krv_witness")
    _check_kv_input("krv_witness", w)
    if F.is_zero():
        return None
    if bad := _weight_lie_witness(F, w):
        return bad
    G = solve_G(F, w)
    if isinstance(G, NoSolution):
        return {"stage": "kv1"}
    if isinstance(kv2_check(F, G, w), NoSolution):
        return {"stage": "kv2"}
    return None


# ---------------------------------------------------------------------------
# the y-word side: y_{n_1} ... y_{n_m} is the composition (n_1, ..., n_m)

def star_regularize(f):
    """The star regularization of f(x, -y), an NCPoly over the int letters
    1..n for n the longest word length of f.  A word x^{a_1} y ... x^{a_m} y
    maps to (a_1+1, ..., a_m+1) with f's own coefficient: the flip y -> -y
    and the (-1)^m of the projection to y-words cancel.  Words ending in x
    are dropped.  The coefficient c of x^{k-1} y also adds
    (-1)^{k+1} / k * c on the word (1,) * k."""
    _check_xy(f, "star_regularize")
    out = {}
    for wd, c in f.terms.items():
        e = _word_exponents(wd)
        if not e[-1]:
            out[tuple(a + 1 for a in e[:-1])] = c
    n = max(map(len, f.terms), default=0) or 1
    for k in range(1, n + 1):
        c = f.terms.get(("x",) * (k - 1) + ("y",))
        if c:
            key = (1,) * k
            v = out.get(key, 0) + Fraction(1 if k % 2 else -1, k) * c
            if v:
                out[key] = v
            else:
                del out[key]
    return NCPoly._raw(tuple(range(1, n + 1)), out)


def _check_compositions(p, name):
    """Refuse anything but an NCPoly whose letters are ints n >= 1; bool is
    not an int letter."""
    _check_ncpoly(p, name)
    if not all(type(n) is int and n >= 1 for n in p.alphabet):
        raise ValueError("%s needs int letters n >= 1, got %r" % (name, p.alphabet))


def _word_coproduct(wd, memo):
    """Delta_* of one y-word as {(left word, right word): positive int
    count}, built from the coproduct of its prefix and kept in memo."""
    got = memo.get(wd)
    if got is None:
        if not wd:
            got = {((), ()): 1}
        else:
            n = wd[-1]
            splits = [((i,) if i else (), (n - i,) if n - i else ())
                      for i in range(n + 1)]
            got = {}
            for (left, right), k in _word_coproduct(wd[:-1], memo).items():
                for a, b in splits:
                    key = (left + a, right + b)
                    got[key] = got.get(key, 0) + k
        memo[wd] = got
    return got


def delta_star(p, memo=None):
    """The coproduct with Delta(y_n) = sum_i y_i (x) y_{n-i}, y_0 = 1,
    extended multiplicatively to words and linearly; returned as a mapping
    (left word, right word) -> coefficient.  p is an NCPoly over int
    letters, the letter n standing for y_n.

    memo, a dict, holds word coproducts for reuse by later calls; one
    graded solve shares one."""
    _check_compositions(p, "delta_star")
    if memo is None:
        memo = {}
    # integer numerators over the common denominator of p's coefficients
    d = lcm(*(c.denominator for c in p.terms.values()))
    acc = {}
    for wd, c in p.terms.items():
        a = c.numerator * (d // c.denominator)
        for key, k in _word_coproduct(wd, memo).items():
            acc[key] = acc.get(key, 0) + a * k
    return {key: Fraction(v, d) for key, v in acc.items() if v}


def primitivity_defect(p, memo=None):
    """delta_star(p) - p (x) 1 - 1 (x) p, as the same kind of mapping."""
    _check_compositions(p, "primitivity_defect")
    out = delta_star(p, memo)
    for wd, c in p.terms.items():
        for key in ((wd, ()), ((), wd)):
            v = out.get(key, Fraction(0)) - c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def dmr_witness(f, w):
    """None when f lies in dmr_w, else the first failed stage of weight w,
    Lie, c_{xy} = 0 ({"stage": "c_xy", "value": c_xy}) and primitivity of
    star_regularize(f) for delta_star ({"stage": "primitivity", "defect":
    its primitivity_defect}, keyed by pairs of compositions).

    star_regularize regularizes f(x, -y), not f: the flip y -> -y makes the
    word-level conditions match the mould-side characterizations (the
    senary relation on the associated moulds and the alternility of their
    swaps); without it the two sides of the dictionary disagree by a sign
    on every odd depth.  The flip costs no pass of its own, because its sign
    cancels against that of the projection to y-words."""
    _check_xy(f, "dmr_witness")
    _check_kv_input("dmr_witness", w)
    if f.is_zero():
        return None
    if bad := _weight_lie_witness(f, w):
        return bad
    if c := coefficient(f, ("x", "y")):
        return {"stage": "c_xy", "value": c}
    defect = primitivity_defect(star_regularize(f))
    return {"stage": "primitivity", "defect": defect} if defect else None


# ---------------------------------------------------------------------------
# graded bases

def _check_weight(w):
    if not 2 <= w:
        raise WeightBoundError("graded solve needs weight >= 2, got %r" % (w,))
    if w > WEIGHT_BOUND:
        raise WeightBoundError(
            "weight %d exceeds the configured bound %d" % (w, WEIGHT_BOUND)
        )


def dmr_basis(w):
    """Basis of the weight-w double shuffle component, by exact nullspace
    of {c_xy = 0, primitivity of star_regularize} over the Lyndon
    coordinates of L_w."""
    _check_weight(w)
    words = lyndon_words(w, XY)
    brackets = lyndon_basis(w, XY)
    c_xy = [{("x", "y"): coefficient(b, ("x", "y"))} for b in brackets]
    memo = {}  # word coproducts, shared by the brackets of this solve
    defects = [primitivity_defect(star_regularize(b), memo) for b in brackets]
    vectors = nullspace(RatMatrix(len(brackets), c_xy, defects))
    return SubspaceBasis(w, words, vectors)


def krv_basis(w):
    """Basis of the weight-w Kashiwara-Vergne component.

    KV1 and KV2 are jointly linear in (F, G, alpha), so the graded piece is
    one nullspace over the doubled Lyndon coordinates plus the alpha column,
    projected back to F (the projection is injective: F = 0 forces G = 0 by
    ad(x) injectivity and then alpha = 0 against the nonzero target trace)."""
    _check_weight(w)
    words = lyndon_words(w, XY)
    brackets = lyndon_basis(w, XY)
    n = len(brackets)

    # columns F (n), G (n), alpha (1)
    # KV1: [y, F] + [x, G] = 0, and alpha does not enter
    kv1 = [_ad_letter("y", b.terms) for b in brackets]
    kv1 += [_ad_letter("x", b.terms) for b in brackets]
    # KV2: tr(G_x x + F_y y) - alpha tr((x+y)^w - x^w - y^w) = 0
    kv2 = [trace(_ending(b, "y")).terms for b in brackets]
    kv2 += [trace(_ending(b, "x")).terms for b in brackets]
    target = _kv2_target(w)
    joint = nullspace(RatMatrix(2 * n + 1, kv1 + [{}], kv2 + [(-target).terms]))
    vectors = [_primitive(v[:n]) for v in joint]
    return SubspaceBasis(w, words, vectors)


def fil2_dimension(elements):
    """Dimension of the subspace of span(elements) whose depth-1 part
    (words with exactly one y) vanishes; elements must be independent."""
    depth1 = [
        {wd: c for wd, c in p.terms.items() if wd.count("y") == 1}
        for p in elements
    ]
    return len(nullspace(RatMatrix(len(elements), depth1)))
