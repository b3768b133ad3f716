# Lie-algebra membership machinery: the Kashiwara-Vergne side (KV1 linear
# solve, KV2 trace condition), the double shuffle side (the y-alphabet
# projection, star regularization, the coproduct on A_Y and its primitivity
# test), and the graded basis solvers over Lyndon coordinates.

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
    coefficient,
    homogeneous_weight,
    lie_witness,
    lyndon_basis,
    lyndon_combination,
    lyndon_words,
    scale_letter,
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
# the y-alphabet side

def _y_alphabet(n):
    return tuple("y%d" % i for i in range(1, n + 1))


def _max_word_weight(p):
    if p.is_zero():
        return 1
    return max(len(wd) for wd in p.terms) or 1


def pi_Y(p):
    """Kill words ending in x; send x^{a_1} y ... x^{a_m} y to
    (-1)^m y_{a_1+1} ... y_{a_m+1}, order preserved."""
    _check_ncpoly(p, "pi_Y")
    if not set(p.alphabet) <= set(XY):
        raise ValueError("pi_Y needs an alphabet within x, y, got %r" % (p.alphabet,))
    alphabet = _y_alphabet(_max_word_weight(p))
    # the words ending in y (and the empty word) map one to one
    out = {}
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
        out[tuple(letters)] = -c if len(letters) % 2 else c
    return NCPoly._raw(alphabet, out)


def star_regularize(p):
    """p_* = p_corr + pi_Y(p) with
    p_corr = sum_n (-1)^n / n * c_{x^{n-1} y}(p) * y_1^n."""
    _check_ncpoly(p, "star_regularize")
    out = pi_Y(p)
    for k in range(1, _max_word_weight(p) + 1):
        c = coefficient(p, ("x",) * (k - 1) + ("y",))
        if c:
            key = ("y1",) * k
            v = out.terms.get(key, 0) + Fraction(-1 if k % 2 else 1, k) * c
            if v:
                out.terms[key] = v
            else:
                del out.terms[key]
    return out


def _y_index(s):
    if not (isinstance(s, str) and s[:1] == "y" and s[1:].isdigit()):
        raise ValueError("delta_star needs letters y<n>, got %r" % (s,))
    return int(s[1:])


def _word_coproduct(wd, memo):
    """Delta_* of one y-word as {(left word, right word): positive int
    count}, built from the coproduct of its prefix and kept in memo."""
    got = memo.get(wd)
    if got is None:
        if not wd:
            got = {((), ()): 1}
        else:
            n = _y_index(wd[-1])
            splits = [
                (("y%d" % i,) if i else (), ("y%d" % (n - i),) if n - i else ())
                for i in range(n + 1)
            ]
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
    (left word, right word) -> coefficient.

    memo, a dict, holds word coproducts for reuse by later calls; one
    graded solve shares one."""
    _check_ncpoly(p, "delta_star")
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
    _check_ncpoly(p, "primitivity_defect")
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
    the star regularization of the y-flipped element for delta_star
    ({"stage": "primitivity", "defect": its primitivity_defect}).

    The flip y -> -y before regularizing makes the word-level conditions
    match the mould-side characterizations (the senary relation on the associated
    moulds and the alternility of their swaps); without it the two sides
    of the dictionary disagree by a sign on every odd depth."""
    _check_xy(f, "dmr_witness")
    _check_kv_input("dmr_witness", w)
    if f.is_zero():
        return None
    if bad := _weight_lie_witness(f, w):
        return bad
    if c := coefficient(f, ("x", "y")):
        return {"stage": "c_xy", "value": c}
    defect = primitivity_defect(star_regularize(scale_letter(f, "y", -1)))
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
    of {c_xy = 0, primitivity of the flipped star regularization} over the
    Lyndon coordinates of L_w."""
    _check_weight(w)
    words = lyndon_words(w, XY)
    brackets = lyndon_basis(w, XY)
    c_xy = [{("x", "y"): coefficient(b, ("x", "y"))} for b in brackets]
    memo = {}  # word coproducts, shared by the brackets of this solve
    defects = [
        primitivity_defect(star_regularize(scale_letter(b, "y", -1)), memo)
        for b in brackets
    ]
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
