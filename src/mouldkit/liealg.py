# Lie-algebra membership machinery: the tangential/special derivation side
# (KV1 linear solve, KV2 trace condition), the double shuffle side (the
# y-alphabet projection, star regularization, the coproduct on A_Y and its
# primitivity test), and the graded basis solvers over Lyndon coordinates.

from fractions import Fraction
from math import lcm

from .kernel import (
    NoSolution,
    RatMatrix,
    _primitive,
    column_rows,
    nullspace,
    rat,
    solve_linear,
)
from .ncword import (
    NCPoly,
    NotHomogeneous,
    _weight_parts,
    coefficient,
    decompose_right,
    homogeneous_weight,
    is_lie,
    lie_bracket,
    lyndon_basis,
    lyndon_words,
    scale_letter,
    trace,
)

XY = ("x", "y")

# graded solves beyond this weight are refused rather than attempted; the
# bound is generous for desk scale (the acceptance runs stop at weight 8)
WEIGHT_BOUND = 12


class WeightTooSmall(ValueError):
    pass


class WeightBoundError(ValueError):
    pass


class TangentialData:
    """A derivation of the free Lie algebra given by its values on the two
    generators.  Tangentiality and speciality are predicates on this data,
    not invariants of the container."""

    __slots__ = ("value_on_x", "value_on_y")

    def __init__(self, value_on_x, value_on_y):
        assert isinstance(value_on_x, NCPoly), value_on_x
        assert isinstance(value_on_y, NCPoly), value_on_y
        self.value_on_x = value_on_x
        self.value_on_y = value_on_y

    def __eq__(self, other):
        if not isinstance(other, TangentialData):
            return NotImplemented
        return (
            self.value_on_x == other.value_on_x
            and self.value_on_y == other.value_on_y
        )

    __hash__ = None

    def __repr__(self):
        return "TangentialData(x -> %r, y -> %r)" % (
            self.value_on_x,
            self.value_on_y,
        )


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
        brackets = lyndon_basis(self.weight, XY)
        out = []
        for v in self.vectors:
            p = NCPoly.zero(XY)
            for c, b in zip(v, brackets):
                if c:
                    p = p + c * b
            out.append(p)
        return out

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
    """Refuse non-NCPoly input, w <= 1, and a nonzero poly not of weight w."""
    for p in polys:
        _check_ncpoly(p, name)
    if w <= 1:
        raise WeightTooSmall("%s needs weight > 1, got %r" % (name, w))
    for p in polys:
        if not p.is_zero() and homogeneous_weight(p) != w:
            raise ValueError("%s needs polynomials of weight %d" % (name, w))


def _solve_in_span(columns, target):
    """Coefficients c with sum c_j columns_j = target, or NoSolution."""
    rows = column_rows([p.terms for p in columns] + [target.terms])
    n = len(columns)
    return solve_linear(RatMatrix.from_rows([r[:n] for r in rows], n),
                        [r[n] for r in rows])


def solve_G(F, w):
    """The unique Lie G of weight w with [x,G] + [y,F] = 0, or NoSolution.

    ad(x) is injective on L_w for w > 1, so the exact linear solve over the
    Lyndon coordinates of L_w is canonical; for w <= 1 uniqueness genuinely
    fails and the call is refused."""
    _check_kv_input("solve_G", w, F)
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


def is_sder(d):
    """Tangential (each value is a bracket of the matching generator with
    some Lie element) and killing x + y."""
    assert isinstance(d, TangentialData), d
    if not (d.value_on_x + d.value_on_y).is_zero():
        return False
    for sym, val in (("x", d.value_on_x), ("y", d.value_on_y)):
        if val.is_zero():
            continue
        gen = NCPoly.letter(XY, sym)
        for k, part in _weight_parts(val).items():
            # [gen, L_{k-1}] is the only source of weight-k tangential values
            if k < 2:
                return False
            columns = [lie_bracket(gen, b) for b in lyndon_basis(k - 1, XY)]
            if isinstance(_solve_in_span(columns, part), NoSolution):
                return False
    return True


def kv2_check(F, G, w):
    """Solve tr(G_x x + F_y y) = alpha * tr((x+y)^w - x^w - y^w) exactly.

    Both sides live in the cyclic-word quotient; the right-hand trace is
    nonzero for every w > 1, which pins alpha uniquely."""
    _check_kv_input("kv2_check", w, F, G)
    x = NCPoly.letter(XY, "x")
    y = NCPoly.letter(XY, "y")
    G_x = decompose_right(G)[0]
    F_y = decompose_right(F)[1]
    lhs = trace(G_x * x + F_y * y)
    rhs = trace((x + y) ** w - x ** w - y ** w)
    if rhs.is_zero():
        if lhs.is_zero():
            return Fraction(0)
        return NoSolution("zero target trace with nonzero left side")
    key = min(rhs.terms)
    alpha = lhs.terms.get(key, Fraction(0)) / rhs.terms[key]
    if lhs == alpha * rhs:
        return alpha
    return NoSolution("traces are not proportional")


def _lie_witness(p, w):
    """The stages krv and dmr membership share: weight w, then Lie."""
    try:
        if homogeneous_weight(p) != w:
            return {"stage": "weight"}
    except NotHomogeneous:
        return {"stage": "weight"}
    return None if is_lie(p) else {"stage": "lie"}


def krv_witness(F, w):
    """None when F lies in krv_w, else the first failed stage of weight w,
    Lie, KV1, KV2 as {"stage": "weight"|"lie"|"kv1"|"kv2"}."""
    _check_ncpoly(F, "krv_witness")
    _check_kv_input("krv_witness", w)
    if F.is_zero():
        return None
    if bad := _lie_witness(F, w):
        return bad
    G = solve_G(F, w)
    if isinstance(G, NoSolution):
        return {"stage": "kv1"}
    if isinstance(kv2_check(F, G, w), NoSolution):
        return {"stage": "kv2"}
    return None


def is_krv(F, w):
    """Lie, KV1 solvable, and KV2 proportional."""
    return krv_witness(F, w) is None


# ---------------------------------------------------------------------------
# the y-alphabet side

def _y_alphabet(n):
    return tuple("y%d" % i for i in range(1, n + 1))


def _max_word_weight(p):
    # on the x,y alphabet every letter has weight 1
    if p.is_zero():
        return 1
    return max(len(wd) for wd in p.terms) or 1


def _check_ncpoly(p, name):
    if not isinstance(p, NCPoly):
        raise TypeError("%s needs an NCPoly, got %s" % (name, type(p).__name__))


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
    _check_ncpoly(f, "dmr_witness")
    _check_kv_input("dmr_witness", w)
    if f.is_zero():
        return None
    if bad := _lie_witness(f, w):
        return bad
    if c := coefficient(f, ("x", "y")):
        return {"stage": "c_xy", "value": c}
    defect = primitivity_defect(star_regularize(scale_letter(f, "y", -1)))
    return {"stage": "primitivity", "defect": defect} if defect else None


def is_dmr(f, w):
    """Lie, c_{xy} = 0, and the flipped star regularization primitive."""
    return dmr_witness(f, w) is None


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
    xy_row = [coefficient(b, ("x", "y")) for b in brackets]
    memo = {}  # word coproducts, shared by the brackets of this solve
    defects = [
        primitivity_defect(star_regularize(scale_letter(b, "y", -1)), memo)
        for b in brackets
    ]
    rows = [xy_row] + column_rows(defects)
    vectors = nullspace(RatMatrix.from_rows(rows, len(brackets)))
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
    x = NCPoly.letter(XY, "x")
    y = NCPoly.letter(XY, "y")

    # columns F (n), G (n), alpha (1)
    # KV1: [y, F] + [x, G] = 0, and alpha does not enter
    kv1 = [lie_bracket(y, b).terms for b in brackets]
    kv1 += [lie_bracket(x, b).terms for b in brackets]
    # KV2: tr(G_x x + F_y y) - alpha tr((x+y)^w - x^w - y^w) = 0
    kv2 = [trace(decompose_right(b)[1] * y).terms for b in brackets]
    kv2 += [trace(decompose_right(b)[0] * x).terms for b in brackets]
    target = trace((x + y) ** w - x ** w - y ** w)
    rows = column_rows(kv1 + [{}]) + column_rows(kv2 + [(-1 * target).terms])

    joint = nullspace(RatMatrix.from_rows(rows, 2 * n + 1))
    vectors = [_primitive(v[:n]) for v in joint]
    return SubspaceBasis(w, words, vectors)


def fil2_dimension(elements):
    """Dimension of the subspace of span(elements) whose depth-1 part
    (words with exactly one y) vanishes; elements must be independent."""
    depth1 = [
        {wd: c for wd, c in p.terms.items() if wd.count("y") == 1}
        for p in elements
    ]
    return len(nullspace(RatMatrix.from_rows(column_rows(depth1), len(elements))))
