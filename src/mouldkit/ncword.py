# Noncommutative words and polynomials over a declared alphabet, free Lie
# machinery (Lyndon bases, the Lie test by reduction against them, Lie
# polynomials from Lyndon coordinates), the x-runs of a word, the
# backwards-writing operator, the last-letter decomposition, and traces as
# least rotations.
#
# Words are plain tuples of alphabet symbols, and a word weighs its length.
# An NCPoly is a dict from word to nonzero Fraction plus the alphabet it lives
# over; the alphabet order is significant (it fixes Lyndon order and least
# rotations).  A cyclic word is stored as its least rotation, so a trace is an
# NCPoly too.
#
# The Lie side works over ("x", "y").

from fractions import Fraction
from functools import lru_cache

from . import _speed as _sp
from .kernel import rat


class AlphabetError(ValueError):
    pass


class NotHomogeneous(ValueError):
    pass


class HasConstantTerm(ValueError):
    pass


class NCPoly:
    """Noncommutative polynomial: alphabet tuple + {word tuple: Fraction}."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        alphabet = tuple(alphabet)
        ok = set(alphabet)
        if len(ok) != len(alphabet):
            raise AlphabetError("NCPoly needs distinct letters, got %r" % (alphabet,))
        out = {}
        for w, c in (terms or {}).items():
            w = tuple(w)
            for a in w:
                if a not in ok:
                    raise AlphabetError("letter %r not in alphabet %r" % (a, alphabet))
            c = rat(c)
            if c:
                out[w] = out.get(w, Fraction(0)) + c
                if not out[w]:
                    del out[w]
        self.alphabet = alphabet
        self.terms = out

    @classmethod
    def _raw(cls, alphabet, terms):
        # trusted constructor: terms already canonical
        self = object.__new__(cls)
        self.alphabet = alphabet
        self.terms = terms
        return self

    @classmethod
    def zero(cls, alphabet):
        return cls._raw(tuple(alphabet), {})

    @classmethod
    def one(cls, alphabet):
        return cls._raw(tuple(alphabet), {(): Fraction(1)})

    @classmethod
    def from_word(cls, alphabet, word, coeff=1):
        return cls(alphabet, {tuple(word): coeff})

    @classmethod
    def letter(cls, alphabet, sym):
        return cls(alphabet, {(sym,): 1})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        _check_ncpoly(other, "NCPoly arithmetic")
        if self.alphabet != other.alphabet:
            raise AlphabetError("alphabet mismatch: %r vs %r" % (self.alphabet, other.alphabet))

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        return NCPoly._raw(self.alphabet, _sp.add_terms(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return NCPoly._raw(self.alphabet, _sp.sub_terms(self.terms, other.terms))

    def __neg__(self):
        return NCPoly._raw(self.alphabet, _sp.scale_terms(self.terms, Fraction(-1)))

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            self._check(other)
            return NCPoly._raw(self.alphabet, _sp.concat_mul_terms(self.terms, other.terms))
        return NCPoly._raw(self.alphabet, _sp.scale_terms(self.terms, rat(other)))

    def __rmul__(self, other):
        # scalar * poly
        return NCPoly._raw(self.alphabet, _sp.scale_terms(self.terms, rat(other)))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("NCPoly power needs an int n >= 0, got %r" % (n,))
        out = NCPoly.one(self.alphabet)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[w]
            word = ".".join(str(a) for a in w) if w else "1"
            bits.append("%s*%s" % (c, word))
        return "NCPoly(%s)" % " + ".join(bits)


XY = ("x", "y")


def _check_ncpoly(p, name):
    if not isinstance(p, NCPoly):
        raise TypeError("%s needs an NCPoly, got %s" % (name, type(p).__name__))


def _check_xy(p, name):
    """Refuse anything but an NCPoly over the alphabet ("x", "y")."""
    _check_ncpoly(p, name)
    if p.alphabet != XY:
        raise AlphabetError("%s needs the alphabet %r, got %r" % (name, XY, p.alphabet))


def coefficient(p, word):
    """c_W(p): the stored coefficient of the word (0 if absent)."""
    _check_ncpoly(p, "coefficient")
    return p.terms.get(tuple(word), Fraction(0))


def homogeneous_weight(p):
    """Common length of all words of p.  Zero polynomial -> None.
    Mixed lengths -> NotHomogeneous."""
    _check_ncpoly(p, "homogeneous_weight")
    ws = {len(w) for w in p.terms}
    if not ws:
        return None
    if len(ws) > 1:
        raise NotHomogeneous("mixed weights %s" % sorted(ws))
    return ws.pop()


def lie_bracket(a, b):
    """[a, b] = ab - ba."""
    _check_ncpoly(a, "lie_bracket")
    _check_ncpoly(b, "lie_bracket")
    if a.alphabet != b.alphabet:
        raise AlphabetError("alphabet mismatch: %r vs %r" % (a.alphabet, b.alphabet))
    return a * b - b * a


# ---------------------------------------------------------------------------
# Lyndon words and the standard bracketing basis of the free Lie algebra.

def _check_lyndon_args(name, n, alphabet):
    if isinstance(n, bool) or not (isinstance(n, int) and n >= 1):
        raise ValueError("%s needs a length n >= 1, got %r" % (name, n))
    if not alphabet:
        raise AlphabetError("%s needs a nonempty alphabet" % name)
    if len(set(alphabet)) != len(alphabet):
        raise AlphabetError("%s needs distinct letters, got %r" % (name, alphabet))


def lyndon_words(n, alphabet):
    """All Lyndon words of length exactly n over the alphabet order, in
    lexicographic order (Duval's generation)."""
    alphabet = tuple(alphabet)
    _check_lyndon_args("lyndon_words", n, alphabet)
    k = len(alphabet)
    out = []
    w = [0]
    while w:
        if len(w) == n:
            out.append(tuple(alphabet[i] for i in w))
        # extend periodically to length n, then increment
        ww = [w[i % len(w)] for i in range(n)]
        while ww and ww[-1] == k - 1:
            ww.pop()
        if not ww:
            break
        ww[-1] += 1
        w = ww
    return out


@lru_cache(maxsize=16)
def _lyndon_table(w, alphabet):
    """{Lyndon word of length w: its standard bracket}, in lyndon_words
    order.  The standard factorization splits a Lyndon word at its longest
    proper Lyndon suffix (Reutenauer, Free Lie Algebras, 5.1), i.e. at the
    smallest i with word[i:] in the table of length w - i, and brackets the
    two halves' entries: one lie_bracket per word.  Callers only read it."""
    if w == 1:
        return {(a,): NCPoly.letter(alphabet, a) for a in alphabet}
    table = {}
    for word in lyndon_words(w, alphabet):
        i = next(i for i in range(1, w) if word[i:] in _lyndon_table(w - i, alphabet))
        table[word] = lie_bracket(_lyndon_table(i, alphabet)[word[:i]],
                                  _lyndon_table(w - i, alphabet)[word[i:]])
    return table


def lyndon_basis(w, alphabet):
    """Standard-bracketing images of the Lyndon words of length w; the list
    size is the Witt number.  The brackets are built once per (w, alphabet)
    and shared between calls, each of which gets a list of its own."""
    alphabet = tuple(alphabet)
    _check_lyndon_args("lyndon_basis", w, alphabet)
    return list(_lyndon_table(w, alphabet).values())


def lyndon_combination(coords, w, alphabet):
    """The Lie polynomial sum_i coords[i] * lyndon_basis(w, alphabet)[i],
    summed into one term dict."""
    alphabet = tuple(alphabet)
    _check_lyndon_args("lyndon_combination", w, alphabet)
    table = _lyndon_table(w, alphabet)
    if len(coords) != len(table):
        raise ValueError("lyndon_combination needs %d coordinates at weight %d, got %d"
                         % (len(table), w, len(coords)))
    terms = {}
    for c, b in zip(coords, table.values()):
        if c:
            for wd, e in b.terms.items():
                terms[wd] = terms.get(wd, 0) + c * e
    return NCPoly._raw(alphabet, {wd: v for wd, v in terms.items() if v})


def lie_witness(p):
    """None when p is a Lie element (zero included), else the nonzero
    remainder of p reduced against lyndon_basis(w, p.alphabet), walking the
    Lyndon words in increasing order.  Each standard bracket is its Lyndon
    word plus greater words (Reutenauer, Free Lie Algebras, Thm 5.1), so a
    step clears its Lyndon word for good: the remainder has no Lyndon word
    in its support, p minus it is Lie, and it is zero exactly when p is Lie.
    Mixed word lengths and a nonzero constant raise NotHomogeneous."""
    _check_ncpoly(p, "lie_witness")
    w = homogeneous_weight(p)
    if w is None:
        return None
    if w == 0:
        raise NotHomogeneous("constant polynomial has weight 0")
    rest = dict(p.terms)
    for word, b in _lyndon_table(w, p.alphabet).items():
        c = rest.get(word)
        if c:
            for k, e in b.terms.items():
                rest[k] = rest.get(k, 0) - c * e
    rest = {k: c for k, c in rest.items() if c}
    return NCPoly._raw(p.alphabet, rest) if rest else None


# ---------------------------------------------------------------------------
# x-runs, anti, palindromes, the last-letter decomposition, trace.

def _word_exponents(wd):
    """x-run lengths around the y letters: x^{e_0} y x^{e_1} ... y x^{e_r}
    maps to (e_0, ..., e_r)."""
    runs = [0]
    for s in wd:
        if s == "x":
            runs[-1] += 1
        else:
            runs.append(0)
    return tuple(runs)


def anti(p):
    """Backwards-writing operator: reverse every word."""
    _check_ncpoly(p, "anti")
    return NCPoly._raw(p.alphabet, {w[::-1]: c for w, c in p.terms.items()})


def is_anti_palindromic(p, w):
    """True iff p = (-1)^w * anti(p).  p must be homogeneous of weight w
    (zero passes for any w)."""
    _check_ncpoly(p, "is_anti_palindromic")
    if p.is_zero():
        return True
    pw = homogeneous_weight(p)
    if pw != w:
        raise NotHomogeneous("declared weight %s but polynomial has weight %s" % (w, pw))
    sign = Fraction(1) if w % 2 == 0 else Fraction(-1)
    return p == sign * anti(p)


def decompose_right(p):
    """Split by last letter: p = sum_a p_a * a, returned as a tuple of
    NCPoly aligned with the alphabet order.  On ("x","y"): (p_x, p_y)."""
    _check_ncpoly(p, "decompose_right")
    if () in p.terms:
        raise HasConstantTerm("constant term %s present" % p.terms[()])
    parts = {a: {} for a in p.alphabet}
    for w, c in p.terms.items():
        parts[w[-1]][w[:-1]] = c
    return tuple(NCPoly._raw(p.alphabet, parts[a]) for a in p.alphabet)


def _min_rotation(word, index):
    if not word:
        return word
    key = tuple(index[a] for a in word)
    best = 0
    for i in range(1, len(word)):
        if key[i:] + key[:i] < key[best:] + key[:best]:
            best = i
    return word[best:] + word[:best]


def trace(p):
    """The projection onto cyclic words: each word goes to its least
    rotation under the alphabet order, with coefficients summed."""
    _check_ncpoly(p, "trace")
    index = {a: i for i, a in enumerate(p.alphabet)}
    out = {}
    for w, c in p.terms.items():
        w = _min_rotation(w, index)
        out[w] = out.get(w, 0) + c
    return NCPoly._raw(p.alphabet, {w: c for w, c in out.items() if c})
