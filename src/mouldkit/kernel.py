# Exact arithmetic foundation: arbitrary-precision rationals, sparse
# multivariate polynomials and exact linear algebra over Q.
#
# Every linear system in the package is "polynomials as matrix columns":
# RatMatrix takes blocks of term dicts, one per unknown, and keeps one
# sparse integer row per key of each block's support.
#
# Everything here is immutable after construction and every operation is a
# pure function, so values can be shared and reused freely.  No floating
# point appears anywhere in this package; all the identities we verify are
# exact polynomial identities and the tolerance is zero.
#
# Conventions:
#   - variables are indexed 0..nvars-1 internally; printing uses x1..xn
#   - a "linear form" is an int coefficient tuple over the target variables
#   - lexicographic order on exponent tuples is the monomial order of
#     exact_div, which only the tests use, as an independent reference
#
# Every divided difference (P(.., a, ..) - P(.., b, ..)) / (a - b) in the
# mould operators is divided_difference in two variable slots, followed
# where needed by one substitute that puts a and b in place; no long
# division runs.
#
# Linear algebra (nullspace) is one kernel computation, _kernel: one loop
# over the primes 2^61 - 1, 2^61 - 31, ... (decreasing), each of which
# screens those integer rows.  A streaming elimination mod p, reading only
# the nonzeros of each row, picks at most cols rows that are independent
# mod p and keeps the null space mod p of the rows picked so far, which is
# that of all rows.  It keeps that basis in RREF-kernel shape, in
# free-column order: each vector has 1 on its own free column, 0 on the
# other free columns and is supported on columns up to its own.  No mod-p
# value is ever returned unchecked, and no system is ever dense.
#
# _kernel combines the bases of the primes with the best free columns so
# far by CRT mod m, their product, recovers every entry by rational
# reconstruction (Wang, SYMSAC 1981) with |num|, den <= isqrt(m // 2), which
# is 2^30 - 1 for m = 2^61 - 1, makes the vectors primitive and certifies
# that each has zero integer dot product with every input row.  A certified
# basis is exact and equal, bit for bit, to the one the RREF of all rows
# gives:
#   - the rank over Q is at least the rank mod p, so dim ker over Q is at
#     most dim ker mod p;
#   - the certified vectors lie in the kernel over Q, are independent (each
#     has a nonzero entry on its own free column and 0 on the others), and
#     are as many as dim ker mod p, so they are a basis of the kernel over Q;
#   - the free columns of an RREF are the positions of the last nonzero
#     entries of the kernel's vectors, and an echelon basis with distinct
#     last positions shows all of those, so the free columns mod p are the
#     free columns over Q;
#   - a kernel vector is fixed by its entries on the free columns, so each
#     certified vector is a multiple of the RREF's vector for its free
#     column, and the primitive form of a line is unique.
# The loop ends.  A prime is unlucky when its free columns differ from
# Q's; then some first k columns lose rank mod p, so p divides a nonzero
# minor: only finitely many primes are unlucky.  Rank mod p never exceeds
# rank over Q, column prefix by prefix, so a prime has at least as many
# free columns as Q and, with as many, an i-th free column at most Q's:
# none beats a lucky prime ("fewer, then the lexicographically larger
# list"), and after the first lucky prime only lucky primes combine.  A
# lucky prime's basis is the RREF's mod p: the RREF's primitive vector for
# free column c is nonzero mod p, so not 0 on c.  So reconstruction gives
# the RREF's basis once m > 2 H^2, H bounding its numerators and
# denominators, and the certificate passes.
#
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import _speed as _sp


class NotDivisible(ArithmeticError):
    """Exact division failed; the remainder witness is attached."""


class MalformedSubstitution(ValueError):
    pass


class NoSolution:
    """Returned (not raised) by solvers when a linear system is inconsistent.

    Carries whatever witness data the solver can offer, e.g. the residual
    defect polynomials of a failed alternility certificate."""

    def __init__(self, reason="", defects=None):
        self.reason = reason
        self.defects = defects if defects is not None else []

    def __repr__(self):
        return "NoSolution(%r)" % (self.reason,)


def rat(x):
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class MultiPoly:
    """Sparse polynomial in Q[x_1,...,x_n], keyed by exponent tuple.

    terms maps exponent tuples (length nvars) to nonzero Fractions.  The
    zero polynomial has an empty terms dict.  nvars may be 0, in which case
    the only possible key is () and the polynomial is a constant."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if isinstance(nvars, bool) or not isinstance(nvars, int):
            raise TypeError("nvars must be an int, got %r" % (nvars,))
        if nvars < 0:
            raise ValueError("nvars must be nonnegative, got %d" % nvars)
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                c = rat(c)
                if c:
                    e = tuple(e)
                    if len(e) != nvars:
                        raise ValueError("exponent %r does not have %d entries" % (e, nvars))
                    if not all(type(k) is int and k >= 0 for k in e):
                        raise ValueError("exponent %r needs nonnegative ints" % (e,))
                    clean[e] = c
        self.terms = clean

    @classmethod
    def _raw(cls, nvars, terms):
        # internal fast path: terms is already a clean dict, adopt it
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        c = rat(c)
        if not c:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i):
        """The variable x_{i+1} (index i, 0-based) in nvars variables."""
        if not 0 <= i < nvars:
            raise ValueError("MultiPoly.var needs an index in 0..%d, got %r"
                             % (nvars - 1, i))
        e = [0] * nvars
        e[i] = 1
        return cls._raw(nvars, {tuple(e): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _refuse(self, other, op):
        """Raise for an operand of + - * that is not a MultiPoly in as many
        variables."""
        if not isinstance(other, MultiPoly):
            raise TypeError("MultiPoly %s needs a MultiPoly, got %s"
                            % (op, type(other).__name__))
        if self.nvars != other.nvars:
            raise ValueError("MultiPoly %s of %d and %d variables"
                             % (op, self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, MultiPoly) or other.nvars != self.nvars:
            self._refuse(other, "+")
        return MultiPoly._raw(self.nvars, _sp.add_terms(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, MultiPoly) or other.nvars != self.nvars:
            self._refuse(other, "-")
        return MultiPoly._raw(self.nvars, _sp.sub_terms(self.terms, other.terms))

    def __neg__(self):
        return MultiPoly._raw(self.nvars, _sp.scale_terms(self.terms, Fraction(-1)))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                self._refuse(other, "*")
            return MultiPoly._raw(self.nvars, _sp.mul_terms(self.terms, other.terms))
        return MultiPoly._raw(self.nvars, _sp.scale_terms(self.terms, rat(other)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("MultiPoly power needs an int n >= 0, got %r" % (n,))
        out = MultiPoly.const(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "x%d" % (i + 1) if k == 1 else "x%d^%d" % (i + 1, k)
                for i, k in enumerate(e)
                if k
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append("%s*%s" % (c, mono))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")


def substitute(p, forms, out_nvars):
    """Substitute an integer linear form for every variable of p.

    forms is a sequence of length p.nvars; forms[i] is the int coefficient
    tuple (length out_nvars) of the linear form replacing variable i.  An
    entry that is not exactly an int (a Fraction, a float, a bool) raises
    MalformedSubstitution.  Returns the expanded polynomial in out_nvars
    variables.  Every linear change of variables in the package (swap,
    push, teru, the u-map, both senary sides, ma) is one call; renamings
    and placements go through embed_vars instead."""
    if not isinstance(p, MultiPoly):
        raise TypeError("substitute needs a MultiPoly, got %s" % type(p).__name__)
    if len(forms) != p.nvars:
        raise MalformedSubstitution(
            "expected %d forms, got %d" % (p.nvars, len(forms))
        )
    rows = []
    for f in forms:
        f = tuple(f)
        if len(f) != out_nvars:
            raise MalformedSubstitution(
                "form %r does not have %d coefficients" % (f, out_nvars)
            )
        if not all(type(c) is int for c in f):
            raise MalformedSubstitution("form %r needs int coefficients" % (f,))
        rows.append(f)
    if not p.terms:
        return MultiPoly.zero(out_nvars)
    # Each output exponent is at most the total degree of its source term,
    # so monomials pack into ints in base B (variable j weighs B**j) and a
    # monomial product is one int addition.  The term coefficients go over
    # one common denominator L, so all the expansion runs in ints and one
    # Fraction is made per output monomial.
    B = max(sum(e) for e in p.terms) + 1
    base = [{B**j: c for j, c in enumerate(f) if c} for f in rows]
    L = lcm(*(c.denominator for c in p.terms.values()))

    # powers of each substituted form, built on demand and reused across terms
    pow_cache = [[{0: 1}] for _ in range(p.nvars)]
    out = {}
    for e, c in p.terms.items():
        term = {0: c.numerator * (L // c.denominator)}
        for i, ei in enumerate(e):
            if not ei:
                continue
            cache = pow_cache[i]
            while len(cache) <= ei:
                cache.append(_sp.concat_mul_terms(cache[-1], base[i]))
            term = _sp.concat_mul_terms(term, cache[ei])
            if not term:
                break
        for k, n in term.items():
            t = out.get(k)
            if t is None:
                out[k] = n
            else:
                t += n
                if t:
                    out[k] = t
                else:
                    del out[k]
    terms = {}
    for k, n in out.items():
        ex = []
        for _ in range(out_nvars):
            k, r = divmod(k, B)
            ex.append(r)
        terms[tuple(ex)] = Fraction(n, L)
    return MultiPoly._raw(out_nvars, terms)


def embed_vars(p, positions, out_nvars):
    """View p as a polynomial in out_nvars variables, sending old variable i
    to new variable positions[i].  Positions must be distinct; with
    out_nvars = p.nvars this renames p's variables by a permutation."""
    if (len(positions) != p.nvars or len(set(positions)) != p.nvars
            or not all(0 <= k < out_nvars for k in positions)):
        raise ValueError("embed_vars needs %d distinct positions in 0..%d, got %r"
                         % (p.nvars, out_nvars - 1, positions))
    out = {}
    for e, c in p.terms.items():
        ne = [0] * out_nvars
        for i, k in enumerate(e):
            ne[positions[i]] = k
        out[tuple(ne)] = c
    return MultiPoly._raw(out_nvars, out)


def divided_difference(p, u, v):
    """(p - p|_{x_u := x_v}) / (x_u - x_v) in the same variables (0-based
    slots u != v).  Term by term, x_u^a x_v^b goes to
    sum_{i<a} x_u^i x_v^(a-1-i+b): nothing is divided, nothing can fail."""
    n = p.nvars
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ValueError("divided_difference needs distinct slots in 0..%d, "
                         "got %r, %r" % (n - 1, u, v))
    out = {}
    for e, c in p.terms.items():
        a, b = e[u], e[v]
        ne = list(e)
        for i in range(a):
            ne[u], ne[v] = i, a - 1 - i + b
            k = tuple(ne)
            out[k] = out[k] + c if k in out else c
    return MultiPoly._raw(n, {k: c for k, c in out.items() if c})


def exact_div(p, q):
    """Exact polynomial division: the r with r*q = p, else NotDivisible.

    Monomial-ordered (lex) long division with a zero-remainder requirement.
    No operator in the package divides any more (divided_difference expands
    its quotient directly); exact_div stays as the tests' independent
    reference for those expansions."""
    if not (isinstance(p, MultiPoly) and isinstance(q, MultiPoly)):
        raise TypeError("exact_div needs two MultiPolys, got %s and %s"
                        % (type(p).__name__, type(q).__name__))
    if p.nvars != q.nvars:
        raise ValueError("exact_div of %d and %d variables" % (p.nvars, q.nvars))
    if q.is_zero():
        raise ZeroDivisionError("exact_div by zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.nvars)
    lt_q = max(q.terms)
    c_q = q.terms[lt_q]
    rem = dict(p.terms)
    quot = {}
    while rem:
        lt_r = max(rem)
        e = tuple(a - b for a, b in zip(lt_r, lt_q))
        if any(k < 0 for k in e):
            raise NotDivisible(
                "leading monomial %r not divisible by %r" % (lt_r, lt_q)
            )
        c = rem[lt_r] / c_q
        quot[e] = c
        piece = {
            tuple(a + b for a, b in zip(e, eq)): c * cq
            for eq, cq in q.terms.items()
        }
        rem = _sp.sub_terms(rem, piece)
    return MultiPoly._raw(p.nvars, quot)


class RatMatrix:
    """A linear system over Q, built from polynomials as matrix columns.

    RatMatrix(cols, *blocks): each block is a list of cols term dicts,
    column j holding the coefficients of unknown j.  Every key with a
    nonzero coefficient in a block is one row; a block's keys are sorted,
    and the blocks stack in order, so keys of different shapes never meet.
    Each row is kept once, as {column: int}: the row times the lcm of its
    denominators, which has the same span."""

    __slots__ = ("rows", "cols", "int_rows")

    def __init__(self, cols, *blocks):
        int_rows = []
        for block in blocks:
            if len(block) != cols:
                raise ValueError("a block has %d columns, expected %d"
                                 % (len(block), cols))
            by_key = {}
            for j, col in enumerate(block):
                for k, c in col.items():
                    if not isinstance(c, (int, Fraction)):
                        raise TypeError("entry %r is not an int or a Fraction" % (c,))
                    if c:
                        by_key.setdefault(k, {})[j] = c
            for k in sorted(by_key):
                row = by_key[k]
                d = lcm(*(c.denominator for c in row.values()))
                int_rows.append(
                    {j: c.numerator * (d // c.denominator) for j, c in row.items()}
                )
        self.rows = len(int_rows)
        self.cols = cols
        self.int_rows = int_rows


def _primitive(vec):
    """Scale a rational vector to primitive integers, first nonzero positive."""
    denom_lcm = 1
    for x in vec:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vec]
    g = 0
    for k in ints:
        g = gcd(g, abs(k))
    if g == 0:
        return tuple(Fraction(0) for _ in vec)
    ints = [k // g for k in ints]
    lead = next((k for k in ints if k), 0)
    if lead < 0:
        ints = [-k for k in ints]
    return tuple(Fraction(k) for k in ints)


def _is_prime(n):
    """Miller-Rabin on the first twelve prime bases: exact for n < 3.1e23,
    where the least strong pseudoprime to all of them lies (Sorenson and
    Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The screening primes: 2^61 - 1, then the primes below it, decreasing."""
    n = (1 << 61) - 1  # a Mersenne prime
    yield n
    while True:
        n -= 2
        if _is_prime(n):
            yield n


def _independent_rows(int_rows, cols, p):
    """A basis of the null space mod the prime p of the rows, in RREF-kernel
    shape, found by picking at most cols rows that are independent mod p of
    the rows picked before them.

    kernel spans the null space mod p of the rows picked so far, so a row
    lies in their span mod p iff it is orthogonal to every kernel vector.
    Picking a row removes the first kernel vector v with a nonzero dot
    product and projects the later ones onto the row's orthogonal
    complement by subtracting multiples of v.  kernel starts as the unit
    vectors and keeps their order, so each vector keeps 1 on its own
    column, 0 on the other columns still free, and support on columns up
    to its own: v is 0 on every free column but its own, which stops being
    free, and is supported before every later vector's column."""
    kernel = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for row in int_rows:
        if not kernel:
            break
        nonzero = [(j, x % p) for j, x in row.items()]
        dots = [sum(r * v[j] for j, r in nonzero) % p for v in kernel]
        t = next((t for t, d in enumerate(dots) if d), None)
        if t is None:
            continue
        v_t = kernel.pop(t)
        inv = pow(dots.pop(t), -1, p)
        for s, d in enumerate(dots):
            if d:
                f = d * inv % p
                kernel[s] = [(a - f * b) % p for a, b in zip(kernel[s], v_t)]
    return kernel


def _rational(u, m):
    """The fraction n/d with |n|, d <= isqrt(m // 2) and n = u*d mod m, or
    None.

    Wang's rational reconstruction: run the extended Euclidean algorithm on
    (m, u), keeping r = t*u mod m, until the remainder drops to the bound.
    Such a fraction is unique when it exists, since 2 * bound**2 < m."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _lifted_kernel(vecs, m):
    """The primitive rational basis that a null space mod m in RREF-kernel
    shape proposes, one vector per free column in column order (see the
    header), or None if an entry does not reconstruct."""
    basis = []
    for v in vecs:
        vec = [_rational(x, m) for x in v]
        if any(x is None for x in vec):
            return None
        basis.append(_primitive(vec))
    return basis


def _annihilates(vectors, int_rows):
    """True iff every (integer) vector has zero dot product with every row."""
    for vec in vectors:
        ints = [x.numerator for x in vec]
        if any(sum(x * ints[j] for j, x in row.items()) for row in int_rows):
            return False
    return True


def _kernel(int_rows, cols):
    """The RREF's kernel basis of the rows ({column: int} dicts, cols wide).

    A prime with better free columns (fewer, then the lexicographically
    larger list) restarts the CRT accumulator, one with equal free columns
    joins it, a worse one is skipped (see the header)."""
    best = None
    for p in _primes():
        vecs = _independent_rows(int_rows, cols, p)
        key = (-len(vecs), [max(j for j, x in enumerate(v) if x) for v in vecs])
        if best is None or key > best:
            best, residues, m = key, vecs, p
        elif key == best:
            f = pow(m, -1, p)
            residues = [[a + m * ((b - a) * f % p) for a, b in zip(u, v)]
                        for u, v in zip(residues, vecs)]
            m *= p
        else:
            continue
        basis = _lifted_kernel(residues, m)
        if basis is not None and _annihilates(basis, int_rows):
            return basis


def _check_matrix(mat):
    if not isinstance(mat, RatMatrix):
        raise TypeError("expected a RatMatrix, got %s" % type(mat).__name__)


def nullspace(mat):
    """Exact basis of the kernel of mat, deterministic.

    Basis vectors are produced one per free column (in increasing column
    order), scaled to primitive integer form.  rank + len(basis) = cols."""
    _check_matrix(mat)
    return _kernel(mat.int_rows, mat.cols)

