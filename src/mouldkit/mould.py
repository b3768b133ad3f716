# Moulds: finite sequences (M^0, M^1(x1), ..., M^D(x1..xD)) with M^m a
# polynomial in m commuting variables, together with the elementary operators:
# the deconcatenation product, swap and its genuine inverse unswap, pus, push,
# mantar, teru, the parallel translation map, the u-map, collision maps, neg,
# and pus-neutrality.
#
# Depth bookkeeping: swap/unswap/pus/push/mantar/neg keep the declared depth;
# teru, translate_t and u_map return depth D+1 because their top component is
# genuinely nonzero for generic depth-D input (truncating there would silently
# weaken the senary checks at r = D+1).

from fractions import Fraction

from . import _speed as _sp
from .kernel import MultiPoly, exact_div, rat, substitute, permute_vars, embed_vars


class SlotError(ValueError):
    pass


class Mould:
    """components[0] is a Fraction, components[m] a MultiPoly in m vars."""

    __slots__ = ("depth", "components")

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("need at least the depth-0 component")
        out = [rat(components[0])]
        for m, c in enumerate(components[1:], start=1):
            if isinstance(c, dict):
                c = MultiPoly(m, c)
            if not isinstance(c, MultiPoly):
                raise TypeError("component %d is %r, not a MultiPoly" % (m, c))
            if c.nvars != m:
                raise ValueError("component %d has %d variables" % (m, c.nvars))
            out.append(c)
        self.depth = len(out) - 1
        self.components = out

    @classmethod
    def zero(cls, depth):
        return cls([Fraction(0)] + [MultiPoly.zero(m) for m in range(1, depth + 1)])

    @classmethod
    def unit(cls, depth=0):
        # I = (1, 0, 0, ...)
        m = cls.zero(depth)
        m.components[0] = Fraction(1)
        return m

    @classmethod
    def from_components(cls, depth, comps):
        """comps: dict m -> MultiPoly/dict/Fraction, missing entries zero."""
        full = [Fraction(0)] + [MultiPoly.zero(m) for m in range(1, depth + 1)]
        for m, c in comps.items():
            if not 0 <= m <= depth:
                raise ValueError("component %r outside depth %d" % (m, depth))
            full[m] = c
        return cls(full)

    def component(self, m):
        """M^m, with components beyond the declared depth implicitly zero."""
        assert m >= 0, m
        if m == 0:
            return self.components[0]
        if m <= self.depth:
            return self.components[m]
        return MultiPoly.zero(m)

    def is_zero(self):
        if self.components[0]:
            return False
        return all(self.components[m].is_zero() for m in range(1, self.depth + 1))

    def __eq__(self, other):
        if not isinstance(other, Mould):
            return NotImplemented
        d = max(self.depth, other.depth)
        if self.components[0] != other.components[0]:
            return False
        return all(self.component(m) == other.component(m) for m in range(1, d + 1))

    __hash__ = None

    def __add__(self, other):
        assert isinstance(other, Mould), other
        d = max(self.depth, other.depth)
        comps = [self.components[0] + other.components[0]]
        comps += [self.component(m) + other.component(m) for m in range(1, d + 1)]
        return Mould(comps)

    def __sub__(self, other):
        assert isinstance(other, Mould), other
        d = max(self.depth, other.depth)
        comps = [self.components[0] - other.components[0]]
        comps += [self.component(m) - other.component(m) for m in range(1, d + 1)]
        return Mould(comps)

    def __neg__(self):
        return Fraction(-1) * self

    def __rmul__(self, c):
        c = rat(c)
        comps = [c * self.components[0]]
        comps += [c * self.components[m] for m in range(1, self.depth + 1)]
        return Mould(comps)

    def __repr__(self):
        bits = []
        if self.components[0]:
            bits.append("0: %s" % self.components[0])
        for m in range(1, self.depth + 1):
            if not self.components[m].is_zero():
                bits.append("%d: %r" % (m, self.components[m]))
        return "Mould(depth=%d%s)" % (self.depth, ", " + ", ".join(bits) if bits else "")


def _check_mould(mo, name):
    if not isinstance(mo, Mould):
        raise TypeError("%s needs a Mould, got %s" % (name, type(mo).__name__))


class ConstantMould:
    """A mould whose components are rational constants C_m (depth 0 value
    included as values[0])."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(rat(v) for v in values)

    def value(self, m):
        if m < len(self.values):
            return self.values[m]
        return Fraction(0)

    def as_mould(self):
        comps = [self.value(0)]
        for m in range(1, len(self.values)):
            comps.append(MultiPoly.const(m, self.value(m)))
        return Mould(comps)

    def __eq__(self, other):
        if not isinstance(other, ConstantMould):
            return NotImplemented
        n = max(len(self.values), len(other.values))
        return all(self.value(m) == other.value(m) for m in range(n))

    __hash__ = None

    def __repr__(self):
        return "ConstantMould(%s)" % (list(self.values),)


# ---------------------------------------------------------------------------
# product

def mould_mul(a, b):
    """(A x B)^m = sum_i A^i(x_1..x_i) B^{m-i}(x_{i+1}..x_m)."""
    assert isinstance(a, Mould) and isinstance(b, Mould), (a, b)
    depth = a.depth + b.depth
    comps = [a.components[0] * b.components[0]]
    for m in range(1, depth + 1):
        acc = {}
        for i in range(m + 1):
            if i == 0:
                part = _sp.scale_terms(b.component(m).terms, a.components[0])
            elif i == m:
                part = _sp.scale_terms(a.component(m).terms, b.components[0])
            else:
                ta, tb = a.component(i).terms, b.component(m - i).terms
                if not ta or not tb:
                    continue
                part = _sp.concat_mul_terms(ta, tb)
            acc = _sp.add_terms(acc, part)
        comps.append(MultiPoly._raw(m, acc))
    return Mould(comps)


# ---------------------------------------------------------------------------
# argument-substitution operators (depth preserved)

def _unit_form(m, j, scale=1):
    return tuple(Fraction(scale) if k == j else Fraction(0) for k in range(m))


def swap(mo):
    """swap(M)^m(v_1..v_m) = M^m(v_m, v_{m-1}-v_m, ..., v_1-v_2)."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        forms = []
        for k in range(1, m + 1):  # old slot k
            if k == 1:
                forms.append(_unit_form(m, m - 1))
            else:
                f = [Fraction(0)] * m
                f[m - k] = Fraction(1)
                f[m - k + 1] = Fraction(-1)
                forms.append(tuple(f))
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def unswap(mo):
    """Two-sided inverse of swap:
    unswap(N)^m(u_1..u_m) = N^m(u_1+...+u_m, u_1+...+u_{m-1}, ..., u_1)."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        forms = []
        for k in range(1, m + 1):  # old slot k gets u_1+...+u_{m-k+1}
            f = [Fraction(0)] * m
            for j in range(m - k + 1):
                f[j] = Fraction(1)
            forms.append(tuple(f))
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def pus(mo):
    """pus(M)^m(u_1..u_m) = M^m(u_m, u_1, ..., u_{m-1})."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        # old slot k evaluated at u_m (k=1) or u_{k-1} (k>=2)
        perm = [(j - 1) % m for j in range(m)]
        comps.append(permute_vars(mo.components[m], perm))
    return Mould(comps)


def push(mo):
    """push(M)^m(u_1..u_m) = M^m(-u_1-...-u_m, u_1, ..., u_{m-1})."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        forms = [tuple(Fraction(-1) for _ in range(m))]
        for k in range(2, m + 1):
            forms.append(_unit_form(m, k - 2))
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def mantar(mo):
    """mantar(M)^m(u_1..u_m) = (-1)^(m-1) M^m(u_m, ..., u_1)."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        perm = [m - 1 - j for j in range(m)]
        p = permute_vars(mo.components[m], perm)
        if m % 2 == 0:
            p = Fraction(-1) * p
        comps.append(p)
    return Mould(comps)


def neg(mo):
    """neg(M)^m(u) = M^m(-u_1, ..., -u_m)."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        forms = [_unit_form(m, j, -1) for j in range(m)]
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


# ---------------------------------------------------------------------------
# teru, translation, u-map, collisions (depth grows to D+1)

def teru(mo):
    """teru(M)^m = M^m + (1/u_m){M^{m-1}(u_1,..,u_{m-2},u_{m-1}+u_m)
    - M^{m-1}(u_1,..,u_{m-1})}; teru(M)^1 = M^1 (the corrections collapse
    to M^0 - M^0)."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    if mo.depth >= 1:
        comps.append(mo.components[1])
    for m in range(2, mo.depth + 2):
        prev = mo.component(m - 1)
        # M^{m-1}(u_1, ..., u_{m-2}, u_{m-1}+u_m) inside m variables
        forms = [_unit_form(m, j) for j in range(m - 2)]
        last = [Fraction(0)] * m
        last[m - 2] = Fraction(1)
        last[m - 1] = Fraction(1)
        forms.append(tuple(last))
        merged = substitute(prev, forms, m)
        plain = embed_vars(prev, list(range(m - 1)), m)
        corr = exact_div(merged - plain, MultiPoly.var(m, m - 1))
        comps.append(mo.component(m) + corr)
    return Mould(comps)


def translate_t(mo):
    """Parallel translation: identity at m = 0, 1;
    t(M)^m(x_1..x_m) = M^{m-1}(x_2-x_1, ..., x_m-x_1) for m >= 2."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    if mo.depth >= 0:
        comps.append(mo.component(1))
    for m in range(2, mo.depth + 2):
        prev = mo.component(m - 1)
        forms = []
        for j in range(m - 1):  # old slot j+1 gets x_{j+2} - x_1
            f = [Fraction(0)] * m
            f[j + 1] = Fraction(1)
            f[0] = Fraction(-1)
            forms.append(tuple(f))
        comps.append(substitute(prev, forms, m))
    return Mould(comps)


def u_component(mo, m):
    """u(M)^m for m >= 1: M^1 at m = 1, else, with one substitution,
    u(M)^m(x_1..x_m) = M^{m-1}(x_m-x_1, x_{m-1}-x_m, ..., x_2-x_3)."""
    assert isinstance(mo, Mould), mo
    if m == 1:
        return mo.component(1)
    forms = []
    for k in range(1, m):  # old slot k gets x_{m-k+1} - x_{m-k+2}, mod m
        f = [Fraction(0)] * m
        f[m - k], f[(m - k + 1) % m] = Fraction(1), Fraction(-1)
        forms.append(tuple(f))
    return substitute(mo.component(m - 1), forms, m)


def u_map(mo):
    """u = t o swap, built component by component with u_component."""
    assert isinstance(mo, Mould), mo
    comps = [mo.components[0]]
    comps += [u_component(mo, m) for m in range(1, mo.depth + 2)]
    return Mould(comps)


def coll(mo, m, i):
    """Collision map: replace component m by the divided difference
    (1/(x_i - x_{i+1})) { M^{m-1}(args without x_{i+1})
                        - M^{m-1}(args without x_i) };
    every other component is unchanged."""
    assert isinstance(mo, Mould), mo
    if not (2 <= m and 1 <= i <= m - 1):
        raise SlotError("coll slot (m=%s, i=%s) out of range" % (m, i))
    prev = mo.component(m - 1)
    drop_next = embed_vars(prev, [j if j < i else j + 1 for j in range(m - 1)], m)
    drop_here = embed_vars(prev, [j if j < i - 1 else j + 1 for j in range(m - 1)], m)
    divisor = MultiPoly.var(m, i - 1) - MultiPoly.var(m, i)
    new_comp = exact_div(drop_next - drop_here, divisor)
    depth = max(mo.depth, m)
    out = Mould.zero(depth)
    out.components[0] = mo.components[0]
    for k in range(1, depth + 1):
        out.components[k] = new_comp if k == m else mo.component(k)
    return out


# ---------------------------------------------------------------------------
# pus-neutrality

def pus_sum(mo, m):
    """The sum of M^m over the m cyclic rotations of its arguments."""
    _check_mould(mo, "pus_sum")
    comp = mo.component(m)
    total = MultiPoly.zero(m)
    for i in range(m):
        perm = [(j + i) % m for j in range(m)]
        total = total + permute_vars(comp, perm)
    return total


def pusnu_witness(mo):
    """None when M is pus-neutral, else {"depth": m} for the first m whose
    pus_sum(M, m) is nonzero."""
    _check_mould(mo, "pusnu_witness")
    return next(({"depth": m} for m in range(1, mo.depth + 1)
                 if not pus_sum(mo, m).is_zero()), None)


def is_pus_neutral(mo):
    """pus_sum(M, m) = 0 for 1 <= m <= depth (and beyond, trivially)."""
    return pusnu_witness(mo) is None
