# Moulds: finite sequences (M^0, M^1(x1), ..., M^D(x1..xD)) with M^m a
# MultiPoly in m commuting variables (M^0 in none), and the operators on them:
# the deconcatenation product, swap, push, mantar, teru, the components of
# the u-map and of the collision maps, and pus-neutrality.  Arguments move
# in two ways only: substitute for an integer linear change of variables,
# embed_vars for every placement or renaming.
#
# Depth bookkeeping: swap/push/mantar keep the declared depth; teru
# returns depth D+1 because its top component is genuinely nonzero for
# generic depth-D input (truncating there would silently weaken the senary
# checks at r = D+1).

from fractions import Fraction

from . import _speed as _sp
from .kernel import MultiPoly, divided_difference, embed_vars, rat, substitute


class SlotError(ValueError):
    pass


class Mould:
    """components[m] is a MultiPoly in m variables for every m from 0 to
    depth; M^0 is a polynomial in no variables, MultiPoly(0, {(): c})."""

    __slots__ = ("depth", "components")

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("need at least the depth-0 component")
        out = []
        for m, c in enumerate(components):
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
        return cls([MultiPoly.zero(m) for m in range(depth + 1)])

    @classmethod
    def from_components(cls, depth, comps):
        """comps: dict m -> MultiPoly/term dict, missing entries zero."""
        full = [MultiPoly.zero(m) for m in range(depth + 1)]
        for m, c in comps.items():
            if not 0 <= m <= depth:
                raise ValueError("component %r outside depth %d" % (m, depth))
            full[m] = c
        return cls(full)

    def component(self, m):
        """M^m, with components beyond the declared depth implicitly zero."""
        if m < 0:
            raise ValueError("component needs m >= 0, got %r" % (m,))
        if m <= self.depth:
            return self.components[m]
        return MultiPoly.zero(m)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, Mould):
            return NotImplemented
        d = max(self.depth, other.depth)
        return all(self.component(m) == other.component(m) for m in range(d + 1))

    __hash__ = None

    def __add__(self, other):
        _check_mould(other, "Mould arithmetic")
        d = max(self.depth, other.depth)
        return Mould([self.component(m) + other.component(m) for m in range(d + 1)])

    def __sub__(self, other):
        _check_mould(other, "Mould arithmetic")
        d = max(self.depth, other.depth)
        return Mould([self.component(m) - other.component(m) for m in range(d + 1)])

    def __neg__(self):
        return Fraction(-1) * self

    def __rmul__(self, c):
        c = rat(c)
        return Mould([c * p for p in self.components])

    def __repr__(self):
        bits = ["%d: %r" % (m, p) for m, p in enumerate(self.components) if not p.is_zero()]
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
    """(A x B)^m = sum_i A^i(x_1..x_i) B^{m-i}(x_{i+1}..x_m): the exponent
    tuples concatenate, so the key () of M^0 is neutral."""
    _check_mould(a, "mould_mul")
    _check_mould(b, "mould_mul")
    depth = a.depth + b.depth
    comps = []
    for m in range(depth + 1):
        acc = {}
        for i in range(m + 1):
            ta, tb = a.component(i).terms, b.component(m - i).terms
            if ta and tb:
                acc = _sp.add_terms(acc, _sp.concat_mul_terms(ta, tb))
        comps.append(MultiPoly._raw(m, acc))
    return Mould(comps)


# ---------------------------------------------------------------------------
# argument-substitution operators (depth preserved)

def swap(mo):
    """swap(M)^m(v_1..v_m) = M^m(v_m, v_{m-1}-v_m, ..., v_1-v_2)."""
    _check_mould(mo, "swap")
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        forms = []
        for k in range(1, m + 1):  # old slot k gets v_{m-k+1} - v_{m-k+2}
            f = [0] * m
            f[m - k] = 1
            if k > 1:
                f[m - k + 1] = -1
            forms.append(tuple(f))
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def push(mo):
    """push(M)^m(u_1..u_m) = M^m(-u_1-...-u_m, u_1, ..., u_{m-1})."""
    _check_mould(mo, "push")
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        forms = [(-1,) * m] + [tuple(int(k == j) for k in range(m)) for j in range(m - 1)]
        comps.append(substitute(mo.components[m], forms, m))
    return Mould(comps)


def mantar(mo):
    """mantar(M)^m(u_1..u_m) = (-1)^(m-1) M^m(u_m, ..., u_1)."""
    _check_mould(mo, "mantar")
    comps = [mo.components[0]]
    for m in range(1, mo.depth + 1):
        p = embed_vars(mo.components[m], [m - 1 - j for j in range(m)], m)
        if m % 2 == 0:
            p = Fraction(-1) * p
        comps.append(p)
    return Mould(comps)


# ---------------------------------------------------------------------------
# teru (depth grows to D+1), the u-map and collision components

def teru(mo):
    """teru(M)^m = M^m + (1/u_m){M^{m-1}(u_1,..,u_{m-2},u_{m-1}+u_m)
    - M^{m-1}(u_1,..,u_{m-1})}; teru(M)^1 = M^1 (the corrections collapse
    to M^0 - M^0).

    The correction is the divided_difference of M^{m-1} in its last slot
    x_{m-1} and a fresh x_m, followed by one substitution
    x_{m-1} -> u_{m-1}+u_m, x_m -> u_{m-1}; nothing is divided."""
    _check_mould(mo, "teru")
    comps = [mo.components[0]]
    if mo.depth >= 1:
        comps.append(mo.components[1])
    for m in range(2, mo.depth + 2):
        prev = embed_vars(mo.component(m - 1), list(range(m - 1)), m)
        forms = [tuple(int(k == j) for k in range(m)) for j in range(m - 2)]
        forms += [tuple(int(k >= m - 2) for k in range(m)),
                  tuple(int(k == m - 2) for k in range(m))]
        corr = substitute(divided_difference(prev, m - 2, m - 1), forms, m)
        comps.append(mo.component(m) + corr)
    return Mould(comps)


def u_component(mo, m):
    """u(M)^m for m >= 1, where u = t o swap and the parallel translation
    t is t(M)^m(x_1..x_m) = M^{m-1}(x_2-x_1, ..., x_m-x_1): M^1 at m = 1,
    else, with one substitution,
    u(M)^m(x_1..x_m) = M^{m-1}(x_m-x_1, x_{m-1}-x_m, ..., x_2-x_3)."""
    _check_mould(mo, "u_component")
    if m == 1:
        return mo.component(1)
    forms = []
    for k in range(1, m):  # old slot k gets x_{m-k+1} - x_{m-k+2}, mod m
        f = [0] * m
        f[m - k], f[(m - k + 1) % m] = 1, -1
        forms.append(tuple(f))
    return substitute(mo.component(m - 1), forms, m)


def coll(mo, m, i):
    """The depth-m component of the collision map at slots (i, i+1), a
    MultiPoly in m variables: the divided difference
    (1/(x_i - x_{i+1})) { M^{m-1}(args without x_{i+1})
                        - M^{m-1}(args without x_i) }.
    The second evaluation is the first with x_i renamed x_{i+1}, so this is
    the divided_difference of the first in slots (x_i, x_{i+1})."""
    _check_mould(mo, "coll")
    if not (2 <= m and 1 <= i <= m - 1):
        raise SlotError("coll slot (m=%s, i=%s) out of range" % (m, i))
    slots = [j if j < i else j + 1 for j in range(m - 1)]  # no x_{i+1}
    return divided_difference(embed_vars(mo.component(m - 1), slots, m), i - 1, i)


# ---------------------------------------------------------------------------
# pus-neutrality

def pus_sum(mo, m):
    """The sum of M^m over the m cyclic rotations of its arguments."""
    _check_mould(mo, "pus_sum")
    comp = mo.component(m)
    total = MultiPoly.zero(m)
    for i in range(m):
        total = total + embed_vars(comp, [(j + i) % m for j in range(m)], m)
    return total


def pusnu_witness(mo):
    """None when M is pus-neutral, else {"depth": m} for the first m whose
    pus_sum(M, m) is nonzero."""
    _check_mould(mo, "pusnu_witness")
    return next(({"depth": m} for m in range(1, mo.depth + 1)
                 if not pus_sum(mo, m).is_zero()), None)
