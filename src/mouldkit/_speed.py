# Term-dict kernels.
#
# A "term dict" maps an exponent tuple (one nonnegative int per variable) to
# a nonzero Fraction.  Every polynomial operation in the package funnels
# through the few functions below.  Callers look them up on this module at
# call time (_sp.mul_terms), so a profiler can rebind them here.

def add_terms(a, b):
    """Return a + b as a fresh dict; zero coefficients are dropped."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def sub_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = -c
        else:
            s = s - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def scale_terms(a, c):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def mul_terms(a, b):
    """Product of two term dicts over the same variables (exponents add)."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            c = ca * cb
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def concat_mul_terms(a, b):
    """Product where keys combine by `+`.  For the mould product the
    factors live on disjoint variable blocks, so the exponent tuples
    concatenate; substitute passes Kronecker-packed int monomials, which
    add."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = ca * cb
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out
