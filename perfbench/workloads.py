"""The benchmark's three workloads, driven through the public functions of
mouldkit.liealg, mouldkit.symmetry and mouldkit.cli only.

Each workload's ``setup(size, seed, golden)`` builds its inputs and returns
a list of ops.  An op is a zero-argument callable that does one unit of
work, checks its answer against the golden record and returns
``(ok, verdict)``; ``verdict`` feeds the digest printed with the results.
Why each workload exists is written down in README.md.
"""

import contextlib
import hashlib
import io
import json
import random

DEFAULT_SIZE = {"basis": 9, "senary": 300, "paper-suite": 8}

# The senary inputs are drawn from a fixed pool of POOL_SIZE random moulds;
# mould j of the pool is generated from random.Random(POOL_BASE + j).
POOL_SIZE = 1200
POOL_BASE = 7_000_000


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# basis: one graded solve per op

def basis_digest(basis):
    return sha256(json.dumps([[str(c) for c in v] for v in basis.vectors]))


def setup_basis(size, seed, golden):
    from mouldkit.liealg import dmr_basis, krv_basis

    expect = golden["basis"][str(size)]

    def solve(algebra, solver):
        def op():
            basis = solver(size)
            got = {"dimension": basis.dimension, "sha256": basis_digest(basis)}
            return got == expect[algebra], "%s:%s" % (algebra, got["sha256"])
        return op

    return [solve("dmr", dmr_basis), solve("krv", krv_basis)]


# ---------------------------------------------------------------------------
# senary: one (mould, r) pair per op

def pool_mould(j):
    """Mould j of the pool, as the JSON the CLI reads: depth 1-4, 1-4 terms
    per component, each exponent at most 4, coefficients in [-5, 5]; the
    style of the paper suite's senary oracle."""
    rng = random.Random(POOL_BASE + j)
    obj = {"0": []}
    for d in range(1, rng.randint(1, 4) + 1):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[tuple(rng.randint(0, 4) for _ in range(d))] = rng.randint(-5, 5)
        obj[str(d)] = [
            {"coeff": str(c), "exponents": list(e)} for e, c in sorted(terms.items())
        ]
    return obj


def pool_digest():
    return sha256(json.dumps([pool_mould(j) for j in range(POOL_SIZE)], sort_keys=True))


def pick_moulds(count, seed, by_work):
    """Indices of ``count`` pool moulds chosen by ``seed``.

    ``by_work`` lists the pool sorted by the work recorded in golden.json for
    each mould.  It is cut into ``count`` strata and one mould is drawn from
    each, so every seed gets the same spread of cheap and expensive moulds:
    the cost of depth-4 moulds has a long tail.  Over 40 seeds, the quartile
    distance of the total work was 15% of its median for a plain draw of
    300 moulds and 0.7% for this one."""
    rng = random.Random(seed)
    picked = []
    for k in range(count):
        lo, hi = k * len(by_work) // count, (k + 1) * len(by_work) // count
        picked.append(by_work[rng.randrange(lo, hi)])
    rng.shuffle(picked)
    return picked


def setup_senary(size, seed, golden):
    from mouldkit.cli import mould_from_json
    from mouldkit.symmetry import senary_eq41_holds, senary_holds

    record = golden["senary"]
    ops = []
    for j in pick_moulds(size, seed, record["by_work"]):
        mo = mould_from_json(pool_mould(j))
        for r in (1, 2, 3):
            expect = record["verdicts"][3 * j + r - 1] == "1"

            def op(mo=mo, r=r, expect=expect):
                holds = senary_holds(mo, r)
                agree = holds == senary_eq41_holds(mo, r)
                return agree and holds == expect, "1" if holds else "0"
            ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# paper-suite: one full `mouldkit paper-suite --max-weight N` per op

def run_paper_suite(max_weight):
    from mouldkit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["paper-suite", "--max-weight", str(max_weight)])
    return code, out.getvalue()


def setup_paper_suite(size, seed, golden):
    expect = golden["paper-suite"][str(size)]["sha256"]

    def op():
        code, text = run_paper_suite(size)
        digest = sha256(text)
        return code == 0 and text.endswith("status: pass\n") and digest == expect, digest

    return [op]


SETUP = {"basis": setup_basis, "senary": setup_senary, "paper-suite": setup_paper_suite}
