"""Differential tests for the certified kernel path of kernel.py.

nullspace screens the rows mod the primes 2^61 - 1, 2^61 - 31, ... in
turn, combines the null spaces of the primes with the best free columns
by CRT, lifts them by rational reconstruction and returns the lift once it
is certified against every row.  solve_linear below is one nullspace call
on the augmented rows [A | b]; its systems reach the certificate through a
right-hand side.  The references are the full-RREF implementation the
kernel replaced, kept verbatim, and column_rows, the dense row builder that
RatMatrix replaced; every case must agree with them exactly, including the
cases built so that a prime is unlucky or the answer needs more than one
prime, and each such case pins how many primes it screens."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mouldkit import kernel
from mouldkit.kernel import NoSolution, RatMatrix, nullspace
from mouldkit.liealg import krv_basis, solve_G
from mouldkit.ncword import NCPoly, lie_bracket, lyndon_basis

P = (1 << 61) - 1
P2, P3 = P - 30, P - 44  # the next primes below P
DENOMINATORS = (1, 1, 1, 2, 3, 7, P, 2 * P)


# -- reference: the full RREF, verbatim -------------------------------------


def _rref(entries, cols):
    """Reduced row echelon form in place; returns the pivot column list."""
    pivots = []
    r = 0
    nrows = len(entries)
    for c in range(cols):
        piv = None
        for i in range(r, nrows):
            if entries[i][c]:
                piv = i
                break
        if piv is None:
            continue
        entries[r], entries[piv] = entries[piv], entries[r]
        inv = 1 / entries[r][c]
        entries[r] = [x * inv for x in entries[r]]
        for i in range(nrows):
            if i != r and entries[i][c]:
                f = entries[i][c]
                row_i = entries[i]
                row_r = entries[r]
                entries[i] = [a - f * b for a, b in zip(row_i, row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


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


def reference_nullspace(rows, cols):
    """Exact basis of the kernel of the dense rows, deterministic.

    Basis vectors are produced one per free column (in increasing column
    order), scaled to primitive integer form.  rank + len(basis) = cols."""
    entries = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(entries, cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -entries[r][fc]
        basis.append(_primitive(vec))
    return basis


def reference_solve_linear(rows, cols, rhs):
    """One exact solution of rows * x = rhs (free variables set to 0), or
    NoSolution.  rhs is a sequence of Fractions, one per row."""
    assert len(rhs) == len(rows), (len(rhs), len(rows))
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _rref(aug, cols + 1)
    if cols in pivots:
        return NoSolution("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][cols]
    return x


def column_rows(columns):
    """The matrix whose column j is the term dict columns[j], as rows: one
    row per key of the union support, keys in sorted order."""
    keys = sorted(set().union(*columns))
    index = {k: i for i, k in enumerate(keys)}
    # the columns are sparse: fill zeros, then scatter each column's terms
    rows = [[Fraction(0)] * len(columns) for _ in keys]
    for j, col in enumerate(columns):
        for k, c in col.items():
            rows[index[k]][j] = c
    return rows


# -- systems from dense rows ------------------------------------------------


def dense(rows, cols):
    """The system of dense rows: one block whose key i holds row i."""
    return RatMatrix(cols, [{i: row[j] for i, row in enumerate(rows)} for j in range(cols)])


def solve_linear(rows, n, rhs):
    """One exact solution of rows * x = rhs (n unknowns, free variables set
    to 0), or NoSolution, from the kernel of [rows | rhs].  b is in the
    column span iff column n is free, and only the RREF kernel vector of free
    column n can be nonzero on column n: x = -v[:n] / v[n]."""
    aug = [list(row) + [Fraction(b)] for row, b in zip(rows, rhs)]
    basis = nullspace(dense(aug, n + 1))
    if not basis or not basis[-1][n]:
        return NoSolution("inconsistent linear system")
    v = basis[-1]
    return [-c / v[n] for c in v[:n]]


# -- random systems ---------------------------------------------------------


def _entry(rng):
    if rng.random() < 0.4:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))


def _random_rows(rng, nrows, cols):
    return [[_entry(rng) for _ in range(cols)] for _ in range(nrows)]


def _product(a, b, cols):
    return [
        [sum((x * row_b[j] for x, row_b in zip(row_a, b)), Fraction(0))
         for j in range(cols)]
        for row_a in a
    ]


def random_matrix(rng):
    """Tall, rank-deficient, zero, single-column or general rows, and cols."""
    kind = rng.choice(("tall", "deficient", "zero", "one-column", "general"))
    cols = 1 if kind == "one-column" else rng.randint(1, 7)
    nrows = rng.randint(0, 6) if kind == "general" else rng.randint(cols, 4 * cols + 4)
    if kind == "zero":
        rows = [[Fraction(0)] * cols for _ in range(nrows)]
    elif kind == "deficient":
        inner = rng.randint(0, max(cols - 1, 0))
        rows = _product(
            _random_rows(rng, nrows, inner), _random_rows(rng, inner, cols), cols
        )
    else:
        rows = _random_rows(rng, nrows, cols)
    return rows, cols


def _same_solution(got, want):
    if isinstance(want, NoSolution):
        return isinstance(got, NoSolution) and got.reason == want.reason
    return not isinstance(got, NoSolution) and got == want


@pytest.mark.parametrize("seed", range(40))
def test_nullspace_matches_full_rref(seed):
    rng = random.Random(seed)
    for _ in range(15):
        rows, cols = random_matrix(rng)
        assert nullspace(dense(rows, cols)) == reference_nullspace(rows, cols)


@pytest.mark.parametrize("seed", range(40))
def test_screen_null_space_is_in_rref_kernel_shape(seed):
    # what lets _kernel reconstruct the screen's vectors with no elimination:
    # each vector has 1 on its own free column, 0 on the other free columns
    # and support up to its own column, in free-column order
    rng = random.Random(seed)
    for _ in range(15):
        rows, cols = random_matrix(rng)
        int_rows = dense(rows, cols).int_rows
        for p in (P, P2, 7):
            vecs = kernel._independent_rows(int_rows, cols, p)
            assert len(vecs) >= len(reference_nullspace(rows, cols))
            free = [max(j for j, x in enumerate(v) if x) for v in vecs]
            assert free == sorted(set(free))
            for v, c in zip(vecs, free):
                assert [v[f] for f in free] == [int(f == c) for f in free]
            for row in int_rows:
                assert all(sum(x * v[j] for j, x in row.items()) % p == 0 for v in vecs)


@pytest.mark.parametrize("seed", range(40))
def test_solve_linear_matches_full_rref(seed):
    rng = random.Random(1000 + seed)
    for _ in range(15):
        rows, cols = random_matrix(rng)
        if rng.random() < 0.5:
            x0 = [_entry(rng) for _ in range(cols)]
            rhs = [sum((a * b for a, b in zip(row, x0)), Fraction(0)) for row in rows]
        else:
            rhs = [_entry(rng) for _ in rows]
        assert _same_solution(
            solve_linear(rows, cols, rhs), reference_solve_linear(rows, cols, rhs)
        )


# -- the sparse row build ---------------------------------------------------

_COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.sampled_from([P, 2 * P, Fraction(1, P)]),
)


@st.composite
def systems(draw):
    """cols and a list of blocks, each block cols term dicts.  Within a block
    the keys share one shape (ints or pairs), as a polynomial's do; blocks
    draw from the same small pool, so keys repeat across columns and across
    blocks, and columns and blocks may be empty."""
    cols = draw(st.integers(0, 5))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        keys = draw(st.sampled_from([st.integers(0, 5), st.tuples(st.integers(0, 2),
                                                                   st.integers(0, 2))]))
        blocks.append([draw(st.dictionaries(keys, _COEFFS, max_size=4))
                       for _ in range(cols)])
    return cols, blocks


@given(systems())
@settings(deadline=None, max_examples=200)
def test_rows_are_the_integer_scaled_column_rows(system):
    cols, blocks = system
    mat = RatMatrix(cols, *blocks)
    dense_rows = [row for block in blocks for row in column_rows(block)]
    want = []
    for row in dense_rows:
        if any(row):
            d = lcm(*(Fraction(x).denominator for x in row))
            want.append({j: int(x * d) for j, x in enumerate(row) if x})
    assert mat.int_rows == want
    assert [list(r) for r in mat.int_rows] == [list(r) for r in want]  # column order
    assert all(type(x) is int for r in mat.int_rows for x in r.values())
    assert (mat.rows, mat.cols) == (len(want), cols)
    assert nullspace(mat) == reference_nullspace(dense_rows, cols)


# -- the screen, the certificate and the primes -----------------------------


@pytest.fixture
def primes(monkeypatch):
    """The primes handed to kernel._independent_rows, one per screen."""
    screened = []
    real = kernel._independent_rows

    def recording(int_rows, cols, p):
        screened.append(p)
        return real(int_rows, cols, p)

    monkeypatch.setattr(kernel, "_independent_rows", recording)
    return screened


def test_tall_matrix_is_solved_on_at_most_cols_rows(primes):
    rng = random.Random(5)
    rows = _random_rows(rng, 40, 6)
    assert nullspace(dense(rows, 6)) == reference_nullspace(rows, 6)
    assert primes == [P]


@pytest.mark.parametrize(
    "rows",
    [[[1, -(2**40 + 1)]], [[2**31, 1]], [[3, 0, -(2**40 + 1)], [0, 1, 5]]],
    ids=["numerator-2^40", "denominator-2^31", "numerator-2^40-of-3"],
)
def test_entry_beyond_one_prime_bound_takes_two_primes(rows, primes):
    # The kernel mod p is right, but an entry of its RREF-kernel form has a
    # numerator or denominator of 2^30 or more, so it does not reconstruct
    # mod p; mod the product of two primes it does, and it certifies.
    m = dense(rows, len(rows[0]))
    assert nullspace(m) == reference_nullspace(rows, m.cols)
    assert primes == [P, P2]


def test_entry_beyond_two_prime_bound_takes_three_primes(primes):
    rows = [[1, -(2**70 + 1)]]
    assert nullspace(dense(rows, 2)) == reference_nullspace(rows, 2) == [(2**70 + 1, 1)]
    assert primes == [P, P2, P3]


def test_rational_reconstruction_pins():
    assert isqrt(P // 2) == 2**30 - 1  # one prime: the bound is 2^30 - 1
    for m in (P, P * P2):
        b = isqrt(m // 2)
        for q in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(b, b - 2),
                  Fraction(-b, b - 1)):
            u = q.numerator * pow(q.denominator, -1, m) % m
            assert kernel._rational(u, m) == q
        assert kernel._rational(b + 1, m) is None
        assert kernel._rational(pow(b + 1, -1, m), m) is None


def test_primes_are_2_61_minus_1_then_the_primes_below_it():
    first = list(itertools.islice(kernel._primes(), 50))
    # every prime in [P - 282, P], P = 2^61 - 1
    assert first[:6] == [P, P2, P3, P - 228, P - 258, P - 282]
    assert all(a > b for a, b in zip(first, first[1:]))


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(-3, 5000) if kernel._is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)]
    # strong pseudoprimes to the bases 2..7 and 2..23
    assert not kernel._is_prime(3215031751)
    assert not kernel._is_prime(3825123056546413051)
    assert kernel._is_prime(2**31 - 1) and kernel._is_prime(P)


@pytest.mark.parametrize("order", ["P-q-P2", "q-P-P2"])
def test_prime_with_other_free_columns_is_skipped(order, primes, monkeypatch):
    # Mod q the row is (0, 2^40 + 1), whose free column is 0, not Q's 1:
    # after P, q is worse and skipped; before P, P replaces it.  Either way
    # P and P2 alone give the answer, which needs two primes.
    q = 1000003
    sequence = {"P-q-P2": [P, q, P2], "q-P-P2": [q, P, P2]}[order]
    monkeypatch.setattr(kernel, "_primes", lambda: iter(sequence))
    rows = [[q, 2**40 + 1]]
    assert nullspace(dense(rows, 2)) == reference_nullspace(rows, 2)
    assert primes == sequence


@pytest.mark.parametrize(
    "rows",
    [
        [[P]],
        [[2 * P, 0]],
        [[1, 0], [1, P]],
        [[3, 1, 4], [3, 1 + P, 4], [6, 2, 8]],
        [[Fraction(1, 2), 1], [Fraction(1, 2), 1 + P]],
    ],
    ids=["p", "2p-row", "pair-p-e1", "pair-p-e1-of-3", "half-pair"],
)
def test_unlucky_prime_is_replaced_by_the_next(rows, primes):
    m = dense(rows, len(rows[0]))
    assert nullspace(m) == reference_nullspace(rows, m.cols)
    assert primes == [P, P2]


def _big_matrix(rng):
    """Rows with a nonzero kernel and entries of up to 200 bits: fewer rows
    than columns, or tall rows of rank below cols."""
    def big():
        return Fraction(rng.choice((0, 1, -1, 1, -1)) * rng.getrandbits(rng.randint(1, 200)))

    cols = rng.randint(2, 6)
    if rng.random() < 0.5:
        return [[big() for _ in range(cols)] for _ in range(rng.randint(1, cols - 1))], cols
    inner = rng.randint(1, cols - 1)
    combos = [[Fraction(rng.randint(-3, 3)) for _ in range(inner)]
              for _ in range(rng.randint(inner, 2 * cols))]
    return _product(combos, [[big() for _ in range(cols)] for _ in range(inner)], cols), cols


def test_nullspace_of_200_bit_systems_matches_full_rref(primes):
    rng = random.Random(2026)
    most = 0
    for _ in range(150):
        rows, cols = _big_matrix(rng)
        primes.clear()
        assert nullspace(dense(rows, cols)) == reference_nullspace(rows, cols)
        most = max(most, len(primes))
    assert most > 20  # some systems need many primes


def test_inconsistency_only_in_unpicked_rows(primes):
    # Mod p the last augmented row repeats the first, so the screen skips
    # it; over Q it contradicts the first and the certificate must notice.
    rhs = [Fraction(0), Fraction(P)]
    assert isinstance(solve_linear([[1], [1]], 1, rhs), NoSolution)
    assert primes == [P, P2]


def test_tall_inconsistency_only_in_unpicked_rows(primes):
    rng = random.Random(11)
    cols = 4
    top = [[Fraction(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(cols)]
    top[0][0] += 50  # keep the top block invertible
    for i in range(1, cols):
        top[i][i] += 50
    combos = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(12)]
    rows = top + _product(combos, top, cols)
    x0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(cols)]
    rhs = [sum((a * b for a, b in zip(row, x0)), Fraction(0)) for row in rows]
    assert solve_linear(rows, cols, rhs) == reference_solve_linear(rows, cols, rhs) == x0
    assert primes == [P]
    rhs[-1] += P
    want = reference_solve_linear(rows, cols, rhs)
    assert isinstance(want, NoSolution)
    assert _same_solution(solve_linear(rows, cols, rhs), want)
    assert primes == [P, P, P2]


def test_inconsistency_in_picked_rows_needs_no_fallback(primes):
    # The picked rows already have full rank, so the kernel is empty mod p
    # and, trivially certified, over Q: one prime suffices.
    rhs = [Fraction(0), Fraction(1), Fraction(0)]
    assert isinstance(solve_linear([[1], [1], [2]], 1, rhs), NoSolution)
    assert primes == [P]


def test_unlucky_rows_for_a_free_column_need_a_second_prime(primes):
    # The screen mod P keeps only the first row.  Its solution with free
    # variables 0 also satisfies the second, but the certificate checks the
    # whole kernel of [A | b], and the vector of free column 1 is killed by
    # the second row only mod P; so the lift mod P fails, and the next
    # prime, which keeps both rows, gives the answer.
    rows = [[1, 0], [1, P]]
    rhs = [Fraction(1), Fraction(1)]
    assert solve_linear(rows, 2, rhs) == reference_solve_linear(rows, 2, rhs) == [1, 0]
    assert primes == [P, P2]


def test_solution_beyond_one_prime_bound_takes_two_primes(primes):
    # x = 1/2^31 has a denominator of 2^31, so the lifted kernel of [A | b]
    # does not reconstruct mod P; mod P * P2 it does, and it certifies.
    rhs = [Fraction(1)]
    assert (solve_linear([[2**31]], 1, rhs) == reference_solve_linear([[2**31]], 1, rhs)
            == [Fraction(1, 2**31)])
    assert primes == [P, P2]


def test_kv1_solve_runs_no_rref(primes):
    # solve_G reads G off the words of [F, y] by inverting ad(x) and then
    # certifies it exactly, with no linear solve, both for a krv element
    # (G exists) and for a Lie element outside krv
    XY = ("x", "y")
    x, y = NCPoly.letter(XY, "x"), NCPoly.letter(XY, "y")
    (F,) = krv_basis(7).elements()
    primes.clear()
    G = solve_G(F, 7)
    assert (lie_bracket(x, G) + lie_bracket(y, F)).is_zero()
    assert isinstance(solve_G(lyndon_basis(7, XY)[1], 7), NoSolution)
    assert primes == []


# -- input validation survives python -O ------------------------------------


def test_ratmatrix_rejects_a_block_of_the_wrong_width():
    with pytest.raises(ValueError):
        RatMatrix(2, [{0: 1}])
    with pytest.raises(ValueError):
        RatMatrix(1, [{0: 1}], [{0: 1}, {}])


@pytest.mark.parametrize("entry", [0.5, 0.0, "1/2", None])
def test_ratmatrix_rejects_an_entry_that_is_not_int_or_fraction(entry):
    # a float used to become an exact fraction silently
    with pytest.raises(TypeError):
        RatMatrix(2, [{0: 1}, {0: entry}])


def test_nullspace_rejects_non_matrix():
    with pytest.raises(TypeError):
        nullspace([[1, 2]])


def test_validation_is_kept_under_optimize():
    src = Path(kernel.__file__).resolve().parents[1]
    script = (
        "from mouldkit.kernel import RatMatrix, nullspace\n"
        "checks = [lambda: RatMatrix(2, [{0: 1}]),\n"
        "          lambda: RatMatrix(1, [{0: 1}], [{0: 1}, {}]),\n"
        "          lambda: RatMatrix(1, [{0: 0.5}]),\n"
        "          lambda: nullspace([[1]])]\n"
        "for check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except (TypeError, ValueError):\n"
        "        continue\n"
        "    raise SystemExit('accepted bad input')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
