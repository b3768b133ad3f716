# Membership predicates return their first failure: pins of each witness,
# one computation per `check`, a differential test against the witnesses the
# CLI used to rebuild after a boolean verdict, and input checks that hold
# under python -O.

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mouldkit import bridge, cli, kernel, liealg, mould, ncword, symmetry
from mouldkit.bridge import ma
from mouldkit.cli import _check, _verdict, fmt_rat, main, mp_to_json, poly_to_json
from mouldkit.kernel import MalformedSubstitution, MultiPoly, NoSolution, embed_vars
from mouldkit.liealg import (
    dmr_basis,
    dmr_witness,
    krv_basis,
    krv_witness,
    kv2_check,
    primitivity_defect,
    solve_G,
    star_regularize,
)
from mouldkit.mould import Mould, pus_sum, pusnu_witness
from mouldkit.ncword import (
    AlphabetError,
    NCPoly,
    NotHomogeneous,
    coefficient,
    homogeneous_weight,
    lie_bracket,
    lyndon_basis,
    lyndon_bracketing,
)
from mouldkit.symmetry import (
    alternal_witness,
    alternality_defect,
    ari_alil_space,
    ari_sena_pusnu_space,
)
from test_delta_star import reference_dmr_regularize
from test_ncword import dsw_is_lie

XY = ("x", "y")
X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")
P1 = lie_bracket(X, lie_bracket(X, Y))
L5 = lyndon_basis(5, XY)
KV2_FAIL = -1 * L5[0] - L5[3] + L5[4]  # kv1 solvable, kv2 fails


def Mo(depth, comps):
    return Mould.from_components(depth, comps)


# --- the reference ------------------------------------------------------------
#
# The witness derivations of `check` before the predicates returned their
# first failure, verbatim but for reading M^0 as a polynomial in no
# variables, with the boolean predicates they consulted (also verbatim, so
# the reference shares no ladder with the code under test).

def ref_is_alternal(mo):
    """M^0 = 0 and every (p,q) shuffle sum vanishes, p+q <= declared depth."""
    assert isinstance(mo, Mould), mo
    if not mo.components[0].is_zero():
        return False
    for m in range(2, mo.depth + 1):
        if mo.components[m].is_zero():
            continue
        for p in range(1, m):
            if not alternality_defect(mo, p, m - p).is_zero():
                return False
    return True


def ref_is_krv(F, w):
    """Lie, KV1 solvable, and KV2 proportional."""
    assert isinstance(F, NCPoly), F
    if F.is_zero():
        return True
    try:
        if homogeneous_weight(F) != w:
            return False
    except NotHomogeneous:
        return False
    if not dsw_is_lie(F):
        return False
    G = solve_G(F, w)
    if isinstance(G, NoSolution):
        return False
    return not isinstance(kv2_check(F, G, w), NoSolution)


def ref_is_dmr(f, w):
    assert isinstance(f, NCPoly), f
    assert w > 1, w
    if f.is_zero():
        return True
    try:
        if homogeneous_weight(f) != w:
            return False
    except NotHomogeneous:
        return False
    if not dsw_is_lie(f):
        return False
    if coefficient(f, ("x", "y")) != 0:
        return False
    return not primitivity_defect(reference_dmr_regularize(f))


def ref_alternal(mo):
    ok = ref_is_alternal(mo)
    witness = None
    if not ok:
        if not mo.component(0).is_zero():
            witness = {"m0": fmt_rat(mo.component(0).coefficient(()))}
        else:
            witness = next(
                {"p": p, "q": q, "defect": mp_to_json(d)}
                for m in range(2, mo.depth + 1)
                for p in range(1, m)
                for q in [m - p]
                if p <= q and not (d := alternality_defect(mo, p, q)).is_zero()
            )
    return _check("alternal", ok, witness)


def ref_pusnu(mo):
    bad = next(
        (m for m in range(1, mo.depth + 1) if not pus_sum(mo, m).is_zero()),
        None,
    )
    witness = None if bad is None else {"depth": bad}
    return _check("pus-neutral", bad is None, witness)


def ref_krv(p, w):
    ok = ref_is_krv(p, w)
    witness = None
    if not ok:
        if not dsw_is_lie(p):
            witness = {"stage": "lie"}
        elif isinstance(solve_G(p, w), NoSolution):
            witness = {"stage": "kv1"}
        else:
            witness = {"stage": "kv2"}
    return _check("krv membership", ok, witness)


def ref_dmr(p, w):
    ok = ref_is_dmr(p, w)
    witness = None
    if not ok:
        c = coefficient(p, ("x", "y"))
        if not dsw_is_lie(p):
            witness = {"stage": "lie"}
        elif c:
            witness = {"stage": "c_xy", "value": fmt_rat(c)}
        else:
            defect = primitivity_defect(reference_dmr_regularize(p))
            # sorted as tuples of letter strings, as over "y1", "y2", ...
            spelled = sorted(
                (tuple(tuple("y%d" % n for n in u) for u in k), v)
                for k, v in defect.items()
            )
            entries = [
                {"left": "".join(left), "right": "".join(right), "coeff": fmt_rat(v)}
                for (left, right), v in spelled[:4]
            ]
            witness = {"stage": "primitivity", "defect_entries": entries}
    return _check("dmr membership", ok, witness)


# --- strategies ---------------------------------------------------------------

small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def polynomials(draw, m, max_deg=3):
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * m))
    return MultiPoly(m, draw(st.dictionaries(exps, small_rats, max_size=3)))


@st.composite
def witness_moulds(draw):
    """Depth <= 4 moulds that pass and fail alternality and pus-neutrality
    at every depth: per depth a random component, a zero one, the
    alternal component of ma(Lie), or P minus a rotation of P, whose cyclic
    sum vanishes."""
    depth = draw(st.integers(1, 4))
    lie = ma(draw(lie_polys(depth)))
    comps = {0: MultiPoly.const(0, draw(st.sampled_from([0] * 4 + [Fraction(3, 2)])))}
    for m in range(1, depth + 1):
        kind = draw(st.sampled_from(["random", "zero", "lie", "rotation"]))
        if kind == "random":
            comps[m] = draw(polynomials(m))
        elif kind == "lie":
            comps[m] = lie.component(m)
        elif kind == "rotation":
            P = draw(polynomials(m))
            comps[m] = P - embed_vars(P, [(j + 1) % m for j in range(m)], m)
    return Mo(depth, comps)


def lie_polys(w):
    brackets = lyndon_basis(w, XY)
    return st.lists(small_rats, min_size=len(brackets), max_size=len(brackets)).map(
        lambda cs: sum((c * b for c, b in zip(cs, brackets)), NCPoly.zero(XY))
    )


BASES = {w: krv_basis(w).elements() + dmr_basis(w).elements() for w in range(2, 7)}
KRV5 = krv_basis(5).elements()[0]


@st.composite
def weighted_polys(draw):
    """(p, w) with p nonzero homogeneous of weight w <= 6: a random Lie
    element, or a krv/dmr basis element, plus maybe a Lie perturbation and
    maybe a single word (which makes it non-Lie).  KV1 is solvable off krv
    only at weight 5 (a 3-dimensional space over krv's 1), so the kv2 stage
    gets a branch of its own."""
    if draw(st.integers(0, 4)) == 0:
        return draw(small_rats.filter(bool)) * KV2_FAIL + draw(small_rats) * KRV5, 5
    w = draw(st.integers(2, 6))
    p = NCPoly.zero(XY)
    if BASES[w] and draw(st.booleans()):
        p = draw(small_rats.filter(bool)) * draw(st.sampled_from(BASES[w]))
    if p.is_zero() or draw(st.booleans()):
        p = p + draw(lie_polys(w))
    if draw(st.integers(0, 3)) == 0:
        wd = draw(st.lists(st.sampled_from(XY), min_size=w, max_size=w))
        p = p + NCPoly.from_word(XY, tuple(wd))
    if p.is_zero():
        p = lyndon_basis(w, XY)[0]
    return p, w


DIFFERENTIAL = settings(max_examples=60, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


@DIFFERENTIAL
@given(witness_moulds())
def test_mould_witnesses_match_the_reference(mo):
    assert _verdict("alternal", alternal_witness(mo)) == ref_alternal(mo)
    assert _verdict("pus-neutral", pusnu_witness(mo)) == ref_pusnu(mo)


@DIFFERENTIAL
@given(weighted_polys())
def test_poly_witnesses_match_the_reference(pw):
    p, w = pw
    assert _verdict("krv membership", krv_witness(p, w)) == ref_krv(p, w)
    assert _verdict("dmr membership", dmr_witness(p, w)) == ref_dmr(p, w)


@DIFFERENTIAL
@given(witness_moulds(), st.data())
def test_qp_shuffle_sum_vanishes_with_the_pq_sum(mo, data):
    # why alternal_witness walks p <= q only
    if mo.depth < 2:
        return
    m = data.draw(st.integers(2, mo.depth))
    p = data.draw(st.integers(1, m - 1))
    pq = alternality_defect(mo, p, m - p)
    qp = alternality_defect(mo, m - p, p)
    assert pq.is_zero() == qp.is_zero()


# --- witness pins -------------------------------------------------------------

def test_alternal_witness_pins():
    assert alternal_witness(Mo(2, {2: {(1, 0): 1, (0, 1): -1}})) is None
    assert alternal_witness(Mould.from_components(2, {0: {(): 1}})) == {"m0": Fraction(1)}
    got = alternal_witness(Mo(2, {2: {(1, 1): 1}}))
    assert got == {"p": 1, "q": 1, "defect": MultiPoly(2, {(1, 1): 2})}
    got = alternal_witness(Mo(4, {4: {(1, 0, 0, 0): 1}}))
    assert (got["p"], got["q"]) == (1, 3)


def test_pusnu_witness_pins():
    assert pusnu_witness(Mo(2, {2: {(1, 0): 1, (0, 1): -1}})) is None
    assert pusnu_witness(Mo(2, {1: {(1,): 1}})) == {"depth": 1}
    assert pusnu_witness(Mo(3, {3: {(2, 0, 0): 1}})) == {"depth": 3}


def test_krv_witness_pins():
    assert krv_witness(NCPoly.zero(XY), 2) is None
    assert krv_witness(P1, 3) is None
    assert krv_witness(P1, 4) == {"stage": "weight"}
    assert krv_witness(P1 + lie_bracket(X, Y), 3) == {"stage": "weight"}
    assert krv_witness(NCPoly.from_word(XY, ("x", "y")), 2) == {"stage": "lie"}
    assert krv_witness(lie_bracket(X, Y), 2) == {"stage": "kv1"}
    assert krv_witness(KV2_FAIL, 5) == {"stage": "kv2"}


def test_dmr_witness_pins():
    member = dmr_basis(3).elements()[0]
    assert dmr_witness(member, 3) is None
    assert dmr_witness(member, 4) == {"stage": "weight"}
    assert dmr_witness(NCPoly.from_word(XY, ("y", "y")), 2) == {"stage": "lie"}
    assert dmr_witness(lie_bracket(X, Y), 2) == {"stage": "c_xy", "value": Fraction(1)}
    lyn5 = L5[0]
    got = dmr_witness(lyn5, 5)
    assert got["stage"] == "primitivity"
    assert got["defect"] == primitivity_defect(star_regularize(lyn5)) != {}


# --- one computation per check -------------------------------------------------

MODULES = (bridge, cli, kernel, liealg, mould, ncword, symmetry)


def count_calls(monkeypatch, *functions):
    """Rebind each function, under every name any mouldkit module holds it
    by, to a wrapper that logs its arguments; returns {name: [args, ...]}."""
    calls = {fn.__name__: [] for fn in functions}
    for fn in functions:
        def wrapper(*args, _fn=fn):
            calls[_fn.__name__].append(args)
            return _fn(*args)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_krv_runs_each_stage_once(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "kv2fail.json", poly_to_json(KV2_FAIL))
    G = solve_G(KV2_FAIL, 5)
    calls = count_calls(monkeypatch, liealg.solve_G, ncword.lie_witness)
    assert main(["check", "krv", "--input", path]) == 1
    assert 'witness: {"stage": "kv2"}' in capsys.readouterr().out
    assert Counter({k: len(v) for k, v in calls.items()}) == {"solve_G": 1, "lie_witness": 2}
    # once on the input, once on G inside solve_G
    assert [p for (p,) in calls["lie_witness"]] == [KV2_FAIL, G]


def test_check_dmr_runs_each_stage_once(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "lyn5.json", poly_to_json(L5[0]))
    calls = count_calls(monkeypatch, liealg.primitivity_defect, ncword.lie_witness)
    assert main(["check", "dmr", "--input", path]) == 1
    assert '"stage": "primitivity"' in capsys.readouterr().out
    assert Counter({k: len(v) for k, v in calls.items()}) == {
        "primitivity_defect": 1, "lie_witness": 1}
    assert [p for (p,) in calls["lie_witness"]] == [L5[0]]


def test_check_alternal_runs_each_split_once(tmp_path, monkeypatch, capsys):
    # alternal in depths 1 and 2, zero in depth 3, failing at (1, 3)
    obj = {
        "1": [{"coeff": "1", "exponents": [2]}],
        "2": [{"coeff": "-1", "exponents": [1, 0]}, {"coeff": "1", "exponents": [0, 1]}],
        "4": [{"coeff": "1", "exponents": [1, 0, 0, 0]}],
    }
    path = write(tmp_path, "depth4.json", obj)
    calls = count_calls(monkeypatch, symmetry.alternality_defect)
    assert main(["check", "alternal", "--input", path]) == 1
    assert '"p": 1, "q": 3' in capsys.readouterr().out
    splits = [(p, q) for _, p, q in calls["alternality_defect"]]
    assert len(splits) == len(set(splits))
    assert all(p <= q for p, q in splits)
    assert splits[-1] == (1, 3)


def test_paper_suite_embedding_uses_is_krv(monkeypatch, capsys):
    calls = count_calls(monkeypatch, liealg.krv_witness)
    assert main(["paper-suite", "--max-weight", "5"]) == 0
    capsys.readouterr()
    assert [args[1] for args in calls["krv_witness"]] == [3, 5]


# --- input checks that python -O keeps -----------------------------------------

K3 = krv_basis(3).elements()[0]
# the krv_3 generator over foreign alphabets: x, y renamed a, b; and the
# same words over the alphabet ("y", "x")
K3_AB = NCPoly(("a", "b"), {tuple("ab"[XY.index(s)] for s in wd): c
                            for wd, c in K3.terms.items()})
K3_YX = NCPoly(("y", "x"), K3.terms)
M2 = MultiPoly(2, {(1, 0): 1})
M3 = MultiPoly(3, {(0, 0, 1): 1})

BAD_INPUT = [
    (TypeError, lambda: krv_witness(P1.terms, 3)),
    (ValueError, lambda: krv_witness(P1, 1)),
    (ValueError, lambda: krv_witness(NCPoly.zero(XY), 0)),
    (TypeError, lambda: dmr_witness("xy", 2)),
    (ValueError, lambda: dmr_witness(P1, 1)),
    (TypeError, lambda: alternal_witness({2: {(1, 1): 1}})),
    (TypeError, lambda: alternality_defect(None, 1, 1)),
    (TypeError, lambda: pus_sum([0], 1)),
    (TypeError, lambda: pusnu_witness(None)),
    (ValueError, lambda: bridge.vimo(NCPoly.from_word(XY, ("x", "y")), 3)),
    (AlphabetError, lambda: NCPoly(("x", "x"), {("x",): 1})),
    (ValueError, lambda: lyndon_bracketing(("y", "x"), XY)),
    (AlphabetError, lambda: star_regularize(K3_AB)),
    (ValueError, lambda: MultiPoly.var(1, 0) ** -1),
    (ValueError, lambda: P1 ** -2),
    (ValueError, lambda: ari_alil_space(1)),
    (ValueError, lambda: ari_sena_pusnu_space(1)),
    (AlphabetError, lambda: krv_witness(K3_AB, 3)),
    (AlphabetError, lambda: krv_witness(K3_YX, 3)),
    (AlphabetError, lambda: solve_G(K3_YX, 3)),
    (AlphabetError, lambda: kv2_check(K3_AB, K3_AB, 3)),
    (AlphabetError, lambda: dmr_witness(K3_AB, 3)),
    (AlphabetError, lambda: dmr_witness(K3_YX, 3)),
    (TypeError, lambda: M2 + 1),
    (TypeError, lambda: M2 - P1),
    (ValueError, lambda: M2 + M3),
    (ValueError, lambda: M2 - M3),
    (ValueError, lambda: M2 * M3),
    (MalformedSubstitution, lambda: kernel.substitute(M2, [(Fraction(1, 2),), (1,)], 1)),
    (MalformedSubstitution, lambda: kernel.substitute(M2, [(0.5,), (1,)], 1)),
    (MalformedSubstitution, lambda: kernel.substitute(M2, [(True,), (1,)], 1)),
    (TypeError, lambda: kernel.substitute(P1, [], 0)),
    (TypeError, lambda: kernel.exact_div(M2, 1)),
    (ValueError, lambda: kernel.exact_div(MultiPoly.var(2, 0), MultiPoly.var(1, 0))),
    (TypeError, lambda: poly_to_json(M2)),
    (TypeError, lambda: mp_to_json(P1)),
    (TypeError, lambda: cli.mould_to_json(M2)),
]


@pytest.mark.parametrize("error, call", BAD_INPUT)
def test_bad_input_raises(error, call):
    with pytest.raises(error):
        call()


def test_bad_input_raises_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from fractions import Fraction\n"
        "from mouldkit.bridge import vimo\n"
        "from mouldkit.cli import mould_to_json, mp_to_json, poly_to_json\n"
        "from mouldkit.kernel import (MalformedSubstitution, MultiPoly, exact_div,\n"
        "                             substitute)\n"
        "from mouldkit.liealg import (dmr_witness, krv_basis, krv_witness, solve_G,\n"
        "                             star_regularize)\n"
        "from mouldkit.mould import pus_sum\n"
        "from mouldkit.ncword import AlphabetError, NCPoly, lyndon_bracketing\n"
        "from mouldkit.symmetry import (alternal_witness, ari_alil_space,\n"
        "                               ari_sena_pusnu_space)\n"
        "xy = NCPoly.from_word(('x', 'y'), ('x', 'y'))\n"
        "k3 = krv_basis(3).elements()[0]\n"
        "ab = NCPoly(('a', 'b'), {tuple('ab'['xy'.index(s)] for s in wd): c\n"
        "                         for wd, c in k3.terms.items()})\n"
        "yx = NCPoly(('y', 'x'), k3.terms)\n"
        "m2, m3 = MultiPoly(2, {(1, 0): 1}), MultiPoly(3, {(0, 0, 1): 1})\n"
        "checks = [(ValueError, lambda: vimo(xy, 3)),\n"
        "          (AlphabetError, lambda: NCPoly(('x', 'x'), {('x',): 1})),\n"
        "          (ValueError, lambda: lyndon_bracketing(('y', 'x'), ('x', 'y'))),\n"
        "          (AlphabetError, lambda: star_regularize(ab)),\n"
        "          (ValueError, lambda: MultiPoly.var(1, 0) ** -1),\n"
        "          (ValueError, lambda: xy ** -2),\n"
        "          (ValueError, lambda: ari_alil_space(1)),\n"
        "          (ValueError, lambda: ari_sena_pusnu_space(1)),\n"
        "          (ValueError, lambda: krv_witness(xy, 1)),\n"
        "          (TypeError, lambda: dmr_witness('xy', 2)),\n"
        "          (TypeError, lambda: alternal_witness(None)),\n"
        "          (TypeError, lambda: pus_sum(None, 1)),\n"
        "          (AlphabetError, lambda: krv_witness(ab, 3)),\n"
        "          (AlphabetError, lambda: krv_witness(yx, 3)),\n"
        "          (AlphabetError, lambda: solve_G(yx, 3)),\n"
        "          (AlphabetError, lambda: dmr_witness(ab, 3)),\n"
        "          (TypeError, lambda: m2 + 1),\n"
        "          (ValueError, lambda: m2 + m3),\n"
        "          (ValueError, lambda: m2 - m3),\n"
        "          (ValueError, lambda: m2 * m3),\n"
        "          (MalformedSubstitution,\n"
        "           lambda: substitute(m2, [(Fraction(1, 2),), (1,)], 1)),\n"
        "          (MalformedSubstitution, lambda: substitute(m2, [(0.5,), (1,)], 1)),\n"
        "          (MalformedSubstitution, lambda: substitute(m2, [(True,), (1,)], 1)),\n"
        "          (TypeError, lambda: substitute(xy, [], 0)),\n"
        "          (TypeError, lambda: exact_div(m2, 1)),\n"
        "          (ValueError,\n"
        "           lambda: exact_div(MultiPoly.var(2, 0), MultiPoly.var(1, 0))),\n"
        "          (TypeError, lambda: poly_to_json(m2)),\n"
        "          (TypeError, lambda: mp_to_json(xy)),\n"
        "          (TypeError, lambda: mould_to_json(m2))]\n"
        "for exc, check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except exc:\n"
        "        continue\n"
        "    raise SystemExit('accepted: %d' % checks.index((exc, check)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
