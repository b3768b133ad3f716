# Command-line front end: serialization of polynomials and moulds, the
# verification campaigns and JSON/text reports.  Every basis is solved by
# dmr_basis/krv_basis in process; paper-suite solves each (algebra, weight)
# once per invocation.
#
# Wire conventions: a rational is exactly the string "n" or "n/d", like
# "-3/7"; a polynomial in x, y is a list of {"coeff", "word"}; a mould is an
# object keyed by depth, "0" included, whose values list {"coeff",
# "exponents"}.  Reports are byte-identical across runs for identical
# inputs, which is why timings are opt-in.

import argparse
import functools
import hashlib
import json
import os
import random
import re
import sys
import time
import traceback
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .bridge import F_to_ftilde, ftilde_to_F, ma, vimo
from .kernel import MultiPoly, NoSolution, substitute
from .liealg import (
    WEIGHT_BOUND,
    WeightBoundError,
    dmr_basis,
    dmr_witness,
    fil2_dimension,
    krv_basis,
    krv_witness,
    kv2_check,
    solve_G,
)
from .mould import Mould, mantar, mould_mul, push, pusnu_witness, swap, teru
from .ncword import (
    NCPoly,
    NotHomogeneous,
    decompose_right,
    homogeneous_weight,
    is_anti_palindromic,
    lyndon_basis,
    lyndon_combination,
)
from .symmetry import (
    alternal_witness,
    alternil_up_to_constant,
    ari_alil_space,
    ari_sena_pusnu_space,
    senary_defect,
    senary_eq41_holds,
    senary_holds,
    senary_lhs,
    senary_rhs,
)

XY = ("x", "y")

# fixed seed for the sampled campaign items; reports must not vary run to run
SUITE_SEED = 271828


class ParseError(ValueError):
    def __init__(self, message, location):
        super().__init__("%s (at %s)" % (message, location))
        self.location = location


# ---------------------------------------------------------------------------
# wire format

_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def fmt_rat(q):
    """q as "n" or "n/d", every digit written: str(int) refuses more than
    Python's int-to-str digit limit, and str(Decimal(int)) does not."""
    q = Fraction(q)
    n = str(Decimal(q.numerator))
    return n if q.denominator == 1 else "%s/%s" % (n, Decimal(q.denominator))


def parse_rat(s, loc):
    """Exactly what fmt_rat writes: a string "n" or "n/d" of ASCII digits."""
    try:
        if isinstance(s, str) and _RAT.fullmatch(s):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError("not a rational: %r" % (s,), loc)


def poly_to_json(p):
    if not isinstance(p, NCPoly):
        raise TypeError("poly_to_json needs an NCPoly, got %s" % type(p).__name__)
    out = []
    for wd in sorted(p.terms):
        out.append({"coeff": fmt_rat(p.terms[wd]), "word": "".join(wd)})
    return out


def poly_from_json(obj, loc="input"):
    if not isinstance(obj, list):
        raise ParseError("polynomial must be a list of terms", loc)
    p = NCPoly.zero(XY)
    for i, entry in enumerate(obj):
        here = "%s.%d" % (loc, i)
        if not isinstance(entry, dict) or set(entry) != {"coeff", "word"}:
            raise ParseError("term needs exactly 'coeff' and 'word'", here)
        c = parse_rat(entry["coeff"], here + ".coeff")
        wd = entry["word"]
        if not isinstance(wd, str) or any(s not in XY for s in wd):
            raise ParseError("word must be a string over x,y: %r" % (wd,), here + ".word")
        p = p + c * NCPoly.from_word(XY, tuple(wd))
    return p


def mp_to_json(poly):
    if not isinstance(poly, MultiPoly):
        raise TypeError("mp_to_json needs a MultiPoly, got %s" % type(poly).__name__)
    out = []
    for e in sorted(poly.terms):
        out.append({"coeff": fmt_rat(poly.terms[e]), "exponents": list(e)})
    return out


def mould_to_json(m):
    if not isinstance(m, Mould):
        raise TypeError("mould_to_json needs a Mould, got %s" % type(m).__name__)
    return {str(d): mp_to_json(p) for d, p in enumerate(m.components)}


def mould_from_json(obj, loc="input"):
    if not isinstance(obj, dict):
        raise ParseError("mould must be an object keyed by depth", loc)
    comps = {}
    maxd = 0
    for key, entries in obj.items():
        here = "%s.%s" % (loc, key)
        # canonical ASCII decimals only: "01" would alias depth 1, and
        # str.isdigit accepts digits that int() rejects, such as a superscript 2
        if not (isinstance(key, str) and key.isascii() and key.isdigit()
                and (key == "0" or key[0] != "0")):
            raise ParseError("depth key must be 0 or a decimal without a leading zero", here)
        # ma(f) of weight w has depth at most w, so no input goes deeper than
        # the weight bound; the length test keeps int() off huge keys
        if len(key) > len(str(WEIGHT_BOUND)) or int(key) > WEIGHT_BOUND:
            raise ParseError("depth key above the weight bound %d" % WEIGHT_BOUND, here)
        d = int(key)
        maxd = max(maxd, d)
        if not isinstance(entries, list):
            raise ParseError("depth value must be a list of terms", here)
        terms = {}
        for i, entry in enumerate(entries):
            at = "%s.%d" % (here, i)
            if not isinstance(entry, dict) or set(entry) != {"coeff", "exponents"}:
                raise ParseError("term needs exactly 'coeff' and 'exponents'", at)
            c = parse_rat(entry["coeff"], at + ".coeff")
            e = entry["exponents"]
            ok = isinstance(e, list) and all(
                type(k) is int and k >= 0 for k in e
            )
            if not ok or len(e) != d:
                raise ParseError(
                    "exponents must be %d nonnegative integers, got %r" % (d, e), at
                )
            e = tuple(e)
            terms[e] = terms.get(e, Fraction(0)) + c
        comps[d] = terms
    return Mould.from_components(maxd, comps)


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()[:32]


def _solve(algebra, weight):
    # the solvers are looked up at call time, so rebinding them is seen
    return (dmr_basis if algebra == "dmr" else krv_basis)(weight)


# ---------------------------------------------------------------------------
# report assembly

def _check(name, ok, witness=None):
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if not ok:
        assert witness is not None, name
        entry["witness"] = witness
    return entry


def _verdict(name, witness):
    """The check entry for a predicate's first failure (None: it holds).
    Rationals go through fmt_rat, polynomials through mp_to_json, and a
    primitivity defect mapping becomes its first four entries, with each
    composition written as y-letters and sorted as tuples of those letter
    strings ("y10" before "y2")."""
    if witness is None:
        return _check(name, True)
    out = {}
    for key, v in witness.items():
        if isinstance(v, Fraction):
            v = fmt_rat(v)
        elif isinstance(v, MultiPoly):
            v = mp_to_json(v)
        elif isinstance(v, dict):
            entries = sorted((tuple(tuple("y%d" % n for n in u) for u in k), c)
                             for k, c in v.items())
            key, v = key + "_entries", [
                {"left": "".join(left), "right": "".join(right), "coeff": fmt_rat(c)}
                for (left, right), c in entries[:4]
            ]
        out[key] = v
    return _check(name, False, out)


def _assemble(echo, checks, conjectural=None, timings=None):
    report = {
        "command": echo,
        "inputs_digest": _digest(echo),
        "version": __version__,
        "checks": checks,
        "status": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
    }
    if conjectural:
        report["conjectural"] = conjectural
    if timings is not None:
        report["timings"] = timings
    return report


def _render(report, fmt, out):
    if fmt == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    echo = report["command"]
    head = " ".join(
        [echo["command"]]
        + ["%s=%s" % (k, echo[k]) for k in sorted(echo) if k != "command"]
    )
    out.write("== %s ==\n" % head)
    for c in report["checks"]:
        line = "%s %s" % (c["status"].upper(), c["name"])
        if c["status"] == "fail":
            line += "  witness: %s" % json.dumps(c["witness"], sort_keys=True)
        out.write(line + "\n")
    for c in report.get("conjectural", ()):
        out.write("EXPLORATORY %s: %s\n" % (c["name"], c["result"]))
    if "timings" in report:
        for k in sorted(report["timings"]):
            out.write("time %s: %ss\n" % (k, report["timings"][k]))
    out.write("status: %s\n" % report["status"])


# ---------------------------------------------------------------------------
# commands

def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError("cannot read input: %s" % e, path)
    except UnicodeDecodeError as e:
        raise ParseError("input is not UTF-8: %s" % e.reason, path)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e.msg, "%s:%d:%d" % (path, e.lineno, e.colno))


def _senary_items(mo, label, rmax, checks, conjectural):
    for r in range(1, rmax + 1):
        defect = senary_defect(mo, r)
        ok = defect.is_zero()
        if r <= 3:
            witness = None if ok else {"r": r, "defect": mp_to_json(defect)}
            checks.append(_check("senary r=%d [%s]" % (r, label), ok, witness))
        else:
            conjectural.append(
                {"name": "senary r=%d [%s]" % (r, label), "result": "holds" if ok else "fails"}
            )


def _check_rmax(rmax):
    # every input has depth at most WEIGHT_BOUND, and every senary instance
    # at r > depth + 1 vanishes identically
    if not 1 <= rmax <= WEIGHT_BOUND + 1:
        raise ParseError("--rmax must be in [1, %d], got %d" % (WEIGHT_BOUND + 1, rmax),
                         "arguments.rmax")


def cmd_verify_senary(args):
    rmax = args.rmax
    _check_rmax(rmax)
    echo = {"command": "verify-senary", "rmax": rmax}
    checks, conjectural = [], []
    if args.input is not None and args.weight is not None:
        raise ParseError("--weight and --input exclude each other", "arguments")
    if args.input is not None:
        echo["input"] = os.path.basename(args.input)
        obj = _load_json(args.input)
        entries = obj if isinstance(obj, list) else [obj]
        if not entries:
            raise ParseError("no moulds to check", "input")
        moulds = [
            mould_from_json(entry, loc="input.%d" % i)
            for i, entry in enumerate(entries)
        ]
        for i, mo in enumerate(moulds):
            _senary_items(mo, "element %d" % i, rmax, checks, conjectural)
    else:
        w = args.weight
        if w is None:
            raise ParseError("--weight or --input is required", "arguments")
        echo["weight"] = w
        basis = dmr_basis(w)
        checks.append(_check("dmr basis solved (dim %d)" % basis.dimension, True))
        for i, f in enumerate(basis.elements()):
            _senary_items(ma(f), "element %d" % i, rmax, checks, conjectural)
    return _assemble(echo, checks, conjectural)


def cmd_basis(args):
    echo = {"command": "basis", "algebra": args.algebra, "weight": args.weight}
    t0 = time.monotonic()
    basis = _solve(args.algebra, args.weight)
    elapsed = time.monotonic() - t0
    checks = [
        _check("%s basis at weight %d: dimension %d"
               % (args.algebra, args.weight, basis.dimension), True)
    ]
    report = _assemble(echo, checks)
    report["basis"] = {
        "ambient": ["".join(wd) for wd in basis.ambient],
        "vectors": [[fmt_rat(c) for c in v] for v in basis.vectors],
        "elements": [poly_to_json(e) for e in basis.elements()],
    }
    if args.timings:
        report["timings"] = {"solve": round(elapsed, 3)}
    return report


def _property_weight(p, loc):
    try:
        w = homogeneous_weight(p)
    except NotHomogeneous:
        raise ParseError("input polynomial must be homogeneous", loc)
    if w is None or w < 2:
        raise ParseError("input polynomial must have weight >= 2", loc)
    if w > WEIGHT_BOUND:
        raise ParseError("input polynomial weight above the weight bound %d"
                         % WEIGHT_BOUND, loc)
    return w


def _check_mould_property(prop, mo, rmax):
    checks, conjectural = [], []
    if prop == "alternal":
        checks.append(_verdict("alternal", alternal_witness(mo)))
    elif prop == "alternil":
        got = alternil_up_to_constant(mo)
        if isinstance(got, NoSolution):
            if not mo.components[0].is_zero():
                witness = {"m0": fmt_rat(mo.components[0].coefficient(()))}
            else:
                witness = {
                    "splits": [
                        {"p": p, "q": q, "defect": mp_to_json(d)}
                        for p, q, d in got.defects
                    ]
                }
            checks.append(_check("alternil up to constants", False, witness))
        else:
            checks.append(_check("alternil up to constants", True))
            checks.append(
                _check(
                    "constants: %s"
                    % [fmt_rat(got.constant.value(m)) for m in range(mo.depth + 1)],
                    True,
                )
            )
    elif prop == "pusnu":
        checks.append(_verdict("pus-neutral", pusnu_witness(mo)))
    else:
        assert prop == "senary", prop
        _senary_items(mo, "input", rmax, checks, conjectural)
    return checks, conjectural


def _check_poly_property(prop, p):
    checks = []
    w = _property_weight(p, "input")
    if prop == "kv1":
        got = solve_G(p, w)
        if isinstance(got, NoSolution):
            checks.append(_check("kv1 solvable", False, {"reason": got.reason}))
        else:
            checks.append(_check("kv1 solvable", True))
            checks.append(_check("G = %s" % json.dumps(poly_to_json(got)), True))
    elif prop == "kv2":
        G = solve_G(p, w)
        if isinstance(G, NoSolution):
            checks.append(
                _check("kv2", False, {"stage": "kv1", "reason": G.reason})
            )
        else:
            alpha = kv2_check(p, G, w)
            if isinstance(alpha, NoSolution):
                checks.append(
                    _check("kv2", False, {"stage": "kv2", "reason": alpha.reason})
                )
            else:
                checks.append(_check("kv2 alpha = %s" % fmt_rat(alpha), True))
    elif prop == "krv":
        checks.append(_verdict("krv membership", krv_witness(p, w)))
    else:
        assert prop == "dmr", prop
        checks.append(_verdict("dmr membership", dmr_witness(p, w)))
    return checks


MOULD_PROPS = ("alternal", "alternil", "pusnu", "senary")
POLY_PROPS = ("kv1", "kv2", "dmr", "krv")


def cmd_check(args):
    echo = {
        "command": "check",
        "property": args.property,
        "input": os.path.basename(args.input),
    }
    if args.property == "senary":
        _check_rmax(args.rmax)
    obj = _load_json(args.input)
    conjectural = []
    if args.property in MOULD_PROPS:
        mo = mould_from_json(obj)
        checks, conjectural = _check_mould_property(args.property, mo, args.rmax)
    else:
        p = poly_from_json(obj)
        checks = _check_poly_property(args.property, p)
    return _assemble(echo, checks, conjectural)


# ---------------------------------------------------------------------------
# the consolidated verification campaign

def _random_lie(rng, w):
    n = len(lyndon_basis(w, XY))
    coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    return lyndon_combination(coords, w, XY)


def _random_mould(rng, depth, deg):
    comps = {}
    for m in range(1, depth + 1):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, deg) for _ in range(m))
            terms[e] = Fraction(rng.randint(-5, 5))
        comps[m] = terms
    return Mould.from_components(depth, comps)


def _suite_senary_on_dmr(checks, wmax, basis_of):
    for w in range(3, min(8, wmax) + 1):
        for i, f in enumerate(basis_of("dmr", w).elements()):
            mo = ma(f)
            for r in (1, 2, 3):
                checks.append(
                    _check(
                        "senary r=%d [dmr w=%d element %d]" % (r, w, i),
                        senary_holds(mo, r),
                        {"r": r, "w": w},
                    )
                )


def _suite_equivalences(checks, wmax, rng):
    for w in range(3, min(7, wmax) + 1):
        samples = list(lyndon_basis(w, XY))
        samples += [_random_lie(rng, w) for _ in range(20)]
        for i, F in enumerate(samples):
            if F.is_zero():
                continue
            g_ok = not isinstance(solve_G(F, w), NoSolution)
            f = F_to_ftilde(F)
            mo = ma(f)
            sen_ok = all(senary_holds(mo, r) for r in range(1, w + 1))
            checks.append(
                _check(
                    "equivalence kv1<->senary [w=%d sample %d]" % (w, i),
                    g_ok == sen_ok,
                    {"w": w, "kv1": g_ok, "senary": sen_ok},
                )
            )
            fx, fy = decompose_right(f)
            pal_ok = is_anti_palindromic(fy + fx, w - 1)
            checks.append(
                _check(
                    "equivalence kv1<->antipalindrome [w=%d sample %d]" % (w, i),
                    g_ok == pal_ok,
                    {"w": w, "kv1": g_ok, "antipalindrome": pal_ok},
                )
            )


def _suite_senary_oracle(checks, rng):
    for i in range(50):
        mo = _random_mould(rng, rng.randint(1, 4), 4)
        for r in (1, 2, 3):
            agree = senary_holds(mo, r) == senary_eq41_holds(mo, r)
            checks.append(
                _check("senary oracle agreement [mould %d r=%d]" % (i, r), agree, {"r": r})
            )


def _suite_operator_pin(checks, rng):
    for i in range(10):
        mo = _random_mould(rng, rng.randint(1, 3), 4)
        lhs_m = teru(mo)
        rhs_m = push(mantar(teru(mantar(mo))))
        ok = all(
            lhs_m.component(r) == senary_lhs(mo, r)
            and rhs_m.component(r) == senary_rhs(mo, r)
            for r in range(1, 5)
        )
        checks.append(_check("operator expansion pin [mould %d]" % i, ok, {"mould": i}))


def _suite_homomorphism(checks, rng):
    for i in range(20):
        w1 = rng.randint(1, 3)
        h1 = NCPoly.zero(XY)
        for _ in range(rng.randint(1, 3)):
            wd = tuple(rng.choice(XY) for _ in range(w1))
            h1 = h1 + Fraction(rng.randint(-4, 4)) * NCPoly.from_word(XY, wd)
        h2 = NCPoly.one(XY)
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                h2 = h2 * NCPoly.letter(XY, "y")
            else:
                h2 = h2 * _random_lie(rng, 2)
        ok = ma(h1 * h2) == mould_mul(ma(h1), ma(h2))
        checks.append(_check("ma homomorphism [pair %d]" % i, ok, {"pair": i}))


def _suite_vimo_invariants(checks, rng, wmax):
    for w in range(1, min(6, wmax) + 1):
        f = _random_lie(rng, w)
        if f.is_zero():
            f = lyndon_basis(w, XY)[0]
        for r in range(w + 1):
            p = vimo(f, r)
            n = r + 1
            forms = [(0,) * n]
            for i in range(1, n):
                row = [0] * n
                row[0], row[i] = -1, 1
                forms.append(tuple(row))
            translated = substitute(p, forms, n)
            if r >= 1 or w >= 2:
                checks.append(
                    _check(
                        "vimo translation invariance [w=%d r=%d]" % (w, r),
                        p == translated,
                        {"w": w, "r": r},
                    )
                )
            negated = substitute(
                p, [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)], n
            )
            sign = 1 if (w - r) % 2 == 0 else -1
            checks.append(
                _check(
                    "vimo parity [w=%d r=%d]" % (w, r),
                    p == sign * negated,
                    {"w": w, "r": r},
                )
            )


def _suite_dimensions(checks, wmax, basis_of):
    for w in range(3, min(6, wmax) + 1):
        dmr_dim = basis_of("dmr", w).dimension
        alil_dim = len(ari_alil_space(w))
        checks.append(
            _check(
                "dimension dmr=%d vs alternal/alternil mould space=%d [w=%d]"
                % (dmr_dim, alil_dim, w),
                dmr_dim == alil_dim,
                {"w": w, "dmr": dmr_dim, "moulds": alil_dim},
            )
        )
        krv_f = basis_of("krv", w).elements()
        fil2_krv = fil2_dimension([F_to_ftilde(F) for F in krv_f])
        sena_dim = len(ari_sena_pusnu_space(w))
        checks.append(
            _check(
                "dimension fil2 krv=%d vs senary/pusnu mould space=%d [w=%d]"
                % (fil2_krv, sena_dim, w),
                fil2_krv == sena_dim,
                {"w": w, "krv_fil2": fil2_krv, "moulds": sena_dim},
            )
        )


def _suite_embedding(checks, wmax, basis_of):
    for w in (3, 5):
        if w > wmax:
            continue
        for i, f in enumerate(basis_of("dmr", w).elements()):
            # dmr vectors are stated in f-tilde coordinates; map back
            ok = krv_witness(ftilde_to_F(f), w) is None
            checks.append(
                _check("embedding dmr->krv [w=%d element %d]" % (w, i), ok, {"w": w})
            )


def _suite_constant_vanishing(checks, wmax, basis_of):
    for w in range(3, min(8, wmax) + 1):
        for i, f in enumerate(basis_of("dmr", w).elements()):
            cert = alternil_up_to_constant(swap(ma(f)))
            ok = not isinstance(cert, NoSolution) and cert.constant.value(2) == 0
            checks.append(
                _check(
                    "alternility certificate C2=0 [dmr w=%d element %d]" % (w, i),
                    ok,
                    {"w": w},
                )
            )


def cmd_paper_suite(args):
    wmax = args.max_weight
    if not 2 <= wmax <= WEIGHT_BOUND:
        raise WeightBoundError(
            "max weight %d outside [2, %d]" % (wmax, WEIGHT_BOUND)
        )
    echo = {"command": "paper-suite", "max_weight": wmax}
    # one solve per (algebra, weight) for this invocation only
    basis_of = functools.cache(_solve)
    rng = random.Random(SUITE_SEED)
    checks = []
    timings = {}

    def timed(name, fn, *fnargs):
        t0 = time.monotonic()
        fn(*fnargs)
        timings[name] = round(time.monotonic() - t0, 3)

    timed("krv2", lambda: checks.append(
        _check("krv trivial at weight 2 (dim %d)" % basis_of("krv", 2).dimension,
               basis_of("krv", 2).dimension == 0, {"w": 2})
    ))
    if wmax >= 3:
        timed("senary-dmr", _suite_senary_on_dmr, checks, wmax, basis_of)
        timed("equivalences", _suite_equivalences, checks, wmax, rng)
        timed("senary-oracle", _suite_senary_oracle, checks, rng)
        timed("operator-pin", _suite_operator_pin, checks, rng)
        timed("homomorphism", _suite_homomorphism, checks, rng)
        timed("vimo-invariants", _suite_vimo_invariants, checks, rng, wmax)
        timed("dimensions", _suite_dimensions, checks, wmax, basis_of)
        timed("embedding", _suite_embedding, checks, wmax, basis_of)
        timed("constants", _suite_constant_vanishing, checks, wmax, basis_of)
    return _assemble(echo, checks, timings=timings if args.timings else None)


# ---------------------------------------------------------------------------
# argument wiring

def _parser():
    ap = argparse.ArgumentParser(
        prog="mouldkit",
        description="Exact verification of mould identities and Lie algebra "
        "membership for the double shuffle / Kashiwara-Vergne dictionary.",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock timings in the report")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    vs = sub.add_parser("verify-senary", help="senary relation campaign")
    vs.add_argument("--weight", type=int, default=None)
    vs.add_argument("--rmax", type=int, default=3)
    vs.add_argument("--input", default=None, help="mould JSON file (or list)")
    vs.set_defaults(fn=cmd_verify_senary)

    ba = sub.add_parser("basis", help="graded dmr/krv basis")
    ba.add_argument("algebra", choices=("dmr", "krv"))
    ba.add_argument("--weight", type=int, required=True)
    ba.set_defaults(fn=cmd_basis)

    ck = sub.add_parser("check", help="single property check on a file")
    ck.add_argument("property", choices=MOULD_PROPS + POLY_PROPS)
    ck.add_argument("--input", required=True)
    ck.add_argument("--rmax", type=int, default=3)
    ck.set_defaults(fn=cmd_check)

    ps = sub.add_parser("paper-suite", help="the consolidated campaign")
    ps.add_argument("--max-weight", type=int, default=6)
    ps.set_defaults(fn=cmd_paper_suite)
    return ap


def main(argv=None):
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        report = args.fn(args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except WeightBoundError as e:
        print("weight out of bounds: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        # a bug, not a verdict: never let it look like a failed check (1)
        traceback.print_exc()
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    _render(report, args.format, sys.stdout)
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
