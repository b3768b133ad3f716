# Wire-format round trips, parse errors with locations, exit codes, report
# determinism, and one basis solve per (algebra, weight) in paper-suite.

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldkit.cli import (
    ParseError,
    fmt_rat,
    main,
    mould_from_json,
    mould_to_json,
    parse_rat,
    poly_from_json,
    poly_to_json,
)
from mouldkit.kernel import MultiPoly
from mouldkit.mould import Mould
from mouldkit.ncword import NCPoly, lie_bracket, lyndon_basis

XY = ("x", "y")
X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")

DMR3_POLY = [
    {"coeff": "1", "word": "xxy"},
    {"coeff": "-2", "word": "xyx"},
    {"coeff": "1", "word": "xyy"},
    {"coeff": "1", "word": "yxx"},
    {"coeff": "-2", "word": "yxy"},
    {"coeff": "1", "word": "yyx"},
]
DMR3_MOULD = {
    "1": [{"coeff": "1", "exponents": [2]}],
    "2": [{"coeff": "-1", "exponents": [1, 0]}, {"coeff": "1", "exponents": [0, 1]}],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# --- serialization ---------------------------------------------------------

def test_rat_round_trip():
    for q in (Fraction(3), Fraction(-2, 7), Fraction(0)):
        assert parse_rat(fmt_rat(q), "t") == q
    with pytest.raises(ParseError):
        parse_rat("3/0", "t")
    with pytest.raises(ParseError):
        parse_rat("pi", "t")


@pytest.mark.parametrize("s", ["1e5000", "0.5", 1, " 1", "+1", "1/-2", "1_0", "1" * 5000])
def test_parse_rat_accepts_only_what_fmt_rat_writes(s):
    with pytest.raises(ParseError) as e:
        parse_rat(s, "input.0.coeff")
    assert "(at input.0.coeff)" in str(e.value)


def test_huge_exponent_coefficient_is_a_parse_error(tmp_path, capsys):
    # Fraction("1e5000") is exact, and printing it overflowed int->str
    path = write(tmp_path, "huge.json", [{"coeff": "1e5000", "word": "xy"},
                                         {"coeff": "-1e5000", "word": "yx"}])
    assert main(["check", "dmr", "--input", path]) == 2
    captured = capsys.readouterr()
    assert "(at input.0.coeff)" in captured.err
    assert captured.out == ""


# Witness coefficients are products of input coefficients, so they can pass
# the 4,300 digits str(int) writes although every input coefficient is
# shorter: 7...7 + 1/3...3, with 3,000 digits each, has a 6,000-digit
# numerator.
SEVENS, THREES = "7" * 3000, "3" * 3000
LONG = int(SEVENS) + Fraction(1, int(THREES))
LONG_MOULD = {"2": [{"coeff": SEVENS, "exponents": [1, 0]},
                    {"coeff": "1/" + THREES, "exponents": [0, 1]}]}


def spelled(q):
    """q as fmt_rat must write it, built 1,000 digits at a time."""
    def digits(n):
        chunks = []
        while n >= 10 ** 1000:
            n, r = divmod(n, 10 ** 1000)
            chunks.append("%01000d" % r)
        return str(n) + "".join(reversed(chunks))
    q = Fraction(q)
    out = ("-" if q < 0 else "") + digits(abs(q.numerator))
    return out if q.denominator == 1 else out + "/" + digits(q.denominator)


def test_fmt_rat_writes_every_digit():
    assert len(spelled(LONG)) == 6000 + 1 + 3000
    for q in (LONG, -LONG, LONG.numerator, Fraction(1, 10 ** 9000), Fraction(-2, 7)):
        assert fmt_rat(q) == spelled(q)


def check_json(tmp_path, prop, obj):
    """Exit code and the checks of `--format json check prop` on obj."""
    path = write(tmp_path, prop + ".json", obj)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", "check", prop, "--input", path])
    return code, json.loads(out.getvalue())["checks"]


def test_check_alternal_and_alternil_write_long_witnesses(tmp_path):
    # M(x1, x2) + M(x2, x1) = LONG (x1 + x2)
    defect = [{"coeff": spelled(LONG), "exponents": [0, 1]},
              {"coeff": spelled(LONG), "exponents": [1, 0]}]
    code, checks = check_json(tmp_path, "alternal", LONG_MOULD)
    assert code == 1
    assert checks[0]["witness"] == {"p": 1, "q": 1, "defect": defect}
    code, checks = check_json(tmp_path, "alternil", LONG_MOULD)
    assert code == 1
    assert checks[0]["witness"] == {"splits": [{"p": 1, "q": 1, "defect": defect}]}


def test_check_senary_writes_long_witnesses(tmp_path):
    code, checks = check_json(tmp_path, "senary", LONG_MOULD)
    assert code == 1
    assert [c["status"] for c in checks] == ["pass", "fail", "fail"]
    assert checks[1]["witness"] == {"r": 2, "defect": [
        {"coeff": spelled(LONG), "exponents": [0, 1]},
        {"coeff": spelled(2 * int(SEVENS) - Fraction(1, int(THREES))), "exponents": [1, 0]},
    ]}
    assert checks[2]["witness"] == {"r": 3, "defect": [
        {"coeff": spelled(LONG), "exponents": [0, 0, 0]},
    ]}


def test_check_dmr_writes_long_witnesses(tmp_path):
    L5 = lyndon_basis(5, XY)
    f = int(SEVENS) * L5[0] + Fraction(1, int(THREES)) * L5[1]
    code, checks = check_json(tmp_path, "dmr", poly_to_json(f))
    assert code == 1
    assert checks[0]["witness"] == {"stage": "primitivity", "defect_entries": [
        {"left": "y1", "right": "y1y1y1y1", "coeff": SEVENS},
        {"left": "y1", "right": "y2y2", "coeff": "-2/" + THREES},
        {"left": "y1", "right": "y3y1", "coeff": "-1/" + THREES},
        {"left": "y1", "right": "y4", "coeff": spelled(LONG)},
    ]}


def test_poly_round_trip():
    p = 3 * NCPoly.from_word(XY, ("x", "y")) - Fraction(1, 2) * Y
    assert poly_from_json(poly_to_json(p)) == p
    assert poly_to_json(p) == [
        {"coeff": "3", "word": "xy"},
        {"coeff": "-1/2", "word": "y"},
    ]


def test_poly_parse_errors():
    with pytest.raises(ParseError):
        poly_from_json({"coeff": "1"})
    with pytest.raises(ParseError) as e:
        poly_from_json([{"coeff": "1", "word": "xz"}])
    assert "input.0.word" in str(e.value)
    with pytest.raises(ParseError) as e:
        poly_from_json([{"coeff": "?", "word": "xy"}])
    assert "input.0.coeff" in str(e.value)


def test_mould_round_trip_pin():
    mo = mould_from_json(DMR3_MOULD)
    assert mo.depth == 2
    assert mo.component(1).terms == {(2,): Fraction(1)}
    again = mould_from_json(mould_to_json(mo))
    assert again == mo
    # depth-0 entry carries the scalar part
    scalar = mould_from_json({"0": [{"coeff": "7", "exponents": []}]})
    assert scalar.component(0) == MultiPoly.const(0, 7)
    assert mould_to_json(scalar) == {"0": [{"coeff": "7", "exponents": []}]}
    assert mould_to_json(Mould.zero(1)) == {"0": [], "1": []}


def test_mould_parse_errors():
    with pytest.raises(ParseError):
        mould_from_json([1, 2])
    with pytest.raises(ParseError) as e:
        mould_from_json({"2": [{"coeff": "1", "exponents": [1]}]})
    assert "input.2.0" in str(e.value)
    with pytest.raises(ParseError):
        mould_from_json({"x": []})
    with pytest.raises(ParseError):
        mould_from_json({"1": [{"coeff": "1", "exponents": [-1]}]})


def test_mould_depth_key_with_leading_zero_is_rejected(tmp_path, capsys):
    # "01" used to alias depth 1 and silently replace its terms
    obj = {"1": [{"coeff": "1", "exponents": [2]}],
           "01": [{"coeff": "5", "exponents": [1]}]}
    with pytest.raises(ParseError) as e:
        mould_from_json(obj)
    assert e.value.location == "input.01"
    path = write(tmp_path, "alias.json", obj)
    assert main(["check", "alternal", "--input", path]) == 2
    captured = capsys.readouterr()
    assert "input.01" in captured.err
    assert captured.out == ""
    assert mould_from_json({"0": [], "10": []}).depth == 10


def test_mould_depth_key_of_non_ascii_digits_is_rejected(tmp_path, capsys):
    # "\u00b2".isdigit() holds but int() rejects it: exit 2, not 3
    obj = {"\u00b2": []}
    with pytest.raises(ParseError) as e:
        mould_from_json(obj)
    assert e.value.location == "input.\u00b2"
    path = write(tmp_path, "super.json", obj)
    assert main(["check", "alternal", "--input", path]) == 2
    captured = capsys.readouterr()
    assert "parse error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["13", "1000000", "1" * 5000])
def test_mould_depth_key_above_weight_bound_is_rejected(tmp_path, capsys, key):
    # at weight w <= 12, ma(f) has depth at most w; a deeper key used to
    # build every empty component up to it and pass alternality
    with pytest.raises(ParseError) as e:
        mould_from_json({key: []})
    assert e.value.location == "input." + key
    path = write(tmp_path, "deep.json", {key: []})
    assert main(["check", "alternal", "--input", path]) == 2
    captured = capsys.readouterr()
    assert "weight bound" in captured.err
    assert captured.out == ""
    assert mould_from_json({"12": []}).depth == 12


@pytest.mark.parametrize("prop", ["kv1", "kv2", "krv", "dmr"])
def test_polynomial_weight_above_weight_bound_is_rejected(tmp_path, capsys, prop):
    # ad_x^12(y) has weight 13; each weight step used to cost about 4x more
    p = Y
    for _ in range(12):
        p = lie_bracket(X, p)
    path = write(tmp_path, "w13.json", poly_to_json(p))
    assert main(["check", prop, "--input", path]) == 2
    captured = capsys.readouterr()
    assert "weight bound 12 (at input)" in captured.err
    assert captured.out == ""


def test_mould_rejects_boolean_exponents(tmp_path, capsys):
    # bool is an int subclass; a JSON true must not pass for the exponent 1
    with pytest.raises(ParseError) as e:
        mould_from_json({"2": [{"coeff": "1", "exponents": [True, 0]}]})
    assert "input.2.0" in str(e.value)
    path = write(tmp_path, "bool.json", {"1": [{"coeff": "1", "exponents": [True]}]})
    assert main(["check", "senary", "--input", path]) == 2
    captured = capsys.readouterr()
    assert "input.1.0" in captured.err
    assert captured.out == ""


@settings(deadline=None, max_examples=30)
@given(
    st.dictionaries(
        st.integers(1, 3),
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            max_size=3,
        ),
        max_size=3,
    )
)
def test_mould_json_round_trip(layout):
    comps = {
        m: {(e + (0, 0, 0))[:m]: c for e, c in terms.items()}
        for m, terms in layout.items()
    }
    depth = max(comps) if comps else 0
    mo = Mould.from_components(depth, comps)
    assert mould_from_json(mould_to_json(mo)) == mo


# --- exit codes and reports --------------------------------------------------

def test_verify_senary_dmr_basis_pass(capsys):
    assert main(["verify-senary", "--weight", "3"]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    assert "senary r=3 [element 0]" in out


def test_verify_senary_weight4_vacuous(capsys):
    assert main(["verify-senary", "--weight", "4"]) == 0
    out = capsys.readouterr().out
    assert "dim 0" in out


def test_verify_senary_file_failure(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"2": [{"coeff": "1", "exponents": [1, 0]}]})
    assert main(["verify-senary", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL senary r=2 [element 0]" in out
    assert "witness" in out


def test_verify_senary_conjectural_key(tmp_path, capsys):
    path = write(tmp_path, "dmr3.json", [DMR3_MOULD])
    assert main(["--format", "json", "verify-senary", "--input", path, "--rmax", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in report["conjectural"]]
    assert names == ["senary r=4 [element 0]", "senary r=5 [element 0]"]
    assert all(c["result"] == "holds" for c in report["conjectural"])


def test_verify_senary_weight_with_input_is_parse_error(tmp_path, capsys):
    path = write(tmp_path, "dmr3.json", [DMR3_MOULD])
    assert main(["verify-senary", "--weight", "5", "--input", path]) == 2
    captured = capsys.readouterr()
    assert "(at arguments)" in captured.err
    assert captured.out == ""


def test_verify_senary_empty_input_is_parse_error(tmp_path, capsys):
    path = write(tmp_path, "empty.json", [])
    assert main(["verify-senary", "--input", path]) == 2
    captured = capsys.readouterr()
    assert "(at input)" in captured.err
    assert "status: pass" not in captured.out


@pytest.mark.parametrize("rmax", ["0", "-2", "14"])
def test_verify_senary_rmax_out_of_range_is_parse_error(tmp_path, capsys, rmax):
    # 14 > WEIGHT_BOUND + 1: past depth + 1 every senary instance vanishes
    path = write(tmp_path, "dmr3.json", [DMR3_MOULD])
    assert main(["verify-senary", "--input", path, "--rmax", rmax]) == 2
    captured = capsys.readouterr()
    assert "(at arguments.rmax)" in captured.err
    assert "status: pass" not in captured.out
    assert main(["verify-senary", "--weight", "3", "--rmax", rmax]) == 2
    assert main(["check", "senary", "--input", path, "--rmax", rmax]) == 2
    capsys.readouterr()


def test_basis_commands(capsys):
    assert main(["--format", "json", "basis", "dmr", "--weight", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["basis"]["ambient"] == ["xxy", "xyy"]
    assert report["basis"]["vectors"] == [["1", "1"]]
    assert report["status"] == "pass"

    assert main(["basis", "krv", "--weight", "2"]) == 0
    assert "dimension 0" in capsys.readouterr().out


def test_basis_weight_bound_exit(capsys):
    assert main(["basis", "dmr", "--weight", "1"]) == 2
    assert "weight out of bounds" in capsys.readouterr().err


def test_check_alternal_and_witness(tmp_path, capsys):
    good = write(tmp_path, "good.json", DMR3_MOULD)
    assert main(["check", "alternal", "--input", good]) == 0
    capsys.readouterr()
    bad = write(tmp_path, "bad.json", {"2": [{"coeff": "1", "exponents": [1, 1]}]})
    assert main(["--format", "json", "check", "alternal", "--input", bad]) == 1
    report = json.loads(capsys.readouterr().out)
    witness = report["checks"][0]["witness"]
    assert witness["p"] == 1 and witness["q"] == 1
    assert witness["defect"] == [{"coeff": "2", "exponents": [1, 1]}]


ALTERNIL_M0 = {"0": [{"coeff": "3/2", "exponents": []}],
               "2": [{"coeff": "1", "exponents": [0, 0]}]}


def test_check_alternil_nonzero_m0_fails_with_witness(tmp_path, capsys):
    path = write(tmp_path, "m0.json", ALTERNIL_M0)
    assert main(["--format", "json", "check", "alternil", "--input", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["checks"][0]["witness"] == {"m0": "3/2"}


def test_check_alternil_nonzero_m0_under_optimize(tmp_path):
    path = write(tmp_path, "m0.json", ALTERNIL_M0)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-m", "mouldkit.cli", "check", "alternil", "--input", path],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert 'witness: {"m0": "3/2"}' in done.stdout


def test_check_pusnu_witness(tmp_path, capsys):
    bad = write(tmp_path, "m1.json", {"1": [{"coeff": "1", "exponents": [1]}]})
    assert main(["--format", "json", "check", "pusnu", "--input", bad]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["witness"] == {"depth": 1}


def test_check_kv_properties(tmp_path, capsys):
    p1 = lie_bracket(X, lie_bracket(X, Y))
    path = write(tmp_path, "p1.json", poly_to_json(p1))
    assert main(["--format", "json", "check", "kv2", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "alpha = 1/3" in report["checks"][0]["name"]

    fxy = write(tmp_path, "fxy.json", poly_to_json(lie_bracket(X, Y)))
    assert main(["--format", "json", "check", "kv1", "--input", fxy]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["witness"]["reason"]

    # kv1 solvable but the trace condition fails: exercised at weight 5
    basis = lyndon_basis(5, XY)
    F = -1 * basis[0] - basis[3] + basis[4]
    path = write(tmp_path, "kv2fail.json", poly_to_json(F))
    assert main(["--format", "json", "check", "krv", "--input", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["witness"] == {"stage": "kv2"}


def test_check_dmr_witness_stages(tmp_path, capsys):
    fxy = write(tmp_path, "fxy.json", poly_to_json(lie_bracket(X, Y)))
    assert main(["--format", "json", "check", "dmr", "--input", fxy]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["witness"] == {"stage": "c_xy", "value": "1"}

    lyn5 = write(tmp_path, "lyn5.json", poly_to_json(lyndon_basis(5, XY)[0]))
    assert main(["--format", "json", "check", "dmr", "--input", lyn5]) == 1
    report = json.loads(capsys.readouterr().out)
    w = report["checks"][0]["witness"]
    assert w["stage"] == "primitivity" and w["defect_entries"]

    member = write(tmp_path, "member.json", DMR3_POLY)
    assert main(["check", "dmr", "--input", member]) == 0
    capsys.readouterr()


def test_check_parse_error_exit(tmp_path, capsys):
    path = write(tmp_path, "broken.json", {"2": [{"coeff": "1", "exponents": [1]}]})
    assert main(["check", "senary", "--input", path]) == 2
    assert "input.2.0" in capsys.readouterr().err
    assert main(["check", "senary", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["check", "dmr", "--input"],
                                  ["check", "alternal", "--input"],
                                  ["verify-senary", "--input"]])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "[]".encode("utf-16-le"))
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert "not UTF-8" in captured.err and "(at %s)" % path in captured.err
    assert captured.out == ""


def test_paper_suite_weight2_and_bound(capsys):
    assert main(["--format", "json", "paper-suite", "--max-weight", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["checks"]) == 1
    assert "krv trivial at weight 2" in report["checks"][0]["name"]

    # no section checks above weight 8, so 9 is refused like 13
    for wmax in ("9", "13"):
        assert main(["paper-suite", "--max-weight", wmax]) == 2
        assert "weight out of bounds" in capsys.readouterr().err


def test_check_lists_its_properties_in_order(capsys):
    with pytest.raises(SystemExit) as done:
        main(["check", "bogus", "--input", "unused.json"])
    assert done.value.code == 2
    assert ("invalid choice: 'bogus' (choose from 'alternal', 'alternil', "
            "'pusnu', 'senary', 'kv1', 'kv2', 'dmr', 'krv')") in capsys.readouterr().err


def test_paper_suite_reports_are_byte_identical(capsys):
    assert main(["--format", "json", "paper-suite", "--max-weight", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "paper-suite", "--max-weight", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["status"] == "pass"
    assert "timings" not in json.loads(first)


# --- basis solves ------------------------------------------------------------

def test_paper_suite_solves_each_basis_once(monkeypatch, capsys):
    import mouldkit.cli as cli

    solved = []

    def counting(name, solver):
        def wrapper(weight):
            solved.append((name, weight))
            return solver(weight)
        return wrapper

    monkeypatch.setattr(cli, "dmr_basis", counting("dmr", cli.dmr_basis))
    monkeypatch.setattr(cli, "krv_basis", counting("krv", cli.krv_basis))
    assert main(["paper-suite", "--max-weight", "8"]) == 0
    capsys.readouterr()
    want = [("krv", w) for w in range(2, 7)] + [("dmr", w) for w in range(3, 9)]
    assert sorted(solved) == sorted(want)


@pytest.mark.parametrize("form", ["leading", "joined", "trailing"])
def test_cache_dir_flag_is_a_usage_error(tmp_path, form):
    cache = str(tmp_path / "cache")
    command = ["basis", "dmr", "--weight", "3"]
    argv = {
        "leading": ["--cache-dir", cache] + command,
        "joined": ["--cache-dir=" + cache] + command,
        "trailing": command + ["--cache-dir", cache],
    }[form]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "mouldkit.cli"] + argv,
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "usage: mouldkit" in done.stderr
    if form == "leading":
        # argparse reads the directory as the subcommand and rejects it
        assert "invalid choice: %r" % cache in done.stderr
    else:
        assert "unrecognized arguments: --cache-dir" in done.stderr
    assert os.listdir(tmp_path) == []


def test_cache_env_variable_is_ignored(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MOULDKIT_CACHE", raising=False)
    assert main(["verify-senary", "--weight", "3"]) == 0
    want = capsys.readouterr().out
    cache = tmp_path / "envcache"
    monkeypatch.setenv("MOULDKIT_CACHE", str(cache))
    assert main(["verify-senary", "--weight", "3"]) == 0
    assert capsys.readouterr().out == want
    assert not cache.exists()
    assert os.listdir(tmp_path) == []


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(weight):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr("mouldkit.cli.dmr_basis", broken)
    assert main(["basis", "dmr", "--weight", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("internal error: RuntimeError: solver exploded\n")


# --- check reports, pinned byte for byte ------------------------------------
#
# One passing and one or more failing inputs per property.  The expected text
# and --format json stdout and exit codes sit in data/check_reports.json; they
# were recorded from the implementation that derived witnesses in the CLI, so
# a witness returned by the predicate must serialise to the same bytes.

NOT_ALTERNAL = {"2": [{"coeff": "1", "exponents": [1, 1]}]}
# alternal in depths 2 and 3, first failure at (p, q) = (1, 3)
NOT_ALTERNAL_DEPTH4 = dict(DMR3_MOULD, **{"4": [{"coeff": "1", "exponents": [1, 0, 0, 0]}]})
L5 = lyndon_basis(5, XY)
KV2_FAIL = -1 * L5[0] - L5[3] + L5[4]  # kv1 solvable, kv2 fails
P1 = poly_to_json(lie_bracket(X, lie_bracket(X, Y)))
FXY = poly_to_json(lie_bracket(X, Y))

CHECK_CASES = {
    "alternal-pass": ("alternal", DMR3_MOULD),
    "alternal-fail": ("alternal", NOT_ALTERNAL),
    "alternal-fail-depth4": ("alternal", NOT_ALTERNAL_DEPTH4),
    "alternal-fail-m0": ("alternal", ALTERNIL_M0),
    "alternil-pass": ("alternil", {"2": [{"coeff": "1", "exponents": [0, 0]}]}),
    "alternil-fail-m0": ("alternil", ALTERNIL_M0),
    "alternil-fail-splits": ("alternil", NOT_ALTERNAL),
    "pusnu-pass": ("pusnu", {"2": [{"coeff": "1", "exponents": [1, 0]},
                                   {"coeff": "-1", "exponents": [0, 1]}]}),
    "pusnu-fail": ("pusnu", {"1": [{"coeff": "1", "exponents": [1]}]}),
    "pusnu-fail-depth2": ("pusnu", NOT_ALTERNAL),
    "senary-pass": ("senary", DMR3_MOULD),
    "senary-fail": ("senary", {"2": [{"coeff": "1", "exponents": [1, 0]}]}),
    "kv1-pass": ("kv1", P1),
    "kv1-fail": ("kv1", FXY),
    "kv2-pass": ("kv2", P1),
    "kv2-fail-kv1": ("kv2", FXY),
    "kv2-fail": ("kv2", poly_to_json(KV2_FAIL)),
    "krv-pass": ("krv", P1),
    "krv-fail-lie": ("krv", [{"coeff": "1", "word": "xy"}]),
    "krv-fail-kv1": ("krv", FXY),
    "krv-fail-kv2": ("krv", poly_to_json(KV2_FAIL)),
    "dmr-pass": ("dmr", DMR3_POLY),
    "dmr-fail-lie": ("dmr", [{"coeff": "1", "word": "xxy"}]),
    "dmr-fail-c_xy": ("dmr", FXY),
    "dmr-fail-primitivity": ("dmr", poly_to_json(L5[0])),
    # the bracket of x^9 y^2: its first defect entry is y1|y10, which sorts
    # before y1|y2 only as letter strings
    "dmr-fail-primitivity-y10": ("dmr", poly_to_json(lyndon_basis(11, XY)[1])),
}
PINNED_REPORTS = Path(__file__).with_name("data") / "check_reports.json"


def run_check(tmp_path, case, fmt):
    """Exit code and stdout of `check` on the named case, in process."""
    prop, obj = CHECK_CASES[case]
    path = write(tmp_path, case + ".json", obj)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", fmt, "check", prop, "--input", path])
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_check_report_is_pinned(tmp_path, case, fmt):
    pinned = json.loads(PINNED_REPORTS.read_text())[case][fmt]
    assert run_check(tmp_path, case, fmt) == (pinned["exit"], pinned["stdout"])
