# Every public top-level def or class in src/mouldkit is reached from src/
# or perfbench/: some code there names it, and that code is itself reached.
# A name that only tests reach belongs in tests/, next to the test that
# uses it as a reference.

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public on purpose although nothing in src/ or perfbench/ calls them.
UNREACHED = {
    "cli.mould_to_json": "the public pair of mould_from_json",
    "kernel.exact_div": "the acceptance gate's long-division reference",
    "kernel.NotDivisible": "the acceptance gate's long-division reference",
}


def _names(node):
    """The identifiers node names: variables and attributes.  A string
    names nothing, not even one that spells an identifier, and neither do
    import statements by themselves."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _scan():
    """{module.name: the names its body uses} for the top-level defs and
    classes of src/mouldkit, and the names used by everything else."""
    defs, outside = {}, set()
    for path in sorted((ROOT / "src" / "mouldkit").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs["%s.%s" % (path.stem, stmt.name)] = _names(stmt)
            else:
                outside |= _names(stmt)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        outside |= _names(ast.parse(path.read_text()))
    return defs, outside


def _reached(defs, outside):
    """The defs named outside them, dropping, until nothing changes, those
    that only dropped defs name."""
    live = set(defs)
    while True:
        keep = {d for d in live
                if d.split(".")[1] in outside
                or any(d.split(".")[1] in defs[e] for e in live if e != d)}
        if keep == live:
            return live
        live = keep


def test_every_public_name_is_reached_outside_tests():
    defs, outside = _scan()
    unreached = {d for d in set(defs) - _reached(defs, outside)
                 if not d.split(".")[1].startswith("_")}
    assert unreached == set(UNREACHED), sorted(unreached ^ set(UNREACHED))
