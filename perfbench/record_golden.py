#!/usr/bin/env python3
"""Record perfbench/golden.json from the sources in src/.

    PYTHONPATH=src python3 perfbench/record_golden.py

The golden record holds the answers the benchmark checks: for each basis
weight the dimension and a sha256 of the primitive basis vectors of dmr and
krv; for each paper-suite max weight a sha256 of the text report; for the
senary pool every verdict of senary_holds at r = 1, 2, 3 (the collision
formulation senary_eq41_holds must agree), a digest of the pool itself, and
the pool sorted by the term pairs multiplied per mould, which run.py uses
to stratify the draw.  Re-record only from a commit whose answers are
trusted; a new record does not make a wrong answer right.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BASIS_WEIGHTS = (5, 9)
SUITE_WEIGHTS = (4, 8)


def main():
    from mouldkit.cli import mould_from_json
    from mouldkit.liealg import dmr_basis, krv_basis

    golden = {"basis": {}, "paper-suite": {}}
    for w in BASIS_WEIGHTS:
        golden["basis"][str(w)] = {
            name: {"dimension": b.dimension, "sha256": workloads.basis_digest(b)}
            for name, b in (("dmr", dmr_basis(w)), ("krv", krv_basis(w)))
        }
    for w in SUITE_WEIGHTS:
        code, text = workloads.run_paper_suite(w)
        if code != 0 or not text.endswith("status: pass\n"):
            sys.exit("paper-suite --max-weight %d does not pass" % w)
        golden["paper-suite"][str(w)] = {"sha256": workloads.sha256(text)}

    tracer = Tracer()
    tracer.install()
    from mouldkit.symmetry import senary_eq41_holds, senary_holds

    verdicts, work = [], []
    for j in range(workloads.POOL_SIZE):
        mo = mould_from_json(workloads.pool_mould(j))
        del tracer.spans[:]
        for r in (1, 2, 3):
            holds = senary_holds(mo, r)
            if holds != senary_eq41_holds(mo, r):
                sys.exit("senary formulations disagree on pool mould %d at r=%d" % (j, r))
            verdicts.append("1" if holds else "0")
        layers = tracer.summary()
        work.append(layers["terms.mul.pairs"] + layers["terms.concat_mul.pairs"])
    golden["senary"] = {
        "pool_size": workloads.POOL_SIZE,
        "pool_sha256": workloads.pool_digest(),
        "verdicts": "".join(verdicts),
        "by_work": sorted(range(workloads.POOL_SIZE), key=lambda j: (work[j], j)),
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
