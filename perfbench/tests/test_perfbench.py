"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Checks that every metric named in BENCHMARK.json prints with its unit,
that a corrupted golden value is reported as a failed op, and that the
benchmark refuses to run without the mouldkit sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
TINY = {"basis": 5, "senary": 8, "paper-suite": 4}


def run(workload, trace=0, golden=None, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", str(TINY[workload])]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    code, lines = run(workload, trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]
    if trace and workload == "senary":
        assert result["metrics"]["kernel.nullspace.calls"]["value"] == 0
    env = [line for line in lines if line.startswith("env ")]
    assert env and json.loads(env[0][4:])["seed"] == 1


def corrupt_basis(golden):
    golden["basis"][str(TINY["basis"])]["dmr"]["sha256"] = "0" * 64


def corrupt_senary(golden):
    verdicts = golden["senary"]["verdicts"]
    golden["senary"]["verdicts"] = "".join("1" if v == "0" else "0" for v in verdicts)


@pytest.mark.parametrize("workload,corrupt", [("basis", corrupt_basis),
                                              ("senary", corrupt_senary)])
def test_corrupted_golden_is_a_failed_op(tmp_path, workload, corrupt):
    golden = json.loads(json.dumps(GOLDEN))
    corrupt(golden)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code, lines = run(workload, golden=path)
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("fail_ratio ") and not line.startswith("fail_ratio 0 ")
               for line in lines)


def test_senary_pool_matches_golden():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    assert workloads.POOL_SIZE == GOLDEN["senary"]["pool_size"]
    assert workloads.pool_digest() == GOLDEN["senary"]["pool_sha256"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("basis", root=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
