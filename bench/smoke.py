"""Smoke test of the benchmark harness at minimal size.

Run from the root of a checkout: ``python3 bench/smoke.py``.  For every
workload it runs ``bench/run.py`` untraced once and traced twice with one
seed, plus once untraced with another seed, and checks that:

* the result line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, the checks passed, and every metric that ``BENCHMARK.json``
  names is printed with its unit;
* the counts of the two traced runs repeat exactly;
* unit 0 writes the same bytes in all runs with one seed and different
  bytes with another seed;
* without the package sources the command fails and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.1", "--reps", "20", "--probes", "1"]


def run(cwd: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--trace", str(trace), *TINY]
    cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(workload: str, trace: int, result: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: checks failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        rep0, res0 = run(ROOT, name, 3, 0)
        check_result(name, 0, res0)
        assert rep0["seed_check"] == {"same_seed_equal": True, "other_seed_differs": True}
        traced = [run(ROOT, name, 3, 1) for _ in range(2)]
        for _, res in traced:
            check_result(name, 1, res)
        counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] in ("count", "bytes")}
                  for _, res in traced]
        assert counts[0] == counts[1], f"{name}: counts differ between runs: {counts}"
        digests = [rep0["output_sha256"]] + [rep["output_sha256"] for rep, _ in traced]
        assert digests[0] == digests[1] == digests[2], f"{name}: one seed, different outputs"
        other, _ = run(ROOT, name, 4, 0)
        assert other["output_sha256"] != digests[0], f"{name}: two seeds, same outputs"
        print(f"smoke {name}: ok")

    # a directory with the benchmark alone must fail without a result
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0 and '"correct"' not in out.stdout, out.stdout
        print("smoke bare checkout: fails as expected")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
