"""Fast self-check of the benchmark runner (under a minute).

    python3 perfbench/selfcheck.py

Run from the repository root. Runs every workload once in its reduced
``--quick`` form, traced and untraced, and asserts that the last stdout
line is the result object, that it names every metric of BENCHMARK.json
with its unit, and that no op failed. Then checks that the runner refuses
to run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (workload, trace, proc.stderr[-2000:])
            if trace == 0:
                assert result["metrics"]["success_ratio"]["value"] == 1.0
            print(f"ok {workload} trace {trace}: {result['attempted']} ops")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout[-2000:]
    finally:
        shutil.rmtree(bare)
    print("ok refuses to run without the fancore sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
