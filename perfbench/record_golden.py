"""Record golden output digests for every input the workloads can produce.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run from the repository root, at the commit whose outputs are the
reference. Each op of each workload's whole input pool runs once, must pass
its independent checks, and has its output digest written to golden.json
(with, for colour ops, whether a colouring was found). Later runs of
run.py count any other output as a failed op.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, OUT, ROOT, Fancore, SRC, WORKLOADS


def record(cls) -> dict:
    workdir = os.path.join(OUT, f"golden-{cls.name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = cls(Fancore(), 0, workdir, ROOT)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        entries = {}
        for op in wl.all_ops():
            result = wl.run(op, wl.prepare(op))
            checked = wl.check(op, result, None)
            if checked.problems:
                raise SystemExit(f"{cls.name} {op.kind} {op.name.splitlines()[0]}: {checked.problems}")
            entries[op.key] = [checked.digest, checked.found]
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    return entries


def main(names) -> None:
    sys.path.insert(0, SRC)
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
    for name in names or sorted(WORKLOADS):
        golden[name] = record(WORKLOADS[name])
        print(f"{name}: {len(golden[name])} inputs")
    with open(path, "w", encoding="utf-8") as fh:  # one input per line
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in sorted(golden[name].items()))
            + "\n}" for name in sorted(golden)) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
