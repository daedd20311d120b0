"""fancore benchmark runner: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. The runner imports fancore from ``src/``,
sets up the workload's seeded inputs (several times; the median is
``setup_s``), then runs whole rounds of ops, one after another, until
``--seconds`` of op time have been measured. Every op's output is checked
outside the timed region, against independent library checks and against
the golden digest recorded at the reference commit in ``golden.json``.

Op and set-up times are host-speed normalised. On a shared 2-vCPU VM
(Intel Xeon, Python 3.11) the speed of pure-Python work drifted by 20-45%
over seconds to minutes, more than any difference worth detecting. So the
runner times short fixed calibration loops (no fancore code) before and
after the ops, and scales each op's wall time by the loop's nominal time
over the mean loop time of the samples around it: a reported second is a
wall-clock second on a host where the loop takes its nominal time. Two
loops, because the host's speed for small-working-set work and for
allocation-bound work drift apart: ``calibration_loop`` (CPU-bound) for
most ops, ``allocation_loop`` for the kinds a workload lists in
``memory_bound`` (witness-colour's ``colour`` ops, which allocate
0.1-1.6 GB each). On that VM, over 30-second windows, the first loop cut
the spread of the median time of a witness construct from 35% to 4%, but
left that of a double-edge colour op at 18%, against 20-28% raw; the
second loop cut the latter to 4%. Raw wall-clock figures are printed and
kept in the result file as well.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first round runs untraced as a
reference, later rounds run with spans recorded around fancore's public
functions, and the JSON carries the per-layer metrics. Workloads, ops and
metric definitions are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
# every run ends well inside 180 s even if each remaining op hits its limit
HARD_DEADLINE_S = 150.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CAL_INTERVAL_S = 0.1
CAL_NOMINAL_S = 0.0025
CAL_SIDE = 2
ALLOC_NOMINAL_S = 0.055
MODULES = {"cli": "cli", "mg": "multigraph", "core": "core", "bq": "bqueue",
           "fm": "fanmetrics", "col": "colouring", "wit": "witness"}


class OpTimeout(Exception):
    pass


class Fancore:
    """The freshly imported fancore modules, under short names."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "fancore" or n.startswith("fancore.")]:
            del sys.modules[name]
        for short, module in MODULES.items():
            setattr(self, short, importlib.import_module("fancore." + module))
        if not self.cli.__file__.startswith(SRC + os.sep):
            raise ImportError(f"fancore was imported from {self.cli.__file__}, not from {SRC}")


def calibration_loop() -> int:
    """Fixed graph-like pure-Python work, independent of fancore: adjacency
    dicts, comprehensions, sets and sorting, about 2.5 ms on the nominal
    host. It allocates next to nothing, so it leaves peak_rss_mb alone."""
    adj = [{(i * 7 + j) % 40: 1 + j % 3 for j in range(1, 6)} for i in range(40)]
    total = 0
    for level in range(12):
        for x in range(40):
            base = {z: len(adj[z]) + m for z, m in adj[x].items()}
            above = [z for z, b in base.items() if b - level > 0]
            total += sum(base[z] for z in above) + len(sorted(set(above) | {x}))
    return total


def allocation_loop() -> int:
    """Fixed allocation-bound pure-Python work, independent of fancore: it
    builds and drops 600 lists of 2,000 fresh ints (about 45 MB), much as
    the fan engine of the reference commit builds its retry orders; about
    55 ms on the nominal host. The memory is freed before the next op."""
    rows = [list(range(i, i + 2000)) for i in range(0, 1_200_000, 2000)]
    return sum(row[-1] for row in rows[::50])


class Clock:
    """Host speed over time, from calibration samples taken next to the ops.

    A sample is due once CAL_INTERVAL_S has passed since the last one, both
    before and right after an op, so every op of at least that length is
    bracketed by two samples, and shorter ops share brackets.
    """

    def __init__(self, loop=calibration_loop, nominal: float = CAL_NOMINAL_S):
        self.loop = loop
        self.nominal = nominal
        self.starts: list = []
        self.ends: list = []
        self.durations: list = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= CAL_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The nominal loop time over the mean of the CAL_SIDE samples just
        before start and the CAL_SIDE samples just after end."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.starts, end)
        near = self.durations[max(before - CAL_SIDE, 0):before] + self.durations[after:after + CAL_SIDE]
        return self.nominal / (sum(near) / len(near))

    def speed(self) -> float:
        return statistics.median(self.nominal / d for d in self.durations)


def environment() -> dict:
    """Python version, CPU count, and which fancore sources were measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fancore")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "src_sha256": h.hexdigest()[:16]}


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies: list) -> tuple:
    """The highest ladder percentile with at least ten samples beyond it.

    Falls back to the median when there are fewer than 20 samples.
    Returns (percentile, value, samples beyond it).
    """
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10 or p == 50.0:
            q = p / 100.0 * (n - 1)
            lo = int(q)
            hi = min(lo + 1, n - 1)
            value = ordered[lo] + (ordered[hi] - ordered[lo]) * (q - lo)
            return p, value, sum(1 for x in ordered if x > value)
    raise AssertionError("unreachable")


class Runner:
    """Runs rounds of ops, times them and tallies the outcome of each."""

    def __init__(self, wl, golden: dict, deadline: float, clocks: dict, tracer=None):
        self.wl = wl
        self.golden = golden
        self.deadline = deadline
        self.clocks = clocks
        self.tracer = tracer
        self.timings: list = []  # (op id, start, wall seconds, clock), one per attempted op
        self.labels: dict = {}  # op id -> op kind and input
        self.attempted = 0
        self.failed = 0
        self.found = 0
        self.colourable = 0
        self.problems: list = []
        self.unfinished = False

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.kind} {op.name.splitlines()[0] if op.name else ''}: {why}")

    def run_round(self, r: int, traced: bool = False) -> list:
        """Run round r; return the ids of its ops."""
        ids = []
        for index, op in enumerate(self.wl.ops(r)):
            clock = self.clocks["memory" if op.kind in self.wl.memory_bound else "cpu"]
            clock.sample_if_due()
            left = self.deadline - time.perf_counter()
            if left <= 0:
                self.unfinished = True
                break
            self.attempted += 1
            golden = self.golden.get(op.key)
            try:
                payload = self.wl.prepare(op)
            except Exception as exc:  # an unusable input file is a failed op
                self._fail(op, f"prepare: {exc!r}")
                continue
            op_id = f"{'t' if traced else 'u'}{r}.{index}"
            ids.append(op_id)
            signal.setitimer(signal.ITIMER_REAL, min(self.wl.op_limit_s, left))
            if traced:
                self.tracer.op_id = op_id
                self.tracer.active = True
            result, error = None, None
            start = time.perf_counter()
            try:
                result = self.wl.run(op, payload)
            except OpTimeout:
                error = f"exceeded its {self.wl.op_limit_s:g} s limit"
            except MemoryError:
                error = "ran out of its address-space limit"
            except Exception as exc:  # counted as a failed op, run goes on
                error = f"raised {exc!r}"
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                if traced:
                    self.tracer.active = False
            clock.sample_if_due()
            self.timings.append((op_id, start, elapsed, clock))
            self.labels[op_id] = f"{op.kind} {op.name.splitlines()[0]}"
            if error is not None:
                self._fail(op, error)
                continue
            try:
                checked = self.wl.check(op, result, golden)
            except Exception as exc:  # malformed output fails the op
                self._fail(op, f"check raised {exc!r}")
                continue
            if checked.colourable:
                self.colourable += 1
                self.found += bool(checked.found)
            if checked.problems:
                self._fail(op, "; ".join(checked.problems))
            elif golden is None:
                self._fail(op, "no golden output recorded for this input")
            elif checked.digest != golden[0]:
                self._fail(op, f"output digest {checked.digest} differs from golden {golden[0]}")
        return ids


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced inputs, for selfcheck.py")
    return parser.parse_args(argv)


def _alarm(signum, frame):
    raise OpTimeout()


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fancore", "__init__.py")):
        print(f"perfbench: no fancore sources under {SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    sys.path.insert(0, SRC)
    # resource guard on this process only: a memory or time regression
    # becomes failed ops instead of an OOM kill or an endless run
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = cls.as_limit_mb * 2**20
    if hard == resource.RLIM_INFINITY or hard > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.signal(signal.SIGALRM, _alarm)

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[cls.name]
    workdir = os.path.join(OUT, f"work-{cls.name}")
    clock = Clock()
    clocks = {"cpu": clock}
    if cls.memory_bound:
        clocks["memory"] = Clock(allocation_loop, ALLOC_NOMINAL_S)
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        clock.sample()
        t0 = time.perf_counter()
        fc = Fancore()
        wl = cls(fc, args.seed, workdir, ROOT, quick=args.quick)
        setup_spans.append((t0, time.perf_counter()))
        clock.sample()
    os.chdir(workdir)  # CLI outputs name files relative to the work directory

    tracer = Tracer() if args.trace else None
    runner = Runner(wl, golden, started + HARD_DEADLINE_S, clocks, tracer)
    reference = runner.run_round(0) if tracer is not None else None
    if tracer is not None:
        tracer.install(fc)
    # Rounds continue until --seconds of normalised op time have been
    # measured, so that host speed does not change how many rounds run.
    rounds, first_traced = 0, None
    while True:
        ids = runner.run_round(rounds, traced=tracer is not None)
        first_traced = first_traced or ids
        rounds += 1
        for c in clocks.values():
            c.sample()
        measured = sum(wall * c.scale(start, start + wall) for _, start, wall, c in runner.timings)
        if runner.unfinished or measured >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    scale = {op_id: c.scale(start, start + wall) for op_id, start, wall, c in runner.timings}
    raw = {op_id: wall for op_id, _, wall, _ in runner.timings}
    starts = {op_id: start for op_id, start, _, _ in runner.timings}
    timed = [op_id for op_id in raw if tracer is None or op_id.startswith("t")]
    lat = [raw[i] * scale[i] for i in timed] or [0.0]
    setup = [(end - start) * clock.scale(start, end) for start, end in setup_spans]
    completed = runner.attempted - runner.failed
    p, tail_value, beyond = tail(lat)
    if tracer is not None:
        metrics = layer_metrics(tracer.spans, rounds, scale)
        untraced = sum(raw[i] * scale[i] for i in reference)
        metrics["trace.overhead_ratio"] = (
            sum(raw[i] * scale[i] for i in first_traced) / untraced - 1.0 if untraced and first_traced else 0.0)
        metrics["trace.spans"] = len(tracer.spans) / rounds
        signal.setitimer(signal.ITIMER_REAL, max(runner.deadline - time.perf_counter(), 0.001))
        try:
            metrics["colouring.fan_colouring_peak_alloc_mb"] = tracer.peak_alloc_mb()
        except (OpTimeout, MemoryError):
            runner.unfinished = True
            metrics["colouring.fan_colouring_peak_alloc_mb"] = 0.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    else:
        metrics = {
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail_value,
            "throughput_ops_per_s": completed / (sum(lat) or 1.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": completed / max(runner.attempted, 1),
            "found_ratio": runner.found / runner.colourable if runner.colourable else 1.0,
            "setup_s": statistics.median(setup),
        }
    raw_lat = [raw[i] for i in timed] or [0.0]
    raw_metrics = {
        "raw_latency_p50_s": statistics.median(raw_lat),
        "raw_latency_tail_s": tail(raw_lat)[1],
        "raw_throughput_ops_per_s": completed / (sum(raw_lat) or 1.0),
        "raw_setup_s": statistics.median(end - start for start, end in setup_spans),
        **{f"host_speed_{name}": c.speed() for name, c in clocks.items()},
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment()
    correct = runner.failed == 0 and not runner.unfinished
    info = {
        "workload": cls.name, "seed": args.seed, "trace": args.trace, "quick": args.quick,
        "rounds": rounds, "ops_per_round": len(wl.ops(0)), "attempted": runner.attempted,
        "failed": runner.failed, "failed_ratio": runner.failed / max(runner.attempted, 1),
        "unfinished": runner.unfinished, "found": runner.found, "colourable": runner.colourable,
        "tail_percentile": p, "tail_samples": len(lat), "tail_beyond": beyond,
        "raw": raw_metrics, "env": env,
        "ops": [[i, runner.labels[i], starts[i], raw[i], scale[i]] for i in raw],
        "calibration": {name: list(zip(c.starts, c.durations)) for name, c in clocks.items()},
    }
    for problem in runner.problems:
        print(f"perfbench: failed op: {problem}", file=sys.stderr)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"trace-{cls.name}-s{args.seed}.jsonl"))
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    with open(os.path.join(OUT, f"result-{cls.name}-s{args.seed}-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**info, **result}, fh, indent=1)
    for key in ("workload", "seed", "rounds", "ops_per_round", "attempted", "failed", "failed_ratio",
                "found", "colourable", "tail_percentile", "tail_samples", "tail_beyond"):
        print(f"{key} {info[key]}")
    print(f"env python {env['python']} nproc {env['nproc']} commit {env['commit']} src {env['src_sha256']}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for name, value in raw_metrics.items():
        print(f"wallclock {name} {value!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
