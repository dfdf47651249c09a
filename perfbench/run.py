#!/usr/bin/env python3
"""The pinchcalc benchmark.

Runs one workload from the root of a checkout, checks every output and
prints every metric by name and unit.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
(--trace 0) report the end-to-end metrics of BENCHMARK.json; traced runs
(--trace 1) report its per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # all workloads, one process each

A run makes the workload's operations from the seed, then repeats them in
rounds until --seconds have passed.  On a shared machine the CPU speed
steps by up to 2x for seconds or minutes at a time, so raw times of two
runs can differ by that much.  The untraced run therefore also times
`reference()`, a fixed pure-Python loop that never calls pinchcalc, before
the first operation of a round, between operations every REF_EVERY_S and
after the last one.  Each call's time is multiplied by REF_S over the mean
of the two reference times around it: times are reported at the machine
speed where the reference takes REF_S, not as wall times.  An operation's
time is the median of its scaled times over the rounds, and wall_s sums
those medians.  setup_s is the median over fresh processes launched
between rounds, each scaled by the reference timed just before and after
it.

The program is imported from src/ of the checkout, never from an installed
copy; without src/pinchcalc the benchmark exits with code 1.  Detailed
outputs go to perfbench/out/: per-document sha256 digests, the digest
registry, for untraced runs the raw (unscaled) medians and speed factors,
and for traced runs the spans and per-function table.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MIN_ROUNDS = 3
SPAN_KEEP = 50_000
SETUP_LAUNCHES = 9
SETUP_ARGV = ["-m", "pinchcalc", "pinch-number", "4", "9", "--json"]
TAIL_LEVELS = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# about the reference's time on a 2.1 GHz Xeon VM at its full speed
REF_S = 0.010
REF_EVERY_S = 0.1
REF_WIDE, REF_WIDE_2, REF_WIDE_PAIRS = 3**160 + 12345, 7**90 + 6789, 375


class Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference():
    """Fixed interpreter work of the three kinds pinchcalc does most: object
    creation and attribute access, Euclid's algorithm on small ints, and
    Euclid's algorithm on 250-bit ints."""
    nodes = []
    total = 0
    for i in range(15000):
        node = Node(i, (i, i * 7 // 3))
        nodes.append(node)
        total += node.value[1] - node.key
        if len(nodes) > 500:
            nodes.clear()
    for a in range(3, 3100):
        x, y = a * 7919 + 13, a
        while y:
            x, y = y, x - x // y * y
        total += x
    for i in range(REF_WIDE_PAIRS):
        x, y = REF_WIDE + i, REF_WIDE_2 + 7 * i
        while y:
            x, y = y, x % y
        total ^= x
    return total


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def load_program():
    if not (SRC / "pinchcalc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pinchcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pinchcalc

    if not Path(pinchcalc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: pinchcalc imported from {pinchcalc.__file__}")


def code_fingerprint():
    h = hashlib.sha256()
    for path in sorted((SRC / "pinchcalc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def launch_setup():
    """Wall time of a fresh interpreter answering `pinch-number 4 9`, and
    whether its answer was right."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    try:
        results = json.loads(proc.stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return elapsed, False
    return elapsed, proc.returncode == 0 and results == {
        "start": [4, 9], "pinch_number": 2}


def run_round(ops, tracer=None, refs=None, passed=None):
    """Run and check ops in order; time each call into the program and,
    when refs is a list, the reference beside them.

    passed holds (operation index, output digest) pairs whose check has
    passed: an output with the same bytes as one that passed is not parsed
    and checked again.  Any other output is checked in full.
    """
    latencies, failed, digests, ref_index = [], 0, [], []
    stream = hashlib.sha256()
    last_ref = -math.inf
    passed = set() if passed is None else passed
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.rid = i
        if refs is not None and time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(time_reference())
            last_ref = time.perf_counter()
        if refs is not None:
            ref_index.append(len(refs) - 1)
        t0 = time.perf_counter()
        code, text = op.call()
        latencies.append(time.perf_counter() - t0)
        data = text.encode()
        digest = hashlib.sha256(data).hexdigest()
        stream.update(data)
        digests.append(digest)
        if code == 0 and (i, digest) in passed:
            continue
        try:
            ok = code == 0 and op.check(json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
            ok = False
        failed += not ok
        if ok:
            passed.add((i, digest))
    if refs is not None:
        refs.append(time_reference())
    return {"latencies": latencies, "failed": failed, "digests": digests,
            "ref_index": ref_index,
            "digest": stream.hexdigest()}


class Digests:
    """Round digests by input key, kept per program source across runs.

    The same inputs under the same source must print the same bytes; a
    round whose digest differs from an earlier one counts as a failure.
    """

    def __init__(self, workload, seed, trace):
        self.registry_path = OUT / "digests.json"
        self.docs_path = OUT / f"{workload}-seed{seed}-trace{trace}.digests"
        self.code = code_fingerprint()
        try:
            registry = json.loads(self.registry_path.read_text())
        except (OSError, ValueError):
            registry = {}
        self.known = registry.get(self.code, {})
        self.lines = []

    def differs(self, ops, result):
        key = hashlib.sha256(repr([op.argv for op in ops]).encode()).hexdigest()
        if not self.lines:
            self.first = result["digest"]
            self.lines = [f"{i} {digest} {' '.join(op.argv)}"
                          for i, (op, digest) in enumerate(zip(ops, result["digests"]))]
        return self.known.setdefault(key, result["digest"]) != result["digest"]

    def save(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.registry_path.write_text(json.dumps({self.code: self.known}))
        self.docs_path.write_text("\n".join(self.lines) + "\n")


class State:
    """Operation counts, failures and notes of one run."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.raw = None
        self.digests = Digests(workload, seed, trace)

    def add(self, result, ops=None):
        self.attempted += len(result["latencies"])
        self.failed += result["failed"]
        if ops is not None:
            self.failed += self.digests.differs(ops, result)

    def launch(self, times, raw):
        """One set-up launch, scaled by the reference timed around it."""
        before = time_reference()
        elapsed, ok = launch_setup()
        raw.append(elapsed)
        times.append(elapsed * 2 * REF_S / (before + time_reference()))
        self.attempted += 1
        self.failed += not ok


def tail(samples):
    """The highest of TAIL_LEVELS with ten samples beyond it, else the max."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LEVELS:
        index = math.ceil(level * n / 100) - 1  # nearest rank
        if n - 1 - index >= 10:
            return ordered[index], f"p{level:g}"
    return ordered[-1], "max"


def untraced(wl, seed, seconds, state):
    make_ops, warmup = wl
    ops = make_ops(seed)
    state.add(run_round(warmup(seed)))
    passed = set()
    scaled, factors, raw_walls = [], [], []
    setup_times, raw_setup = [], []
    start = time.perf_counter()
    while len(scaled) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        refs = []
        result = run_round(ops, refs=refs, passed=passed)
        state.add(result, ops)
        # each call is scaled by the references timed just before and after
        # the stretch of calls it belongs to
        scaled.append([t * 2 * REF_S / (refs[j] + refs[j + 1]) for t, j in
                       zip(result["latencies"], result["ref_index"])])
        raw_walls.append(sum(result["latencies"]))
        factors.append(REF_S / statistics.median(refs))
        # launches between rounds sample the machine's speed like the rounds do
        state.launch(setup_times, raw_setup)
    while len(setup_times) < SETUP_LAUNCHES:
        state.launch(setup_times, raw_setup)
    per_op = [statistics.median(times) for times in zip(*scaled)]
    tail_s, level = tail(per_op)
    # a round's time as the sum of each operation's median: on a noisy
    # machine this is steadier than the median of whole rounds
    wall = sum(per_op)
    state.raw = {
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(raw_setup),
        "speed_factor": statistics.median(factors),
        "speed_factor_range": [min(factors), max(factors)],
        "rounds": len(scaled),
        "tail_level": level,
    }
    state.notes += [
        f"{len(ops)} operations x {len(scaled)} rounds; tail is {level} of "
        f"{len(ops)} per-operation medians; {len(setup_times)} setup launches",
        f"sha256 of a round's JSON documents: {state.digests.first}",
        f"times are scaled to the speed where reference() takes {REF_S * 1e3:g} ms; "
        f"raw medians: round {state.raw['raw_wall_s']:.6g} s, setup "
        f"{state.raw['raw_setup_s']:.6g} s; speed factor median "
        f"{statistics.median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f}",
    ]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "query_p50_ms": statistics.median(per_op) * 1e3,
        "query_tail_ms": tail_s * 1e3,
        "queries_per_s": len(ops) / wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(wl, seed, seconds, state, units):
    """Alternate untraced and traced rounds of the workload's operations.

    Counts come from the first traced round, so they repeat exactly for a
    seed; times are the fastest over the traced rounds.
    """
    from spans import Tracer

    make_ops, warmup = wl
    ops = make_ops(seed)
    state.add(run_round(warmup(seed)))
    tracer = Tracer(SPAN_KEEP)
    passed = set()
    plain, walls, snaps = [], [], []
    start = time.perf_counter()
    while not snaps or time.perf_counter() - start < seconds:
        result = run_round(ops, passed=passed)
        state.add(result, ops)
        plain.append(sum(result["latencies"]))
        tracer.reset()
        with tracer.installed():
            result = run_round(ops, tracer, passed=passed)
        state.add(result, ops)
        walls.append(sum(result["latencies"]))
        snaps.append(tracer.snapshot())
    overhead = min(walls) - min(plain)
    state.notes.append(f"{len(snaps)} traced rounds of {len(ops)} operations; "
                       f"tracing adds {overhead:.4f} s to a round of {min(plain):.4f} s")
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = overhead
        elif unit == "s":
            metrics[name] = min(s[name] for s in snaps)
        else:
            metrics[name] = snaps[0][name]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{state.workload}-seed{seed}.json").write_text(json.dumps({
        "fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
        "functions": snaps[0],
        "spans": tracer.spans,
    }))
    return metrics


def run_one(args, spec):
    load_program()
    from workloads import WORKLOADS

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    state = State(args.workload, args.seed, args.trace)
    wl = WORKLOADS[args.workload]
    if args.trace:
        values = traced(wl, args.seed, args.seconds, state, units)
    else:
        values = untraced(wl, args.seed, args.seconds, state)
    state.digests.save()
    if state.raw is not None:
        (OUT / f"{args.workload}-seed{args.seed}-trace0.raw.json").write_text(
            json.dumps(state.raw))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in state.notes:
        print(f"  {note}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:40} {shown} {m['unit']}")
    print(f"  {'error_rate':40} {state.failed / state.attempted:>16.6g} "
          f"({state.failed} of {state.attempted} operations failed)")
    return {"correct": state.failed == 0, "attempted": state.attempted,
            "failed": state.failed, "metrics": metrics}


def run_all(args, spec):
    """Each workload in its own process, so peak_rss_mib is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               wl["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {wl['name']} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{wl['name']}.{name}"] = m
    return combined


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
