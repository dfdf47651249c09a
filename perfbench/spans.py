"""Spans around calls into pinchcalc, recorded from outside the package.

`Tracer.installed()` replaces every public function of the pinchcalc
modules, in every pinchcalc namespace that binds it, by a wrapper that
records a span (id, name, start, end, parent id, request id) and restores
the originals on exit.  Calls that go through a module attribute are seen;
calls through a reference taken before installation (the CLI's HANDLERS
table) are not, so their time stays with the caller.

A span's self time is its duration minus the durations of its child spans.
Every span feeds the per-function aggregates when it closes; the first
`keep` spans are also kept in memory and written out when the run ends.

The wrapper itself takes time, inside a span's own window and around it in
its parent's.  `Tracer.calibrate()` measures both on empty functions
before and after the traced calls, and the per-function figures subtract
the mean: self time loses one inside cost per call and one outside cost
per child span, and total time loses the cost of every span below it and
the time of the probes that derive the run and bit-width counts.
"""

import sys
import time
import types
from contextlib import contextmanager

# cli.verify.<section>.s -> the verification harness function behind it
VERIFY_SECTIONS = {
    "tables": "cli.check_reference_tables",
    "closed_form": "cli.check_pinch_numbers_and_closed_form",
    "j_to_k": "cli.check_j_to_k",
    "k_independence": "cli.check_k_independence",
    "reports": "cli.check_reports",
}
MODULES = ("arith", "pinch", "families", "tangles", "criteria", "cli")
# calibration: chains of empty calls per repeat, and repeats (fastest kept)
CALIBRATE_CALLS = 2000
CALIBRATE_REPEATS = 15


def chain_runs(steps):
    """Run lengths of a step chain.

    A positive run keeps the witness (t, h); a negative run keeps the
    complement (p - t, q - h).  Steps are PinchStep objects.
    """
    runs, prev = [], None
    for s in steps:
        key = (s.sign, s.t, s.h) if s.sign > 0 else (
            s.sign, s.source.p - s.t, s.source.q - s.h)
        if key == prev:
            runs[-1] += 1
        else:
            runs.append(1)
        prev = key
    return runs


class Tracer:
    def __init__(self, keep):
        self.keep = keep
        self.spans = []
        self.rid = 0
        self.next_id = 0
        self.stack = []
        self.wrappers = {}
        self.reset()

    def reset(self):
        """Start a new set of aggregates and measure the span cost afresh;
        kept spans stay."""
        # name -> [calls, self ns, total ns, child spans, descendant spans,
        #          probe ns inside]
        self.agg = {w.name: [0] * 6 for w in self.wrappers.values()}
        self.max_bits = 0
        self.starts = set()
        self.pinch_sum = 0
        self.runs = 0
        self.run_moves = 0
        self.long_run_moves = 0
        self.cost_before = self.calibrate()

    def calibrate(self):
        """The tracer's own cost per span, in ns: the part inside the span's
        own [start, end] (cost_in) and the part its parent sees around it
        (cost_out).

        Times CALIBRATE_CALLS three-deep call chains of empty functions,
        bare and wrapped, fastest of CALIBRATE_REPEATS, with spans past
        `keep` as in a long run.  The chain matters: one wrapper code serves every function,
        and alternating callees make it slower than a loop over one.
        """

        def leaf(a, b):
            return a

        def chain(wrap):
            low = wrap(leaf, "trace.leaf")
            mid = wrap(lambda a, b: low(a, b), "trace.mid")
            top = wrap(lambda a, b: mid(a, b), "trace.top")

            def loop(n):
                for i in range(n):
                    top(i, n)

            return loop

        def plain(fn, name):
            return fn

        plain_loop, traced_loop = chain(plain), chain(self._wrap)
        clock = time.perf_counter_ns
        keep, next_id, self.keep = self.keep, self.next_id, 0
        names = ("trace.leaf", "trace.mid", "trace.top")
        per_span = leaf_self = float("inf")
        calls = CALIBRATE_CALLS
        for _ in range(CALIBRATE_REPEATS):
            for name in names:
                self.agg[name] = [0] * 6
            t0 = clock()
            plain_loop(calls)
            t1 = clock()
            traced_loop(calls)
            t2 = clock()
            per_span = min(per_span, ((t2 - t1) - (t1 - t0)) / (3 * calls))
            leaf_self = min(leaf_self, self.agg["trace.leaf"][1] / calls)
        self.keep, self.next_id = keep, next_id
        for name in names:
            del self.agg[name]
        # an empty call's own cost is small next to the wrapper's; the
        # leaf's self time is taken as all tracer cost
        cost_in = min(max(0.0, leaf_self), max(0.0, per_span))
        return cost_in, max(0.0, per_span - cost_in)

    def _probe_ext_gcd(self, args, result):
        self.max_bits = max(self.max_bits, *(abs(a).bit_length() for a in args))

    def _probe_sequence(self, args, result):
        self.starts.add((result.start.p, result.start.q))
        self.pinch_sum += result.pinch_number
        runs = chain_runs(result.steps)
        self.runs += len(runs)
        self.run_moves += sum(runs)
        self.long_run_moves += sum(r for r in runs if r > 1)

    def _wrap(self, fn, name):
        probe = {"arith.ext_gcd": self._probe_ext_gcd,
                 "pinch.pinch_sequence": self._probe_sequence}.get(name)
        clock = time.perf_counter_ns
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            # id, child time, child spans, descendant spans, probe time
            frame = [span_id, 0, 0, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                rec = self.agg[name]
                rec[0] += 1
                rec[1] += duration - frame[1]
                rec[2] += duration
                rec[3] += frame[2]
                rec[4] += frame[3]
                rec[5] += frame[4]
                if stack:
                    up = stack[-1]
                    up[1] += duration
                    up[2] += 1
                    up[3] += 1 + frame[3]
                    up[4] += frame[4]
                if len(spans) < self.keep:
                    spans.append((span_id, name, start, end, parent, self.rid))
            if probe is not None:
                # the probe is the tracer's own work: keep it out of the
                # caller's self and total time
                t0 = clock()
                probe(args, result)
                if stack:
                    probe_ns = clock() - t0
                    stack[-1][1] += probe_ns
                    stack[-1][4] += probe_ns
            return result

        traced.name = name
        return traced

    @contextmanager
    def installed(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "pinchcalc" or n.startswith("pinchcalc.")]
        undo = []
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__.startswith("pinchcalc.")):
                    if fn not in self.wrappers:
                        name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
                        self.wrappers[fn] = self._wrap(fn, name)
                        self.agg.setdefault(name, [0] * 6)
                    setattr(mod, attr, self.wrappers[fn])
                    undo.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in undo:
                setattr(mod, attr, fn)

    def snapshot(self):
        """Per-layer metrics of everything since the last reset().

        The span cost is measured again and averaged with the one measured
        at the reset: the machine's speed drifts, and the two bracket the
        traced calls.
        """
        out = {}
        per_module = dict.fromkeys(MODULES, 0)
        after = self.calibrate()
        cin = (self.cost_before[0] + after[0]) / 2
        cout = (self.cost_before[1] + after[1]) / 2
        for name, (calls, self_ns, total_ns, children, desc, probe_ns) in self.agg.items():
            self_ns = max(0.0, self_ns - calls * cin - children * cout)
            total_ns = max(0.0, total_ns - calls * cin - desc * (cin + cout) - probe_ns)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.total_s"] = total_ns / 1e9
            per_module[name.split(".")[0]] += self_ns
        for mod, ns in per_module.items():
            out[f"{mod}.self_s"] = ns / 1e9
        for section, name in VERIFY_SECTIONS.items():
            out[f"cli.verify.{section}.s"] = out[f"{name}.total_s"]
        out["arith.ext_gcd.max_bits"] = self.max_bits
        out["trace.span_cost_s"] = (cin + cout) / 1e9
        moves = out["pinch.pinch_move.calls"]
        seqs = out["pinch.pinch_sequence.calls"]
        out["pinch.moves_per_pinch"] = moves / self.pinch_sum if self.pinch_sum else 0
        out["pinch.moves_per_run"] = self.run_moves / self.runs if self.runs else 0
        out["pinch.long_run_move_share"] = (
            self.long_run_moves / self.run_moves if self.run_moves else 0)
        out["pinch.sequence_rebuild_ratio"] = (
            seqs / len(self.starts) if self.starts else 0)
        return out
