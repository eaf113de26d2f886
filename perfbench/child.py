"""One fresh interpreter of the benchmark: set-up timing, one pass over a
workload, or the kernel micro-timings.  Started by `run.py` with the
checkout's `src` on PYTHONPATH; prints one JSON object as its last line.

    python3 perfbench/child.py setup   --workload NAME --seed N
    python3 perfbench/child.py pass    --workload NAME --seed N [--trace] [--tiny] [--check]
    python3 perfbench/child.py kernels --seed N

A pass starts with empty module caches, as every `mwk` command does, and
fills them in its timed phase.  With --check, answers are checked after the
timed phase (and after the trace wrappers are removed), so checking is never
timed.  The timed phase runs under a `SpeedProbe`, whose samples `run.py`
uses to put every time at one reference speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback

import workloads

PROBE_INTERVAL_S = 0.02


def _probe_loop():
    """A fixed piece of pure-Python work: small ints, tuples and a dict.

    It must be long enough (about 0.15 ms) that its start, with the caches
    the measured code left, does not dominate: a loop a quarter as long
    slowed down and sped up half again as much as the package did.
    """
    table, x = {}, 1
    for i in range(512):
        x = (x * 31 + i) % 10007
        key = (x & 15, i & 3)
        table[key] = table.get(key, 0) + 1
    return x


class SpeedProbe:
    """Times `_probe_loop` from a SIGALRM handler every PROBE_INTERVAL_S.

    On a shared host the interpreter's speed moves by tens of percent over
    seconds to minutes, with nothing else running in the container.  The
    samples are spread evenly over the time measured, so their mean is the
    probe's time at the speed the measured code ran at: over repeated passes
    of one workload it tracked the pass time with a correlation of 0.98 or
    more.  `spent` is the time taken by the handler, which the measured
    times leave out.
    """

    def __init__(self):
        self.samples = []
        self.times = []
        self.spent = 0.0
        for _ in range(4):  # the interpreter specializes the loop's code
            _probe_loop()

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - start)
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)  # so that even a short phase has a sample


def set_up(workload):
    """Import the package and build the workload's fields; returns (fields, s)."""
    start = time.perf_counter()
    import mwk.cli  # noqa: F401  (also imports suites and exprtext)
    from mwk.exprtext import parse_field_spec

    fields = {spec: parse_field_spec(spec) for spec in workload.fields}
    return fields, time.perf_counter() - start


def _op_name(workload, op):
    if workload.kind == "suites":
        return f"suites.{op[1]}"
    return "group.compare" if workload.kind == "group" else "eval.request"


def run_pass(workload, seed, traced, tiny, check):
    fields, setup_s = set_up(workload)
    ops = workloads.make_ops(workload, seed, tiny)
    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    latencies, results, starts = [], [], []
    clock = time.perf_counter
    probe = SpeedProbe()
    with probe:
        for op in ops:
            if workload.kind != "eval":
                # A batch operation stands for one `mwk verify` or `mwk group`
                # command, which starts without the garbage of the one before.
                gc.collect()
            t0, spent = clock(), probe.spent
            starts.append(t0)
            try:
                if recorder is None:
                    result = workloads.run_op(workload, op, fields, seed, tiny)
                else:
                    result = recorder.run_span(_op_name(workload, op), workloads.run_op,
                                               workload, op, fields, seed, tiny)
            except Exception as exc:  # any error but MWKError is a wrong answer
                result = (False, {"crash": traceback.format_exc(limit=-3), "error": repr(exc)})
            latencies.append(clock() - t0 - (probe.spent - spent))
            results.append(result)
    wall_s = sum(latencies)
    # with the probe's handler time, which trace spans cannot leave out
    probed_wall_s = wall_s + probe.spent
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.uninstall()

    check_start = clock()
    wrong, checks = [], 0
    for op, (failed, payload) in zip(ops, results):
        if failed:
            continue
        checks += payload["trials"] if workload.kind == "suites" else 1
        if not check:
            continue
        try:
            why = workloads.check_op(workload, op, fields, payload)
        except Exception:  # the checking path calls the package too
            why = f"checking {op} raised\n{traceback.format_exc(limit=-3)}"
        if why:
            wrong.append(why)
    digest = hashlib.sha256(
        json.dumps([payload for _, payload in results], sort_keys=True).encode()
    ).hexdigest()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probed_wall_s": probed_wall_s,
        "latencies_s": latencies,
        "attempted": len(ops),
        "failed": sum(1 for failed, _ in results if failed),
        "failures": sorted({_describe(op, p) for op, (f, p) in zip(ops, results) if f}),
        "checks": checks,
        "wrong": wrong,
        "check_s": clock() - check_start,
        "digest": digest,
        "peak_rss_mb": rss_mb,
        "probe_s": probe.samples,
        "probe_t": probe.times,
        "op_t0": starts,
    }
    if recorder is not None:
        out["trace"] = {"table": recorder.table(), "extra": recorder.extra, "log": recorder.log}
    return out


def _describe(op, payload):
    error = payload.get("error") or payload.get("stderr", "")
    return f"{op[0]}: {error}"[:160]


def kernels(seed):
    """ns per call of FiniteField add/mul (F9, F625) and MWElem add/mul (F9)."""
    from mwk.fields import ff_build_q
    from mwk.model import model_elements

    rng = random.Random(f"kernels:{seed}")
    out = {}
    for q in (9, 625):
        field = ff_build_q(q)
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(20_000)]
        out[f"fields.add_ns.F{q}"] = _ns_per_call(field.add, pairs)
        out[f"fields.mul_ns.F{q}"] = _ns_per_call(field.mul, pairs)
    f9 = ff_build_q(9)
    elems = {deg: model_elements(f9, deg, rank_window=2) for deg in (0, 1)}
    same = []
    mixed = []
    for _ in range(5_000):
        deg = rng.choice((0, 1))
        same.append((rng.choice(elems[deg]), rng.choice(elems[deg])))
        mixed.append((rng.choice(elems[rng.choice((0, 1))]), rng.choice(elems[rng.choice((0, 1))])))
    out["model.add_ns"] = _ns_per_call(lambda a, b: a.add(b), same)
    out["model.mul_ns"] = _ns_per_call(lambda a, b: a.mul(b), mixed)
    return out


def _ns_per_call(fn, pairs, repeats=7):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(pairs) * 1e9


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass", "kernels"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--check", action="store_true", help="check every answer")
    args = parser.parse_args()
    if args.mode == "kernels":
        result = kernels(args.seed)
    elif args.mode == "setup":
        result = {"setup_s": set_up(workloads.WORKLOADS[args.workload])[1]}
    else:
        result = run_pass(workloads.WORKLOADS[args.workload], args.seed, args.trace, args.tiny,
                          args.check)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
