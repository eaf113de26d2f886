"""The mwk benchmark: four seeded workloads through the public API, each
answer checked, timed end to end and, in a separate traced run, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing but the standard
library and the checkout's `src/mwk`.  Workloads:

  verify-fq  every suite that accepts F_q, over 3 and 9 (operations, model)
  verify-ft  the suites over 3(t), 5(t), 25(t) (valuation, fields, symbols)
  group-snf  closed-form model against the presentation/SNF oracle
  eval-cli   a closed loop of one client sending `mwk eval` requests

Every pass is a fresh interpreter (`child.py`) started after the previous
one ended, because the package's field, residue-field and valuation caches
are module globals that every `mwk` command starts empty.  With `--trace 0`
the run repeats passes for about `--seconds` and prints the end-to-end
metrics; with `--trace 1` it runs the kernel micro-timings, one plain pass
and one traced pass, and prints the per-layer metrics.  Every pass of a run
does the same operations in the same order from empty caches, and each
operation's time is its mean over the passes (at least two).  Set-up (import
plus field builds) is timed in several fresh interpreters and reported as
their median.

Every time is reported at one reference speed of the machine.  A shared
host's speed drifts by tens of percent over seconds to minutes, which no
statistic over one run can remove, so `child.py` times a fixed pure-Python
probe loop every 20 ms while a pass runs, and each operation's time is
multiplied by PROBE_REF_S over the mean time of the probe samples taken
within PROBE_WINDOW_S of it.  On a 2-vCPU Xeon VM, over two sets of ten
seeds, this cut the interquartile spread of the pass time from 0.12-0.20 to
0.02-0.07 of the median.  The unscaled figures and the scale factors are
kept in the run record.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable summary.  The run record (machine, Python, revision, seed, digest)
and, for traced runs, the full span table go to `perfbench/out/`.  The exit
code is 0 when every answer checked out, 1 on a wrong answer or a digest
that differs between passes, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "mwk"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 21
MIN_PASSES = 2
# The probe loop's mean time at the reference speed (about its mean on an
# Intel Xeon 2-vCPU VM with Python 3.11); it fixes the scale of every time.
PROBE_REF_S = 200e-6
# Slow spells last from tens of milliseconds to minutes: a window this wide
# around each operation still holds a dozen samples or more.
PROBE_WINDOW_S = 0.25
TIME_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("checks_per_s", "1/s"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SUITE_IDS = (
    "lemma32", "relations34", "lambda-wd", "prop64", "shift73", "lemma75",
    "prop83", "thm84", "seq37", "prop36", "lemma91", "lemma93", "table1",
)

# Per-layer metrics: (name, unit, how it is read from the traced pass).
# ("calls", span) is a call count; ("share", span, key) is that span's
# total_s or self_s as a share of the traced pass's wall time (probe
# included, as in the spans), which is the most that speeding the boundary
# up could save.
PER_LAYER = (
    ("operations.OpSequence.shift.calls", "count", ("calls", "operations.OpSequence.shift")),
    ("operations.OpSequence.shift.self_share", "ratio", ("share", "operations.OpSequence.shift", "self_s")),
    ("operations.OpSequence.shift.total_share", "ratio", ("share", "operations.OpSequence.shift", "total_s")),
    ("operations.OpSequence.admissible.calls", "count", ("calls", "operations.OpSequence.admissible")),
    ("operations.OpSequence.admissible.total_share", "ratio", ("share", "operations.OpSequence.admissible", "total_s")),
    ("operations.admissible_per_shift", "ratio", ("per", "operations.OpSequence.admissible", "operations.OpSequence.shift")),
    ("operations.OpSequence.g_map.total_share", "ratio", ("share", "operations.OpSequence.g_map", "total_s")),
    ("operations.OpSequence.apply.total_share", "ratio", ("share", "operations.OpSequence.apply", "total_s")),
    ("operations.lambda_series.calls", "count", ("calls", "operations.lambda_series")),
    ("operations.lambda_series.self_share", "ratio", ("share", "operations.lambda_series", "self_s")),
    ("operations.lambda_series.total_share", "ratio", ("share", "operations.lambda_series", "total_s")),
    ("operations.sigma_operator_values.total_share", "ratio", ("share", "operations.sigma_operator_values", "total_s")),
    ("operations.ModelOracle.is_zero.calls", "count", ("calls", "operations.ModelOracle.is_zero")),
    ("operations.ModelOracle.is_zero.total_share", "ratio", ("share", "operations.ModelOracle.is_zero", "total_s")),
    ("operations.ValuationOracle.is_zero.calls", "count", ("calls", "operations.ValuationOracle.is_zero")),
    ("operations.ValuationOracle.is_zero.total_share", "ratio", ("share", "operations.ValuationOracle.is_zero", "total_s")),
    ("model.MWElem.new.calls", "count", ("calls", "model.MWElem.new")),
    ("model.MWElem.add.calls", "count", ("calls", "model.MWElem.add")),
    ("model.MWElem.mul.calls", "count", ("calls", "model.MWElem.mul")),
    ("model.minus_one_power.calls", "count", ("calls", "model.minus_one_power")),
    ("model.minus_one_power.total_share", "ratio", ("share", "model.minus_one_power", "total_s")),
    ("model.eval_model.calls", "count", ("calls", "model.eval_model")),
    ("model.eval_model.total_share", "ratio", ("share", "model.eval_model", "total_s")),
    ("model.snf_oracle.total_share", "ratio", ("share", "model.snf_oracle", "total_s")),
    ("model.smith_normal_form.total_share", "ratio", ("share", "model.smith_normal_form", "total_s")),
    ("model.rowgen_share", "ratio", ("rowgen",)),
    ("model.snf_rows", "count", ("extra", "model.snf_rows")),
    ("model.group_structure_model.total_share", "ratio", ("share", "model.group_structure_model", "total_s")),
    ("model.add_ns", "ns", ("kernel", "model.add_ns")),
    ("model.mul_ns", "ns", ("kernel", "model.mul_ns")),
    ("valuation.canonical_form.calls", "count", ("calls", "valuation.canonical_form")),
    ("valuation.canonical_form.self_share", "ratio", ("share", "valuation.canonical_form", "self_s")),
    ("valuation.canonical_form.total_share", "ratio", ("share", "valuation.canonical_form", "total_s")),
    ("valuation.residue_model.calls", "count", ("calls", "valuation.residue_model")),
    ("valuation.residue_model.total_share", "ratio", ("share", "valuation.residue_model", "total_s")),
    ("valuation.specialize_model.total_share", "ratio", ("share", "valuation.specialize_model", "total_s")),
    ("valuation.residue.calls", "count", ("calls", "valuation.residue")),
    ("valuation.residue.total_share", "ratio", ("share", "valuation.residue", "total_s")),
    ("valuation.specialize.total_share", "ratio", ("share", "valuation.specialize", "total_s")),
    ("valuation.terms_scanned", "count", ("extra", "valuation.terms_scanned")),
    ("valuation.scan_us_per_term", "us", ("per_term",)),
    ("valuation.context_builds", "count", ("calls", "valuation.context_build")),
    ("valuation.context_build_share", "ratio", ("share", "valuation.context_build", "total_s")),
    ("valuation.context_hit_ratio", "ratio", ("hits",)),
    ("fields.ff_build.calls", "count", ("calls", "fields.ff_build")),
    ("fields.field_builds", "count", ("calls", "fields.field_build")),
    ("fields.field_build_share", "ratio", ("share", "fields.field_build", "total_s")),
    ("fields.residue_data_builds", "count", ("calls", "fields.residue_data_build")),
    ("fields.residue_data_build_share", "ratio", ("share", "fields.residue_data_build", "total_s")),
    ("fields.poly_factor.calls", "count", ("calls", "fields.poly_factor")),
    ("fields.poly_factor.total_share", "ratio", ("share", "fields.poly_factor", "total_s")),
    ("fields.monic_irreducibles.total_share", "ratio", ("share", "fields.monic_irreducibles", "total_s")),
    ("fields.FiniteField.add.calls", "count", ("calls", "fields.FiniteField.add")),
    ("fields.FiniteField.mul.calls", "count", ("calls", "fields.FiniteField.mul")),
    ("fields.add_ns.F9", "ns", ("kernel", "fields.add_ns.F9")),
    ("fields.mul_ns.F9", "ns", ("kernel", "fields.mul_ns.F9")),
    ("fields.add_ns.F625", "ns", ("kernel", "fields.add_ns.F625")),
    ("fields.mul_ns.F625", "ns", ("kernel", "fields.mul_ns.F625")),
    ("symbols.SymExpr.new.calls", "count", ("calls", "symbols.SymExpr.new")),
    ("symbols.SymExpr.mul.calls", "count", ("calls", "symbols.SymExpr.mul")),
    ("symbols.SymExpr.mul.total_share", "ratio", ("share", "symbols.SymExpr.mul", "total_s")),
    ("symbols.relation_generators.total_share", "ratio", ("share", "symbols.relation_generators", "total_s")),
    ("suites.checks", "count", ("calls", "suites.checks")),
    ("suites.sampling.total_share", "ratio", ("share", "suites.sampling", "total_s")),
    *(
        (f"suites.{suite}.total_share", "ratio", ("share", f"suites.{suite}", "total_s"))
        for suite in SUITE_IDS
    ),
    ("exprtext.parse_expr.calls", "count", ("calls", "exprtext.parse_expr")),
    ("exprtext.parse_expr.total_share", "ratio", ("share", "exprtext.parse_expr", "total_s")),
    ("exprtext.parse_field_spec.total_share", "ratio", ("share", "exprtext.parse_field_spec", "total_s")),
    ("cli.main.calls", "count", ("calls", "cli.main")),
    ("cli.main.self_share", "ratio", ("share", "cli.main", "self_s")),
    ("trace.overhead_frac", "ratio", ("overhead",)),
)


class BenchError(Exception):
    """The benchmark could not run (missing source, a child crashed)."""


def run_child(deadline, mode, *args):
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(HERE / "child.py"), mode, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child ran past the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile (p in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def speed_scale(samples):
    """PROBE_REF_S over the probe's mean time, leaving out the rare sample
    that a preemption stretched to many times the median."""
    cut = 5 * statistics.median(samples)
    return PROBE_REF_S / statistics.fmean(s for s in samples if s <= cut)


def scaled_latencies(p):
    """A pass's operation times at the reference speed, each scaled by the
    probe samples taken within PROBE_WINDOW_S of the operation (by all the
    pass's samples when none were)."""
    times, samples = p["probe_t"], p["probe_s"]
    out = []
    for start, latency in zip(p["op_t0"], p["latencies_s"]):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + latency + PROBE_WINDOW_S)
        out.append(latency * speed_scale(samples[lo:hi] or samples))
    return out


def mean_latencies(passes, scaled=True):
    """Each operation's time as its mean over the passes, at the reference
    speed unless `scaled` is false."""
    per_pass = [scaled_latencies(p) if scaled else p["latencies_s"] for p in passes]
    return [statistics.fmean(times) for times in zip(*per_pass)]


def end_to_end(setups, passes):
    latencies = mean_latencies(passes)
    wall_s = sum(latencies)
    return {
        # Set-up is too short for the probe, and the probe runs slow among
        # the imports; the set-ups run just before the passes, at their speed.
        "setup_s": statistics.median(setups) * speed_scale(
            [s for p in passes for s in p["probe_s"]]),
        "wall_s": wall_s,
        "checks_per_s": passes[0]["checks"] / wall_s,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(kernels, plain, traced):
    table, extra, wall = traced["trace"]["table"], traced["trace"]["extra"], traced["probed_wall_s"]

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def seconds(name, key="total_s"):
        return table.get(name, {}).get(key, 0.0)

    def value(how):
        kind = how[0]
        if kind == "calls":
            return calls(how[1])
        if kind == "share":
            return seconds(how[1], how[2]) / wall
        if kind == "per":
            return calls(how[1]) / calls(how[2]) if calls(how[2]) else 0.0
        if kind == "extra":
            return extra[how[1]]
        if kind == "kernel":
            return kernels[how[1]]
        if kind == "rowgen":
            return (seconds("model.snf_oracle") - seconds("model.smith_normal_form")) / wall
        if kind == "per_term":
            terms = extra["valuation.terms_scanned"]
            return seconds("valuation.residue_model") * 1e6 / terms if terms else 0.0
        if kind == "hits":
            lookups = extra["valuation.context_lookups"]
            return 1 - extra["valuation.context_misses"] / lookups if lookups else 0.0
        if kind == "overhead":
            return (traced["wall_s"] * speed_scale(traced["probe_s"])
                    / (plain["wall_s"] * speed_scale(plain["probe_s"])) - 1)
        raise ValueError(kind)

    return {name: value(how) for name, _, how in PER_LAYER}


def revision():
    """The git revision when the checkout carries one, read from .git only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    sha = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def run(args):
    if not (SOURCE / "__init__.py").is_file():
        raise BenchError(f"no mwk package under {SOURCE.relative_to(ROOT)}; run from a checkout")
    deadline = time.monotonic() + TIME_LIMIT_S
    name, seed = args.workload, str(args.seed)
    base = ["--workload", name, "--seed", seed]
    flags = base + (["--tiny"] if args.tiny else [])
    run_child(deadline, "setup", *base)  # compiles bytecode; not counted
    setups = [run_child(deadline, "setup", *base)["setup_s"] for _ in range(SETUP_RUNS)]
    record = {}
    # Only the first pass checks its answers: every later pass must give the
    # same digest of all answers, which run() verifies below.
    if args.trace:
        kernels = run_child(deadline, "kernels", "--seed", seed)
        plain = run_child(deadline, "pass", *flags, "--check")
        traced = run_child(deadline, "pass", *flags, "--trace")
        passes, timed = [plain, traced], [plain]
        metrics = per_layer(kernels, plain, traced)
        units = {n: u for n, u, _ in PER_LAYER}
        record["spans"] = traced.pop("trace")
    else:
        # After MIN_PASSES, start another pass only if one more, as long as
        # the last one took without its checking, would end within --seconds
        # of the first.
        start = last = time.monotonic()
        passes = [run_child(deadline, "pass", *flags, "--check")]
        while True:
            now = time.monotonic()
            if (len(passes) >= MIN_PASSES
                    and 2 * now - last - passes[-1]["check_s"] - start > args.seconds):
                break
            last = now
            passes.append(run_child(deadline, "pass", *flags))
        timed = passes
        metrics = end_to_end(setups, passes)
        units = dict(END_TO_END)

    digests = sorted({p["digest"] for p in passes})
    wrong = [w for p in passes for w in p["wrong"]]
    if len(digests) > 1:
        wrong.append(f"passes of one seed gave different digests: {digests}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record.update({
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "revision": revision(),
        "source_sha256": source_digest(),
        "passes": len(passes),
        "latency_samples_per_pass": passes[0]["attempted"],
        # Times of the untraced passes only.
        # Printed, not bounded: over the 15-36 unlike operations of a batch
        # workload the median operation swings by a quarter from run to run.
        "latency_p50_ms": percentile(mean_latencies(timed), 50) * 1e3,
        "unscaled_wall_s": sum(mean_latencies(timed, scaled=False)),
        "unscaled_setup_s": statistics.median(setups),
        "speed_scales": [speed_scale(p["probe_s"]) for p in timed],
        "pass_latencies_s": [p["latencies_s"] for p in timed],
        "digest": digests[0],
        "failed_frac": failed / attempted,
        "failures": passes[0]["failures"],
        "wrong": wrong,
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{name}-seed{seed}-trace{int(args.trace)}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {name}  seed {seed}  passes {len(passes)}  "
          f"python {record['python']}  nproc {record['nproc']}  revision {record['revision']}")
    print(f"digest {digests[0]}")
    print(f"failed_frac {record['failed_frac']:.4f} ratio  ({failed} of {attempted} operations)")
    for failure in record["failures"]:
        print(f"  failed: {failure}")
    print(f"latency samples {record['latency_samples_per_pass']} per pass, "
          f"median {record['latency_p50_ms']:.6g} ms")
    for key, val in metrics.items():
        print(f"{key} {val:.6g} {units[key]}")
    for why in wrong:
        print(f"WRONG: {why}")
    print(f"record written to {out_file.relative_to(ROOT)}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": val, "unit": units[key]} for key, val in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
