"""sl2hilb benchmark: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Each pass runs the workload's operation list once in a fresh interpreter
(perfbench/worker.py), one pass after another from this single process, so
neither the in-process memo nor the CLI disk cache carries a result from one
pass to the next.  A run makes K passes, K = S // PASS_BUDGET_S[workload]:
the count depends on S alone, never on how fast the code under test is, so
best-of-K means the same at every commit.  Every output is compared with
perfbench/reference.json after the timed region; an operation that raises,
exits non-zero or differs counts as failed.

--trace 0 reports the end-to-end metrics: setup_s (interpreter start until
sl2hilb and sl2hilb.cli are imported and the cache directory exists; median
over every interpreter started), wall_s (one pass, each operation at its
best latency over the K passes), p50_ms and tail_ms (over those best
latencies) and peak_rss_mb (median over passes).  The four timings are
scaled to the host's nominal speed, measured by a calibration loop run after
each set-up and at fixed points of each pass.  --trace 1 alternates untraced and
traced passes and reports per-layer calls, self time and counters, averaged
over the traced passes; those times are as measured.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
# Set-up-only interpreter starts before each untraced pass, so that setup_s
# is a median over several starts spread across the run.
SETUP_STARTS_PER_PASS = 2
# A worker.calibrate() sample on the reference host (2-core x86-64 VM,
# Python 3.11) when other tenants left it alone; it sets the scale only.
CAL_NOMINAL_S = 0.0333
# Seconds budgeted for one pass, set-up starts included: 1.3x to 2x a pass
# at the commit that introduced the benchmark, on its reference host (2-core
# x86-64 VM, Python 3.11), so that slower code or a slower host still makes
# K passes in about S seconds.
PASS_BUDGET_S = {"series_single": 10, "series_multi": 7.5, "gammas": 5, "cli": 5}
# A run that cannot finish its K passes within this many seconds fails.
RUN_LIMIT_S = 165
PASS_TIMEOUT_S = 150
TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail(latencies):
    """(label, value): the highest ladder percentile with >= 10 samples beyond.

    With fewer than 20 samples no percentile qualifies and the tail is the
    maximum.
    """
    values = sorted(latencies)
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        beyond = n - int(-(-n * q // 100))
        if beyond >= 10:
            best = q
    if best is None:
        return "p100 (max)", values[-1]
    return "p%g" % best, percentile(values, best)


def spawn(workload, ops, trace, tmp, index):
    cache_dir = os.path.join(tmp, "cache-%d" % index)
    env = dict(os.environ, SL2HILB_CACHE_DIR=cache_dir)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, cache_dir]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    payload = json.dumps({"t0": t0, "ops": ops, "trace": trace})
    try:
        out, err = proc.communicate(payload, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass %d timed out" % (workload, index)) from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, err[-2000:]))
    return json.loads(out)


def check(ops, result, reference):
    """Indices of operations whose output is missing or differs."""
    return [i for i, (op, out, err)
            in enumerate(zip(ops, result["outputs"], result["errors"]))
            if err is not None or out != reference[workloads.op_key(op)]]


def pass_count(workload, seconds, trace):
    """K: passes per run, from the time budget alone; a traced run needs two."""
    k = max(1, int(seconds // PASS_BUDGET_S[workload]))
    return max(2, k) if trace else k


def run_passes(workload, ops, trace, k, tmp, reference):
    """K untraced passes, or K alternating untraced and traced ones.

    Only latencies, set-up times, memory and trace reports are kept; each
    pass's outputs are dropped once they are checked.
    """
    start = time.monotonic()
    setups, plain, traced, failures = [], [], [], []
    longest = 0.0
    index = 0
    for n in range(k):
        if time.monotonic() - start + longest > RUN_LIMIT_S:
            raise BenchError("only %d of %d passes fit in %d s" % (n, k, RUN_LIMIT_S))
        kind = trace and n % 2 == 1
        t0 = time.monotonic()
        if not trace:
            # set-up is sampled across the whole run, not in one burst
            for _ in range(SETUP_STARTS_PER_PASS):
                probe = spawn(workload, [], False, tmp, index)
                setups.append((probe["setup_s"], probe["setup_cal"]))
                index += 1
        result = spawn(workload, ops, kind, tmp, index)
        longest = max(longest, time.monotonic() - t0)
        index += 1
        setups.append((result["setup_s"], result["setup_cal"]))
        for i in check(ops, result, reference):
            failures.append((ops[i], result["errors"][i]))
        del result["outputs"], result["errors"]
        (traced if kind else plain).append(result)
    return setups, plain, traced, failures


def end_to_end(ops, setups, passes):
    """The end-to-end metrics of one run, with a note on how each was taken.

    Set-up is the median over interpreter starts, each scaled to the host's
    nominal speed by the calibration sample its worker took right after
    set-up: start-up is CPU work that follows the host's speed closely.

    The host's speed drifts over minutes, longer than a run, so each pass's
    latencies are scaled to nominal speed by the fastest of its calibration
    samples.  Each operation then counts at its fastest scaled latency over
    the K passes: interference on a shared host only ever slows an
    operation down.  The number of samples is fixed by the workload, like K.
    """
    speeds = [CAL_NOMINAL_S / min(p["cal"]) for p in passes]
    best = [min(p["latencies"][i] * f for p, f in zip(passes, speeds))
            for i in range(len(ops))]
    raw = [min(p["latencies"][i] for p in passes) for i in range(len(ops))]
    label, tail_s = tail(best)
    metrics = {
        "setup_s": (statistics.median(s * CAL_NOMINAL_S / c for s, c in setups), "s"),
        "wall_s": (sum(best), "s"),
        "p50_ms": (statistics.median(best) * 1000, "ms"),
        "tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    walls = sorted(p["wall_s"] for p in passes)
    notes = {
        "setup_s": "median of %d interpreter starts, %.4g s as measured"
                   % (len(setups), statistics.median(s for s, _ in setups)),
        "wall_s": "one pass of %d operations, each at its best of %d passes; "
                  "unscaled best %.4g s, whole passes %.4g..%.4g s"
                  % (len(ops), len(passes), sum(raw), walls[0], walls[-1]),
        "p50_ms": "median of those %d best latencies; unscaled %.4g ms"
                  % (len(ops), statistics.median(raw) * 1000),
        "tail_ms": "%s of those %d best latencies; unscaled %.4g ms"
                   % (label, len(ops), tail(raw)[1] * 1000),
        "peak_rss_mb": "worker peak resident memory (VmHWM), median over passes",
    }
    host = ("host speed per pass, of nominal: %s (fastest of %d calibration samples, "
            "nominal %.4g s); the timings below are scaled by it"
            % (" ".join("%.3g" % f for f in speeds), len(passes[0]["cal"]), CAL_NOMINAL_S))
    return metrics, notes, host


# Counters and ratios read off a layer's spans or its counter hook.
COUNTED_BY = {
    "series.ua_transform.out_terms": ("series.ua_transform",),
    "series.ua_transform.fraction_share": ("series.ua_transform",),
    "exactalg.rf_add.max_den_degree": ("exactalg.rf_add",),
    "exactalg.reduce.cancelled_degree": ("exactalg.reduce",),
    "exactalg.num_max_bits": ("exactalg.reduce",),
    "oracle.coverage_min": ("oracle.truncated_series", "series.hilbert_series"),
    "schur.schur_eval.det_rows_max": ("schur.bareiss_det",),
    "laurent.closed_form_share": ("laurent.closed_form",),
    "cli.cache_hit_ratio": ("cli.load_cached",),
}


def per_layer(plain, traced):
    """Per-layer metrics averaged over traced passes, plus the tracing overhead.

    The metrics of a missing layer, and the counters of a layer whose hook
    failed, are left out: a 0 would read as a gain.
    """
    n = len(traced)
    metrics = {}
    totals = [t["trace"] for t in traced]
    for layer in tracing.SPAN_LAYERS:
        for stat, unit in (("calls", "count"), ("self_s", "s")):
            value = sum(t["layers"][layer][stat] for t in totals) / n
            metrics["%s.%s" % (layer, stat)] = (value, unit)

    def total(field, name):
        return sum(t[field].get(name, 0) for t in totals) / n

    def extreme(field, name, pick, empty):
        vals = [t[field][name] for t in totals if name in t[field]]
        return pick(vals) if vals else empty

    op_time = sum(t["op_time_s"] for t in totals) / n
    coeffs = total("sums", "series.ua_transform.input_coeffs")
    loads = metrics["cli.load_cached.calls"][0]
    closed_incl = sum(t["layers"]["laurent.closed_form"]["incl_s"] for t in totals) / n
    self_sum = sum(metrics["%s.self_s" % layer][0] for layer in tracing.SPAN_LAYERS)
    metrics.update({
        "series.ua_transform.out_terms": (total("sums", "series.ua_transform.out_terms"), "count"),
        "series.ua_transform.fraction_share": (
            total("sums", "series.ua_transform.fraction_coeffs") / coeffs if coeffs else 0.0,
            "ratio"),
        "exactalg.rf_add.max_den_degree": (
            extreme("maxes", "exactalg.rf_add.max_den_degree", max, 0), "degree"),
        "exactalg.reduce.cancelled_degree": (
            total("sums", "exactalg.reduce.cancelled_degree"), "degree"),
        "exactalg.num_max_bits": (extreme("maxes", "exactalg.num_max_bits", max, 0), "bits"),
        "oracle.coverage_min": (extreme("mins", "oracle.coverage_min", min, 0.0), "ratio"),
        "schur.schur_eval.det_rows_max": (
            extreme("maxes", "schur.schur_eval.det_rows_max", max, 0), "count"),
        "laurent.closed_form_share": (closed_incl / op_time if op_time else 0.0, "ratio"),
        "cli.cache_hit_ratio": (
            total("sums", "cli.load_cached.hits") / loads if loads else 0.0, "ratio"),
        "cli.store_cached.bytes": (
            sum(t["cache_bytes"] for t in totals) / n, "bytes"),
        "trace.wall_s": (statistics.median(p["wall_s"] for p in traced), "s"),
        "trace.unattributed_share": (1.0 - self_sum / op_time if op_time else 0.0, "ratio"),
        "trace_overhead": (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0, "ratio"),
    })
    missing = set(totals[0]["missing_layers"])
    uncounted = {layer for t in totals for layer in t["uncounted_layers"]}
    for layer in missing:
        for stat in ("calls", "self_s"):
            metrics.pop("%s.%s" % (layer, stat), None)
    for name, layers in COUNTED_BY.items():
        if uncounted.intersection(layers):
            del metrics[name]
    shares = {layer: metrics["%s.self_s" % layer][0] / op_time
              for layer in tracing.SPAN_LAYERS if op_time and layer not in missing}
    first = totals[0]
    notes = {
        "missing": first["missing"],
        "hook_errors": sorted({h for t in totals for h in t["hook_errors"]}),
        "spans": first["spans"],
        "passes": "%d traced, %d untraced" % (n, len(plain)),
    }
    return metrics, shares, notes


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["ops"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "sl2hilb", "__init__.py")):
        print("error: no sl2hilb package under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    reference = load_reference()
    ops = workloads.operations(args.workload, args.seed)
    unknown = [op for op in ops if workloads.op_key(op) not in reference]
    if unknown:
        print("error: no reference for %s" % workloads.op_key(unknown[0]), file=sys.stderr)
        return 2

    k = pass_count(args.workload, args.seconds, bool(args.trace))
    tmp = os.path.join(ROOT, ".perfbench_tmp", "run-%d" % os.getpid())
    os.makedirs(tmp)
    try:
        setups, plain, traced, failures = run_passes(
            args.workload, ops, bool(args.trace), k, tmp, reference)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(ops) * (len(plain) + len(traced))
    failed = len(failures)
    print("workload %s, seed %d: %d operations per pass, K = %d passes"
          % (args.workload, args.seed, len(ops), k))
    if args.trace:
        metrics, shares, notes = per_layer(plain, traced)
        print("traced passes: %s; %d spans per pass"
              % (notes["passes"], notes["spans"]))
        if notes["missing"]:
            print("missing layers: %s" % ", ".join(notes["missing"]))
        if notes["hook_errors"]:
            print("counter hooks that failed: %s" % ", ".join(notes["hook_errors"]))
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print("  self share %-26s %6.2f%%" % (layer, 100 * share))
    else:
        metrics, notes, host = end_to_end(ops, setups, plain)
        print(host)
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %-6s %s" % (name, value, unit, notes.get(name, "")))
    print("error_rate %d/%d = %.4g (failed operations / attempted)"
          % (failed, attempted, failed / attempted))
    for op, err in failures[:5]:
        print("  failed: %s %s" % (workloads.op_key(op)[:120], err or "output differs"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
