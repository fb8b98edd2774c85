"""One pass of a workload in a fresh interpreter.

    python3 worker.py ROOT CACHE_DIR

reads {"t0", "ops", "trace"} as JSON on stdin and writes one JSON object on
stdout.  `t0` is the parent's time.monotonic() just before it started this
interpreter, so set-up time covers interpreter start, importing sl2hilb and
sl2hilb.cli from ROOT/src, and creating the fresh cache directory.  With no
ops the worker only reports its set-up time and a calibration sample taken
right after it.
"""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import sys
import time
from fractions import Fraction
from time import perf_counter

import tracing

# Host-speed samples per pass, at fixed operation indices, so that their
# number does not depend on how fast the code under test runs.
CAL_PER_PASS = 8


def _frac(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _int(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c if isinstance(c, int) else _frac(c)


def canonical(op, result):
    """The JSON fields the reference holds for this operation."""
    kind = op[0]
    if kind == "series":
        return {"numerator": [_int(c) for c in result.num.c],
                "denominator": [list(f) for f in sorted(result.den.factors.items())]}
    if kind == "gammas":
        return {"gamma": [_frac(g) for g in result.gamma],
                "a_invariant": result.a_invariant,
                "pole_order": result.pole_order,
                "methods": list(result.methods)}
    if kind == "closed":
        return _frac(result)
    return result  # cli: [exit code, stdout]


def run_op(sl2hilb, op, reps):
    """Call the package the way a user would; names are looked up per call."""
    kind = op[0]
    if kind == "series":
        return sl2hilb.hilbert_series(reps[op[1]])
    if kind == "gammas":
        return sl2hilb.gammas(reps[op[1]])
    if kind == "closed":
        return getattr(sl2hilb.laurent, op[1])(reps[op[2]])
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sl2hilb.cli.main(list(op[1]))
        return [code, out.getvalue()]
    raise ValueError("unknown operation %r" % (op,))


def calibrate():
    """Seconds for a fixed pure-Python loop of big-integer and Fraction work."""
    t0 = perf_counter()
    acc, x, table = Fraction(0), 1, {}
    for i in range(1, 6000):
        acc += Fraction(i * 7919 % 1013, i)
        x = (x * 3 + i) % (1 << 400)
        table[i % 97] = table.get(i % 97, 0) + x
    return perf_counter() - t0


def peak_rss_mb():
    """High-water resident memory of this process image, from VmHWM.

    Unlike getrusage's ru_maxrss, VmHWM starts afresh at exec, so the memory
    of the parent that started this interpreter does not count.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(sl2hilb, ops, trace, cache_dir):
    tracer = None
    if trace:
        for info in pkgutil.iter_modules(sl2hilb.__path__, "sl2hilb."):
            importlib.import_module(info.name)
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # Reps of library operations are parsed before the timed region; CLI
    # requests parse their own spec.
    reps = {op[-1]: sl2hilb.parse_rep(op[-1]) for op in ops if op[0] != "cli"}
    results, latencies, errors, cal = [], [], [], []
    cal_at = set(range(0, len(ops), -(-len(ops) // CAL_PER_PASS)))
    t_start = perf_counter()
    for i, op in enumerate(ops):
        # Host speed is sampled between operations, outside their timings.
        if i in cal_at:
            cal.append(calibrate())
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            res, err = run_op(sl2hilb, op, reps), None
        except Exception as exc:  # a failing operation is counted, not fatal
            res, err = None, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        results.append(res)
        errors.append(err)
    cal.append(calibrate())
    report = {
        "wall_s": perf_counter() - t_start - sum(cal),
        "peak_rss_mb": peak_rss_mb(),
        "latencies": latencies,
        "cal": cal,
    }
    # Outputs are put in canonical form after the timed region.
    outputs = []
    for i, (op, res) in enumerate(zip(ops, results)):
        out = None
        if errors[i] is None:
            try:
                out = canonical(op, res)
            except Exception as exc:
                errors[i] = "%s: %s" % (type(exc).__name__, exc)
        outputs.append(out)
    report["outputs"] = outputs
    report["errors"] = errors
    if tracer is not None:
        trace_report = tracer.report()
        trace_report["op_time_s"] = sum(latencies)
        trace_report["cache_bytes"] = sum(
            os.path.getsize(os.path.join(cache_dir, name))
            for name in os.listdir(cache_dir))
        report["trace"] = trace_report
    return report


def main():
    root, cache_dir = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    import sl2hilb
    import sl2hilb.cli
    os.makedirs(cache_dir)
    t_ready = time.monotonic()
    spec = json.load(sys.stdin)
    # The calibration right after set-up gives the host speed it ran at.
    report = {"setup_s": t_ready - spec["t0"], "setup_cal": calibrate()}
    if spec["ops"]:
        report.update(run_pass(sl2hilb, spec["ops"], spec["trace"], cache_dir))
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
