"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about half a minute.  Checks that a
corrupted reference is reported as failed operations, that the seeded draws
depend on the seed argument alone, that every traced name resolves, that the
metric names match BENCHMARK.json, that a missing layer's metrics are left
out, and that the benchmark refuses to run without the package.  Exits 1 if
any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".perfbench_tmp", "selftest-%d" % os.getpid())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def copy_tree(name):
    """A throwaway checkout: a copy of perfbench/ and BENCHMARK.json."""
    tree = os.path.join(TMP, name)
    shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    return tree


def test_corrupted_reference_fails():
    tree = copy_tree("corrupted")
    os.symlink(os.path.join(ROOT, "src"), os.path.join(tree, "src"))
    path = os.path.join(tree, "perfbench", "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    ref["ops"][workloads.op_key(["closed", "gamma0", "V30"])] = "1/2"
    with open(path, "w") as fh:
        json.dump(ref, fh)
    code, result = bench("--workload", "gammas", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tree)
    assert code == 0 and result is not None, "benchmark did not report"
    assert result["failed"] > 0 and not result["correct"], result


def test_draws_depend_only_on_seed():
    script = ("import json, sys; sys.path.insert(0, %r); import workloads; "
              "print(json.dumps([workloads.operations(w, s) for w in workloads.WORKLOADS "
              "for s in (1, 2, 3)]))" % HERE)
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1], "draws change with the interpreter's hash seed"
    for w in ("series_multi", "cli"):
        draws = [workloads.operations(w, s) for s in (1, 2, 3)]
        assert draws[0] == workloads.operations(w, 1), "%s draw is not repeatable" % w
        assert draws[0] != draws[1] or draws[1] != draws[2], "%s ignores the seed" % w
    for s in range(20):
        stream = workloads.operations("cli", s)
        assert len(stream) == workloads.CLI_REQUESTS
        assert {op[1][1] for op in stream} == set(workloads.CLI_REPS), "a rep is never requested"


def test_wrapped_names_resolve():
    script = (
        "import importlib, json, pkgutil, sys; sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
        "import sl2hilb, tracing\n"
        "for m in pkgutil.iter_modules(sl2hilb.__path__, 'sl2hilb.'): importlib.import_module(m.name)\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "print(json.dumps({'missing': t.missing, 'sites': t.sites}))\n"
        % (os.path.join(ROOT, "src"), HERE))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True).stdout
    got = json.loads(out)
    assert not got["missing"], "missing layers: %s" % got["missing"]
    absent = [s for s in tracing.REQUIRED_SITES
              if s not in got["sites"]]
    assert not absent, "call sites not wrapped: %s" % absent


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = bench("--workload", "gammas", "--seed", "2", "--seconds", "1",
                             "--trace", trace)
        assert code == 0 and result and result["correct"], (trace, code, result)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, "trace %s metrics differ from BENCHMARK.json %s" % (trace, key)


def test_missing_layer_is_left_out():
    layers = {layer: {"calls": 1, "self_s": 0.1, "incl_s": 0.1}
              for layer in tracing.SPAN_LAYERS}
    report = {"layers": layers, "sums": {}, "maxes": {}, "mins": {}, "spans": 1,
              "missing": ["schur.schur_eval (sl2hilb.schur.schur_eval)"],
              "missing_layers": ["schur.schur_eval"],
              "uncounted_layers": ["cli.load_cached", "schur.schur_eval"],
              "hook_errors": {"load_cached": 1}, "op_time_s": 3.0, "cache_bytes": 1}
    metrics, _, _ = run.per_layer([{"wall_s": 1.0}], [{"wall_s": 1.1, "trace": report}])
    gone = {"schur.schur_eval.calls", "schur.schur_eval.self_s", "cli.cache_hit_ratio"}
    assert not gone & set(metrics), "reported: %s" % sorted(gone & set(metrics))
    assert "cli.load_cached.calls" in metrics and "schur.schur_eval.det_rows_max" in metrics


def test_reference_covers_every_operation():
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)["ops"]
    keys = {workloads.op_key(op) for op in workloads.all_operations()}
    assert keys == set(ref), "reference and operation list differ"


def test_refuses_without_package():
    bare = copy_tree("bare")
    code, result = bench("--workload", "series_single", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    assert code != 0 and result is None, (code, result)


def main():
    os.makedirs(TMP)
    failed = 0
    try:
        for name, fn in sorted(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                fn()
                print("PASS %s" % name)
            except AssertionError as exc:
                failed += 1
                print("FAIL %s: %s" % (name, exc))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
