#!/usr/bin/env python3
"""Build the E-TSN benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload paper_sweep|plant_churn|sim_soak \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository.  The first call configures and builds
the benchmark (the library sources under src/ plus perfbench/src/) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild only what changed.  Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.

BENCHMARK.json is the one list of metric names and units.  The binary
reports the metrics a workload measures; this script puts them in the
declared order, fills a per-layer metric the workload does not exercise
with 0, and refuses a result with a missing end-to-end metric, an
undeclared metric or a unit that differs from the declared one.
"""
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--parallel", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "etsn_perfbench")


def complete(result, declared, fill_missing):
    """Orders `result`'s metrics as declared; None when they do not match."""
    got = result["metrics"]
    problems = [f"undeclared metric {n}" for n in got
                if n not in {d["name"] for d in declared}]
    metrics = {}
    for d in declared:
        m = got.get(d["name"])
        if m is None and not fill_missing:
            problems.append(f"missing metric {d['name']}")
        elif m is not None and m["unit"] != d["unit"]:
            problems.append(f"{d['name']} in {m['unit']}, declared {d['unit']}")
        else:
            metrics[d["name"]] = {"value": m["value"] if m else 0,
                                  "unit": d["unit"]}
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if problems:
        return None
    return dict(result, metrics=metrics)


def main():
    # A terminated run raises SystemExit inside subprocess.run, which then
    # kills the benchmark binary and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"error: building the benchmark failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or "--workload" not in sys.argv or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    traced = "--trace" in sys.argv and \
        sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]
    result = complete(json.loads(lines[-1]),
                      spec["per_layer" if traced else "end_to_end"],
                      fill_missing=traced)
    for line in lines[:-1]:
        print(line)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
