#!/usr/bin/env python3
"""Runs one workload of the closed-loop serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the benchmark package (its own cargo
workspace; the target directory is $CARGO_TARGET_DIR, default .bench_build),
runs the end-to-end runner `serve_loop`, and with --trace 1 also the shadow
replay `layer_probe` over the batches the traced run's writer chose.  Scratch
files (WAL directories, spans, batch sizes) go to .bench_out/.

Diagnostic lines start with '#'; the last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The targets together get this long after the build; a run must end
# within 180 s.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir, bins):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    for b in bins:
        cmd += ["--bin", b]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def run(binary, args, deadline):
    """Runs one target; echoes its diagnostics and returns its JSON result."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{os.path.basename(binary)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    bins = ["serve_loop"] + (["layer_probe"] if a.trace else [])
    build(target_dir, bins)
    exe = {b: os.path.join(target_dir, "release", b) for b in bins}
    deadline = time.monotonic() + RUN_BUDGET_S

    common = ["--workload", a.workload, "--seed", str(a.seed), "--out-dir", out_dir]
    flushes = os.path.join(out_dir, f"flushes-{a.workload}-{a.seed}-{os.getpid()}.txt")
    result = run(exe["serve_loop"], common + ["--seconds", str(a.seconds),
                                              "--trace", str(a.trace),
                                              "--flushes", flushes], deadline)
    if a.trace:
        try:
            probe = run(exe["layer_probe"], common + ["--flushes", flushes], deadline)
        finally:
            if os.path.exists(flushes):
                os.remove(flushes)
        metrics = result["metrics"]
        metrics.update(probe["metrics"])
        # Serving flush cycle per engine-layer apply of the same batches.
        metrics["serve.flush_overhead_x"] = {
            "value": metrics["serve.flush_cycle_us"]["value"]
            / max(metrics["core.apply_batch_us"]["value"], 1e-9),
            "unit": "x",
        }
        result["correct"] = result["correct"] and probe["correct"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
