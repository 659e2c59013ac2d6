#!/usr/bin/env python3
"""Build and run one workload of the Centaur benchmark; print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository. The script builds
the `perfbench` package in release mode (into $CARGO_TARGET_DIR, default
`.bench_build` at the repository root), runs it with the thread budget
pinned (CENTAUR_NUM_THREADS=1, every other CENTAUR_* knob cleared so the
backends stay at their defaults), stamps the result with a host
fingerprint, stores the full record under `perfbench/results/`, and prints
as its last line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones (layers a workload never
reaches report 0). A run whose correctness checks fail prints
`"correct": false` with no metrics and exits with status 1.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
# Share of CPU time taken by the hypervisor above which a run is flagged.
STEAL_FLAG = 0.05


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with status {done.returncode}")
    binary = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no binary at {binary}")
    return binary


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    fields = (read("/proc/stat") or "cpu 0").splitlines()[0].split()[1:]
    values = [int(v) for v in fields]
    return (values[7] if len(values) > 7 else 0), sum(values)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so records from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    patterns = ["Cargo.toml", "crates/*/Cargo.toml", "crates/**/*.rs",
                "vendor/*/Cargo.toml", "vendor/**/*.rs",
                "perfbench/Cargo.toml", "perfbench/src/*.rs"]
    files = sorted({p for pat in patterns
                    for p in glob.glob(os.path.join(ROOT, pat), recursive=True)})
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def fingerprint(info, threads_env):
    host = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "unknown",
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "profile": "release (lto=thin)",
        "kernel_backend": info.get("kernel_backend"),
        "sparse_backend": info.get("sparse_backend"),
        "thread_budget": f"CENTAUR_NUM_THREADS={threads_env}; "
                         + ("one caller thread" if info.get("workload") == "dense-offline"
                            else "generator thread + 1 replica worker"),
    }
    # Results are comparable only when all of the above match; the code
    # revision and the seed are what a comparison varies.
    key = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]
    return dict(host,
                comparable_key=key,
                git_revision=command_output(["git", "rev-parse", "HEAD"]) or "none",
                source_digest=source_digest(),
                seed=info.get("seed"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    # The binary rejects unknown workloads; it also runs `sparse-fifo`, a
    # diagnostic workload BENCHMARK.json leaves out (see README.md).
    end_to_end, per_layer = load_spec()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results, f"{stem}.spans.csv")]
    threads_env = "1"
    env = {k: v for k, v in os.environ.items() if not k.startswith("CENTAUR_")}
    env["CENTAUR_NUM_THREADS"] = threads_env
    steal_before, total_before = cpu_jiffies()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    steal_after, total_after = cpu_jiffies()
    # CPU time the hypervisor gave to other guests while this run wanted it.
    steal = (steal_after - steal_before) / max(total_after - total_before, 1)
    if done.returncode != 0:
        fail(f"benchmark exited with status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    raw = json.loads(lines[-1])
    info = raw["info"]

    wanted = per_layer if args.trace else end_to_end
    metrics = raw["metrics"]
    extra = [name for name in metrics if name not in wanted]
    if extra:
        fail(f"benchmark reported metrics BENCHMARK.json does not declare: {extra}")
    if not args.trace:
        missing = [name for name in wanted if name not in metrics]
        if missing:
            fail(f"benchmark did not report {missing}")
    # A layer the workload never reaches (the queue on the offline
    # workload) has no spans: it reports 0.
    units = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        for m in json.load(f)["per_layer" if args.trace else "end_to_end"]:
            units[m["name"]] = m["unit"]
    ordered = {name: metrics.get(name, {"value": 0, "unit": units[name]}) for name in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": raw["correct"], "attempted": raw["attempted"],
        "failed": raw["failed"], "metrics": ordered,
        "fingerprint": fingerprint(info, threads_env),
        "host_steal_frac": steal,
        "flags": info.get("flags", []) + ([f"host stole {steal:.1%} of CPU time during the run"]
                                          if steal > STEAL_FLAG else []),
        "problems": info.get("problems", []),
        "notes": info.get("notes", []),
    }
    with open(os.path.join(results, f"{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for flag in record["flags"]:
        log(f"FLAG: {flag}")
    for problem in record["problems"]:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps({"fingerprint": record["fingerprint"], "flags": record["flags"]}))

    result = {"correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": ordered if raw["correct"] else {}}
    print(json.dumps(result), flush=True)
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
