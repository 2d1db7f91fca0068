#!/usr/bin/env python3
"""End-to-end benchmark of WearScope (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_standard --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Run it from the root of a checkout.  It builds perfbench/ (which compiles
the library from src/) into .bench_build/, generates the standard-preset
capture from --seed several times (the median is the set-up time), runs the
workload's measured phase in a process of its own and prints every metric
by name and unit.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "wearscope_perfbench"

# Workload -> bundle writer its set-up uses.  fed_cover streams the bundle
# through load_partition_feed, which reads only what the library's default
# writer produces.
WORKLOADS = {
    "batch_standard": "v3",
    "ingest_serve_standard": "v3",
    "fed_cover_standard": "default",
}
SETUP_REPS = 3
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 165  # everything after the build, within the 180 s limit


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; a no-op when up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BINARY.parent / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BINARY.parent),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BINARY.parent), "--target",
                  BINARY.name, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=deadline - time.monotonic()
                                    ).returncode
            except subprocess.TimeoutExpired:
                raise BenchError("build timed out")
            if rc != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run(cmd, deadline):
    """Runs `cmd` to completion (killed at `deadline`) and returns stdout."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd[:2]))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return proc.stdout


def bundle_digest(path):
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_workload(workload, seed, seconds, traced, spec):
    deadline = time.monotonic() + RUN_BUDGET_S
    work = BUILD / "work" / f"{workload}-{seed}-{os.getpid()}"
    results = BUILD / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        attempted, failed, failures = 0, 0, []

        # Set-up: generate and save the capture several times; the median
        # is setup_s, and every copy must be byte-identical (same seed).
        setup_walls, setups, digest = [], [], None
        bundle = work / "bundle0"
        for k in range(SETUP_REPS):
            out_dir = work / f"bundle{k}"
            t0 = time.perf_counter()
            line = run([str(BINARY), "setup", "--seed", str(seed),
                        "--out", str(out_dir), "--format",
                        WORKLOADS[workload]], deadline).strip().splitlines()[-1]
            setup_walls.append(time.perf_counter() - t0)
            setups.append(json.loads(line))
            attempted += 1
            d = bundle_digest(out_dir)
            if digest is None:
                digest = d
                bundle_bytes = sum(f.stat().st_size for f in out_dir.iterdir())
            else:
                attempted += 1
                if d != digest:
                    failed += 1
                    failures.append("setup: same seed gave different bundles")
                shutil.rmtree(out_dir)

        result_file = work / "measure.json"
        tag = f"{workload}-seed{seed}-trace{int(traced)}"
        sys.stdout.write(run(
            [str(BINARY), "measure", "--workload", workload,
             "--bundle", str(bundle), "--work", str(work),
             "--seconds", str(seconds), "--trace", str(int(traced)),
             "--result", str(result_file),
             "--spans", str(results / f"{tag}.spans.jsonl")], deadline))
        measured = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted += measured["attempted"]
    failed += measured["failed"]
    failures += measured["failures"]
    metrics = dict(measured["metrics"])
    metrics["setup_s"] = statistics.median(setup_walls) + measured["setup_s"]
    for name in ("simnet.simulate_s", "trace.save_bundle_s"):
        metrics[name] = statistics.median(s[name] for s in setups)
    metrics["trace.bundle_bytes"] = bundle_bytes

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise BenchError("metrics missing from BENCHMARK.json: " +
                         ", ".join(unknown))
    # A layer the workload never calls did no work: its per-layer metrics
    # read 0 (only filled in for the traced run, which reports them).
    if traced:
        for m in spec["per_layer"]:
            metrics.setdefault(m["name"], 0.0)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError("not measured: " + ", ".join(missing))

    provenance = dict(measured["provenance"], seed=seed, seconds=seconds,
                      traced=bool(traced), setup_reps=SETUP_REPS)
    print(f"== {workload}  " + "  ".join(f"{k}={v}" for k, v in
                                         provenance.items()))
    if not provenance["optimized"]:
        log("warning: the benchmark build is not optimized")
    for name in sorted(metrics, key=lambda n: (n not in
                                               {m["name"] for m in spec["end_to_end"]}, n)):
        print(f"  {name:32s} {metrics[name]:>16.6g} {units[name]}")
    if metrics.get("wall_s") and metrics.get("trace.records"):
        print(f"  {'(records per second)':32s} "
              f"{metrics['trace.records'] / metrics['wall_s']:>16.6g} 1/s")
    for f in failures:
        print(f"  FAILED: {f}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (results / f"{tag}.json").write_text(json.dumps(
        dict(result, all_metrics=metrics, provenance=provenance,
             failures=failures, rep_walls=measured["rep_walls"],
             rep_peaks_mb=measured["rep_peaks_mb"]), indent=2) + "\n")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="minimum measured time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        # The compiler's and the benchmark's temporary files stay inside
        # the checkout too.
        (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(BUILD / "tmp")
        build()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec)
                   for w in names}
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
