#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The first run configures and builds a Release
tree of the library and rumor_cli, then the perfbench driver, under
.bench_build/; later runs only re-check the build.

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it runs
the same trials untraced and then through the tracing wrappers and prints the
per-layer split, and every cell it ran is re-fingerprinted with
`rumor_cli fingerprint`, which must agree. `--workload all` runs every
workload both ways and prints the tables (no result line).

Output: a table of every metric with its unit, the `rumor_cli hwinfo` stamp,
then, as the last line, {"correct", "attempted", "failed", "metrics"} with
the metrics named in BENCHMARK.json. Exits non-zero without a result line when
the build fails, the build is sanitized, or the driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RUMOR_BUILD = os.path.join(BUILD, "rumor")
DRIVER_BUILD = os.path.join(BUILD, "perfbench")
RUMOR_CLI = os.path.join(RUMOR_BUILD, "tools", "rumor_cli")
DRIVER = os.path.join(DRIVER_BUILD, "perfbench")
WORKLOADS = ["em_churn", "em_trickle", "torus_pool", "serve_mix"]
THREADS = max(1, min(4, os.cpu_count() or 1))
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run(cmd, timeout, what):
    """Runs cmd to completion (killed and reaped on timeout); returns stdout."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{what} timed out after {timeout}s") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"{what} failed with exit code {proc.returncode}")
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        raise BenchError("no repository sources here: run from the repository root")
    jobs = str(THREADS)
    if not os.path.isfile(os.path.join(RUMOR_BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", RUMOR_BUILD, "-DCMAKE_BUILD_TYPE=Release",
             "-DRUMOR_BUILD_TESTS=OFF", "-DRUMOR_BUILD_BENCHES=OFF",
             "-DRUMOR_BUILD_EXAMPLES=OFF"], 300, "configuring the repository")
    run(["cmake", "--build", RUMOR_BUILD, "-j", jobs, "--target", "rumor", "rumor_cli"], 900,
        "building the repository")
    if not os.path.isfile(os.path.join(DRIVER_BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", DRIVER_BUILD,
             "-DCMAKE_BUILD_TYPE=Release", f"-DRUMOR_BUILD_DIR={RUMOR_BUILD}"], 300,
            "configuring perfbench")
    run(["cmake", "--build", DRIVER_BUILD, "-j", jobs], 600, "building perfbench")


def hwinfo():
    info = json.loads(run([RUMOR_CLI, "hwinfo"], 30, "rumor_cli hwinfo").strip())
    if info.get("sanitizer") != "none":
        raise BenchError(f"refusing to measure a sanitized build ({info.get('sanitizer')})")
    return info


def fingerprint(cell):
    """`rumor_cli fingerprint` of one cell, for the cross-check."""
    cmd = [RUMOR_CLI, "fingerprint", "--scenario", cell["scenario"]]
    for name, value in cell["params"].items():
        cmd += [f"--{name}", value]
    cmd += ["--clock-rate", repr(cell["clock_rate"]), "--trials", str(cell["trials"]),
            "--seed", str(cell["seed"]), "--threads", str(THREADS)]
    out = run(cmd, DRIVER_TIMEOUT_S, "rumor_cli fingerprint")
    return json.loads(out.strip().splitlines()[-1])["sha256"]


def measure(workload, seed, seconds, trace):
    out = run([DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0",
               # Relative, so the serve socket path stays within sockaddr_un's limit.
               "--scratch", os.path.relpath(BUILD, ROOT)],
              DRIVER_TIMEOUT_S, f"perfbench {workload}")
    report = json.loads(out.strip().splitlines()[-1])
    if trace:
        for cell in report["cells"]:
            report["attempted"] += 1
            if fingerprint(cell) != cell["sha256"]:
                report["failed"] += 1
                report["failures"].append(
                    f"{cell['scenario']} seed {cell['seed']}: fingerprint differs from rumor_cli")
    return report


def print_table(workload, trace, report, info):
    kind = "traced per-layer" if trace else "end-to-end"
    print(f"== {workload} ({kind}) ==")
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g}  {m['unit']}")
    fail_frac = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"  {'fail_frac':28s} {fail_frac:>16.6g}  ratio "
          f"({report['failed']} of {report['attempted']} operations)")
    for key, text in report["notes"].items():
        print(f"  note {key}: {text}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    print("  hw_info: " + json.dumps(info, sort_keys=True))


def result_line(report, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        measured = report["metrics"].get(m["name"])
        if measured is None and not trace:
            raise BenchError(f"driver did not measure end-to-end metric {m['name']}")
        # A per-layer metric of a layer this workload does not exercise reads 0.
        value = measured["value"] if measured else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        build()
        info = hwinfo()
        if args.workload == "all":
            for workload in WORKLOADS:
                for trace in (False, True):
                    print_table(workload, trace,
                                measure(workload, args.seed, args.seconds, trace), info)
            return 0
        trace = args.trace == 1
        report = measure(args.workload, args.seed, args.seconds, trace)
        print_table(args.workload, trace, report, info)
        line = result_line(report, trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
