#!/usr/bin/env python3
"""Build the library and the benchmark program from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table04|now_pdes|mpp_tree_faults \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ (Release,
CMake).  The metrics to report, with their units, come from BENCHMARK.json
at the repository root: its end_to_end list with --trace 0, its per_layer
list with --trace 1.  Build output goes to stderr; stdout carries only the benchmark's
own lines, the last of which is the JSON result.  Exits non-zero without a
result when the sources are missing or the build fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table04", "now_pdes", "mpp_tree_faults")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when ROOT is itself a git checkout, else a digest of
    the sources the benchmark builds."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if pathlib.Path(top).resolve() == ROOT:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.strip()
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--",
                                    "src", "perfbench"], capture_output=True, text=True,
                                   check=True).stdout.strip()
            return head + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def requested_metrics(trace):
    """BENCHMARK.json's metric list for this mode, as NAME:UNIT,..."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = spec["per_layer" if trace else "end_to_end"]
        return ",".join(f"{m['name']}:{m['unit']}" for m in metrics)
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    metrics = requested_metrics(args.trace)

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--metrics", metrics, "--commit", source_id()]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
