#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the query service.

    python3 perfbench/run.py --workload vpic-read --seed 1 --seconds 15

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the library from src/) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs only rebuild what changed.  The benchmark binary's
last stdout line is the JSON result; build output goes to stderr.  See
README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("vpic-read", "vpic-write", "boss-catalog")
RUN_TIMEOUT_S = 175


def build(out: Path) -> Path:
    build_dir = out / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir),
                    "--target", "pdc_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    exe = build_dir / "pdc_perfbench"
    subprocess.run([str(exe), "--selftest"], stdout=sys.stderr, check=True)
    return exe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: library sources not found at "
              f"{ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 1
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    try:
        exe = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(exe), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", str(out / "perfbench-run")]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the binary if it overruns.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
