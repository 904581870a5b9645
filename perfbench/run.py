#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The binary is built in release mode
into $CARGO_TARGET_DIR (default: perfbench/target). The last line of
standard output is the result object; with --trace 0 this wrapper adds
`peak_rss_mb`, the peak resident memory of the workload's process, taken
from the kernel's accounting of that process when it exits.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "perfbench")


def run(exe, args):
    """Runs the binary; returns (exit code, stdout text, peak RSS in KiB)."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, out.decode(), usage.ru_maxrss


def main():
    args = sys.argv[1:]
    exe = build()
    if exe is None:
        return 1
    code, out, rss_kib = run(exe, args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"run.py: benchmark exited with code {code}", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    if "--trace" in args and args[args.index("--trace") + 1] == "0":
        result["metrics"]["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
