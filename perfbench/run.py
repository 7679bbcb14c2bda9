#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `perfbench/target`), runs it,
and adds `peak_rss_mb`, the peak resident memory of the benchmark
process, to the end-to-end result. The last line of standard output is
the result JSON; the exit code is non-zero, and no result is printed,
when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    args = sys.argv[1:]
    trace = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("{")))
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if not trace:
        # ru_maxrss is in KiB on Linux.
        rss_mb = usage.ru_maxrss * 1024 / 1e6
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        lines.insert(-1, f"  {'peak_rss_mb':<26} {rss_mb:>14.6f} MB")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
