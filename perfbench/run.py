#!/usr/bin/env python3
"""Builds the SELECT benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload publish-steady --seed 1 --seconds 10 --trace 0

`--trace 0` runs the plain binary and prints the end-to-end metrics;
`--trace 1` runs the traced binary (counting allocator, spans) and prints
the per-layer metrics, writing the spans as JSON lines under the build
directory. The flag only picks the binary; the other arguments pass on. The last line of standard output is the result JSON object.
The build goes to $CARGO_TARGET_DIR, or `.bench_build` at the repository
root when that is unset.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flag(args, name):
    """Value following `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def without(args, name):
    """`args` with every `name VALUE` pair removed."""
    out, i = [], 0
    while i < len(args):
        if args[i] == name:
            i += 2
        else:
            out.append(args[i])
            i += 1
    return out


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def commit():
    """The git commit when run in a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "none (not a git checkout); source-sha256=" + h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    trace = flag(args, "--trace")
    if trace not in ("0", "1"):
        print("perfbench: --trace 0|1 is required", file=sys.stderr)
        return 2
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr: stdout ends with the result line.
        built = subprocess.run(build, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    exe = os.path.join(target, "release", "perfbench-traced" if trace == "1" else "perfbench")
    extra = ["--rustc", rustc_version(), "--commit", commit()]
    if trace == "1":
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.jsonl"
        extra += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    sys.stdout.flush()
    return subprocess.run([exe] + without(args, "--trace") + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
