#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload scale32 --seed 1 --trace 1
    python3 perfbench/run.py --list        # metric catalogue, checked against BENCHMARK.json
    python3 perfbench/run.py --self-test   # digests at 1 and 2 domains, and against the reference

The script builds perfbench/bench.exe with dune from the checkout's
sources, then runs it with the given arguments from the root of the
checkout, where it reads the reference digests in
perfbench/reference.tsv.  The last line a measuring run prints is its
JSON result.  Any build or check failure exits non-zero.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build(env):
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def commit_of_checkout():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def check_listing(listing):
    """The catalogue printed by --list must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = [line.split("\t") for line in listing.splitlines()]
    found = {
        kind: sorted((r[1], r[2]) for r in rows if r[0] == kind)
        for kind in ("end_to_end", "per_layer")
    }
    found["workloads"] = sorted(r[1] for r in rows if r[0] == "workload")
    wanted = {
        kind: sorted((m["name"], m["unit"]) for m in spec[kind])
        for kind in ("end_to_end", "per_layer")
    }
    wanted["workloads"] = sorted(w["name"] for w in spec["workloads"])
    ok = True
    for key in ("end_to_end", "per_layer", "workloads"):
        if found[key] != wanted[key]:
            ok = False
            sys.stderr.write(
                "perfbench: %s differ from BENCHMARK.json\n  catalogue: %s\n  BENCHMARK.json: %s\n"
                % (key, found[key], wanted[key])
            )
    return ok


def main(argv):
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    env["BENCH_COMMIT"] = commit_of_checkout()
    cmd = [EXE] + argv
    if "--list" in argv:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        return 0 if check_listing(proc.stdout) else 1
    measuring = not ({"--self-test", "--record"} & set(argv))
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S if measuring else None
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
