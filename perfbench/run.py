#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The engine and the benchmark executable are
built with dune first; build output goes to stderr. Any failure (no engine
sources, a failed build, a failed workload) exits non-zero without printing
a result. The executable's last stdout line is the result JSON.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pbench.exe")
# Workloads that run on one domain are pinned to one CPU, so the scheduler
# cannot migrate them mid-run; multi-domain workloads keep every CPU.
SINGLE_DOMAIN = ("deep-dwarfdump", "triage-all")


def lib_lines_and_digest():
    """Line count of lib/ (.ml and .mli) and a digest of those sources."""
    lines = 0
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "lib")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".ml", ".mli")):
                path = os.path.join(base, name)
                with open(path, "rb") as f:
                    data = f.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def revision():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("perfbench: engine sources (dune-project, lib/) not found\n")
        return 2
    # the shared dune cache lives outside the checkout: keep it out
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/pbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 3
    # the benchmark measures the runtime's defaults: no GC tuning
    env = {k: v for k, v in os.environ.items()
           if k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else ""
    cpus = sorted(os.sched_getaffinity(0))
    if workload in SINGLE_DOMAIN:
        cpus = cpus[-1:]
    lines, digest = lib_lines_and_digest()
    print(f"# lib: {lines} .ml/.mli lines, source digest {digest}, "
          f"git revision {revision()}; cpus {cpus}", flush=True)
    return subprocess.run([EXE] + args, env=env, cwd=ROOT,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus)).returncode


if __name__ == "__main__":
    sys.exit(main())
