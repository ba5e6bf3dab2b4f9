#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the root of a plexus checkout:

    python3 perfbench/run.py --workload tcp-bulk --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload BENCHMARK.json lists, one after the
other. The program is compiled into .bench_build/ at the checkout root, with
the Go build cache and temporary files kept there too, so nothing outside the
checkout is read or written besides the Go toolchain itself. All arguments
pass through to the program, and its exit status becomes this script's.
Without the plexus sources beside perfbench/ the build fails and the script
exits with status 2 before running anything.
"""

import json
import os
import subprocess
import sys


def run(binary, args, root, env):
    proc = subprocess.Popen([binary] + args, cwd=root, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "go.mod")) and
            os.path.isdir(os.path.join(root, "internal"))):
        sys.stderr.write("perfbench: no plexus sources beside perfbench/; "
                         "run from the root of a full checkout\n")
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    args = sys.argv[1:]
    i = args.index("--workload") + 1 if "--workload" in args else 0
    if not 0 < i < len(args) or args[i] != "all":
        return run(binary, args, root, env)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in names:
        status = run(binary, args[:i] + [name] + args[i + 1:], root, env) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
