#!/usr/bin/env python3
"""originscan benchmark entry point.

Run from the repository root:

  python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py compare A.json B.json

A run builds the library, the `originscan` CLI and the driver from
source into .bench_build/ (RelWithDebInfo; incremental after the first
run), runs the driver, and passes its output through: "#" lines first,
then one JSON result line. The result, stamped with the host shape, is
also saved under .bench_out/results/. Exits non-zero without a result
line when the sources are missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
DRIVER = os.path.join(BUILD_DIR, "perfbench")
CLI = os.path.join(BUILD_DIR, "originscan", "tools", "originscan")
RUN_TIMEOUT_S = 170
STAMP_KEYS = ("nproc", "cpu_model", "build_type", "compiler")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        die("run from the root of an originscan checkout (no src/ here)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    # Keep the compiler's and the driver's temporary files in the checkout.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            die("configure failed", 1)
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die("build failed", 1)


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "tools", BENCH_DIR]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def load_benchmark():
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def run(args):
    build(["perfbench", "originscan_cli"])
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_commit(), "--originscan", CLI,
               "--out-dir", OUT_DIR]
    if args.rate is not None:
        command += ["--rate", str(args.rate)]
    # The driver leads its own process group (it forks servers and
    # workers), so a timeout can stop every process it started.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("driver exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or lines[-1].startswith("#"):
        sys.stdout.write(stdout)
        die("driver failed (exit %d)" % proc.returncode, 1)
    result = json.loads(lines[-1])
    stamp = {}
    for line in lines:
        if line.startswith("# host "):
            stamp = json.loads(line[len("# host "):])
    spec = load_benchmark()
    declared = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(declared):
        sys.stdout.write(stdout)
        die("metrics differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ set(declared)), 1)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    saved = os.path.join(OUT_DIR, "results", "%s-s%d-t%d.json" % (
        args.workload, args.seed, args.trace))
    with open(saved, "w") as handle:
        json.dump({"host": stamp, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace,
                   "result": result}, handle, indent=1)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


def compare(paths):
    """Prints metric ratios of B over A; refuses different host shapes."""
    docs = []
    for path in paths:
        with open(path) as handle:
            docs.append(json.load(handle))
    a, b = docs
    for key in STAMP_KEYS:
        if a["host"].get(key) != b["host"].get(key):
            die("refusing to compare results from different host shapes: "
                "%s %r vs %r" % (key, a["host"].get(key), b["host"].get(key)))
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        die("refusing to compare different workloads or run kinds")
    for name, metric in sorted(a["result"]["metrics"].items()):
        other = b["result"]["metrics"].get(name)
        if other is None:
            print("%-44s missing in %s" % (name, paths[1]))
            continue
        ratio = other["value"] / metric["value"] if metric["value"] else 0.0
        print("%-44s %14.6g -> %14.6g %-6s x%.4f" % (
            name, metric["value"], other["value"], metric["unit"], ratio))
    return 0


def check_benchmark(spec, links):
    """Problems with BENCHMARK.json and the layer links, as strings."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append("BENCHMARK.json keys %s" % sorted(spec))
        return problems
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    if not 2 <= len(workloads) <= 8:
        problems.append("need 2..8 workloads")
    if not 1 <= len(e2e) <= 16:
        problems.append("need 1..16 end-to-end metrics")
    if not 1 <= len(layer) <= 128:
        problems.append("need 1..128 per-layer metrics")
    if not isinstance(spec["run_seconds"], int) or not (
            1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    names = workloads + e2e + layer
    for name in names:
        if not NAME_RE.match(name):
            problems.append("bad name %r" % name)
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append("workload %r needs one-line name/why" % w.get("name"))
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append("end-to-end %r keys" % m["name"])
        elif not 0 < m["bound"] <= 0.25:
            problems.append("bound of %r outside (0, 0.25]" % m["name"])
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append("per-layer %r keys" % m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.match(m["unit"]) or m["better"] not in ("higher",
                                                                 "lower"):
            problems.append("unit/better of %r" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    for path in spec["paths"]:
        if not re.match(r"^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$", path) or (
                ".." in path.split("/")):
            problems.append("bad path %r" % path)
    for arg in spec["command"]:
        if arg.startswith("/") or ".." in arg.split("/"):
            problems.append("command argument %r leaves the checkout" % arg)
    # Every per-layer metric says which end-to-end metric it should move
    # on which workload, and names only declared ones.
    if sorted(links) != sorted(layer):
        problems.append("layers.json and per_layer differ: %s" % sorted(
            set(links) ^ set(layer)))
    for name, link in links.items():
        for metric in link["moves"]:
            if metric not in e2e:
                problems.append("%s moves undeclared %r" % (name, metric))
        for workload in link["on"]:
            if workload not in workloads:
                problems.append("%s names undeclared workload %r" % (
                    name, workload))
        # A layer no kept workload reaches has both lists empty.
        if bool(link["moves"]) != bool(link["on"]):
            problems.append("%s has a half-empty link" % name)
    return problems


def self_test():
    spec = load_benchmark()
    with open(os.path.join(BENCH_DIR, "layers.json")) as handle:
        links = json.load(handle)["links"]
    problems = check_benchmark(spec, links)
    with open(os.path.join(BENCH_DIR, "README.md")) as handle:
        readme = handle.read()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if "`%s`" % metric["name"] not in readme:
            problems.append("README.md does not describe %s" % metric["name"])
    # The checker must catch what it claims to catch.
    broken = json.loads(json.dumps(spec))
    broken["per_layer"][0]["name"] = "bad name!"
    broken["end_to_end"][0]["bound"] = 0.5
    bad_links = dict(links)
    names = iter(bad_links)
    bad_links[next(names)] = {"moves": ["nope"], "on": ["nowhere"]}
    bad_links[next(names)] = {"moves": ["wall_s"], "on": []}
    if len(check_benchmark(broken, bad_links)) < 5:
        problems.append("check_benchmark missed a planted error")
    for problem in problems:
        print("FAIL:", problem)
    build(["perfbench_test"])
    tests = subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")])
    ok = not problems and tests.returncode == 0
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            die("usage: run.py compare A.json B.json")
        return compare(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["grid", "grid_dist", "sweep"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--rate", type=float,
                        help="offered rate of the traced run's daemon, "
                             "requests/s")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
