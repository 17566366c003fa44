#!/usr/bin/env python3
"""Campaign benchmark runner.

Builds the simulator and the benchmark from source (campaign_bench/
CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), then runs one
workload:

    python3 campaign_bench/run.py --workload table5_fleet --seed 1 --seconds 30 --trace 0

--workload all (the default) runs every workload in turn.  --selftest builds
and runs the benchmark's self-tests instead.  The expected outcome digests
live in campaign_bench/expected_digests.json; when a change to the program
is meant to change outcomes, edit them by hand from the "digest" line a run
prints.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  Each run also writes its full result, with
the run context (compiler, flags, CPU, nproc, commit, seed), to
<build dir>/results/.  Exit status is non-zero when the build fails, the
outputs are wrong or the benchmark does not finish in time.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table5_fleet", "vehicle_ids", "feedback_fleet")
EXPECTED = os.path.join(HERE, "expected_digests.json")
SETUP_SAMPLES = 63         # set-up-only launches per run, besides the measured one
RUN_TIMEOUT_S = 170        # one benchmark process
BUILD_TIMEOUT_S = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # a failed configure must not stick
            raise RuntimeError("cmake configure failed")
    command = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
               "--target", "campaign_bench", "campaign_bench_selftest"]
    if subprocess.run(command, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
        raise RuntimeError("build failed")
    return out


def source_identity():
    """Git commit when the tree is a checkout, plus a digest of the sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "campaign_bench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:12])


def expected_digests():
    with open(EXPECTED) as handle:
        return json.load(handle)


def launch(binary, args, timeout):
    """Runs the benchmark binary."""
    return subprocess.run([binary] + args, capture_output=True, text=True, timeout=timeout)


def run_workload(binary, out, workload, seed, seconds, trace, commit):
    """Runs one workload; returns (result dict, exit code)."""
    base = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            probe = launch(binary, base + ["--setup-only"], 60)
            if probe.returncode != 0:
                raise RuntimeError("set-up probe failed: " + probe.stderr.strip())
            setup.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])

    expected = expected_digests()["digests"].get(workload, {}).get(str(seed))
    results_dir = os.path.join(out, "results")
    os.makedirs(results_dir, exist_ok=True)
    args = base + ["--seconds", str(seconds), "--trace", "1" if trace else "0",
                   "--out-dir", results_dir, "--commit", commit]
    if expected:
        args += ["--expect-digest", expected]
    run = launch(binary, args, RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark printed nothing (exit %d)" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "expected_digest": expected, "setup_samples_s": setup, "result": result,
              "context": [line[len("context: "):] for line in lines if line.startswith("context: ")]}
    name = "%s-seed%s-trace%d.json" % (workload, seed, int(trace))
    with open(os.path.join(results_dir, name), "w") as handle:
        json.dump(record, handle, indent=1)
    return result, run.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the shipped default seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        out = build(build_dir())
        binary = os.path.join(out, "campaign_bench")
        if args.selftest:
            return subprocess.run([os.path.join(out, "campaign_bench_selftest")],
                                  timeout=RUN_TIMEOUT_S).returncode
        seed = args.seed if args.seed is not None else expected_digests()["default_seed"]
        commit = source_identity()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        status = 0
        for workload in workloads:
            print("== %s (seed %d, %s s, trace %d)" % (workload, seed, args.seconds, args.trace))
            result, code = run_workload(binary, out, workload, seed, args.seconds,
                                        bool(args.trace), commit)
            results[workload] = result
            status = status or code
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as error:
        log("campaign_bench: %s" % error)
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return status if final["correct"] else (status or 1)


if __name__ == "__main__":
    sys.exit(main())
