#!/usr/bin/env python3
"""The repository benchmark: one command that builds gengc in Release and
drives its public APIs through three seeded workloads.

    python3 perfbench/run.py --workload sessions|bulk-transfer|vm-programs|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench (Release); later
runs rebuild only what changed. With --trace 0 the run reports the
end-to-end metrics listed in BENCHMARK.json; with --trace 1 it reports
the per-layer ledger of a traced run, plus the tracing overhead against
an untraced run of the same length. Every run checks its workload's
outputs; a failed check makes the exit status nonzero.

Human-readable lines come first: provenance, the config fields the
workload sets, every metric with unit and sample count, the workload's
own views, anomaly flags and failed checks. The last line is one JSON
object with the keys correct, attempted, failed and metrics.

--smoke shrinks every workload for the benchmark's own tests, and
--canary perturbs every expected value so the correctness gate must trip.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sessions", "bulk-transfer", "vm-programs"]


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds the benchmark; all output goes to stderr.
    Configuring every time keeps a reused tree in step with the sources.
    The compiler's temporary files stay inside the build tree too."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", out, "--target", "gengc_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(out, "gengc_perfbench")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """Digest of the sources the benchmark builds, for trees without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_info():
    model, mhz = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                if key.strip() == "cpu MHz" and mhz == "unknown":
                    mhz = value.strip()
    except OSError:
        pass
    return model, mhz


def provenance(seed):
    # Only the tree's own repository counts, not one that encloses it.
    top = git("rev-parse", "--show-toplevel")
    inside = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if inside else None
    dirty = None if sha is None else bool(git("status", "--porcelain"))
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    model, mhz = cpu_info()
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": f"{compiler} ({version})",
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_mhz": mhz,
        "kernel": platform.release(),
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def run_workload(binary, args, workload):
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(results, stem + ".json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.canary:
        cmd.append("--canary")
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=170)
    if not os.path.exists(out):
        fail(4, f"{workload}: gengc_perfbench exited {proc.returncode} without a report")
    with open(out) as f:
        report = json.load(f)
    report["exit_status"] = proc.returncode
    return report


def summarize(workload, args, report, names):
    """Prints the human-readable lines; returns the final-line metrics."""
    mode = "traced (per-layer)" if args.trace else "untraced (end-to-end)"
    print(f"== {workload}, seed {args.seed}, {args.seconds} s, {mode}")
    for key, value in report["provenance"].items():
        print(f"  provenance.{key}: {value}")
    for field, value in report["config_set"].items():
        print(f"  config set: {field} = {value}")
    metrics, shown = {}, set()
    for name in names:
        m = report["metrics"].get(name)
        if m is None:
            if not args.trace:
                fail(4, f"{workload}: end-to-end metric {name} missing")
            # A layer this workload never calls: nothing was measured.
            m = {"value": 0, "unit": names[name], "samples": 0}
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
        shown.add(name)
        print(f"  {name}: {m['value']:.6g} {m['unit']} "
              f"(samples {m['samples']})")
    for name, m in report["metrics"].items():
        if name not in shown:
            print(f"  {name}: {m['value']:.6g} {m['unit']} "
                  f"(samples {m['samples']})")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  error_frac: {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted ops)")
    for note in report["notes"]:
        print(f"  {note}")
    for flag in report["anomalies"]:
        print(f"  ANOMALY: {flag}")
    for check in report["check_failures"]:
        print(f"  CHECK FAILED: {check}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--canary", action="store_true")
    args = parser.parse_args()

    # Either variable would silently change the program under test
    # (GC width, collect-on-every-allocation, trace dumps, ...).
    leaked = sorted(k for k in os.environ if k.startswith("GENGC_"))
    if leaked:
        fail(2, "refusing to run with " + ", ".join(leaked) + " set")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"no gengc source tree at {ROOT}/src")
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    s = spec()
    key = "per_layer" if args.trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in s[key]}
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(3, f"build failed: {e}")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        report = run_workload(binary, args, workload)
        report["provenance"] = provenance(args.seed)
        with open(os.path.join(build_dir(), "results",
                               f"{workload}-seed{args.seed}-trace{args.trace}"
                               ".json"), "w") as f:
            json.dump(report, f, indent=1)
        m = summarize(workload, args, report, names)
        ok = report["exit_status"] == 0 and not report["check_failures"]
        correct = correct and ok
        attempted += report["attempted"]
        failed += report["failed"]
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({f"{workload}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
