#!/usr/bin/env python3
"""End-to-end benchmark of clustersim; see e2ebench/README.md.

One run of one workload (the form the results are judged by):

  python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Tooling around it:

  python3 e2ebench/run.py --all [--seed N] [--seconds S]
      every workload, untraced and traced; exit 1 on any wrong output
  python3 e2ebench/run.py --steadiness N [--workload W] [--seconds S]
      N runs on N seeds: median, quartiles and spread of each
      end-to-end metric against its bound
  python3 e2ebench/run.py --compare PARENT_TREE [--pairs N] [--workload W]
      alternating parent/change pairs built from two source trees with
      this same benchmark; one verdict row per workload
  python3 e2ebench/run.py --self-check
      tiny scale: every metric of BENCHMARK.json is emitted, finite,
      and carries its unit
  python3 e2ebench/run.py --record-expected
      rewrite expected.json from default-seed runs (after a deliberate
      change of simulated outcomes only)

The harness is built from source into $CARGO_TARGET_DIR (default
.bench_build) on first use. Every run works in a fresh directory under
.bench_tmp that is removed afterwards; traced runs leave their spans in
.bench_out.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(HERE, "expected.json")
HARNESS_TIMEOUT_S = 170


def die(msg, code=2):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(repo, tag):
    """Configure once and build the harness against source tree `repo`."""
    repo = os.path.abspath(repo)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        die("no clustersim source tree at " + repo)
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))
    bdir = os.path.join(base, "e2ebench-" + tag)

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DE2EBENCH_REPO=" + repo]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", bdir, "--target", "e2ebench",
          "-j", str(os.cpu_count() or 1)])
    return os.path.join(bdir, "e2ebench")


def source_digest(repo):
    """sha256 over the sources the harness builds (the checkout may not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(repo, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, repo).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def host_info(repo, harness_host):
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(repo, ".git")):
        r = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    info = dict(harness_host)
    info["nproc"] = os.cpu_count()
    info["commit"] = commit
    info["source_sha256"] = source_digest(repo)
    return info


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def run_harness(binary, workload, seed, seconds, trace, tiny=False):
    """One harness run in a fresh work directory; returns (result, errors)."""
    tmp = os.path.join(ROOT, ".bench_tmp", "%s-%d-%d" % (workload, seed,
                                                         os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", tmp]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, "spans-%s.json" % workload)]
    if tiny:
        cmd.append("--tiny")
    errors = []
    # A new process group, so the harness and every sweepd it starts can
    # be found (and stopped) together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        errors.append("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    if group_alive(proc.pid):
        errors.append("a process of the run outlived it")
        os.killpg(proc.pid, signal.SIGKILL)
        deadline = time.time() + 10
        while group_alive(proc.pid) and time.time() < deadline:
            time.sleep(0.05)
    shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, errors + ["harness exited %d without a result"
                               % proc.returncode]
    if proc.returncode != 0 and not result.get("errors"):
        errors.append("harness exited %d" % proc.returncode)
    return result, errors + result.get("errors", [])


def evaluate(result, errors, spec, workload, seed, trace, tiny):
    """Check outputs and metric completeness; build the result line."""
    errors = list(errors)
    if result is None:
        return None, errors
    expected = load_json(EXPECTED_JSON)
    want = expected["report_sha256"].get(workload)
    if not tiny and seed == expected["default_seed"] and want and \
            result["report_sha256"] != want:
        errors.append("report sha256 %s != expected %s for the default "
                      "seed" % (result["report_sha256"], want))
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append("metric %s is not finite" % m["name"])
        elif got["unit"] != m["unit"]:
            errors.append("metric %s has unit %s, not %s"
                          % (m["name"], got["unit"], m["unit"]))
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    attempted = max(int(result["attempted"]), 1)
    correct = not errors and int(result["failed"]) == 0
    line = {"correct": correct, "attempted": attempted,
            "failed": int(result["failed"]) if correct else attempted,
            "metrics": metrics}
    return line, errors


def one_run(binary, spec, workload, seed, seconds, trace, tiny=False,
            quiet=False):
    result, errors = run_harness(binary, workload, seed, seconds, trace, tiny)
    line, errors = evaluate(result, errors, spec, workload, seed, trace, tiny)
    if not quiet:
        print("e2ebench %s seed=%d trace=%d" % (workload, seed, int(trace)))
        if result is not None:
            print("  host: " + json.dumps(host_info(ROOT, result["host"]),
                                          sort_keys=True))
            print("  samples: " + json.dumps(result["samples"],
                                             sort_keys=True))
            for name, m in line["metrics"].items():
                print("  %-38s %16.6f %s" % (name, m["value"], m["unit"]))
        for e in errors:
            print("  ERROR: " + e)
    return line, errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(binary, spec, workloads, runs, seconds, base_seed):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        values = {}
        for i in range(runs):
            line, errors = one_run(binary, spec, w, base_seed + i, seconds,
                                   False, quiet=True)
            if line is None or errors:
                die("%s seed %d failed: %s" % (w, base_seed + i, errors), 1)
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs, seeds %d..%d)" % (w, runs, base_seed,
                                             base_seed + runs - 1))
        print("  %-14s %12s %12s %12s %8s %6s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "ratio"))
        for name, vs in values.items():
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / bounds[name]
            status = ("ok" if ratio <= 1 / 3 else
                      "tight" if ratio <= 1 else "OVER")
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %6.3f %6.2f %s" % (
                name, med, q1, q3, spread, bounds[name], ratio, status))


def compare(spec, parent_repo, workloads, pairs, seconds, base_seed):
    tag = hashlib.sha256(os.path.abspath(parent_repo).encode()).hexdigest()
    sides = {"parent": build(parent_repo, "parent-" + tag[:12]),
             "change": build(ROOT, "self")}
    for w in workloads:
        vals = {"parent": {}, "change": {}}
        for i in range(pairs):
            order = ["parent", "change"] if i % 2 == 0 else \
                ["change", "parent"]
            for side in order:
                line, errors = one_run(sides[side], spec, w, base_seed + i,
                                       seconds, False, quiet=True)
                if line is None or errors:
                    die("%s %s seed %d failed: %s"
                        % (side, w, base_seed + i, errors), 1)
                for name, m in line["metrics"].items():
                    vals[side].setdefault(name, []).append(m["value"])
        cells = []
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p, c = vals["parent"][name], vals["change"][name]
            pq1, pm, pq3 = quartiles(p)
            cm = statistics.median(c)
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            wins = sum(1 for a, b in zip(c, p) if better(a, b))
            gain = (pm - cm) if lower else (cm - pm)
            worse_frac = -gain / pm if pm else 0.0
            if wins >= 0.9 * pairs and gain > (pq3 - pq1):
                verdict = "gain"
            elif worse_frac > m["bound"]:
                verdict = "WORSE"
            elif (pq3 - pq1) / pm > m["bound"] and \
                    not all(better(a, b) for a in c for b in p):
                verdict = "unresolved"
            else:
                verdict = "flat"
            cells.append("%s=%s(%+.1f%%,%d/%d)" % (
                name, verdict, 100 * (cm - pm) / pm if pm else 0.0, wins,
                pairs))
        print("%-16s %s" % (w, " ".join(cells)))


def self_check(binary, spec):
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (False, True):
            line, errors = one_run(binary, spec, w, 1, 1, trace, tiny=True,
                                   quiet=True)
            status = "ok" if line is not None and not errors else "FAIL"
            print("self-check %-16s trace=%d %s %s" % (
                w, int(trace), status, "; ".join(errors)))
            ok = ok and status == "ok"
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--compare", metavar="PARENT_TREE")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(BENCHMARK_JSON):
        die("BENCHMARK.json not found at " + BENCHMARK_JSON)
    spec = load_json(BENCHMARK_JSON)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        die("unknown workload %s (have: %s)" % (args.workload,
                                                ", ".join(names)))
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds or spec["run_seconds"]
    default_seed = load_json(EXPECTED_JSON)["default_seed"]
    seed = default_seed if args.seed is None else args.seed

    if args.compare:
        compare(spec, args.compare, workloads, args.pairs, seconds, seed)
        return 0
    binary = build(ROOT, "self")
    if args.self_check:
        return 0 if self_check(binary, spec) else 1
    if args.steadiness:
        steadiness(binary, spec, workloads, args.steadiness, seconds, seed)
        return 0
    if args.record_expected:
        hashes = {}
        for w in names:
            result, errors = run_harness(binary, w, default_seed, 1, False)
            if result is None or errors:
                die("%s failed: %s" % (w, errors), 1)
            hashes[w] = result["report_sha256"]
        with open(EXPECTED_JSON, "w") as f:
            json.dump({"default_seed": default_seed,
                       "report_sha256": hashes}, f, indent=2)
            f.write("\n")
        return 0
    if args.all:
        bad = 0
        for w in workloads:
            for trace in (False, True):
                line, errors = one_run(binary, spec, w, seed, seconds, trace)
                bad += line is None or bool(errors)
        return 1 if bad else 0

    if args.workload is None or args.seed is None or args.seconds is None:
        die("--workload, --seed, --seconds and --trace are required "
            "(or pick a mode; see --help)")
    line, errors = one_run(binary, spec, args.workload, args.seed,
                           args.seconds, bool(args.trace))
    if line is None:
        return 1
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
