#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reads --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first form builds the benchmark executable and the `anyseq` CLI (the
`serve` workload's server) with dune, then runs one workload; the last line
of standard output is the result object. The second form runs every
workload briefly and checks the benchmark itself: the metric set and units
against BENCHMARK.json, the layer map in perfbench/layers.json, seed
handling, and that the deterministic counts repeat across same-seed runs.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
CLI = os.path.join("_build", "default", "bin", "anyseq_cli.exe")
WORK = ".perfbench"
RUN_TIMEOUT = 170


def env():
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    # keep every build and run artefact inside the checkout
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: not at the root of an anyseq checkout", file=sys.stderr)
        return False
    cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/anyseq_cli.exe"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env()).returncode == 0


def run(args, capture=False):
    cmd = [EXE] + args + ["--server-exe", CLI, "--work", WORK]
    # its own process group, so a timeout also stops the server it started
    p = subprocess.Popen(cmd, env=env(), start_new_session=True,
                         stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return p.returncode, (out or "")


def self_test():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if set(layers["per_layer"]) != set(want[1]):
        problems.append("layers.json and BENCHMARK.json name different per-layer metrics: %s"
                        % sorted(set(layers["per_layer"]) ^ set(want[1])))
    if {w["name"] for w in bench["workloads"]} != set(layers["workloads"]):
        problems.append("layers.json and BENCHMARK.json name different workloads")
    deterministic = lambda name: (name.startswith("tier.") and name.endswith(".jobs")) or name in (
        "network.cutoff_frac", "index.postings")
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            seen = []
            for seed in (1, 1, 2):
                code, out = run(["--workload", w, "--seed", str(seed), "--seconds", "1",
                                 "--trace", str(trace)], capture=True)
                lines = out.strip().splitlines()
                if code != 0 or len(lines) < 2:
                    problems.append("%s trace=%d seed=%d: exit %d" % (w, trace, seed, code))
                    break
                meta, res = json.loads(lines[-2])["meta"], json.loads(lines[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want[trace]:
                    problems.append("%s trace=%d: metric set or units differ: %s"
                                    % (w, trace, sorted(set(got.items()) ^ set(want[trace].items()))))
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append("%s trace=%d seed=%d: correctness failed" % (w, trace, seed))
                seen.append((meta, res))
            if len(seen) < 3:
                continue
            (m1, r1), (m2, r2), (m3, _) = seen
            if m1["inputs"] != m2["inputs"] or m1["inputs"] == m3["inputs"]:
                problems.append("%s: inputs do not follow the seed" % w)
            if m1["outputs"] != m2["outputs"]:
                problems.append("%s: output digest differs across same-seed runs" % w)
            for k, v in r1["metrics"].items():
                if deterministic(k) and v["value"] != r2["metrics"][k]["value"]:
                    problems.append("%s: %s differs across same-seed runs (%r vs %r)"
                                    % (w, k, v["value"], r2["metrics"][k]["value"]))
            print("self-test: %s trace=%d ok" % (w, trace), file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAIL" if problems else "PASS"), file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    if not build():
        return 1
    if argv == ["--self-test"]:
        return self_test()
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
