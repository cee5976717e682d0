#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark program on tiny
corpora, untraced and traced, and checks that the result line names exactly the
declared end-to-end (untraced) or per-layer (traced) metrics with their
declared units, that every response matched its reference digest, and
that the end-to-end timings are positive. It then corrupts one expected
digest on purpose and checks that the mismatch is counted as failed.
"""

import json
import os
import subprocess
import sys

import run

SECONDS = "1"


def drive(binary, workload, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", trace, "--tiny",
           "--workdir", os.path.join(run.build_dir(), "run")] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    os.makedirs(os.path.join(run.build_dir(), "run"), exist_ok=True)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = drive(binary, workload, trace)
            declared = {m["name"]: m["unit"] for m in bench[section]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = "%s trace=%s" % (workload, trace)
            if emitted != declared:
                problems.append("%s: metrics %s differ from BENCHMARK.json %s"
                                % (tag, sorted(set(emitted) ^ set(declared)),
                                   section))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d requests failed"
                                % (tag, result["failed"], result["attempted"]))
            if trace == "0":
                for name, metric in result["metrics"].items():
                    if not metric["value"] > 0:
                        problems.append("%s: %s is not positive" % (tag, name))
            print("selftest: %s ok (%d requests)" % (tag, result["attempted"]))

    corrupted = drive(binary, "tree_scan", "0", ["--corrupt-digest"])
    if corrupted["correct"] or corrupted["failed"] < 1:
        problems.append("a corrupted reference digest was not counted as failed")
    else:
        print("selftest: corrupted digest counted (%d of %d failed)"
              % (corrupted["failed"], corrupted["attempted"]))

    for problem in problems:
        print("selftest: FAIL " + problem)
    if problems:
        sys.exit(1)
    print("selftest: ok")


if __name__ == "__main__":
    main()
