#!/usr/bin/env python3
"""Smoke test of the request-path benchmark.  Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at a tiny length untraced, and the traced ledger
(which runs every workload) once, and checks that the result line
carries exactly the metrics BENCHMARK.json declares, with their units,
and that every operation passed its checks.
Then checks that a corrupted reference digest is reported as a failure,
and that the benchmark exits non-zero, printing no result, in a
directory holding only BENCHMARK.json and the benchmark's files.
Takes about 20 seconds once bench.exe is built.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "smoke")
TINY = ["--seed", "1", "--seconds", "1", "--length", "20000"]
WORKLOADS = ("replay_evict", "serve_hot", "suite_quick", "replay_obs")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc, what):
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], f"{what}: keys {sorted(out)}"
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, what
    assert isinstance(out["failed"], int), what
    return out


def check_metrics(out, declared, what, positive):
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: metrics differ: {set(got) ^ set(want)} or units"
    for k, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{what}: {k} is not a number"
        if positive:
            assert v["value"] > 0, f"{what}: {k} = {v['value']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(WORK, exist_ok=True)
    # Every workload run.py knows, bounded or not, untraced; one traced
    # run covers them all, since the ledger runs every workload.
    runs = [(w, 0, "end_to_end") for w in WORKLOADS] + [(bench["workloads"][0]["name"], 1, "per_layer")]
    for w, trace, section in runs:
        what = f"{w} --trace {trace}"
        out = result(run(["--workload", w, "--trace", str(trace)] + TINY), what)
        assert out["correct"] and out["failed"] == 0, f"{what}: {out['failed']} failed"
        check_metrics(out, bench[section], what, positive=(trace == 0))
        print(f"ok  {what}: {len(out['metrics'])} metrics, {out['attempted']} operations")

    # A corrupted reference digest must be reported as a failure.
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    reference["suite_quick"]["e1"] = "0" * 32
    reference["zipf tenants=4 pages_per_tenant=4096 skew=0.9 seed=1 length=20000"] = {"replay/lru": "0" * 32}
    bad = os.path.join(WORK, "corrupted-reference.json")
    with open(bad, "w") as f:
        json.dump(reference, f)
    for w in ("suite_quick", "replay_evict"):
        out = result(run(["--workload", w, "--trace", "0", "--reference", bad] + TINY), f"{w} corrupted")
        assert not out["correct"] and out["failed"] >= 1, f"{w}: corrupted reference not detected"
        print(f"ok  {w} with a corrupted reference digest: {out['failed']} of {out['attempted']} failed")

    # Without the rest of the repository the benchmark must fail cleanly.
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(["--workload", "replay_evict", "--trace", "0"] + TINY, cwd=bare)
    assert proc.returncode != 0, "bare directory: exit code 0"
    assert '"correct"' not in proc.stdout, "bare directory: printed a result"
    shutil.rmtree(bare)
    print(f"ok  bare directory: exit {proc.returncode}, no result")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
