#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute, from the repository root):

    python3 perfbench/selftest.py

- BENCHMARK.json names exactly the metrics run.py prints, with the same
  units and directions;
- perfbench/workloads.json matches what the generator writes for seed 1;
- every workload at toy scale prints every end-to-end metric (timed
  run) and every per-layer metric (traced run) with its unit, with no
  failed operation;
- a deliberately corrupted output is counted as a failed operation in
  both runs;
- in a directory holding only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load_json(path):
    with open(path) as f:
        return json.load(f)


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(*args):
    code, lines, err = bench(*args)
    assert code == 0 and lines, "run.py %s failed:\n%s" % (args, err)
    return json.loads(lines[-1])


def check_spec():
    spec = load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == {k: v[:2] for k, v in run.END_TO_END.items()}, e2e
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {k: v[:2] for k, v in run.PER_LAYER.items()}, layer


def check_manifests():
    recorded = load_json(os.path.join(run.HERE, "workloads.json"))
    scratch = os.path.join(run.BUILD, "selftest-manifests")
    for workload in run.WORKLOADS:
        directory = os.path.join(scratch, workload)
        run.generate(workload, 1, False, directory)
        manifest = load_json(os.path.join(directory, "manifest.json"))
        assert recorded["workloads"][workload]["manifest"] == manifest, (
            "workloads.json is stale for %s: %s" % (workload, manifest))
    shutil.rmtree(scratch)


def check_metrics(out, table):
    assert out["attempted"] >= 1 and isinstance(out["attempted"], int)
    assert set(out["metrics"]) == set(table), sorted(out["metrics"])
    for name, metric in out["metrics"].items():
        assert metric["unit"] == table[name][0], (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)


def check_workload(workload):
    toy = ["--workload", workload, "--seed", "7", "--scale", "toy",
           "--seconds", "0.5"]
    timed = result(*toy, "--trace", "0")
    assert timed["correct"] and timed["failed"] == 0, timed
    check_metrics(timed, run.END_TO_END)
    for name, metric in timed["metrics"].items():
        assert metric["value"] > 0, (name, metric)
    traced = result(*toy, "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0, traced
    check_metrics(traced, run.PER_LAYER)
    spans = load_json(os.path.join(run.BUILD, "work",
                                   "%s-toy-7" % workload, "spans.json"))
    names = {s["name"] for s in spans["spans"]}
    assert {"trace", "coarse.run", "fine", "msa.nw"} <= names, names
    for trace in ("0", "1"):
        bad = result(*toy, "--trace", trace, "--corrupt")
        assert not bad["correct"] and bad["failed"] >= 1, bad
    print("ok  %s: %d timed operations, %d traced checks" %
          (workload, timed["attempted"], traced["attempted"]))


def check_bare_checkout():
    with tempfile.TemporaryDirectory(dir=run.BUILD) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench("--workload", "tweets_batch", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare)
        assert code != 0 and not any(l.startswith("{") for l in lines), (
            code, lines)


def main():
    run.build()
    check_spec()
    print("ok  BENCHMARK.json matches run.py")
    check_manifests()
    print("ok  workloads.json matches the generator at seed 1")
    for workload in run.WORKLOADS:
        check_workload(workload)
    check_bare_checkout()
    print("ok  a checkout without the sources exits non-zero, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
