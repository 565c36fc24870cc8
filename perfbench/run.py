#!/usr/bin/env python3
"""End-to-end benchmark of the InfoShield pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (and the
library sources under src/ it links) into .bench_build/perfbench; later
runs reuse the build. Each run then

  1. generates the workload's inputs from --seed (cached per seed in
     .bench_build/perfbench/work/),
  2. computes the 1-thread reference digest of the canonical JSON
     (cached beside the inputs),
  3. runs the measured program in a fresh child process, whose wait4
     rusage gives peak_rss_mb for that run alone, and
  4. prints one JSON object as the last line of standard output.

--trace 0 is the timed run: set-up, then closed-loop operations for
--seconds, every output checked against the reference digest; it prints
the END_TO_END metrics. --trace 1 calls each layer's public entry point
in sequence, timed from outside with spans written to
.bench_build/perfbench/work/<input>/spans.json; it prints the PER_LAYER
metrics. Both count failed operations (error Status, output mismatch,
crash, timeout) against those attempted.

perfbench/selftest.py checks this script against BENCHMARK.json at toy
scale; perfbench/workloads.json records each workload's generator,
parameters and counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; leave room for start-up and reporting.
CHILD_TIMEOUT_S = 160

WORKLOADS = ("tweets_batch", "longdoc_batch")

# name -> (unit, better, meaning). Measured with tracing off.
END_TO_END = {
    "setup_s": ("s", "lower", "median LoadCorpusFromCsv of the input"),
    "pipeline_s": (
        "s", "lower", "median InfoShield::Run + ResultToJson + "
        "WriteJsonFile"),
    "peak_rss_mb": (
        "MB", "lower", "peak resident memory of the run's child process "
        "(wait4 ru_maxrss)"),
    "batch_p50_s": (
        "s", "lower", "median latency of one closed-loop operation, "
        "setup + pipeline: CSV in, JSON on disk"),
    "batch_p90_s": ("s", "lower", "90th percentile of the same latencies"),
    "ingest_docs_per_s": (
        "docs/s", "higher", "documents ingested by those operations / "
        "seconds spent in them"),
    "precision": (
        "ratio", "higher", "suspicious and positive / suspicious; positive "
        "= the generator's bot or near-duplicate family documents"),
    "recall": ("ratio", "higher", "suspicious and positive / positive"),
    "ari": (
        "ratio", "higher", "adjusted Rand index of the template labels "
        "against the generator's cluster labels"),
}

# name -> (unit, better, exact, meaning). From the traced run. An exact
# metric repeats exactly for a seed at any thread count, so it can be
# cited as a count. Every ratio names its base.
PER_LAYER = {
    "io.csv_read_s": ("s", "lower", False, "ReadCsvFile of docs.csv"),
    "io.json_write_s": (
        "s", "lower", False, "ResultToJson + WriteJsonFile"),
    "io.json_bytes": ("count", "lower", True, "bytes of canonical JSON"),
    "text.tokenize_s": (
        "s", "lower", False, "Corpus::AddBatch at the run's threads"),
    "text.tokenize_1t_s": (
        "s", "lower", False, "Corpus::AddBatch at 1 thread"),
    "text.tokens": ("count", "lower", True, "tokens in the corpus"),
    "text.vocab": ("count", "lower", True, "distinct tokens"),
    "tfidf.build_s": (
        "s", "lower", False, "TfidfIndex::Build at the run's threads"),
    "tfidf.build_1t_s": (
        "s", "lower", False, "TfidfIndex::Build at 1 thread"),
    "tfidf.top_phrases_s": (
        "s", "lower", False, "TopPhrases of every document"),
    "tfidf.phrases": (
        "count", "lower", True, "distinct phrases in the df table"),
    "tfidf.shard_contended": (
        "count", "lower", False, "contended shard locks in the df build"),
    "lsh.signature_s": (
        "s", "lower", False, "MinHash signature of every document"),
    "lsh.index_build_s": ("s", "lower", False, "LshIndex::Build"),
    "lsh.buckets": (
        "count", "lower", True, "occupied (band, bucket) keys"),
    "lsh.max_bucket": (
        "count", "lower", True, "documents in the fullest bucket"),
    "lsh.candidate_pairs": (
        "count", "lower", True, "sum over buckets of C(size, 2)"),
    "coarse.run_s": (
        "s", "lower", False, "CoarseClustering::Run at the run's threads"),
    "coarse.run_1t_s": ("s", "lower", False, "the same at 1 thread"),
    "coarse.edges": ("count", "lower", True, "bipartite edges"),
    "coarse.clusters": ("count", "lower", True, "coarse clusters"),
    "coarse.largest_cluster_share": (
        "ratio", "lower", True, "documents in the largest coarse cluster / "
        "documents"),
    "graph.replay_s": (
        "s", "lower", False, "the coarse doc_top_phrases replayed through "
        "CoarseEdgeAccumulator + EmitCoarseComponents"),
    "fine.sum_cluster_s": (
        "s", "lower", False, "sum over coarse clusters of "
        "FineClustering::RunOnCluster, fanned out as the pipeline does"),
    "fine.max_cluster_s": ("s", "lower", False, "the slowest cluster"),
    "fine.critical_path_share": (
        "ratio", "lower", False, "fine.max_cluster_s / fine.sum_cluster_s"),
    "fine.alignments": ("count", "lower", True, "NW alignments computed"),
    "fine.consensus_probes": (
        "count", "lower", True, "consensus-search probes"),
    "fine.cache_hit_rate": (
        "ratio", "higher", True, "consensus cache hits / consensus probes"),
    "fine.slot_candidates": (
        "count", "lower", True, "slot positions evaluated"),
    "fine.templates": ("count", "higher", True, "templates accepted"),
    "msa.nw_s": (
        "s", "lower", False, "NeedlemanWunsch of up to 16 members of each "
        "coarse cluster against its first member"),
    "msa.nw_cells": (
        "count", "lower", True, "sum of |a|*|b| over those alignments"),
    "msa.nw_table_peak_mb": (
        "MB-computed", "lower", True, "largest (|a|+1)(|b|+1) table at 5 "
        "bytes per cell, computed, not measured"),
    "msa.poa_s": (
        "s", "lower", False, "the same members fused into a PoaGraph "
        "seeded with the first member"),
    "incremental.df_s": (
        "s", "lower", False, "IngestStats df seconds, summed over the "
        "update batches"),
    "incremental.rescore_s": (
        "s", "lower", False, "IngestStats rescore seconds, summed"),
    "incremental.graph_s": (
        "s", "lower", False, "IngestStats graph seconds, summed"),
    "incremental.fine_s": (
        "s", "lower", False, "IngestStats fine seconds, summed"),
    "incremental.vocab_grew_frac": (
        "ratio", "lower", True, "update batches that moved lg V / update "
        "batches"),
    "incremental.graph_rebuilt_frac": (
        "ratio", "lower", True, "update batches that replayed the graph / "
        "update batches"),
    "incremental.reused_cluster_frac": (
        "ratio", "higher", True, "reused clusters / coarse clusters, both "
        "summed over the update batches"),
    "incremental.dirty_docs_mean": (
        "count", "lower", True, "documents in dirty clusters / update "
        "batches"),
    "trace.pipeline_s": (
        "s", "lower", False, "coarse.run_s + the fine fan-out + "
        "io.json_write_s: the traced pipeline"),
    "trace.overhead_ratio": (
        "ratio", "lower", False, "trace.pipeline_s / the untraced Run + "
        "JSON in the same process"),
}


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def threads():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(threads())],
                   check=True, stdout=sys.stderr)


def generate(workload, seed, toy, directory):
    """Writes the workload's docs.csv and manifest.json into directory."""
    os.makedirs(directory, exist_ok=True)
    subprocess.run([BINARY, "gen", "--workload", workload, "--seed",
                    str(seed), "--dir", directory] + (["--toy"] if toy else []),
                   check=True, timeout=CHILD_TIMEOUT_S)


def prepare_inputs(workload, seed, toy):
    """Generated inputs and their 1-thread reference digest, cached."""
    name = "%s-%s-%d" % (workload, "toy" if toy else "full", seed)
    work = os.path.join(BUILD, "work", name)
    if not os.path.exists(os.path.join(work, "manifest.json")):
        generate(workload, seed, toy, work + ".partial")
        os.replace(work + ".partial", work)
    digest_path = os.path.join(work, "ref_digest")
    if not os.path.exists(digest_path):
        out = subprocess.run([BINARY, "ref", "--workload", workload,
                              "--dir", work], check=True, text=True,
                             stdout=subprocess.PIPE,
                             timeout=CHILD_TIMEOUT_S).stdout
        with open(digest_path + ".partial", "w") as f:
            f.write(out.strip())
        os.replace(digest_path + ".partial", digest_path)
    with open(digest_path) as f:
        return work, f.read().strip()


def run_child(cmd, timeout_s):
    """Runs cmd; returns (exit status, stdout, peak RSS in MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(report, peak_rss_mb):
    s, v = report["samples"], report["values"]
    values = {
        "setup_s": statistics.median(s["setup_s"]),
        "pipeline_s": statistics.median(s["pipeline_s"]),
        "peak_rss_mb": peak_rss_mb,
        "batch_p50_s": statistics.median(s["batch_s"]),
        "batch_p90_s": p90(s["batch_s"]),
        "ingest_docs_per_s": v["ingested_docs"] / v["ingest_seconds"],
        "precision": v["precision"],
        "recall": v["recall"],
        "ari": v["ari"],
    }
    log("samples: " + ", ".join("%s n=%d" % (k, len(x))
                                for k, x in sorted(s.items())))
    return {k: {"value": x, "unit": END_TO_END[k][0]}
            for k, x in values.items()}


def per_layer(report):
    return {k: {"value": report["values"][k], "unit": spec[0]}
            for k, spec in PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: a few hundred documents (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt every output (self-test of the checks)")
    args = parser.parse_args()

    started = time.monotonic()
    try:
        build()
        work, digest = prepare_inputs(args.workload, args.seed,
                                      args.scale == "toy")
    except (subprocess.SubprocessError, OSError) as e:
        log("set-up failed: %s" % e)
        return 1
    nthreads = threads()
    with open(os.path.join(work, "manifest.json")) as f:
        log("threads %d, inputs %s" % (nthreads, f.read().strip()))
    common = ["--workload", args.workload, "--dir", work,
              "--threads", str(nthreads), "--digest", digest]
    if args.corrupt:
        common.append("--corrupt")
    if args.trace:
        spans = os.path.join(work, "spans.json")
        cmd = [BINARY, "trace", "--spans", spans] + common
    else:
        cmd = [BINARY, "run", "--seconds", str(args.seconds)] + common
    budget = CHILD_TIMEOUT_S - (time.monotonic() - started)
    code, out, peak_rss_mb = run_child(cmd, max(budget, 1.0))

    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("measured program exited with %d" % code)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    report = json.loads(lines[-1])
    if args.trace:
        metrics = per_layer(report)
        log("spans written to " + spans)
    else:
        metrics = end_to_end(report, peak_rss_mb)
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
