"""Benchmark of ``specamb decompose`` and ``specamb verify``, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload decompose-n4 --seed 1 --seconds 20 --trace 0

Each job is one CLI invocation, ``specamb.cli.main(argv, standalone_mode=
False)``, on its own seeded input file, with ``--out`` into a temporary
directory under ``bench/out``.  Jobs run in a closed loop: one client, one
process, one thread, the next job starting when the previous one is
checked.  Input generation, output checks and hashing happen between jobs
and are not timed; the loop stops once the timed job time reaches
``--seconds``.

Before timing, all seven corpus entries are decomposed through the CLI and
matched to their frozen tables.  A job fails when it exits non-zero,
raises, or its output fails its check (see ``inputs.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced jobs with jobs in which every public ``specamb`` function is
wrapped in a span (see ``spans.py``), then runs two jobs under
``tracemalloc``; it reports per-job layer times and counts and the tracing
overhead.  The last line of standard output is one JSON object; the whole
record, with the SHA-256 of every output, goes to ``bench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from importlib import metadata
from pathlib import Path

from inputs import (
    WORKLOADS,
    check_corpus_output,
    check_decompose_output,
    check_verify_output,
    make_input,
)
from spans import Tracer, install

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
BUILD_REPEATS = 5
ALLOC_JOBS = 2  # one of each output format on decompose-n4

# What a CLI user pays on every invocation: importing the CLI and building
# the lattice for the input's predictor count, in a fresh interpreter.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import specamb.cli
from specamb.lattice import lattice_for
lattice_for(int(sys.argv[2]))
print(time.perf_counter() - start)
"""

CHECKS = (
    "mass-normalisation", "recombination-identity", "member-permutation",
    "superset-irrelevance", "self-redundancy", "lattice-monotonicity",
    "partial-nonnegativity", "mobius-reconstruction", "closed-form-agreement",
    "pointwise-sums", "total-information", "coarsening-invariance",
    "target-chain-rule", "conditional-corollaries",
)

# Span groups and the per-job figures reported for each: "s" is the
# inclusive time, "self_s" leaves out wrapped callees, "calls" counts spans.
SPAN_FIGURES = [
    ("lattice.mobius_invert", ("s", "calls")),
    ("lattice.closed_form_partial", ("s", "calls")),
    ("lattice.down_set", ("calls",)),
    ("distribution.probability", ("s", "calls")),
    ("distribution.transform", ("s", "calls")),
    ("distribution.load_distribution", ("s",)),
    ("decomposition.rmin", ("s", "self_s", "calls")),
    ("decomposition.reports", ("s", "self_s")),
    ("decomposition.decompose", ("s", "self_s", "calls")),
    ("decomposition.serialise", ("s",)),
    ("measures.oracle", ("s", "self_s", "calls")),
    ("checks.run_all", ("s", "self_s")),
    *((f"checks.{name}", ("s",)) for name in CHECKS),
    ("cli.main", ("s", "self_s")),
]
FIGURES = {"s": ("total_s", "s/job"), "self_s": ("self_s", "s/job"),
           "calls": ("calls", "calls/job")}


def invoke(cli, argv: list[str]) -> str:
    """Run one CLI invocation; return why it failed, or an empty string."""
    try:
        code = cli.main(argv, prog_name="specamb", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a job that raises is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return "raised " + traceback.format_exc(limit=0).strip()
    if code not in (None, 0):
        return f"exit code {code}"
    return ""


def run_jobs(cli, workload, nodes, seed, tmp, first, budget_s, *, limit=None,
             call=invoke, alloc=False):
    """Closed loop of jobs until ``budget_s`` of timed job time (or ``limit`` jobs).

    ``nodes`` is the lattice size the decompose output checks expect.
    """
    records = []
    busy = 0.0
    index = first
    while busy < budget_s and (limit is None or len(records) < limit):
        job = make_input(workload, seed, index, tmp)
        out = tmp / f"out-{index}.{job.fmt}"
        argv = [workload.command, "--input", str(job.path), "--format", job.fmt,
                "--out", str(out)]
        gc.collect()
        if alloc:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        problem = call(cli, argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] if alloc else 0
        busy += elapsed
        data = out.read_bytes() if out.exists() else b""
        if not problem:
            try:
                text = data.decode("utf-8")
                if workload.command == "verify":
                    problem = check_verify_output(text)
                else:
                    problem = check_decompose_output(text, job, nodes)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            print(f"job {index} failed: {problem}", file=sys.stderr)
        records.append({
            "index": index,
            "format": job.fmt,
            "seconds": elapsed,
            "ok": not problem,
            "problem": problem,
            "output_bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "peak_alloc_bytes": peak,
        })
        job.path.unlink()
        out.unlink(missing_ok=True)
        index += 1
    return records


def check_corpus(cli, tmp) -> list[dict]:
    """Decompose every corpus entry through the CLI and match its frozen table."""
    from specamb.corpus import CORPUS_NAMES

    results = []
    for name in CORPUS_NAMES:
        out = tmp / f"corpus-{name}.json"
        problem = invoke(cli, ["decompose", "--corpus", name, "--format", "json",
                               "--out", str(out)])
        data = out.read_bytes() if out.exists() else b""
        if not problem:
            try:
                problem = check_corpus_output(name, json.loads(data))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            print(f"corpus {name} failed: {problem}", file=sys.stderr)
        results.append({"name": name, "ok": not problem, "problem": problem,
                        "sha256": hashlib.sha256(data).hexdigest()})
    return results


def measure_setup(n: int) -> list[float]:
    """Fresh-interpreter import of the CLI plus ``lattice_for(n)``, in seconds."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):  # the first run also writes bytecode caches
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(n)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def measure_lattice_build(n: int) -> float:
    from specamb.lattice import Lattice

    samples = []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        Lattice(n)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def tail_percentile(times: list[float]):
    """Highest whole percentile with at least ten samples above it, if any."""
    q = int(100 * (1 - 10 / len(times))) if len(times) >= 20 else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(times, n=100)[q - 1]


def end_to_end(records, setup) -> tuple[dict, list[str]]:
    times = [r["seconds"] for r in records]
    failed = sum(not r["ok"] for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "jobs_per_s": (len(records) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [f"{name:<14}{value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{'error_rate':<14}{failed / len(records):>14.6g} ratio"
                 f"  ({failed} of {len(records)} jobs failed)")
    lines.append(f"job_p50_s is the median of {len(times)} jobs")
    tail = tail_percentile(times)
    if tail is not None:
        lines.append(f"job_p{tail[0]}_s     {tail[1]:>14.6g} s")
    return metrics, lines


def traced_run(cli, workload, nodes, seed, tmp, seconds):
    """Untraced and traced jobs in alternation, then a few under tracemalloc."""
    build_s = measure_lattice_build(workload.n)
    tracer = Tracer()
    traced_invoke = tracer.wrap("cli.main", invoke)
    plain, traced = [], []
    busy = 0.0
    while busy < seconds:
        index = len(plain) + len(traced)
        # Interleaving puts both halves under the same machine load, so their
        # rates differ by the tracing overhead, not by drift.  Every other
        # pair swaps order, so each half sees both decompose-n4 formats.
        if index % 2 == index // 2 % 2:
            batch = run_jobs(cli, workload, nodes, seed, tmp, index, math.inf, limit=1)
            plain += batch
        else:
            uninstall = install(tracer)
            try:
                batch = run_jobs(cli, workload, nodes, seed, tmp, index, math.inf,
                                 limit=1, call=traced_invoke)
            finally:
                uninstall()
            traced += batch
        busy += batch[0]["seconds"]
    tracemalloc.start()
    try:
        alloc = run_jobs(cli, workload, nodes, seed, tmp, len(plain) + len(traced),
                         math.inf, limit=ALLOC_JOBS, alloc=True)
    finally:
        tracemalloc.stop()
    metrics, lines = per_layer(nodes, tracer, plain, traced, alloc, build_s)
    groups = {group: vars(stats) for group, stats in tracer.groups.items()}
    return plain + traced + alloc, metrics, lines, groups


def per_layer(nodes, tracer, plain, traced, alloc, build_s):
    jobs = len(traced)
    metrics = {}
    for group, figures in SPAN_FIGURES:
        stats = tracer.groups.get(group)
        for figure in figures:
            field, unit = FIGURES[figure]
            value = getattr(stats, field) if stats is not None else 0
            metrics[f"{group}.{figure}"] = (value / jobs, unit)
    metrics["lattice.nodes"] = (nodes, "count")
    metrics["lattice.build.s"] = (build_s, "s")
    metrics["distribution.support_rows"] = (
        tracer.counts.get("distribution.support_rows", 0) / jobs, "rows/job")
    metrics["cli.output_bytes"] = (
        statistics.fmean(r["output_bytes"] for r in traced), "bytes/job")
    metrics["cli.main.peak_alloc_mb"] = (
        max(r["peak_alloc_bytes"] for r in alloc) / 2**20, "MB")
    untraced_rate = len(plain) / sum(r["seconds"] for r in plain)
    traced_rate = jobs / sum(r["seconds"] for r in traced)
    metrics["trace.jobs_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.jobs_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_jobs_per_s"] = (untraced_rate - traced_rate, "1/s")

    cpu = tracer.groups["cli.main"].total_s
    ranked = sorted(tracer.groups.items(), key=lambda kv: -kv[1].self_s)
    lines = [f"{'layer (self time)':<40}{'s/job':>12}{'share':>8}{'calls/job':>12}"]
    for group, stats in ranked:
        if stats.calls:
            lines.append(f"{group:<40}{stats.self_s / jobs:>12.4g}"
                         f"{stats.self_s / cpu:>8.1%}{stats.calls / jobs:>12.6g}")
    return metrics, lines


def machine_info(specamb) -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "click": metadata.version("click"),
        "specamb": specamb.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "specamb" / "cli.py").is_file():
        print(f"error: no specamb sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specamb
    from specamb import cli
    from specamb.lattice import lattice_for

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(specamb)}

    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp_name:
        tmp = Path(tmp_name)
        setup = [] if args.trace else measure_setup(workload.n)
        corpus = check_corpus(cli, tmp)
        # The lattice is the one cache shared across jobs by design.
        nodes = len(lattice_for(workload.n).nodes)
        if args.trace:
            records, metrics, lines, record["span_groups"] = traced_run(
                cli, workload, nodes, args.seed, tmp, args.seconds)
        else:
            records = run_jobs(cli, workload, nodes, args.seed, tmp, 0, args.seconds)
            metrics, lines = end_to_end(records, setup)
            record["setup_samples_s"] = setup

    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and all(c["ok"] for c in corpus)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(corpus=corpus, jobs=records, result=result)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name} seed {args.seed}: corpus "
          f"{sum(c['ok'] for c in corpus)}/{len(corpus)} ok, "
          f"{len(records)} jobs, {failed} failed")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
