"""Run one workload of the hcmu benchmark and print its metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing needs installing.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` the run is repeated op for op with spans installed and the
metrics are the per-layer ones.  Full results (sample counts, digest, count
metrics, provenance) are written to ``.perfbench/results/``.

A run stops at the first round boundary after ``--seconds`` of wall time
and at least 100 ops, so a workload slower than 100 ops per ``--seconds``
runs longer: construct, at about 3.4 op/s on a 2-vCPU VM, always runs three
rounds (105 ops, about 31 s of timed ops at ``--seconds 20``), and with
``--trace 1`` replays those ops traced, about as long again.  ``setup_s`` is
the median of three set-ups, each a fresh-interpreter ``import hcmu`` and one
generation of the workload's inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_OPS = 100  # ten samples beyond p90
PREFIX_OPS = 100  # digest and count metrics cover exactly these first ops
SETUP_REPEATS = 3
HELD_OUT_SEED = 90001  # reserved for confirming later claims; never used while tuning

# count metric -> (numerator count, base count or None for a plain total)
COUNT_METRICS = {
    "balance.witness_found_ratio": ("witness_found", "solve_balance_calls"),
    "deformations.twist_generic_ratio": ("twist_generic", "twists"),
    "deformations.split_accepted_ratio": ("split_accepted", "splits"),
    "dataset.dedup_new_ratio": ("set_new", "set_inserts"),
    "angulation.arcs_total": ("arcs", None),
    "geometry.samples_total": ("samples", None),
    "serialization.bytes_total": ("bytes", None),
}


def _rank(pct, n):
    """1-based nearest rank of the pct-th percentile of n samples (exact arithmetic)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(sorted_values, pct):
    """Nearest-rank percentile: the smallest value with pct% of samples at or below it."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile with at least ten of n samples beyond it."""
    ok = [p for p in candidates if n - _rank(p, n) >= 10]
    return ok[-1] if ok else None


def digest_of(parts):
    """sha256 over length-prefixed parts, so that part boundaries count."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def use_checkout_sources():
    """Import hcmu from this checkout's src/; fails outside a full checkout."""
    src = ROOT / "src"
    if not (src / "hcmu" / "__init__.py").is_file():
        raise SystemExit(f"error: no hcmu sources under {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(src))
    return src


def import_seconds(src):
    """Wall time of `import hcmu` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import hcmu; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds, min_ops, max_ops=None, tracer=None):
    """Run ops until `seconds` have passed and at least `min_ops` ran, on a
    round boundary (or exactly `max_ops` ops); check each output.

    Only the ops themselves are timed: generation and checks run between
    the timed intervals.
    """
    latencies, kinds, parts, failures = [], [], [], []
    counts = Counter()
    start = time.perf_counter()
    for i, op in enumerate(workload.ops()):
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i % workload.round_len == 0 and i >= min_ops and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception:  # an unexpected error fails the op, the run goes on
            error = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        latencies.append(t1 - t0)
        kinds.append(op.kind)
        if error is None:
            try:
                part, added = op.check(out)
            except Exception:  # a failed check, or an output the check cannot read
                error = traceback.format_exc(limit=4)
        if error is not None:
            failures.append((i, op.kind, error))
            part, added = f"failed {op.kind}".encode(), Counter()
        if i < PREFIX_OPS:
            parts.append(part)
            counts.update(added)
    return {
        "latencies": latencies,
        "kinds": kinds,
        "failures": failures,
        "digest": digest_of(parts),
        "prefix_ops": len(parts),
        "counts": dict(counts),
    }


def count_metrics(counts):
    out = {}
    for name, (num, base) in COUNT_METRICS.items():
        value = counts.get(num, 0)
        if base is None:
            out[name] = {"value": value, "unit": "count"}
        else:
            total = counts.get(base, 0)
            out[name] = {"value": value / total if total else 0.0, "unit": "1", "base": total}
    return out


def latency_summary(run):
    lat = sorted(run["latencies"])
    n = len(lat)
    tail = tail_percentile(n)
    by_kind = {}
    for kind in sorted(set(run["kinds"])):
        own = sorted(t for t, k in zip(run["latencies"], run["kinds"]) if k == kind)
        by_kind[kind] = {"samples": len(own), "p50_ms": percentile(own, 50) * 1e3}
    return {
        "samples": n,
        "p50_ms": percentile(lat, 50) * 1e3,
        "p90_ms": percentile(lat, 90) * 1e3,
        "samples_beyond_p90": n - _rank(90, n),
        "tail_percentile": tail,
        "tail_ms": percentile(lat, tail) * 1e3 if tail else None,
        "timed_s": sum(lat),
        "by_kind": by_kind,
    }


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(seed):
    import networkx
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def report_failures(failures):
    for i, kind, error in failures[:5]:
        print(f"op {i} ({kind}) failed:\n{error}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = use_checkout_sources()
    imports = [import_seconds(src) for _ in range(SETUP_REPEATS)]
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    generate = []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, OUT / "work")
            generate.append(time.perf_counter() - t0)
        # a traced run spends half its time untraced and replays those ops traced
        untraced = measure(workload, args.seconds / (1 + args.trace), MIN_OPS)
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                traced = measure(workload, 0, 0, max_ops=len(untraced["latencies"]), tracer=tracer)
    finally:
        if workload is not None:
            workload.close()

    summary = latency_summary(untraced)
    failed = len(untraced["failures"])
    attempted = summary["samples"]
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "latency": summary,
        "failed_ratio": failed / attempted,
        "setup": {"import_s": imports, "generate_s": generate},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": untraced["digest"],
        "prefix_ops": untraced["prefix_ops"],
        "counts": count_metrics(untraced["counts"]),
        "provenance": provenance(args.seed),
    }
    correct = failed == 0 and attempted >= MIN_OPS
    report_failures(untraced["failures"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced is None:
        metrics = {
            "ops_per_s": {"value": attempted / summary["timed_s"], "unit": "op/s"},
            "op_p50_ms": {"value": summary["p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": summary["p90_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(map(sum, zip(imports, generate))), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    else:
        report_failures(traced["failures"])
        repeats = (traced["digest"], traced["counts"]) == (untraced["digest"], untraced["counts"])
        correct = correct and not traced["failures"] and repeats
        plain = attempted / summary["timed_s"]
        with_spans = attempted / sum(traced["latencies"])
        metrics = {}
        layers = tracing.per_span(tracer.spans)
        for span in tracing.span_names():
            calls, self_s = layers.get(span, (0, 0.0))
            metrics[f"{span}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{span}.self_s"] = {"value": self_s, "unit": "s"}
        for key, metric in count_metrics(untraced["counts"]).items():
            metrics[key] = {"value": metric["value"], "unit": metric["unit"]}
        metrics["trace.untraced_ops_per_s"] = {"value": plain, "unit": "op/s"}
        metrics["trace.traced_ops_per_s"] = {"value": with_spans, "unit": "op/s"}
        metrics["trace.overhead_ratio"] = {"value": plain / with_spans - 1, "unit": "1"}
        result["traced_digest_repeats"] = repeats
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.write(OUT / "spans" / f"{name}.jsonl")
    result["metrics"] = metrics
    result["correct"] = correct
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{name}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
