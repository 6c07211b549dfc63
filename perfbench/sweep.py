"""Run the benchmark twice over several seeds and report its run-to-run spread.

    python3 perfbench/sweep.py --workloads construct deform --seeds 1-10 --out baseline.json

Runs ``run.py`` for the ``run_seconds`` of ``BENCHMARK.json`` once per
(workload, seed), one run at a time, in two sets of the same runs, then one
traced run per workload.  For each end-to-end metric
it reports, per set, the median and the quartile spread (Q3 - Q1) as a share
of the median, and how much worse the second median is than the first; both
are judged against the metric's bound in ``BENCHMARK.json`` (the spread of
``setup_s`` is reported but not judged).  It also checks that every seed's
exact-output digest and count metrics are identical in the two sets.
``--out`` writes the whole summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_list(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload, seed, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    full = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, full


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def one_set(workload, seeds):
    runs = {}
    for seed in seeds:
        line, runs[seed] = run_once(workload, seed, 0)
        shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
        print(f"{workload} seed {seed}: correct={line['correct']} ops={line['attempted']}  {shown}", flush=True)
    return runs


def worse_by(name, first, second):
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if METRICS[name]["better"] == "lower" else -change


def sweep(workload, seeds):
    sets = [one_set(workload, seeds) for _ in range(2)]
    both = [r for runs in sets for r in runs.values()]
    names = list(sets[0][seeds[0]]["metrics"])
    out = {
        "seeds": seeds,
        "correct": all(r["correct"] for r in both),
        "failed_ratio": max(r["failed_ratio"] for r in both),
        "sets": [{n: spread([runs[s]["metrics"][n]["value"] for s in seeds]) for n in names} for runs in sets],
        "digests": {s: sets[0][s]["digest"] for s in seeds},
        "digests_and_counts_repeat": all(
            (sets[0][s]["digest"], sets[0][s]["counts"]) == (sets[1][s]["digest"], sets[1][s]["counts"])
            for s in seeds
        ),
        "provenance": {k: v for k, v in sets[0][seeds[0]]["provenance"].items() if k != "seed"},
    }
    out["judged"] = {}
    for n in names:
        first, second = (s[n] for s in out["sets"])
        bound = METRICS[n]["bound"]
        spreads = [first["spread"], second["spread"]]
        drift = worse_by(n, first["median"], second["median"])
        out["judged"][n] = {
            "bound": bound,
            "spreads": spreads,
            "second_median_worse_by": drift,
            "within_bound": drift <= bound and (n == "setup_s" or max(spreads) <= bound),
        }
    line, full = run_once(workload, seeds[0], 1)
    out["traced"] = {
        "seed": seeds[0],
        "correct": line["correct"],
        "digest_and_counts_repeat": full["traced_digest_repeats"],
        "metrics": full["metrics"],
    }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads:
        summary[workload] = result = sweep(workload, args.seeds)
        for name, j in result["judged"].items():
            medians = "  ".join(f"{s[name]['median']:.4g}" for s in result["sets"])
            spreads = "  ".join(f"{x:.3f}" for x in j["spreads"])
            print(f"  {name:12s} medians {medians}  spreads {spreads}  "
                  f"worse by {j['second_median_worse_by']:+.3f}  within bound {j['within_bound']}")
        print(f"  correct {result['correct']}  digests and counts repeat {result['digests_and_counts_repeat']}  "
              f"traced: correct {result['traced']['correct']}, repeats {result['traced']['digest_and_counts_repeat']}, "
              f"overhead {result['traced']['metrics']['trace.overhead_ratio']['value']:+.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
