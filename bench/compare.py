"""Runs two sets of benchmark runs of the same code and checks they agree.

    python3 bench/compare.py --runs 10

Each run is ``bench/run.py`` in its own process with its own seed, for
``run_seconds`` of ``BENCHMARK.json``, on each of its workloads; set A uses
seeds 1..runs and set B the next ``runs`` seeds. For every workload and
end-to-end metric it reports each set's median and spread (the distance
between the first and third quartiles over the median) and whether the sets
agree: every run correct, each spread within the metric's bound, the two
medians apart by no more than the bound, and the same share of failed
operations in both sets. Exit code 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative when better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sets = {"A": range(1, args.runs + 1), "B": range(args.runs + 1, 2 * args.runs + 1)}

    results: dict = {}
    for workload in workloads:
        for name, seeds in sets.items():
            for seed in seeds:
                res = run_once(workload, seed, seconds, 0)
                results.setdefault(workload, {}).setdefault(name, []).append(res)
                print(f"{workload} set {name} seed {seed}: correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':<15} {'metric':<16} {'median A':>10} {'median B':>10} "
          f"{'spread A':>9} {'spread B':>9} {'drift':>7} {'bound':>6}  verdict")
    for workload, by_set in results.items():
        shares = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for n, rs in by_set.items()}
        correct = all(r["correct"] for rs in by_set.values() for r in rs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {n: [r["metrics"][name]["value"] for r in rs] for n, rs in by_set.items()}
            med = {n: statistics.median(v) for n, v in values.items()}
            spr = {n: spread(v) for n, v in values.items()}
            drift = worse_by(med["A"], med["B"], metric["better"])
            agree = max(spr.values()) <= bound and abs(drift) <= bound and shares["A"] == shares["B"] and correct
            ok &= agree
            verdict = "agree" if agree else "DISAGREE"
            if agree and max(spr.values()) > bound / 3:
                verdict = "agree (spread above a third of the bound)"
            print(f"{workload:<15} {name:<16} {med['A']:>10.4g} {med['B']:>10.4g} "
                  f"{spr['A']:>9.3f} {spr['B']:>9.3f} {drift:>7.3f} {bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
