"""Runs one workload of the arground benchmark, or all three, and checks it.

    python3 bench/run.py --workload eval_longtext --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

For each workload: generate the seeded corpus under ``bench/_work/``, start
the stub model if the workload needs one, run the program in its own process
for ``--seconds`` (whole rounds of the workload's CLI sequence, each followed
by one timed set-up in a fresh interpreter), stop the stub, check the outputs,
and print the metrics. With ``--trace 0`` the metrics are the
end-to-end ones in ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when the
outputs are correct, 1 when they are not, and 2 when the benchmark cannot
run (for example, the program's sources are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402

WORKLOADS = ("eval_longtext", "reject_messy", "multistep_http")
SETUP_REPEATS = 11
WORKER_GRACE_S = 120


def in_flight() -> int:
    """Requests in flight per command: one per core this process may use."""
    return len(os.sched_getaffinity(0))


def cpus() -> tuple[int, set[int]]:
    """The core the program's process runs on, and the cores left for the stub.

    Threads that hand the GIL to each other across cores wait for the other
    core to wake; on a shared VM that wait moves with the host's load and cost
    `reject_messy` from 5% to 60% of a round. On one core the hand-off stays
    cheap, and a GIL-bound process uses one core of Python work at a time.
    """
    allowed = os.sched_getaffinity(0)
    program = max(allowed)
    return program, (allowed - {program}) or allowed


def _plan(workload: str, work: Path) -> dict:
    """The workload's CLI sequence, with paths relative to the checkout root."""
    w = work.relative_to(ROOT)
    common = ["--dialogues", f"{w}/dialogues.jsonl", "--schemas", f"{w}/catalog.json",
              "--in-flight", str(in_flight())]
    if workload == "eval_longtext":
        commands = [
            {"name": "fill", "argv": ["fill", "--mode", "default", "--backend", f"replay:{w}/replay.jsonl",
                                      *common, "--out", f"{w}/fill.jsonl"]},
            {"name": "evaluate", "argv": ["evaluate", "--pred", f"{w}/fill.jsonl", "--gold", f"{w}/dialogues.jsonl",
                                          "--schemas", f"{w}/catalog.json", "--out", f"{w}/metrics.csv",
                                          "--scored-out", f"{w}/scored.jsonl", "--dataset", "bench",
                                          "--split", "test"]},
            {"name": "report", "argv": ["report", "--breakdowns", f"{w}/scored.jsonl", "--group-by", "split",
                                        "--out", f"{w}/panel.csv"]},
        ]
        main, backend = "evaluate", f"replay:{w}/replay.jsonl"
        outputs = ["fill.jsonl", "metrics.csv", "scored.jsonl", "panel.csv"]
        metas = ["fill.jsonl", "metrics.csv", "panel.csv"]
    elif workload == "reject_messy":
        commands = [
            {"name": "reject_sample", "argv": ["reject-sample", "--backend", f"replay:{w}/replay.jsonl",
                                               "--k", str(corpus.REJECT_K), *common,
                                               "--out", f"{w}/augmented.jsonl"]},
        ]
        main, backend = "reject_sample", f"replay:{w}/replay.jsonl"
        outputs = ["augmented.jsonl", "augmented.jsonl.stats.json"]
        metas = ["augmented.jsonl"]
    else:
        commands = [
            {"name": "fill", "argv": ["fill", "--mode", "multistep", "--backend", f"http:{corpus.STUB_MODEL}",
                                      *common, "--out", f"{w}/multistep.jsonl"]},
        ]
        main, backend = "fill", f"http:{corpus.STUB_MODEL}"
        outputs = ["multistep.jsonl"]
        metas = ["multistep.jsonl"]
    for command in commands:
        command["span"] = f"cli.{command['name']}"
    setup_argv = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), f"{w}/catalog.json",
                  f"{w}/dialogues.jsonl", backend]
    return {
        "root": str(ROOT),
        "cpu": cpus()[0],
        "commands": commands,
        "setup_argv": setup_argv,
        "setup_repeats": SETUP_REPEATS,
        "main": main,
        "backend": backend,
        "artifacts": [f"{w}/{name}" for name in outputs] + [f"{w}/{name}.meta.json" for name in metas],
        "stats_file": f"{w}/augmented.jsonl.stats.json" if workload == "reject_messy" else "",
    }


class Stub:
    """The stub model in its own process; stopped and waited for on exit."""

    def __init__(self, index: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_llm.py"), "--index", str(index)],
            stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.proc.pid, cpus()[1])
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub model did not start")
        self.url = f"http://127.0.0.1:{port}"

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=10) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        return self._get("/control/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self._get("/control/shutdown")
                self.proc.wait(timeout=10)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _median(values):
    return statistics.median(values) if values else 0.0


def _operations(rounds: list[dict], n_dialogues: int) -> tuple[int, int]:
    """Dialogues attempted per command, and those in a failed command or skipped."""
    attempted = failed = 0
    for record in rounds:
        for command in record["commands"]:
            attempted += n_dialogues
            if command["rc"] != 0:
                failed += n_dialogues
            elif record.get("stats"):
                failed += record["stats"].get("skipped_dialogues", 0)
    return attempted, failed


def end_to_end(plan: dict, result: dict, n_dialogues: int) -> dict:
    rounds = [r for r in result["rounds"] if not r["traced"]]
    main_walls = [c["wall_s"] for r in rounds for c in r["commands"] if c["name"] == plan["main"]]
    return {
        "setup_s": _median(result["setup_s"]),
        "wall_s": _median([r["wall_s"] for r in rounds]),
        "cpu_s": _median([r["cpu_s"] for r in rounds]),
        "peak_rss_mb": result["peak_rss_mb"],
        "dialogues_per_s": n_dialogues / _median(main_walls),
    }


def per_layer(names: list[str], result: dict, stub_stats: dict | None) -> dict:
    trace = result["trace"]
    spans = trace["spans"]
    traced = [r for r in result["rounds"] if r["traced"]]
    untraced = [r for r in result["rounds"] if not r["traced"]]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    generate_calls = span("generation.generate", "calls")
    phase = (stub_stats or {}).get("traced", {})
    per_round = len(traced)
    requests = phase.get("requests", 0) / per_round
    connections = phase.get("connections", 0) / per_round
    wait_s = phase.get("wait_s", 0.0) / per_round
    dialogue_ms = sorted(ms for p in (stub_stats or {}).values() for ms in p["dialogue_ms"])
    stats = traced[-1].get("stats") or {}
    extract_calls = span("parsing.extract_argument_map", "calls")
    special = {
        "parsing.failed": span("parsing.extract_argument_map", "raised"),
        "parsing.parsed_per_call": (
            (extract_calls - span("parsing.extract_argument_map", "raised")) / extract_calls if extract_calls else 0.0
        ),
        "fuzzy.repeat_pair_share": trace["repeat_pair_share"]["all"],
        "fuzzy.long_pair_repeat_share": trace["repeat_pair_share"]["long"],
        "sampler.kept_per_generated": stats["kept"] / stats["generated"] if stats.get("generated") else 0.0,
        "http.requests": requests,
        "http.connections": connections,
        "http.connections_per_request": connections / requests if requests else 0.0,
        "http.retries": max(0.0, requests - generate_calls) if requests else 0.0,
        "http.wait_s": wait_s,
        "http.client_ms_per_request": (
            (span("generation.generate", "busy_s") - wait_s) / generate_calls * 1000.0 if requests else 0.0
        ),
        "http.dialogue_ms_p50": statistics.quantiles(dialogue_ms, n=100)[49] if len(dialogue_ms) >= 2 else 0.0,
        "http.dialogue_ms_p90": statistics.quantiles(dialogue_ms, n=100)[89] if len(dialogue_ms) >= 2 else 0.0,
        "http.dialogue_samples": len(dialogue_ms),
        "trace.overhead_s": _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in untraced]),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            span_name, _, field = name.rpartition(".")
            out[name] = span(span_name, field)
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    labels = corpus.generate(workload, seed, work, ROOT)
    plan = _plan(workload, work)
    plan.update(seconds=seconds, trace=trace)
    n_dialogues = len(labels["dialogues"])

    env = dict(os.environ, ARGROUND_API_KEY="bench-key")
    env.pop("ARGROUND_MODEL", None)

    stub = Stub(work / "stub_index.json") if workload == "multistep_http" else None
    stub_stats = None
    try:
        if stub:
            env["ARGROUND_BASE_URL"] = stub.url + "/v1"
            plan["stub_url"] = stub.url
        (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(work / "plan.json"), str(work / "result.json")],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=seconds + WORKER_GRACE_S,
        )
        if stub:
            stub_stats = stub.stats()
    finally:
        if stub:
            stub.close()
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    rounds = result["rounds"]
    attempted, failed = _operations(rounds, n_dialogues)
    problems = checks.rerun_identical(rounds)
    problems += [f"round {i}: {c['name']} exited {c['rc']}"
                 for i, r in enumerate(rounds, 1) for c in r["commands"] if c["rc"] != 0]
    misses = sum(p["misses"] for p in (stub_stats or {}).values())
    if misses:
        problems.append(f"the stub model got {misses} unknown prompts")
    try:  # the checks run whatever failed, so a missing artifact is a problem too
        if workload == "eval_longtext":
            problems += checks.check_eval_longtext(work, labels, corpus.load_oracle(ROOT))
        elif workload == "reject_messy":
            problems += checks.check_reject_messy(work, labels)
        else:
            problems += checks.check_multistep_http(work, labels)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"outputs missing or malformed: {exc!r}")
    if trace and result["trace"]["missing"]:
        print(f"{workload}: not traced, their metrics read 0: {result['trace']['missing']}", file=sys.stderr)

    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = per_layer(names, result, stub_stats)
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(plan, result, n_dialogues)
    return {
        "workload": workload,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arground benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arground" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print("error: the program's sources (src/arground) or tests/oracle.py are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace), bench))
    except (RuntimeError, OSError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: benchmark could not run: {exc!r}", file=sys.stderr)
        return 2

    for res in results:
        for problem in res["problems"][:20]:
            print(f"{res['workload']}: CHECK FAILED: {problem}", file=sys.stderr)
        print(f"# {res['workload']}: rounds={res['rounds']} attempted={res['attempted']} "
              f"failed={res['failed']} correct={res['correct']}")
        for name, metric in res["metrics"].items():
            print(f"{res['workload']:<15} {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
