"""The program's process for one benchmark run.

Reads a plan written by ``run.py``, moves itself to the plan's one core,
imports ``arground`` from the checkout's ``src/`` and runs whole rounds of the
workload's CLI sequence through ``arground.cli.main`` until the run's time is
up. Each command is timed for wall and CPU (user + system of this process, all
threads). After each round the artifacts are hashed, so the caller can check
that reruns are byte-identical, and one set-up is timed in a fresh interpreter
(``setup_probe.py``). Spread over the run, the set-up probes do not all fall
in the few seconds after it starts; on a shared machine whose speed shifts
from one second to the next, their median then rests on the whole run.

With tracing on, rounds alternate between untraced and traced (the tracer's
wrappers are installed and removed between rounds); the difference between
the two medians is the tracing overhead. Without tracing, no wrapper is ever
installed.

Usage: python3 bench/worker.py <plan.json> <result.json>
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import urllib.request
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _hash_files(paths: list[str]) -> dict[str, str]:
    return {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _setup_time(argv: list[str]) -> float:
    """One fresh-interpreter set-up, from starting the probe to reading its ready line."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def _set_stub_phase(url: str, name: str) -> None:
    with urllib.request.urlopen(f"{url}/control/phase/{name}", timeout=10) as response:
        response.read()


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    os.sched_setaffinity(0, {plan["cpu"]})  # threads started later inherit it
    sys.path.insert(0, str(Path(plan["root"]) / "src"))
    from arground import cli

    tracer = None
    rounds: list[dict] = []
    setup: list[float] = []

    def run_round(traced: bool) -> None:
        gc.collect()
        commands = []
        round_start, round_cpu = time.perf_counter(), _cpu_s()
        for command in plan["commands"]:
            start, cpu = time.perf_counter(), _cpu_s()
            if traced:
                rc = tracer.span(command["span"], cli.main, command["argv"])
            else:
                rc = cli.main(command["argv"])
            commands.append({
                "name": command["name"],
                "rc": rc,
                "wall_s": time.perf_counter() - start,
                "cpu_s": _cpu_s() - cpu,
            })
        record = {
            "traced": traced,
            "wall_s": time.perf_counter() - round_start,
            "cpu_s": _cpu_s() - round_cpu,
            "commands": commands,
            "hashes": _hash_files([p for p in plan["artifacts"] if Path(p).exists()]),
        }
        if plan.get("stats_file") and Path(plan["stats_file"]).exists():
            record["stats"] = json.loads(Path(plan["stats_file"]).read_text(encoding="utf-8"))
        rounds.append(record)
        if traced:
            tracer.reset_round()

    seconds = float(plan["seconds"])
    start = time.perf_counter()
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    _setup_time(plan["setup_argv"])  # fills the bytecode caches; not counted
    # With tracing, rounds alternate untraced and traced, starting untraced.
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        elif tracer:
            tracer.remove()
        if plan.get("stub_url"):
            _set_stub_phase(plan["stub_url"], "traced" if traced else "untraced")
        run_round(traced)
        setup.append(_setup_time(plan["setup_argv"]))
    if tracer:
        tracer.remove()
    while len(setup) < plan["setup_repeats"]:
        setup.append(_setup_time(plan["setup_argv"]))

    result = {
        "rounds": rounds,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.summary(sum(1 for r in rounds if r["traced"])) if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
