"""rdslab benchmark: time to a verified experiment result.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop with one client: one child process at a time
imports rdslab from ``src/``, parses the workload's generated configs and
runs ``run_experiment`` on each in turn (``workers`` stays 1, BLAS
runs one thread; the effective count is recorded).  Every
repetition is a fresh process, because every CLI invocation pays matrix
assembly.

``--trace 0`` repeats the workload (at least three times, so that the
median sets one child slowed by the shared machine aside) for as long as
another child fits in ``--seconds``, with set-up-only children (at least
six, an eighth of the time) spread between the workload children, and
reports the medians of the end-to-end metrics in BENCHMARK.json:
``wall_s`` (first ``run_experiment`` to last CSV rendered), ``setup_s``
(interpreter start to configs parsed, in every child) and
``peak_rss_mb``.
``failed_share`` is the reported ``failed`` over ``attempted``: one
operation per experiment check plus one per cocycle residual row, which
must be exactly 0.0.

``--trace 1`` runs the fixed-size layer probes, then pairs of an
untraced and a traced child (at least two pairs, so that exact counts
are compared between traced children), and reports the per-layer
metrics in BENCHMARK.json (medians over the traced children).  Every
per-layer metric is reported on every workload; a layer the workload
bypasses reads 0.

Every run checks that all children produced the same CSV digests, that
the traced run is transparent, that each layer wrapper was called on the
workloads it should exercise and that every named metric is emitted with
its unit.  It reports, without failing, which digests differ from
``reference_digests.json`` and from stored runs of the same source tree and configs,
and stores its record, with machine and version facts, under
``perfbench/results/``.  The reference holds the default seed's digests,
copied from such a record when the benchmark was defined.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, config_texts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference_digests.json"
SETUP_CHILDREN = 6  # set-up-only children per timed run, at least
SETUP_SHARE = 0.125  # of a timed run's time, spent in set-up-only children
MIN_RUNS = 3  # workload children per timed run, at least
MIN_PAIRS = 2  # untraced/traced child pairs per traced run, at least
RUN_BUDGET_S = 170.0
# One BLAS thread per child.  On a small shared virtual machine (2 vCPUs)
# a two-thread BLAS call waits for whichever vCPU the host has
# descheduled, which doubled the solver workloads' child times for up to
# a minute at a stretch; pure-Python work did not show it.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts one child at a time and never outlives the run budget."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, mode: str, spans_path: Path | None = None) -> dict:
        argv = [sys.executable, str(BENCH_DIR / "child.py"), str(ROOT), mode,
                self.workload, str(self.seed)]
        if spans_path is not None:
            argv.append(str(spans_path))
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child exceeded the run budget") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr.strip()}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["setup_s"] = record["parsed_at"] - started
        record["elapsed_s"] = time.monotonic() - started
        return record


def _digests(record: dict) -> dict:
    return {e["experiment"]: e["sha256"] for e in record["experiments"]}


def _operations(records: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for record in records:
        for entry in record["experiments"]:
            attempted += entry["attempted"]
            failed += entry["failed"]
            if "error" in entry:
                problems.append(f"{entry['experiment']} raised:\n{entry['error']}")
            problems += entry.get("failed_checks", [])
            if any(r != 0.0 for r in entry.get("residuals", ())):
                problems.append(f"cocycle residuals not exactly 0.0: {entry['residuals']}")
    return attempted, failed, problems


def _fits(started: float, seconds: float, *children: dict) -> bool:
    """Whether children as long as the given ones would end within `seconds`."""
    return time.monotonic() - started + sum(c["elapsed_s"] for c in children) < seconds


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    started = time.monotonic()
    setups, runs = [], []
    setup_spent = 0.0
    while (len(runs) < MIN_RUNS or len(setups) < SETUP_CHILDREN
           or _fits(started, seconds, runs[-1])):
        # Set-up-only children are spread through the run, so that their
        # median samples the same stretch of machine time as the workload.
        if (setup_spent <= SETUP_SHARE * (time.monotonic() - started)
                or (len(runs) >= MIN_RUNS and len(setups) < SETUP_CHILDREN)):
            setup = runner.child("setup")
            setups.append(setup["setup_s"])
            setup_spent += setup["elapsed_s"]
        else:
            runs.append(runner.child("run"))
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    notes = [f"{len(runs)} workload children, {len(setups)} set-up samples"]
    return metrics, runs, notes


def traced_run(runner: Runner, seconds: float, declared: list[dict],
               spans_path: Path) -> tuple[dict, list[dict], list[str], list[str]]:
    started = time.monotonic()
    probes = runner.child("probe")["probes"]
    plain, traced = [], []
    while len(traced) < MIN_PAIRS or _fits(started, seconds, plain[-1], traced[-1]):
        plain.append(runner.child("run"))
        traced.append(runner.child("trace", None if traced else spans_path))
    problems = []
    layers = {}
    exact = {m["name"] for m in declared if m["unit"] in ("count", "ratio")}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        if name not in exact:
            layers[name] = statistics.median(values)
            continue
        layers[name] = values[0]
        if len(set(values)) > 1:
            problems.append(f"count {name} differs between traced children: {values}")
    transparent = all(_digests(r) == _digests(plain[0]) for r in traced)
    if not transparent:
        problems.append("traced children's CSV digests differ from the untraced ones")
    for t in traced:
        problems += [f"wrapper {w} had no call on {runner.workload}" for w in t["missing_calls"]]
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics = {
        **layers,
        **probes,
        "process.cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    notes = [f"{len(traced)} traced and {len(plain)} untraced children",
             f"traced run transparent (same CSV digests as untraced): {transparent}",
             f"layer metrics at 0 (bypassed): {sorted(n for n, v in layers.items() if v == 0) or 'none'}",
             f"wrappers not installed (target absent): {traced[0]['missing_targets'] or 'none'}"]
    return metrics, plain + traced, notes, problems


def machine_facts(child_facts: dict) -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        **child_facts,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def digest_report(records: list[dict], workload: str, seed: int, source: str) -> tuple[dict, list[str], list[str]]:
    """This run's digests; report lines; problems (digests differing inside one run)."""
    digests = _digests(records[0])
    problems = [f"child digests differ: {_digests(r)} vs {digests}"
                for r in records[1:] if _digests(r) != digests]
    lines = [f"csv digests agree across all {len(records)} children of this run: {not problems}"]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    stored = reference.get(workload, {}).get(str(seed))
    if stored is None:
        lines.append(f"no stored reference digests for {workload} at seed {seed}")
    else:
        moved = sorted(k for k in digests.keys() | stored.keys() if digests.get(k) != stored.get(k))
        lines.append(f"digests differing from the stored reference: {moved or 'none'}")
    earlier = []
    configs = config_texts(workload, seed)
    for path in sorted(RESULTS_DIR.glob(f"{workload}-seed{seed}-trace*.json")):
        record = json.loads(path.read_text())
        if record["facts"]["source_sha256"] == source and record.get("configs") == configs:
            earlier.append(record["digests"] == digests)
    lines.append(f"earlier runs of this source tree and these configs: {len(earlier)}, "
                 f"{earlier.count(False)} with other digests")
    return digests, lines, problems


def check_metric_names(metrics: dict, declared: list[dict]) -> tuple[dict, list[str]]:
    """Attach units from BENCHMARK.json; every declared metric must be emitted."""
    emitted = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in metrics}
    problems = [f"metric {m['name']} not emitted" for m in declared if m["name"] not in metrics]
    problems += [f"metric {name} emitted but not declared" for name in metrics
                 if name not in emitted]
    return emitted, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "rdslab" / "__init__.py").is_file():
        print(f"error: no rdslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            declared = bench["per_layer"]
            spans_path = RESULTS_DIR / "spans" / f"{stamp}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            metrics, records, notes, problems = traced_run(runner, args.seconds, declared, spans_path)
        else:
            metrics, records, notes = timed_run(runner, args.seconds)
            problems, declared = [], bench["end_to_end"]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    facts = machine_facts(records[0]["facts"])
    attempted, failed, op_problems = _operations(records)
    digests, digest_lines, digest_problems = digest_report(
        records, args.workload, args.seed, facts["source_sha256"])
    emitted, name_problems = check_metric_names(metrics, declared)
    problems += op_problems + digest_problems + name_problems
    correct = failed == 0 and not problems

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: " + "; ".join(notes))
    for key, value in facts.items():
        print(f"  fact {key} = {value}")
    for name, entry in emitted.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_share = {failed}/{attempted} operations")
    for line in digest_lines:
        print(f"  {line}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "configs": config_texts(args.workload, args.seed),
        "facts": facts, "digests": digests,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "problems": problems, "children": records,
    }
    (RESULTS_DIR / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": emitted}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
