"""One benchmark child process: set up, run a workload's configs, report.

``run.py`` starts a fresh child for every repetition, because every CLI
invocation pays matrix assembly: no rdslab cache may be warm before
timing.  The child imports rdslab from ``<root>/src`` only, so a
checkout without the program fails here instead of timing something
else.

Usage: python3 perfbench/child.py ROOT MODE WORKLOAD SEED [SPANS_PATH]

MODE is ``setup`` (import and parse only), ``run`` (untraced workload),
``trace`` (workload under the layer wrappers) or ``probe`` (layer
probes).  The last line on stdout is one JSON record.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

from workloads import CHECK_COUNTS, config_texts


def _blas_facts() -> dict:
    """BLAS name, version and the thread count it will actually use."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.split()[-1].lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def _run_workload(rdslab, specs, tracer) -> dict:
    experiments = []
    texts = []
    started = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        entry = {"experiment": spec.experiment}
        try:
            if tracer is None:
                result = rdslab.run_experiment(spec)
                texts.append(result.csv_text())
            else:
                with tracer.span(f"experiments.{spec.experiment}", "experiments"):
                    result = rdslab.run_experiment(spec)
                    texts.append(result.csv_text())
        except Exception:  # an experiment that raises fails all of its checks
            entry["error"] = traceback.format_exc()
            entry["attempted"] = entry["failed"] = CHECK_COUNTS[spec.experiment]
            texts.append(None)
        else:
            entry["attempted"] = len(result.checks)
            entry["failed"] = sum(not check.passed for check in result.checks)
            entry["failed_checks"] = [c.line() for c in result.checks if not c.passed]
            if spec.experiment == "cocycle":
                # The cocycle identity must hold bit-exactly, tighter than the
                # experiment's own 10 dt bound: every residual row is an operation.
                residuals = [row[1] for row in result.rows]
                entry["residuals"] = residuals
                entry["attempted"] += len(residuals)
                entry["failed"] += sum(r != 0.0 for r in residuals)
        entry["wall_s"] = time.perf_counter() - t0
        experiments.append(entry)
    wall_s = time.perf_counter() - started
    for entry, text in zip(experiments, texts):
        entry["sha256"] = None if text is None else hashlib.sha256(text.encode()).hexdigest()
    return {"wall_s": wall_s, "experiments": experiments}


def main(argv: list[str]) -> int:
    root, mode, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import rdslab

    if os.path.commonpath([os.path.abspath(rdslab.__file__), src]) != src:
        print(f"error: rdslab imported from {rdslab.__file__}, not {src}", file=sys.stderr)
        return 2
    specs = [rdslab.parse_config(text) for text in config_texts(workload, seed)]
    record = {"parsed_at": time.monotonic()}

    if mode == "probe":
        from probes import run_probes

        record["probes"] = run_probes(rdslab, seed)
    elif mode in ("run", "trace"):
        tracer = missing = None
        if mode == "trace":
            import layertrace

            tracer = layertrace.Tracer()
            missing = layertrace.install(tracer)
        record.update(_run_workload(rdslab, specs, tracer))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record["cpu_s"] = usage.ru_utime + usage.ru_stime
        record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        record["facts"] = {"rdslab_version": rdslab.__version__, **_blas_facts()}
        if tracer is not None:
            record["layers"] = layertrace.layer_metrics(tracer)
            record["missing_targets"] = missing
            record["missing_calls"] = layertrace.missing_calls(tracer, workload, missing)
            if spans_path:
                with open(spans_path, "w", encoding="utf-8") as handle:
                    json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                               "spans": tracer.spans}, handle)
    elif mode != "setup":
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
