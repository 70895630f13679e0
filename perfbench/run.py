"""ivrand benchmark: end-to-end and per-layer metrics of the report pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` times the pipeline untraced and reports the end-to-end metrics
(report_s, setup_s, peak_rss_mb); ``--trace 1`` cycles through untraced calls,
traced calls and traced calls with ``tracemalloc``, and reports the per-layer
metrics.  ``--workload all`` runs every
workload in its own process and prints one table.  The last line of standard
output is always one JSON object; see perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
MIN_CALLS = 2          # the same-seed determinism check needs two reports
TRACE_MODES = ("untraced", "timed", "memory")
SETUP_TIMEOUT_S = 120
# time a workload process may take beyond --seconds: its set-up processes, the
# input build and the call running at the deadline
RUN_MARGIN_S = 300

# The reference job: a fixed pure-Python loop plus a small enumeration written
# into a numpy matrix.  It uses no ivrand code, so its time tracks only the
# host's speed.  REFERENCE_S is about its time on the host of README.md when
# that host is quiet.
REFERENCE_LOOP = 1_500_000
REFERENCE_N, REFERENCE_T = 17, 8
REFERENCE_S = 0.15

sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_report, without_timestamp  # noqa: E402


def _import_ivrand():
    """Import ivrand from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "ivrand", "__init__.py")):
        raise SystemExit(f"benchmark: no ivrand sources under {SRC}")
    sys.path.insert(0, SRC)
    import ivrand

    if os.path.dirname(os.path.dirname(os.path.abspath(ivrand.__file__))) != SRC:
        raise SystemExit(f"benchmark: ivrand imported from {ivrand.__file__}")
    return ivrand


def _setup_child(workload, seed: int, workdir: str) -> None:
    """Time a fresh ``import ivrand`` plus building the input, in this process,
    then the reference job."""
    if "numpy" in sys.modules or "ivrand" in sys.modules:
        raise SystemExit("benchmark: set-up process is not fresh")
    start = time.perf_counter()
    _import_ivrand()
    workload.build(seed, workdir)
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "reference_s": _reference_s()}))


def _python_child(args: list[str], timeout: float) -> str:
    try:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                              capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: child {args} did not end within {timeout} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark: child {args} exited with {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def _measure_setup(name: str, seed: int, rundir: str) -> list[dict]:
    """Set-up and reference job times of SETUP_REPEATS fresh processes."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(rundir, f"setup{i}")
        os.makedirs(workdir)
        line = _python_child(["--workload", name, "--seed", str(seed),
                              "--setup-child", workdir], SETUP_TIMEOUT_S)
        times.append(json.loads(line))
        shutil.rmtree(workdir)
    return times


def _reference_s() -> float:
    """Wall time of one run of the reference job."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    rows = np.zeros((math.comb(REFERENCE_N, REFERENCE_T), REFERENCE_N), dtype=np.int8)
    for i, combo in enumerate(itertools.combinations(range(REFERENCE_N), REFERENCE_T)):
        rows[i, list(combo)] = 1
    return time.perf_counter() - start


def _scaled(walls: list[float], references: list[float]) -> list[float]:
    """Each call's wall time at the host speed where the reference takes REFERENCE_S.

    ``references[i]`` and ``references[i + 1]`` are the reference times just
    before and just after call ``i``.
    """
    return [wall * REFERENCE_S / ((references[i] + references[i + 1]) / 2)
            for i, wall in enumerate(walls)]


def _environment(workload, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ivrand")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload.name,
        "seed": seed,
        "threads": workload.threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _loop(workload, inputs, seconds: float, tracer=None):
    """Closed loop of pipeline calls for about ``seconds`` seconds.

    Returns (untraced wall times, {mode: [(wall time, report index)]} of the
    traced calls, reference job times, attempted, failed).  On a workload
    scaled to the reference, an untraced run times the reference job before
    every call and after the last one.  With a tracer, calls cycle through
    TRACE_MODES.  A call is not started when the mean call time says it would
    end past the deadline, once every mode (at least MIN_CALLS calls) has run.
    """
    untraced, traced, references = [], {"timed": [], "memory": []}, []
    attempted = failed = 0
    min_calls = MIN_CALLS if tracer is None else max(MIN_CALLS, len(TRACE_MODES))
    first_report = None
    with_reference = tracer is None and workload.scaled
    start = time.perf_counter()
    while True:
        if with_reference:
            references.append(_reference_s())
        mode = "untraced" if tracer is None else TRACE_MODES[attempted % len(TRACE_MODES)]
        trace_this = mode != "untraced"
        if trace_this:
            tracer.begin_report(attempted, memory=mode == "memory")
        t0 = time.perf_counter()
        try:
            text = workload.call(inputs)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed report counts, the loop goes on
            elapsed = time.perf_counter() - t0
            text, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            if trace_this:
                tracer.end_report()
        if text is not None:
            try:
                problems = check_report(workload, inputs, text)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
            stamped = without_timestamp(text)
            if first_report is None:
                first_report = stamped
            elif stamped != first_report:
                problems.append("report differs from the first same-seed report")
        attempted += 1
        if problems:
            failed += 1
            print(f"report {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        if trace_this:
            traced[mode].append((elapsed, attempted - 1))
        else:
            untraced.append(elapsed)
        print(f"call {attempted}: {elapsed:.4f} s {mode}")
        spent = time.perf_counter() - start
        if attempted >= min_calls and spent + spent / attempted > seconds:
            if with_reference:
                references.append(_reference_s())
            return untraced, traced, references, attempted, failed


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.join(OUT, f"run-{name}-{seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        setup = [] if trace else _measure_setup(name, seed, rundir)
        _import_ivrand()
        env = _environment(workload, seed)
        tracer = None
        if trace:
            import layers
            from spans import Tracer

            tracer = Tracer()
            layers.install(tracer)
        inputs, generate_s = workload.build(seed, rundir)
        untraced, traced, references, attempted, failed = _loop(workload, inputs,
                                                                seconds, tracer)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    if trace:
        per_mode = {
            mode: [layers.report_metrics([s for s in tracer.spans if s.report == index],
                                         wall)
                   for wall, index in calls]
            for mode, calls in traced.items()
        }
        values = layers.run_metrics(per_mode["timed"], per_mode["memory"], untraced,
                                    generate_s)
        units = layers.PER_LAYER_UNITS
        tracer.write(f"{stem}-spans.json", {"environment": env})
        ratio = values["trace.self_sum_s"] / values["trace.report_s"]
        print(f"layer self times sum to {ratio:.4f} of the traced report_s")
    else:
        report_s = statistics.median(untraced)
        if workload.scaled:
            print(f"unscaled report_s {report_s:.4f} s, reference job "
                  f"{statistics.median(references):.4f} s")
            report_s = statistics.median(_scaled(untraced, references))
        print("unscaled setup_s "
              f"{statistics.median(s['setup_s'] for s in setup):.4f} s")
        values = {
            "report_s": report_s,
            "setup_s": statistics.median(s["setup_s"] * REFERENCE_S / s["reference_s"]
                                         for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "report_times_s": untraced,
                   "reference_times_s": references,
                   "traced_times_s": {m: [t for t, _ in c] for m, c in traced.items()},
                   "setup_times_s": setup,
                   "result": result}, fh, indent=1)
        fh.write("\n")
    print("environment " + json.dumps(env))
    print(f"{name}: {attempted} reports, fail_frac {failed / attempted:.4f}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    results = {}
    print(f"{'workload':8} {'report_s':>10} {'setup_s':>9} {'peak_rss_mb':>12} "
          f"{'fail_frac':>9}")
    for name in WORKLOADS:
        try:
            line = _python_child(["--workload", name, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"],
                                 seconds + RUN_MARGIN_S)
        except SystemExit as exc:
            results[name] = {"correct": False, "error": str(exc)}
            print(f"{name:8} {exc}")
            continue
        res = results[name] = json.loads(line)
        m = res["metrics"]
        print(f"{name:8} {m['report_s']['value']:10.4f} {m['setup_s']['value']:9.4f} "
              f"{m['peak_rss_mb']['value']:12.1f} "
              f"{res['failed'] / res['attempted']:9.4f}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_child:
        _setup_child(WORKLOADS[args.workload], args.seed, args.setup_child)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
