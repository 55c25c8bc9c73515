"""recflow benchmark.

    python3 bench/run.py --workload {protocol,cli_train,simulate} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Builds the workload's inputs from the seed, sets up several times, then runs
operations in a closed loop for S seconds and checks every output; untraced
runs set up again after each operation, so that ``setup_s`` is sampled over
the whole run. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs half the time untraced and half
with every recflow layer wrapped in spans, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# Seed kept out of tuning; confirm a claimed gain on it before accepting it.
HELD_OUT_SEED = 9973

SETUP_MIN_SECONDS = 1.0
# After every operation of an untraced run, set up again for this long. The
# host's speed drifts between levels that last seconds to tens of seconds,
# so set-ups taken only at the start land on one level; spread over the run
# they meet the same levels as the operations.
SETUP_SLICE_SECONDS = 1.0

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS", "RECFLOW_WORKERS")


def import_program():
    """Put the checkout's ``src`` first on the path and import recflow from
    it; fail when the sources are not there."""
    src = ROOT / "src"
    if not (src / "recflow" / "__init__.py").is_file():
        raise SystemExit(f"error: recflow sources not found under {src}")
    sys.path.insert(0, str(src))
    import recflow
    if Path(recflow.__file__).resolve().parent != src / "recflow":
        raise SystemExit(f"error: imported recflow from {recflow.__file__}, "
                         f"not from {src}")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- provenance ---------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{deps.get('name')} {deps.get('version')}"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recflow").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, run_id):
    import numpy as np
    return {"run_id": run_id, "workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(),
            "blas_env": {k: os.environ[k] for k in BLAS_ENV
                         if k in os.environ},
            "git_sha": _git_sha(), "src_sha256": _source_sha256()}


# -- measuring ----------------------------------------------------------------

class Tally:
    def __init__(self):
        self.op_seconds = []
        self.attempted = 0
        self.failed = 0

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed


def run_setups(workload, seed, workdir, tracer=None):
    """Set up at least ``workload.setup_repeats`` times and for at least
    SETUP_MIN_SECONDS in all, so that a set-up of a few milliseconds still
    has a steady median; the operations use the last state."""
    from spans import SETUP
    seconds, state = [], None
    while (len(seconds) < workload.setup_repeats
           or sum(seconds) < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        if tracer is None:
            state = workload.setup(seed, workdir)
        else:
            with tracer.phase(SETUP):
                state = workload.setup(seed, workdir)
        seconds.append(time.perf_counter() - t0)
    return state, seconds


def setup_slice(workload, seed, workdir, seconds):
    """Set up again, at least once and for SETUP_SLICE_SECONDS, into a
    directory of its own, and append the timings to ``seconds``; the state
    is dropped, so the operations keep theirs."""
    os.makedirs(workdir, exist_ok=True)
    spent = 0.0
    while spent < SETUP_SLICE_SECONDS:
        t0 = time.perf_counter()
        workload.setup(seed, workdir)
        seconds.append(time.perf_counter() - t0)
        spent += seconds[-1]


def measure(workload, state, seconds, tracer=None, between=None):
    """Closed loop: run operations back to back until ``seconds`` have
    passed (at least one), timing each and checking its outputs. After each
    operation ``between()`` runs, if given; its time is not counted against
    ``seconds``."""
    from spans import CHECK, OP
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while True:
        span = tracer.open(OP) if tracer else None
        t0 = time.perf_counter()
        try:
            outputs = workload.op(state)
        except Exception:
            traceback.print_exc()
            outputs = None
        tally.op_seconds.append(time.perf_counter() - t0)
        if span is not None:
            tracer.close(span)
        if outputs is None:
            attempted = failed = workload.failures(state)
        elif tracer is None:
            attempted, failed = workload.check(state, outputs)
        else:
            with tracer.phase(CHECK):
                attempted, failed = workload.check(state, outputs)
        tally.attempted += attempted
        tally.failed += failed
        done = time.perf_counter() >= deadline
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        if done:
            return tally


def print_row(name, value, unit, note=""):
    print(f"metric {name} {value:.6g} {unit}"
          + (f"  ({note})" if note else ""))


def run(args):
    import workloads
    from spans import Tracer, per_layer_metrics

    spec = load_spec()
    run_id = uuid.uuid4().hex[:12]
    workdir = OUT_DIR / run_id
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.size)
    print(f"# recflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("provenance " + json.dumps(provenance(args, run_id),
                                     sort_keys=True))
    try:
        if args.trace:
            tracer = Tracer(run_id)
            tracer.install()
            try:
                state, setup_seconds = run_setups(workload, args.seed,
                                                  str(workdir), tracer)
            finally:
                tracer.uninstall()
            tally = measure(workload, state, args.seconds / 2)
            rows, shared = workload.report(state, tally.op_seconds)
            tracer.install()
            try:
                traced = measure(workload, state, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.write(str(OUT_DIR / f"trace-{args.workload}.jsonl"))
            # Timings stay those of the untraced half; counts cover both.
            tally.add(traced)
            metrics = per_layer_metrics(
                tracer, statistics.median(tally.op_seconds) * 1e3,
                statistics.median(traced.op_seconds) * 1e3)
            declared = spec["per_layer"]
        else:
            state, setup_seconds = run_setups(workload, args.seed,
                                              str(workdir))
            between = None
            if workload.setup_slices:
                def between():
                    setup_slice(workload, args.seed,
                                str(workdir / "setup-slice"), setup_seconds)
            tally = measure(workload, state, args.seconds, between=between)
            rows, shared = workload.report(state, tally.op_seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# workload metrics")
    for row in rows:
        print_row(*row)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_ratio = tally.failed / tally.attempted
    print_row("failed_ratio", failed_ratio, "fraction",
              f"{tally.failed} failed of {tally.attempted} attempted")
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup_seconds),
                   "peak_rss_mb": peak_rss_mb, **shared}
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured {sorted(metrics)} but "
                         f"BENCHMARK.json declares {sorted(units)}")
    print("# " + ("per-layer" if args.trace else "end-to-end")
          + " metrics (BENCHMARK.json)")
    for name in units:
        note = (f"median of {len(setup_seconds)} set-ups"
                if name == "setup_s" else "")
        print_row(name, metrics[name], units[name], note)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "cli_train", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    run(args)


if __name__ == "__main__":
    main()
