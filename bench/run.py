"""Unitarizer benchmark: one workload per process, closed loop, one client.

Usage (from the repository root)::

    python3 bench/run.py --workload generic --seed 0 --seconds 5 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the run measures end-to-end figures; with ``--trace 1`` it
runs every instance untraced and traced, back to back, and reports
per-layer figures, the tracing overhead and whether the traced output is
byte-identical to the untraced one.  Every instance is checked by the
correctness gate in ``ops.py``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full table, run metadata, failures and per-instance
times go to ``bench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread; must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _import_program():
    """Put ``src/`` first on the path and import the package from there."""
    if not (SRC / "unitarizer" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC}/unitarizer")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import unitarizer

    if Path(unitarizer.__file__).resolve().parent != SRC / "unitarizer":
        sys.exit(f"bench: unitarizer imported from {unitarizer.__file__}, not {SRC}")


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest sample with >= 10 beyond it.

    With 10 or fewer samples no such sample exists and the maximum is used.
    """
    return n - 11 if n > 10 else n - 1


def metadata(wl, seed: int) -> dict:
    import numpy
    import scipy
    import workloads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": wl.name,
        "seed": seed,
        "eps": workloads.EPS,
        "max_iter": wl.max_iter,
        "path": wl.path,
        "instances": len(wl.plan),
    }


def run_pass(wl, instances, workdir):
    """One closed-loop pass: each instance starts when the previous ends."""
    import ops

    return [ops.run_instance(wl, inst, workdir, False, nullcontext) for inst in instances]


def more_passes(wl, passes, seconds) -> bool:
    """Whether to run another pass: until ``seconds`` of timed work are
    measured and the workload's minimum number of passes has run."""
    measured = sum(o.seconds for p in passes for o in p)
    return len(passes) < wl.min_passes or measured < seconds


def run_passes(wl, cases, workdir, seconds):
    """Timed passes, with the run's timed set-ups spread among them.

    The ``wl.setup_reps`` set-ups are split over the gaps before, between
    and after the ``wl.min_passes`` passes, and an import probe follows
    each pass, so that the set-up figures sample the machine's speed at
    several moments of the run, not at one.  Each pass runs on the
    instances of the latest set-up; set-up is deterministic, so they are
    the same instances every time.
    """
    per_gap = -(-wl.setup_reps // (wl.min_passes + 1))
    instances, passes, setup_times, import_times = None, [], [], []

    def set_up(reps):
        nonlocal instances
        for _ in range(min(reps, wl.setup_reps - len(setup_times))):
            instances, t = set_up_timed(wl, cases, workdir)
            setup_times.append(t)

    while more_passes(wl, passes, seconds):
        set_up(per_gap)
        passes.append(run_pass(wl, instances, workdir))
        import_times.append(import_probe(wl))
    set_up(wl.setup_reps)
    return instances, passes, setup_times, import_times


def import_probe(wl) -> float:
    """The imports of a fresh benchmark process, timed in a child process.

    The run's own imports happen once, at its start; these probes sample
    the same imports again after each pass.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name, "--imports-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def run_paired_pass(wl, instances, workdir, tracer, flip=0):
    """Each instance untraced and traced, back to back, both outputs kept.

    Which of the two runs first alternates from instance to instance and,
    through ``flip``, from pass to pass, so that a difference between a
    first and a second run tends to cancel out of the overhead.
    """
    import ops
    import tracing

    def untraced(inst):
        return ops.run_instance(wl, inst, workdir, True, nullcontext)

    def traced(inst):
        tracer.install()
        try:
            with tracer.root(tracing.INSTANCE, inst.case.id):
                return ops.run_instance(wl, inst, workdir, True, tracer.quiet)
        finally:
            tracer.restore()

    plain, spanned = [], []
    for k, inst in enumerate(instances):
        if (k + flip) % 2:
            spanned.append(traced(inst))
            plain.append(untraced(inst))
        else:
            plain.append(untraced(inst))
            spanned.append(traced(inst))
    return plain, spanned


def set_up_timed(wl, cases, workdir):
    import workloads

    t0 = time.perf_counter()
    instances = workloads.set_up(wl, cases, workdir)
    return instances, time.perf_counter() - t0


def warm_up(wl, workdir):
    """First calls of every path the workload uses, on one tiny instance."""
    import workloads

    tiny = workloads.warmup_workload(wl)
    insts = workloads.set_up(tiny, tiny.cases(0), workdir)
    outcome = run_pass(tiny, insts, workdir)[0]
    if outcome.failure:
        raise RuntimeError(f"warm-up instance failed: {outcome.failure}")


def end_to_end(passes, setup_s):
    """End-to-end figures of the untraced passes.

    A pass's time and each instance's time are taken at their minimum over
    the run's passes: the one least disturbed by other load on the machine.
    """
    per_instance = sorted(min(times) for times in zip(*(
        [o.seconds for o in p] for p in passes)))
    flat = [o for p in passes for o in p]
    units = sum(o.units for o in flat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    k = tail_index(len(per_instance))
    return {
        "wall_s": (min(sum(o.seconds for o in p) for p in passes), "s"),
        "instance_p50_s": (statistics.median(per_instance), "s"),
        "instance_tail_s": (per_instance[k], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "failed_frac": (sum(o.failure is not None for o in flat) / len(flat), "1"),
        "unit_certified_frac": (
            sum(o.units_certified for o in flat) / units if units else 0.0, "1"),
        "instance_certified_frac": (sum(o.certified for o in flat) / len(flat), "1"),
    }, {
        "passes": len(passes),
        "instances_per_pass": len(per_instance),
        "tail_rank": k + 1,
        "tail_samples_beyond": len(per_instance) - k - 1,
    }


def listed_metrics(key: str) -> list:
    """Metric names that BENCHMARK.json lists under ``key``."""
    with open(BENCHMARK_JSON) as f:
        return [m["name"] for m in json.load(f)[key]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="non-negative workload seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--imports-only", action="store_true",
                    help="print the time the imports took and exit (see import_probe)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    cases = wl.cases(args.seed)
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")
    import_s = time.perf_counter() - T_START
    if args.imports_only:
        print(repr(import_s))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        spans_csv = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.csv"
        result = measure(wl, cases, args, workdir, import_s, spans_csv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = result
    meta = metadata(wl, args.seed)
    failures = extra.pop("failures")
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as f:
        json.dump({"meta": meta, "run": extra, "failures": failures,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  f, indent=1, sort_keys=True)
        f.write("\n")

    for cat, inst, reason in failures:
        print(f"failed {inst} [{cat}]: {reason}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    print("run " + json.dumps({k: v for k, v in extra.items() if k != "instance_s"},
                              sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {wl.name} {name} {value!r} {unit}")

    print(json.dumps({
        "correct": extra["correct"],
        "attempted": extra["attempted"],
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in listed},
    }))
    return 0


def measure(wl, cases, args, workdir, import_s, spans_csv):
    """Set up, run the timed passes and gather metrics for one run."""
    import workloads

    t0 = time.perf_counter()
    warm_up(wl, workdir)
    warmup_s = time.perf_counter() - t0

    if not args.trace:
        instances, passes, setup_times, import_times = run_passes(
            wl, cases, workdir, args.seconds)
        import_times.insert(0, import_s)
        setup_s = statistics.median(import_times) + warmup_s + statistics.median(setup_times)
        metrics, extra = end_to_end(passes, setup_s)
        extra["setup_reps_s"] = setup_times
        extra["import_s"] = import_times
        extra["warmup_s"] = warmup_s
        extra["identical_output"] = None
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        instances = []
        for case in cases:
            with tracer.root(tracing.SETUP, case.id):
                instances += workloads.set_up(wl, [case], workdir)
        tracer.restore()
        untraced, traced = [], []
        while more_passes(wl, traced, args.seconds):
            u, t = run_paired_pass(wl, instances, workdir, tracer, len(traced))
            untraced.append(u)
            traced.append(t)
        unrestored = tracing.unrestored_names()
        identical = all(
            o.output == r.output for p, q in zip(traced, untraced) for o, r in zip(p, q)
        )
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        overhead = statistics.median(
            sum(o.seconds for o in p) - sum(o.seconds for o in q)
            for p, q in zip(traced, untraced)
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        tracer.write_csv(spans_csv)
        passes = untraced + traced
        extra = {"passes": len(passes), "traced_passes": len(traced),
                 "spans": len(tracer.spans), "identical_output": identical,
                 "unrestored": unrestored}

    flat = [(o, inst) for p in passes for o, inst in zip(p, instances)]
    failures = [(o.failure[0], inst.case.id, o.failure[1]) for o, inst in flat if o.failure]
    gate_ok = not any(cat == "gate" for cat, _, _ in failures)
    extra["attempted"] = len(flat)
    extra["failures"] = failures
    extra["instance_s"] = {
        inst.case.id: [p[i].seconds for p in passes] for i, inst in enumerate(instances)
    }
    extra["correct"] = bool(
        gate_ok and extra["identical_output"] is not False and not extra.get("unrestored")
    )
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
