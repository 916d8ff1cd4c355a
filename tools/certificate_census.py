"""What the certificates prove on the acceptance plan and the `degenerate` workload.

Usage (from anywhere)::

    python3 tools/certificate_census.py

Runs in process on the checkout that holds this file (its ``src``, the plan
of ``tests/test_acceptance.py`` and the workloads of ``bench/``), at the
workloads' eps of 1e-7, and prints:

* over the 52 instances of the acceptance plan: the units certified, the
  instances with every unit certified, and the median and largest bound;
* per `degenerate` workload seed 0 .. 20 (``SEEDS``), the seeds that the
  project's certificate figures quote: the units certified and the largest
  bound;
* the minimal-enclosing-ball subsolves (``circumcenter._meb`` calls) of one
  `degenerate` ``unitarize`` run, a deterministic count;

and ends with one JSON line that holds every figure printed above it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from unitarizer import circumcenter  # noqa: E402
from unitarizer.representation import generate_instance, unitarize  # noqa: E402

SEEDS = 21


def plan_census(eps: float) -> dict:
    """Units and instances of the acceptance plan, certified, and the bounds."""
    from test_acceptance import _instance_plan

    units = certified = instances = 0
    bounds = []
    plan = _instance_plan()
    for _, spec, base, cond, seed in plan:
        _, _, report = unitarize(generate_instance(spec, base, cond, seed), eps=eps)
        results = report.unit_results.values()
        units += len(results)
        certified += sum(r.converged for r in results)
        instances += report.all_converged
        bounds += [r.center_error_bound for r in results]
    return {
        "units": units, "certified": certified, "instances": len(plan),
        "all_converged": instances, "bound_median": statistics.median(bounds),
        "bound_max": max(bounds),
    }


def degenerate_runs(seeds: int):
    """(seed, report) of one ``unitarize`` per `degenerate` workload seed."""
    import workloads

    wl = workloads.WORKLOADS["degenerate"]
    for seed in range(seeds):
        for inst in workloads.set_up(wl, wl.cases(seed), str(ROOT)):
            _, _, report = unitarize(inst.rep, eps=workloads.EPS, max_iter=wl.max_iter)
            yield seed, report


def meb_calls() -> int:
    calls = 0
    meb = circumcenter._meb

    def counted(X):
        nonlocal calls
        calls += 1
        return meb(X)

    circumcenter._meb = counted
    try:
        for _ in degenerate_runs(1):
            pass
    finally:
        circumcenter._meb = meb
    return calls


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    plan = plan_census(1e-7)
    print(
        f"plan: {plan['certified']}/{plan['units']} units certified,"
        f" {plan['all_converged']}/{plan['instances']} instances all converged,"
        f" bound median {plan['bound_median']:.3g} max {plan['bound_max']:.3g}"
    )
    degenerate = []
    for seed, report in degenerate_runs(SEEDS):
        results = report.unit_results.values()
        row = {"seed": seed, "units": len(results),
               "certified": sum(r.converged for r in results),
               "worst_bound": report.max_certificate_bound}
        degenerate.append(row)
        print(
            f"degenerate seed {seed}: {row['certified']}/{row['units']}"
            f" units certified, worst bound {row['worst_bound']:.3g}"
        )
    calls = meb_calls()
    print(f"degenerate: {calls} _meb calls per unitarize run")
    print(json.dumps({"plan": plan, "degenerate": degenerate, "meb_calls": calls},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
