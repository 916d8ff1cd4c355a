"""Benchmark workloads: seeded instance plans and their set-up.

Every instance is an action groupoid, a unitary base representation of
its group, a condition bound and a generator seed.  Seed 0 hands the
program exactly what the generator draws at the plan seeds.  Any other
workload seed conjugates each generated representation by its own
Haar-random unitary ``V`` (rho -> V rho V*): the matrices are new, but the
Gram sets are unitary congruences of the plan's, so the geometry and the
work the solver does stay those of the plan up to roundoff.  Fresh
generator draws would change the work itself from seed to seed (see
README.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from unitarizer import representation
from unitarizer.groupoid import (
    cyclic_group,
    cyclic_shift_action,
    left_translation_action,
    natural_permutation_action,
    ordered_pair_action,
    symmetric_group,
)
from unitarizer.representation import (
    cyclic_character_base_rep,
    direct_sum_base_rep,
    generate_instance,
    make_representation,
    permutation_base_rep,
    trivial_base_rep,
)
from unitarizer.sampling import random_unitary
from unitarizer.serialization import representation_to_json, save_json

from tracing import rebound

# Stop tolerance of every workload, on the library and the CLI path alike.
EPS = 1e-7

# How an instance reaches the program.
LIBRARY = "library"  # generate_instance, then unitarize + verify_similarity
RAW = "raw"  # unvalidated generator output, then make_representation + the above
CLI = "cli"  # generate_instance written to a file, then `unitarizer unitarize`


@dataclass(frozen=True)
class Case:
    """One planned instance."""

    family: str
    spec: object
    base: dict
    cond: float
    seed: int  # generator seed
    workload_seed: int
    row: int  # position in the plan

    @property
    def id(self) -> str:
        return f"{self.family}/cond={self.cond:g}/seed={self.seed}/basis={self.workload_seed}"

    def change_of_basis(self, rho: dict) -> dict:
        """``rho`` conjugated by this case's unitary; unchanged at seed 0."""
        if self.workload_seed == 0:
            return rho
        dim = next(iter(rho.values())).shape[0]
        v = random_unitary(np.random.default_rng((self.workload_seed, self.row)), dim)
        return {g: v @ m @ v.conj().T for g, m in rho.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    plan: tuple  # (family, spec, base, cond, plan seed)
    path: str = LIBRARY
    max_iter: int = 100_000
    setup_reps: int = 6  # set-ups timed per run, spread among the passes; the median counts
    min_passes: int = 1  # timed passes per run at least

    def cases(self, seed: int) -> list:
        return [
            Case(family, spec, base, cond, plan_seed, seed, row)
            for row, (family, spec, base, cond, plan_seed) in enumerate(self.plan)
        ]


@dataclass
class Instance:
    """A case after set-up: what the program is handed."""

    case: Case
    rep: object = None  # validated Representation (LIBRARY, CLI)
    raw: tuple = None  # (groupoid, dim, rho) (RAW)
    path: str = None  # input file (CLI)


def _acceptance_plan_without_s4_orbits():
    """The acceptance round-trip plan minus its S4-self and S4-natural rows."""
    plan = []
    for n in range(2, 9):
        spec = left_translation_action(cyclic_group(n))
        base = cyclic_character_base_rep(n, tuple(range(min(n, 3))))
        for seed, cond in ((0, 3.0), (1, 10.0)):
            plan.append((f"Z{n}-self", spec, base, cond, seed))
    spec = cyclic_shift_action(2, copies=16)
    base2 = cyclic_character_base_rep(2, (0, 1))
    for seed in (0, 1):
        plan.append(("Z2-32units", spec, base2, 10.0, seed))
    spec = cyclic_shift_action(6, copies=2)
    base6 = cyclic_character_base_rep(6, (0, 1, 2))
    for seed in (0, 1):
        plan.append(("Z6-2blocks", spec, base6, 5.0, seed))
    s3 = symmetric_group(3)
    nat3 = natural_permutation_action(3)
    perm3 = permutation_base_rep(s3)
    for seed in (0, 1, 2):
        for cond in (2.0, 10.0):
            plan.append(("S3-natural", nat3, perm3, cond, seed))
    mixed = direct_sum_base_rep(perm3, trivial_base_rep(s3, 1))
    for seed in (0, 1):
        plan.append(("S3-dim4", nat3, mixed, 10.0, seed))
    self3 = left_translation_action(s3)
    for seed in (0, 1):
        for cond in (2.0, 10.0):
            plan.append(("S3-self", self3, perm3, cond, seed))
    s4 = symmetric_group(4)
    nat4 = natural_permutation_action(4)
    perm4 = permutation_base_rep(s4)
    pairs4 = ordered_pair_action(4)
    for seed in (0, 1):
        for cond in (2.0, 10.0):
            plan.append(("S4-pairs", pairs4, perm4, cond, seed))
    perm44 = direct_sum_base_rep(perm4, perm4)
    for seed in (0, 1):
        plan.append(("S4-dim8", nat4, perm44, 10.0, seed))
    shift8 = cyclic_shift_action(8, copies=1)
    base8 = cyclic_character_base_rep(8, (0, 1, 2, 3))
    for seed in (0, 1):
        plan.append(("Z8-shift", shift8, base8, 10.0, seed))
    for seed in (3, 4):
        plan.append(("S3-natural", nat3, perm3, 5.0, seed))
    plan.append(("S4-pairs", pairs4, perm4, 10.0, 2))
    return tuple(plan)


def _degenerate_plan():
    s4 = symmetric_group(4)
    return (("S4-self", left_translation_action(s4), trivial_base_rep(s4, 2), 2.0, 0),)


def _large_groupoid_plan():
    s5 = symmetric_group(5)
    nat5 = natural_permutation_action(5)
    return (("S5-natural", nat5, trivial_base_rep(s5, 2), 2.0, 0),)


def _ill_conditioned_plan():
    s3 = symmetric_group(3)
    nat3 = natural_permutation_action(3)
    perm3 = permutation_base_rep(s3)
    plan = [
        ("S3-natural", nat3, perm3, cond, seed)
        for cond in (1e2, 1e3, 1e4, 1e8)
        for seed in (0, 1)
    ]
    z8 = left_translation_action(cyclic_group(8))
    plan.append(("Z8-self-dim8", z8, cyclic_character_base_rep(8, range(8)), 1e3, 0))
    return tuple(plan)


def _tiny_plan():
    spec = left_translation_action(cyclic_group(3))
    return (("Z3-self", spec, cyclic_character_base_rep(3, (0, 1, 2)), 3.0, 0),)


# Why each workload exists is in README.md.  The machine's speed moves
# within seconds, so an instance's time is its minimum over the passes;
# `degenerate` runs one pass only, because that pass takes half a minute.
WORKLOADS = {
    "generic": Workload("generic", _acceptance_plan_without_s4_orbits(), min_passes=3),
    "degenerate": Workload("degenerate", _degenerate_plan()),
    "large-groupoid": Workload("large-groupoid", _large_groupoid_plan(), path=CLI,
                               setup_reps=3, min_passes=2),
    "ill-conditioned": Workload("ill-conditioned", _ill_conditioned_plan(), path=RAW,
                                max_iter=2000),
}


def warmup_workload(wl: Workload) -> Workload:
    """One tiny instance taken through the same path as ``wl``."""
    return Workload(wl.name + "-warmup", _tiny_plan(), wl.path, wl.max_iter, setup_reps=1)


def raw_instance(case: Case) -> tuple:
    """The generator's output before the program validates it.

    Runs ``generate_instance`` with its final ``make_representation``
    rebound to a pass-through, so inputs the validator rejects still reach
    the program.
    """
    with rebound(representation, "make_representation", lambda G, dim, rho: (G, dim, rho)):
        return generate_instance(case.spec, case.base, case.cond, case.seed)


def set_up(wl: Workload, cases: list, workdir: str) -> list:
    """Build every instance of ``cases``; CLI inputs are written to ``workdir``."""
    out = []
    for case in cases:
        if wl.path == RAW:
            G, dim, rho = raw_instance(case)
            out.append(Instance(case, raw=(G, dim, case.change_of_basis(rho))))
            continue
        rep = generate_instance(case.spec, case.base, case.cond, case.seed)
        # Validated again at every seed, so that set-up does the same work.
        rep = make_representation(rep.groupoid, rep.dim, case.change_of_basis(rep.rho))
        inst = Instance(case, rep=rep)
        if wl.path == CLI:
            inst.path = os.path.join(workdir, f"in{case.row}.json")
            save_json(representation_to_json(rep), inst.path)
        out.append(inst)
    return out
