"""Workload definitions: the argv lists each pass hands to ``cli.main``.

classify-sweep and figure-sp4r are fixed command lists.  query-mix is a
seeded closed loop of single queries drawn from the pool stored in
``golden.json``; every argv the generator can produce has a golden digest
there, so any seed is checkable.
"""

import json
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "data" / "golden.json"

# Relative to the checkout root, which is the working directory of every pass.
SU31 = "bench/data/su31.group"

WORKLOADS = ("classify-sweep", "figure-sp4r", "query-mix")

CLASSIFY_SWEEP = (
    ["classify", "sp4r", "--radius", "20", "--format", "csv"],
    ["classify", "su21", "--radius", "20"],
    ["classify", SU31, "--radius", "10", "--format", "json"],
)
FIGURE_SP4R = (["figure", "sp4r", "--m-range=-20:20", "--n-range=-20:20"],)

# Tiny versions of the same commands for the self-check.
SMOKE_CLASSIFY_SWEEP = (
    ["classify", "sp4r", "--radius", "3", "--format", "csv"],
    ["classify", "su21", "--radius", "3"],
    ["classify", SU31, "--radius", "2", "--format", "json"],
)
SMOKE_FIGURE_SP4R = (
    ["figure", "sp4r", "--m-range=-4:4", "--n-range=-4:4"],
    ["figure", "sp4r", "--m-range=-4:4", "--n-range=-4:4", "--format", "csv"],
)

MATCH_GROUPS = ("sp4r", "su21", SU31)
KREP_GROUPS = ("sp4r", SU31)
KREP_COMMANDS = ("dim", "weights", "tensor", "diracmult")
MATCH_SHARE = 0.4
QUERIES_PER_PASS = 120
SMOKE_QUERIES_PER_PASS = 40

# Descriptors each workload resolves and validates once during set-up.
DESCRIPTORS = {
    "classify-sweep": ("sp4r", "su21", SU31),
    "figure-sp4r": ("sp4r",),
    "query-mix": ("sp4r", "su21", SU31),
}


def match_argv(group: str, mu: str, direction: str) -> list[str]:
    argv = ["match", group, f"--mu={mu}"]
    if direction == "inverse":
        argv += ["--direction", "inverse"]
    return argv


def krep_argv(group: str, command: str, hw: str, other: str | None = None) -> list[str]:
    """``hw`` is the weight whose Freudenthal multiset the command needs
    (the only weight for dim/weights, the second factor for tensor, V for
    diracmult); ``other`` is the first tensor factor or the spin-cover tau."""
    if command in ("dim", "weights"):
        return ["krep", group, command, hw]
    if command == "tensor":
        return ["krep", group, "tensor", other, hw]
    return ["krep", group, "diracmult", f"--tau={other}", f"--v={hw}"]


def all_krep_argvs(pool: dict):
    for group in KREP_GROUPS:
        p = pool["krep"][group]
        for hw in p["hw"]:
            yield krep_argv(group, "dim", hw)
            yield krep_argv(group, "weights", hw)
            for left in p["tensor_left"]:
                yield krep_argv(group, "tensor", hw, left)
            for tau in p["tau"]:
                yield krep_argv(group, "diracmult", hw, tau)


def query_mix(pool: dict, seed: int, pass_index: int, n: int) -> list[list[str]]:
    """A closed loop of n single queries: each is sent after the previous
    one returns.  The share of each kind of query is fixed (MATCH_SHARE
    match, split evenly over groups and directions; the rest krep, split
    evenly over groups and commands) and the seed draws the inputs and the
    order.  Pass i of a run draws its own sequence."""
    rng = random.Random(f"query-mix/{seed}/{pass_index}")
    n_match = round(n * MATCH_SHARE)
    match_slots = [(g, d) for g in MATCH_GROUPS for d in ("forward", "inverse")]
    krep_slots = [(g, c) for g in KREP_GROUPS for c in KREP_COMMANDS]
    slots = [("match", *match_slots[i % len(match_slots)]) for i in range(n_match)]
    slots += [("krep", *krep_slots[i % len(krep_slots)]) for i in range(n - n_match)]
    rng.shuffle(slots)
    out = []
    for kind, group, which in slots:
        if kind == "match":
            mu = rng.choice(pool["match"][group][which])
            out.append(match_argv(group, mu, which))
            continue
        p = pool["krep"][group]
        hw = rng.choice(p["hw"])
        other = None
        if which == "tensor":
            other = rng.choice(p["tensor_left"])
        elif which == "diracmult":
            other = rng.choice(p["tau"])
        out.append(krep_argv(group, which, hw, other))
    return out


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def op_key(argv) -> str:
    return " ".join(argv)


def pass_ops(workload: str, golden: dict, seed: int, pass_index: int, smoke: bool = False):
    if workload == "classify-sweep":
        return [list(a) for a in (SMOKE_CLASSIFY_SWEEP if smoke else CLASSIFY_SWEEP)]
    if workload == "figure-sp4r":
        return [list(a) for a in (SMOKE_FIGURE_SP4R if smoke else FIGURE_SP4R)]
    if workload == "query-mix":
        n = SMOKE_QUERIES_PER_PASS if smoke else QUERIES_PER_PASS
        return query_mix(golden["query_pool"], seed, pass_index, n)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
