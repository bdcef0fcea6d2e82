"""Regenerate ``bench/data/golden.json``: the query-mix pool and the sha256
of the stdout of every op any workload can run, with the number of
components each op summarises.

    python3 bench/make_golden.py

The digests hold later changes to byte-identical output, so regenerate only
when an output change is intended, never to make a failing run pass.
"""

import hashlib
import json
import sys

import child
import tracer as tracing
import workloads as w

# Forward match inputs: every component of the ball of this radius.
MATCH_RADIUS = {"sp4r": 4, "su21": 4, w.SU31: 3}
# Sixteen highest weights per group: a run of query-mix draws about 27
# Freudenthal-backed queries per group, so roughly half repeat one seen.
POOL_HW = 16


def _weight_text(weight) -> str:
    return str(weight).strip("()")


def _krep_pool(d) -> dict:
    """Small dominant integral highest weights, the first tensor factors,
    and genuine spin-cover types tau, all written without a leading minus
    so that they parse as positional arguments."""
    from itertools import product

    from tempered_atlas.classify import genuine_shift, is_genuine
    from tempered_atlas.groups import is_integral
    from tempered_atlas.weights import Weight

    n = d.rank_tc
    shift = genuine_shift(d)
    box = [Weight(c) for c in product(range(-2, 5), repeat=n)]

    def pick(candidates, keep):
        ok = {x for x in candidates if x[0] >= 0 and d.is_dominant_weight(x) and keep(x)}
        return sorted(ok, key=lambda x: (d.form.norm_sq(x), x))

    integral = pick(box, lambda x: is_integral(d, x))
    genuine = pick((x + shift for x in box), lambda x: is_genuine(d, x))
    return {
        "hw": [_weight_text(x) for x in integral[:POOL_HW]],
        "tensor_left": [_weight_text(x) for x in integral[1:4]],
        "tau": [_weight_text(x) for x in genuine[:4]],
    }


def main() -> int:
    sys.path.insert(0, child.SRC)
    from tempered_atlas import cli
    from tempered_atlas.classify import enumerate_components

    tracer = tracing.Tracer()
    tracing.install(tracer)
    ops = {}

    def record(argv) -> str:
        tracer.reset()
        *_, rc, text = child.run_op(cli.main, argv, child.SpeedSampler())
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}")
        ops[w.op_key(argv)] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "components": tracer.calls["matching.summarize_datum"],
        }
        return text

    match = {}
    for group in w.MATCH_GROUPS:
        d = cli.resolve_descriptor(group)
        forward = [_weight_text(e.kappa) for e in enumerate_components(d, MATCH_RADIUS[group]).entries]
        inverse = []
        for kappa in forward:
            text = record(w.match_argv(group, kappa, "forward"))
            line = next(x for x in text.splitlines() if x.startswith("minimal_k_types"))
            inverse += [t.strip("()") for t in line.split()[1:]]
        for mu in inverse:
            record(w.match_argv(group, mu, "inverse"))
        match[group] = {"forward": forward, "inverse": inverse}

    pool = {"match": match, "krep": {g: _krep_pool(cli.resolve_descriptor(g)) for g in w.KREP_GROUPS}}
    for argv in w.all_krep_argvs(pool):
        record(argv)
    for argv in w.CLASSIFY_SWEEP + w.FIGURE_SP4R + w.SMOKE_CLASSIFY_SWEEP + w.SMOKE_FIGURE_SP4R:
        record(argv)

    with open(w.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"query_pool": pool, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} golden digests to {w.GOLDEN.relative_to(w.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
