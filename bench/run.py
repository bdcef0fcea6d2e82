"""tempered-atlas benchmark: CLI workloads run through ``cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, defaults below
    python3 bench/run.py --smoke          # self-check at tiny sizes

Workloads (see BENCHMARK.json for why each was chosen): classify-sweep,
figure-sp4r, query-mix.  A run repeats passes of its workload until
``--seconds`` have gone by; each pass is a fresh child interpreter
(``child.py``), so imports and caches start cold as for a CLI user, and
the passes run one after another from this single thread.

Every op's stdout is checked byte for byte against the sha256 in
``data/golden.json``; an op fails on a nonzero exit, an exception, or a
digest that differs.  Any failure makes the run exit 1.

``--trace 0`` prints the end-to-end metrics, measured untraced, with every
time scaled to reference speed (see REFERENCE_S); the human-readable lines
also give the unscaled medians.  ``--trace 1`` alternates untraced and
traced passes of the same ops and prints the per-layer metrics: counts
from the first traced pass (they repeat exactly for a seed), unscaled
times as medians over the traced passes, and ``trace.overhead_s`` as the
median traced-minus-untraced pass time.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads as w

CHILD = w.BENCH / "child.py"
SPEC = w.ROOT / "BENCHMARK.json"
DEFAULT_SEED = 0
PASS_TIMEOUT_S = 170
# A shared machine's speed can drift by 2x over tens of seconds as other
# tenants come and go, which no number of passes averages out.  End-to-end
# times are therefore reported at reference speed: each is scaled by
# REFERENCE_S over the time the child's fixed reference loop took while it
# ran (child.SpeedSampler).  REFERENCE_S is that loop's time on an idle
# 2-core x86-64 VM under Python 3.11, so scaled and measured times agree
# there.
REFERENCE_S = 0.002

# Traced functions each workload must call at least once; the krep layer
# must stay unused outside query-mix.  A zero here means a wrapper sits at
# a name no caller looks up.
KREP_SPANS = {"krep.freudenthal", "krep.tensor_decompose", "krep.dirac_multiplicity", "krep.weyl_dim"}
COMMON_SPANS = set(tracing.SPAN_NAMES) - KREP_SPANS - {"classify.enumerate_ball", "cli.figure"}
USES = {
    "classify-sweep": COMMON_SPANS | {"classify.enumerate_ball", tracing.WALK_POINTS},
    "figure-sp4r": COMMON_SPANS | {"classify.enumerate_ball", "cli.figure", tracing.WALK_POINTS},
    "query-mix": COMMON_SPANS | KREP_SPANS,
}


def run_pass(workload: str, ops: list, trace: bool):
    """The child's measurements, or None when the child itself failed."""
    cmd = [sys.executable, str(CHILD), "1" if trace else "0", *w.DESCRIPTORS[workload]]
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(ops), capture_output=True, text=True,
            cwd=w.ROOT, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass exceeded {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: pass exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def failed_ops(ops: list, result, golden: dict) -> int:
    if result is None:
        return len(ops)
    failed = 0
    for argv, r in zip(ops, result["ops"]):
        expected = golden["ops"].get(w.op_key(argv))
        if expected is None:
            reason = "no golden digest"
        elif r["rc"] != 0:
            reason = f"exit {r['rc']}"
        elif r["sha256"] != expected["sha256"]:
            reason = "stdout differs from golden"
        else:
            continue
        failed += 1
        print(f"failed op ({reason}): {w.op_key(argv)}", file=sys.stderr)
    return failed


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(a, b) -> float:
    return a / b if b else 0.0


def end_to_end(passes: list, golden: dict) -> tuple[dict, dict]:
    """Metrics and a note on each one's sample, from (ops, result) pairs.
    Times are scaled to reference speed; the notes give the unscaled
    medians."""
    results = [r for _, r in passes]
    setups = [r["setup_s"] * REFERENCE_S / r["setup_ref_s"] for r in results]
    scaled = [[op["s"] * REFERENCE_S / op["ref_s"] for op in r["ops"]] for r in results]
    walls = [sum(times) for times in scaled]
    components = [sum(golden["ops"][w.op_key(a)]["components"] for a in ops) for ops, _ in passes]
    latencies = [t * 1000 for times in scaled for t in times]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "components_per_s": statistics.median(c / t for c, t in zip(components, walls)),
        "query_p50_ms": percentile(latencies, 50),
        "query_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in results),
    }
    raw_ms = [op["s"] * 1000 for r in results for op in r["ops"]]
    passes_note = f"median of {len(results)} passes"
    notes = {
        "setup_s": f"{passes_note}, {statistics.median(r['setup_s'] for r in results):.4g} s unscaled",
        "wall_s": f"{passes_note}, {statistics.median(r['wall_s'] for r in results):.4g} s unscaled",
        "components_per_s": f"{passes_note}, {components[0]} components in pass 0",
        "query_p50_ms": f"{len(latencies)} ops, {percentile(raw_ms, 50):.4g} ms unscaled",
        "query_p90_ms": f"{len(latencies)} ops, {percentile(raw_ms, 90):.4g} ms unscaled",
        "peak_rss_mb": passes_note,
    }
    return metrics, notes


def per_layer(pairs: list) -> dict:
    """Per-layer metrics from (untraced, traced) results of the same ops."""
    traces = [t["trace"] for _, t in pairs]
    first = traces[0]
    calls, counts, edges = first["calls"], first["counts"], first["edges"]

    def busy(name):
        return statistics.median(t["busy"].get(name, 0.0) for t in traces)

    def self_s(name):
        return statistics.median(t["self"].get(name, 0.0) for t in traces)

    components = calls.get("matching.summarize_datum", 0)
    points = counts.get(tracing.WALK_POINTS, 0)
    k_types = edges.get("cli.figure>groups.lattice_coordinates", 0)
    return {
        "ratlin.walk.points": points,
        "classify.dominant_yield": ratio(counts.get(tracing.BALL_COMPONENTS, 0), points),
        "matching.summarize_datum.calls": components,
        "weights.inner.calls": calls.get("weights.inner", 0),
        "weights.inner.per_component": ratio(calls.get("weights.inner", 0), components),
        "weights.inner.busy_s": busy("weights.inner"),
        "weights.Weight.count": counts.get(tracing.WEIGHT_COUNT, 0),
        "weights.Weight.per_component": ratio(counts.get(tracing.WEIGHT_COUNT, 0), components),
        "groups.is_integral.calls": calls.get("groups.is_integral", 0),
        "groups.is_integral.busy_s": busy("groups.is_integral"),
        "groups.lattice_coordinates.busy_s": busy("groups.lattice_coordinates"),
        "groups.validate.calls": calls.get("groups.validate", 0),
        "groups.validate.busy_s": busy("groups.validate"),
        "cli.resolve_descriptor.busy_s": busy("cli.resolve_descriptor"),
        "parabolic.build_parabolic.calls": calls.get("parabolic.build_parabolic", 0),
        "parabolic.build_parabolic.busy_s": busy("parabolic.build_parabolic"),
        "classify.construct_from_kappa.self_s": self_s("classify.construct_from_kappa"),
        "classify.enumerate_ball.self_s": self_s("classify.enumerate_ball"),
        "matching.summarize_datum.self_s": self_s("matching.summarize_datum"),
        "matching.match_inverse.calls": calls.get("matching.match_inverse", 0),
        "matching.match_inverse.busy_s": busy("matching.match_inverse"),
        "matching.minimal_k_types.busy_s": busy("matching.minimal_k_types"),
        "matching.fine_weights.calls": calls.get("matching.fine_weights", 0),
        "krep.freudenthal.calls": calls.get("krep.freudenthal", 0),
        "krep.freudenthal.distinct_hw": first["freudenthal_distinct_hw"],
        "krep.freudenthal.busy_s": busy("krep.freudenthal"),
        "krep.tensor_decompose.busy_s": busy("krep.tensor_decompose"),
        "krep.dirac_multiplicity.busy_s": busy("krep.dirac_multiplicity"),
        "krep.weyl_dim.busy_s": busy("krep.weyl_dim"),
        "cli.figure.k_type_yield": ratio(counts.get(tracing.FIGURE_CELLS, 0), k_types),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_s": statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs),
    }


def is_count(name: str) -> bool:
    """Per-layer metrics that depend only on the inputs, not on timing."""
    return not name.endswith("_s")


def check_names(metrics: dict, spec_section: list, label: str) -> list[str]:
    expected = [m["name"] for m in spec_section]
    if sorted(metrics) != sorted(expected):
        return [f"{label} metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(expected)}"]
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, golden: dict) -> bool:
    section = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    passes, pairs = [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        ops = w.pass_ops(workload, golden, seed, i)
        results = [run_pass(workload, ops, t) for t in ((False, True) if trace else (False,))]
        for r in results:
            attempted += len(ops)
            failed += failed_ops(ops, r, golden)
        if any(r is None for r in results):
            break
        passes.append((ops, results[0]))
        if trace:
            pairs.append(tuple(results))
        i += 1

    print(f"{workload}: {attempted} ops attempted, {failed} failed, "
          f"failed_ops_ratio = {ratio(failed, attempted):.6g} ratio")
    if not passes:
        return False
    if trace:
        metrics = per_layer(pairs)
        notes = {k: ("first traced pass" if is_count(k) else f"median of {len(pairs)} traced passes")
                 for k in metrics}
    else:
        metrics, notes = end_to_end(passes, golden)
    problems = check_names(metrics, section, "printed")
    for p in problems:
        print(p, file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {units.get(name, '?')}  ({notes[name]})")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return correct


def smoke(spec: dict, golden: dict) -> int:
    """Every workload at a tiny size: outputs match golden, printed metric
    names match BENCHMARK.json, each traced function the workload uses is
    called, and the input-determined counts repeat between two traced
    passes of the same ops."""
    problems = []
    for workload in w.WORKLOADS:
        ops = w.pass_ops(workload, golden, DEFAULT_SEED, 0, smoke=True)
        plain, traced, again = (run_pass(workload, ops, t) for t in (False, True, True))
        if sum(failed_ops(ops, r, golden) for r in (plain, traced, again)):
            problems.append(f"{workload}: failed ops")
            continue
        e2e, _ = end_to_end([(ops, plain)], golden)
        layer = per_layer([(plain, traced)])
        problems += check_names(e2e, spec["end_to_end"], f"{workload} end-to-end")
        problems += check_names(layer, spec["per_layer"], f"{workload} per-layer")
        repeat = per_layer([(plain, again)])
        problems += [
            f"{workload}: {k} was {layer[k]} then {repeat[k]}"
            for k in layer if is_count(k) and layer[k] != repeat[k]
        ]
        seen = dict(traced["trace"]["calls"], **traced["trace"]["counts"])
        problems += [f"{workload}: {name} recorded no calls" for name in sorted(USES[workload])
                     if not seen.get(name)]
        if workload != "query-mix":
            problems += [f"{workload}: {name} was called" for name in sorted(KREP_SPANS) if seen.get(name)]
        print(f"smoke {workload}: {len(ops)} ops checked")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=w.WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (w.ROOT / "src" / "tempered_atlas" / "__init__.py").is_file():
        print(f"no src/tempered_atlas under {w.ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    golden = w.load_golden()
    if args.smoke:
        return smoke(spec, golden)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    ok = True
    for workload in [args.workload] if args.workload else w.WORKLOADS:
        ok &= run_workload(workload, args.seed, seconds, bool(args.trace), spec, golden)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
