"""Per-layer tracing installed from outside the package.

Each traced function is replaced by a wrapper at every name a caller looks
it up under: the module that defines it and every ``tempered_atlas``
module that imported it by name.  Methods are replaced on their class.
A wrapper records a span per call; spans are aggregated in memory per name
(calls, busy time of the outermost call, self time) and per
(parent, child) edge, because raw spans of the hot pairing would not fit.
"""

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, defining module, attribute); the name's prefix is the layer.
FUNCTION_SPANS = (
    ("cli.main", "tempered_atlas.cli", "main"),
    ("cli.resolve_descriptor", "tempered_atlas.cli", "resolve_descriptor"),
    ("cli.figure", "tempered_atlas.cli", "_figure_cells"),
    ("groups.validate", "tempered_atlas.groups", "validate"),
    ("groups.is_integral", "tempered_atlas.groups", "is_integral"),
    ("groups.lattice_coordinates", "tempered_atlas.groups", "lattice_coordinates"),
    ("parabolic.build_parabolic", "tempered_atlas.parabolic", "build_parabolic"),
    ("classify.construct_from_kappa", "tempered_atlas.classify", "construct_from_kappa"),
    ("classify.enumerate_ball", "tempered_atlas.classify", "enumerate_ball"),
    ("matching.summarize_datum", "tempered_atlas.matching", "summarize_datum"),
    ("matching.match_inverse", "tempered_atlas.matching", "match_inverse"),
    ("matching.minimal_k_types", "tempered_atlas.matching", "minimal_k_types"),
    ("matching.fine_weights", "tempered_atlas.matching", "fine_weights"),
    ("krep.freudenthal", "tempered_atlas.krep", "freudenthal"),
    ("krep.tensor_decompose", "tempered_atlas.krep", "tensor_decompose"),
    ("krep.dirac_multiplicity", "tempered_atlas.krep", "dirac_multiplicity"),
    ("krep.weyl_dim", "tempered_atlas.krep", "weyl_dim"),
)
# (span name, defining module, class, method)
METHOD_SPANS = (("weights.inner", "tempered_atlas.weights", "BilinearForm", "inner"),)

SPAN_NAMES = tuple(s[0] for s in FUNCTION_SPANS + METHOD_SPANS)
# Counted without spans: the constructor is too hot for one, and the walk
# is a generator whose time interleaves with its consumer's.
WEIGHT_COUNT = "weights.Weight.count"
WALK_POINTS = "ratlin.walk.points"
BALL_COMPONENTS = "classify.enumerate_ball.components"
FIGURE_CELLS = "cli.figure.cells"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self.freudenthal_args = set()
        self._stack = []
        self._depth = Counter()

    def reset(self):
        """Clear the records in place: installed wrappers hold these objects."""
        for records in (self.calls, self.busy, self.self_time, self.edges, self.counts,
                        self.freudenthal_args, self._stack, self._depth):
            records.clear()

    def span(self, name, fn, observe=None):
        calls, busy, self_time = self.calls, self.busy, self.self_time
        edges, stack, depth = self.edges, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            edges[(stack[-1][0] if stack else "", name)] += 1
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    busy[name] += dt
                self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "counts": dict(self.counts),
            "freudenthal_distinct_hw": len(self.freudenthal_args),
        }


def _replace_everywhere(original, wrapper) -> int:
    sites = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tempered_atlas" or mod_name.startswith("tempered_atlas.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                sites += 1
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported package.  Raises when a
    target is missing, so a renamed function cannot silently go untraced."""
    import tempered_atlas.cli  # noqa: F401  (imports every layer)

    counts = tracer.counts

    def ball(args, result):
        counts[BALL_COMPONENTS] += len(result)

    def figure(args, result):
        counts[FIGURE_CELLS] += len(result[0])

    def freudenthal(args, result):
        d, hw = args[0], args[1]
        tracer.freudenthal_args.add((d.name, hw))

    observers = {"classify.enumerate_ball": ball, "cli.figure": figure, "krep.freudenthal": freudenthal}
    for name, module, attr in FUNCTION_SPANS:
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.span(name, original, observers.get(name))
        if not _replace_everywhere(original, wrapper):
            raise RuntimeError(f"no lookup site found for {module}.{attr}")
    for name, module, cls_name, attr in METHOD_SPANS:
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, attr, tracer.span(name, getattr(cls, attr)))

    weights = sys.modules["tempered_atlas.weights"]
    weight_init = weights.Weight.__init__

    def counted_init(self, coords):
        counts[WEIGHT_COUNT] += 1
        weight_init(self, coords)

    weights.Weight.__init__ = counted_init

    ratlin = sys.modules["tempered_atlas.ratlin"]
    walk = ratlin.ellipsoid_integer_points

    @functools.wraps(walk)
    def counted_walk(*args, **kwargs):
        for point in walk(*args, **kwargs):
            counts[WALK_POINTS] += 1
            yield point

    if not _replace_everywhere(walk, counted_walk):
        raise RuntimeError("no lookup site found for ratlin.ellipsoid_integer_points")
