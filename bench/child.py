"""One pass of a workload, in a fresh interpreter so that imports and the
``lru_cache``s of the package start cold, as they do for a CLI user.

Usage: child.py TRACE DESCRIPTOR...   (argv lists of the ops come as JSON
on stdin).  Set-up is timed first, before anything else is imported: the
package import plus one resolve (catalog build, or parse and validate) of
each descriptor.  The ops are then run through ``cli.main`` in order and
the last line of stdout is one JSON object with the pass's measurements.
"""

import os
import signal
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
# How often the reference loop is timed, and how far around an op its
# timings count towards the op's speed.
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.1
_GRAM = ((3, -1, -1), (-1, 3, -1), (-1, -1, 3))


def reference_loop() -> None:
    """A fixed interpreter-bound loop (rank-3 Gram pairings over ints).  It
    never changes and imports nothing, so its time tracks how fast the
    machine runs at the moment, not what the package does."""
    acc = 0
    for i in range(1000):
        a = (i, 1 - i, 3)
        b = (i % 5, 2, -i)
        acc += sum(a[p] * _GRAM[p][q] * b[q] for p in range(3) for q in range(3))


class SpeedSampler:
    """Times reference_loop from a SIGALRM handler every SAMPLE_EVERY_S,
    during set-up and inside every op, so that an op's speed is measured
    while it runs.  ``spent`` is the time handlers took, which run_op
    takes back out of the op's latency."""

    def __init__(self):
        self.samples = []  # (midpoint, seconds)
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_s(self, start: float, end: float):
        """Mean reference time over [start - WINDOW_S, end + WINDOW_S], or
        None when the sampler never ran."""
        if not self.samples:
            return None
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return sum(near) / len(near)


def run_op(main, argv, sampler):
    """(start, end, seconds, exit code or None on an exception, stdout
    text); the seconds exclude the time the sampler's handlers took."""
    import contextlib
    import io
    import traceback

    buf = io.StringIO()
    spent = sampler.spent
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = None
    t1 = time.perf_counter()
    seconds = t1 - t0 - (sampler.spent - spent)
    return t0, t1, seconds, rc, buf.getvalue()


def main(argv) -> int:
    trace = argv[0] == "1"
    descriptors = argv[1:]
    sys.path.insert(0, SRC)
    # Traced passes run without the sampler, so that spans hold only the
    # package's own time.
    sampler = SpeedSampler()
    if not trace:
        sampler.start()

    t0 = time.perf_counter()
    from tempered_atlas import cli

    for name in descriptors:
        cli.resolve_descriptor(name)
    setup_end = time.perf_counter()
    setup_s = setup_end - t0 - sampler.spent

    # After set-up, and before any op is timed.
    import contextlib  # noqa: F401  (used by run_op)
    import hashlib
    import io  # noqa: F401
    import json
    import resource
    import traceback  # noqa: F401

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported {cli.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    ops = json.load(sys.stdin)

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = [run_op(cli.main, op, sampler) for op in ops]
    if not trace:
        time.sleep(WINDOW_S)  # so the last op has samples after it too
        sampler.stop()

    out = {
        "setup_s": setup_s,
        "setup_ref_s": sampler.reference_s(t0, setup_end),
        "wall_s": sum(r[2] for r in results),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": [
            {
                "s": s,
                "ref_s": sampler.reference_s(start, end),
                "rc": rc,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            }
            for start, end, s, rc, text in results
        ],
        "trace": tracer.summary() if tracer else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
