"""Command line frontend.

Subcommands: catalog, validate, classify, match, figure, krep.  Groups are
named by catalog entry, by a descriptor file path, or by a bare name looked
up under the directories in TEMPERED_ATLAS_PATH (suffix ``.group``).  All
weights on the command line are comma-separated exact rationals; no floats.

Exit codes: 0 success, 2 input or descriptor error, 3 internal invariant
failure, 4 ambiguous matching input, 5 range error.  ``--version`` prints
the package version and exits 0.
"""

import argparse
import functools
import os
import sys

from . import __version__
from .classify import enumerate_ball, enumerate_components
from .errors import (
    AmbiguousPositiveSystem,
    DescriptorValidationError,
    DominanceFailure,
    InternalBijectionFailure,
    RangeError,
    StructuralInvariantError,
    TemperedAtlasError,
    UnknownGroup,
)
from .groups import catalog, catalog_names, lattice_coordinates, load_descriptor
from .krep import dirac_multiplicity, freudenthal, tensor_decompose, weyl_dim
from .matching import match_inverse, summarize, summarize_datum
from .ratlin import sqrt_upper
from .weights import parse_rational, parse_weight

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_AMBIGUOUS = 4
EXIT_RANGE = 5

_SUMMARY_FIELDS = (
    "kappa",
    "n_pairs",
    "r_group_order",
    "minimal_k_types",
    "dirac_highest_weight",
)


def resolve_descriptor(name: str):
    if name in catalog_names():
        return catalog(name)
    if os.path.exists(name):
        return load_descriptor(name)
    for base in filter(None, os.environ.get("TEMPERED_ATLAS_PATH", "").split(os.pathsep)):
        for candidate in (os.path.join(base, name), os.path.join(base, name + ".group")):
            if os.path.exists(candidate):
                return load_descriptor(candidate)
    raise UnknownGroup(f"no catalog entry or descriptor file named {name!r}")


def _record(summary) -> dict:
    return {
        "kappa": str(summary.kappa),
        "n_pairs": summary.n_pairs,
        "r_group_order": summary.r_order,
        "minimal_k_types": [str(w) for w in summary.minimal_k_types],
        "dirac_highest_weight": str(summary.dirac_hw),
    }


def _cells(record: dict) -> list[str]:
    """The five summary cells of a record; a K-type list is one cell."""
    return [
        " ".join(v) if isinstance(v, list) else str(v)
        for v in (record[f] for f in _SUMMARY_FIELDS)
    ]


def _print_table(rows: list[list[str]], out) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


def cmd_catalog(args, out) -> int:
    rows = [["name", "rank_tc", "rank_g", "compact", "noncompact", "zero_weight_s_dim"]]
    for name in catalog_names():
        d = catalog(name)
        rows.append(
            [
                d.name,
                str(d.rank_tc),
                str(d.rank_g),
                str(len(d.compact_roots)),
                str(len(d.noncompact_weights)),
                str(d.zero_weight_s_dim),
            ]
        )
    _print_table(rows, out)
    return EXIT_OK


def cmd_validate(args, out) -> int:
    try:
        d = load_descriptor(args.path)
    except DescriptorValidationError as exc:
        for name, detail in exc.report.violations:
            out.write(f"violation {name}: {detail}\n")
        return EXIT_INPUT
    out.write(f"OK {d.name}\n")
    return EXIT_OK


def cmd_classify(args, out) -> int:
    d = resolve_descriptor(args.group)
    radius = parse_rational(args.radius)
    run = enumerate_components(d, radius)
    records = [_record(summarize_datum(e)) for e in run.entries]
    # csv and json are imported by the formats that write them, so that
    # no other command pays for them at start-up.
    if args.format == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_SUMMARY_FIELDS)
        writer.writerows(_cells(r) for r in records)
    elif args.format == "json":
        import json

        doc = {"group": run.group, "radius": str(run.radius), "components": records}
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        _print_table([list(_SUMMARY_FIELDS)] + [_cells(r) for r in records], out)
    return EXIT_OK


def _print_summary(summary, out) -> None:
    rows = [list(row) for row in zip(_SUMMARY_FIELDS, _cells(_record(summary)))]
    rows.insert(3, ["fine_weights", " ".join(str(w) for w in summary.fine_weights)])
    _print_table(rows, out)


def cmd_match(args, out) -> int:
    d = resolve_descriptor(args.group)
    mu = parse_weight(args.mu)
    kappa = match_inverse(d, mu) if args.direction == "inverse" else mu
    summary = summarize(d, kappa)
    if args.direction == "inverse":
        out.write(f"kappa = {kappa}\n")
    _print_summary(summary, out)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"range must be LO:HI, got {text!r}")
    return int(lo), int(hi)


def _figure_cells(d, m_range, n_range):
    """Claimed grid cells for every component owning a minimal K-type whose
    lattice coordinates land in the box; the covering ball radius is the
    box-corner norm bound plus the half-sum bound over noncompact pairs."""
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    if m_lo > m_hi or n_lo > n_hi:
        raise RangeError(f"empty range m in [{m_lo},{m_hi}], n in [{n_lo},{n_hi}]")
    b1, b2 = d.integrality_basis
    corner_bound = max(
        sqrt_upper(d.form.norm_sq(m * b1 + n * b2))
        for m in (m_lo, m_hi)
        for n in (n_lo, n_hi)
    )
    pair_bound = sum(
        (sqrt_upper(d.form.norm_sq(g)) for g in d.noncompact_positives()),
        start=0,
    )
    radius = corner_bound + pair_bound / 2

    cells = {}
    legend = {}
    for datum in enumerate_ball(d, radius * radius):
        summary = summarize_datum(datum)
        label = "*" if summary.n_pairs == 0 else f"N{summary.n_pairs}-{summary.kappa}"
        for w in summary.minimal_k_types:
            # Integral: a fine weight plus noncompact weights, all in the
            # lattice, so the coordinates' denominator is 1.
            (m, n), _ = lattice_coordinates(d, w)
            if not (m_lo <= m <= m_hi and n_lo <= n <= n_hi):
                continue
            # Claimed once: its K-type round-trips to this kappa, and no kappa repeats.
            cells[(m, n)] = label
            if summary.n_pairs >= 1:
                legend[label] = summary
    return cells, legend


def cmd_figure(args, out) -> int:
    d = resolve_descriptor(args.group)
    if d.rank_tc != 2:
        raise TemperedAtlasError(
            f"figure needs two-integer K-type coordinates; {d.name} has "
            f"rank_tc = {d.rank_tc}"
        )
    m_range = _parse_range(args.m_range)
    n_range = _parse_range(args.n_range)
    cells, legend = _figure_cells(d, m_range, n_range)

    if args.format == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["m", "n", "content"])
        for (m, n) in sorted(cells):
            writer.writerow([m, n, cells[(m, n)]])
        return EXIT_OK

    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    out.write(
        f"minimal K-type grid for {d.name}: m in [{m_lo},{m_hi}] across, "
        f"n in [{n_hi},{n_lo}] down\n"
    )
    out.write("'*' = single-K-type component, ids = shared K-types, '.' = unclaimed\n")
    width = max([1] + [len(v) for v in cells.values()])
    for n in range(n_hi, n_lo - 1, -1):
        row = [cells.get((m, n), ".").ljust(width) for m in range(m_lo, m_hi + 1)]
        out.write(" ".join(row).rstrip() + "\n")
    if legend:
        out.write("legend:\n")
        for label in sorted(legend):
            summary = legend[label]
            types = " ".join(str(w) for w in summary.minimal_k_types)
            out.write(f"  {label}: minimal K-types {types}\n")
    return EXIT_OK


def cmd_krep(args, out) -> int:
    d = resolve_descriptor(args.group)
    if args.krep_cmd == "dim":
        out.write(f"{weyl_dim(d, parse_weight(args.hw))}\n")
    elif args.krep_cmd == "weights":
        ms = freudenthal(d, parse_weight(args.hw))
        for w in sorted(ms):
            out.write(f"{w} {ms[w]}\n")
    elif args.krep_cmd == "tensor":
        for w, c in tensor_decompose(d, parse_weight(args.hw1), parse_weight(args.hw2)):
            out.write(f"{w} {c}\n")
    else:
        mult = dirac_multiplicity(d, parse_weight(args.tau), parse_weight(args.v))
        out.write(f"{mult}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main call in the process."""
    parser = argparse.ArgumentParser(
        prog="tempered-atlas",
        description="Exact classification of essential tempered components.",
    )
    parser.add_argument("--version", action="version", version=f"tempered-atlas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in groups")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("validate", help="validate a descriptor file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="enumerate components in a ball")
    p.add_argument("group")
    p.add_argument("--radius", required=True, help="positive rational, e.g. 5 or 7/2")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("match", help="match a weight to a component")
    p.add_argument("group")
    p.add_argument("--mu", required=True, help="comma-separated rationals")
    p.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("figure", help="minimal K-type grid over a box")
    p.add_argument("group")
    p.add_argument("--m-range", required=True, help="LO:HI inclusive")
    p.add_argument("--n-range", required=True, help="LO:HI inclusive")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("krep", help="compact-group representation calculator")
    p.add_argument("group")
    ksub = p.add_subparsers(dest="krep_cmd", required=True)
    kp = ksub.add_parser("dim")
    kp.add_argument("hw")
    kp = ksub.add_parser("weights")
    kp.add_argument("hw")
    kp = ksub.add_parser("tensor")
    kp.add_argument("hw1")
    kp.add_argument("hw2")
    kp = ksub.add_parser("diracmult")
    kp.add_argument("--tau", required=True)
    kp.add_argument("--v", required=True)
    p.set_defaults(func=cmd_krep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except AmbiguousPositiveSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except (StructuralInvariantError, InternalBijectionFailure, DominanceFailure) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TemperedAtlasError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
