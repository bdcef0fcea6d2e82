"""Command line frontend.

Subcommands: catalog, validate, classify, match, figure, krep.  Groups are
named by catalog entry, by a descriptor file path, or by a bare name looked
up as a regular file under the directories in TEMPERED_ATLAS_PATH (suffix
``.group`` optional).  All weights on the command line are comma-separated
exact rationals; no floats.

A canonical argv (exact names, each option at most once as ``--opt=value``
or ``--opt value``, nothing else starting with '-') is read straight from
the grammar table ``_COMMANDS``; argparse, built from it in ``cli_parser``
on first use, reads any other.

Exit codes: 0 success, 141 stdout closed by its reader, and on an error
the ``exit_code`` of its class (errors.py), 2 for any ValueError or
OSError.  ``--version`` prints the package version and exits 0.
"""

import os
import sys
import types
from fractions import Fraction

from . import __version__
from .classify import enumerate_ball, enumerate_components
from .errors import DescriptorValidationError, RangeError, TemperedAtlasError, UnknownGroup
from .groups import catalog, catalog_names, integer_frame, lattice_coordinates
from .krep import dirac_multiplicity, freudenthal, tensor_decompose, weyl_dim
from .matching import match_inverse, summarize, summarize_datum
from .ratlin import sqrt_upper
from .weights import INTEGER_RE, parse_rational, parse_weight

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE
_load_descriptor = None  # descriptor_file's, bound by the first path resolve

_SUMMARY_FIELDS = (
    "kappa",
    "n_pairs",
    "r_group_order",
    "minimal_k_types",
    "dirac_highest_weight",
)


def resolve_descriptor(name: str):
    global _load_descriptor
    if name in catalog_names():
        return catalog(name)
    if _load_descriptor is None:  # compiled only for a path, imported once
        from .descriptor_file import load_descriptor as _load_descriptor
    if os.path.exists(name):
        return _load_descriptor(name)
    for base in filter(None, os.environ.get("TEMPERED_ATLAS_PATH", "").split(os.pathsep)):
        for candidate in (os.path.join(base, name), os.path.join(base, name + ".group")):
            if os.path.isfile(candidate):
                return _load_descriptor(candidate)
    raise UnknownGroup(f"no catalog entry or descriptor file named {name!r}")


def _cells(summary) -> list[str]:
    """The five summary cells, each formatted once: kappa is also the Dirac
    column, as summarize_datum has checked, and the minimal K-types are one
    cell, their Weight texts joined by spaces."""
    kappa = str(summary.kappa)
    types = " ".join([str(w) for w in summary.minimal_k_types])
    return [kappa, str(summary.n_pairs), str(summary.r_order), types, kappa]


def _csv_line(cells) -> str:
    """The line csv.writer writes for cells: no cell holds a quote, a CR or
    an LF (each is a Weight text, an int's or a figure label), so only a
    comma calls for quotes."""
    return ",".join([f'"{c}"' if "," in c else c for c in cells]) + "\n"


_JSON_ESCAPES = {c: "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _json_str(s: str) -> str:
    """s as json.dumps writes it: the short escapes above, printable ASCII
    as itself, any other character as \\uXXXX, or as a surrogate pair of
    them beyond the BMP."""
    out = []
    for c in s:
        n = ord(c)
        if c in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[c])
        elif 0x20 <= n <= 0x7E:
            out.append(c)
        elif n <= 0xFFFF:
            out.append(f"\\u{n:04x}")
        else:
            n -= 0x10000
            out.append(f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


# One component as json.dumps(indent=2) writes it inside the document; a
# Weight text needs no escape, and holds no space, so the K-type cell's
# spaces become the list's separators.
_JSON_COMPONENT = (
    '    {{\n      "kappa": "{0}",\n      "n_pairs": {1},\n      "r_group_order": {2},\n'
    '      "minimal_k_types": [\n        "{3}"\n      ],\n'
    '      "dirac_highest_weight": "{4}"\n    }}'
)


def _json_doc(group: str, radius: str, rows: list[list[str]]) -> str:
    """json.dumps(doc, indent=2) plus a newline, for the document of group,
    radius and one component per row of cells."""
    parts = [
        _JSON_COMPONENT.format(k, n, r, types.replace(" ", '",\n        "'), hw)
        for k, n, r, types, hw in rows
    ]
    components = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
    return (f'{{\n  "group": {_json_str(group)},\n  "radius": {_json_str(radius)},\n'
            f'  "components": {components}\n}}\n')


def _print_table(rows: list[list[str]], out) -> None:
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join([c.ljust(w) for c, w in zip(r, widths)]).rstrip() + "\n" for r in rows]
    out.write("".join(lines))


def cmd_catalog(args, out) -> int:
    rows = [["name", "rank_tc", "rank_g", "compact", "noncompact", "zero_weight_s_dim"]]
    for name in catalog_names():
        d = catalog(name)
        counts = (d.rank_tc, d.rank_g, len(d.compact_roots), len(d.noncompact_weights))
        rows.append([d.name, *map(str, counts), str(d.zero_weight_s_dim)])
    _print_table(rows, out)
    return EXIT_OK


def cmd_validate(args, out) -> int:
    from .descriptor_file import load_descriptor

    try:
        d = load_descriptor(args.path)
    except DescriptorValidationError as exc:
        for name, detail in exc.report.violations:
            out.write(f"violation {name}: {detail}\n")
        return exc.exit_code
    out.write(f"OK {d.name}\n")
    return EXIT_OK


def cmd_classify(args, out) -> int:
    d = resolve_descriptor(args.group)
    if (radius := parse_rational(args.radius)) <= 0:
        raise ValueError(f"--radius must be positive, got {args.radius}")
    run = enumerate_components(d, radius)
    # Every summary, with its checks, is built before the first byte goes out.
    rows = [_cells(summarize_datum(e)) for e in run.entries]
    if args.format == "csv":
        out.write(_csv_line(_SUMMARY_FIELDS) + "".join(map(_csv_line, rows)))
    elif args.format == "json":
        out.write(_json_doc(run.group, str(run.radius), rows))
    else:
        _print_table([list(_SUMMARY_FIELDS), *rows], out)
    return EXIT_OK


def _print_summary(summary, out) -> None:
    rows = [list(row) for row in zip(_SUMMARY_FIELDS, _cells(summary))]
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
    if not all(INTEGER_RE.fullmatch(end) for end in (lo, hi)):
        raise ValueError(f"range ends must be integers, got {text!r}")
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
    frame = integer_frame(d)
    pair_bound = sum(
        (sqrt_upper(Fraction(q, frame.scale)) for _, _, q in frame.roots[frame.n_compact :]),
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
        lines = [_csv_line((str(m), str(n), cells[(m, n)])) for m, n in sorted(cells)]
        out.write("m,n,content\n" + "".join(lines))
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


# A command is (help, handler, positionals, options, subcommands), with
# subcommands (dest, commands) or None.  Options map each flag to (dest,
# default, choices, help), and a default of None makes the flag required.
_COMMANDS = {
    "catalog": ("list built-in groups", cmd_catalog, (), {}, None),
    "validate": ("validate a descriptor file", cmd_validate, ("path",), {}, None),
    "classify": ("enumerate components in a ball", cmd_classify, ("group",), {
        "--radius": ("radius", None, None, "positive rational, e.g. 5 or 7/2"),
        "--format": ("format", "table", ("table", "csv", "json"), None),
    }, None),
    "match": ("match a weight to a component", cmd_match, ("group",), {
        "--mu": ("mu", None, None, "comma-separated rationals"),
        "--direction": ("direction", "forward", ("forward", "inverse"), None),
    }, None),
    "figure": ("minimal K-type grid over a box", cmd_figure, ("group",), {
        "--m-range": ("m_range", None, None, "LO:HI inclusive"),
        "--n-range": ("n_range", None, None, "LO:HI inclusive"),
        "--format": ("format", "text", ("text", "csv"), None),
    }, None),
    "krep": ("compact-group representation calculator", cmd_krep, ("group",), {}, ("krep_cmd", {
        "dim": (None, None, ("hw",), {}, None),
        "weights": (None, None, ("hw",), {}, None),
        "tensor": (None, None, ("hw1", "hw2"), {}, None),
        "diracmult": (None, None, (), {"--tau": ("tau", None, None, None),
                                       "--v": ("v", None, None, None)}, None),
    })),
}


def read_canonical(argv=None):
    """The namespace argparse gives a canonical argv (see the module
    docstring), or None for any other argv; None is always safe."""
    ns = {}
    dest, commands = "command", _COMMANDS
    tokens = list(sys.argv[1:] if argv is None else argv)
    while commands:
        if not tokens or tokens[0] not in commands:
            return None
        _, func, positionals, options, sub = commands[tokens[0]]
        ns[dest] = tokens.pop(0)
        # A subcommand without a handler (None) keeps its command's.
        ns.setdefault("func", func)
        positionals = list(positionals)
        # The first plain token after the positionals names the subcommand.
        while tokens and (positionals or not sub or tokens[0].startswith("-")):
            token = tokens.pop(0)
            if token.startswith("-"):
                flag, eq, value = token.partition("=")
                # argparse reads an attached -- by its version: leave it to argparse.
                if flag not in options or options[flag][0] in ns or (eq and value == "--"):
                    return None
                if not eq and (not tokens or tokens[0].startswith("-")):
                    return None
                ns[options[flag][0]] = value if eq else tokens.pop(0)
            elif positionals:
                ns[positionals.pop(0)] = token
            else:
                return None
        if positionals:
            return None
        for opt_dest, default, choices, _ in options.values():
            ns.setdefault(opt_dest, default)
            if ns[opt_dest] is None or (choices and ns[opt_dest] not in choices):
                return None
        dest, commands = sub or (None, None)
    return types.SimpleNamespace(**ns)


def main(argv=None) -> int:
    try:
        args = read_canonical(argv)
        if args is None:
            from .cli_parser import build_parser

            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse reads a value such as -1,1 as an option (a plain negative
        # integer it reads as a value): on a usage error, name it and the cure.
        tokens = sys.argv[1:] if argv is None else argv
        hidden = [t for t in tokens if t[:1] == "-" and INTEGER_RE.match(t)
                  and not INTEGER_RE.fullmatch(t)]
        if exc.code == 2 and hidden:
            print(f"note: {hidden[0]} starts with '-' and reads as an option; put it "
                  f"after -- or write --opt={hidden[0]}", file=sys.stderr)
        raise
    try:
        return args.func(args, sys.stdout)
    except BrokenPipeError:  # a reader that closed stdout, not bad input
        raise
    except (TemperedAtlasError, ValueError, OSError) as exc:
        # A package error carries its exit code (errors.py); any other is
        # bad input.  Exit 3 is the package's own fault, and says so.
        code = getattr(exc, "exit_code", EXIT_INPUT)
        prefix = "internal invariant failure" if code == 3 else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        if code == 3:  # context for a report, one key=value a line
            print(f"version={__version__}", file=sys.stderr)
            if hasattr(args, "group"):
                print(f"group={args.group}", file=sys.stderr)
        return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python ignores SIGPIPE: exit as a process it killed would, and
        # point stdout at devnull so that the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
