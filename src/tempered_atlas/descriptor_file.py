"""The descriptor file format, imported on first use so that a run on
catalog groups never compiles it.  Text, human editable, exact rationals
only::

    [group]
    name = sp4r
    rank_tc = 2
    rank_g = 2
    zero_weight_s_dim = 0

    [form]
    gram = 1,0 ; 0,1

    [roots]
    compact = 1,-1 ; -1,1
    positive_compact = 1,-1
    noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2

    [lattice]
    basis = 1,0 ; 0,1

Vectors are comma-separated rationals ("p/q" or "n"; no float literals),
vector lists are semicolon-separated, and an empty value is an empty list.
"""

import functools
import io

from .errors import DescriptorFormatError, DescriptorValidationError
from .groups import RealFormDescriptor, validate
from .weights import INTEGER_RE, BilinearForm, Weight, parse_rational


def _get(cp: "configparser.ConfigParser", section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise DescriptorFormatError(f"missing [{section}] {key}")
    return cp.get(section, key)


def _parse_vector_list(cp, section: str, key: str) -> tuple[Weight, ...]:
    what = f"[{section}] {key}"
    text = _get(cp, section, key).strip()
    if not text:
        return ()
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise DescriptorFormatError(f"empty vector in {what}")
        try:
            out.append(Weight(parse_rational(p) for p in chunk.split(",")))
        except ValueError as exc:
            raise DescriptorFormatError(f"{what}: {exc}") from None
    return tuple(out)


def _parse_int(cp, key: str) -> int:
    text = _get(cp, "group", key).strip()
    if not INTEGER_RE.fullmatch(text):
        raise DescriptorFormatError(f"{key}: not an integer: {text!r}")
    return int(text)


@functools.lru_cache(maxsize=32)
def parse_descriptor(text: str) -> RealFormDescriptor:
    """Parse the file format without validating; see loads_descriptor.

    Memoised on the text itself, so equal texts share one descriptor (and
    its memoised tables) while an edited file parses afresh.  Format
    errors are raised, never cached.  configparser is imported here, its
    one user, so that serializing never loads it."""
    import configparser

    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise DescriptorFormatError(str(exc)) from None

    name = _get(cp, "group", "name").strip()
    if not name:
        raise DescriptorFormatError("[group] name is empty")
    rank_tc = _parse_int(cp, "rank_tc")
    rank_g = _parse_int(cp, "rank_g")
    m0 = _parse_int(cp, "zero_weight_s_dim")

    gram_rows = _parse_vector_list(cp, "form", "gram")
    if len(gram_rows) != rank_tc or any(len(r) != rank_tc for r in gram_rows):
        raise DescriptorFormatError("[form] gram must be rank_tc x rank_tc")
    form = BilinearForm(tuple(r.coords for r in gram_rows))

    return RealFormDescriptor(
        name=name,
        rank_tc=rank_tc,
        rank_g=rank_g,
        form=form,
        compact_roots=_parse_vector_list(cp, "roots", "compact"),
        positive_compact=_parse_vector_list(cp, "roots", "positive_compact"),
        noncompact_weights=_parse_vector_list(cp, "roots", "noncompact"),
        zero_weight_s_dim=m0,
        integrality_basis=_parse_vector_list(cp, "lattice", "basis"),
    )


def loads_descriptor(text: str) -> RealFormDescriptor:
    d = parse_descriptor(text)
    report = validate(d)
    if not report.ok:
        raise DescriptorValidationError(report)
    return d


def load_descriptor(path) -> RealFormDescriptor:
    """Read, parse, and validate a descriptor file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DescriptorFormatError(f"cannot read {path}: {exc}") from None
    return loads_descriptor(text)


def _fmt_vectors(weights) -> str:
    return " ; ".join(",".join(str(c) for c in w) for w in weights)


def serialize_descriptor(d: RealFormDescriptor) -> str:
    """d as descriptor file text; loads_descriptor reads a valid d back."""
    out = io.StringIO()
    out.write("[group]\n")
    out.write(f"name = {d.name}\n")
    out.write(f"rank_tc = {d.rank_tc}\n")
    out.write(f"rank_g = {d.rank_g}\n")
    out.write(f"zero_weight_s_dim = {d.zero_weight_s_dim}\n\n")
    out.write("[form]\n")
    out.write(f"gram = {_fmt_vectors(Weight(r) for r in d.form.gram)}\n\n")
    out.write("[roots]\n")
    out.write(f"compact = {_fmt_vectors(d.compact_roots)}\n")
    out.write(f"positive_compact = {_fmt_vectors(d.positive_compact)}\n")
    out.write(f"noncompact = {_fmt_vectors(d.noncompact_weights)}\n\n")
    out.write("[lattice]\n")
    out.write(f"basis = {_fmt_vectors(d.integrality_basis)}\n")
    return out.getvalue()
