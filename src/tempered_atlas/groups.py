"""Group descriptors: built-in catalog, validation, and lattice integrality.

A descriptor records a connected linear real reductive group purely through
its compact-torus weight structure: the compact roots with a fixed positive
subsystem, the nonzero weights of the noncompact part (multiplicity one
each), the dimension of the zero-weight noncompact part, an invariant Gram
matrix, and a basis of the analytically integral lattice.

Dominance and face tests read one integer pairing table per descriptor,
one row per positive compact root and per noncompact +-pair; lattice
coordinates are integers over one denominator, which is 1 exactly for
integral weights.  The hot path carries each weight as its numerators over
one denominator D per descriptor (``integer_frame``).
"""

import functools
from math import gcd, lcm
from operator import mul

from .errors import DescriptorValidationError, DimensionMismatch, UnknownGroup
from .ratlin import eliminate, matvec
from .weights import BilinearForm, Weight, _Frozen, half_sum, reflection_escape


def per_descriptor(fn):
    """Memoise fn(d) in the instance dict of the descriptor d.

    Descriptors are frozen, so a stored value never goes stale, and it
    lives exactly as long as its descriptor: two descriptors never share
    one, even when they compare equal.  Lookup is a dict get, with no
    hashing of the descriptor's fields.
    """
    key = f"_memo_{fn.__qualname__}"

    @functools.wraps(fn)
    def memoised(d):
        try:
            return d.__dict__[key]
        except KeyError:
            value = d.__dict__[key] = fn(d)
            return value

    return memoised


def lex_positive(w: Weight) -> bool:
    """First nonzero coordinate is positive; the canonical pick per +-pair."""
    return next((x > 0 for x in w.int_coords()[0] if x), False)


class RealFormDescriptor(_Frozen):
    """A group's compact-torus weight data; see the module docstring.  The
    instance dict holds only what ``per_descriptor`` memoises."""

    name: str
    rank_tc: int
    rank_g: int
    form: BilinearForm
    compact_roots: tuple[Weight, ...]
    positive_compact: tuple[Weight, ...]
    noncompact_weights: tuple[Weight, ...]
    zero_weight_s_dim: int
    integrality_basis: tuple[Weight, ...]

    # The fields never change and a copy is rebuilt by the constructor: hash once.
    __hash__ = per_descriptor(_Frozen.__hash__)

    @per_descriptor
    def rho_compact(self) -> Weight:
        """Half-sum of the fixed positive compact roots."""
        return half_sum(self.positive_compact, rank=self.rank_tc)

    @per_descriptor
    def noncompact_positives(self) -> tuple[Weight, ...]:
        """The lexicographically positive member of each noncompact +-pair."""
        return tuple(sorted(w for w in self.noncompact_weights if lex_positive(w)))

    def is_dominant_weight(self, w: Weight) -> bool:
        """<w, a> >= 0 for every positive compact root a; vacuously true
        when there is none."""
        frame = integer_frame(self)
        values, nc = frame.pairings(w), frame.n_compact  # pairings checks w's rank
        return not nc or min(values[:nc]) >= 0


def simple_compact_roots(d: RealFormDescriptor) -> tuple[Weight, ...]:
    """Positive compact roots that are not sums of two positive ones."""
    pos = set(d.positive_compact)
    return tuple(
        sorted(a for a in pos if not any(b != a and (a - b) in pos for b in pos))
    )


class ValidationReport(_Frozen):
    """validate's (invariant name, detail) pairs, empty when d is valid."""

    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@per_descriptor
def validate(d: RealFormDescriptor) -> ValidationReport:
    """Check every structural invariant; violations come back in a fixed
    order as (invariant name, detail) pairs.  The report is computed once
    per descriptor instance; callers still consult it on every resolve."""
    v: list[tuple[str, str]] = []

    if d.zero_weight_s_dim != d.rank_g - d.rank_tc:
        v.append(("rank_balance", f"zero_weight_s_dim = {d.zero_weight_s_dim} but "
                  f"rank_g - rank_tc = {d.rank_g - d.rank_tc}"))
    form_ok = False
    if d.form.rank != d.rank_tc:
        v.append(("form_shape", f"Gram is {d.form.rank}x{d.form.rank}, rank_tc = {d.rank_tc}"))
    elif not d.form.is_symmetric():
        v.append(("form_symmetric", "Gram matrix is not symmetric"))
    elif not d.form.is_positive_definite():
        v.append(("form_positive_definite", "form not positive definite"))
    else:
        form_ok = True

    dim_ok = True
    for label, weights in (
        ("compact", d.compact_roots),
        ("positive_compact", d.positive_compact),
        ("noncompact", d.noncompact_weights),
        ("lattice", d.integrality_basis),
    ):
        bad = [w for w in weights if len(w) != d.rank_tc]
        if bad:
            dim_ok = False
            v.append((f"{label}_dimension", f"wrong-rank entries: {bad}"))

    if not dim_ok:
        return ValidationReport(tuple(v))  # coordinate checks below assume ranks match

    for label, weights in (("compact", d.compact_roots), ("noncompact", d.noncompact_weights)):
        seen = set(weights)
        if len(seen) != len(weights):
            v.append((f"{label}_multiplicity",
                      f"duplicate {label} entries; nonzero weights carry multiplicity 1"))
        missing = sorted(w for w in seen if -w not in seen)
        if missing:
            v.append((f"{label}_negation_closure",
                      f"negatives absent for: {' '.join(str(w) for w in missing)}"))
        zeros = [w for w in weights if w.is_zero]
        if zeros:
            v.append((f"{label}_zero_entry", "zero vector listed as a nonzero weight"))

    # A strictly dominant weight vanishes on a line through 0 only if no compact
    # root lies on it; two noncompact pairs there would be non-orthogonal Levi pairs.
    def line(w: Weight) -> Weight:
        # w over its first nonzero coordinate n / den is nums / n.
        nums = w.int_coords()[0]
        n = next(x for x in nums if x)
        return Weight.from_ints(tuple(x if n > 0 else -x for x in nums), abs(n))

    def by_line(weights, skip=()) -> dict[Weight, set[Weight]]:
        reps: dict[Weight, set[Weight]] = {}
        for w in weights:
            if not w.is_zero and line(w) not in skip:
                reps.setdefault(line(w), set()).add(w if lex_positive(w) else -w)
        return reps

    # A compact group's root system is reduced: a and 2a are never both roots.
    compact_lines = by_line(d.compact_roots)
    noncompact_lines = by_line(d.noncompact_weights, skip=compact_lines)
    for rule, reps_by_line, why in (
        ("compact_reduced", compact_lines, ", but a compact root system is reduced"),
        ("noncompact_collinear", noncompact_lines, " with no compact root"),
    ):
        for _, reps in sorted(reps_by_line.items()):
            if len(reps) > 1:
                names = " and ".join(str(g) for g in sorted(reps))
                v.append((rule, f"{names} lie on one line through 0{why}"))

    # Likewise in a plane: a strictly dominant weight orthogonal to two
    # noncompact weights that are not orthogonal is orthogonal to their span,
    # so a compact root there rules it out.  c is in span(a, b) exactly when
    # the Gram determinant of the coordinate vectors a, b, c is 0.
    def gram_det(*ws: Weight):
        vs = [w.int_coords()[0] for w in ws]
        return eliminate([[sum(map(mul, x, y)) for y in vs] for x in vs])[0]

    pairs = sorted({g if lex_positive(g) else -g for g in d.noncompact_weights if not g.is_zero})
    planes = [
        (a, b)
        for i, a in enumerate(pairs)
        for b in pairs[i + 1 :]
        if form_ok and line(a) != line(b) and d.form.sign(a, b)
        and all(gram_det(a, b, c) for c in d.compact_roots)
    ]
    if planes:
        a, b = planes[0]
        detail = f"{a} and {b} are not orthogonal and no compact root lies in their span"
        v.append(("noncompact_plane", detail))

    compact_set = set(d.compact_roots)
    pos = list(d.positive_compact)
    if any(a not in compact_set for a in pos):
        v.append(("positive_system", "positive_compact is not a subset of compact"))
    else:
        pos_set = set(pos)
        if len(pos_set) != len(pos):
            v.append(("positive_system", "duplicate positive compact roots"))
        else:
            for a in sorted(compact_set):
                if (a in pos_set) == (-a in pos_set):
                    v.append(("positive_system", f"exactly one of {a}, {-a} must be positive"))
                    break
            else:
                # A positive system is the roots positive on one chamber, so
                # rho_K pairs positively with each; the dominant-chamber walk
                # bounds kappa by the simple roots of such a system.
                low = [a for a in pos if form_ok and d.form.sign(d.rho_compact(), a) <= 0]
                if low:
                    v.append(("positive_system",
                              f"positive_compact is not one chamber's positive roots: "
                              f"their half-sum does not pair positively with {low[0]}"))

    if len(d.integrality_basis) != d.rank_tc or not d.integrality_basis:
        v.append(("lattice_basis_shape", "basis must have rank_tc rows"))
    elif _inverse_basis(d) is None:
        v.append(("lattice_basis_invertible", "basis matrix is singular"))
    else:
        listed = sorted(set(d.compact_roots) | set(d.noncompact_weights))
        outside = [w for w in listed if not is_integral(d, w)]
        if outside:
            v.append(("root_lattice_membership", "weights outside the integral lattice: "
                      + " ".join(str(w) for w in outside)))

    # Reflections in the listed weights must permute them: a weight set that
    # is not a root system can pass every rule above and still give a
    # strictly dominant weight non-orthogonal Levi pairs.
    if form_ok:
        cs = set(d.compact_roots)
        ws = cs | set(d.noncompact_weights)
        for rule, closed, what in (
            ("compact_reflection_closure", cs, "compact root set"),
            ("weight_reflection_closure", ws, "weight set"),
        ):
            # s_a = s_-a, and s_a fixes every weight orthogonal to a.
            mirrors = sorted({a if lex_positive(a) else -a for a in closed if not a.is_zero})
            bad = reflection_escape(mirrors, closed, d.form)
            if bad:
                v.append((rule, f"reflection of {bad[0]} in {bad[1]} leaves the {what}"))

    return ValidationReport(tuple(v))


@per_descriptor
def _inverse_basis(d: RealFormDescriptor):
    """(dots, den): the inverse of the transposed basis matrix as integer
    rows over den > 0, kept as their ``matvec``: lattice coordinates are
    one call.  None when the basis is not a nonsingular square matrix.

    With the basis over one denominator c, N = c B, the inverse is
    c adj(N^T) / delta for delta = det(N^T), from one elimination of
    [N^T | I]; den is |delta|, the sign moved onto the rows."""
    n, basis = d.rank_tc, d.integrality_basis
    if len(basis) != n or any(len(b) != n for b in basis):
        return None
    c = lcm(*(b.int_coords()[1] for b in basis))
    scaled = [tuple(x * (c // den) for x in nums) for nums, den in map(Weight.int_coords, basis)]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    delta, rows, _ = eliminate([[*col, *e] for col, e in zip(zip(*scaled), identity)])
    if delta == 0:
        return None
    c = c if delta > 0 else -c
    return matvec([c * x for x in row[n:]] for row in rows), abs(delta)


def _int_coords(w, rank: int) -> tuple[tuple[int, ...], int]:
    """A public weight argument's ``Weight.int_coords``, checked for type and rank."""
    if not isinstance(w, Weight):
        raise TypeError(f"a weight must be a Weight, not {type(w).__name__}")
    nums, den = w.int_coords()
    if len(nums) != rank:
        raise DimensionMismatch(f"{w} has rank {len(nums)}, not {rank}")
    return nums, den


class _Numerators(tuple):
    """Integers the package built itself, trusted unchecked by three readers:
    numerators over D for ``construct_from_kappa`` (the walk's kappa) and
    ``match_inverse`` (a minimal K-type), a pairing vector for ``build_parabolic``."""

    __slots__ = ()


class IntegerFrame:
    """A descriptor's denominator D (``den``), over which each genuine or
    integral weight, rho_K (``rho``) and noncompact half-sum has integer
    numerators, and its one integer root table: ``roots`` holds (numerators
    over D, pairing row, norm) of the ``n_compact`` positive compact roots,
    then of ``noncompact_positives``, one per +-pair as a weight pairs with
    -g as minus with g, and ``simple`` the entries of
    ``simple_compact_roots``.  x over E dotted with t's row is <x, t> E D
    times the form's denominator c, so t's norm, read once per descriptor,
    is |t|^2 ``scale`` = |t|^2 D^2 c, and y . gram(y) is |y|^2 E^2 c.
    ``dots`` is the rows' ``ratlin.matvec`` on numerators over D, ``pairings``
    reads a Weight with it, and ``gram`` is the form's G t kernel; over D
    pairings add, so kappa + rho_K's are kappa's plus ``rho_pairings``.
    ``genuine`` is the genuine shift over D, and ``faces`` holds the
    descriptor's parabolics by sign vector, filled as ``build_parabolic`` meets them."""

    __slots__ = ("rank", "den", "n_compact", "scale", "gram", "roots", "simple", "rho", "dots",
                 "rho_pairings", "two_rho_pairings", "genuine", "faces")

    def __init__(self, d: RealFormDescriptor):
        self.rank = d.rank_tc
        weights = (*d.compact_roots, *d.positive_compact, *d.noncompact_weights)
        self.den = lcm(*(2 * w.int_coords()[1] for w in weights),
                       *(b.int_coords()[1] for b in d.integrality_basis))
        self.n_compact = len(d.positive_compact)
        self.scale = self.den**2 * d.form._den
        if d.form.rank != self.rank:
            raise DimensionMismatch(f"form rank {d.form.rank} vs rank_tc {self.rank}")
        self.gram = d.form._int_row
        roots = (*d.positive_compact, *d.noncompact_positives())
        nums = tuple(map(self.over_den, roots))
        rows = tuple(tuple(self.gram(t)) for t in nums)
        norms = [int(d.form.norm_sq(t) * self.scale) for t in roots]
        self.roots = tuple(zip(nums, rows, norms))
        self.simple = tuple(self.roots[roots.index(a)] for a in simple_compact_roots(d))
        self.rho = self.over_den(d.rho_compact())
        self.dots = matvec(rows)
        self.rho_pairings = self.dots(self.rho)
        self.two_rho_pairings = [2 * v for v in self.rho_pairings]
        noncompact = self.roots[self.n_compact :]
        self.genuine = self.half_sum_nums([1] * len(noncompact), noncompact)
        self.faces = {}

    def half_sum_nums(self, signs, entries) -> tuple[int, ...]:
        """Half of sum s t over signs s and noncompact root-table entries (t, row,
        norm), over D; exact, as D holds twice every noncompact denominator."""
        total = [0] * self.rank
        for s, (t, _, _) in zip(signs, entries):
            total = [x + s * y for x, y in zip(total, t)]
        return tuple([x // 2 for x in total])

    def pairings(self, w: Weight) -> list[int]:
        """One integer per row, of the sign of w's pairing with its root."""
        return self.dots(_int_coords(w, self.rank)[0])

    def over_den(self, w: Weight) -> tuple[int, ...] | None:
        """w's numerators over D, or None when they are not integers."""
        nums, den = _int_coords(w, self.rank)
        if den == self.den:
            return nums
        q, r = divmod(self.den, den)
        return None if r else tuple([x * q for x in nums])

    def weight(self, nums: tuple[int, ...]) -> Weight:
        """The Weight that numerators over D give."""
        return Weight.from_ints(nums, self.den)


integer_frame = per_descriptor(IntegerFrame)


def lattice_coordinates(d: RealFormDescriptor, w: Weight):
    """(nums, den) with nums[i] / den the exact coefficient of w on the i-th
    basis weight and den > 0 their least common denominator, as in
    ``Weight.int_coords``; None when singular."""
    nums, w_den = _int_coords(w, d.rank_tc)
    table = _inverse_basis(d)
    if table is None:
        return None
    dots, den = table
    den *= w_den
    coords = dots(nums)
    g = gcd(den, *coords)
    if g == 1:
        return tuple(coords), den
    return tuple([c // g for c in coords]), den // g


def is_integral(d: RealFormDescriptor, w: Weight) -> bool:
    """Membership of w in the integer span of the integrality basis: its
    lattice coordinates have denominator 1."""
    coords = lattice_coordinates(d, w)
    return coords is not None and coords[1] == 1


def genuine_shift(d: RealFormDescriptor) -> Weight:
    """Half-sum of the lexicographic noncompact positives; the genuine
    weights form its coset modulo the integral lattice.  Kept over D as
    ``IntegerFrame.genuine``."""
    frame = integer_frame(d)
    return frame.weight(frame.genuine)


def is_genuine(d: RealFormDescriptor, kappa: Weight) -> bool:
    """Whether kappa - rho(noncompact positives) is integral.  Any
    one-per-pair choice of noncompact positives gives the same answer: two
    choices differ by a sum of noncompact weights, which lie in the lattice."""
    _int_coords(kappa, d.rank_tc)  # a non-Weight is refused as everywhere else
    return is_integral(d, kappa - genuine_shift(d))


# One row per built-in group: rank_g, the Gram matrix, the positive compact
# roots, one weight of each noncompact +-pair, and zero_weight_s_dim.
_CATALOG = {
    # k = so(2) is abelian; s has torus weights +-2; lattice Z.
    "sl2r": (1, ((1,),), (), ((2,),), 0),
    # Complex group seen as real: k = su(2), s is its adjoint, so the
    # weight +-2 occurs on both sides and s has a 1-dim zero-weight part.
    "sl2c": (2, ((1,),), ((2,),), ((2,),), 1),
    # Coordinates in the fundamental-weight basis of su(3); K = S(U(2)xU(1)).
    # Compact root e1-e2 = (2,-1); noncompact e1-e3 = (1,1), e2-e3 = (-1,2).
    # Gram is the (scaled) trace form in these coordinates; lattice Z^2.
    "su21": (2, ((2, 1), (1, 2)), ((2, -1),), ((1, 1), (-1, 2)), 0),
    # K = U(2): compact roots +-(e1-e2); s carries +-(e1+e2), +-2e1, +-2e2.
    "sp4r": (2, ((1, 0), (0, 1)), ((1, -1),), ((1, 1), (2, 0), (0, 2)), 0),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


@functools.cache
def _catalog_entry(name: str) -> RealFormDescriptor:
    """A row's descriptor: each root and weight followed by its negative,
    the lattice Z^rank_tc for rank_tc the size of the Gram matrix.  Built
    once per process and shared, so its memoised tables stay warm."""
    rank_g, gram, positive, pairs, zero_weight_s_dim = _CATALOG[name]
    compact, noncompact = (
        tuple(v for w in map(Weight, ws) for v in (w, -w)) for ws in (positive, pairs)
    )
    n = len(gram)
    return RealFormDescriptor(
        name=name,
        rank_tc=n,
        rank_g=rank_g,
        form=BilinearForm(gram),
        compact_roots=compact,
        positive_compact=compact[::2],
        noncompact_weights=noncompact,
        zero_weight_s_dim=zero_weight_s_dim,
        integrality_basis=tuple(Weight([int(i == j) for j in range(n)]) for i in range(n)),
    )


def catalog(name: str) -> RealFormDescriptor:
    """A validated built-in descriptor; deterministic across runs."""
    if name not in _CATALOG:
        raise UnknownGroup(
            f"unknown group {name!r}; catalog has {', '.join(catalog_names())}"
        )
    d = _catalog_entry(name)
    report = validate(d)
    if not report.ok:
        raise DescriptorValidationError(report)
    return d

