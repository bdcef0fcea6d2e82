"""Classification of essential components by dominant weights.

Starting from a dominant weight kappa, the parabolic is built at
kappa + rho_K, and a datum (parabolic, kappa, mu, kappa_l) comes back with
the shifted weight mu = kappa - rho(s cap u) - rho_l(+1..+1).  Two laws of
the face, each checked once by its ThetaParabolic, hold for every kappa on
it: mu pairs to -1 with each Levi coroot, so every datum is essential by
construction and nothing is stored for it; and mu is integral exactly when
kappa is genuine.  So the construction tests a public kappa for dominance
(NotDominant) and genuineness (NotGenuine, the lattice test on mu), and
every genuine dominant kappa yields a datum.  Ball enumeration walks only
the dominant genuine kappa: in a basis of the shifted lattice adapted to
the simple compact roots, dominance is one integer lower bound per pivot
coordinate of the integer ellipsoid walk, and a walked kappa the
construction finds non-dominant is an internal failure.  Each test on
kappa runs on numerators over D, as the walk hands kappa on, and so does
the face's Levi projection of mu to kappa_l; the datum keeps kappa and
kappa_l so, with kappa's Weight built once.  Only construct_from_kappa
makes a datum, a copy or a pickle too, so every datum has passed its tests.
"""

from fractions import Fraction
from operator import add, mul, sub

from .errors import InternalBijectionFailure, NotDominant, NotGenuine, StructuralInvariantError
from .groups import (  # genuine_shift and is_genuine are re-exported here
    RealFormDescriptor, _Numerators, genuine_shift, integer_frame, is_genuine,
    is_integral, lattice_coordinates, per_descriptor,
)
from .parabolic import build_parabolic
from .ratlin import ellipsoid_integer_points, matvec
from .weights import Weight, _coerce, _Frozen


class EssentialVoganDatum(_Frozen):
    """Computable shadow of one essential component; the class takes no
    arguments, and a copy or a pickle is rebuilt by construct_from_kappa.

    kappa generates the datum; mu is the integral shift for the all-plus
    sign choice; kappa_l is mu with its components along the Levi pairs
    removed.  kappa and kappa_l are held as numerators over D (``kappa_nums``,
    ``kappa_l_nums``), mu as kappa less the face's ``mu_shift_nums``."""

    __match_args__ = ("parabolic", "kappa", "mu", "kappa_l")
    __slots__ = ("parabolic", "kappa", "kappa_nums", "kappa_l_nums")

    def __new__(cls, *args, **kwargs):
        raise TypeError(
            "EssentialVoganDatum takes no arguments: a datum comes from construct_from_kappa"
        )

    def __reduce__(self):
        return construct_from_kappa, (self.descriptor, self.kappa)

    @property
    def mu(self) -> Weight:
        p = self.parabolic
        return p.frame.weight(tuple(map(sub, self.kappa_nums, p.mu_shift_nums)))

    @property
    def kappa_l(self) -> Weight:
        return self.parabolic.frame.weight(self.kappa_l_nums)

    @property
    def descriptor(self) -> RealFormDescriptor:
        return self.parabolic.descriptor

    @property
    def n_pairs(self) -> int:
        return self.parabolic.n_pairs


class ClassificationRun(_Frozen):
    """The data of every component in the ball of the given radius about 0
    in group, sorted by kappa."""

    group: str
    radius: Fraction
    entries: tuple[EssentialVoganDatum, ...]


def construct_from_kappa(d: RealFormDescriptor, kappa: Weight):
    """The datum generated by kappa.  Raises NotDominant unless kappa is
    dominant, and NotGenuine unless it is genuine, which is exactly when
    the shifted weight mu is integral."""
    frame = integer_frame(d)
    trusted = type(kappa) is _Numerators  # the walk's genuine kappa: untested, copied
    k = tuple(kappa) if trusted else frame.over_den(kappa)
    values = frame.pairings(kappa) if k is None else frame.dots(k)
    if trusted:
        kappa = frame.weight(k)  # from the plain copy: no Weight holds the marker
    if (nc := frame.n_compact) and min(values[:nc]) < 0:
        raise NotDominant(f"{kappa} is not dominant for the compact positives")
    if k is not None:
        p = build_parabolic(d, _Numerators(map(add, values, frame.rho_pairings)))
        mu = tuple(map(sub, k, p.mu_shift_nums))
    if k is None or (not trusted and not is_integral(d, frame.weight(mu))):
        raise NotGenuine(f"{kappa} is not the highest weight of a genuine type")

    datum = object.__new__(EssentialVoganDatum)  # k and kappa_l are already over D
    fill = object.__setattr__
    fill(datum, "parabolic", p)
    fill(datum, "kappa", kappa)
    fill(datum, "kappa_nums", k)
    fill(datum, "kappa_l_nums", p.project_levi(mu))
    return datum


@per_descriptor
def _chamber_walk(d: RealFormDescriptor):
    """(center, quad, scale, lower, shift_nums, dots): the walk over the
    dominant genuine kappa = (shift_nums + dots(m)) / D, dots(m) = m basis_nums,
    whose squared norm is (m - c) quad (m - c)^T / scale for the integer
    quad, with the centre c = nums / den given as center = (nums, den).

    Built once per descriptor.  The integrality basis is changed by a
    unimodular integer transform that brings the pairing matrix
    <b_j, alpha_i^vee> against the simple compact roots to echelon form:
    root i pivots in row r - 1 - i, with zeros in the rows before it.  Its
    columns are read from the simple roots' rows of the descriptor's root
    table over D, each a positive multiple of the coroot pairings, which
    gives the same echelon basis and the same lower bounds.  The walk fixes
    coordinates from the last, so dominance on alpha_i is one integer lower
    bound on coordinate r - 1 - i given those already fixed.
    A row operation on the basis acts on lattice coordinates by the inverse
    column operation, so the centre moves with it.
    """
    coords = lattice_coordinates(d, -genuine_shift(d))
    if coords is None:
        raise StructuralInvariantError("integrality basis is singular")
    center, center_den = list(coords[0]), coords[1]
    frame = integer_frame(d)

    # One integer column per simple root: shift and then each basis row,
    # over D, dotted with the root's row.
    nums = [frame.genuine, *map(frame.over_den, d.integrality_basis)]
    columns = [[sum(map(mul, x, row)) for x in nums] for _, row, _ in frame.simple]
    # Each row: its pairings with the simples, then its basis numerators.
    rows = [[*(col[j] for col in columns), *b] for j, b in enumerate(nums) if j]
    r = len(rows)
    for i in range(len(columns)):
        # Euclid on column i over rows 0..t, ending with its gcd in row t.
        t = r - 1 - i
        while True:
            live = [j for j in range(t + 1) if rows[j][i]]
            if not live:
                raise StructuralInvariantError(
                    "simple compact roots are not independent on the lattice"
                )
            p = min(live, key=lambda j: abs(rows[j][i]))
            if len(live) == 1:
                break
            for j in live:
                if j != p:
                    q = rows[j][i] // rows[p][i]
                    rows[j] = [x - q * y for x, y in zip(rows[j], rows[p])]
                    center[p] += q * center[j]
        rows[p], rows[t] = rows[t], rows[p]
        center[p], center[t] = center[t], center[p]
        if rows[t][i] < 0:
            rows[t] = [-x for x in rows[t]]
            center[t] = -center[t]
    lower = [None] * r
    for i, col in enumerate(columns):
        lower[r - 1 - i] = (col[0], tuple(row[i] for row in rows))

    basis_nums = tuple(tuple(row[len(columns) :]) for row in rows)
    # Numerators over D pair to <x, y> times D^2 and the form's denominator.
    gram_rows = [frame.gram(y) for y in basis_nums]
    quad = tuple(tuple([sum(map(mul, x, g)) for g in gram_rows]) for x in basis_nums)
    dots = matvec(zip(*basis_nums))
    return (tuple(center), center_den), quad, frame.scale, tuple(lower), nums[0], dots


def enumerate_ball(
    d: RealFormDescriptor, radius_sq: Fraction
) -> tuple[EssentialVoganDatum, ...]:
    """Every datum whose kappa is dominant, genuine, and of squared norm at
    most radius_sq, sorted by kappa coordinates.

    The genuine weights are the coset shift + (integer span of the basis);
    in the basis of ``_chamber_walk`` the squared norm is a positive
    definite quadratic in the integer coordinates and dominance is a lower
    bound per pivot coordinate, so the integer ellipsoid walk visits the
    dominant genuine kappa in the ball and nothing else.  A walked kappa
    that construct_from_kappa finds non-dominant is a hard correctness
    failure, not a skip.
    """
    center, quad, scale, lower, shift_nums, dots = _chamber_walk(d)
    found = []
    for n in ellipsoid_integer_points(center, quad, _coerce(radius_sq) * scale, lower):
        k = _Numerators(map(add, shift_nums, dots(n)))
        try:
            found.append((k, construct_from_kappa(d, k)))
        except NotDominant as exc:
            raise InternalBijectionFailure(
                f"the dominant-chamber walk reached the non-dominant {integer_frame(d).weight(k)}"
            ) from exc

    # Over one positive D, numerator order is kappa order; the kappa are
    # distinct, as the walk's points are and its basis is unimodular.
    found.sort(key=lambda item: item[0])
    return tuple(datum for _, datum in found)


def enumerate_components(d: RealFormDescriptor, radius) -> ClassificationRun:
    """Classification run over the closed ball of the given radius > 0, an
    int or a Fraction: any other type is refused (TypeError)."""
    radius = _coerce(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    entries = enumerate_ball(d, radius * radius)
    return ClassificationRun(group=d.name, radius=radius, entries=entries)
