"""Classification of essential components by dominant weights.

Starting from a dominant weight kappa, the parabolic is built at
kappa + rho_K, the shifted weight mu = kappa - rho(s cap u) - rho_l(+1..+1)
is tested for lattice integrality, and a datum (parabolic, kappa, mu,
kappa_l) comes back when it passes.  The construction checks that mu has
coroot pairing -1 against each Levi pair, so the sign character is -1 on
every pair and every datum is essential by construction; nothing is stored
for it.  Genuineness of kappa is the same integrality condition phrased
against the half-sum of a noncompact positive system, and ball enumeration
over the shifted lattice therefore never hits a failure.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InternalBijectionFailure, NotDominant, StructuralInvariantError
from .groups import RealFormDescriptor, is_integral, lattice_coordinates, per_descriptor
from .parabolic import ThetaParabolic, build_parabolic
from .ratlin import ellipsoid_integer_points, mat_mul, transpose
from .weights import Weight, half_sum, project_away


@dataclass(frozen=True)
class EssentialVoganDatum:
    """Computable shadow of one essential component.

    kappa generates the datum; mu is the integral shift for the all-plus
    sign choice; kappa_l is mu with its components along the Levi pairs
    removed.
    """

    parabolic: ThetaParabolic
    kappa: Weight
    mu: Weight
    kappa_l: Weight

    @property
    def descriptor(self) -> RealFormDescriptor:
        return self.parabolic.descriptor

    @property
    def n_pairs(self) -> int:
        return self.parabolic.n_pairs

    @property
    def m_values(self) -> tuple[int, ...]:
        """The sign character's value on each Levi pair: always -1, since
        construct_from_kappa refuses any mu whose coroot pairing against a
        Levi pair is not -1."""
        return (-1,) * self.n_pairs


@dataclass(frozen=True)
class ClassificationRun:
    group: str
    radius: Fraction
    entries: tuple[EssentialVoganDatum, ...]

    @property
    def kappas(self) -> tuple[Weight, ...]:
        return tuple(e.kappa for e in self.entries)


def construct_from_kappa(d: RealFormDescriptor, kappa: Weight):
    """The datum generated by a dominant kappa, or None when the shifted
    weight mu falls outside the integral lattice."""
    if not d.is_dominant_weight(kappa):
        raise NotDominant(f"{kappa} is not dominant for the compact positives")

    lam = kappa + d.rho_compact()
    p = build_parabolic(d, lam)
    mu = kappa - p.mu_shift()
    if not is_integral(d, mu):
        return None

    form = d.form
    for beta in p.l_pairs:
        if form.coroot_pairing(mu, beta) != -1:
            raise StructuralInvariantError(
                f"mu must restrict to minus one half of each Levi pair; "
                f"coroot pairing against {beta} is "
                f"{form.coroot_pairing(mu, beta)}"
            )

    kappa_l = project_away(mu, p.l_pairs, form)
    return EssentialVoganDatum(parabolic=p, kappa=kappa, mu=mu, kappa_l=kappa_l)


@per_descriptor
def genuine_shift(d: RealFormDescriptor) -> Weight:
    """Half-sum of the lexicographic noncompact positives; the genuine
    weights form its coset modulo the integral lattice."""
    return half_sum(d.noncompact_positives(), rank=d.rank_tc)


def is_genuine(d: RealFormDescriptor, kappa: Weight) -> bool:
    """Whether kappa - rho(noncompact positives) is integral.

    Any one-per-pair choice of noncompact positives gives the same answer:
    two choices differ by a sum of noncompact weights, which lie in the
    lattice.
    """
    return is_integral(d, kappa - genuine_shift(d))


def enumerate_ball(
    d: RealFormDescriptor, radius_sq: Fraction
) -> tuple[EssentialVoganDatum, ...]:
    """Every datum whose kappa is dominant, genuine, and of squared norm at
    most radius_sq, sorted by kappa coordinates.

    Points of the shifted lattice are enumerated exactly: with basis rows B
    and Gram G the squared norm of shift + nB is a positive definite
    quadratic in the integer vector n, walked by rational LDL recursion.
    Every genuine dominant kappa must yield a datum; a miss is a hard
    correctness failure, not a skip.
    """
    radius_sq = Fraction(radius_sq)
    shift = genuine_shift(d)
    basis = tuple(tuple(b.coords) for b in d.integrality_basis)
    quad = mat_mul(mat_mul(basis, d.form.gram), transpose(basis))
    center = lattice_coordinates(d, -shift)
    if center is None:
        raise StructuralInvariantError("integrality basis is singular")

    # kappa = shift + n B as integer numerators over one denominator.
    den = lcm(shift.int_coords()[1], *(b.int_coords()[1] for b in d.integrality_basis))

    def numerators(w: Weight) -> tuple[int, ...]:
        nums, w_den = w.int_coords()
        return tuple(x * (den // w_den) for x in nums)

    shift_nums = numerators(shift)
    basis_nums = tuple(numerators(b) for b in d.integrality_basis)

    found = []
    for n in ellipsoid_integer_points(center, quad, radius_sq):
        kappa = Weight.from_ints(
            tuple(
                s + sum(c * row[j] for c, row in zip(n, basis_nums))
                for j, s in enumerate(shift_nums)
            ),
            den,
        )
        if not d.is_dominant_weight(kappa):
            continue
        datum = construct_from_kappa(d, kappa)
        if datum is None:
            raise InternalBijectionFailure(
                f"genuine dominant weight {kappa} produced no datum"
            )
        found.append(datum)

    found.sort(key=lambda datum: datum.kappa)
    kappas = [datum.kappa for datum in found]
    if len(set(kappas)) != len(kappas):
        raise InternalBijectionFailure("duplicate kappa in enumeration")
    return tuple(found)


def enumerate_components(d: RealFormDescriptor, radius) -> ClassificationRun:
    """Classification run over the closed ball of the given radius > 0."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    entries = enumerate_ball(d, radius * radius)
    return ClassificationRun(group=d.name, radius=radius, entries=entries)
