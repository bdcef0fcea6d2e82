"""Theta-stable parabolic subalgebras cut out by a weight.

A weight lam that is strictly dominant for the fixed compact positives
partitions the torus weights of the group into three exact-sign buckets:
strictly positive pairing (the nilradical u), zero pairing (the Levi), and
strictly negative (the opposite nilradical, kept implicitly).  The zero
bucket then consists of noncompact +-pairs only, one rank-one split factor
per pair, mutually orthogonal, plus the central zero-weight part.

The buckets depend on lam only through its sign vector over the torus
weights, its face.  A descriptor has finitely many faces, so the sorted
buckets, their checks and the half-sums they determine are built once per
face and shared by every parabolic on it.
"""

from dataclasses import dataclass, field

from .errors import (
    DimensionMismatch,
    NondegeneracyViolation,
    NotStrictlyDominant,
    StructuralInvariantError,
)
from .groups import RealFormDescriptor, lex_positive, per_descriptor
from .weights import Weight, half_sum


class _FaceSums:
    """The half-sums a face's buckets determine, shared by its parabolics."""

    __slots__ = ("rho_s_cap_u", "mu_shift", "rho_l")

    def __init__(self, rank: int, u_noncompact, l_pairs):
        self.rho_s_cap_u = half_sum(u_noncompact, rank=rank)
        rho_l_all_plus = half_sum(l_pairs, rank=rank)
        self.mu_shift = self.rho_s_cap_u + rho_l_all_plus
        # rho_l_plus by sign vector; at most 2^N entries.
        self.rho_l = {(1,) * len(l_pairs): rho_l_all_plus}


@dataclass(frozen=True)
class ThetaParabolic:
    descriptor: RealFormDescriptor
    defining_weight: Weight
    u_compact: tuple[Weight, ...]
    u_noncompact: tuple[Weight, ...]
    l_pairs: tuple[Weight, ...]
    m0: int
    _sums: _FaceSums = field(compare=False, repr=False)

    @property
    def n_pairs(self) -> int:
        return len(self.l_pairs)

    def rho_s_cap_u(self) -> Weight:
        """Half-sum of the noncompact weights in the nilradical."""
        return self._sums.rho_s_cap_u

    def mu_shift(self) -> Weight:
        """rho(s cap u) + rho_l_plus(+1, ..., +1), which kappa - mu equals
        for the all-plus sign choice."""
        return self._sums.mu_shift

    def rho_l_plus(self, signs) -> Weight:
        """Half-sum of one signed member per Levi pair: (1/2) sum s_j b_j."""
        signs = tuple(signs)
        if len(signs) != self.n_pairs:
            raise DimensionMismatch(
                f"{len(signs)} signs for {self.n_pairs} Levi pairs"
            )
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        memo = self._sums.rho_l
        try:
            return memo[signs]
        except KeyError:
            value = memo[signs] = half_sum(
                (s * b for s, b in zip(signs, self.l_pairs)),
                rank=self.descriptor.rank_tc,
            )
            return value

    def assembled_noncompact_positives(self, signs) -> tuple[Weight, ...]:
        """Noncompact part of the positive system built from the nilradical
        plus a sign choice on the Levi pairs."""
        signs = tuple(signs)
        if len(signs) != self.n_pairs:
            raise DimensionMismatch(
                f"{len(signs)} signs for {self.n_pairs} Levi pairs"
            )
        return self.u_noncompact + tuple(
            s * b for s, b in zip(signs, self.l_pairs)
        )


@per_descriptor
def _face_table(d: RealFormDescriptor):
    """(the torus weights in a fixed order, the face shapes keyed by a sign
    vector over them); build_parabolic fills the table as it meets faces."""
    return d.compact_roots + d.noncompact_weights, {}


def build_parabolic(d: RealFormDescriptor, lam: Weight) -> ThetaParabolic:
    """Bucket every torus weight of the group by the exact sign of its
    pairing with lam.

    lam must be strictly dominant for the fixed compact positives; the zero
    bucket is then guaranteed to contain noncompact pairs only, and the pair
    representatives (first nonzero coordinate positive) are mutually
    orthogonal.
    """
    if not d.is_dominant_weight(lam, strict=True):
        raise NotStrictlyDominant(
            f"{lam} does not pair strictly positively with every positive "
            "compact root"
        )
    weights, table = _face_table(d)
    sign = d.form.sign
    face = tuple(sign(lam, g) for g in weights)
    try:
        shape = table[face]
    except KeyError:
        # Stored only once every check has passed, so a failing face
        # fails again on every call.
        shape = table[face] = _face_shape(d, lam, face)
    return ThetaParabolic(d, lam, *shape[:3], d.zero_weight_s_dim, shape[3])


def _face_shape(d: RealFormDescriptor, lam: Weight, face):
    """(u_compact, u_noncompact, l_pairs, half-sums) of the face of lam,
    checked; lam itself is read only to name it in an error."""
    form = d.form
    n_compact = len(d.compact_roots)
    u_compact = []
    for alpha, s in zip(d.compact_roots, face):
        if s > 0:
            u_compact.append(alpha)
        elif s == 0:
            raise NondegeneracyViolation(
                f"compact root {alpha} pairs to zero with {lam}"
            )

    u_noncompact = []
    l_pairs = []
    for gamma, s in zip(d.noncompact_weights, face[n_compact:]):
        if s > 0:
            u_noncompact.append(gamma)
        elif s == 0 and lex_positive(gamma):
            l_pairs.append(gamma)

    u_compact.sort()
    u_noncompact.sort()
    l_pairs.sort()

    for i, a in enumerate(l_pairs):
        for b in l_pairs[i + 1 :]:
            if form.sign(a, b):
                raise StructuralInvariantError(
                    "rank-one Levi factors must be mutually orthogonal; "
                    f"{a} and {b} are not"
                )

    total = 2 * len(u_compact) + 2 * len(u_noncompact) + 2 * len(l_pairs)
    if total != len(d.compact_roots) + len(d.noncompact_weights):
        raise StructuralInvariantError(
            "sign buckets do not partition the torus weights; descriptor "
            "lists are inconsistent"
        )

    return (
        tuple(u_compact),
        tuple(u_noncompact),
        tuple(l_pairs),
        _FaceSums(d.rank_tc, u_noncompact, l_pairs),
    )
