"""Theta-stable parabolic subalgebras cut out by a weight.

A weight lam that is strictly dominant for the fixed compact positives
partitions the torus weights of the group into three exact-sign buckets:
strictly positive pairing (the nilradical u), zero pairing (the Levi), and
strictly negative (the opposite nilradical, kept implicitly).  The zero
bucket then consists of noncompact +-pairs only, one rank-one split factor
per pair, mutually orthogonal, plus the central zero-weight part.

The compact roots in u are the positive compact roots whatever lam is, so
the buckets depend on lam only through its sign vector over the noncompact
weights, its face.  A descriptor has finitely many faces, and the face is
the parabolic: one ThetaParabolic per sign vector, with its sorted buckets
checked and its half-sums computed once, is shared by every lam on it and
by the inverse matching, whose noncompact positive system is the u of a
face with no zero sign.  The signs, and the strict dominance of lam, are
read from the descriptor's integer pairing table.
"""

from .errors import DimensionMismatch, NotStrictlyDominant, StructuralInvariantError
from .groups import RealFormDescriptor, lex_positive, per_descriptor
from .weights import Weight, half_sum


class ThetaParabolic:
    """The checked buckets of one face and the half-sums they determine."""

    def __init__(self, d: RealFormDescriptor, signs):
        # A strictly dominant weight is positive exactly on the positive
        # compact roots when the compact roots are +-positive_compact; the
        # partition check below fails on a descriptor where they are not.
        self.descriptor = d
        self.u_compact = tuple(sorted(d.positive_compact))
        weights = d.noncompact_weights
        self.u_noncompact = tuple(sorted(g for g, s in zip(weights, signs) if s > 0))
        self.l_pairs = tuple(sorted(g for g, s in zip(weights, signs) if not s and lex_positive(g)))
        self.n_pairs = len(self.l_pairs)

        for i, a in enumerate(self.l_pairs):
            for b in self.l_pairs[i + 1 :]:
                if d.form.sign(a, b):
                    raise StructuralInvariantError(
                        "rank-one Levi factors must be mutually orthogonal; "
                        f"{a} and {b} are not"
                    )
        counts = (len(self.u_compact), len(self.u_noncompact), self.n_pairs)
        if 2 * sum(counts) != len(d.compact_roots) + len(d.noncompact_weights):
            raise StructuralInvariantError(
                "sign buckets do not partition the torus weights; descriptor "
                "lists are inconsistent"
            )

        self._rho_s_cap_u = half_sum(self.u_noncompact, rank=d.rank_tc)
        self._two_rho_s_cap_u = 2 * self._rho_s_cap_u
        rho_l_all_plus = half_sum(self.l_pairs, rank=d.rank_tc)
        self._mu_shift = self._rho_s_cap_u + rho_l_all_plus
        # rho_l_plus by sign vector; at most 2^N entries.
        self._rho_l = {(1,) * self.n_pairs: rho_l_all_plus}

    def rho_s_cap_u(self) -> Weight:
        """Half-sum of the noncompact weights in the nilradical."""
        return self._rho_s_cap_u

    def two_rho_s_cap_u(self) -> Weight:
        """Twice rho_s_cap_u, the shift from a fine weight to its minimal
        K-type."""
        return self._two_rho_s_cap_u

    def mu_shift(self) -> Weight:
        """rho(s cap u) + rho_l_plus(+1, ..., +1), which kappa - mu equals
        for the all-plus sign choice."""
        return self._mu_shift

    def rho_l_plus(self, signs) -> Weight:
        """Half-sum of one signed member per Levi pair: (1/2) sum s_j b_j."""
        signs = tuple(signs)
        if len(signs) != self.n_pairs:
            raise DimensionMismatch(
                f"{len(signs)} signs for {self.n_pairs} Levi pairs"
            )
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        memo = self._rho_l
        try:
            return memo[signs]
        except KeyError:
            value = memo[signs] = half_sum(
                (s * b for s, b in zip(signs, self.l_pairs)),
                rank=self.descriptor.rank_tc,
            )
            return value


@per_descriptor
def _face_table(d: RealFormDescriptor) -> dict:
    """Parabolics keyed by a sign vector over the noncompact weights, filled
    as build_parabolic and match_inverse meet them."""
    return {}


def face(d: RealFormDescriptor, signs: tuple[int, ...]) -> ThetaParabolic:
    """The parabolic of the face with the given sign vector over
    ``d.noncompact_weights``."""
    table = _face_table(d)
    try:
        return table[signs]
    except KeyError:
        # Stored only once every check has passed, so a failing face
        # fails again on every call.
        value = table[signs] = ThetaParabolic(d, signs)
        return value


def build_parabolic(d: RealFormDescriptor, lam: Weight) -> ThetaParabolic:
    """Bucket every torus weight of the group by the exact sign of its
    pairing with lam.

    lam must be strictly dominant for the fixed compact positives; the
    compact roots in u are then the positive ones, the zero bucket is
    guaranteed to contain noncompact pairs only, and the pair
    representatives (first nonzero coordinate positive) are mutually
    orthogonal.  Only the signs over the noncompact weights are computed;
    they pick the shared parabolic of the face, the same object for every
    lam on it.  Both the dominance guard and the signs read the
    descriptor's pairing table.
    """
    if not d.is_dominant_weight(lam, strict=True):
        raise NotStrictlyDominant(
            f"{lam} does not pair strictly positively with every positive "
            "compact root"
        )
    values = d.form.pairings(lam, d.pairing_table()[1])
    return face(d, tuple((v > 0) - (v < 0) for v in values))
