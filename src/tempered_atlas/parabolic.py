"""Theta-stable parabolic subalgebras cut out by a weight.

A weight lam that is strictly dominant for the fixed compact positives
partitions the torus weights of the group into three exact-sign buckets:
strictly positive pairing (the nilradical u), zero pairing (the Levi), and
strictly negative (the opposite nilradical, kept implicitly).  The zero
bucket then consists of noncompact +-pairs only, one rank-one split factor
per pair, mutually orthogonal, plus the central zero-weight part.

The compact roots in u are the positive compact roots whatever lam is, and
lam pairs with -g as minus with g, so the buckets depend on lam only
through its sign vector over the noncompact positive system, one sign per
+-pair: its face.  A sign + puts g in u, a sign - puts -g there, and a
zero makes g a Levi pair.  A descriptor has finitely many faces, and the
face is the parabolic: one ThetaParabolic per sign vector, with its sorted
buckets checked and its half-sums computed once, kept in the descriptor's
``IntegerFrame.faces`` and shared by every lam on it.  So are the laws on
those constants: the Levi pairs are orthogonal; mu = kappa - mu_shift
pairs to -1 with each coroot for every kappa whose kappa + rho_K lies on
the face; and mu_shift - genuine_shift (minus the noncompact positives the
face flips) is integral, so mu and every minimal K-type are integral for
each genuine kappa on the face.  Each face checks them once.
build_parabolic is the one map from a weight to its face and the one
maker of faces (the class takes no arguments): the inverse matching calls
it too, and its noncompact positive system is the u of a face with no
zero sign.  A face is the value (descriptor, signs), and a copy or a
pickle of it is its descriptor's table entry.  The signs, and the strict
dominance of lam, are read from the descriptor's integer pairing table.
The face keeps its offsets only as numerators over D (``integer_frame``),
half-sums of the root table's numerators, and each Levi pair's entry of
that table (numerators, row and norm), so that the Levi law is one
integer test per pair and ``project_levi`` takes mu to kappa_l on integers.
"""

import itertools
from fractions import Fraction
from operator import add, mul, sub

from .errors import NotStrictlyDominant, StructuralInvariantError, ZeroRoot
from .groups import RealFormDescriptor, _Numerators, integer_frame, is_integral
from .weights import Weight, _Frozen


class ThetaParabolic(_Frozen):
    """The checked buckets of one face and the half-sums they determine, over D;
    a value on (descriptor, signs)."""

    __match_args__ = ("descriptor", "signs")

    def __new__(cls, *args, **kwargs):
        raise TypeError("ThetaParabolic takes no arguments: a face comes from build_parabolic")

    def __reduce__(self):
        return _face, (self.descriptor, self.signs)

    def _build(self, d: RealFormDescriptor, signs):  # called by _face alone
        # A strictly dominant weight is positive exactly on the positive
        # compact roots when the compact roots are +-positive_compact; the
        # partition check below fails on a descriptor where they are not.
        frame = integer_frame(d)
        positives = d.noncompact_positives()
        u_noncompact = tuple(sorted(g if s > 0 else -g for g, s in zip(positives, signs) if s))
        l_pairs = tuple(g for g, s in zip(positives, signs) if not s)

        # Nonzero (the partition check rejects a zero weight) and orthogonal,
        # the Levi pairs give 2^N distinct offsets (1/2) sum s_j b_j: the
        # minimal K-types of every component are pairwise distinct.
        for i, a in enumerate(l_pairs):
            for b in l_pairs[i + 1 :]:
                if d.form.sign(a, b):
                    raise StructuralInvariantError(
                        "rank-one Levi factors must be mutually orthogonal; "
                        f"{a} and {b} are not"
                    )
        counts = (frame.n_compact, len(u_noncompact), len(l_pairs))
        if 2 * sum(counts) != len(d.compact_roots) + len(d.noncompact_weights):
            raise StructuralInvariantError(
                "sign buckets do not partition the torus weights; descriptor "
                "lists are inconsistent"
            )

        # Each Levi pair's entry of the root table: numerators, row and norm.
        l_pair_terms = tuple(e for e, s in zip(frame.roots[frame.n_compact :], signs) if not s)
        # rho(s cap u), and the signed Levi half-sums (1/2) sum s_j b_j, one
        # per sign vector s in itertools.product((1, -1), repeat=N) order,
        # +1 first, kept only as numerators over D.
        rho_s_cap_u_nums = frame.half_sum_nums(signs, frame.roots[frame.n_compact :])
        rho_l_nums = tuple(
            frame.half_sum_nums(choice, l_pair_terms)
            for choice in itertools.product((1, -1), repeat=len(l_pairs))
        )
        # kappa - mu for the all-plus sign choice.
        mu_shift_nums = tuple(map(add, rho_s_cap_u_nums, rho_l_nums[0]))
        # mu_shift - genuine_shift is minus the positives the face flips.
        if not is_integral(d, frame.weight(tuple(map(sub, mu_shift_nums, frame.genuine)))):
            raise StructuralInvariantError(
                f"{d.name}: mu must be integral on the face with signs {signs}; "
                "a noncompact positive it flips is outside the integral lattice"
            )
        # <kappa + rho_K, b> = 0 for each Levi pair b of every kappa on the
        # face, so each such mu has <mu, b^vee> = -<rho_K + mu_shift, b^vee>.
        shifted = tuple(map(add, frame.rho, mu_shift_nums))
        for beta, (_, row, q) in zip(l_pairs, l_pair_terms):
            if not q:
                raise ZeroRoot(f"zero-length root {beta}")
            if (p := 2 * sum(map(mul, shifted, row))) != q:
                raise StructuralInvariantError(
                    f"mu must restrict to minus one half of each Levi pair; "
                    f"coroot pairing against {beta} is {Fraction(-p, q)}"
                )
        # Each field written once, as _Frozen's generated __init__ writes.
        self.__dict__.update(
            descriptor=d, signs=signs, frame=frame, u_noncompact=u_noncompact,
            l_pairs=l_pairs, n_pairs=len(l_pairs), l_pair_terms=l_pair_terms,
            rho_s_cap_u_nums=rho_s_cap_u_nums, rho_l_nums=rho_l_nums, mu_shift_nums=mu_shift_nums,
            rho_s_cap_u_compact=frame.dots(rho_s_cap_u_nums)[: frame.n_compact],
            # Each rho_l + 2 rho(s cap u): kappa_l to a minimal K-type, as twice
            # rho(s cap u) is the shift from a fine weight to its minimal K-type.
            k_type_shift_nums=tuple(
                tuple([2 * x + y for x, y in zip(rho_s_cap_u_nums, r)]) for r in rho_l_nums
            ),
        )
        return self

    def project_levi(self, mu_nums: tuple[int, ...]) -> tuple[int, ...]:
        """kappa_l over D for mu = kappa - mu_shift, kappa on the face:
        mu's numerators less their component along each Levi pair, a plain
        sum of rank-one projections as the pairs are orthogonal.  Each
        division is exact: the face's law makes every coefficient
        <mu, b> / <b, b> equal to -1/2, and D holds twice each noncompact
        denominator, so every numerator of b is even."""
        out = mu_nums
        for b, row, q in self.l_pair_terms:
            c = sum(map(mul, mu_nums, row))
            out = tuple([x - c * y // q for x, y in zip(out, b)])
        return out


def build_parabolic(d: RealFormDescriptor, lam: Weight) -> ThetaParabolic:
    """Bucket every torus weight of the group by the exact sign of its
    pairing with lam.

    lam must be strictly dominant for the fixed compact positives; the
    compact roots in u are then the positive ones, the zero bucket is
    guaranteed to contain noncompact pairs only, and the pair
    representatives (first nonzero coordinate positive) are mutually
    orthogonal.  Only the signs over the noncompact positive system are
    computed, one per +-pair; they pick the shared parabolic of the face,
    the same object for every lam on it, kept in ``IntegerFrame.faces``.
    The hot path passes lam's ``IntegerFrame.pairings`` as ``_Numerators``, a
    dominant weight's plus a multiple of rho_K's, so a failure there names rho_K.
    """
    frame = integer_frame(d)
    values = lam if type(lam) is _Numerators else frame.pairings(lam)
    if (nc := frame.n_compact) and min(values[:nc]) <= 0:
        what = f"{d.name}: rho_K = {d.rho_compact()}" if values is lam else lam
        raise NotStrictlyDominant(f"{what} is not strictly dominant for the compact positives")
    signs = tuple([(v > 0) - (v < 0) for v in values[nc:]])
    return frame.faces.get(signs) or _face(d, signs)  # a cached face: one lookup


def _face(d: RealFormDescriptor, signs: tuple[int, ...]) -> ThetaParabolic:
    """The entry for signs in d's face table, built and checked on first use."""
    faces = integer_frame(d).faces
    try:
        return faces[signs]
    except KeyError:
        # Stored only once every check has passed, so a failing face
        # fails again on every call.
        value = faces[signs] = object.__new__(ThetaParabolic)._build(d, signs)
        return value
