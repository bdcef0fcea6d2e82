"""Per-component invariants and the two-way matching.

From a datum: the 2^N fine weights kappa_l + (1/2) sum s_j b_j, the minimal
K-types (fine weight + twice the noncompact nilradical half-sum), the Dirac
highest weight kappa_l + rho(s cap u) (always equal to kappa), and the
R-group order 2^N, each offset kept by the face over D.  The inverse
direction recovers kappa from a minimal K-type as mu - rho_G + rho_K for the
unique positive system making mu + 2 rho_K strictly dominant; rho_G - rho_K
is the rho(s cap u) of build_parabolic(mu + 2 rho_K), a face with no Levi
pair.  summarize leaves every check on kappa to construct_from_kappa, and
a minimal K-type's one dominance test is match_inverse's, in its round trip.
Every dominance test here reads the descriptor's integer pairing table, and
each weight is kappa_l plus a face offset, as numerators over D.
"""

from operator import add, sub

from .classify import EssentialVoganDatum, construct_from_kappa
from .errors import AmbiguousPositiveSystem, NotDominant, NotIntegral, StructuralInvariantError
from .groups import RealFormDescriptor, _Frozen, _Numerators, integer_frame, is_integral
from .parabolic import build_parabolic
from .weights import Weight


class ComponentSummary(_Frozen):
    """The invariants of the component kappa generates, as summarize_datum
    checks them."""

    kappa: Weight
    n_pairs: int
    r_order: int
    fine_weights: tuple[Weight, ...]
    minimal_k_types: tuple[Weight, ...]
    dirac_hw: Weight


def fine_weights(datum: EssentialVoganDatum) -> tuple[Weight, ...]:
    """kappa_l shifted by every half signed sum of the Levi pairs.

    Each of the 2^N results is integral, with nothing left to check:
    <mu, beta_j^vee> = -1 makes kappa_l = mu + (1/2) sum beta_j, so the sign
    choice s gives mu plus the beta_j with s_j = +1.  The face has checked
    each coroot pairing and that mu is integral for every genuine kappa on
    it, and validate puts every beta_j in the lattice."""
    frame, kappa_l = datum.parabolic.frame, datum.kappa_l_nums
    return tuple([frame.weight(tuple(map(add, kappa_l, r))) for r in datum.parabolic.rho_l_nums])


def minimal_k_types(datum: EssentialVoganDatum) -> tuple[Weight, ...]:
    """Fine weights shifted by 2 rho(s cap u): the minimal K-type highest
    weights, each kappa_l plus an offset of the face; the face's orthogonal
    Levi pairs make them pairwise distinct.  Each goes, as numerators over
    D, through match_inverse, its one dominance test, back to kappa; a
    refusal there is a StructuralInvariantError, as no input is at fault."""
    d = datum.descriptor
    frame, kappa_l, kappa = datum.parabolic.frame, datum.kappa_l_nums, datum.kappa_nums
    out = []
    for s in datum.parabolic.k_type_shift_nums:
        w = tuple(map(add, kappa_l, s))
        try:
            back = match_inverse(d, _Numerators(w))
        except (NotDominant, AmbiguousPositiveSystem) as exc:
            raise StructuralInvariantError(
                f"computed minimal K-type {frame.weight(w)} of {datum.kappa}: {exc}"
            ) from exc
        if back != kappa:
            raise StructuralInvariantError(
                f"minimal K-type {frame.weight(w)} matches back to {frame.weight(back)}, "
                f"expected {datum.kappa}"
            )
        out.append(frame.weight(w))
    return tuple(out)


def dirac_highest_weight(datum: EssentialVoganDatum) -> Weight:
    """kappa_l + rho(s cap u); algebraically equal to kappa, and checked."""
    hw = tuple(map(add, datum.kappa_l_nums, datum.parabolic.rho_s_cap_u_nums))
    if hw != datum.kappa_nums:
        raise StructuralInvariantError(f"Dirac weight kappa_l + rho(s cap u) is not {datum.kappa}")
    return datum.kappa


def r_group_order(datum: EssentialVoganDatum) -> int:
    """2^N with N the number of Levi pairs, one rank-one split factor each."""
    return 2**datum.n_pairs


def match_inverse(d: RealFormDescriptor, mu_g: Weight) -> Weight:
    """Recover the generating weight from a minimal K-type highest weight.

    The positive system is the u of build_parabolic(mu_g + 2 rho_K); a
    Levi pair there (a zero pairing) means the input is not a minimal K-type
    of an essential component and is an error, never a tie-break.  With none,
    its rho(s cap u) is rho_G - rho_K.  mu_g must be analytically integral
    and dominant, which is checked first so that the error names the input,
    and so must the recovered weight.
    """
    frame = integer_frame(d)
    trusted = type(mu_g) is _Numerators  # a computed K-type, integral by the face's law
    if not trusted and not is_integral(d, mu_g):
        raise NotIntegral(f"{mu_g} is not analytically integral")
    m = mu_g if trusted else frame.over_den(mu_g)  # integral, so over D
    values = frame.dots(m)
    if (nc := frame.n_compact) and min(values[:nc]) < 0:
        raise NotDominant(f"{frame.weight(m)} is not dominant for the compact positives")
    # build_parabolic's strict-dominance guard holds: mu_g is dominant and
    # validate's positive_system rule makes 2 rho_K strictly dominant.
    p = build_parabolic(d, _Numerators(map(add, values, frame.two_rho_pairings)))
    if p.l_pairs:
        raise AmbiguousPositiveSystem(
            f"{frame.weight(m)} + 2 rho_K pairs to zero with {p.l_pairs[0]}"
        )
    kappa = tuple(map(sub, m, p.rho_s_cap_u_nums))
    if nc and min(map(sub, values[:nc], p.rho_s_cap_u_compact)) < 0:
        raise NotDominant(
            f"{frame.weight(m)} is not a minimal K-type: it matches back to "
            f"{frame.weight(kappa)}, which is not dominant for the compact positives"
        )
    return kappa if trusted else frame.weight(kappa)


def summarize_datum(datum: EssentialVoganDatum) -> ComponentSummary:
    """Assemble one component's invariants, verifying both round trips:
    the Dirac highest weight equals kappa (dirac_highest_weight), and every
    minimal K-type maps back to kappa through the inverse matching
    (minimal_k_types)."""
    return ComponentSummary(
        datum.kappa, datum.parabolic.n_pairs, r_group_order(datum), fine_weights(datum),
        minimal_k_types(datum), dirac_highest_weight(datum),
    )


def summarize(d: RealFormDescriptor, kappa: Weight) -> ComponentSummary:
    """The summary of the component kappa generates; construct_from_kappa
    raises NotDominant or NotGenuine when it generates none."""
    return summarize_datum(construct_from_kappa(d, kappa))
