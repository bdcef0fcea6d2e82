"""Per-component invariants and the two-way matching.

From a datum: the 2^N fine weights kappa_l + (1/2) sum s_j b_j, the minimal
K-types (fine weight + twice the noncompact nilradical half-sum), the Dirac
highest weight kappa_l + rho(s cap u) (always equal to kappa), and the
R-group order 2^N, each offset a plain value of the face.  The inverse
direction recovers kappa from a minimal K-type as mu - rho_G + rho_K for the
unique positive system making mu + 2 rho_K strictly dominant; rho_G - rho_K
is the rho(s cap u) of build_parabolic(mu + 2 rho_K), a face with no Levi
pair.  summarize leaves every check on kappa to construct_from_kappa.  Every
dominance test here reads the descriptor's integer pairing table.
"""

from dataclasses import dataclass

from .classify import EssentialVoganDatum, construct_from_kappa
from .errors import (
    AmbiguousPositiveSystem,
    DominanceFailure,
    NotDominant,
    NotIntegral,
    StructuralInvariantError,
)
from .groups import RealFormDescriptor, is_integral
from .parabolic import build_parabolic
from .weights import Weight


@dataclass(frozen=True)
class ComponentSummary:
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
    choice s gives mu plus the beta_j with s_j = +1.  construct_from_kappa
    has checked mu integral and each coroot pairing, and validate puts
    every beta_j in the lattice."""
    kappa_l = datum.kappa_l
    return tuple(kappa_l + r for r in datum.parabolic.rho_l)


def minimal_k_types(datum: EssentialVoganDatum, fine=None) -> tuple[Weight, ...]:
    """Fine weights shifted by 2 rho(s cap u): the minimal K-type highest
    weights, pairwise distinct and dominant.  ``fine`` is fine_weights(datum)
    when the caller already has it."""
    if fine is None:
        fine = fine_weights(datum)
    shift = datum.parabolic.two_rho_s_cap_u
    out = tuple(w + shift for w in fine)
    d = datum.descriptor
    for w in out:
        if not d.is_dominant_weight(w):
            raise DominanceFailure(
                f"computed minimal K-type {w} is not dominant"
            )
    if len(set(out)) != len(out):
        raise StructuralInvariantError("minimal K-types must be pairwise distinct")
    return out


def dirac_highest_weight(datum: EssentialVoganDatum) -> Weight:
    """kappa_l + rho(s cap u); algebraically equal to kappa, and checked."""
    hw = datum.kappa_l + datum.parabolic.rho_s_cap_u
    if hw != datum.kappa:
        raise StructuralInvariantError(
            f"Dirac highest weight {hw} must equal the generating weight "
            f"{datum.kappa}"
        )
    return hw


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
    if not is_integral(d, mu_g):
        raise NotIntegral(f"{mu_g} is not analytically integral")
    if not d.is_dominant_weight(mu_g):
        raise NotDominant(f"{mu_g} is not dominant for the compact positives")
    # build_parabolic's strict-dominance guard holds: mu_g is dominant and
    # validate's positive_system rule makes 2 rho_K strictly dominant.
    p = build_parabolic(d, mu_g + d.two_rho_compact())
    if p.l_pairs:
        raise AmbiguousPositiveSystem(
            f"{mu_g} + 2 rho_K pairs to zero with {p.l_pairs[0]}"
        )
    kappa = mu_g - p.rho_s_cap_u
    if not d.is_dominant_weight(kappa):
        raise NotDominant(
            f"{mu_g} is not a minimal K-type: it matches back to {kappa}, "
            "which is not dominant for the compact positives"
        )
    return kappa


def summarize_datum(datum: EssentialVoganDatum) -> ComponentSummary:
    """Assemble one component's invariants, verifying both round trips:
    the Dirac highest weight equals kappa, and every minimal K-type maps
    back to kappa through the inverse matching."""
    d = datum.descriptor
    fine = fine_weights(datum)
    k_types = minimal_k_types(datum, fine)
    for w in k_types:
        back = match_inverse(d, w)
        if back != datum.kappa:
            raise StructuralInvariantError(
                f"minimal K-type {w} matches back to {back}, expected "
                f"{datum.kappa}"
            )
    return ComponentSummary(
        kappa=datum.kappa,
        n_pairs=datum.n_pairs,
        r_order=r_group_order(datum),
        fine_weights=fine,
        minimal_k_types=k_types,
        dirac_hw=dirac_highest_weight(datum),
    )


def summarize(d: RealFormDescriptor, kappa: Weight) -> ComponentSummary:
    """The summary of the component kappa generates; construct_from_kappa
    raises NotDominant or NotGenuine when it generates none."""
    return summarize_datum(construct_from_kappa(d, kappa))
