"""Finite-dimensional representation calculator for the compact group.

Everything is driven by the compact root data alone, so a central torus
(U(2), SO(2)) costs nothing: central directions ride along as free abelian
coordinates.  Multiplicities come from the Freudenthal recursion, whose sum
along each positive root a stops at the first w + k a that is not a weight.
Tensor products and the multiplicity of a spin-cover type in V (x) S come
from one Brauer-Klimyk fold: each weight of the second factor (a weight of
V, or of the spin module S) shifts hw + rho into the dominant chamber, and
the parity of the walk is its sign.

Weight multisets are plain dicts Weight -> positive integer.  A highest
weight must be dominant and integral on each simple compact coroot.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from .classify import is_genuine
from .errors import NotDominant, NotGenuine, StructuralInvariantError
from .groups import RealFormDescriptor, is_integral, per_descriptor, simple_compact_roots
from .weights import Weight, half_sum, reflect

WeightMultiset = dict

_MAX_CHAMBER_STEPS = 100_000


def to_dominant_chamber(d: RealFormDescriptor, w: Weight):
    """(dominant image, reflection parity, hit a chamber wall)."""
    simples = simple_compact_roots(d)
    sign = 1
    for _ in range(_MAX_CHAMBER_STEPS):
        neg = next((s for s in simples if d.form.sign(w, s) < 0), None)
        if neg is None:
            singular = any(d.form.sign(w, s) == 0 for s in simples)
            return w, sign, singular
        w = reflect(w, neg, d.form)
        sign = -sign
    raise StructuralInvariantError(
        "dominant chamber walk did not terminate; compact root data is "
        "not a root system"
    )


def _check_highest_weight(d: RealFormDescriptor, hw: Weight) -> None:
    """Dominant and integral on each simple compact coroot, or NotDominant."""
    if not d.is_dominant_weight(hw):
        raise NotDominant(f"{hw} is not dominant")
    for a in simple_compact_roots(d):
        if (c := d.form.coroot_pairing(hw, a)).denominator != 1:
            raise NotDominant(f"{hw} is not a highest weight: <{hw}, {a}^vee> = {c}")


def weyl_dim(d: RealFormDescriptor, hw: Weight) -> int:
    """Product over positive compact roots of <hw + rho, a> / <rho, a>."""
    _check_highest_weight(d, hw)
    rho = d.rho_compact()
    value = Fraction(1)
    for a in d.positive_compact:
        value *= d.form.inner(hw + rho, a) / d.form.inner(rho, a)
    if value.denominator != 1 or value <= 0:
        raise StructuralInvariantError(
            f"dimension formula gave the non-integer {value}"
        )
    return int(value)


# Bounded so that a long-lived process does not grow without limit; a run
# of single queries typically meets a few dozen highest weights.
@lru_cache(maxsize=256)
def _freudenthal_items(d: RealFormDescriptor, hw: Weight):
    _check_highest_weight(d, hw)  # once per cached hw; a refusal is never cached
    form = d.form
    simples = simple_compact_roots(d)
    mult = {hw: 1}
    rho = d.rho_compact()
    top = form.norm_sq(hw + rho)

    # Walk hw - (nonnegative combinations of simple roots) level by level.
    # Every true weight below hw has a true-weight parent one simple root
    # up, so expanding only positive-multiplicity frontiers loses nothing.
    frontier = [hw]
    while frontier:
        candidates = {w - s for w in frontier for s in simples}
        frontier = []
        for w in sorted(candidates):
            wd = to_dominant_chamber(d, w)[0]
            if wd != w:
                # Multiplicities are reflection invariant; the dominant
                # image sits at a strictly earlier level, already decided.
                m = mult.get(wd, 0)
            else:
                # A dominant w below hw is a weight (Humphreys 21.3), and
                # the a-string through a weight is unbroken, so the sum
                # over w + k a, k >= 1, ends at the first k off the string.
                acc = 0
                for a in d.positive_compact:
                    x = w + a
                    while mk := mult.get(x):
                        acc += mk * form.inner(x, a)
                        x = x + a
                denom = top - form.norm_sq(w + rho)
                if denom <= 0 or (m := 2 * acc / denom).denominator != 1 or m < 0:
                    raise StructuralInvariantError(
                        f"multiplicity recursion gave 2 * {acc} / {denom} at {w}"
                    )
                m = int(m)
            if m > 0:
                mult[w] = m
                frontier.append(w)
    return tuple(sorted(mult.items()))


def freudenthal(d: RealFormDescriptor, hw: Weight) -> WeightMultiset:
    """Full weight multiset of the irreducible with highest weight hw."""
    return dict(_freudenthal_items(d, hw))


def _klimyk_fold(d: RealFormDescriptor, hw: Weight, items) -> dict[Weight, int]:
    """Coefficients of the irreducibles in V(hw) (x) M, keyed by highest
    weight, for the (weight, multiplicity) items of M; zeros may remain.

    Each weight nu of M moves hw + rho into some chamber; wall hits cancel,
    interior points contribute the parity of the walk.
    """
    rho = d.rho_compact()
    acc: dict[Weight, int] = {}
    for nu, m in items:
        moved, sign, singular = to_dominant_chamber(d, hw + rho + nu)
        if singular:
            continue
        target = moved - rho
        acc[target] = acc.get(target, 0) + sign * m
    return acc


def tensor_decompose(d: RealFormDescriptor, hw1: Weight, hw2: Weight):
    """Irreducible decomposition of the tensor product, as a sorted tuple
    of (dominant highest weight, multiplicity)."""
    _check_highest_weight(d, hw1)  # freudenthal checks hw2
    acc = _klimyk_fold(d, hw1, freudenthal(d, hw2).items())
    out = tuple(sorted((w, c) for w, c in acc.items() if c != 0))
    for w, c in out:
        if c < 0 or not d.is_dominant_weight(w):
            raise StructuralInvariantError(
                f"tensor decomposition produced invalid term ({w}, {c})"
            )
    return out


def spin_weights(d: RealFormDescriptor) -> WeightMultiset:
    """Weight multiset of the spin module of the noncompact part.

    Subset sums of one noncompact positive system around its half-sum; a
    zero-weight part of dimension m0 contributes a uniform factor
    2**(m0 // 2), so the total mass is 2**(dim(s) // 2).
    """
    return dict(_spin_items(d))


@per_descriptor
def _spin_items(d: RealFormDescriptor) -> tuple[tuple[Weight, int], ...]:
    """spin_weights(d) as sorted (weight, multiplicity) pairs, built once
    per descriptor and never handed out mutable."""
    pairs = d.noncompact_positives()
    base = half_sum(pairs, rank=d.rank_tc)
    factor = 2 ** (d.zero_weight_s_dim // 2)
    out: WeightMultiset = {}
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        w = base
        for take, gamma in zip(picks, pairs):
            if take:
                w = w - gamma
        out[w] = out.get(w, 0) + factor
    return tuple(sorted(out.items()))


def dirac_multiplicity(d: RealFormDescriptor, tau_hw: Weight, v_hw: Weight) -> int:
    """Multiplicity of the genuine type with highest weight tau_hw inside
    V(v_hw) (x) S, by the Klimyk fold of v_hw over the spin weights."""
    if not d.is_dominant_weight(tau_hw) or not is_genuine(d, tau_hw):
        raise NotGenuine(f"{tau_hw} is not a genuine dominant highest weight")
    if not d.is_dominant_weight(v_hw) or not is_integral(d, v_hw):
        raise NotDominant(f"{v_hw} is not a dominant integral highest weight")
    total = _klimyk_fold(d, v_hw, _spin_items(d)).get(tau_hw, 0)
    if total < 0:
        raise StructuralInvariantError(
            f"Klimyk fold gave the negative multiplicity {total}"
        )
    return total
