"""Finite-dimensional representation calculator for the compact group.

Everything is driven by the compact root data alone, so a central torus
(U(2), SO(2)) costs nothing: central directions ride along as free abelian
coordinates.  Multiplicities come from the Freudenthal recursion, whose sum
along each positive root a stops at the first w + k a that is not a weight.
Tensor products and the multiplicity of a spin-cover type in V (x) S come
from one Brauer-Klimyk fold: each weight of the second factor (a weight of
V, or of the spin module S) shifts hw + rho into the dominant chamber, and
the parity of the walk is its sign.

All three run on one walk and on integers: a weight is its numerators over
E = lcm(D, the inputs' denominators), and each positive compact root a its
entry of the descriptor's root table over D (``IntegerFrame``).  So x.row
is E D <x, a> and y.G.y is E^2 |y|^2 (G the frame's integer Gram matrix),
each times the form's denominator.

Weight multisets are plain dicts Weight -> positive integer.  A highest
weight must be dominant and integral on each simple compact coroot.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul, sub

from .errors import NotDominant, NotGenuine, StructuralInvariantError
from .groups import (
    RealFormDescriptor, _int_coords, integer_frame, is_genuine, is_integral, per_descriptor,
)
from .weights import Weight


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _walk(frame, w):
    """(dominant image, reflection parity, hit a chamber wall) of w's
    numerators over some E.  Each step reflects in the first simple root a
    with p = 2 w.row < 0: s_a(w) is w less p / q times a's numerators over
    D, q = a.row; p / q, the coroot pairing times E / D, must be an integer.
    s_a negates a and permutes the other positive roots, so a step lowers by
    one the positive roots w pairs negatively with: at most n_compact steps."""
    sign = 1
    for _ in range(frame.n_compact + 1):
        singular = False
        for a, row, q in frame.simple:
            p = 2 * _dot(w, row)
            if p < 0:
                break
            singular = singular or p == 0
        else:
            return w, sign, singular
        if p % q:
            raise StructuralInvariantError(
                f"reflection coefficient {p}/{q}: the compact roots are not crystallographic"
            )
        w = tuple(map(sub, w, map((p // q).__mul__, a)))
        sign = -sign
    raise StructuralInvariantError(
        "dominant chamber walk did not terminate; compact root data is "
        "not a root system"
    )


def _highest_weight(d: RealFormDescriptor, hw: Weight):
    """(hw's numerators over E = lcm(D, its denominator), E), or NotDominant
    unless hw is dominant and integral on each simple compact coroot."""
    if not d.is_dominant_weight(hw):
        raise NotDominant(f"{hw} is not dominant")
    nums, den = hw.int_coords()
    e = lcm(D := integer_frame(d).den, den)
    top = tuple(map((e // den).__mul__, nums))
    for a, row, q in integer_frame(d).simple:
        # The coroot pairing is p / (q E / D).
        if (p := 2 * _dot(top, row)) % (e // D * q):
            c, a = Fraction(p, e // D * q), Weight.from_ints(a, D)
            raise NotDominant(f"{hw} is not a highest weight: <{hw}, {a}^vee> = {c}")
    return top, e


def weyl_dim(d: RealFormDescriptor, hw: Weight) -> int:
    """Product over positive compact roots of <hw + rho, a> / <rho, a>."""
    top, e = _highest_weight(d, hw)
    frame = integer_frame(d)
    rho = tuple(map((e // frame.den).__mul__, frame.rho))
    num = den = 1
    for _, row, _ in frame.roots[: frame.n_compact]:  # both pairings over E, on one scale
        num, den = num * _dot(map(add, top, rho), row), den * _dot(rho, row)
    if num % den or num // den <= 0:
        value = Fraction(num, den)
        raise StructuralInvariantError(f"dimension formula gave the non-integer {value}")
    return num // den


# Bounded so that a long-lived process does not grow without limit; a run
# of single queries typically meets a few dozen highest weights.
@lru_cache(maxsize=256)
def _weight_table(d: RealFormDescriptor, hw: Weight):
    """(E, sorted (numerators over E, multiplicity) pairs) of V(hw)."""
    top, den = _highest_weight(d, hw)  # once per cached hw; a refusal is never cached
    frame = integer_frame(d)
    simple, k = frame.simple, den // frame.den
    rho, steps = tuple(map(k.__mul__, frame.rho)), [tuple(map(k.__mul__, a)) for a, _, _ in simple]
    positive = [(tuple(map(k.__mul__, a)), row) for a, row, _ in frame.roots[: frame.n_compact]]
    gram, y = frame.gram, tuple(map(add, top, rho))
    mult, top_norm = {top: 1}, _dot(y, gram(y))
    # Walk hw - (nonnegative combinations of simple roots) level by level.
    # Every true weight below hw has a true-weight parent one simple root
    # up, so expanding only positive-multiplicity frontiers loses nothing.
    frontier = [top]
    while frontier:
        candidates = {tuple(map(sub, w, s)) for w in frontier for s in steps}
        frontier = []
        for w in candidates:
            wd = _walk(frame, w)[0]
            if wd != w:
                # Multiplicities are reflection invariant; the dominant
                # image sits at a strictly earlier level, already decided.
                m = mult.get(wd, 0)
            else:
                # A dominant w below hw is a weight (Humphreys 21.3), and
                # the a-string through a weight is unbroken, so the sum
                # over w + j a, j >= 1, ends at the first j off the string.
                acc = 0
                for a, row in positive:
                    x = tuple(map(add, w, a))
                    while mx := mult.get(x):
                        acc += mx * _dot(x, row)
                        x = tuple(map(add, x, a))
                # m = 2 acc / (|hw + rho|^2 - |w + rho|^2), times E / D for
                # the scales of acc and the norms.
                y = tuple(map(add, w, rho))
                acc, denom = 2 * k * acc, top_norm - _dot(y, gram(y))
                if denom <= 0 or acc % denom or acc < 0:
                    raise StructuralInvariantError(
                        f"multiplicity recursion gave {acc} / {denom} at {Weight.from_ints(w, den)}"
                    )
                m = acc // denom
            if m > 0:
                mult[w] = m
                frontier.append(w)
    return den, tuple(sorted(mult.items()))


def freudenthal(d: RealFormDescriptor, hw: Weight) -> dict:
    """Full weight multiset of the irreducible with highest weight hw."""
    _int_coords(hw, d.rank_tc)  # the cache would refuse a list only as unhashable
    den, items = _weight_table(d, hw)
    return {Weight.from_ints(w, den): m for w, m in items}


def _klimyk_fold(d: RealFormDescriptor, top, den: int, items) -> dict:
    """Coefficients of the irreducibles in V(top) (x) M, keyed by highest
    weight, for the (weight, multiplicity) items of M, every weight its
    numerators over den; zeros may remain.

    Each weight nu of M moves hw + rho into some chamber; wall hits cancel,
    interior points contribute the parity of the walk.
    """
    frame = integer_frame(d)
    rho = tuple(map((den // frame.den).__mul__, frame.rho))
    start, acc = tuple(map(add, top, rho)), {}
    for nu, m in items:
        moved, sign, singular = _walk(frame, tuple(map(add, start, nu)))
        if not singular:
            target = tuple(map(sub, moved, rho))
            acc[target] = acc.get(target, 0) + sign * m
    return acc


def tensor_decompose(d: RealFormDescriptor, hw1: Weight, hw2: Weight):
    """Irreducible decomposition of the tensor product, as a sorted tuple
    of (dominant highest weight, multiplicity)."""
    top, den1 = _highest_weight(d, hw1)
    _int_coords(hw2, d.rank_tc)  # as in freudenthal; _weight_table checks the rest
    den2, items = _weight_table(d, hw2)
    if (den := lcm(den1, den2)) != den2:
        items = [(tuple(map((den // den2).__mul__, nu)), m) for nu, m in items]
    acc = _klimyk_fold(d, tuple(map((den // den1).__mul__, top)), den, items)
    # Over one positive den, numerator order is weight order.
    out = tuple((Weight.from_ints(w, den), c) for w, c in sorted(acc.items()) if c)
    # A term is an image off the walls less rho: hw1, hw2 (both checked), rho
    # and the roots pair with each simple coroot as integers, so the image
    # pairs with each as a positive integer and the term is dominant.
    for w, c in out:
        if c < 0:
            raise StructuralInvariantError(f"tensor decomposition produced invalid term ({w}, {c})")
    return out


def spin_weights(d: RealFormDescriptor) -> dict:
    """Weight multiset of the spin module of the noncompact part.

    Subset sums of one noncompact positive system around its half-sum; a
    zero-weight part of dimension m0 contributes a uniform factor
    2**(m0 // 2), so the total mass is 2**(dim(s) // 2).
    """
    return {integer_frame(d).weight(w): m for w, m in _spin_items(d)}


@per_descriptor
def _spin_items(d: RealFormDescriptor) -> tuple[tuple[tuple[int, ...], int], ...]:
    """spin_weights(d) as sorted (numerators over D, multiplicity) pairs,
    built once per descriptor and never handed out mutable: each noncompact
    positive in turn adds to every weight so far its shift by minus it."""
    frame = integer_frame(d)
    out = {frame.genuine: 2 ** (d.zero_weight_s_dim // 2)}
    for gamma, _, _ in frame.roots[frame.n_compact :]:
        for w, m in list(out.items()):
            w = tuple(map(sub, w, gamma))
            out[w] = out.get(w, 0) + m
    return tuple(sorted(out.items()))


def dirac_multiplicity(d: RealFormDescriptor, tau_hw: Weight, v_hw: Weight) -> int:
    """Multiplicity of the genuine type with highest weight tau_hw inside
    V(v_hw) (x) S, by the Klimyk fold of v_hw over the spin weights, all
    over D: the one is genuine, the other integral."""
    if not d.is_dominant_weight(tau_hw) or not is_genuine(d, tau_hw):
        raise NotGenuine(f"{tau_hw} is not a genuine dominant highest weight")
    if not d.is_dominant_weight(v_hw) or not is_integral(d, v_hw):
        raise NotDominant(f"{v_hw} is not a dominant integral highest weight")
    frame = integer_frame(d)
    acc = _klimyk_fold(d, frame.over_den(v_hw), frame.den, _spin_items(d))
    if (total := acc.get(frame.over_den(tau_hw), 0)) < 0:
        raise StructuralInvariantError(f"Klimyk fold gave the negative multiplicity {total}")
    return total
