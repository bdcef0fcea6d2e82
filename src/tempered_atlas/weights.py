"""Exact rational weights, bilinear forms, half-sums, and reflection closure.

Weights are coordinate vectors in a fixed basis of the dual of the compact
torus; the positive definite Gram matrix of a :class:`BilinearForm` carries
all the geometry.  Operations are pure and exact, on int and Fraction only.

Arithmetic runs on integers: a weight is stored as integer numerators over
their least common denominator and a form keeps its Gram matrix as integers
over one denominator, so +, -, scaling and <a, b> are integer sums, with a
Fraction built only for a pairing's value or when coordinates are read; a
test of a pairing against 0 reads the sign of the integer sum alone.  For
numerators t that are paired again and again, the integer rows G t are
built once; ``ratlin.matvec``, the package's one integer mat-vec kernel,
forms each G t and then reads every pairing against the rows in one call.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch
from .ratlin import eliminate, matvec

# ASCII digits only: \d would match every Unicode decimal digit.
INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(rf"^{INTEGER_RE.pattern}(?:/[1-9][0-9]*)?$")


def _rational_terms(text: str) -> tuple[int, int]:
    """The integers p, q of 'p/q' (q = 1 for 'n'), unreduced, q > 0."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'n'.  Decimal and float literals are rejected."""
    # The pattern has validated both parts; Fraction(text) would match again.
    return Fraction(*_rational_terms(text))


def _coerce(value) -> Fraction:
    # Fraction() would also take a str, a Decimal or a float.
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"an exact number must be an int or a Fraction, not {type(value).__name__}")
    return Fraction(value)


class Weight:
    """A vector of exact rationals; supports +, -, negation, and scalar
    multiplication by int or Fraction.

    Stored as integer numerators over their least common denominator, which
    is all the arithmetic reads; ``coords`` builds the Fraction coordinates
    each time it is read.  The value never changes after construction.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coords):
        coords = [_coerce(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        self._nums = tuple(c.numerator * (den // c.denominator) for c in coords)
        self._den = den

    @classmethod
    def from_ints(cls, nums: tuple[int, ...], den: int) -> "Weight":
        """The weight nums / den for den > 0, reduced to lowest terms."""
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([n // g for n in nums])
            den //= g
        w = object.__new__(cls)
        w._nums = nums
        w._den = den
        return w

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    def int_coords(self) -> tuple[tuple[int, ...], int]:
        """(nums, den) with coords[i] == nums[i] / den, den > 0 the least
        common denominator."""
        return self._nums, self._den

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    def __len__(self):
        return len(self._nums)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def _check(self, other: "Weight"):
        if len(self._nums) != len(other._nums):
            raise DimensionMismatch(
                f"rank {len(self._nums)} vs rank {len(other._nums)}"
            )

    def _combine(self, other: "Weight", sign: int) -> "Weight":
        self._check(other)
        a, b = self._den, other._den
        den = lcm(a, b)
        fa, fb = den // a, sign * (den // b)
        nums = tuple(x * fa + y * fb for x, y in zip(self._nums, other._nums))
        return Weight.from_ints(nums, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        w = object.__new__(Weight)
        w._nums = tuple(-x for x in self._nums)
        w._den = self._den
        return w

    def __mul__(self, scalar):
        c = _coerce(scalar)
        return Weight.from_ints(
            tuple(x * c.numerator for x in self._nums), self._den * c.denominator
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self._nums, self._den))

    def _cross(self, other: "Weight"):
        # Both sides over the product denominator; order-preserving as
        # denominators are positive.
        a, b = self._den, other._den
        return tuple(x * b for x in self._nums), tuple(y * a for y in other._nums)

    def __lt__(self, other):
        mine, theirs = self._cross(other)
        return mine < theirs

    def __le__(self, other):
        mine, theirs = self._cross(other)
        return mine <= theirs

    def __str__(self):
        # Each coordinate as Fraction prints it, reduced by one gcd.
        den = self._den
        if den == 1:
            return "(" + ",".join(map(str, self._nums)) + ")"
        parts = []
        for n in self._nums:
            g = gcd(n, den)
            parts.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return "(" + ",".join(parts) + ")"

    def __repr__(self):
        return f"Weight{self}"


def parse_weight(text: str) -> Weight:
    """Parse comma-separated rationals, parentheses optional; none may be empty."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if not any(p.strip() for p in parts):
        raise ValueError(f"empty weight literal: {text!r}")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty coordinate in weight literal: {text!r}")
    terms = [_rational_terms(p) for p in parts]
    den = lcm(*(q for _, q in terms))
    return Weight.from_ints(tuple(n * (den // q) for n, q in terms), den)


class BilinearForm:
    """Symmetric rational Gram matrix on the weight space.

    Symmetry and positive definiteness are queried, not enforced at
    construction, so that structural validation can report them.  The
    matrix is also kept as integers over the lcm of its denominators, which
    is all the pairing reads.
    """

    __slots__ = ("gram", "_int_gram", "_den", "_int_row")

    def __init__(self, rows):
        gram = tuple(tuple(_coerce(x) for x in row) for row in rows)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise DimensionMismatch("Gram matrix must be square")
        self.gram = gram
        self._den = lcm(*(x.denominator for row in gram for x in row))
        self._int_gram = tuple(
            tuple(x.numerator * (self._den // x.denominator) for x in row)
            for row in gram
        )
        self._int_row = matvec(self._int_gram)  # G t, for t's numerators

    @classmethod
    def identity(cls, rank: int) -> "BilinearForm":
        return cls([[int(i == j) for j in range(rank)] for i in range(rank)])

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check(self, w: Weight):
        if len(w._nums) != len(self._int_gram):
            raise DimensionMismatch(f"{w} has rank {len(w)}, not {self.rank}")

    def _numerator(self, a: Weight, b: Weight) -> int:
        """<a, b> times the positive a._den * b._den * self._den."""
        self._check(a)
        self._check(b)
        return sum(map(mul, a._nums, self._int_row(b._nums)))

    def inner(self, a: Weight, b: Weight) -> Fraction:
        return Fraction(self._numerator(a, b), a._den * b._den * self._den)

    def sign(self, a: Weight, b: Weight) -> int:
        """The sign -1, 0 or 1 of <a, b>, with no Fraction built: the
        denominators dropped by the integer pairing are positive."""
        total = self._numerator(a, b)
        return (total > 0) - (total < 0)

    def norm_sq(self, w: Weight) -> Fraction:
        return self.inner(w, w)

    def is_symmetric(self) -> bool:
        g = self.gram
        return all(
            g[i][j] == g[j][i] for i in range(self.rank) for j in range(i)
        )

    def is_positive_definite(self) -> bool:
        """Symmetric with every leading principal minor positive
        (Sylvester's criterion).  Eliminating the integer Gram matrix reads
        them off its pivot rows: each entry i is the minor m_i until a row
        is swapped, and a row is swapped only after some m_i = 0."""
        if not self.is_symmetric():
            return False
        return all(row[i] > 0 for i, row in enumerate(eliminate(self._int_gram)[2]))

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"BilinearForm({self.gram})"


def half_sum(roots, rank: int | None = None) -> Weight:
    """Half the sum of the given weights, multiplicities as listed.

    An empty collection yields the zero weight; pass ``rank`` so its
    dimension is known.
    """
    roots = tuple(roots)
    if not roots:
        return Weight.zero(rank if rank is not None else 0)
    return Fraction(1, 2) * sum(roots[1:], roots[0])


def reflection_escape(mirrors, closed, form: BilinearForm):
    """The first (b, a), over a in mirrors and then b in sorted(closed), with
    <b, a> != 0 and the reflection of b in a outside closed; None when
    every such reflection stays in closed.

    Integer only: every weight is read as numerators over one common
    denominator and s_a(b) = b - (p / q) a with p = 2 b.Ga, q = a.Ga on the
    scaled Gram G, so it is a member only if q divides each p a_k and the
    quotient's numerators are listed.  Each mirror must be +-a member.
    """
    closed = sorted(closed)
    den = lcm(*(w._den for w in closed))
    nums = [tuple(x * (den // w._den) for x in w._nums) for w in closed]
    members = set(nums)
    for a in mirrors:
        a_nums = tuple(x * (den // a._den) for x in a._nums)
        ga = form._int_row(a_nums)
        q = sum(x * y for x, y in zip(a_nums, ga))
        for b, b_nums in zip(closed, nums):
            p = 2 * sum(x * y for x, y in zip(b_nums, ga))
            if p and (
                any(p * x % q for x in a_nums)
                or tuple(y - p * x // q for x, y in zip(a_nums, b_nums)) not in members
            ):
                return b, a
    return None
