"""Exact root-system data for the simple Lie algebras and their untwisted
affine extensions.

All arithmetic is exact: Python integers for lattice data, ``Fraction`` for
invariant-form values. Weights are plain tuples of integers in
fundamental-weight coordinates; roots are tuples of integers in simple-root
coordinates. Node numbering follows Bourbaki throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm, prod

Weight = tuple[int, ...]
RootVector = tuple[int, ...]

_RANK_LIMITS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_NAME_RE = re.compile(r"^([A-Ga-g])(\d+)(~?)$")


class AlgebraError(ValueError):
    """Invalid algebra, weight, or argument combination."""


class InvariantError(RuntimeError):
    """An internal exact-arithmetic invariant failed; indicates a bug."""


@dataclass(frozen=True)
class AlgebraId:
    """A simple Lie algebra family/rank, optionally untwisted-affinized."""

    family: str
    rank: int
    affine: bool = False

    def __post_init__(self):
        if self.family not in _RANK_LIMITS:
            raise AlgebraError(f"unknown family {self.family!r}: expected one of A-G")
        lo, hi = _RANK_LIMITS[self.family]
        if self.rank < lo:
            raise AlgebraError(f"{self.family}{self.rank}: rank must be >= {lo} for family {self.family}")
        if hi is not None and self.rank > hi:
            raise AlgebraError(f"{self.family}{self.rank}: rank must be <= {hi} for family {self.family}")

    @classmethod
    def parse(cls, name: str) -> "AlgebraId":
        """Parse names like "B2", "G2", "A3", "A1~" (tilde = untwisted affine)."""
        m = _NAME_RE.match(name.strip())
        if not m:
            raise AlgebraError(f"cannot parse algebra name {name!r} (expected e.g. B2, A1~)")
        return cls(m.group(1).upper(), int(m.group(2)), m.group(3) == "~")

    def finite(self) -> "AlgebraId":
        return AlgebraId(self.family, self.rank) if self.affine else self

    def __str__(self) -> str:
        return f"{self.family}{self.rank}{'~' if self.affine else ''}"


def _chain_edges(rank: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(rank - 1)]


def _dynkin_edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "D":
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    if family == "E":
        return [(0, 2), (2, 3), (3, 4), (1, 3)] + [(i, i + 1) for i in range(4, rank - 1)]
    return _chain_edges(rank)


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    # A[i][j] = <alpha_j, alpha_i^vee>; rows are indexed by coroots.
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _dynkin_edges(family, rank):
        a[i][j] = -1
        a[j][i] = -1
    if family == "B":
        a[rank - 1][rank - 2] = -2  # alpha_r short
    elif family == "C":
        a[rank - 2][rank - 1] = -2  # alpha_r long
    elif family == "F":
        a[2][1] = -2  # alpha_3, alpha_4 short
    elif family == "G":
        a[0][1] = -3  # alpha_1 short
    return a


def _invert_fraction_matrix(a: list[list[int]]) -> list[list[Fraction]]:
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _positive_roots(cartan: list[list[int]], rank: int) -> list[RootVector]:
    """Generate all positive roots by root-string closure from the simple roots."""
    roots: set[RootVector] = set()
    layer: list[RootVector] = []
    for i in range(rank):
        e = tuple(int(i == j) for j in range(rank))
        roots.add(e)
        layer.append(e)
    while layer:
        nxt: list[RootVector] = []
        for beta in layer:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[i][j] for j in range(rank))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if min(down) < 0 or tuple(down) not in roots:
                        break
                    p += 1
                if p - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        layer = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


@dataclass(frozen=True)
class RootSystem:
    """Immutable Cartan/root/form data for one algebra.

    ``cartan`` stores A[i][j] = <alpha_j, alpha_i^vee>. ``positive_roots``
    are in simple-root coordinates; ``positive_roots_fund`` are the same
    roots in fundamental-weight coordinates. ``form_weights`` is the Gram
    matrix of the fundamental weights under the normalized invariant form
    (long roots have squared length 2). Safe to share across threads: every
    operation is a pure function of its inputs.
    """

    algebra: AlgebraId
    cartan: tuple[tuple[int, ...], ...]
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    symmetrizers: tuple[Fraction, ...]
    positive_roots: tuple[RootVector, ...]
    positive_roots_fund: tuple[Weight, ...]
    simple_fund: tuple[Weight, ...]
    form_weights: tuple[tuple[Fraction, ...], ...]
    rho: Weight
    highest_root: RootVector
    marks: tuple[int, ...]
    dual_marks: tuple[int, ...]
    dual_coxeter: int
    dim_adjoint: int
    form_scale: int
    _form_ww_scaled: tuple[tuple[int, ...], ...]
    _d_scaled: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.algebra.rank

    # -- coordinate conversions -------------------------------------------

    def root_coords(self, v: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a weight-lattice vector over the simple roots."""
        inv = self.cartan_inverse
        n = self.rank
        return tuple(sum(inv[i][j] * v[j] for j in range(n)) for i in range(n))

    def fund_coords_of_root(self, c: RootVector) -> Weight:
        """Fundamental coordinates of sum_j c_j alpha_j."""
        a = self.cartan
        n = self.rank
        return tuple(sum(a[i][j] * c[j] for j in range(n)) for i in range(n))

    def in_root_lattice(self, v: Weight) -> bool:
        return all(x.denominator == 1 for x in self.root_coords(v))

    # -- Weyl group actions -----------------------------------------------

    def simple_reflection(self, w: Weight, i: int) -> Weight:
        wi = w[i]
        col = self.simple_fund[i]
        return tuple(w[j] - wi * col[j] for j in range(self.rank))

    def to_dominant(self, w: Weight) -> tuple[Weight, int]:
        """Dominant representative of the Weyl orbit of ``w`` and the sign
        (-1)^(reflections applied); sign 0 iff ``w`` lies on a wall."""
        cur = list(w)
        n = self.rank
        parity = 1
        cols = self.simple_fund
        while True:
            neg = -1
            for i in range(n):
                if cur[i] < 0:
                    neg = i
                    break
            if neg < 0:
                if 0 in cur:
                    parity = 0
                return tuple(cur), parity
            wi = cur[neg]
            col = cols[neg]
            for j in range(n):
                cur[j] -= wi * col[j]
            parity = -parity

    def is_dominant(self, w: Weight) -> bool:
        return all(x >= 0 for x in w)

    def orbit(self, w: Weight) -> list[Weight]:
        """The full Weyl orbit of ``w`` (finite type only), no duplicates."""
        self._require_finite()
        return weyl_orbit(self, w)

    # -- order and form ----------------------------------------------------

    def dominance_le(self, a: Weight, b: Weight) -> bool:
        """True iff b - a is a non-negative integer combination of simple roots."""
        diff = tuple(y - x for x, y in zip(a, b))
        return all(c.denominator == 1 and c >= 0 for c in self.root_coords(diff))

    def bilinear(self, a: Weight, b: Weight) -> Fraction:
        """Normalized invariant form (a|b) of two weights."""
        f = self.form_weights
        n = self.rank
        return sum(a[i] * sum(f[i][j] * b[j] for j in range(n)) for i in range(n))

    def bilinear_weight_root(self, a: Weight, c: RootVector) -> Fraction:
        """(a | sum_j c_j alpha_j) for a weight ``a`` and root coordinates ``c``."""
        d = self.symmetrizers
        return sum(d[j] * c[j] * a[j] for j in range(self.rank))

    def bilinear_root_root(self, b: RootVector, c: RootVector) -> Fraction:
        d = self.symmetrizers
        a = self.cartan
        n = self.rank
        return sum(d[i] * a[i][j] * b[i] * c[j] for i in range(n) for j in range(n))

    def pair_coroot(self, w: Weight, c: RootVector) -> int:
        """<w, alpha^vee> for the coroot of the root with coordinates ``c``."""
        val = 2 * self.bilinear_weight_root(w, c) / self.bilinear_root_root(c, c)
        if val.denominator != 1:
            raise InvariantError(f"coroot pairing of {w} against {c} is not integral: {val}")
        return int(val)

    # scaled-integer variants used by the multiplicity kernels

    def sip_ww(self, a: Weight, b: Weight) -> int:
        f = self._form_ww_scaled
        n = self.rank
        return sum(a[i] * sum(f[i][j] * b[j] for j in range(n)) for i in range(n))

    def sip_wr(self, a: Weight, c: RootVector) -> int:
        d = self._d_scaled
        return sum(d[j] * c[j] * a[j] for j in range(self.rank))

    # -- representation-theoretic helpers -----------------------------------

    def weyl_dimension(self, lam: Weight) -> int:
        """dim V(lam) = prod (lam+rho|alpha)/(rho|alpha), exact (finite type)."""
        self._require_finite()
        if not self.is_dominant(lam):
            raise AlgebraError(f"weyl_dimension requires a dominant weight, got {lam}")
        shifted = tuple(x + 1 for x in lam)
        num = prod(self.bilinear_weight_root(shifted, c) for c in self.positive_roots)
        den = prod(self.bilinear_weight_root(self.rho, c) for c in self.positive_roots)
        val = num / den
        if val.denominator != 1:
            raise InvariantError(f"Weyl dimension of {lam} is not integral: {val}")
        return int(val)

    def height(self, v: Weight) -> Fraction:
        """Sum of simple-root coordinates of a weight-lattice vector."""
        return sum(self.root_coords(v))

    def _require_finite(self):
        if self.algebra.affine:
            raise AlgebraError(f"{self.algebra}: operation requires a finite-type algebra")


def build_root_system(algebra: AlgebraId | str) -> RootSystem:
    """Construct the full exact root datum for ``algebra``.

    For an affine id the returned object carries the data of the underlying
    finite algebra together with marks, dual marks and the dual Coxeter
    number; the affine weight machinery lives in :mod:`rho_tensor.affine`.
    """
    if isinstance(algebra, str):
        algebra = AlgebraId.parse(algebra)
    fin = algebra.finite()
    rank = fin.rank
    cartan = _cartan_matrix(fin.family, rank)

    # symmetrizers: d_i A[i][j] = d_j A[j][i], then rescale so (theta|theta)=2
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    if any(x is None for x in d):
        raise InvariantError(f"Dynkin diagram of {fin} is not connected")

    posroots = _positive_roots(cartan, rank)
    theta = max(posroots, key=lambda r: (sum(r), r))
    if any(r[i] > theta[i] for r in posroots for i in range(rank)):
        raise InvariantError(f"highest root of {fin} is not dominance-maximal")
    theta_sq = sum(d[i] * cartan[i][j] * theta[i] * theta[j] for i in range(rank) for j in range(rank))
    d = [x * 2 / theta_sq for x in d]

    inv = _invert_fraction_matrix(cartan)
    form = [[inv[j][i] * d[j] for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(rank):
            if form[i][j] != form[j][i]:
                raise InvariantError(f"form on weights of {fin} is not symmetric")

    marks = theta
    dual_marks = []
    for i in range(rank):
        dm = d[i] * theta[i]
        if dm.denominator != 1:
            raise InvariantError(f"dual mark {i} of {fin} is not integral: {dm}")
        dual_marks.append(int(dm))
    h_dual = 1 + sum(dual_marks)

    scale = lcm(*(x.denominator for row in form for x in row), *(x.denominator for x in d))
    form_scaled = tuple(tuple(int(x * scale) for x in row) for row in form)
    d_scaled = tuple(int(x * scale) for x in d)

    return RootSystem(
        algebra=algebra,
        cartan=tuple(tuple(row) for row in cartan),
        cartan_inverse=tuple(tuple(row) for row in inv),
        symmetrizers=tuple(d),
        positive_roots=tuple(posroots),
        positive_roots_fund=tuple(
            tuple(sum(cartan[i][j] * r[j] for j in range(rank)) for i in range(rank)) for r in posroots
        ),
        simple_fund=tuple(tuple(cartan[j][i] for j in range(rank)) for i in range(rank)),
        form_weights=tuple(tuple(row) for row in form),
        rho=(1,) * rank,
        highest_root=theta,
        marks=tuple(marks),
        dual_marks=tuple(dual_marks),
        dual_coxeter=h_dual,
        dim_adjoint=rank + 2 * len(posroots),
        form_scale=scale,
        _form_ww_scaled=form_scaled,
        _d_scaled=d_scaled,
    )


def parse_weight(text: str, rank: int) -> Weight:
    """Parse "5,5" into a weight tuple, validating the coordinate count."""
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise AlgebraError(f"cannot parse weight {text!r}: expected comma-separated integers") from None
    if len(coords) != rank:
        raise AlgebraError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def weyl_orbit(rs: RootSystem, w: Weight) -> list[Weight]:
    """Sorted orbit of the classical weight ``w`` under the finite Weyl group
    (for an affine ``rs``, the Weyl group of the underlying finite algebra)."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                if v[i] != 0:
                    img = rs.simple_reflection(v, i)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
        frontier = nxt
    return sorted(seen)


def floor_root_coords(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    return tuple(floor(x) for x in rs.root_coords(lam))
