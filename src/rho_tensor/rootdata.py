"""Exact root-system data for the simple Lie algebras and their untwisted
affine extensions.

All arithmetic is exact and in integers. Weights are plain tuples of integers
in fundamental-weight coordinates; roots are tuples of integers in simple-root
coordinates. Rational quantities are held as integers over one stored
denominator: simple-root coordinates and heights of weights are scaled by
``lattice_index``, invariant-form values by ``form_scale``; a datum is built
in these integers by fraction-free elimination, with no ``Fraction``. The
positive roots come from one root-string closure that carries each root's
fundamental coordinates, so every pairing it tests is read, not summed, and
the roots come out in ``(height, coordinates)`` order. Node numbering follows
Bourbaki throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from math import gcd, prod
from operator import add, floordiv, gt, mod, mul
from typing import NamedTuple

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

_NAME_RE = re.compile(r"([A-Ga-g])([0-9]+)(~?)")
_INTEGER_RE = re.compile(r"-?[0-9]+")


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
        """Parse names like "B2", "G2", "A1~" (tilde = untwisted affine): ASCII digits, no blanks."""
        m = _NAME_RE.fullmatch(name)
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


def _adjugate_and_determinant(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """``det A * A^-1`` and ``det A`` by Gauss-Jordan on ``[A | I]`` without
    pivoting (the leading minors of a finite-type Cartan matrix are positive).
    Every entry stays a minor, so each division by the last pivot is exact
    (Bareiss, *Sylvester's identity and multistep integer-preserving Gaussian
    elimination*, Math. Comp. 1968)."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot, row_k = m[k][k], m[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(m[i], row_k)]
        prev = pivot
    return [row[n:] for row in m], prev


def _positive_roots(cartan: list[list[int]]) -> list[tuple[RootVector, Weight]]:
    """Every positive root with its fundamental coordinates, in ``(height,
    coordinates)`` order, by root-string closure from the simple roots.

    ``alpha_i`` has column ``i`` of the Cartan matrix as its fundamental
    coordinates, and coordinate ``i`` of those of ``beta`` is ``<beta,
    alpha_i^vee>``. The ``alpha_i``-string through ``beta`` runs unbroken from
    ``beta - p alpha_i`` to ``beta + q alpha_i`` with ``p - q = <beta,
    alpha_i^vee>``, so ``beta + alpha_i`` is a root iff ``p > <beta,
    alpha_i^vee>``: always when the pairing is negative, and otherwise iff
    ``beta - (pairing + 1) alpha_i`` is a root, one lookup among the roots of
    lower height, all known by then. Each height layer is sorted once it is
    complete."""
    rank = len(cartan)
    columns = tuple(zip(*cartan))
    # the simple roots in coordinate order, alpha_r first
    layer = [((0,) * i + (1,) + (0,) * (rank - 1 - i), columns[i]) for i in reversed(range(rank))]
    roots = dict(layer)
    found = []
    while layer:
        found += layer
        nxt: dict[RootVector, Weight] = {}
        for beta, fund in layer:
            for i, pairing in enumerate(fund):
                k = beta[i] - pairing - 1  # coordinate i of beta - (pairing + 1) alpha_i
                if pairing >= 0 and (k < 0 or beta[:i] + (k,) + beta[i + 1 :] not in roots):
                    continue
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                if up not in nxt:
                    nxt[up] = tuple(map(add, fund, columns[i]))
        layer = sorted(nxt.items())
        roots.update(layer)
    return found


class DynkinNode(NamedTuple):
    """What ``s_i`` touches, for one node ``i`` of the Dynkin diagram.

    In fundamental coordinates ``s_i u = u - u_i alpha_i`` sets coordinate
    ``i`` to ``-u_i`` and subtracts ``u_i A[j][i]`` at each neighbour ``j``;
    every other coordinate stays. ``neighbours`` holds ``(j, A[j][i])`` over
    the neighbours in increasing ``j``; the other three fields split the
    nodes for Snow's child test on the coordinates before ``i``, which
    :func:`weyl_orbit` runs only on the first walk of each zero pattern, so
    they are read once per pattern.
    """

    neighbours: tuple[tuple[int, int], ...]
    earlier_neighbours: tuple[tuple[int, int], ...]  # the pairs with j < i
    later_neighbours: tuple[int, ...]  # the neighbours j > i
    earlier_others: tuple[int, ...]  # the j < i that are not neighbours


class WeightPacking(NamedTuple):
    """Weights packed into one integer, ``width`` bits per coordinate with a
    guard bit above each field, coordinate 0 in the most significant field
    (:meth:`RootSystem.packing`).

    ``mu`` packs to ``sum(map(mul, mu, place)) | guard``, and field ``i``
    starts at bit ``shifts[i]``; packed weights compare as their tuples do,
    so sorting them sorts the weights lexicographically. ``codes`` holds, per
    positive root, its fundamental coordinates packed by ``place``, a signed
    integer. Subtracting a code subtracts field by field while every result
    ``mu_i - a_i`` lies in ``-2**width .. 2**width - 1``, and a field then
    keeps its guard bit exactly when its result is ``>= 0``: ``x - code`` is
    dominant iff ``(x - code) & guard == guard``."""

    width: int
    place: tuple[int, ...]
    shifts: tuple[int, ...]
    guard: int
    codes: tuple[int, ...]


class _OrbitChildren(dict):
    """``{mask: ((i, neighbours of i), ...)}`` over the nodes ``i`` of the
    bitmask, increasing: the reflections a replay of :func:`weyl_orbit`
    applies at one orbit point, in Snow's order. A bitmask is decoded the
    first time it is looked up."""

    def __init__(self, nodes: tuple[DynkinNode, ...]):
        super().__init__()
        self.nodes = nodes

    def __missing__(self, mask: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        steps = self[mask] = tuple((i, node.neighbours) for i, node in enumerate(self.nodes) if mask >> i & 1)
        return steps


def _dynkin_nodes(cartan: list[list[int]]) -> tuple[DynkinNode, ...]:
    nodes = []
    for i, col in enumerate(zip(*cartan)):  # col[j] = A[j][i]
        near = [(j, a) for j, a in enumerate(col) if a and j != i]
        earlier = [p for p in near if p[0] < i]
        nodes.append(DynkinNode(
            neighbours=tuple(near),
            earlier_neighbours=tuple(earlier),
            later_neighbours=tuple([j for j, _ in near[len(earlier) :]]),
            earlier_others=tuple([j for j in range(i) if not col[j]]),
        ))
    return tuple(nodes)


@dataclass(frozen=True)
class RootSystem:
    """Immutable Cartan/root/form data for one algebra, all of it integers.

    ``cartan`` stores A[i][j] = <alpha_j, alpha_i^vee>. ``positive_roots``
    are in simple-root coordinates; ``positive_roots_fund`` are the same
    roots in fundamental-weight coordinates and ``positive_coroots`` their
    coroots in simple-coroot coordinates; ``weyl_denominator`` is
    ``prod <rho, alpha^vee>``, the denominator of the Weyl dimension formula.
    ``coroot_steps`` builds every pairing ``<v, alpha^vee>`` from the simple
    ones with one addition each: the simple coroots by index come first, then
    the others by ``(height, coordinates)``, and step ``(j, i)`` pairs the
    next of them as pairing ``j`` plus ``v_i``, where ``alpha^vee -
    alpha_i^vee`` (``i`` the least such index) is coroot ``j`` of that order.
    ``dynkin_nodes[i]`` lists what the simple reflection ``s_i`` changes: the
    coordinate ``i`` and those of the Dynkin neighbours of ``i`` (``A[j][i] !=
    0``), nothing else. :meth:`to_dominant` and :func:`weyl_orbit` read only
    these, so a reflection costs the degree of its node, not the rank.
    ``cartan_inverse`` is ``lattice_index * A^-1``, with ``lattice_index =
    det A`` the index of the root lattice in the weight lattice, so
    simple-root coordinates and heights come out scaled by ``lattice_index``.
    The normalized invariant form (long roots have squared length 2) is
    scaled by ``form_scale``: ``form_ww`` is the Gram matrix of the
    fundamental weights and ``form_d`` holds ``(omega_i|alpha_i) = d_i``.
    ``orbit_shapes`` and ``orbit_children`` record the trees of
    :func:`weyl_orbit`, once per zero pattern of a dominant weight. The root
    data of the Freudenthal recursion and the dominant descent (``root_codes``,
    :meth:`strings`, :meth:`orbit_strings`, and :meth:`packing`, the packed
    weights and root codes of the descent and the certificate search, one
    entry per field width) and the values of :meth:`orbit_size` and
    :meth:`alcove_point` are memoised here too. No memo is a dataclass
    field: each root system built has its own, and they live and die with
    it. Safe to share across threads: every operation is a pure
    function of its inputs, and every memo entry is built first and then
    stored whole, so a race only computes and writes the same value twice.
    """

    algebra: AlgebraId
    cartan: tuple[tuple[int, ...], ...]
    lattice_index: int
    cartan_inverse: tuple[tuple[int, ...], ...]
    positive_roots: tuple[RootVector, ...]
    positive_roots_fund: tuple[Weight, ...]
    positive_coroots: tuple[RootVector, ...]
    weyl_denominator: int
    coroot_steps: tuple[tuple[int, int], ...]
    dynkin_nodes: tuple[DynkinNode, ...]
    rho: Weight
    marks: tuple[int, ...]
    dual_marks: tuple[int, ...]
    dual_coxeter: int
    dim_adjoint: int
    form_scale: int
    form_ww: tuple[tuple[int, ...], ...]
    form_d: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.algebra.rank

    # -- coordinate conversions -------------------------------------------

    def root_coords(self, v: Weight) -> tuple[int, ...]:
        """``lattice_index`` times the simple-root coordinates of a weight."""
        return tuple(sum(map(mul, row, v)) for row in self.cartan_inverse)

    def fund_coords_of_root(self, c: RootVector) -> Weight:
        """Fundamental coordinates of sum_j c_j alpha_j."""
        return tuple(sum(map(mul, row, c)) for row in self.cartan)

    def in_root_lattice(self, v: Weight) -> bool:
        return all(x % self.lattice_index == 0 for x in self.root_coords(v))

    # -- Weyl group actions -----------------------------------------------

    def to_dominant(self, w: Weight) -> tuple[Weight, int]:
        """Dominant representative of the Weyl orbit of ``w`` and the sign
        (-1)^(reflections applied); sign 0 iff ``w`` lies on a wall. Each
        step reflects in the first negative coordinate, touching it and its
        Dynkin neighbours only."""
        cur = list(w)
        nodes = self.dynkin_nodes
        parity = 1
        while True:
            for i, x in enumerate(cur):
                if x < 0:
                    break
            else:
                return tuple(cur), (0 if 0 in cur else parity)
            cur[i] = -x
            for j, a in nodes[i].neighbours:
                cur[j] -= x * a
            parity = -parity

    def alcove_point(self, v: Weight, d: int, lvl: int) -> tuple[Weight, int, int]:
        """The affine-dominant point of the affine Weyl orbit of the
        level-``lvl`` weight with finite part ``v`` at depth ``d``, for
        ``lvl > 0``: ``(finite part, depth, sign)``. Finite reflections to the
        dominant chamber alternate with ``s_0``, which adds ``-v_0 alpha_0``
        where ``v_0 = lvl - <v, theta^vee> < 0``: the finite part drops by
        ``-v_0 theta`` and the depth by ``-v_0``. The walk goes on through
        walls; the sign is ``(-1)^(reflections)``, or 0 once any step met a
        wall, that is iff the weight lies on a wall of the affine Weyl group.
        The point and sign depend on ``(v, lvl)`` only, and the depth drops
        by an amount fixed by them, so the walk runs once per ``(v, lvl)``,
        held as ``(point, drop, sign)``."""
        hit = self._alcove_points.get((v, lvl))
        if hit is None:
            if lvl <= 0:
                raise AlgebraError(f"alcove_point requires a positive level, got {lvl}")
            theta = self.positive_roots_fund[-1]  # the highest root comes last, by height
            dual_marks = self.dual_marks
            point, drop, eps = v, 0, 1
            while True:
                point, sign = self.to_dominant(point)
                eps *= sign
                v0 = lvl - sum(map(mul, dual_marks, point))
                if v0 >= 0:
                    break
                point = tuple(x + v0 * t for x, t in zip(point, theta))
                drop -= v0
                eps = -eps
            hit = self._alcove_points[(v, lvl)] = (point, drop, eps if v0 else 0)
        point, drop, sign = hit
        return point, d - drop, sign

    def is_dominant(self, w: Weight) -> bool:
        """Every coordinate of ``w`` is non-negative: ``w`` is in the dominant chamber."""
        return min(w) >= 0

    def orbit(self, w: Weight, v: Weight | None = None) -> list[Weight]:
        """The full Weyl orbit of ``w`` (finite type only), no duplicates,
        shifted by ``v`` if given: :func:`weyl_orbit`."""
        self._require_finite()
        return weyl_orbit(self, w, v)

    @cached_property
    def orbit_shapes(self) -> dict[tuple[bool, ...], bytearray | list[int]]:
        """Snow's tree of :func:`weyl_orbit` per zero pattern ``tuple(map(bool,
        mu))`` of a dominant ``mu``, filled as patterns are met: the bitmask of
        the nodes whose children each orbit point builds, one byte per point
        up to rank 8."""
        return {}

    @cached_property
    def orbit_children(self) -> _OrbitChildren:
        """The children of each bitmask in :attr:`orbit_shapes`, decoded on a
        replay's first use of the bitmask (:class:`_OrbitChildren`)."""
        return _OrbitChildren(self.dynkin_nodes)

    # -- root data of the Freudenthal recursion, memoised ---------------------

    # the memos of packing, strings, orbit_strings, orbit_size and
    # alcove_point, filled as keys are met
    _packings = cached_property(lambda self: {})
    _strings = cached_property(lambda self: {})
    _orbit_strings = cached_property(lambda self: {})
    _orbit_sizes = cached_property(lambda self: {})
    _alcove_points = cached_property(lambda self: {})

    @cached_property
    def least_root_coord(self) -> int:
        """The least fundamental coordinate ``<alpha, alpha_i^vee>`` of a
        positive root: 0 on A1, and elsewhere the least Cartan entry, minus
        the largest bond multiplicity. For ``alpha != alpha_i`` the
        coordinate is at least ``-max(1, |alpha|^2 / |alpha_i|^2)``, and a
        simple root's coordinates are its column of the Cartan matrix."""
        return min(0, min(map(min, self.cartan)))

    def packing(self, bound: int) -> WeightPacking:
        """The :class:`WeightPacking` of the weights with coordinates in
        ``0..bound``, memoised per width. A coordinate less a root's lies in
        ``-3..bound - least`` (:attr:`least_root_coord`; a root's coordinate
        ``<alpha, alpha_i^vee>`` is at most 3, or 2 at ``alpha = alpha_i``),
        so it fits a field of ``width`` bits when ``2**width > bound - least``
        and ``width >= 2``. ``width`` is the bit length of ``max(bound -
        least, 7)``: at least 3 bits, so that the small weights of a type,
        where a descent is short and building the codes would cost as much
        as the walk, share one entry."""
        width = max(bound - self.least_root_coord, 7).bit_length()
        packing = self._packings.get(width)
        if packing is None:
            rank = self.rank
            shifts = tuple((width + 1) * (rank - 1 - i) for i in range(rank))
            place = tuple(1 << s for s in shifts)
            codes = tuple(sum(map(mul, fund, place)) for fund in self.positive_roots_fund)
            packing = self._packings[width] = WeightPacking(width, place, shifts, sum(place) << width, codes)
        return packing

    @cached_property
    def root_codes(self) -> tuple[list[int], list[tuple[int, int]]]:
        """``(fields, codes)`` for :meth:`root_orbits`: per positive root, its
        simple-root coordinates packed ``width`` bits each (``fields[i]``
        masks coordinate ``i``) above a bit set for a short root, and the
        least node of its support."""
        width = max(map(max, self.positive_roots)).bit_length()
        strings = self.strings(0)
        long = strings[-1][2]  # (theta|theta): the highest root is long
        codes = [
            (sum(c << (1 + width * i) for i, c in enumerate(rc)) | (s_aa < long), next(compress(range(self.rank), rc)))
            for rc, (_, _, s_aa, _) in zip(self.positive_roots, strings)
        ]
        return [((1 << width) - 1) << (1 + width * i) for i in range(self.rank)], codes

    def strings(self, k: int) -> list[tuple]:
        """``(fund, form_rc, s_aa, supp)`` per root ``alpha``, for ``alpha +
        k*delta`` (the positive roots only at ``k = 0``); roots are indexed as
        ``positive_roots`` followed by their negatives. ``(mu|alpha)`` is one
        dot product of ``mu`` with ``form_rc``, and ``s_aa`` is
        ``(alpha|alpha)``, both scaled by ``form_scale``. Over the affine
        simple roots ``alpha_0..alpha_r`` the root is ``(k, rc + k*marks)``,
        and ``supp`` lists its nonzero coordinates: its string through ``mu -
        d*delta`` stays below the top while these fit into ``(d, gamma +
        d*marks)``."""
        strings = self._strings.get(k)
        if strings is None:
            roots = list(zip(self.positive_roots, self.positive_roots_fund))
            if k:
                roots += [(tuple(-x for x in rc), tuple(-x for x in fund)) for rc, fund in roots]
            built = []
            for rc, fund in roots:
                form_rc = tuple(map(mul, self.form_d, rc))
                coords = (k,) + tuple(r + k * a for r, a in zip(rc, self.marks))
                supp = tuple((i, x) for i, x in enumerate(coords) if x > 0)
                built.append((fund, form_rc, sum(map(mul, fund, form_rc)), supp))
            strings = self._strings[k] = built
        return strings

    def root_orbits(self, nonzero: tuple[bool, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The ``W_J``-orbits of the roots, ``J`` the nodes where ``nonzero``
        is false, as ``(positive, every)``: the orbits on the positive roots
        modulo sign, and those on all roots, each as the index of its
        ``J``-dominant (highest) root and its length. ``W_J`` is the
        stabiliser of a dominant weight ``mu`` with ``nonzero ==
        tuple(map(bool, mu))``.

        ``W_J`` keeps the coordinates of a root off ``J`` (its shape) and its
        length. The roots of one nonzero shape are the weights of one
        irreducible module of the Levi subalgebra on ``J`` (Azad, Barry and
        Seitz, *On the structure of parabolic subgroups*, Comm. Algebra 1990),
        and the weights of one length in it form one orbit, that of its highest
        weight. The roots of shape zero make up ``Phi_J``, one orbit of both
        signs per component of ``J`` and length. The negative orbit of a
        nonzero shape is listed by the negative of its positive orbit's lowest
        root. A root's shape and length are one ``code & mask``
        (:attr:`root_codes`); one of shape zero is told apart by the component
        of ``J`` holding its least node."""
        component = {}  # node of J -> first node of its connected component in J
        for i, f in enumerate(nonzero):
            if not f and i not in component:
                component[i] = i
                stack = [i]
                while stack:
                    for j, _ in self.dynkin_nodes[stack.pop()].neighbours:
                        if not nonzero[j] and j not in component:
                            component[j] = i
                            stack.append(j)
        fields, codes = self.root_codes
        mask = sum(compress(fields, nonzero)) | 1
        groups: dict[int | tuple[int, int], list[int]] = {}
        for t, (code, first) in enumerate(codes):
            shape = code & mask  # the length bit alone for a root of Phi_J
            groups.setdefault(shape if shape > 1 else (shape, component[first]), []).append(t)
        npos = len(codes)
        positive, every = [], []
        for shape, members in groups.items():  # each by height, as positive_roots
            top, n = members[-1], len(members)
            positive.append((top, n))
            if isinstance(shape, int):
                every += [(top, n), (npos + members[0], n)]
            else:
                every.append((top, 2 * n))
        return positive, every

    def orbit_strings(self, nonzero: tuple[bool, ...], k: int) -> list[tuple]:
        """:meth:`strings` at ``k`` with the length of the orbit appended, one
        string per orbit of :meth:`root_orbits`: on the positive roots modulo
        sign at ``k = 0``, on all roots at ``k >= 1``."""
        key = (nonzero, k)
        strings = self._orbit_strings.get(key)
        if strings is None:
            every = self.strings(k)
            strings = self._orbit_strings[key] = [every[t] + (n,) for t, n in self.root_orbits(nonzero)[bool(k)]]
        return strings

    # -- the invariant form, scaled by form_scale -----------------------------

    def sip_ww(self, a: Weight, b: Weight) -> int:
        return sum(x * sum(map(mul, row, b)) for x, row in zip(a, self.form_ww))

    def rho_norm_gap(self, lam: Weight, mu: Weight, gamma: RootVector) -> int:
        """``(lam+rho|lam+rho) - (mu+rho|mu+rho)`` for ``lam - mu = sum gamma_i alpha_i``, in
        O(rank): ``(lam - mu|lam + mu + 2rho) = sum_i gamma_i d_i (lam_i + mu_i + 2)``."""
        return sum(g * d * (a + b + 2) for g, d, a, b in zip(gamma, self.form_d, lam, mu))

    # -- representation-theoretic helpers -----------------------------------

    def weyl_numerator(self, lam: Weight) -> int:
        """``prod <lam+rho, alpha^vee>`` over the positive coroots, each
        pairing one addition by ``coroot_steps``; no checks. Over the integral
        weights this is ``weyl_denominator`` times a signed dimension: that of
        the dominant ``mu`` with ``mu + rho = w(lam + rho)``, signed by ``w``,
        and 0 for ``lam + rho`` on a wall."""
        pairings = [x + 1 for x in lam]  # <lam+rho, alpha_i^vee>, then the other coroots'
        for j, i in self.coroot_steps:
            pairings.append(pairings[j] + pairings[i])
        return prod(pairings)

    def weyl_dimension(self, lam: Weight) -> int:
        """dim V(lam) = :meth:`weyl_numerator` / ``weyl_denominator`` for a
        dominant ``lam`` (finite type); a remainder is an invariant failure."""
        self._require_finite()
        if not self.is_dominant(lam):
            raise AlgebraError(f"weyl_dimension requires a dominant weight, got {lam}")
        num = self.weyl_numerator(lam)
        q, r = divmod(num, self.weyl_denominator)
        if r:
            raise InvariantError(f"Weyl dimension of {lam} is not integral: {num}/{self.weyl_denominator}")
        return q

    @cached_property
    def root_supports(self) -> tuple[tuple[int, int], ...]:
        """``(support bitmask, height)`` per positive root, for :meth:`orbit_size`."""
        return tuple((sum(1 << i for i, c in enumerate(r) if c), sum(r)) for r in self.positive_roots)

    @cached_property
    def height_row(self) -> tuple[int, ...]:
        """The column sums of ``cartan_inverse``, so that :meth:`height` is one dot product."""
        return tuple(map(sum, zip(*self.cartan_inverse)))

    def height(self, v: Weight) -> int:
        """``lattice_index`` times the sum of simple-root coordinates of ``v``."""
        return sum(map(mul, self.height_row, v))

    def orbit_size(self, nonzero: tuple[bool, ...]) -> int:
        """``|W mu|`` for a dominant ``mu`` with ``nonzero == tuple(map(bool,
        mu))``, memoised per pattern, without building the orbit: ``|W| /
        |W_J|`` for the stabiliser ``W_J`` of ``mu``, the product of ``(ht a +
        1) / ht a`` over the positive roots with ``<mu, a^vee> > 0`` (Kostant;
        Macdonald, *The Poincaré series of a Coxeter group*, 1972). Those are
        the roots whose support meets that of ``mu``: ``a^vee`` has the support
        of ``a``, and every coordinate of ``mu`` and of ``a^vee`` is ``>= 0``;
        so each test is one ``&`` on :attr:`root_supports`."""
        size = self._orbit_sizes.get(nonzero)
        if size is None:
            mask = sum(1 << i for i, x in enumerate(nonzero) if x)
            hts = [h for support, h in self.root_supports if support & mask]
            size, rem = divmod(prod(h + 1 for h in hts), prod(hts))
            if rem:
                raise InvariantError(f"orbit size of pattern {nonzero} from root heights {hts} is not integral")
            self._orbit_sizes[nonzero] = size
        return size

    def _require_finite(self):
        if self.algebra.affine:
            raise AlgebraError(f"{self.algebra}: operation requires a finite-type algebra")


def build_root_system(algebra: AlgebraId | str) -> RootSystem:
    """Construct the full exact root datum for ``algebra``.

    One root-string closure (:func:`_positive_roots`) gives the positive roots
    in ``(height, coordinates)`` order with their fundamental coordinates, so
    the highest root is the last; one loop over them gives the coroots, and
    one over the coroots the ``coroot_steps``. The build checks that the
    diagram is connected, the highest root dominance-maximal, the form
    symmetric, and the dual marks and coroots integral.

    For an affine id the returned object carries the data of the underlying
    finite algebra together with marks, dual marks and the dual Coxeter
    number; the affine weight machinery lives in :mod:`rho_tensor.affine`.
    """
    if isinstance(algebra, str):
        algebra = AlgebraId.parse(algebra)
    fin = algebra.finite()
    rank = fin.rank
    cartan = _cartan_matrix(fin.family, rank)

    # the symmetrizing d_i A[i][j] = d_j A[j][i], exact from d_0 = 6: each ratio is
    # 1, 2, 3, 1/2 or 1/3 and a diagram has at most one multiple bond
    d: list[int | None] = [6] + [None] * (rank - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j, a in enumerate(cartan[i]):
            if a and d[j] is None:  # d[i] is set, so j != i
                d[j] = d[i] * a // cartan[j][i]
                stack.append(j)
    if None in d:
        raise InvariantError(f"Dynkin diagram of {fin} is not connected")

    posroots, posroots_fund = zip(*_positive_roots(cartan))
    theta = posroots[-1]
    if any(map(gt, map(max, zip(*posroots)), theta)):
        raise InvariantError(f"highest root of {fin} is not dominance-maximal")
    theta_sq = sum(map(mul, d, map(mul, theta, posroots_fund[-1])))

    # (omega_i|omega_j) = (A^-1)[j][i] * 2 d_j / theta_sq, over one denominator
    adj, det = _adjugate_and_determinant(cartan)
    den = det * theta_sq
    num = [tuple(2 * x * y for x, y in zip(d, col)) for col in zip(*adj)]
    if num != list(zip(*num)):
        raise InvariantError(f"form on weights of {fin} is not symmetric")

    dual_marks, rems = zip(*(divmod(2 * x * t, theta_sq) for x, t in zip(d, theta)))
    if any(rems):
        raise InvariantError(f"dual marks of {fin} are not integral: remainders {rems} mod {theta_sq}")

    # d_i = sum_j A[j][i] (omega_i|omega_j), so the form's denominators cover
    # d's; form_scale, the lcm of den // gcd(x, den) over the numerators x, is
    # den // gcd(den, every x)
    common = gcd(den, *chain.from_iterable(num))
    scale = den // common
    d_int = tuple(2 * x * scale // theta_sq for x in d)

    # coroot of alpha = sum c_j alpha_j: coordinates 2 c_j d_j / (alpha|alpha)
    twice_d = [2 * x for x in d_int]
    coroots = []
    for r, f in zip(posroots, posroots_fund):
        norms = [sum(map(mul, d_int, map(mul, r, f)))] * rank  # form_scale * (alpha|alpha)
        cv = list(map(mul, twice_d, r))
        if any(map(mod, cv, norms)):
            raise InvariantError(f"coroot of {r} in {fin} is not integral")
        coroots.append(tuple(map(floordiv, cv, norms)))

    # each non-simple positive coroot is a lower one plus a simple coroot; the
    # simple coroots come first by index, as the roots come in (height, coordinates)
    order = [coroots[rank - 1 - i] for i in range(rank)]
    order += sorted(coroots[rank:], key=lambda c: (sum(c), c))
    where = {c: k for k, c in enumerate(order)}
    steps = []
    for c in order[rank:]:
        for i, x in enumerate(c):
            k = where.get(c[:i] + (x - 1,) + c[i + 1 :])
            if k is not None:
                steps.append((k, i))
                break

    return RootSystem(
        algebra=algebra,
        cartan=tuple(map(tuple, cartan)),
        lattice_index=det,
        cartan_inverse=tuple(map(tuple, adj)),
        positive_roots=posroots,
        positive_roots_fund=posroots_fund,
        positive_coroots=tuple(coroots),
        weyl_denominator=prod(map(sum, coroots)),
        coroot_steps=tuple(steps),
        dynkin_nodes=_dynkin_nodes(cartan),
        rho=(1,) * rank,
        marks=theta,
        dual_marks=dual_marks,
        dual_coxeter=1 + sum(dual_marks),
        dim_adjoint=rank + 2 * len(posroots),
        form_scale=scale,
        form_ww=tuple(tuple(x // common for x in row) for row in num),
        form_d=d_int,
    )


def parse_integer(text: str) -> int:
    """``int(text)`` for a plain ASCII integer ``-?[0-9]+`` only; anything
    else (``+1``, ``1_0``, `` 1``, non-ASCII digits) raises ``ValueError``."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not a plain integer: {text!r}")
    return int(text)


def parse_weight(text: str, rank: int) -> Weight:
    """Parse "5,5" into a weight tuple, validating the coordinate count."""
    try:
        coords = tuple(parse_integer(part) for part in text.split(","))
    except ValueError:
        raise AlgebraError(f"cannot parse weight {text!r}: expected comma-separated integers") from None
    if len(coords) != rank:
        raise AlgebraError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def weyl_orbit(rs: RootSystem, w: Weight, v: Weight | None = None) -> list[Weight]:
    """The orbit of the classical weight ``w`` under the finite Weyl group
    (of the underlying finite algebra for an affine ``rs``), each element
    once, shifted by ``v`` if given: ``weyl_orbit(rs, w, v)`` is ``[v + x for
    x in weyl_orbit(rs, w)]``, built with no per-point addition. The order is
    that of the tree that :meth:`RootSystem.to_dominant` climbs, walked down
    breadth-first from the dominant representative ``mu``: the children of
    ``u`` are the ``s_i u`` with ``u_i > 0`` whose first negative coordinate
    is ``i``, by increasing ``i`` (Snow, *Weyl group orbits*, ACM TOMS 1990).

    The tree's shape depends only on the zero pattern ``J`` of ``mu``: every
    test is the sign of a coordinate ``<mu, w^-1 alpha_i^vee>`` of some ``w
    mu``, fixed by ``w`` and ``J`` alone. So the first walk of a pattern runs
    Snow's test and records, per point, the bitmask of the nodes whose
    children it builds, in :attr:`RootSystem.orbit_shapes`; it is shifted in
    place once recorded. Every later walk with that pattern replays those
    reflections from ``v + mu``: the child ``v + s_i x`` of ``v + x`` is ``v +
    x - x_i alpha_i``, built by touching ``i`` and its neighbours only. A
    plain orbit is a zero shift.

    A dominant ``w``, as every caller in the library passes, is the root
    itself; any other is reflected to it first by :meth:`RootSystem.to_dominant`.
    """
    mu = w if min(w) >= 0 else rs.to_dominant(w)[0]
    key = tuple(map(bool, mu))
    masks = rs.orbit_shapes.get(key)
    if masks is None:
        orbit = _record_orbit(rs, mu, key)
        if v is not None:
            for k, x in enumerate(orbit):  # in place: never two lists of points at once
                orbit[k] = tuple(map(add, v, x))
        return orbit
    children = rs.orbit_children
    if v is None:
        v = (0,) * len(mu)
        orbit = [mu]
    else:
        orbit = [tuple(map(add, v, mu))]
    append = orbit.append
    for u, mask in zip(orbit, masks):  # the list grows while it is read
        for i, near in children[mask]:
            x = u[i] - v[i]
            child = list(u)
            child[i] -= 2 * x
            for j, a in near:
                child[j] -= x * a
            append(tuple(child))
    return orbit


def _record_orbit(rs: RootSystem, mu: Weight, key: tuple[bool, ...]) -> list[Weight]:
    """Snow's walk of the orbit of the dominant ``mu`` for :func:`weyl_orbit`,
    recording its shape under the zero pattern ``key`` in
    :attr:`RootSystem.orbit_shapes`.

    The test builds no child. Below ``i``, ``s_i u`` agrees with ``u`` except
    at the neighbours ``j`` of ``i``, where it is ``u_j - u_i A[j][i]``; so
    ``s_i u`` is a child iff every other ``j < i`` has ``u_j >= 0`` and every
    neighbour ``j < i`` has ``u_j >= u_i A[j][i]``. Before the first negative
    coordinate ``f`` of ``u`` both always hold, as ``A[j][i] <= 0 < u_i``;
    past ``f`` they can hold only at a neighbour of ``f``, since ``u_f < 0``.
    Each child is built by touching ``i`` and its neighbours only.
    """
    nodes = rs.dynkin_nodes
    orbit = [mu]
    append = orbit.append
    masks = bytearray() if len(mu) <= 8 else []
    record = masks.append
    for u in orbit:  # the list grows while it is read: each child is visited in turn
        mask = 0
        for f, uf in enumerate(u):  # f stops at the first negative coordinate
            if uf > 0:
                child = list(u)
                child[f] = -uf
                for j, a in nodes[f].neighbours:
                    child[j] -= uf * a
                append(tuple(child))
                mask |= 1 << f
            elif uf < 0:
                for i in nodes[f].later_neighbours:
                    ui = u[i]
                    if ui > 0:
                        node = nodes[i]
                        # plain loops: all() over generators doubled the walk's time
                        for j in node.earlier_others:
                            if u[j] < 0:
                                break
                        else:
                            for j, a in node.earlier_neighbours:
                                if u[j] < ui * a:
                                    break
                            else:
                                child = list(u)
                                child[i] = -ui
                                for j, a in node.neighbours:
                                    child[j] -= ui * a
                                append(tuple(child))
                                mask |= 1 << i
                break
        record(mask)
    rs.orbit_shapes[key] = masks
    return orbit


def floor_root_coords(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    """Simple-root coordinates of ``lam``, rounded down (exact on the root lattice)."""
    return tuple(sum(map(mul, row, lam)) // rs.lattice_index for row in rs.cartan_inverse)
