"""Truncated character theory for untwisted affine Kac-Moody algebras.

Affine weights carry r+1 fundamental coordinates over omega_0..omega_r plus
an integer delta shift. Characters of positive-level irreducibles are
computed slice-by-slice down to an explicit delta-depth by the Kac-Moody
Freudenthal recursion (real roots alpha + k delta with multiplicity one,
imaginary roots k delta with multiplicity rank), run only at affine-dominant
weights: every other dominant finite weight of a slice takes the multiplicity
of its alcove point, the affine-dominant point of its affine Weyl orbit, at a
shallower depth (:meth:`RootSystem.alcove_point`). The tables live in the memo
of :mod:`rho_tensor.charcalc`, keyed without the delta shift: one per classical
highest weight, the deepest computed so far, and views of it serve shallower
or shifted requests. Truncated tensor products are decomposed on dominant
finite weights only: every slice of a character is invariant under the finite
Weyl group, so the dominant part of a product determines it. The slice
convolution therefore forms only the pairs of weights whose sum is dominant,
which a per-coordinate threshold index of each slice of the second factor
finds without trying the others. Each component is then read off the product
with the Weyl-Kac denominator: its multiplicity is a signed sum, over the
affine Weyl orbit of rho^, of product coefficients at the same depth or
shallower, so the truncation loses nothing and no table is built beyond the
two factors'. The sums off the affine chamber are checked against the
components at their alcove points, and every component against the
multiplicities of both factors (the PRV bound). Everything is
depth-qualified: no claim is made beyond the truncation.

The normalized invariant form follows the standard affine conventions:
(delta|delta) = 0, (delta|Lambda) = level(Lambda), and on classical parts it
restricts to the finite normalized form, so levels and the Virasoro scalars
of the Goddard-Kent-Olive coset construction come out as exact rationals.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, sub

from .charcalc import _memo, _memo_lock, dominant_descent, expand_orbits, freudenthal_slices
from .rootdata import (
    AlgebraError,
    DynkinNode,
    InvariantError,
    RootSystem,
    RootVector,
    Weight,
    _dynkin_nodes,
    floor_root_coords,
    weyl_orbit,
)

DEFAULT_DEPTH = 6


@dataclass(frozen=True)
class AffineWeight:
    """Integer coordinates over omega_0..omega_r plus a delta shift."""

    fund: tuple[int, ...]
    delta_shift: int = 0

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(tuple(map(add, self.fund, other.fund)), self.delta_shift + other.delta_shift)

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(tuple(map(sub, self.fund, other.fund)), self.delta_shift - other.delta_shift)

    def __mul__(self, k: int) -> "AffineWeight":
        return AffineWeight(tuple(k * a for a in self.fund), k * self.delta_shift)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "AffineWeight":
        return AffineWeight(self.fund, self.delta_shift + k)

    @property
    def finite(self) -> Weight:
        return self.fund[1:]

    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self.fund)

    def __str__(self) -> str:
        """The CLI's notation: ``1,-1``, or ``0,0:d-1`` with a delta shift."""
        text = ",".join(map(str, self.fund))
        return f"{text}:d{self.delta_shift}" if self.delta_shift else text


def _require_affine(rs: RootSystem) -> None:
    if not rs.algebra.affine:
        raise AlgebraError(f"{rs.algebra}: operation requires an untwisted affine algebra")


def affine_rho(rs: RootSystem, k: int = 1) -> AffineWeight:
    _require_affine(rs)
    return AffineWeight((k,) * (rs.rank + 1), 0)


def level(rs: RootSystem, w: AffineWeight) -> int:
    """Value on the central element: omega_0 coefficient 1, omega_i the dual marks."""
    _require_affine(rs)
    return w.fund[0] + sum(a * x for a, x in zip(rs.dual_marks, w.fund[1:]))


def theta_pairing(rs: RootSystem, finite_w: Weight) -> int:
    """<w, theta^vee> for a finite weight, via the dual marks."""
    return sum(a * x for a, x in zip(rs.dual_marks, finite_w))


def affinize(rs: RootSystem, finite_w: Weight, lvl: int, delta_shift: int = 0) -> AffineWeight:
    """The affine weight of the given level with classical part ``finite_w``."""
    _require_affine(rs)
    f0 = lvl - theta_pairing(rs, finite_w)
    return AffineWeight((f0,) + tuple(finite_w), delta_shift)


def affine_bilinear(rs: RootSystem, x: AffineWeight, y: AffineWeight) -> Fraction:
    """Normalized invariant form: finite part plus level/delta cross terms."""
    _require_affine(rs)
    cross = level(rs, x) * y.delta_shift + level(rs, y) * x.delta_shift
    return Fraction(rs.sip_ww(x.finite, y.finite) + rs.form_scale * cross, rs.form_scale)


def in_affine_root_lattice(rs: RootSystem, w: AffineWeight) -> bool:
    return level(rs, w) == 0 and rs.in_root_lattice(w.finite)


@dataclass
class TruncatedAffineCharacter:
    """Per-depth finite-weight multiplicity slices of an affine irreducible.

    ``slices[d]`` maps finite dominant representatives to the multiplicity of
    ``highest - (finite offset) - d*delta``; slice 0 is the character of the
    finite irreducible with the same classical part. ``slices[d]`` does not
    depend on ``depth``, so the table to a smaller depth is a prefix of this
    one. The slice dicts are shared with the table memo (see
    :func:`affine_freudenthal`) and must be treated as read-only.
    """

    algebra: str
    highest: AffineWeight
    depth: int
    slices: tuple[dict[Weight, int], ...]

    def multiplicity(self, rs: RootSystem, finite_w: Weight, d: int) -> int:
        if d < 0 or d > self.depth:
            raise AlgebraError(f"depth {d} outside computed range 0..{self.depth}")
        return self.slices[d].get(rs.to_dominant(finite_w)[0], 0)

    def min_depth(self, rs: RootSystem, finite_w: Weight) -> int | None:
        """First slice where the finite weight appears, within the truncation."""
        dom = rs.to_dominant(finite_w)[0]
        for d in range(self.depth + 1):
            if dom in self.slices[d]:
                return d
        return None


def affine_candidates(rs: RootSystem, lam_fin: Weight, depth: int) -> list[tuple[int, Weight, RootVector]]:
    """The ``(d, mu, gamma)`` below ``lam_fin`` down to ``depth``, in increasing
    affine height ``d + sum(gamma) + d*sum(marks)`` (the highest weight left out):
    dominant ``mu`` with ``gamma = lam_fin - mu`` in simple roots and
    ``gamma >= -d*marks``.

    These are the dominant weights below ``lam_fin + depth*theta``, found by one
    positive-root descent (Stembridge 1998, see :func:`dominant_descent`). With
    ``g = gamma + depth*marks``, ``mu`` is a candidate at every depth ``d`` with
    ``depth - min_i g_i // marks_i <= d <= depth``.
    """
    marks = rs.marks
    top = tuple(a + depth * t for a, t in zip(lam_fin, rs.fund_coords_of_root(rs.highest_root)))
    todo = []
    for mu, g in dominant_descent(rs, top).items():
        gamma = tuple(x - depth * a for x, a in zip(g, marks))
        for d in range(max(0, depth - min(x // a for x, a in zip(g, marks))), depth + 1):
            height = d + sum(x + d * a for x, a in zip(gamma, marks))
            if height:
                todo.append((height, d, mu, gamma))
    todo.sort()
    return [t[1:] for t in todo]


def affine_freudenthal(rs: RootSystem, lam: AffineWeight, depth: int) -> TruncatedAffineCharacter:
    """Delta-depth-truncated character of the affine irreducible V(lam).

    The memo of :mod:`rho_tensor.charcalc` holds the deepest table computed
    so far per ``(algebra, lam.fund)``; the key has no delta shift, which
    :func:`freudenthal_slices` never reads. Another depth or shift gets a view
    of its own ``highest`` and ``depth`` whose slices are a prefix of that
    table: the candidates and multiplicities at depth ``d`` do not depend on
    the truncation depth.
    """
    _require_affine(rs)
    if depth < 0:
        raise AlgebraError(f"depth must be non-negative, got {depth}")
    if not lam.is_dominant():
        raise AlgebraError(f"affine_freudenthal requires a dominant highest weight, got {lam}")
    lvl = level(rs, lam)
    if lvl <= 0:
        raise AlgebraError(f"affine_freudenthal requires positive level, got level {lvl}")
    key = (str(rs.algebra), lam.fund)
    with _memo_lock:
        hit = _memo.get(key)
    if hit is not None and hit.depth >= depth:
        if hit.depth == depth and hit.highest == lam:
            return hit
        return TruncatedAffineCharacter(hit.algebra, lam, depth, hit.slices[: depth + 1])

    slices = freudenthal_slices(rs, lam.finite, affine_candidates(rs, lam.finite, depth), depth, lvl)
    char = TruncatedAffineCharacter(str(rs.algebra), lam, depth, tuple(slices))
    with _memo_lock:
        _memo[key] = char  # deeper than any table held before
    return char


def delta_max_weights(char: TruncatedAffineCharacter) -> list[tuple[Weight, int]]:
    """Dominant representatives (finite weight, depth) that start their
    delta-string: positive multiplicity at the depth, zero one slice up."""
    out = []
    for d in range(char.depth + 1):
        for w in char.slices[d]:
            if d == 0 or w not in char.slices[d - 1]:
                out.append((w, d))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def predicted_components(rs: RootSystem, m: int, n: int, depth: int):
    """Predicted components of V(m rho) (x) V(n rho) within ``depth``: yields
    ``(lam, beta, beta_dom, d)`` for every finite ``beta`` in the Weyl orbit of
    a delta-maximal weight ``beta_dom`` of V(n rho) at depth ``d`` such that
    ``lam = m rho + beta`` is dominant with theta-pairing <= (m+n) h^vee.
    Order: that of ``delta_max_weights``, each orbit sorted."""
    lvl = (m + n) * rs.dual_coxeter
    char_n = affine_freudenthal(rs, n * affine_rho(rs), depth)
    for beta_dom, d in delta_max_weights(char_n):
        for beta in sorted(weyl_orbit(rs, beta_dom)):
            lam = tuple(m + b for b in beta)
            if all(x >= 0 for x in lam) and theta_pairing(rs, lam) <= lvl:
                yield lam, beta, beta_dom, d


@dataclass
class TruncatedDecomposition:
    """Components of V(lhs) (x) V(rhs) found within the truncation depth,
    keyed by (finite dominant part, delta-depth below lhs+rhs)."""

    algebra: str
    lhs: AffineWeight
    rhs: AffineWeight
    depth: int
    components: dict[tuple[Weight, int], int]

    def delta_max_components(self) -> list[tuple[Weight, int]]:
        best: dict[Weight, int] = {}
        for (w, d) in self.components:
            if w not in best or d < best[w]:
                best[w] = d
        return sorted(best.items(), key=lambda t: (t[1], t[0]))


def _partner_index(weights: dict[Weight, int], rank: int) -> list[tuple[int, list[frozenset[Weight]]]]:
    """Per coordinate ``i``, ``(lo, sets)`` with ``sets[k]`` the frozenset of
    the ``weights`` whose ``i``-th coordinate is at least ``lo + k``, for
    ``0 <= k <= hi - lo + 1``: ``lo`` and ``hi`` are the least and greatest
    ``i``-th coordinates, so ``sets[0]`` is every weight and ``sets[-1]`` none.
    Each set is a suffix of the weights sorted once by the coordinate."""
    index = []
    for i in range(rank):
        ordered = sorted(weights, key=itemgetter(i))
        column = [w[i] for w in ordered]
        lo, hi = (column[0], column[-1]) if column else (0, 0)
        index.append((lo, [frozenset(ordered[bisect_left(column, t):]) for t in range(lo, hi + 2)]))
    return index


def _dominant_partners(
    index: list[tuple[int, list[frozenset[Weight]]]], w1: Weight
) -> frozenset[Weight]:
    """The indexed weights ``w2`` with ``w1 + w2`` dominant, that is with
    ``w2_i >= -w1_i`` for every ``i``: the intersection of the threshold sets
    at ``-w1``, clamped to the ends, smallest first (each ``&`` costs the
    size of its smaller operand)."""
    parts = []
    for x, (lo, sets) in zip(w1, index):
        k = -x - lo
        if k > 0:  # else every indexed w2_i >= lo >= -x
            parts.append(sets[min(k, len(sets) - 1)])
    if not parts:
        return index[0][1][0]  # the whole slice
    parts.sort(key=len)
    return parts[0].intersection(*parts[1:])


def _dominant_convolution(
    rs: RootSystem, char_l: TruncatedAffineCharacter, char_m: TruncatedAffineCharacter, depth: int
) -> list[dict[Weight, int]]:
    """Per depth ``d``, the dominant part of the product of the two characters
    at ``d`` below their highest weights: the orbit-expanded slices of both,
    each ``w1`` paired only with its :func:`_dominant_partners`. The expanded
    slices and the index are dropped on return."""
    full_l = [expand_orbits(rs, sl) for sl in char_l.slices]
    full_m = [expand_orbits(rs, sl) for sl in char_m.slices]
    index_m = [_partner_index(sl, rs.rank) for sl in full_m]
    product: list[dict[Weight, int]] = [dict() for _ in range(depth + 1)]
    for d1 in range(depth + 1):
        for d2 in range(depth + 1 - d1):
            target = product[d1 + d2]
            terms, index = full_m[d2], index_m[d2]
            for w1, m1 in full_l[d1].items():
                for w2 in _dominant_partners(index, w1):
                    key = tuple(map(add, w1, w2))
                    target[key] = target.get(key, 0) + m1 * terms[w2]
    return product


def _affine_nodes(rs: RootSystem) -> tuple[DynkinNode, ...]:
    """The Dynkin nodes ``0..r`` of the affine Cartan matrix, node 0 the
    affine root ``alpha_0 = delta - theta``: ``A[j][0] = -<theta, alpha_j^vee>``
    and ``A[0][i] = -<alpha_i, theta^vee>`` for ``i, j >= 1``."""
    theta = rs.fund_coords_of_root(rs.highest_root)
    cartan = [[2] + [-theta_pairing(rs, col) for col in zip(*rs.cartan)]]
    cartan += [[-t] + list(row) for t, row in zip(theta, rs.cartan)]
    return _dynkin_nodes(cartan)


def _rho_orbit_terms(
    nodes: tuple[DynkinNode, ...], room: tuple[int, ...], costs: tuple[int, ...], budget: int
) -> list[tuple[int, Weight, int]]:
    """``(n_0, v, eps(w))`` for every ``w`` of the affine Weyl group with
    ``rho^ - w rho^ = sum_i n_i alpha_i``, ``n_i <= room[i]`` for all ``i``
    and ``sum_i n_i costs[i] <= budget``: ``v`` is the finite part of
    ``w rho^``, its coordinates ``1..r``.

    Snow's tree of the orbit of ``rho^``, walked down from ``rho^`` in affine
    fundamental coordinates with the test of :func:`weyl_orbit`, node 0
    first: the children of ``u`` are the ``s_i u`` with ``u_i > 0`` whose
    first negative coordinate is ``i``. A child adds ``u_i alpha_i``, so
    ``n`` only grows down the tree, and with costs ``>= 0`` a subtree is cut
    where some ``n_i`` passes its room or the cost passes the budget; each
    step is one reflection, so ``eps`` alternates.
    """
    terms = []
    stack = [((1,) * len(nodes), room, budget, 1)]  # u, room - n, budget - cost, eps
    pop, push = stack.pop, stack.append
    while stack:
        u, left, spare, eps = pop()
        terms.append((room[0] - left[0], u[1:], eps))
        for f, uf in enumerate(u):  # f stops at the first negative coordinate
            if uf > 0:
                if uf <= left[f] and uf * costs[f] <= spare:
                    child = list(u)
                    child[f] = -uf
                    for j, a in nodes[f].neighbours:
                        child[j] -= uf * a
                    rest = list(left)
                    rest[f] -= uf
                    push((tuple(child), tuple(rest), spare - uf * costs[f], -eps))
            elif uf < 0:
                break
        else:
            continue
        for i in nodes[f].later_neighbours:
            ui = u[i]
            if 0 < ui <= left[i] and ui * costs[i] <= spare:
                node = nodes[i]
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
                        rest = list(left)
                        rest[i] -= ui
                        push((tuple(child), tuple(rest), spare - ui * costs[i], -eps))
    return terms


def _ball(rs: RootSystem, x: Weight, d: int, top: Weight, lvl: int) -> tuple[tuple[int, ...], int]:
    """Costs and budget for :func:`_rho_orbit_terms` that keep the terms
    ``x^ + N``, ``N = rho^ - w rho^ = sum_i n_i alpha_i``, with
    ``|x^ + N|^2 <= |top^|^2``: every weight of a module whose components lie
    below ``top^`` is that short (Kac, Prop. 11.4), where ``x^`` and ``top^``
    are the level-``lvl`` weights with finite parts ``x`` and ``top`` at
    depths ``d`` and 0. As ``|w rho^| = |rho^|``, ``|x^ + N|^2 = |x^|^2 +
    2 (x^ + rho^ | N)``, so the bound reads ``sum_i n_i 2 (x^ + rho^ |
    alpha_i) <= |top^|^2 - |x^|^2``, scaled by ``form_scale``. For an
    affine-dominant ``x`` every cost ``2 (x_i + 1) (alpha_i|alpha_i) / 2`` is
    positive, so the walk may cut a subtree where the budget runs out."""
    x0 = lvl - theta_pairing(rs, x)
    costs = (2 * (x0 + 1) * rs.form_scale,) + tuple(2 * (a + 1) * f for a, f in zip(x, rs.form_d))
    return costs, rs.sip_ww(top, top) - rs.sip_ww(x, x) + 2 * rs.form_scale * lvl * d


def _read_off(
    rs: RootSystem, product: list[dict[Weight, int]], top: Weight, lvl: int
) -> dict[tuple[Weight, int], int]:
    """The components ``{(finite part, depth): c}`` of the level-``lvl``
    product whose dominant slices are ``product``, below the highest weight
    with finite part ``top``, in the order depth, then ``(-height, w)``.

    Multiplying ``P = sum_nu c_nu ch V(nu)`` by the Weyl-Kac denominator
    ``sum_w eps(w) e^(w rho^ - rho^)`` gives ``sum_nu c_nu sum_w eps(w)
    e^(w(nu + rho^) - rho^)`` (Kac, *Infinite-dimensional Lie algebras*,
    §10.4 and §12.1). The coefficient of ``e^x`` on the left is ``S(x, d) =
    sum_w eps(w) P[d - n_0][to_dominant(x + s_w)]`` over the terms of
    :func:`_rho_orbit_terms`; the weights of ``P`` lie below the top, so
    the terms with some ``n_i`` above ``room = (d, gamma + d*marks)``,
    ``gamma`` the root coordinates of ``top - x``, read zero and are cut, and
    at an affine-dominant ``x`` so are those outside the ball of
    :func:`_ball`. Every term is at depth ``d - n_0 <= d``, so the truncation
    loses nothing. At an affine-dominant ``x`` (``<x, theta^vee> <= lvl``) only ``nu = x``
    and ``w = 1`` land on the right: ``c_x = S(x, d)``, and a negative one is
    an internal failure. At any other key, ``x + rho^`` reflects to an alcove
    point ``nu + rho^`` at a shallower depth, already read off, and ``S(x, d)``
    must be ``eps(w) c_nu``, or 0 if ``x + rho^`` is on a wall.
    """
    nodes = _affine_nodes(rs)
    marks, to_dominant = rs.marks, rs.to_dominant
    no_costs = (0,) * (rs.rank + 1)
    components: dict[tuple[Weight, int], int] = {}
    for d in range(len(product)):
        for x in sorted(product[d], key=lambda w: (-rs.height(w), w)):
            gamma = floor_root_coords(rs, tuple(map(sub, top, x)))
            room = (d,) + tuple(g + d * a for g, a in zip(gamma, marks))
            x0 = lvl - theta_pairing(rs, x)
            costs, budget = _ball(rs, x, d, top, lvl) if x0 >= 0 else (no_costs, 0)
            x_rho, total = tuple(a + 1 for a in x), 0  # x + rho
            for n0, v, eps in _rho_orbit_terms(nodes, room, costs, budget):
                y = tuple(map(sub, x_rho, v))  # x + s_w
                if min(y) < 0:
                    y = to_dominant(y)[0]
                total += eps * product[d - n0].get(y, 0)
            if x0 >= 0:
                if total < 0:
                    raise InvariantError(
                        f"negative multiplicity {total} read off at finite part {x}, depth {d} "
                        f"(level {lvl}) over {rs.algebra}"
                    )
                if total:
                    components[(x, d)] = total
                continue
            point, e, sign = rs.alcove_point(x_rho, d, lvl + rs.dual_coxeter)
            nu = tuple(a - 1 for a in point)
            expected = sign * components.get((nu, e), 0)
            if total != expected:
                raise InvariantError(
                    f"read-off at non-dominant affine weight (finite {x}, depth {d}, level {lvl}) "
                    f"over {rs.algebra} is {total}, but its alcove point (finite {nu}, depth {e}) "
                    f"gives {expected}"
                )
    return components


def truncated_tensor(
    rs: RootSystem, lam: AffineWeight, mu: AffineWeight, depth: int
) -> TruncatedDecomposition:
    """Decompose the product of two positive-level affine irreducibles up to
    ``depth``: convolve their dominant slices, then read every component off
    the product with the Weyl-Kac denominator.

    Both factors are orbit-expanded, and the convolution forms a pair
    ``(w1, w2)`` only when ``w1 + w2`` is a dominant finite weight, that is
    when ``w2_i >= -w1_i`` for every coordinate ``i``. Each slice of ``mu``
    is indexed once per product: per coordinate and threshold ``t``, the
    frozenset of its weights with ``w2_i >= t`` (see :func:`_partner_index`).
    Each ``w1`` intersects the sets at ``-w1`` and pairs with the survivors
    only. Every slice of a character is invariant under the finite Weyl
    group, so its dominant part determines it.

    The multiplicity of each component is a signed sum of product
    coefficients at the same depth or shallower (see :func:`_read_off`), so
    no table beyond the two factors is built. A negative multiplicity, or a
    sum at a key outside the affine chamber that disagrees with the
    component at its alcove point, is an internal failure. So is a component
    ``(w, d)`` of multiplicity ``c`` above the multiplicity of ``w - lam`` in
    slice ``d`` of V(mu), or of ``w - mu`` in slice ``d`` of V(lam): every
    component V(nu) of V(lam) (x) V(mu) has ``nu - lam`` a weight of V(mu)
    whose multiplicity is at least that of V(nu) (Parthasarathy, Ranga Rao &
    Varadarajan 1967).
    """
    _require_affine(rs)
    if not (lam.is_dominant() and mu.is_dominant()):
        raise AlgebraError(f"truncated_tensor requires dominant weights, got {lam} and {mu}")
    lvl_l, lvl_m = level(rs, lam), level(rs, mu)
    if lvl_l <= 0 or lvl_m <= 0:
        raise AlgebraError(f"truncated_tensor requires positive levels, got {lvl_l}, {lvl_m}")
    if depth < 0:
        raise AlgebraError(f"depth must be non-negative, got {depth}")
    char_l, char_m = affine_freudenthal(rs, lam, depth), affine_freudenthal(rs, mu, depth)
    product = _dominant_convolution(rs, char_l, char_m, depth)
    components = _read_off(rs, product, (lam + mu).finite, lvl_l + lvl_m)
    for (w, d), c in components.items():
        for first, other in ((lam, char_m), (mu, char_l)):
            x = rs.to_dominant(tuple(map(sub, w, first.finite)))[0]
            bound = other.slices[d].get(x, 0)
            if bound < c:
                raise InvariantError(
                    f"component (finite {w}, depth {d}) of {lam} (x) {mu} over {rs.algebra} has "
                    f"multiplicity {c}, above the multiplicity {bound} of {x} at depth {d} in "
                    f"V({other.highest}) (PRV bound)"
                )
    return TruncatedDecomposition(str(rs.algebra), lam, mu, depth, components)


def sl2_delta_max_rule(
    rs: RootSystem, m: int, n: int, lam: AffineWeight, depth: int = DEFAULT_DEPTH
) -> int:
    """Position of the delta-maximal component through ``lam`` in
    V(m rho) (x) V(n rho) for affine sl2: N = min(k1, k2) with k1, k2 the
    shifts taking lam - m rho (resp. lam - n rho) to the top of its
    delta-string in V(n rho) (resp. V(m rho))."""
    _require_affine(rs)
    if rs.algebra.family != "A" or rs.rank != 1:
        raise AlgebraError(f"sl2_delta_max_rule applies to A1~ only, got {rs.algebra}")
    if m < n or n < 1:
        raise AlgebraError(f"sl2_delta_max_rule requires m >= n >= 1, got m={m}, n={n}")
    if not lam.is_dominant():
        raise AlgebraError(f"lam must be dominant, got {lam}")
    h_dual = rs.dual_coxeter
    if level(rs, lam) != (m + n) * h_dual:
        raise AlgebraError(f"lam must have level {(m + n) * h_dual}, got {level(rs, lam)}")
    rho_m = affine_rho(rs, m)
    rho_n = affine_rho(rs, n)
    if not rs.in_root_lattice(tuple(a - b for a, b in zip(lam.finite, (rho_m + rho_n).finite))):
        raise AlgebraError(f"lam {lam} is not congruent to (m+n) rho modulo the root lattice")
    s = lam.delta_shift
    ks = []
    for big, other in ((rho_m, rho_n), (rho_n, rho_m)):
        beta_fin = tuple(a - b for a, b in zip(lam.finite, big.finite))
        char = affine_freudenthal(rs, other, depth)
        dmin = char.min_depth(rs, beta_fin)
        if dmin is None:
            raise AlgebraError(
                f"lam - {'m' if big is rho_m else 'n'} rho is not a weight of the complementary "
                f"factor within depth {depth}"
            )
        ks.append(-s - dmin)
    return min(ks)


@dataclass
class GkoReport:
    """Exact GKO coset data for one component of V(m rho) (x) V(n rho)."""

    central_charge: Fraction
    l0_scalar: Fraction
    certificate_terms: tuple[Fraction, Fraction, Fraction, Fraction]
    denominator: Fraction


def gko_central_charge(rs: RootSystem, level_l: int, level_m: int) -> Fraction:
    """dim(g) * (l/(l+h) + m/(m+h) - (l+m)/(l+m+h)), exact."""
    _require_affine(rs)
    if level_l < 0 or level_m < 0:
        raise AlgebraError(f"levels must be non-negative, got {level_l}, {level_m}")
    h = rs.dual_coxeter
    dim = rs.dim_adjoint
    return dim * (
        Fraction(level_l, level_l + h)
        + Fraction(level_m, level_m + h)
        - Fraction(level_l + level_m, level_l + level_m + h)
    )


def gko_l0_scalar(rs: RootSystem, lam: AffineWeight, mu: AffineWeight, nu: AffineWeight) -> Fraction:
    """Scalar by which the coset L_0 acts on the V(nu) isotypic piece of
    V(lam) (x) V(mu)."""
    _require_affine(rs)
    h = rs.dual_coxeter
    ll, lm = level(rs, lam), level(rs, mu)
    if ll <= 0 or lm <= 0:
        raise AlgebraError(f"gko_l0_scalar requires positive levels, got {ll}, {lm}")
    if level(rs, nu) != ll + lm:
        raise AlgebraError(f"nu must have level {ll + lm}, got {level(rs, nu)}")
    rho2 = 2 * affine_rho(rs)

    def casimir(w: AffineWeight, lv: int) -> Fraction:
        return affine_bilinear(rs, w, w + rho2) / (lv + h)

    return Fraction(1, 2) * (casimir(lam, ll) + casimir(mu, lm) - casimir(nu, ll + lm))


def gko_positivity_certificate(rs: RootSystem, m: int, n: int, beta: AffineWeight) -> GkoReport:
    """The four non-negative summands whose total, divided by
    2 h (m+1)(n+1)(m+n+1), is the L_0 scalar on V(m rho + beta).

    ``beta`` must be a weight of V(n rho), handed over as an affine weight
    whose delta shift records its depth below n rho.
    """
    _require_affine(rs)
    if m < n or n < 1:
        raise AlgebraError(f"certificate requires m >= n >= 1, got m={m}, n={n}")
    h = rs.dual_coxeter
    rho_aff = affine_rho(rs)
    rho_n, rho_m = n * rho_aff, m * rho_aff
    depth_needed = -beta.delta_shift
    if depth_needed < 0 or affine_freudenthal(rs, rho_n, depth_needed).multiplicity(
        rs, beta.finite, depth_needed
    ) == 0:
        raise AlgebraError(f"beta {beta} is not a weight of V({n} rho) at its recorded shift")
    gamma = rho_n - beta

    def ip(x: AffineWeight, y: AffineWeight) -> Fraction:
        return affine_bilinear(rs, x, y)

    t1 = (m + 1) * (n + 1) * ip(2 * rho_aff, gamma)
    t2 = (m + 1) * (n + 1) * (ip(rho_n, rho_n) - ip(beta, beta))
    t3 = 2 * (m + 1) * (n + 1) * ip(rho_m, gamma)
    t4 = (m + n + 2) * ip(rho_m, rho_n)
    terms = (Fraction(t1), Fraction(t2), Fraction(t3), Fraction(t4))
    if any(t < 0 for t in terms[:3]) or terms[3] <= 0:
        raise InvariantError(
            f"positivity certificate failed for m={m}, n={n}, beta={beta}: terms {terms}"
        )
    denominator = Fraction(2 * h * (m + 1) * (n + 1) * (m + n + 1))
    scalar = sum(terms) / denominator
    verify = gko_l0_scalar(rs, rho_m, rho_n, rho_m + beta)
    if scalar != verify:
        raise InvariantError(
            f"certificate sum {scalar} disagrees with direct L_0 scalar {verify} "
            f"for m={m}, n={n}, beta={beta}"
        )
    return GkoReport(
        central_charge=gko_central_charge(rs, m * h, n * h),
        l0_scalar=scalar,
        certificate_terms=terms,
        denominator=denominator,
    )


UNBROKEN = "UNBROKEN"
GAP_AT_ONE = "GAP_AT_ONE"


def delta_string_classify(scalar: Fraction) -> str:
    """String structure below a delta-maximal component: positive scalar
    means no gaps; zero means exactly the shift-one member is absent."""
    if scalar > 0:
        return UNBROKEN
    if scalar == 0:
        return GAP_AT_ONE
    raise InvariantError(f"L_0 scalar {scalar} < 0 on a delta-maximal component (unitarity violation)")


def kac_wakimoto_check(
    rs: RootSystem, lam: AffineWeight, mu: AffineWeight, nu: AffineWeight, depth: int
) -> int | None:
    """Least k <= depth with V(nu - k delta) a component of the truncated
    decomposition, or None if none within the truncation (never a refutation)."""
    _require_affine(rs)
    if not in_affine_root_lattice(rs, lam + mu - nu):
        raise AlgebraError(
            "kac_wakimoto_check precondition violated: lam + mu - nu is not in the affine root lattice"
        )
    dec = truncated_tensor(rs, lam, mu, depth)
    dom = rs.to_dominant(nu.finite)[0]
    base = -nu.delta_shift  # depth position of nu itself relative to lam+mu
    for k in range(depth + 1):
        d = base + k
        if 0 <= d <= depth and (dom, d) in dec.components:
            return k
    return None
