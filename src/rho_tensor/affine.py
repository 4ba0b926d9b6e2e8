"""Truncated character theory for untwisted affine Kac-Moody algebras.

Affine weights carry r+1 fundamental coordinates over omega_0..omega_r plus
an integer delta shift. Characters of positive-level irreducibles are
computed slice-by-slice down to an explicit delta-depth by the Kac-Moody
Freudenthal recursion (real roots alpha + k delta with multiplicity one,
imaginary roots k delta with multiplicity rank), run only at affine-dominant
weights: every other dominant finite weight of a slice takes the multiplicity
of its alcove point, the affine-dominant point of its affine Weyl orbit, at a
shallower depth, walked once per point and level
(:meth:`rho_tensor.rootdata.RootSystem.alcove_point`). The tables live in
the memo of :mod:`rho_tensor.charcalc`, keyed without the delta shift: one per
classical highest weight, the deepest computed so far. Views of it serve
shallower or shifted requests, and a deeper request extends its slices with
the deeper candidates only. A truncated tensor product is read off finite Klimyk
passes: multiplying ``ch L ch V(kappa)`` by the Weyl-Kac denominator gives
``ch L`` times the Weyl-Kac numerator of V(kappa) (Kac, §10.4 and §12.1), a
signed sum of finite characters ``A_rho ch V(v - rho)``, few within the
truncation. Each slice of ``L`` runs one :func:`rho_tensor.tensor.klimyk_pass`
against them, and the coefficient at an affine-dominant weight is its
component. The sums off the affine chamber are checked against the components
at their alcove points, and every component against the multiplicities of both
factors (the PRV bound). Everything is depth-qualified: no claim is made
beyond the truncation.

The normalized invariant form follows the standard affine conventions:
(delta|delta) = 0, (delta|Lambda) = level(Lambda), and on classical parts it
restricts to the finite normalized form, so levels and the Virasoro scalars
of the Goddard-Kent-Olive coset construction come out as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable

from .charcalc import _memo, _memo_lock, freudenthal_slices
from .rootdata import (
    AlgebraError,
    InvariantError,
    RootSystem,
    Weight,
    weyl_orbit,
)
from .tensor import klimyk_pass

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


def scaled_bilinear(rs: RootSystem, x: AffineWeight, y: AffineWeight) -> int:
    """``form_scale`` times :func:`affine_bilinear`, an integer."""
    _require_affine(rs)
    cross = 0  # a level is read only where the other weight has a delta shift
    if y.delta_shift:
        cross += level(rs, x) * y.delta_shift
    if x.delta_shift:
        cross += level(rs, y) * x.delta_shift
    return rs.sip_ww(x.finite, y.finite) + rs.form_scale * cross


def affine_bilinear(rs: RootSystem, x: AffineWeight, y: AffineWeight) -> Fraction:
    """Normalized invariant form: finite part plus level/delta cross terms."""
    return Fraction(scaled_bilinear(rs, x, y), rs.form_scale)


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


def affine_freudenthal(rs: RootSystem, lam: AffineWeight, depth: int) -> TruncatedAffineCharacter:
    """Delta-depth-truncated character of the affine irreducible V(lam).

    The memo of :mod:`rho_tensor.charcalc` holds the deepest table computed
    so far per ``(algebra, lam.fund)``; the key has no delta shift, which
    :func:`freudenthal_slices` never reads. Another depth or shift gets a view
    of its own ``highest`` and ``depth`` whose slices are a prefix of that
    table: the candidates and multiplicities at depth ``d`` do not depend on
    the truncation depth. For the same reason a deeper request hands the
    slices of the table held to :func:`freudenthal_slices` as ``known``, which
    runs only the candidates deeper than them; those slices stay shared, so
    views handed out before are unchanged.
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
    known = ()
    if hit is not None:
        if hit.depth >= depth:
            if hit.depth == depth and hit.highest == lam:
                return hit
            return TruncatedAffineCharacter(hit.algebra, lam, depth, hit.slices[: depth + 1])
        known = hit.slices
    slices = freudenthal_slices(rs, lam.finite, depth, lvl, known)
    char = TruncatedAffineCharacter(str(rs.algebra), lam, depth, tuple(slices))
    with _memo_lock:
        _memo[key] = char  # deeper than any table held before
    return char


def first_depths(keys: Iterable[tuple[Weight, int]]) -> list[tuple[Weight, int]]:
    """``(w, least d)`` over the ``(w, d)`` pairs of ``keys``, sorted by ``(d, w)``:
    each weight at the first depth where it occurs."""
    first: dict[Weight, int] = {}
    for w, d in keys:
        first[w] = min(d, first.get(w, d))
    return sorted(first.items(), key=lambda t: (t[1], t[0]))


def delta_max_weights(char: TruncatedAffineCharacter) -> list[tuple[Weight, int]]:
    """Dominant representatives (finite weight, depth) that start their
    delta-string: each weight at the first depth where it occurs. The slices
    are nested, since multiplicities along a delta-string never decrease at
    positive level (a negative-degree element of the homogeneous Heisenberg
    subalgebra acts injectively; Kac, *Infinite-dimensional Lie algebras*),
    so that depth is the one with the weight in its slice and not in the
    slice one up."""
    return first_depths((w, d) for d, sl in enumerate(char.slices) for w in sl)


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
        return first_depths(self.components)


def _numerator_terms(rs: RootSystem, start: AffineWeight, depth: int) -> list[tuple[int, Weight, int]]:
    """``(n, v, eps(u))`` for every ``u`` of the affine Weyl group with ``u
    start`` finite-dominant at depth ``n <= depth`` below ``start``, ``v``
    its finite part. ``start`` is a weight ``kappa + rho^``, ``kappa``
    dominant: every coordinate is positive, so ``start`` is regular, and so
    is every ``v`` (each coordinate positive).

    These points form the tree of the walk of :meth:`RootSystem.alcove_point`
    run backwards. The parent of such a ``p`` other than ``start`` is
    ``q = to_dominant(s_0 p)``, where ``s_0`` reflects in ``<., theta^vee> =
    lvl``; ``p`` lies ``-p_0 = <p, theta^vee> - lvl`` deeper. Writing
    ``s_0 p = w q`` with ``w`` finite, ``p = w s q``, where ``s`` reflects in
    ``<., beta^vee> = lvl`` for the long root ``beta = w^-1 theta``, and ``s q
    = q + x_0 beta`` with ``x_0 = lvl - <q, beta^vee>``. So the children of
    ``q`` are found among ``to_dominant(q + x_0 beta)`` over the long roots
    ``beta`` with ``0 < x_0 <= depth - n``: the ones whose parent is ``q``.
    A step is the affine reflection ``s`` and then ``w``, so the child's sign
    is ``-eps sign(w)``.
    """
    lvl = level(rs, start)
    to_dominant, theta = rs.to_dominant, rs.positive_roots_fund[-1]
    long_roots = [
        (beta, coroot) for beta, coroot in zip(rs.positive_roots_fund, rs.positive_coroots)
        if rs.sip_ww(beta, beta) == 2 * rs.form_scale
    ]
    long_roots += [(tuple(-a for a in beta), tuple(-c for c in coroot)) for beta, coroot in long_roots]
    terms = []
    stack = [(start.finite, 0, 1)]
    while stack:
        q, n, eps = stack.pop()
        terms.append((n, q, eps))
        for beta, coroot in long_roots:
            x0 = lvl - sum(map(mul, q, coroot))
            if 0 < x0 <= depth - n:
                p, sign = to_dominant(tuple(a + x0 * b for a, b in zip(q, beta)))
                p0 = lvl - theta_pairing(rs, p)
                if to_dominant(tuple(a + p0 * t for a, t in zip(p, theta)))[0] == q:
                    stack.append((p, n + x0, -eps * sign))
    return terms


def _weight_count(rs: RootSystem, char: TruncatedAffineCharacter) -> int:
    """The number of weights in the orbit-expanded slices of ``char``, one
    memoised orbit size per support pattern of the dominant weights."""
    orbit_size = rs.orbit_size
    return sum(orbit_size(tuple(map(bool, mu))) for sl in char.slices for mu in sl)


def _numerator_sums(
    rs: RootSystem, char: TruncatedAffineCharacter, terms: list[tuple[int, Weight, int]], depth: int
) -> list[dict[Weight, int]]:
    """Per depth ``d``, ``{x: S(x, d)}`` over the dominant finite ``x`` the
    sum reaches, ``S(x, d) = sum eps [L_(d - n_0) (x) V(v - rho) : V(x)]``
    over the ``terms`` ``(n_0, v, eps)`` of :func:`_numerator_terms`, ``L_e``
    slice ``e`` of ``char``: one :func:`rho_tensor.tensor.klimyk_pass` per
    slice, over the shifted orbits ``v + W mu``, one :func:`weyl_orbit` per
    ``(mu, term)``. Entries that sum to zero are kept."""
    sums: list[dict[Weight, int]] = [dict() for _ in range(depth + 1)]  # keyed by x + rho
    for e, sl in enumerate(char.slices):
        reached = [(v, eps, sums[e + n0]) for n0, v, eps in terms if e + n0 <= depth]
        orbits = ((eps * m, weyl_orbit(rs, mu, v), target) for mu, m in sl.items() for v, eps, target in reached)
        klimyk_pass(rs, orbits)
    rho = rs.rho
    return [{tuple(map(sub, y, rho)): s for y, s in sl.items()} for sl in sums]


def truncated_tensor(
    rs: RootSystem, lam: AffineWeight, mu: AffineWeight, depth: int
) -> TruncatedDecomposition:
    """Decompose the product of two positive-level affine irreducibles up to
    ``depth``: finite Klimyk passes of one factor's slices against the
    Weyl-Kac numerator of the other.

    Write ``L`` for the factor with fewer orbit-expanded weights (``mu`` on
    a tie, as in :func:`rho_tensor.tensor.klimyk`) and ``M = V(kappa)`` for
    the other. Then ``ch L ch M A^ = ch L sum_w eps(w) e^(w(kappa + rho^) -
    rho^)`` over the affine Weyl group, ``A^`` the Weyl-Kac denominator
    (Kac, *Infinite-dimensional Lie algebras*, §10.4 and §12.1). Each ``w``
    is ``w' u`` with ``w'`` finite and ``u(kappa + rho^)`` finite-dominant,
    and Weyl's formula sums each finite coset into ``A_rho ch V(v - rho)``,
    ``v`` the finite part of ``u(kappa + rho^)``. So the coefficient of
    ``e^x`` at depth ``d`` is ``S(x, d) = sum_u eps(u) [L_(d - n(u)) (x) V(v
    - rho) : V(x)]`` (see :func:`_numerator_sums`), ``n(u)`` the depth of
    ``u(kappa + rho^)`` (see :func:`_numerator_terms`). Every term reads a
    slice at depth ``d`` or shallower, so the truncation loses nothing.

    Writing ``ch L ch M = sum_nu c_nu ch V(nu)``, the same coefficient is
    ``sum_nu c_nu sum_w eps(w) [w(nu + rho^) = x + rho^]``. At an
    affine-dominant ``x`` (``<x, theta^vee> <= lvl``) only ``nu = x`` and ``w =
    1`` count: ``c_x = S(x, d)``, and a negative one is an internal failure.
    At any other key, ``x + rho^`` reflects to an alcove point ``nu + rho^``
    at a shallower depth (:meth:`RootSystem.alcove_point`),
    and ``S(x, d)`` must be ``eps(w) c_nu``, or 0 if ``x + rho^`` is on a wall.
    Components come in the order depth, then ``(-height, w)``.

    A component ``(w, d)`` of multiplicity ``c`` above the multiplicity of ``w
    - lam`` in slice ``d`` of V(mu), or of ``w - mu`` in slice ``d`` of
    V(lam), is an internal failure too: every component V(nu) of V(lam) (x)
    V(mu) has ``nu - lam`` a weight of V(mu) whose multiplicity is at least
    that of V(nu) (Parthasarathy, Ranga Rao & Varadarajan 1967).
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
    if _weight_count(rs, char_l) < _weight_count(rs, char_m):
        small, kappa = char_l, mu
    else:
        small, kappa = char_m, lam
    terms = _numerator_terms(rs, kappa + affine_rho(rs), depth)
    sums = _numerator_sums(rs, small, terms, depth)
    lvl = lvl_l + lvl_m
    alcove_point = rs.alcove_point
    components: dict[tuple[Weight, int], int] = {}
    for d, sl in enumerate(sums):
        for x in sorted(sl, key=lambda w: (-rs.height(w), w)):
            total = sl[x]
            if theta_pairing(rs, x) <= lvl:
                if total < 0:
                    raise InvariantError(
                        f"negative multiplicity {total} read off at finite part {x}, depth {d} "
                        f"(level {lvl}) over {rs.algebra}"
                    )
                if total:
                    components[(x, d)] = total
                continue
            point, e, sign = alcove_point(tuple(a + 1 for a in x), d, lvl + rs.dual_coxeter)
            nu = tuple(a - 1 for a in point)
            expected = sign * components.get((nu, e), 0)
            if total != expected:
                raise InvariantError(
                    f"read-off at non-dominant affine weight (finite {x}, depth {d}, level {lvl}) "
                    f"over {rs.algebra} is {total}, but its alcove point (finite {nu}, depth {e}) "
                    f"gives {expected}"
                )
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
        dmin = dict(delta_max_weights(char)).get(rs.to_dominant(beta_fin)[0])
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
    kl, km, kn = level_l + h, level_m + h, level_l + level_m + h
    return Fraction(
        rs.dim_adjoint * (level_l * km * kn + level_m * kl * kn - (level_l + level_m) * kl * km),
        kl * km * kn,
    )


def gko_l0_scalar(rs: RootSystem, lam: AffineWeight, mu: AffineWeight, nu: AffineWeight) -> Fraction:
    """Scalar by which the coset L_0 acts on the V(nu) isotypic piece of
    V(lam) (x) V(mu)."""
    _require_affine(rs)
    for w in (lam, mu, nu):
        if not w.is_dominant():
            raise AlgebraError(f"gko_l0_scalar requires dominant weights, got {w}")
    ll, lm = level(rs, lam), level(rs, mu)
    if ll <= 0 or lm <= 0:
        raise AlgebraError(f"gko_l0_scalar requires positive levels, got {ll}, {lm}")
    if level(rs, nu) != ll + lm:
        raise AlgebraError(f"nu must have level {ll + lm}, got {level(rs, nu)}")
    h = rs.dual_coxeter
    rho2 = 2 * affine_rho(rs)
    kl, km, kn = ll + h, lm + h, ll + lm + h

    def casimir(w: AffineWeight) -> int:  # form_scale * (w|w + 2 rho)
        return scaled_bilinear(rs, w, w + rho2)

    # each Casimir over its level + h, summed over one common denominator
    return Fraction(
        casimir(lam) * km * kn + casimir(mu) * kl * kn - casimir(nu) * kl * km,
        2 * rs.form_scale * kl * km * kn,
    )


def gko_positivity_certificate(rs: RootSystem, m: int, n: int, beta: AffineWeight) -> GkoReport:
    """The four non-negative summands whose total, divided by
    2 h (m+1)(n+1)(m+n+1), is the L_0 scalar on V(m rho + beta).

    ``beta`` must be a weight of V(n rho), handed over as an affine weight
    whose delta shift records its depth below n rho, with m rho + beta
    dominant: otherwise there is no such component.
    """
    _require_affine(rs)
    if m < n or n < 1:
        raise AlgebraError(f"certificate requires m >= n >= 1, got m={m}, n={n}")
    h = rs.dual_coxeter
    rho_aff = affine_rho(rs)
    rho_n, rho_m = n * rho_aff, m * rho_aff
    if not (rho_m + beta).is_dominant():
        raise AlgebraError(f"certificate requires a dominant m rho + beta, got {rho_m + beta}")
    depth_needed = -beta.delta_shift
    if depth_needed < 0 or level(rs, beta) != n * h or affine_freudenthal(
        rs, rho_n, depth_needed
    ).multiplicity(rs, beta.finite, depth_needed) == 0:
        raise AlgebraError(f"beta {beta} is not a weight of V({n} rho) at its recorded shift")
    gamma = rho_n - beta

    def ip(x: AffineWeight, y: AffineWeight) -> int:
        return scaled_bilinear(rs, x, y)

    t1 = (m + 1) * (n + 1) * ip(2 * rho_aff, gamma)
    t2 = (m + 1) * (n + 1) * (ip(rho_n, rho_n) - ip(beta, beta))
    t3 = 2 * (m + 1) * (n + 1) * ip(rho_m, gamma)
    t4 = (m + n + 2) * ip(rho_m, rho_n)
    scale = rs.form_scale
    terms = (Fraction(t1, scale), Fraction(t2, scale), Fraction(t3, scale), Fraction(t4, scale))
    if min(t1, t2, t3) < 0 or t4 <= 0:
        raise InvariantError(
            f"positivity certificate failed for m={m}, n={n}, beta={beta}: terms {terms}"
        )
    denominator = 2 * h * (m + 1) * (n + 1) * (m + n + 1)
    scalar = Fraction(t1 + t2 + t3 + t4, scale * denominator)
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
        denominator=Fraction(denominator),
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
    if not nu.is_dominant():
        raise AlgebraError(f"kac_wakimoto_check requires a dominant nu, got {nu}")
    if not in_affine_root_lattice(rs, lam + mu - nu):
        raise AlgebraError(
            "kac_wakimoto_check precondition violated: lam + mu - nu is not in the affine root lattice"
        )
    dec = truncated_tensor(rs, lam, mu, depth)
    base = -nu.delta_shift  # depth position of nu itself relative to lam+mu
    for k in range(depth + 1):
        d = base + k
        if 0 <= d <= depth and (nu.finite, d) in dec.components:
            return k
    return None
