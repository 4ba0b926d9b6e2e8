"""Exact tensor product decomposition of finite-type irreducibles.

The production path is the Klimyk algorithm, one :func:`klimyk_pass` (shared
with :mod:`rho_tensor.affine`) over the weights ``nu`` of the smaller factor:
``big + nu + rho`` reflected to the dominant chamber with its sign (0 on a
wall) accumulates. The points ``big + rho + W mu`` come shifted from
:meth:`RootSystem.orbit`, one orbit per dominant weight ``mu`` of the smaller
factor, replayed from a tree recorded once per zero pattern. The unreflected
terms, ``big + nu`` dominant, make up the translated set, which must contain
every component: each component of V(lam) (x) V(mu) is lam plus a weight of
V(mu). ``oracle_decompose`` multiplies full characters as formal weight sums
and peels highest weights; the two must agree.

Both check what they return with :func:`_check_decomposition`: positive
multiplicities, the Cartan component once, and dimension conservation as one
sum of Weyl numerators with one division, so the check costs one pairing walk
per component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub

from .charcalc import CharCache, freudenthal
from .rootdata import AlgebraError, InvariantError, RootSystem, Weight


@dataclass
class Decomposition:
    """Outer multiplicities of the components of V(lhs) (x) V(rhs).

    ``translated`` is ``{big + nu : nu a weight of small} & P+`` for the two
    factors as :func:`klimyk` orders them, and holds the support. It is empty
    where no Klimyk pass made the decomposition (the oracle, a JSON document).
    """

    algebra: str
    lhs: Weight
    rhs: Weight
    components: dict[Weight, int]
    translated: frozenset[Weight] = frozenset()

    def multiplicity(self, nu: Weight) -> int:
        return self.components.get(nu, 0)

    def support(self) -> set[Weight]:
        return set(self.components)

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.components.items())


def _check_decomposition(rs: RootSystem, dec: Decomposition, dims: tuple[int, int] | None = None) -> None:
    """Raise :class:`InvariantError` unless every multiplicity of ``dec`` is
    positive, the Cartan component ``lhs + rhs`` has multiplicity 1, and the
    dimensions are conserved: ``sum m * dim V(nu)`` over the components equals
    ``dim V(lhs) * dim V(rhs)``. The sum is taken over Weyl numerators
    (:meth:`RootSystem.weyl_numerator`) and divided once by the Weyl
    denominator; a remainder, which no integral weight can leave, fails too.
    ``dims`` are the factors' dimensions, in the order ``(lhs, rhs)``, where the
    caller has them; without them they are computed here."""
    bad = {nu: m for nu, m in dec.components.items() if m <= 0}
    if bad:
        raise InvariantError(f"non-positive outer multiplicities in {dec.lhs} (x) {dec.rhs}: {bad}")
    cartan = tuple(a + b for a, b in zip(dec.lhs, dec.rhs))
    if dec.components.get(cartan) != 1:
        raise InvariantError(
            f"Cartan component of {dec.lhs} (x) {dec.rhs} has multiplicity "
            f"{dec.components.get(cartan)}, expected 1"
        )
    if dims is None:
        dims = (rs.weyl_dimension(dec.lhs), rs.weyl_dimension(dec.rhs))
    expected = dims[0] * dims[1]
    numerator = rs.weyl_numerator
    num = sum(m * numerator(nu) for nu, m in dec.components.items())
    total, rem = divmod(num, rs.weyl_denominator)
    if rem or total != expected:
        got = f"{num}/{rs.weyl_denominator}" if rem else total
        raise InvariantError(f"dimension conservation failed for {dec.lhs} (x) {dec.rhs}: {got} != {expected}")


def klimyk_pass(rs: RootSystem, orbits) -> set[Weight]:
    """For every ``(c, points, target)`` in ``orbits`` and every ``y`` in
    ``points``, a shifted orbit ``v + W mu`` (:func:`rho_tensor.rootdata.weyl_orbit`
    with a shift ``v``), add ``c`` times the sign of the reflection into
    ``target`` at ``y`` reflected to the dominant chamber. Each ``v`` is a
    weight plus rho, so ``y`` is keyed as a dominant weight plus rho, and a
    ``y`` on a wall drops out. Sums that cancel to zero are kept. Returns the
    ``y`` added without a reflection."""
    to_dominant = rs.to_dominant
    unreflected: set[Weight] = set()
    for c, points, target in orbits:
        for y in points:
            if min(y) > 0:  # y is dominant: no reflection
                if y not in unreflected:
                    # a key outlives the orbit: keep a copy, as the orbit's own
                    # tuple would pin the memory of the freed orbit around it
                    y = (*y,)
                    unreflected.add(y)
                target[y] = target.get(y, 0) + c
            elif 0 not in y:  # else on a wall: sign 0
                y, sign = to_dominant(y)
                if sign:
                    target[y] = target.get(y, 0) + sign * c
    return unreflected


def klimyk(rs: RootSystem, lam: Weight, mu: Weight, cache: CharCache | None = None) -> Decomposition:
    """Decompose V(lam) (x) V(mu) by one :func:`klimyk_pass` of ``big + rho``
    over the weights of the smaller-dimensional factor ``small`` (ties toward
    ``mu``), the other factor being ``big``: one shifted orbit ``big + rho + W
    nu`` from :meth:`RootSystem.orbit` per dominant weight ``nu`` of
    ``small``. The terms added without a reflection form ``translated``,
    which must hold the support. The two dimensions that pick ``small`` are
    those the conservation check of :func:`_check_decomposition` reads."""
    rs._require_finite()
    for w in (lam, mu):
        if not rs.is_dominant(w):
            raise AlgebraError(f"klimyk requires dominant weights, got {w}")
    dims = (rs.weyl_dimension(lam), rs.weyl_dimension(mu))
    if dims[0] < dims[1]:
        big, small = mu, lam
    else:
        big, small = lam, mu
    char = freudenthal(rs, small, cache)
    rho = rs.rho
    v = tuple(map(add, big, rho))
    sums: dict[Weight, int] = {}  # keyed by x + rho
    unreflected = klimyk_pass(rs, ((m, rs.orbit(nu, v), sums) for nu, m in char.mults.items()))
    down = {y: tuple(map(sub, y, rho)) for y in unreflected}  # x + rho -> x, the translated set
    # before _check_decomposition and its sign check, so that a misplaced
    # term is named whatever its sign
    extra = [tuple(map(sub, y, rho)) for y, s in sums.items() if s and y not in down]
    if extra:
        raise InvariantError(
            f"{rs.algebra} {lam} (x) {mu}: decomposition support exceeds the translated weight set: "
            f"{sorted(extra)}"
        )
    components = {down[y]: s for y, s in sums.items() if s}
    dec = Decomposition(str(rs.algebra), lam, mu, components, frozenset(down.values()))
    _check_decomposition(rs, dec, dims)
    return dec


def oracle_decompose(rs: RootSystem, lam: Weight, mu: Weight, cache: CharCache | None = None) -> Decomposition:
    """Brute-force decomposition: multiply full characters as formal weight
    sums, then repeatedly strip a maximal dominant weight. Intended for small
    dimensions; serves as the independent oracle for :func:`klimyk`."""
    rs._require_finite()
    for w in (lam, mu):
        if not rs.is_dominant(w):
            raise AlgebraError(f"oracle_decompose requires dominant weights, got {w}")
    full_l = freudenthal(rs, lam, cache).full_weights(rs)
    full_m = freudenthal(rs, mu, cache).full_weights(rs)
    product: dict[Weight, int] = {}
    for w1, m1 in full_l.items():
        for w2, m2 in full_m.items():
            key = tuple(a + b for a, b in zip(w1, w2))
            product[key] = product.get(key, 0) + m1 * m2

    def sort_key(w: Weight):
        return (rs.height(w), w)

    components: dict[Weight, int] = {}
    while product:
        nu = max(product, key=sort_key)
        coeff = product[nu]
        if coeff < 0 or not rs.is_dominant(nu):
            raise InvariantError(
                f"oracle peel found maximal weight {nu} with coefficient {coeff} in {lam} (x) {mu}"
            )
        components[nu] = coeff
        for w, m in freudenthal(rs, nu, cache).full_weights(rs).items():
            acc = product.get(w, 0) - coeff * m
            if acc:
                product[w] = acc
            else:
                product.pop(w, None)
    dec = Decomposition(str(rs.algebra), lam, mu, components)
    _check_decomposition(rs, dec)
    return dec


def contains_component(
    rs: RootSystem, lam: Weight, mu: Weight, nu: Weight, cache: CharCache | None = None
) -> bool:
    """Membership of V(nu) in V(lam) (x) V(mu)."""
    if not rs.is_dominant(nu):
        raise AlgebraError(f"contains_component requires a dominant nu, got {nu}")
    return nu in klimyk(rs, lam, mu, cache).components


def saturation_check(
    rs: RootSystem, lam: Weight, mu: Weight, nu: Weight, d: int, cache: CharCache | None = None
) -> bool:
    """True iff V(d nu) is a component of V(d lam) (x) V(d mu).

    Requires ``lam + mu - nu`` in the root lattice; a violated precondition
    raises, which keeps it distinct from a legitimate ``False``.
    """
    if d < 1:
        raise AlgebraError(f"saturation factor must be a positive integer, got {d}")
    diff = tuple(a + b - c for a, b, c in zip(lam, mu, nu))
    if not rs.in_root_lattice(diff):
        raise AlgebraError(
            f"saturation_check precondition violated: lam+mu-nu = {diff} is not in the root lattice"
        )
    scale = lambda w: tuple(d * x for x in w)
    return contains_component(rs, scale(lam), scale(mu), scale(nu), cache)


@dataclass
class SchurReport:
    """Outcome of a multiplicity-dominance comparison of two decompositions."""

    dominates: bool
    witnesses: list[tuple[Weight, int, int]] = field(default_factory=list)


def schur_compare(a: Decomposition, b: Decomposition) -> SchurReport:
    """Does ``b`` contain every component of ``a`` with multiplicity at least
    as large? Witnesses list each violating weight with both multiplicities."""
    if a.algebra != b.algebra:
        raise AlgebraError(f"cannot compare decompositions over {a.algebra} and {b.algebra}")
    total_a = tuple(x + y for x, y in zip(a.lhs, a.rhs))
    total_b = tuple(x + y for x, y in zip(b.lhs, b.rhs))
    if total_a != total_b:
        raise AlgebraError(
            f"cannot compare decompositions with different total weights {total_a} and {total_b}"
        )
    witnesses = [
        (nu, a.multiplicity(nu), b.multiplicity(nu))
        for nu in sorted(a.support() | b.support())
        if b.multiplicity(nu) < a.multiplicity(nu)
    ]
    return SchurReport(dominates=not witnesses, witnesses=witnesses)

