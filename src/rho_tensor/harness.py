"""Conjecture verification scans over V(m rho) (x) V(n rho).

The scans compare the actual dominant support of a decomposition against the
predicted set {m rho + beta : beta a weight of V(n rho)} intersected with the
dominant chamber. For m >= n, :func:`klimyk` takes m rho as its big factor,
and the predicted set is its ``translated`` set: the terms it adds without a
reflection. Support containment in that set is a theorem, which ``klimyk``
asserts on every product; set equality is the statement under test, so a
FAILS verdict is a reportable finding rather than an internal error.
:func:`predicted_weights` builds the same set from two dominant descents,
with no pass.

On a large enough type, ``V(rho) (x) V(rho)`` is verified by
:func:`certify_conjecture` instead of a pass: a predicted weight is a sum of
components of the products ``V(omega_i) (x) V(omega_p(i))`` over a
permutation ``p`` of the nodes, hence a component itself (the tensor
semigroup). A case with every predicted weight certified HOLDS; any other
goes to the pass, so a FAILS verdict still comes only from a pass.

On affine types, :func:`verify_affine_conjecture` predicts the components
from the delta-maximal weights of V(n rho) and looks for them within a
truncation depth, so its verdict is always DEPTH_LIMITED.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

from .affine import _require_affine, affine_rho, predicted_components, theta_pairing, truncated_tensor
from .charcalc import CharCache, dominant_weights_below
from .rootdata import AlgebraError, AlgebraId, InvariantError, RootSystem, Weight, build_root_system
from .tensor import klimyk

HOLDS = "HOLDS"
FAILS = "FAILS"
DEPTH_LIMITED = "DEPTH_LIMITED"
ERROR = "ERROR"


@dataclass
class ConjectureReport:
    """Verdict for one (algebra, m, n) case."""

    algebra: str
    m: int
    n: int
    predicted: list[Weight]
    present: list[Weight]
    missing: list[Weight]
    verdict: str
    error: str | None = None


def _rho_multiple(rs: RootSystem, k: int) -> Weight:
    return (k,) * rs.rank


def _check_order(m: int, n: int, caller: str) -> None:
    """``caller`` names the operation in the error for ``m``, ``n`` outside
    ``m >= n >= 0``."""
    if m < n or n < 0:
        raise AlgebraError(f"{caller} requires m >= n >= 0, got m={m}, n={n}")


def _predicted_and_rest(rs: RootSystem, m: int, n: int) -> tuple[list[Weight], list[Weight]]:
    """The dominant weights ``lam <= (m+n) rho``, in lexicographic order,
    split by whether ``to_dominant(lam - m rho) <= n rho``: the predicted set
    of :func:`predicted_weights`, and the rest."""
    rs._require_finite()
    below_n = set(dominant_weights_below(rs, _rho_multiple(rs, n)))
    to_dominant = rs.to_dominant
    split: tuple[list[Weight], list[Weight]] = ([], [])
    for lam in sorted(dominant_weights_below(rs, _rho_multiple(rs, m + n))):
        split[to_dominant(tuple(x - m for x in lam))[0] not in below_n].append(lam)
    return split


def predicted_weights(rs: RootSystem, m: int, n: int) -> list[Weight]:
    """All dominant lam whose translate lam - m rho is a weight of V(n rho),
    in lexicographic order, with no Klimyk pass: the dominant ``lam <= (m+n)
    rho`` with ``to_dominant(lam - m rho) <= n rho``. A weight is one of V(n
    rho) iff its dominant representative lies below ``n rho`` (saturation of
    weights, Humphreys, *Introduction to Lie algebras*, 21.3), and ``m rho +
    nu <= (m+n) rho`` for every such ``nu``; so for m >= n this is the
    ``translated`` set of :func:`klimyk`."""
    _check_order(m, n, "predicted_weights")
    return _predicted_and_rest(rs, m, n)[0]


class Certification(NamedTuple):
    """What :func:`certify_conjecture` found: the predicted set and the
    ``residue``, the predicted weights it left uncertified, both sorted, and
    a certificate ``(pairing, parts)`` per certified weight ``lam``:
    ``pairing`` is a permutation ``p`` of the nodes, ``parts[i]`` is a
    component of ``V(omega_i) (x) V(omega_p(i))``, and the parts sum to
    ``lam``."""

    predicted: list[Weight]
    certificates: dict[Weight, tuple[tuple[int, ...], tuple[Weight, ...]]]
    residue: list[Weight]


def certify_conjecture(rs: RootSystem, m: int, n: int, cache: CharCache | None = None) -> Certification:
    """Certify the predicted components of ``V(rho) (x) V(rho)`` (``m = n =
    1`` only) without its Klimyk pass.

    If ``V(a)`` is a component of ``V(l1) (x) V(m1)`` and ``V(b)`` one of
    ``V(l2) (x) V(m2)``, then ``V(a + b)`` is one of ``V(l1 + l2) (x) V(m1 +
    m2)`` (the tensor semigroup; S. Kumar, *Tensor product decomposition*,
    ICM 2010). As ``rho`` is the sum of the fundamental weights, a sum of
    components ``c_i`` of ``V(omega_i) (x) V(omega_p(i))``, one per node, over
    a permutation ``p`` is a component of ``V(rho) (x) V(rho)``. The
    components come from :func:`klimyk`, with ``cache`` passed through.

    Each predicted weight is searched for depth first, node by node, on
    weights packed as the descent packs them (:meth:`RootSystem.packing`),
    with a guard bit above each field: every component is dominant, so a
    part may be taken only while the remainder stays dominant, which is that
    no guard bit is borrowed. The packing is the one for ``<2 rho,
    theta^vee>``, which the descent of ``D(2 rho)`` builds and checks every
    predicted weight against; a part lies below ``omega_i + omega_j``, so
    below that bound too, and a remainder less a part fits its fields. The
    last node's part is one lookup. A ``(remainder, used nodes)`` state that
    completes to no sum is dead for every target and is remembered as such.
    The search returns its path, the ``(p(k), c_k)`` of the nodes it
    completes, or ``None``.

    The dominant weights below ``2 rho`` outside the predicted set are
    searched too (there were none on any type tried, E7 included). Every
    component lies in the predicted set, so a sum found for one of them, or
    a certificate whose parts do not add up to its weight, raises
    :class:`InvariantError`."""
    if (m, n) != (1, 1):
        raise AlgebraError(f"certify_conjecture covers m = n = 1 only, got m={m}, n={n}")
    predicted, rest = _predicted_and_rest(rs, 1, 1)
    packing = rs.packing(2 * sum(rs.dual_marks))
    place, guard = packing.place, packing.guard
    rank = rs.rank
    omega = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    steps: list[list] = [[None] * rank for _ in range(rank)]  # (code, part), the larger parts first
    for i in range(rank):
        for j in range(i, rank):
            comps = sorted(klimyk(rs, omega[i], omega[j], cache).components, key=rs.height, reverse=True)
            steps[i][j] = steps[j][i] = [(sum(map(mul, c, place)), c) for c in comps]
    last = [{code | guard: c for code, c in steps[rank - 1][j]} for j in range(rank)]
    full = (1 << rank) - 1
    dead: set[int] = set()  # remainder << rank | used nodes

    def search(i: int, used: int, rem: int) -> tuple[tuple[int, Weight], ...] | None:
        if i == rank - 1:
            j = (full ^ used).bit_length() - 1
            c = last[j].get(rem)
            return None if c is None else ((j, c),)
        key = rem << rank | used
        if key in dead:
            return None
        for j in range(rank):
            if not used >> j & 1:
                for code, c in steps[i][j]:
                    x = rem - code
                    if x & guard == guard:
                        tail = search(i + 1, used | 1 << j, x)
                        if tail is not None:
                            return ((j, c), *tail)
        dead.add(key)
        return None

    for lam in rest:
        found = search(0, 0, sum(map(mul, lam, place)) | guard)
        if found is not None:
            raise InvariantError(
                f"{rs.algebra}: {lam} is a sum over the pairing {tuple(j for j, _ in found)}, so a component "
                f"of rho (x) rho, but lies outside the predicted set"
            )
    certificates = {}
    residue = []
    for lam in predicted:
        found = search(0, 0, sum(map(mul, lam, place)) | guard)
        if found is not None:
            pairing, pieces = zip(*found)
            total = tuple(map(sum, zip(*pieces)))
            if total != lam:
                raise InvariantError(f"{rs.algebra}: the certificate of {lam}, pairing {pairing}, sums to {total}")
            certificates[lam] = (pairing, pieces)
        else:
            residue.append(lam)
    return Certification(predicted, certificates, residue)


def _certify_first(rs: RootSystem) -> bool:
    """Whether :func:`verify_conjecture` gives ``V(rho) (x) V(rho)`` to
    :func:`certify_conjecture` before any pass: on a type with at least 15
    positive roots, other than type B and ``C_r`` with ``r >= 6``. Measured
    cold, the certificates cost less than the pass from A5 and C4 up (D4 is
    even), and every ``B_r`` from B4 on and ``C_r`` from C6 on leaves a
    residue (C6 two weights, C7 nine), after which the pass runs as well.
    O(1), so no other case pays for the test."""
    family = rs.algebra.family
    return len(rs.positive_roots) >= 15 and family != "B" and not (family == "C" and rs.rank >= 6)


def verify_conjecture(rs: RootSystem, m: int, n: int, cache: CharCache | None = None) -> ConjectureReport:
    """Decompose V(m rho) (x) V(n rho) and compare support with prediction.

    ``V(rho) (x) V(rho)`` on a large type (:func:`_certify_first`) is first
    given to :func:`certify_conjecture`. With no residue, every predicted
    weight is a component, and the support lies in the predicted set (a
    theorem :func:`klimyk` asserts), so the report is the one the pass would
    give, and no pass runs. Every other case, and one with a residue, is
    decided by the Klimyk pass."""
    _check_order(m, n, "conjecture")
    if m == n == 1 and _certify_first(rs):
        cert = certify_conjecture(rs, m, n, cache)
        if not cert.residue:
            return ConjectureReport(str(rs.algebra), m, n, cert.predicted, list(cert.predicted), [], HOLDS)
    dec = klimyk(rs, _rho_multiple(rs, m), _rho_multiple(rs, n), cache)
    predicted = sorted(dec.translated)
    present = sorted(dec.components)
    missing = sorted(dec.translated - dec.components.keys())
    verdict = HOLDS if not missing else FAILS
    return ConjectureReport(str(rs.algebra), m, n, predicted, present, missing, verdict)


@dataclass
class AffineConjectureReport:
    """Depth-limited verdict for one affine (algebra, m, n, depth) case.

    A ``predicted`` entry is ``{"weight", "depth", "beta_dominant"}``;
    ``present`` and ``missing`` split ``predicted`` by presence at shift zero,
    and ``unexpected`` lists the delta-maximal components ``{"weight",
    "depth"}`` outside it. The fields are the JSON document of ``conjecture``
    on affine types."""

    algebra: str
    m: int
    n: int
    depth: int
    verdict: str
    predicted: list[dict]
    present: list[dict]
    missing: list[dict]
    unexpected: list[dict]


def verify_affine_conjecture(rs: RootSystem, m: int, n: int, depth: int) -> AffineConjectureReport:
    """Decompose V(m rho) (x) V(n rho), m >= n >= 1, within ``depth`` and
    compare it with the components predicted from the delta-maximal weights
    of V(n rho)."""
    _require_affine(rs)
    if n < 1:
        raise AlgebraError(f"conjecture on an affine type requires n >= 1, got n={n}")
    if m < n:
        raise AlgebraError(f"conjecture on an affine type requires m >= n >= 1, got m={m}, n={n}")
    nh = n * rs.dual_coxeter
    predicted = []
    for lam, beta, beta_dom, d in predicted_components(rs, m, n, depth):
        dominant = beta == beta_dom and theta_pairing(rs, beta_dom) <= nh
        predicted.append({"weight": lam, "depth": d, "beta_dominant": dominant})
    predicted.sort(key=lambda e: (e["depth"], e["weight"]))
    rho = affine_rho(rs)
    dec = truncated_tensor(rs, m * rho, n * rho, depth)
    keys = {(e["weight"], e["depth"]) for e in predicted}
    return AffineConjectureReport(
        str(rs.algebra), m, n, depth, DEPTH_LIMITED, predicted,
        present=[e for e in predicted if (e["weight"], e["depth"]) in dec.components],
        missing=[e for e in predicted if (e["weight"], e["depth"]) not in dec.components],
        unexpected=[{"weight": w, "depth": d} for w, d in dec.delta_max_components() if (w, d) not in keys],
    )


def naive_condition_scan(rs: RootSystem, m: int, n: int, cache: CharCache | None = None) -> list[Weight]:
    """Dominant lam <= (m+n) rho that are *not* components of
    V(m rho) (x) V(n rho), lexicographically sorted."""
    _check_order(m, n, "naive_condition_scan")
    rs._require_finite()
    support = klimyk(rs, _rho_multiple(rs, m), _rho_multiple(rs, n), cache).support()
    below = dominant_weights_below(rs, _rho_multiple(rs, m + n))
    return sorted(lam for lam in below if lam not in support)


@dataclass
class SupportContainmentReport:
    holds: bool
    witnesses: list[Weight] = field(default_factory=list)


def support_containment_check(
    rs: RootSystem, m: int, n: int, cache: CharCache | None = None
) -> SupportContainmentReport:
    """supp V(m rho)(x)V(n rho) vs supp V((m-1) rho)(x)V((n+1) rho)."""
    if m <= n or n < 0:
        raise AlgebraError(f"support_containment_check requires m > n >= 0, got m={m}, n={n}")
    sup_a = klimyk(rs, _rho_multiple(rs, m), _rho_multiple(rs, n), cache).support()
    sup_b = klimyk(rs, _rho_multiple(rs, m - 1), _rho_multiple(rs, n + 1), cache).support()
    witnesses = sorted(sup_a - sup_b)
    return SupportContainmentReport(holds=not witnesses, witnesses=witnesses)


def scan_all(
    types: list[AlgebraId | str],
    max_sum: int,
    cache: CharCache | None = None,
) -> list[ConjectureReport]:
    """verify_conjecture for every listed type and every m >= n >= 0 with
    m + n <= max_sum, each type's root system built once. Per-case failures
    are recorded, never raised."""
    if max_sum < 0:
        raise AlgebraError(f"max_sum must be non-negative, got {max_sum}")
    cases = []
    for t in types:
        aid = AlgebraId.parse(t) if isinstance(t, str) else t
        if aid.affine:
            raise AlgebraError(f"scan_all covers finite types only, got {aid}")
        for total in range(max_sum + 1):
            for n in range(total // 2 + 1):
                cases.append((aid, total - n, n))

    reports = []
    systems: dict[AlgebraId, RootSystem] = {}
    for aid, m, n in cases:
        try:
            rs = systems.get(aid)
            if rs is None:
                rs = systems[aid] = build_root_system(aid)
            reports.append(verify_conjecture(rs, m, n, cache))
        except Exception as exc:  # recorded, not raised
            reports.append(ConjectureReport(str(aid), m, n, [], [], [], ERROR, error=str(exc)))
    reports.sort(key=lambda r: (r.algebra, r.m + r.n, r.m, r.n))
    return reports
