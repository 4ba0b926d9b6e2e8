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

On a large enough type, a diagonal case ``V(n rho) (x) V(n rho)`` is
verified by :func:`certify_conjecture` instead of a pass: at ``n = 1`` a
predicted weight is a sum of components of the products ``V(omega_i) (x)
V(omega_p(i))`` over a permutation ``p`` of the nodes, at ``n >= 2`` a sum
of ``n`` components of ``V(rho) (x) V(rho)``, hence a component itself (the
tensor semigroup). A case with every predicted weight certified HOLDS; any
other goes to the pass, so a FAILS verdict still comes only from a pass.

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
    for lam in dominant_weights_below(rs, _rho_multiple(rs, m + n)):
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
    ``residue``, the predicted weights it left uncertified, both in
    lexicographic order, and a certificate ``(pairing, parts)`` per
    certified weight ``lam``, whose parts sum to ``lam``. At ``n = 1``,
    ``pairing`` is a permutation ``p`` of the nodes and ``parts[i]`` a
    component of ``V(omega_i) (x) V(omega_p(i))``; at ``n >= 2``,
    ``pairing`` is empty and the ``n`` parts are components of ``V(rho) (x)
    V(rho)``."""

    predicted: list[Weight]
    certificates: dict[Weight, tuple[tuple[int, ...], tuple[Weight, ...]]]
    residue: list[Weight]


def certify_conjecture(rs: RootSystem, n: int, cache: CharCache | None = None) -> Certification:
    """Certify the predicted components of ``V(n rho) (x) V(n rho)``, ``n >=
    1``, without its Klimyk pass.

    If ``V(a)`` is a component of ``V(l1) (x) V(m1)`` and ``V(b)`` one of
    ``V(l2) (x) V(m2)``, then ``V(a + b)`` is one of ``V(l1 + l2) (x) V(m1 +
    m2)`` (the tensor semigroup; S. Kumar, *Tensor product decomposition*,
    ICM 2010). As ``rho`` is the sum of the fundamental weights, a sum of
    components ``c_i`` of ``V(omega_i) (x) V(omega_p(i))``, one per node, over
    a permutation ``p`` is a component of ``V(rho) (x) V(rho)``; and a sum of
    ``n`` components of ``V(rho) (x) V(rho)`` is one of ``V(n rho) (x) V(n
    rho)``. The fundamental components come from :func:`klimyk`, and those
    of ``V(rho) (x) V(rho)`` from :func:`verify_conjecture` at ``1 1`` (by
    certificates or by the pass), with ``cache`` passed through.

    Each predicted weight is searched for depth first, part by part, on
    weights packed as the descent packs them (:meth:`RootSystem.packing`),
    with a guard bit above each field: every component is dominant, so a
    part may be taken only while the remainder stays dominant, which is that
    no guard bit is borrowed. The packing is the one for ``<2n rho,
    theta^vee>``, which the descent of ``D(2n rho)`` builds and checks every
    predicted weight against; a part lies below ``2 rho``, so below that
    bound too, and a remainder less a part fits its fields. A state gives
    the moves open at a depth, tried largest first, and a dict of the parts
    that can end a sum, so the last part is one lookup. At ``n = 1`` the
    state is the set of nodes used: node ``i`` takes a part of ``omega_i
    (x) omega_j`` for a ``j`` not yet used. At ``n >= 2`` there is one
    state, every part a move at every depth, in any order. A ``(remainder,
    state)`` at a depth that completes to no sum is dead for every target
    and is remembered as such, so each is searched once however many orders
    of parts reach it. The search returns its path, the ``(label, part)`` of
    the parts it completes, or ``None``.

    The dominant weights below ``2n rho`` outside the predicted set are
    searched too (there were none on any type tried, E7 included). Every
    component lies in the predicted set, so a sum found for one of them, or
    a certificate whose parts do not add up to its weight, raises
    :class:`InvariantError`."""
    if n < 1:
        raise AlgebraError(f"certify_conjecture covers n >= 1 only, got n={n}")
    predicted, rest = _predicted_and_rest(rs, n, n)
    packing = rs.packing(2 * n * sum(rs.dual_marks))
    place, guard = packing.place, packing.guard
    rank = rs.rank
    if n == 1:
        depth = rank
        omega = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
        steps: list[list] = [[None] * rank for _ in range(rank)]  # (code, part), the larger parts first
        for i in range(rank):
            for j in range(i, rank):
                comps = sorted(klimyk(rs, omega[i], omega[j], cache).components, key=rs.height, reverse=True)
                steps[i][j] = steps[j][i] = [(sum(map(mul, c, place)), c) for c in comps]
        # a state is the set of nodes used as p(0), ..., p(i - 1); a move
        # (code, part, j, next state) takes a part of omega_i (x) omega_j
        moves = [
            [(code, c, j, used | 1 << j)
             for j in range(rank) if not used >> j & 1 for code, c in steps[used.bit_count()][j]]
            for used in range(1 << rank)
        ]
        # the last node takes the one j left unused
        last = [{code | guard: (j, c) for code, c in steps[rank - 1][j]} for j in range(rank)]
        full = (1 << rank) - 1
        ends = [last[(full ^ used).bit_length() - 1] for used in range(1 << rank)]
    else:
        depth = n
        parts = sorted(verify_conjecture(rs, 1, 1, cache).present, key=rs.height, reverse=True)
        # one state, 0: every part is a move at every depth
        moves = [[(sum(map(mul, c, place)), c, t, 0) for t, c in enumerate(parts)]]
        ends = [{code | guard: (t, c) for code, c, t, _ in moves[0]}]
    sbits = len(moves).bit_length()
    dead: list[set[int]] = [set() for _ in range(depth)]  # per depth, remainder << sbits | state

    def search(i: int, state: int, rem: int) -> tuple[tuple[int, Weight], ...] | None:
        if i == depth - 1:
            found = ends[state].get(rem)
            return None if found is None else (found,)
        key = rem << sbits | state
        if key in dead[i]:
            return None
        for code, c, label, nxt in moves[state]:
            x = rem - code
            if x & guard == guard:
                tail = search(i + 1, nxt, x)
                if tail is not None:
                    return ((label, c), *tail)
        dead[i].add(key)
        return None

    for lam in rest:
        found = search(0, 0, sum(map(mul, lam, place)) | guard)
        if found is not None:
            factor = f"{n} rho" if n > 1 else "rho"
            raise InvariantError(
                f"{rs.algebra}: {lam} is the sum of {tuple(c for _, c in found)}, so a component of {factor} (x) "
                f"{factor}, but lies outside the predicted set"
            )
    certificates = {}
    residue = []
    for lam in predicted:
        found = search(0, 0, sum(map(mul, lam, place)) | guard)
        if found is not None:
            labels, pieces = zip(*found)
            pairing = labels if n == 1 else ()
            total = tuple(map(sum, zip(*pieces)))
            if total != lam:
                raise InvariantError(f"{rs.algebra}: the certificate {pairing} {pieces} of {lam} sums to {total}")
            certificates[lam] = (pairing, pieces)
        else:
            residue.append(lam)
    return Certification(predicted, certificates, residue)


def _certify_first(rs: RootSystem, n: int) -> bool:
    """Whether :func:`verify_conjecture` gives ``V(n rho) (x) V(n rho)`` to
    :func:`certify_conjecture` before any pass. At ``n >= 2``: on a type with
    at least 9 positive roots (B3, C3, A4, D4 and up); below that, the pass
    of the small ``V(n rho)`` costs less than the certificates, measured cold,
    and less again over a disk cache that holds its table. At ``n = 1``: on a
    type with at least 15 positive roots, other than type B and ``C_r`` with
    ``r >= 6``. Measured cold, the certificates cost less than the pass from
    A5 and C4 up (D4 is even), and every ``B_r`` from B4 on and ``C_r`` from
    C6 on leaves a residue (C6 two weights, C7 nine), after which the pass
    runs as well. O(1), so no other case pays for the test."""
    roots = len(rs.positive_roots)
    if n >= 2:
        return roots >= 9
    family = rs.algebra.family
    return roots >= 15 and family != "B" and not (family == "C" and rs.rank >= 6)


def verify_conjecture(rs: RootSystem, m: int, n: int, cache: CharCache | None = None) -> ConjectureReport:
    """Decompose V(m rho) (x) V(n rho) and compare support with prediction.

    A diagonal case ``n n`` on a large enough type (:func:`_certify_first`)
    is first given to :func:`certify_conjecture`: ``1 1`` as sums over
    fundamental pairings, ``n n`` for ``n >= 2`` as sums of ``n`` components
    of ``V(rho) (x) V(rho)``. With no residue, every predicted weight is a
    component, and the support lies in the predicted set (a theorem
    :func:`klimyk` asserts), so the report is the one the pass would give,
    and no pass of ``V(n rho) (x) V(n rho)`` runs. Every other case, and one
    with a residue, is decided by the Klimyk pass."""
    _check_order(m, n, "conjecture")
    if m == n >= 1 and _certify_first(rs, n):
        cert = certify_conjecture(rs, n, cache)
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
    return [lam for lam in dominant_weights_below(rs, _rho_multiple(rs, m + n)) if lam not in support]


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
