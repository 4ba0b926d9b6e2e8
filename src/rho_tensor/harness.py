"""Conjecture verification scans over V(m rho) (x) V(n rho).

The scans compare the actual dominant support of a decomposition against the
predicted set {m rho + beta : beta a weight of V(n rho)} intersected with the
dominant chamber. For m >= n, :func:`klimyk` takes m rho as its big factor,
and the predicted set is its ``translated`` set: the terms it adds without a
reflection. Support containment in that set is a theorem, which ``klimyk``
asserts on every product; set equality is the statement under test, so a
FAILS verdict is a reportable finding rather than an internal error.

On affine types, :func:`verify_affine_conjecture` predicts the components
from the delta-maximal weights of V(n rho) and looks for them within a
truncation depth, so its verdict is always DEPTH_LIMITED.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affine import _require_affine, affine_rho, predicted_components, theta_pairing, truncated_tensor
from .charcalc import CharCache, dominant_weights_below
from .rootdata import AlgebraError, AlgebraId, RootSystem, Weight, build_root_system
from .tensor import Decomposition, klimyk

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


def _predicted_product(rs: RootSystem, m: int, n: int, cache: CharCache | None, caller: str) -> Decomposition:
    """V(m rho) (x) V(n rho), whose ``translated`` set is the predicted set:
    for m >= n, Klimyk's big factor is m rho (ties go to ``lam``). ``caller``
    names the operation in the error for other ``m``, ``n``."""
    if m < n or n < 0:
        raise AlgebraError(f"{caller} requires m >= n >= 0, got m={m}, n={n}")
    return klimyk(rs, _rho_multiple(rs, m), _rho_multiple(rs, n), cache)


def predicted_weights(rs: RootSystem, m: int, n: int, cache: CharCache | None = None) -> list[Weight]:
    """All dominant lam whose translate lam - m rho is a weight of V(n rho),
    in lexicographic order."""
    return sorted(_predicted_product(rs, m, n, cache, "predicted_weights").translated)


def verify_conjecture(rs: RootSystem, m: int, n: int, cache: CharCache | None = None) -> ConjectureReport:
    """Decompose V(m rho) (x) V(n rho) and compare support with prediction."""
    dec = _predicted_product(rs, m, n, cache, "conjecture")
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
    if m < n or n < 0:
        raise AlgebraError(f"naive_condition_scan requires m >= n >= 0, got m={m}, n={n}")
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
