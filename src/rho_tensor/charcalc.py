"""Exact weight multiplicities of finite-type irreducibles via Freudenthal's
recursion, with an in-memory memo and an optional persistent cache. The
recursion kernel also computes the delta-truncated affine characters of
:mod:`rho_tensor.affine`, and the memo holds those tables too.

Character tables store dominant representatives only; orbit expansion happens
on demand. Within one run, weights are processed by decreasing dominance
(increasing height of ``lam - mu``), so every multiplicity the recursion
references is already known; weights in the same height layer are independent
of one another and may be evaluated in any order (or concurrently).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from operator import add, mul, sub
from pathlib import Path
from typing import Iterable

from .rootdata import (
    AlgebraError,
    InvariantError,
    RootSystem,
    RootVector,
    Weight,
    floor_root_coords,
    weyl_orbit,
)

CACHE_ENV_VAR = "RHO_TENSOR_CACHE"
_CACHE_FORMAT = "rho-tensor-char v1"

# finite tables keyed by (algebra, lam), affine ones by (algebra, fund)
_memo: dict[tuple[str, Weight], object] = {}
_memo_lock = threading.Lock()


@dataclass
class DominantCharacter:
    """Map from dominant weights of V(highest) to exact multiplicities."""

    algebra: str
    highest: Weight
    mults: dict[Weight, int]

    def contains(self, rs: RootSystem, beta: Weight) -> bool:
        """True iff ``beta`` (any Weyl chamber) is a weight of V(highest)."""
        return rs.to_dominant(beta)[0] in self.mults

    def multiplicity(self, rs: RootSystem, beta: Weight) -> int:
        """Weight multiplicity at ``beta``; Weyl-invariant by reflection."""
        return self.mults.get(rs.to_dominant(beta)[0], 0)

    def full_weights(self, rs: RootSystem) -> dict[Weight, int]:
        """Orbit-expand the dominant table to all weights."""
        return expand_orbits(rs, self.mults)

    def dimension(self, rs: RootSystem) -> int:
        return sum(m * len(rs.orbit(mu)) for mu, m in self.mults.items())


def expand_orbits(rs: RootSystem, table: dict[Weight, int]) -> dict[Weight, int]:
    """Orbit-expand a table of dominant weights to all weights, each Weyl
    orbit (of the finite Weyl group) carrying its representative's value."""
    out: dict[Weight, int] = {}
    for mu, m in table.items():
        for w in weyl_orbit(rs, mu):
            out[w] = m
    return out


def dominant_descent(rs: RootSystem, top: Weight) -> dict[Weight, RootVector]:
    """``{mu: simple-root coordinates of top - mu}`` over the dominant weights
    ``mu <= top`` of a dominant ``top``, by breadth-first descent subtracting
    positive roots and keeping only dominant results. This reaches every one:
    in the dominance order on dominant weights each cover differs by a positive
    root (Stembridge, *The partial order of dominant weights*, Adv. Math. 1998).
    """
    steps = list(zip(rs.positive_roots_fund, rs.positive_roots))
    seen = {top: (0,) * rs.rank}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            g = seen[mu]
            for fund, rc in steps:
                nu = tuple(map(sub, mu, fund))
                if min(nu) >= 0 and nu not in seen:
                    seen[nu] = tuple(map(add, g, rc))
                    nxt.append(nu)
        frontier = nxt
    return seen


def dominant_weights_below(rs: RootSystem, lam: Weight) -> list[Weight]:
    """All dominant mu with lam - mu a non-negative integer combination of
    simple roots, by increasing height of lam - mu (the positive-root descent
    of :func:`dominant_descent`)."""
    rs._require_finite()
    if not rs.is_dominant(lam):
        raise AlgebraError(f"dominant_weights_below requires a dominant weight, got {lam}")
    below = dominant_descent(rs, lam)
    return sorted(below, key=lambda mu: (sum(below[mu]), mu))


def freudenthal_slices(
    rs: RootSystem,
    lam: Weight,
    candidates: Iterable[tuple[int, Weight, RootVector]],
    depth: int,
    lvl: int,
) -> list[dict[Weight, int]]:
    """Freudenthal's recursion over the root strings of a highest weight.

    ``lam`` is the (classical part of the) highest weight, ``lvl`` its level.
    Each candidate ``(d, mu, gamma)`` names the dominant weight ``mu - d*delta``
    with ``lam - mu = sum gamma_i alpha_i``; the highest weight itself is not a
    candidate. Candidates must come in increasing height ``d + sum(gamma) +
    d*sum(marks)``, so every multiplicity a candidate references is already
    known. Returns the multiplicity table of each depth ``0..depth``.

    Real roots ``alpha + k*delta`` have multiplicity one (``k = 0`` for positive
    ``alpha`` only), imaginary roots ``k*delta`` multiplicity rank. At depth 0
    only ``k = 0`` enters and the level term of the denominator vanishes, so a
    finite character is the depth-0 call with level 0.
    """
    rank = rs.rank
    marks = rs.marks
    scale = rs.form_scale
    to_dominant = rs.to_dominant
    sip_ww = rs.sip_ww
    # (mu|alpha) is one dot product of mu with form_d * rc
    pos = []
    for rc, fund in zip(rs.positive_roots, rs.positive_roots_fund):
        form_rc = tuple(map(mul, rs.form_d, rc))
        pos.append((rc, fund, form_rc, sum(map(mul, fund, form_rc))))
    real = pos + [
        (tuple(-x for x in rc), tuple(-x for x in fund), tuple(-x for x in form_rc), s_aa)
        for rc, fund, form_rc, s_aa in pos
    ]
    # a real root alpha + k*delta over the affine simple roots alpha_0..alpha_r
    # is (k, rc + k*marks); its string through mu - d*delta stays in the
    # weights below lam while those coordinates fit into (d, gamma + d*marks)
    strings = []
    for k in range(depth + 1):
        strings.append([])
        for rc, fund, form_rc, s_aa in real if k else pos:
            coords = (k,) + tuple(r + k * a for r, a in zip(rc, marks))
            strings[k].append((fund, form_rc, s_aa, tuple((i, x) for i, x in enumerate(coords) if x > 0)))
    lam_rho = tuple(x + 1 for x in lam)
    top = sip_ww(lam_rho, lam_rho)
    lvl_scaled = lvl * scale
    shift_scaled = 2 * (lvl + rs.dual_coxeter) * scale

    slices: list[dict[Weight, int]] = [{} for _ in range(depth + 1)]
    slices[0][lam] = 1
    # an affine table looks up the same finite weight nu many times (19,909
    # distinct weights for 262,798 lookups over the affine_products workload
    # at seed 3), so it reflects each nu once; a finite table repeats less
    # (E7 V(rho): 230,076 for 361,243), and there a dict would cost memory
    # without saving time
    dominant_of: dict[Weight, Weight] | None = {} if depth else None
    for d, mu, gamma in candidates:
        room = (d,) + tuple(g + d * a for g, a in zip(gamma, marks))
        total = sum(room)
        num = 0
        for k in range(d + 1):
            for fund, form_rc, s_aa, supp in strings[k]:
                jmax = total  # bounds every room[i] // x
                for i, x in supp:
                    q = room[i] // x
                    if q < jmax:
                        jmax = q
                        if not q:
                            break
                if not jmax:
                    continue
                base = sum(map(mul, mu, form_rc)) + k * lvl_scaled
                nu = mu
                for j in range(1, jmax + 1):
                    nu = tuple(map(add, nu, fund))
                    if dominant_of is None:
                        dom = to_dominant(nu)[0]
                    else:
                        dom = dominant_of.get(nu)
                        if dom is None:
                            dom = dominant_of[nu] = to_dominant(nu)[0]
                    m = slices[d - k * j].get(dom, 0)
                    if m:
                        num += m * (base + j * s_aa)
        for k in range(1, d + 1):
            for j in range(1, d // k + 1):
                m = slices[d - k * j].get(mu, 0)
                if m:
                    num += rank * m * k * lvl_scaled
        num *= 2
        if not num and d:
            continue  # depth > 0: the candidate box holds non-weights, denominator unchecked
        mu_rho = tuple(x + 1 for x in mu)
        denom = top - sip_ww(mu_rho, mu_rho) + d * shift_scaled
        if denom <= 0:
            raise InvariantError(
                f"Freudenthal denominator {denom} <= 0 at mu={mu}, depth {d} "
                f"for highest weight {lam} ({rs.algebra})"
            )
        q, r = divmod(num, denom)
        if r != 0 or q < 0:
            raise InvariantError(
                f"Freudenthal recursion produced non-multiplicity {num}/{denom} "
                f"at mu={mu}, depth {d}, lam={lam}"
            )
        if q:
            slices[d][mu] = q
    return slices


def freudenthal(rs: RootSystem, lam: Weight, cache: "CharCache | None" = None) -> DominantCharacter:
    """Dominant character table of the finite-type irreducible V(lam)."""
    rs._require_finite()
    if not rs.is_dominant(lam):
        raise AlgebraError(f"freudenthal requires a dominant highest weight, got {lam}")
    key = (str(rs.algebra), lam)
    with _memo_lock:
        hit = _memo.get(key)
    if hit is not None:
        if cache is not None:
            cache.ensure(rs, lam, hit.mults)
        return hit
    char = None
    if cache is not None:
        stored = cache.load(rs, lam)
        if stored is not None:
            char = DominantCharacter(str(rs.algebra), lam, stored)
    if char is None:
        candidates = [
            (0, mu, floor_root_coords(rs, tuple(a - b for a, b in zip(lam, mu))))
            for mu in dominant_weights_below(rs, lam)[1:]
        ]
        char = DominantCharacter(str(rs.algebra), lam, freudenthal_slices(rs, lam, candidates, 0, 0)[0])
        if cache is not None:
            cache.store(rs, lam, char.mults)
    with _memo_lock:
        _memo[key] = char
    return char


def clear_memory_cache() -> None:
    """Drop every memoised table, finite and affine."""
    with _memo_lock:
        _memo.clear()


class CharCache:
    """Content-addressed on-disk store of dominant character tables.

    One plain-text file per (algebra, highest weight) with a versioned
    header and sorted ``c1,...,cr:mult`` lines; writes are atomic so
    concurrent readers never observe a partial table. The write lock is per
    instance: concurrent writers are kept apart by the temporary file named by
    process and thread id, moved into place by ``os.replace``. No disk cache
    is ``cache=None``, not an instance.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR) or Path.home() / ".cache" / "rho-tensor"
        self.root = Path(root)
        self._write_lock = threading.Lock()

    def _path(self, algebra: str, lam: Weight) -> Path:
        return self.root / f"{algebra}.{'_'.join(str(c) for c in lam)}.char"

    def load(self, rs: RootSystem, lam: Weight) -> dict[Weight, int] | None:
        path = self._path(str(rs.algebra), lam)
        if not path.is_file():
            return None
        lines = path.read_text(errors="replace").splitlines()
        expect = f"{_CACHE_FORMAT} {rs.algebra} {','.join(str(c) for c in lam)}"
        if not lines or lines[0] != expect:
            return None
        table: dict[Weight, int] = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            coords, _, mult = line.partition(":")
            try:
                mu = tuple(int(c) for c in coords.split(","))
                m = int(mult)
            except ValueError:
                return None
            if len(mu) != rs.rank or min(mu) < 0 or m < 1:
                return None  # malformed: a miss, recomputed and overwritten
            table[mu] = m
        if table.get(lam) != 1:
            return None
        return table

    def store(self, rs: RootSystem, lam: Weight, table: dict[Weight, int]) -> None:
        path = self._path(str(rs.algebra), lam)
        body = [f"{_CACHE_FORMAT} {rs.algebra} {','.join(str(c) for c in lam)}"]
        for mu in sorted(table):
            body.append(f"{','.join(str(c) for c in mu)}:{table[mu]}")
        with self._write_lock:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}.{threading.get_ident()}")
            tmp.write_text("\n".join(body) + "\n")
            os.replace(tmp, path)

    def ensure(self, rs: RootSystem, lam: Weight, table: dict[Weight, int]) -> None:
        """Persist the table if it is not on disk yet (memo-hit path)."""
        if not self._path(str(rs.algebra), lam).is_file():
            self.store(rs, lam, table)

    def stat(self) -> list[tuple[str, int]]:
        if not self.root.is_dir():
            return []
        return sorted((p.name, p.stat().st_size) for p in self.root.glob("*.char"))

    def clear(self) -> int:
        removed = 0
        if self.root.is_dir():
            for p in self.root.glob("*.char"):
                p.unlink()
                removed += 1
        return removed


def default_cache() -> CharCache:
    return CharCache()
