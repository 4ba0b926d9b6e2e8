"""Exact weight multiplicities of finite-type irreducibles via Freudenthal's
recursion, with an in-memory memo and an optional persistent cache. The
recursion kernel also computes the delta-truncated affine characters of
:mod:`rho_tensor.affine`, and the memo holds those tables too.

Character tables store dominant representatives only; orbit expansion happens
on demand. One routine, :func:`freudenthal_candidates`, lists the weights a
finite or affine table runs, by decreasing dominance (increasing height of
``lam - mu``), so every multiplicity the recursion references is already
known; weights in the same height layer are independent of one another and
may be evaluated in any order.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from operator import add, floordiv, mul, sub
from pathlib import Path

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

    def multiplicity(self, rs: RootSystem, beta: Weight) -> int:
        """Weight multiplicity at ``beta``; Weyl-invariant by reflection."""
        return self.mults.get(rs.to_dominant(beta)[0], 0)

    def full_weights(self, rs: RootSystem) -> dict[Weight, int]:
        """Orbit-expand the dominant table to all weights."""
        return expand_orbits(rs, self.mults)

    def dimension(self, rs: RootSystem) -> int:
        """``sum mult * |W mu|``, one memoised orbit size per zero pattern of ``mu``."""
        orbit_size = rs.orbit_size
        return sum(m * orbit_size(tuple(map(bool, mu))) for mu, m in self.mults.items())


def expand_orbits(rs: RootSystem, table: dict[Weight, int]) -> dict[Weight, int]:
    """Orbit-expand a table of dominant weights to all weights, each Weyl
    orbit (of the finite Weyl group) carrying its representative's value."""
    out: dict[Weight, int] = {}
    for mu, m in table.items():
        for w in weyl_orbit(rs, mu):
            out[w] = m
    return out


def dominant_weights_below(rs: RootSystem, lam: Weight) -> list[Weight]:
    """All dominant mu with lam - mu a non-negative integer combination of
    simple roots, in lexicographic order; for an affine ``rs``, those of its
    finite part. A descent subtracting positive roots and keeping only
    dominant results reaches every one: in the dominance order on dominant
    weights each cover differs by a positive root (Stembridge, *The partial
    order of dominant weights*, Adv. Math. 1998).

    The walk runs on packed weights (:meth:`RootSystem.packing`): every
    coordinate of a dominant ``mu <= lam`` is at most ``<mu, theta^vee> <=
    <lam, theta^vee>``, since ``theta^vee`` is a dominant coweight with every
    dual mark ``>= 1``; so fields of the packing for that bound hold every
    such ``mu`` and each ``mu`` less a root. A root test is then one
    subtraction and one mask (:class:`WeightPacking`). Packed weights compare
    as their tuples do, so one sort of the packed set gives the lexicographic
    order, and the weights are unpacked once, at the end.

    The walk keeps to packed weights below ``2**(rank*(width+1))`` with every
    guard bit set, a finite box, so it always ends. It raises
    ``InvariantError`` unless ``lam`` packs and unpacks to itself and every
    coordinate is at most ``<lam, theta^vee>`` and at most ``2**width - 1 +
    least`` (:attr:`RootSystem.least_root_coord`). A step can carry out of
    its field, which clears that field's guard bit and drops a weight, only
    from a coordinate above the latter; so the check catches a packing too
    narrow for its bound, and a root code that climbs above ``lam``, instead
    of returning a short or a wrong list."""
    if not rs.is_dominant(lam):
        raise AlgebraError(f"dominant_weights_below requires a dominant weight, got {lam}")
    bound = sum(map(mul, rs.dual_marks, lam))
    width, place, shifts, guard, codes = rs.packing(bound)
    box = place[0] << width + 1
    start = sum(map(mul, lam, place)) | guard
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for code in codes:
            y = x - code
            if y & guard == guard and y not in seen:
                if not 0 < y < box:
                    raise InvariantError(f"descent from {lam} left its packing at {y:#x} ({rs.algebra})")
                seen.add(y)
                stack.append(y)
    field = (1 << width) - 1
    first = tuple([start >> s & field for s in shifts])
    below = [tuple([x >> s & field for s in shifts]) for x in sorted(seen)]
    top = max(map(max, below))
    if first != lam or top > min(bound, field + rs.least_root_coord):
        raise InvariantError(
            f"descent from {lam} ({rs.algebra}) unpacked its start to {first}, with a coordinate "
            f"{top} above <lam, theta^vee> = {bound} or beyond its {width}-bit fields"
        )
    return below


def freudenthal_candidates(
    rs: RootSystem, lam: Weight, depth: int, start: int
) -> list[tuple[int, Weight, RootVector]]:
    """The ``(d, mu, gamma)`` below the highest weight ``lam`` at the depths
    ``start..depth``, in increasing height ``d + sum(gamma) + d*sum(marks)``
    (the highest weight left out): dominant ``mu`` with ``gamma = lam - mu`` in
    simple roots and ``gamma >= -d*marks``.

    These are the dominant weights below ``lam + depth*theta``: ``mu`` is a
    candidate at every depth ``d`` with ``-min_i gamma_i // marks_i <= d <=
    depth``. A finite table is the one at depth 0."""
    marks = rs.marks
    step = 1 + sum(marks)
    top = tuple(a + depth * t for a, t in zip(lam, rs.positive_roots_fund[-1]))
    todo = []
    for mu in dominant_weights_below(rs, top):
        gamma = floor_root_coords(rs, tuple(map(sub, lam, mu)))
        low = sum(gamma)
        for d in range(max(start, -min(map(floordiv, gamma, marks))), depth + 1):
            height = low + d * step
            if height:
                todo.append((height, d, mu, gamma))
    todo.sort()
    return [t[1:] for t in todo]


def freudenthal_slices(
    rs: RootSystem,
    lam: Weight,
    depth: int,
    lvl: int,
    known: tuple[dict[Weight, int], ...] = (),
) -> list[dict[Weight, int]]:
    """Freudenthal's recursion over the root strings of a highest weight.

    ``lam`` is the (classical part of the) highest weight, ``lvl`` its level.
    Returns the multiplicity table of each depth ``0..depth``. The recursion
    runs over the candidates ``(d, mu, gamma)`` of
    :func:`freudenthal_candidates`, each the dominant weight ``mu - d*delta``
    with ``lam - mu = sum gamma_i alpha_i``, in increasing height, so every
    multiplicity a candidate references is already known.

    ``known`` holds the slices of a shallower run for the same ``lam`` and
    ``lvl``; they are returned as they are (read, never written), and only the
    candidates deeper than them run. Slice ``d`` reads only slices ``0..d``,
    so it is the same whatever the depth it is computed to.

    Real roots ``alpha + k*delta`` have multiplicity one (``k = 0`` for positive
    ``alpha`` only), imaginary roots ``k*delta`` multiplicity rank. At depth 0
    only ``k = 0`` enters and the level term of the denominator vanishes, so a
    finite character is the depth-0 call with level 0. The denominator is
    ``(lam+rho|lam+rho) - (mu+rho|mu+rho) + 2d(lvl + h^vee)``, its finite part
    read off ``gamma`` in O(rank) as ``sum_i gamma_i d_i (lam_i + mu_i + 2)``
    (:meth:`RootSystem.rho_norm_gap`).

    The real-root strings are summed over orbits of the stabiliser ``W_J`` of
    ``mu``, the parabolic subgroup on its zero coordinates ``J`` (Moody and
    Patera, *Fast recursion formula for weight multiplicities*, Bull. AMS
    1982). For ``w`` in ``W_J`` the string of ``w alpha + k*delta`` is ``w``
    applied to that of ``alpha + k*delta``: ``w`` fixes ``mu`` and ``delta``,
    multiplicities are ``W``-invariant and the form is, so both strings add
    the same. At ``k >= 1`` the roots are grouped by ``W_J``-orbits of all of
    ``Phi``. At ``k = 0`` only positive roots enter; ``W_J`` permutes those
    off ``Phi_J``, and for ``alpha`` in ``Phi_J`` the strings of ``alpha`` and
    ``-alpha`` add the same, as ``s_alpha`` fixes ``mu``; so the positive
    roots are grouped by orbits modulo sign. One string per orbit is walked,
    from the orbit's ``J``-dominant root, and counted times the orbit's length
    (see :meth:`RootSystem.root_orbits`).

    Only the candidates at depth 0 or in the affine chamber (``<mu, theta^vee>
    <= lvl``) run the recursion. Any other is read off its alcove point
    (:meth:`RootSystem.alcove_point`, one walk per point and level, shared
    by every table read through ``rs``): by affine Weyl invariance (Kac,
    *Infinite-dimensional Lie algebras*, Prop. 10.1) its multiplicity is that
    of the point, which is shallower and so already known, or 0 if the point
    lies above the top. Every candidate that runs the recursion is then a
    dominant weight below the top, hence a weight (Kac, §12.6): a recursion
    that finds it multiplicity 0 is an internal failure, as are a denominator
    ``<= 0`` and a quotient that is not a non-negative integer. Each value is
    stored in candidate order, so the slice dicts keep that order.
    """
    rank = rs.rank
    marks = rs.marks
    scale = rs.form_scale
    to_dominant = rs.to_dominant
    norm_gap = rs.rho_norm_gap
    orbit_strings, alcove_point = rs.orbit_strings, rs.alcove_point
    strings_of: dict[tuple[bool, ...], list[list[tuple]]] = {}
    lvl_scaled = lvl * scale
    shift_scaled = 2 * (lvl + rs.dual_coxeter) * scale

    slices: list[dict[Weight, int]] = list(known) or [{lam: 1}]
    slices += [{} for _ in range(len(slices), depth + 1)]
    # an affine table looks up the same finite weight nu many times (620
    # distinct weights, summed over its tables, for 9,901 lookups in one
    # repeat of the affine_products workload at seed 3), so it reflects each
    # nu once; a finite table repeats less (E7 V(rho): 39,621 for 76,821),
    # and there a dict would cost memory without saving time
    dominant_of: dict[Weight, Weight] | None = {} if depth else None
    dual_marks = rs.dual_marks
    for d, mu, gamma in freudenthal_candidates(rs, lam, depth, len(known)):
        if d and sum(map(mul, dual_marks, mu)) > lvl:
            # off the affine chamber: the multiplicity is that of its alcove point,
            # shallower (above the top if e < 0), so already known
            nu, e, _ = alcove_point(mu, d, lvl)
            m = slices[e].get(nu, 0) if e >= 0 else 0
            if m:
                slices[d][mu] = m
            continue
        nonzero = tuple(map(bool, mu))
        strings = strings_of.get(nonzero)
        if strings is None:
            strings = strings_of[nonzero] = [orbit_strings(nonzero, k) for k in range(depth + 1)]
        room = (d,) + tuple(g + d * a for g, a in zip(gamma, marks))
        total = sum(room)
        num = 0
        for k in range(d + 1):
            for fund, form_rc, s_aa, supp, length in strings[k]:
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
                string = 0
                for j in range(1, jmax + 1):
                    nu = tuple(map(add, nu, fund))
                    if dominant_of is None:
                        dom = nu if min(nu) >= 0 else to_dominant(nu)[0]
                    else:
                        dom = dominant_of.get(nu)
                        if dom is None:
                            dom = dominant_of[nu] = to_dominant(nu)[0]
                    m = slices[d - k * j].get(dom, 0)
                    if m:
                        string += m * (base + j * s_aa)
                num += length * string
        for k in range(1, d + 1):
            for j in range(1, d // k + 1):
                m = slices[d - k * j].get(mu, 0)
                if m:
                    num += rank * m * k * lvl_scaled
        num *= 2
        if not num:
            raise InvariantError(
                f"Freudenthal recursion found multiplicity 0 at mu={mu}, depth {d} for highest "
                f"weight {lam} ({rs.algebra}), but a dominant weight below the top is a weight"
            )
        denom = norm_gap(lam, mu, gamma) + d * shift_scaled
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
    mults = None if cache is None else cache.load(rs, lam)
    if mults is None:
        mults = freudenthal_slices(rs, lam, 0, 0)[0]
        dim = DominantCharacter(str(rs.algebra), lam, mults).dimension(rs)
        if dim != rs.weyl_dimension(lam):
            raise InvariantError(
                f"Freudenthal table of {lam} ({rs.algebra}) has dimension {dim}, "
                f"but the Weyl dimension is {rs.weyl_dimension(lam)}"
            )
        if cache is not None:
            cache.store(rs, lam, mults)
    char = DominantCharacter(str(rs.algebra), lam, mults)
    with _memo_lock:
        _memo[key] = char
    return char


def clear_memory_cache() -> None:
    """Drop every memoised table, finite and affine: the one process-wide
    memo. The root data, orbit sizes and alcove points are memoised on each
    :class:`RootSystem` and live as long as it does."""
    with _memo_lock:
        _memo.clear()


class CharCache:
    """Content-addressed on-disk store of dominant character tables.

    One plain-text file per (algebra, highest weight) with a versioned
    header and sorted ``c1,...,cr:mult`` lines; writes are atomic so
    concurrent readers never observe a partial table. The write lock is per
    instance: concurrent writers are kept apart by the temporary file named by
    process and thread id, moved into place by ``os.replace``. ``load``
    treats a file as a miss unless it parses, has multiplicity 1 at the
    highest weight ``lam``, and its multiplicities ``m_mu`` pass two identities over the orbit
    sizes ``|W mu|``: ``sum m_mu |W mu| = dim V(lam)`` (Weyl), and ``dim g *
    sum m_mu |W mu| (mu|mu) = rank * dim V(lam) * (lam|lam + 2 rho)``, the
    trace of the Casimir element over the Cartan subalgebra, summed in
    ``form_scale`` integers. Neither notices multiplicities swapped between
    two weights of one orbit size and norm (A2 ``(2,5)``: ``(1,4)`` and
    ``(4,1)``). No disk cache is ``cache=None``, not an instance.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR) or Path.home() / ".cache" / "rho-tensor"
        self.root = Path(root)
        self._write_lock = threading.Lock()

    def _path(self, algebra: str, lam: Weight) -> Path:
        return self.root / f"{algebra}.{'_'.join(str(c) for c in lam)}.char"

    @contextmanager
    def _disk(self):  # a failed read or write: the cache directory is unusable
        try:
            yield
        except OSError as exc:
            raise AlgebraError(f"cache directory {self.root} is unusable: {exc}") from exc

    def load(self, rs: RootSystem, lam: Weight) -> dict[Weight, int] | None:
        path = self._path(str(rs.algebra), lam)
        with self._disk():
            if not path.is_file():
                return None
            lines = path.read_text(errors="replace").splitlines()
        expect = f"{_CACHE_FORMAT} {rs.algebra} {','.join(str(c) for c in lam)}"
        if not lines or lines[0] != expect:
            return None
        rank = rs.rank
        table: dict[Weight, int] = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            coords, _, mult = line.partition(":")
            try:
                mu = tuple(map(int, coords.split(",")))
                m = int(mult)
            except ValueError:
                return None
            if len(mu) != rank or min(mu) < 0 or m < 1:
                return None  # malformed: a miss, recomputed and overwritten
            table[mu] = m
        if table.get(lam) != 1:
            return None
        # parses, but is a miss unless both identities of the class docstring hold
        dim = rs.weyl_dimension(lam)
        orbit_size = rs.orbit_size
        counts = [m * orbit_size(tuple(map(bool, mu))) for mu, m in table.items()]
        if sum(counts) != dim:
            return None
        # sum k_mu (mu|mu) with k_mu = m_mu |W mu|, as the sum over (i, j) of
        # form_ww[i][j] sum k_mu mu_i mu_j: rank**2 sums, each over every weight
        columns = list(zip(*table))
        weighted = [list(map(mul, counts, col)) for col in columns]
        norms = sum(g * sum(map(mul, w, col)) for row, w in zip(rs.form_ww, weighted) for g, col in zip(row, columns))
        if rs.dim_adjoint * norms != rank * dim * rs.sip_ww(lam, tuple(x + 2 for x in lam)):
            return None
        return table

    def store(self, rs: RootSystem, lam: Weight, table: dict[Weight, int]) -> None:
        path = self._path(str(rs.algebra), lam)
        body = [f"{_CACHE_FORMAT} {rs.algebra} {','.join(str(c) for c in lam)}"]
        for mu in sorted(table):
            body.append(f"{','.join(str(c) for c in mu)}:{table[mu]}")
        with self._write_lock, self._disk():
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}.{threading.get_ident()}")
            tmp.write_text("\n".join(body) + "\n")
            os.replace(tmp, path)

    def ensure(self, rs: RootSystem, lam: Weight, table: dict[Weight, int]) -> None:
        """Persist the table if it is not on disk yet (memo-hit path)."""
        if not self._path(str(rs.algebra), lam).is_file():
            self.store(rs, lam, table)

    def _tables(self) -> list[Path]:
        """The table files, by name; none while the directory does not exist."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return [self.root / name for name in sorted(names) if name.endswith(".char")]

    def stat(self) -> list[tuple[str, int]]:
        with self._disk():
            return [(p.name, p.stat().st_size) for p in self._tables()]

    def clear(self) -> int:
        with self._disk():
            tables = self._tables()
            for p in tables:
                p.unlink()
        return len(tables)


def default_cache() -> CharCache:
    return CharCache()
