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
from functools import cached_property
from itertools import compress
from operator import add, floordiv, mul, sub
from pathlib import Path

from .rootdata import (
    AlgebraError,
    AlgebraId,
    InvariantError,
    RootSystem,
    RootVector,
    Weight,
    floor_root_coords,
    weyl_orbit,
    weyl_orbit_size,
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
        orbit_size = root_strings(rs).orbit_size
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
    simple roots, by increasing height of lam - mu; for an affine ``rs``, those
    of its finite part. A breadth-first descent subtracting positive roots and
    keeping only dominant results reaches every one: in the dominance order on
    dominant weights each cover differs by a positive root (Stembridge, *The
    partial order of dominant weights*, Adv. Math. 1998).

    A root ``alpha`` is subtracted only when ``mu - alpha`` is dominant, tested
    before the weight is built: with ``supp`` the pairs ``(i, a_i)`` of the
    positive fundamental coordinates of ``alpha`` (:attr:`RootStrings.descent`),
    the test is ``mu_i >= a_i`` on ``supp``. It is exact, because ``(mu -
    alpha)_i = mu_i - a_i`` is at least ``mu_i >= 0`` wherever ``a_i <= 0``.
    Each weight admitted is checked to be dominant all the same, so a faulty
    test raises ``InvariantError`` instead of descending without end."""
    if not rs.is_dominant(lam):
        raise AlgebraError(f"dominant_weights_below requires a dominant weight, got {lam}")
    steps = root_strings(rs).descent
    height = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            h = height[mu]
            for fund, ht, supp in steps:
                for i, a in supp:
                    if mu[i] < a:
                        break
                else:
                    nu = tuple(map(sub, mu, fund))
                    if nu not in height:
                        if min(nu) < 0:
                            raise InvariantError(f"descent from {lam} admitted the non-dominant {nu} ({rs.algebra})")
                        height[nu] = h + ht
                        nxt.append(nu)
        frontier = nxt
    return sorted(height, key=lambda mu: (height[mu], mu))


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


class RootStrings:
    """The real-root strings :func:`freudenthal_slices` walks, for one
    algebra, grouped by the stabilisers of dominant weights, each table
    memoised. A dominant ``mu`` is fixed by the parabolic subgroup ``W_J`` on
    its zero coordinates ``J`` and by nothing else of ``W``; the tables are
    keyed by ``tuple(map(bool, mu))``. Roots are indexed as
    ``rs.positive_roots`` followed by their negatives. The alcove points of
    the affine candidates off the chamber are memoised here too, and
    ``descent``, built on first use, holds ``(fund, height, supp)`` per
    positive root for :func:`dominant_weights_below`, ``supp`` the pairs
    ``(i, a_i)`` with ``a_i > 0`` of its fundamental coordinates ``fund``."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._every: dict[int, list[tuple]] = {}
        self._orbits: dict[tuple[tuple[bool, ...], int], list[tuple]] = {}
        self._sizes: dict[tuple[bool, ...], int] = {}
        self._alcove: dict[tuple[Weight, int], tuple[Weight, int, int]] = {}

    @cached_property
    def descent(self) -> list[tuple]:
        rs = self.rs
        return [
            (fund, sum(rc), tuple((i, a) for i, a in enumerate(fund) if a > 0))
            for fund, rc in zip(rs.positive_roots_fund, rs.positive_roots)
        ]

    @cached_property
    def codes(self) -> tuple[list[int], list[tuple[int, int]]]:
        """``(fields, codes)`` for :meth:`root_orbits`: per positive root, its
        simple-root coordinates packed ``width`` bits each (``fields[i]``
        masks coordinate ``i``) above a bit set for a short root, and the
        least node of its support."""
        rs = self.rs
        width = max(map(max, rs.positive_roots)).bit_length()
        long = self.every(0)[-1][2]  # (theta|theta): the highest root is long
        codes = [
            (sum(c << (1 + width * i) for i, c in enumerate(rc)) | (s_aa < long), next(compress(range(rs.rank), rc)))
            for rc, (_, _, s_aa, _) in zip(rs.positive_roots, self.every(0))
        ]
        return [((1 << width) - 1) << (1 + width * i) for i in range(rs.rank)], codes

    def every(self, k: int) -> list[tuple]:
        """``(fund, form_rc, s_aa, supp)`` per root ``alpha``, for ``alpha +
        k*delta`` (the positive roots only at ``k = 0``). ``(mu|alpha)`` is
        one dot product of ``mu`` with ``form_rc``, and ``s_aa`` is
        ``(alpha|alpha)``, both scaled by ``form_scale``. Over the affine
        simple roots ``alpha_0..alpha_r`` the root is ``(k, rc + k*marks)``,
        and ``supp`` lists its nonzero coordinates: its string through ``mu -
        d*delta`` stays below the top while these fit into ``(d, gamma +
        d*marks)``."""
        strings = self._every.get(k)
        if strings is None:
            rs = self.rs
            roots = list(zip(rs.positive_roots, rs.positive_roots_fund))
            if k:
                roots += [(tuple(-x for x in rc), tuple(-x for x in fund)) for rc, fund in roots]
            strings = self._every[k] = []
            for rc, fund in roots:
                form_rc = tuple(map(mul, rs.form_d, rc))
                coords = (k,) + tuple(r + k * a for r, a in zip(rc, rs.marks))
                supp = tuple((i, x) for i, x in enumerate(coords) if x > 0)
                strings.append((fund, form_rc, sum(map(mul, fund, form_rc)), supp))
        return strings

    def root_orbits(self, nonzero: tuple[bool, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The ``W_J``-orbits of the roots, ``J`` the nodes where ``nonzero``
        is false, as ``(positive, every)``: the orbits on the positive roots
        modulo sign, and those on all roots, each as the index of its
        ``J``-dominant (highest) root and its length.

        ``W_J`` keeps the coordinates of a root off ``J`` (its shape) and its
        length. The roots of one nonzero shape are the weights of one
        irreducible module of the Levi subalgebra on ``J`` (Azad, Barry and
        Seitz, *On the structure of parabolic subgroups*, Comm. Algebra 1990),
        and the weights of one length in it form one orbit, that of its highest
        weight. The roots of shape zero make up ``Phi_J``, one orbit of both
        signs per component of ``J`` and length. The negative orbit of a
        nonzero shape is listed by the negative of its positive orbit's lowest
        root. A root's shape and length are one ``code & mask`` (:attr:`codes`);
        one of shape zero is told apart by the component of ``J`` holding its
        least node."""
        rs = self.rs
        component = {}  # node of J -> first node of its connected component in J
        for i, f in enumerate(nonzero):
            if not f and i not in component:
                component[i] = i
                stack = [i]
                while stack:
                    for j, _ in rs.dynkin_nodes[stack.pop()].neighbours:
                        if not nonzero[j] and j not in component:
                            component[j] = i
                            stack.append(j)
        fields, codes = self.codes
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
        """:meth:`every` at ``k`` with the length of the orbit appended, one
        string per orbit of :meth:`root_orbits`: on the positive roots modulo
        sign at ``k = 0``, on all roots at ``k >= 1``."""
        key = (nonzero, k)
        strings = self._orbits.get(key)
        if strings is None:
            every = self.every(k)
            strings = self._orbits[key] = [every[t] + (n,) for t, n in self.root_orbits(nonzero)[bool(k)]]
        return strings

    def orbit_size(self, nonzero: tuple[bool, ...]) -> int:
        """:func:`weyl_orbit_size` of a dominant weight with this support."""
        size = self._sizes.get(nonzero)
        if size is None:
            size = self._sizes[nonzero] = weyl_orbit_size(self.rs, tuple(map(int, nonzero)))
        return size

    def alcove_point(self, v: Weight, d: int, lvl: int) -> tuple[Weight, int, int]:
        """:meth:`RootSystem.alcove_point`, one walk per ``(v, lvl)``: the
        walk's point and sign do not depend on ``d``, which it lowers by a
        fixed drop, so each is held as ``(point, drop, sign)``."""
        hit = self._alcove.get((v, lvl))
        if hit is None:
            point, e, sign = self.rs.alcove_point(v, 0, lvl)
            hit = self._alcove[(v, lvl)] = (point, -e, sign)
        point, drop, sign = hit
        return point, d - drop, sign


# per algebra: the root data above, which depends on no highest weight
_root_strings: dict[AlgebraId, RootStrings] = {}


def root_strings(rs: RootSystem) -> RootStrings:
    """The memoised :class:`RootStrings` of ``rs.algebra``."""
    data = _root_strings.get(rs.algebra)
    if data is None:
        data = _root_strings[rs.algebra] = RootStrings(rs)
    return data


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
    (see :meth:`RootStrings.root_orbits`).

    Only the candidates at depth 0 or in the affine chamber (``<mu, theta^vee>
    <= lvl``) run the recursion. Any other is read off its alcove point
    (:meth:`RootStrings.alcove_point`, one walk per point and level, shared
    by every table of the algebra): by affine Weyl invariance (Kac,
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
    memo = root_strings(rs)
    orbit_strings, alcove_point = memo.orbit_strings, memo.alcove_point
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
    """Drop every memoised table, finite and affine, and the memoised orbit
    sizes, root strings and alcove points."""
    with _memo_lock:
        _memo.clear()
        _root_strings.clear()


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
        orbit_size = root_strings(rs).orbit_size
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
