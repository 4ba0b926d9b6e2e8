"""Independent oracles used only by the test suite.

These deliberately avoid the production multiplicity kernels: the finite
oracle expands the Weyl character formula numerator and denominator as
signed formal weight sums and divides; the affine oracle does the same with
the truncated affine Weyl group (classical reflections composed with root
lattice translations), so agreement with the Freudenthal-based tables is a
genuine two-route check. Both divisions raise, instead of running on, once
a quotient term falls below the lowest weight it could have. The product
oracle counts the weights of V(rho) as subset sums of positive roots, its
affine form those of V(n rho^) as a product over real and imaginary roots
truncated in depth, and the box walks enumerate dominant weights
and affine Freudenthal candidates over whole simple-root coordinate boxes
instead of descending by positive roots. The full-weight peel decomposes a
truncated affine product over every finite weight by subtracting each
component's character. The read-off oracle convolves only the pairs of
dominant slices whose sum is dominant and reads each component off that
product with the Weyl-Kac denominator, walking the affine orbit of rho^ as
Snow's tree once per key. The library does neither: it runs finite Klimyk
passes of one factor's slices against the Weyl-Kac numerator of the other.
The signed affine orbit lists the terms of numerators and denominators from
finite reflections and coroot translations, where the library walks the
finite-dominant points of an affine orbit as a tree of alcove steps.
The all-roots kernel is Freudenthal's recursion walking every real-root
string on its own, where the library walks one string per orbit of the
stabiliser of each weight and counts it times the orbit's length.
The orbit oracle walks a Weyl orbit breadth-first with a seen-set, where the
production walk climbs the tree of ``to_dominant``. The orbit-size oracle
tests each positive root by its pairing with the dominant weight, where the
library compares supports. The alcove walk runs on every call, where the
library memoises one walk per point and level. The root-datum oracle builds the symmetrizer, the inverse
Cartan matrix and the form in ``Fraction`` arithmetic, where the production
build stays in integers throughout, and runs its own root-string closure. The descent oracle for the conjecture's
predicted set tests every dominant weight below (m+n) rho for membership,
where the production set is read off the unreflected Klimyk terms.
``decomposition_from_json_dict`` rebuilds a ``Decomposition`` from the JSON
document of ``decompose --format json``, for the round-trip test.
``simple_reflection`` and ``sip_wr`` (the form on a weight and a root) are
plain helpers of these oracles; the library reflects only in ``to_dominant``.
The dense reflection loop and the dense tree walk do the work of
``to_dominant`` and ``weyl_orbit`` by subtracting a whole Cartan column at
every step and testing each child built in full, where the library touches
only the Dynkin neighbours of the reflecting node. The sign
oracle reflects nothing: it counts the positive coroots that pair negatively
with a weight. These orbit and sign oracles read ``rs.cartan``, never the library's
``dynkin_nodes``, and the Fraction build makes that field from its own Cartan
matrix, so no oracle checks the sparse code against itself.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import product as iproduct
from math import lcm, prod
from operator import add, itemgetter, mul, sub
from typing import Iterable

from rho_tensor.affine import (
    AffineWeight,
    TruncatedAffineCharacter,
    affine_freudenthal,
    affine_rho,
    affinize,
    level,
    theta_pairing,
)
from rho_tensor.charcalc import dominant_weights_below, expand_orbits, freudenthal
from rho_tensor.rootdata import (
    AlgebraId,
    DynkinNode,
    InvariantError,
    RootSystem,
    RootVector,
    Weight,
    _cartan_matrix,
    floor_root_coords,
    weyl_orbit,
)
from rho_tensor.tensor import Decomposition


def freudenthal_slices_by_all_roots(
    rs: RootSystem,
    lam: Weight,
    candidates: Iterable[tuple[int, Weight, RootVector]],
    depth: int,
    lvl: int,
) -> list[dict[Weight, int]]:
    """:func:`rho_tensor.charcalc.freudenthal_slices` without the stabiliser
    grouping: the same candidates, order, checks and messages, but every
    real-root string walked on its own, over all positive roots at ``k = 0``
    and all roots at ``k >= 1``."""
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
    dominant_of: dict[Weight, Weight] | None = {} if depth else None
    dual_marks = rs.dual_marks
    for d, mu, gamma in candidates:
        if d and sum(map(mul, dual_marks, mu)) > lvl:
            # off the affine chamber: the multiplicity is that of its alcove point,
            # shallower (above the top if e < 0), so already known
            nu, e, _ = alcove_point_by_walk(rs, mu, d, lvl)
            m = slices[e].get(nu, 0) if e >= 0 else 0
            if m:
                slices[d][mu] = m
            continue
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
        if not num:
            raise InvariantError(
                f"Freudenthal recursion found multiplicity 0 at mu={mu}, depth {d} for highest "
                f"weight {lam} ({rs.algebra}), but a dominant weight below the top is a weight"
            )
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
        slices[d][mu] = q
    return slices


def _signed_orbit(rs: RootSystem, w: Weight) -> dict[Weight, int]:
    """{x: sign} over the orbit of a regular weight ``w``."""
    out: dict[Weight, int] = {}
    for x in rs.orbit(w):
        dom, sign = rs.to_dominant(x)
        assert sign != 0, f"{w} is not regular"
        out[x] = sign
    return out


def character_by_weyl_formula(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Full weight-multiplicity map of V(lam) by dividing formal sums."""
    lam_rho = tuple(x + 1 for x in lam)
    numerator = _signed_orbit(rs, lam_rho)
    denominator = _signed_orbit(rs, rs.rho)

    def height_key(w: Weight):
        return (rs.height(w), w)

    # every weight of V(lam) lies above its lowest weight w0 lam
    floor = -rs.height(rs.to_dominant(tuple(-a for a in lam))[0])
    quotient: dict[Weight, int] = {}
    residue = dict(numerator)
    while residue:
        x = max(residue, key=height_key)
        coeff = residue[x]
        mu = tuple(a - 1 for a in x)  # x = mu + rho
        if rs.height(mu) < floor:
            raise InvariantError(f"Weyl formula residue {mu} lies below the lowest weight of V({lam})")
        quotient[mu] = quotient.get(mu, 0) + coeff
        for y, s in denominator.items():
            key = tuple(a + b for a, b in zip(mu, y))
            acc = residue.get(key, 0) - coeff * s
            if acc:
                residue[key] = acc
            else:
                residue.pop(key, None)
        if x in residue:
            raise InvariantError(f"the Weyl denominator does not cancel the residue term {x}")
    assert all(m > 0 for m in quotient.values()), "oracle produced non-positive multiplicities"
    return quotient


def rho_character_by_product(rs: RootSystem, n: int = 1) -> dict[Weight, int]:
    """Full weight-multiplicity map of V(n rho) from ch V(n rho) = e^{n rho}
    prod_{a>0} (1 + e^{-a} + ... + e^{-n a}), the Weyl denominator formula
    applied to the numerator at (n+1) rho: the multiplicity of
    n rho - sum_a k_a a counts the choices 0 <= k_a <= n with that sum."""
    mults = {tuple(n * x for x in rs.rho): 1}
    for fund in rs.positive_roots_fund:
        nxt = dict(mults)
        for w, m in mults.items():
            key = w
            for _ in range(n):
                key = tuple(map(sub, key, fund))
                nxt[key] = nxt.get(key, 0) + m
        mults = nxt
    return mults


def affine_rho_character_by_product(rs: RootSystem, n: int, depth: int) -> list[dict[Weight, int]]:
    """Full (orbit-expanded) multiplicity slices of V(n rho^) down to
    ``depth`` from the Weyl-Kac denominator identity applied as in
    :func:`rho_character_by_product`: ch V(n rho^) = e^{n rho^} prod over the
    positive roots of (1 + e^{-a} + ... + e^{-n a})^{mult a}. A real root
    ``alpha + k delta`` (``alpha`` positive at ``k = 0``, any root at ``k >=
    1``) has multiplicity one; an imaginary root ``k delta`` has multiplicity
    the rank and drops every weight by ``k`` slices per power. Terms deeper
    than ``depth`` are cut off."""
    fund = rs.positive_roots_fund
    factors = [(f, 0) for f in fund]  # (finite fund coords, depth) of each real root
    for k in range(1, depth + 1):
        factors += [(f, k) for f in fund] + [(tuple(-x for x in f), k) for f in fund]
    for k in range(1, depth + 1):
        factors += [((0,) * rs.rank, k)] * rs.rank
    mults = {((n,) * rs.rank, 0): 1}
    for f, k in factors:
        nxt = dict(mults)
        for (w, d), m in mults.items():
            for j in range(1, n + 1):
                if d + j * k > depth:
                    break
                key = (tuple(a - j * b for a, b in zip(w, f)), d + j * k)
                nxt[key] = nxt.get(key, 0) + m
        mults = nxt
    slices: list[dict[Weight, int]] = [dict() for _ in range(depth + 1)]
    for (w, d), m in mults.items():
        slices[d][w] = m
    return slices


# -- the root datum in Fraction arithmetic ------------------------------------


def _invert_fraction_matrix(a: list[list[int]]) -> tuple[list[list[Fraction]], int]:
    """The inverse and the determinant of an integer matrix, by Gauss-Jordan
    elimination over the rationals with row swaps."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m], int(det)


def positive_roots_by_strings(cartan: list[list[int]]) -> list[RootVector]:
    """The positive roots by root-string closure from the simple roots, sorted
    by ``(height, coordinates)`` at the end: each pairing ``<beta,
    alpha_i^vee>`` is summed from the Cartan matrix, and each string below
    ``beta`` is walked to its end, where the library reads the pairing off the
    fundamental coordinates it carries and inserts each height layer sorted."""
    rank = len(cartan)
    roots: set[RootVector] = set()
    layer: list[RootVector] = []
    for i in range(rank):
        e = tuple(int(i == j) for j in range(rank))
        roots.add(e)
        layer.append(e)
    while layer:
        nxt: list[RootVector] = []
        for beta in layer:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[i][j] for j in range(rank))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if min(down) < 0 or tuple(down) not in roots:
                        break
                    p += 1
                if p - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        layer = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


def root_datum_by_fractions(algebra: AlgebraId | str) -> RootSystem:
    """The root datum of ``algebra`` with every rational quantity computed as
    a ``Fraction`` first: the symmetrizer from d_0 = 1, the inverse Cartan
    matrix over the rationals, the form and the dual marks as fractions, and
    ``form_scale`` as the lcm of the denominators of the form and of d, and
    ``coroot_steps`` from the positive roots of the dual root system. The
    positive roots come from :func:`positive_roots_by_strings`; only the
    Cartan matrix is shared with the production build."""
    if isinstance(algebra, str):
        algebra = AlgebraId.parse(algebra)
    fin = algebra.finite()
    rank = fin.rank
    cartan = _cartan_matrix(fin.family, rank)

    # the symmetrizing d_i: d_i A[i][j] = d_j A[j][i], rescaled so (theta|theta)=2
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    assert all(x is not None for x in d), f"Dynkin diagram of {fin} is not connected"

    posroots = positive_roots_by_strings(cartan)
    theta = max(posroots, key=lambda r: (sum(r), r))
    theta_sq = sum(d[i] * cartan[i][j] * theta[i] * theta[j] for i in range(rank) for j in range(rank))
    d = [x * 2 / theta_sq for x in d]

    inv, det = _invert_fraction_matrix(cartan)
    form = [[inv[j][i] * d[j] for j in range(rank)] for i in range(rank)]
    assert all(form[i][j] == form[j][i] for i in range(rank) for j in range(rank))
    dual_marks = [d[i] * theta[i] for i in range(rank)]
    assert all(dm.denominator == 1 for dm in dual_marks)

    scale = lcm(*(x.denominator for row in form for x in row), *(x.denominator for x in d))
    d_int = tuple(int(x * scale) for x in d)

    # coroot of alpha = sum c_j alpha_j: coordinates 2 c_j d_j / (alpha|alpha)
    posroots_fund = [tuple(sum(map(mul, row, r)) for row in cartan) for r in posroots]
    coroots = []
    for r in posroots:
        norm = sum(d[i] * cartan[i][j] * r[i] * r[j] for i in range(rank) for j in range(rank))
        cv = [2 * dj * cj / norm for dj, cj in zip(d, r)]
        assert all(x.denominator == 1 for x in cv)
        coroots.append(tuple(map(int, cv)))

    # the positive coroots are the positive roots of the dual system, whose
    # Cartan matrix is the transpose, sorted by (height, coordinates)
    dual_roots = positive_roots_by_strings([list(col) for col in zip(*cartan)])
    assert sorted(dual_roots) == sorted(coroots)
    order = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    order += [c for c in dual_roots if sum(c) > 1]
    steps = []
    for c in order[rank:]:
        for i in range(rank):
            lower = c[:i] + (c[i] - 1,) + c[i + 1 :]
            if lower in order:
                steps.append((order.index(lower), i))
                break

    return RootSystem(
        algebra=algebra,
        cartan=tuple(tuple(row) for row in cartan),
        lattice_index=det,
        cartan_inverse=tuple(tuple(int(x * det) for x in row) for row in inv),
        positive_roots=tuple(posroots),
        positive_roots_fund=tuple(posroots_fund),
        positive_coroots=tuple(coroots),
        weyl_denominator=prod(map(sum, coroots)),
        coroot_steps=tuple(steps),
        dynkin_nodes=_dynkin_nodes_by_adjacency(cartan),
        rho=(1,) * rank,
        marks=tuple(theta),
        dual_marks=tuple(map(int, dual_marks)),
        dual_coxeter=1 + int(sum(dual_marks)),
        dim_adjoint=rank + 2 * len(posroots),
        form_scale=scale,
        form_ww=tuple(tuple(int(x * scale) for x in row) for row in form),
        form_d=d_int,
    )


def _dynkin_nodes_by_adjacency(cartan: list[list[int]]) -> tuple[DynkinNode, ...]:
    """``dynkin_nodes`` from the adjacency sets of the diagram: ``i`` and
    ``j`` are joined iff ``A[i][j] A[j][i]`` (four times the squared cosine of
    their angle) is nonzero."""
    rank = len(cartan)
    adjacent = [{j for j in range(rank) if j != i and cartan[i][j] * cartan[j][i]} for i in range(rank)]
    nodes = []
    for i, near in enumerate(adjacent):
        earlier = set(range(i))
        nodes.append(DynkinNode(
            neighbours=tuple((j, cartan[j][i]) for j in sorted(near)),
            earlier_neighbours=tuple((j, cartan[j][i]) for j in sorted(near & earlier)),
            later_neighbours=tuple(sorted(near - earlier)),
            earlier_others=tuple(sorted(earlier - near)),
        ))
    return tuple(nodes)


# -- Weyl orbits by breadth-first search, dense reflections ------------------------


def simple_reflection(rs: RootSystem, w: Weight, i: int) -> Weight:
    """s_i(w) = w - <w, alpha_i^vee> alpha_i, in fundamental coordinates:
    column ``i`` of the Cartan matrix is alpha_i."""
    wi = w[i]
    return tuple(a - wi * row[i] for a, row in zip(w, rs.cartan))


def to_dominant_dense(rs: RootSystem, w: Weight) -> tuple[Weight, int]:
    """``RootSystem.to_dominant`` by whole-column reflections: reflect in
    the first negative coordinate until none is left."""
    cur = w
    parity = 1
    while min(cur) < 0:
        cur = simple_reflection(rs, cur, next(i for i, x in enumerate(cur) if x < 0))
        parity = -parity
    return cur, (0 if 0 in cur else parity)


def weyl_orbit_dense(rs: RootSystem, w: Weight) -> list[Weight]:
    """``weyl_orbit`` by building every candidate ``s_i u`` with ``u_i > 0``
    in full and keeping it if its coordinates before ``i`` are all
    non-negative (Snow's tree, in the library's order)."""
    orbit = [to_dominant_dense(rs, w)[0]]
    for u in orbit:
        for i, ui in enumerate(u):
            if ui > 0:
                child = simple_reflection(rs, u, i)
                if all(x >= 0 for x in child[:i]):
                    orbit.append(child)
    return orbit


def sign_by_coroots(rs: RootSystem, w: Weight) -> int:
    """The sign of ``to_dominant(w)`` with no reflection: 0 if a positive
    coroot pairs to 0 with ``w``, else (-1) to the number of positive coroots
    that pair negatively (the length of the shortest Weyl group element taking
    ``w`` into the dominant chamber)."""
    pairings = [sum(map(mul, w, cv)) for cv in rs.positive_coroots]
    if 0 in pairings:
        return 0
    return (-1) ** sum(p < 0 for p in pairings)


def orbit_by_bfs(rs: RootSystem, w: Weight) -> dict[Weight, int]:
    """``{v: number of simple reflections from w to v}`` over the Weyl orbit
    of ``w``, by breadth-first search over :func:`simple_reflection`."""
    depth = {w: 0}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                if v[i] != 0:
                    img = simple_reflection(rs, v, i)
                    if img not in depth:
                        depth[img] = depth[v] + 1
                        nxt.append(img)
        frontier = nxt
    return depth


def orbit_size_by_pairings(rs: RootSystem, w: Weight) -> int:
    """``|W w|`` as the product of ``(ht a + 1) / ht a`` over the positive
    roots ``a`` with ``<u, a^vee> > 0``, ``u`` the dominant weight of the
    orbit, each pairing summed over the coroot's coordinates."""
    u = rs.to_dominant(w)[0]
    hts = [sum(r) for r, cv in zip(rs.positive_roots, rs.positive_coroots) if sum(map(mul, u, cv)) > 0]
    q, rem = divmod(prod(h + 1 for h in hts), prod(hts))
    assert not rem, (w, hts)
    return q


# -- the conjecture's predicted set by descent ----------------------------------


def predicted_weights_by_descent(rs: RootSystem, m: int, n: int) -> list[Weight]:
    """All dominant lam <= (m+n) rho whose translate lam - m rho is a weight
    of V(n rho), in lexicographic order: a positive-root descent below
    (m+n) rho, then one membership test per dominant weight."""
    char_n = freudenthal(rs, (n,) * rs.rank)
    mrho = (m,) * rs.rank
    return sorted(
        lam
        for lam in dominant_weights_below(rs, (m + n,) * rs.rank)
        if char_n.multiplicity(rs, tuple(a - b for a, b in zip(lam, mrho))) > 0
    )


# -- root-coordinate box walks ----------------------------------------------


def dominant_weights_by_box(rs: RootSystem, lam: Weight) -> list[Weight]:
    """Dominant mu <= lam by walking every simple-root coordinate vector
    0 <= c <= floor(root coordinates of lam), by increasing height of c."""
    caps = floor_root_coords(rs, lam)
    found = []
    for c in iproduct(*(range(x + 1) for x in caps)):
        mu = tuple(map(sub, lam, rs.fund_coords_of_root(c)))
        if min(mu) >= 0:
            found.append((sum(c), mu))
    return [mu for _, mu in sorted(found)]


def affine_candidates_by_box(rs: RootSystem, lam_fin: Weight, depth: int) -> list[tuple[int, Weight, RootVector]]:
    """The affine Freudenthal candidates ``(d, mu, gamma)`` by walking, for each
    depth d, every gamma with -d*marks <= gamma <= floor(root coordinates of
    lam_fin), by increasing affine height (the highest weight left out)."""
    caps = floor_root_coords(rs, lam_fin)
    found = []
    for d in range(depth + 1):
        for gamma in iproduct(*(range(-d * a, c + 1) for a, c in zip(rs.marks, caps))):
            mu = tuple(map(sub, lam_fin, rs.fund_coords_of_root(gamma)))
            height = d + sum(g + d * a for g, a in zip(gamma, rs.marks))
            if min(mu) >= 0 and height:
                found.append((height, d, mu, gamma))
    return [t[1:] for t in sorted(found)]


# -- affine: the full-weight convolve-and-peel --------------------------------


def truncated_tensor_by_full_peel(
    rs: RootSystem, lam: AffineWeight, mu: AffineWeight, depth: int
) -> dict[tuple[Weight, int], int]:
    """Components ``{(finite dominant part, depth): mult}`` of the truncated
    product V(lam) (x) V(mu): convolve the orbit-expanded slices of both
    factors over all finite weights, then peel highest weights depth by depth,
    each component subtracting its orbit-expanded slices."""

    def expand(char) -> list[dict[Weight, int]]:
        return [{x: m for w, m in sl.items() for x in weyl_orbit(rs, w)} for sl in char.slices]

    lvl = level(rs, lam) + level(rs, mu)
    full_l = expand(affine_freudenthal(rs, lam, depth))
    full_m = expand(affine_freudenthal(rs, mu, depth))
    residual: list[dict[Weight, int]] = [dict() for _ in range(depth + 1)]
    for d1 in range(depth + 1):
        for d2 in range(depth + 1 - d1):
            target = residual[d1 + d2]
            for w1, m1 in full_l[d1].items():
                for w2, m2 in full_m[d2].items():
                    key = tuple(a + b for a, b in zip(w1, w2))
                    target[key] = target.get(key, 0) + m1 * m2

    components: dict[tuple[Weight, int], int] = {}
    for d in range(depth + 1):
        layer = sorted((w for w in residual[d] if rs.is_dominant(w)), key=lambda w: (-rs.height(w), w))
        for w in layer:
            c = residual[d].get(w, 0)
            if c == 0:
                continue
            assert c > 0, f"negative residual {c} at {w}, depth {d}"
            assert theta_pairing(rs, w) <= lvl, f"residual {c} at affine-nondominant {w}, depth {d}"
            comp = expand(affine_freudenthal(rs, affinize(rs, w, lvl), depth - d))
            for e, sl in enumerate(comp):
                target = residual[d + e]
                for x, mx in sl.items():
                    acc = target.get(x, 0) - c * mx
                    if acc:
                        target[x] = acc
                    else:
                        target.pop(x, None)
            components[(w, d)] = c
    assert not any(residual), "extraction left a nonzero residual"
    return components


# -- affine: the dominant convolution and the per-key Weyl-Kac read-off -------


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
    theta = rs.fund_coords_of_root(rs.marks)
    cartan = [[2] + [-theta_pairing(rs, col) for col in zip(*rs.cartan)]]
    cartan += [[-t] + list(row) for t, row in zip(theta, rs.cartan)]
    return _dynkin_nodes_by_adjacency(cartan)


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


def alcove_point_by_walk(rs: RootSystem, v: Weight, d: int, lvl: int) -> tuple[Weight, int, int]:
    """:meth:`RootSystem.alcove_point` by its walk on every call, with no
    memo: finite reflections to the dominant chamber alternate with ``s_0``,
    which lowers the finite part by ``-v_0 theta`` and the depth by ``-v_0``
    while ``v_0 = lvl - <v, theta^vee> < 0``; the sign is ``(-1)^(reflections)``,
    or 0 once a step met a wall."""
    assert lvl > 0, lvl
    theta = rs.positive_roots_fund[-1]
    eps = 1
    while True:
        v, sign = rs.to_dominant(v)
        eps *= sign
        v0 = lvl - theta_pairing(rs, v)
        if v0 >= 0:
            return v, d, eps if v0 else 0
        v = tuple(x + v0 * t for x, t in zip(v, theta))
        d += v0
        eps = -eps


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
            point, e, sign = alcove_point_by_walk(rs, x_rho, d, lvl + rs.dual_coxeter)
            nu = tuple(a - 1 for a in point)
            expected = sign * components.get((nu, e), 0)
            if total != expected:
                raise InvariantError(
                    f"read-off at non-dominant affine weight (finite {x}, depth {d}, level {lvl}) "
                    f"over {rs.algebra} is {total}, but its alcove point (finite {nu}, depth {e}) "
                    f"gives {expected}"
                )
    return components


def truncated_tensor_by_read_off(
    rs: RootSystem, lam: AffineWeight, mu: AffineWeight, depth: int
) -> dict[tuple[Weight, int], int]:
    """Components ``{(finite dominant part, depth): mult}`` of the truncated
    product V(lam) (x) V(mu), in the order depth, then ``(-height, w)``:
    convolve the dominant slices (:func:`_dominant_convolution`), then read
    each component off the product with the Weyl-Kac denominator
    (:func:`_read_off`)."""
    char_l, char_m = affine_freudenthal(rs, lam, depth), affine_freudenthal(rs, mu, depth)
    product = _dominant_convolution(rs, char_l, char_m, depth)
    return _read_off(rs, product, (lam + mu).finite, level(rs, lam) + level(rs, mu))


# -- affine: truncated Weyl-Kac numerator/denominator ------------------------

AffKey = tuple[Weight, int]  # (finite fundamental coords, delta coefficient u <= 0)


def _finite_weyl_words(rs: RootSystem) -> list[list[int]]:
    """One reduced word per finite Weyl group element."""
    rho = rs.rho
    seen = {rho: []}
    frontier = [rho]
    while frontier:
        nxt = []
        for w in frontier:
            word = seen[w]
            for i in range(rs.rank):
                img = simple_reflection(rs, w, i)
                if img not in seen:
                    seen[img] = [i] + word
                    nxt.append(img)
        frontier = nxt
    return list(seen.values())


def _apply_word(rs: RootSystem, word: list[int], w: Weight) -> Weight:
    for i in reversed(word):
        w = simple_reflection(rs, w, i)
    return w


def sip_wr(rs: RootSystem, a: Weight, c: RootVector) -> int:
    """form_scale * (a|c) for a weight ``a`` and a root with simple-root
    coordinates ``c``: (omega_j|alpha_j) = d_j."""
    return sum(d * x * y for d, x, y in zip(rs.form_d, c, a))


def _signed_affine_orbit(rs: RootSystem, x: AffineWeight, cutoff: int, kmax: int) -> dict[AffKey, int]:
    """Terms e^{w(x)} with signs, for w in the affine Weyl group, truncated to
    delta-coefficient drops <= cutoff. Translations run over the coroot
    lattice nu(Q^vee), spanned by alpha_i^vee = alpha_i / d_i: in simple-root
    coordinates, coordinate i steps by 1/d_i = form_scale / form_d[i]."""
    steps = [rs.form_scale // x for x in rs.form_d]
    lvl = level(rs, x)
    x_fin = x.finite
    rank = rs.rank
    out: dict[AffKey, int] = {}
    words = _finite_weyl_words(rs)
    for word in words:
        sign = -1 if len(word) % 2 else 1
        y = _apply_word(rs, word, x_fin)
        for ks in iproduct(range(-kmax, kmax + 1), repeat=rank):
            beta = tuple(map(mul, ks, steps))
            beta_fund = rs.fund_coords_of_root(beta)
            # drop = (y|beta) + (beta|beta) lvl / 2, from the form scaled by form_scale
            ip = sip_wr(rs, y, beta)
            beta_sq = sip_wr(rs, beta_fund, beta)
            drop, rem = divmod(2 * ip + beta_sq * lvl, 2 * rs.form_scale)
            assert rem == 0
            if drop > cutoff:
                continue
            fin = tuple(a + lvl * b for a, b in zip(y, beta_fund))
            key = (fin, x.delta_shift - drop)
            assert key not in out, "affine Weyl orbit terms collided"
            out[key] = sign
    return out


def affine_slices_by_weyl_kac(rs: RootSystem, lam: AffineWeight, depth: int) -> list[dict[Weight, int]]:
    """Full (orbit-expanded) multiplicity slices of V(lam) down to ``depth``
    via truncated numerator/denominator division."""
    rho = affine_rho(rs)
    lam_rho = lam + rho
    # generous translation bound: drops grow like |beta|^2 * level
    kmax = depth + 3
    numerator = _signed_affine_orbit(rs, lam_rho, depth, kmax)
    denominator = _signed_affine_orbit(rs, rho, depth, kmax)

    # heights scaled by the lattice index, like rs.height
    ht_delta = (1 + sum(rs.marks)) * rs.lattice_index

    def offset_height(key: AffKey):
        fin, u = key
        dd = lam_rho.delta_shift - u
        gamma = tuple(a - b for a, b in zip(lam_rho.finite, fin))
        return dd * ht_delta + rs.height(gamma)

    # every weight of slice d lies above the lowest weight w0 (lam + d theta)
    # of the finite part, the dominant weights of the slice being below lam + d theta
    theta = rs.positive_roots_fund[-1]
    floor = [
        -rs.height(rs.to_dominant(tuple(-a - d * t for a, t in zip(lam.finite, theta)))[0])
        for d in range(depth + 1)
    ]

    # long division: peel the term closest to the top at each step
    quotient: dict[AffKey, int] = {}
    residue = dict(numerator)
    while residue:
        x = min(residue, key=lambda k: (offset_height(k), k))
        coeff = residue[x]
        fin, u = x
        mu = (tuple(a - 1 for a in fin), u)  # x = mu + rho
        if rs.height(mu[0]) < floor[lam.delta_shift - u]:
            raise InvariantError(f"Weyl-Kac residue {mu} lies below the lowest weight of its slice")
        quotient[mu] = quotient.get(mu, 0) + coeff
        for (yf, yu), s in denominator.items():
            ku = mu[1] + yu
            if lam.delta_shift - ku > depth:
                continue
            key = (tuple(a + b for a, b in zip(mu[0], yf)), ku)
            acc = residue.get(key, 0) - coeff * s
            if acc:
                residue[key] = acc
            else:
                residue.pop(key, None)
        if x in residue:
            raise InvariantError(f"the Weyl-Kac denominator does not cancel the residue term {x}")

    slices: list[dict[Weight, int]] = [dict() for _ in range(depth + 1)]
    for (fin, u), m in quotient.items():
        d = lam.delta_shift - u
        assert 0 <= d <= depth and m > 0, f"bad quotient term {(fin, u)}: {m}"
        slices[d][fin] = m
    return slices


def decomposition_from_json_dict(doc: dict) -> Decomposition:
    return Decomposition(
        algebra=doc["algebra"],
        lhs=tuple(doc["lhs"]),
        rhs=tuple(doc["rhs"]),
        components={tuple(e["weight"]): int(e["mult"]) for e in doc["components"]},
    )
