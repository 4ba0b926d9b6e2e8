"""Command-line front end: parses a command line, calls the library, and
prints the result. The commands cover decompositions, characters, the
conjecture reports and scans, affine truncated products, GKO data, and cache
administration.

Every ``--format`` result goes through one renderer: JSON documents carry
``meta: {kind, version}``; ``decompose``, ``weights``, finite ``conjecture``,
``scan``, ``naive-scan``, ``affine-decompose`` and ``delta-max`` write CSV,
while ``schur-compare`` and affine ``conjecture`` print their table for
``--format csv``.

Every parser comes from one table, ``COMMANDS``. ``main`` builds the subparser
of the command word (the first argument not starting with ``-``) alone; bare
``--help``, an unknown command and usage errors go to the full parser.

Exit codes: 0 success / verified; 1 verified-negative (a conjecture case
fails, dominance fails, or a depth-limited scan has missing weights);
2 usage or parse error; 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import affine as aff
from .charcalc import default_cache, dominant_weights_below, freudenthal
from .harness import (
    ERROR,
    FAILS,
    HOLDS,
    naive_condition_scan,
    scan_all,
    support_containment_check,
    verify_affine_conjecture,
    verify_conjecture,
)
from .rootdata import (
    AlgebraError, AlgebraId, InvariantError, RootSystem, Weight, build_root_system, parse_integer,
    parse_weight,
)
from .tensor import klimyk, saturation_check, schur_compare

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_affine_weight(rs: RootSystem, text: str) -> aff.AffineWeight:
    body, _, shift_part = text.partition(":")
    shift = 0
    if shift_part:
        if not shift_part.startswith("d"):
            raise AlgebraError(f"bad delta-shift suffix in {text!r}: expected ':dN'")
        try:
            shift = parse_integer(shift_part[1:])
        except ValueError:
            raise AlgebraError(f"bad delta-shift suffix in {text!r}: expected ':dN'") from None
    coords = parse_weight(body, rs.rank + 1)
    return aff.AffineWeight(coords, shift)


def _fmt_weight(w: Weight) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


def _weight_columns(rank: int) -> list[str]:
    return [f"w{i + 1}" for i in range(rank)]


# -- the output layer ---------------------------------------------------------


def _meta(kind: str) -> dict:
    return {"kind": kind, "version": 1}


def _render(out, fmt: str, kind: str, doc, lines, rows=None) -> None:
    """Write one result in ``fmt``, building only that form. ``doc()`` is the
    JSON document (tuples are written as arrays), which gets ``meta`` of
    ``kind``; ``lines()`` the table lines; ``rows()`` the CSV rows, header
    first. A result without ``rows`` prints its table for ``--format csv``."""
    if fmt == "json":
        json.dump({**doc(), "meta": _meta(kind)}, out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv" and rows is not None:
        csv.writer(out).writerows(rows())
    else:
        out.writelines(line + "\n" for line in lines())


def _render_multiplicities(out, fmt: str, kind: str, rank: int, head: dict, key: str, items, depth=False):
    """The weight -> multiplicity listing of ``decompose``, ``weights`` and
    ``affine-decompose``. ``items`` are sorted ``(weight, d, mult)``; the
    delta-depth ``d`` is shown only when ``depth`` is set. The JSON document
    is ``head`` with the entries under ``key``."""

    def entry(w, d, m):
        return {"weight": w, "depth": d, "mult": str(m)} if depth else {"weight": w, "mult": str(m)}

    def lines():
        for w, d, m in items:
            yield f"{m} x {_fmt_weight(w)} at delta-depth {d}" if depth else f"{m} x {_fmt_weight(w)}"

    def rows():
        yield _weight_columns(rank) + (["depth", "mult"] if depth else ["mult"])
        for w, d, m in items:
            yield [*w, d, m] if depth else [*w, m]

    _render(out, fmt, kind, lambda: {**head, key: [entry(*t) for t in items]}, lines, rows)


def _conjecture_lines(rep):
    yield (
        f"{rep.algebra}  m={rep.m} n={rep.n}  verdict={rep.verdict}  "
        f"predicted={len(rep.predicted)} present={len(rep.present)} missing={len(rep.missing)}"
    )
    if rep.missing:
        yield "missing components:"
        yield from (f"  {_fmt_weight(w)}" for w in rep.missing)
    if rep.error:
        yield f"error: {rep.error}"


def _conjecture_rows(rep):
    yield ["weight", "status"]
    missing = set(rep.missing)
    for w in rep.predicted:
        yield [" ".join(str(c) for c in w), "missing" if w in missing else "present"]


def _affine_conjecture_lines(rep):
    yield (
        f"{rep.algebra}  m={rep.m} n={rep.n} depth={rep.depth}  "
        f"verdict={rep.verdict}  predicted={len(rep.predicted)} "
        f"present={len(rep.present)} missing={len(rep.missing)} "
        f"unexpected={len(rep.unexpected)}"
    )
    for e in rep.missing:
        note = "beta dominant" if e["beta_dominant"] else "beta non-dominant"
        yield f"  missing: {_fmt_weight(e['weight'])} at depth {e['depth']} ({note})"
    for e in rep.unexpected:
        yield f"  unexpected delta-maximal component: {_fmt_weight(e['weight'])} at depth {e['depth']}"


# -- command implementations -------------------------------------------------


def _cmd_decompose(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = parse_weight(args.lhs, rs.rank)
    mu = parse_weight(args.rhs, rs.rank)
    dec = klimyk(rs, lam, mu, cache)
    head = {"algebra": dec.algebra, "lhs": dec.lhs, "rhs": dec.rhs}
    items = [(nu, None, m) for nu, m in dec.sorted_items()]
    _render_multiplicities(out, args.format, "decomposition", rs.rank, head, "components", items)
    return EXIT_OK


def _cmd_weights(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = parse_weight(args.weight, rs.rank)
    char = freudenthal(rs, lam, cache)
    head = {"algebra": char.algebra, "highest": char.highest}
    items = [(w, None, m) for w, m in sorted(char.mults.items())]
    _render_multiplicities(out, args.format, "character", rs.rank, head, "weights", items)
    return EXIT_OK


def _cmd_conjecture(args, cache, out) -> int:
    aid = AlgebraId.parse(args.algebra)
    if args.m < args.n or args.n < 0:
        raise AlgebraError(f"conjecture requires m >= n >= 0, got m={args.m}, n={args.n}")
    rs = build_root_system(aid)
    # the report's fields are the JSON document
    if aid.affine:
        rep = verify_affine_conjecture(rs, args.m, args.n, args.depth)
        _render(
            out, args.format, "affine-conjecture-report",
            lambda: vars(rep), lambda: _affine_conjecture_lines(rep),
        )
        return EXIT_NEGATIVE if rep.missing or rep.unexpected else EXIT_OK
    rep = verify_conjecture(rs, args.m, args.n, cache)
    _render(
        out, args.format, "conjecture-report",
        lambda: vars(rep), lambda: _conjecture_lines(rep), lambda: _conjecture_rows(rep),
    )
    return EXIT_OK if rep.verdict == HOLDS else EXIT_NEGATIVE


def _cmd_scan(args, cache, out) -> int:
    if not args.algebras:
        raise AlgebraError("scan requires at least one algebra")
    reports = scan_all(args.algebras, args.max_sum, cache)

    def doc():
        return {"reports": [{**vars(r), "meta": _meta("conjecture-report")} for r in reports]}

    def lines():
        for r in reports:
            yield (
                f"{r.algebra:>4}  m={r.m} n={r.n}  {r.verdict}"
                f"  predicted={len(r.predicted)} missing={len(r.missing)}"
            )

    def rows():
        yield ["algebra", "m", "n", "verdict", "predicted", "missing"]
        for r in reports:
            yield [r.algebra, r.m, r.n, r.verdict, len(r.predicted), len(r.missing)]

    _render(out, args.format, "scan", doc, lines, rows)
    errors = [r for r in reports if r.verdict == ERROR]
    for r in errors:
        print(f"error: {r.algebra} m={r.m} n={r.n}: {r.error}", file=sys.stderr)
    if errors:
        return EXIT_INTERNAL
    return EXIT_NEGATIVE if any(r.verdict == FAILS for r in reports) else EXIT_OK


def _cmd_naive_scan(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    missing = naive_condition_scan(rs, args.m, args.n, cache)

    def doc():
        return {"algebra": str(rs.algebra), "m": args.m, "n": args.n, "absent": missing}

    def lines():
        yield f"{len(missing)} dominant weights below (m+n) rho missing from the product:"
        for w in missing:
            yield f"  {_fmt_weight(w)}"

    _render(out, args.format, "naive-scan", doc, lines, lambda: [_weight_columns(rs.rank), *missing])
    return EXIT_OK


def _cmd_schur_compare(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    a = klimyk(rs, parse_weight(args.lhs1, rs.rank), parse_weight(args.rhs1, rs.rank), cache)
    b = klimyk(rs, parse_weight(args.lhs2, rs.rank), parse_weight(args.rhs2, rs.rank), cache)
    rep = schur_compare(a, b)

    def doc():
        return {
            "dominates": rep.dominates,
            "witnesses": [{"weight": w, "mult_first": ma, "mult_second": mb} for w, ma, mb in rep.witnesses],
        }

    def lines():
        if rep.dominates:
            yield "second decomposition dominates the first (multiplicity-wise)"
            return
        yield "dominance FAILS at:"
        for w, ma, mb in rep.witnesses:
            yield f"  {_fmt_weight(w)}: {ma} vs {mb}"

    _render(out, args.format, "schur-compare", doc, lines)
    return EXIT_OK if rep.dominates else EXIT_NEGATIVE


def _cmd_support_contain(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rep = support_containment_check(rs, args.m, args.n, cache)
    if rep.holds:
        out.write(
            f"supp V({args.m} rho)(x)V({args.n} rho) is contained in "
            f"supp V({args.m - 1} rho)(x)V({args.n + 1} rho)\n"
        )
        return EXIT_OK
    out.write("support containment FAILS at:\n")
    for w in rep.witnesses:
        out.write(f"  {_fmt_weight(w)}\n")
    return EXIT_NEGATIVE


def _cmd_saturate(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = parse_weight(args.lhs, rs.rank)
    mu = parse_weight(args.rhs, rs.rank)
    nu = parse_weight(args.component, rs.rank)
    ok = saturation_check(rs, lam, mu, nu, args.d, cache)
    out.write(
        f"V({args.d}*{_fmt_weight(nu)}) {'IS' if ok else 'is NOT'} a component of "
        f"V({args.d}*{_fmt_weight(lam)}) (x) V({args.d}*{_fmt_weight(mu)})\n"
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_affine_decompose(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    aff._require_affine(rs)
    lam = _parse_affine_weight(rs, args.lhs)
    mu = _parse_affine_weight(rs, args.rhs)
    dec = aff.truncated_tensor(rs, lam, mu, args.depth)
    head = {
        "algebra": str(rs.algebra),
        "lhs": lam.fund, "lhs_shift": lam.delta_shift,
        "rhs": mu.fund, "rhs_shift": mu.delta_shift,
        "depth": args.depth,
    }
    items = [(w, d, m) for (w, d), m in sorted(dec.components.items(), key=lambda t: (t[0][1], t[0][0]))]
    _render_multiplicities(
        out, args.format, "affine-decomposition", rs.rank, head, "components", items, depth=True
    )
    return EXIT_OK


def _cmd_delta_max(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    aff._require_affine(rs)
    lam = _parse_affine_weight(rs, args.weight)
    char = aff.affine_freudenthal(rs, lam, args.depth)
    entries = aff.delta_max_weights(char)

    def doc():
        return {
            "algebra": str(rs.algebra),
            "highest": lam.fund, "shift": lam.delta_shift, "depth": args.depth,
            "delta_maximal": [{"weight": w, "depth": d} for w, d in entries],
        }

    def lines():
        for w, d in entries:
            yield f"{_fmt_weight(w)} at delta-depth {d}"

    def rows():
        yield _weight_columns(rs.rank) + ["depth"]
        for w, d in entries:
            yield [*w, d]

    _render(out, args.format, "delta-max", doc, lines, rows)
    return EXIT_OK


def _cmd_gko(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    aff._require_affine(rs)
    m, n = args.m, args.n
    if m < n or n < 0:
        raise AlgebraError(f"gko requires m >= n >= 0, got m={m}, n={n}")
    if args.depth < 0:
        raise AlgebraError(f"depth must be non-negative, got {args.depth}")
    lam = None if args.lam is None else _parse_affine_weight(rs, args.lam)
    if lam is not None and not lam.is_dominant():
        raise AlgebraError(f"gko requires a dominant --lambda, got {lam}")
    h = rs.dual_coxeter
    # every line is built before the first is written, so an error leaves no output
    lines = [f"central charge: {aff.gko_central_charge(rs, m * h, n * h)}"]
    if lam is not None:
        betas = [lam - m * aff.affine_rho(rs)]
    elif n == 0:
        betas = []
    else:
        betas = [
            aff.affinize(rs, beta, n * h, -d)
            for _, beta, _, d in aff.predicted_components(rs, m, n, args.depth)
        ]
    failed = False
    for beta in betas:
        rep = aff.gko_positivity_certificate(rs, m, n, beta)
        lam_fin = tuple(m + b for b in beta.finite)
        terms = " + ".join(str(t) for t in rep.certificate_terms)
        lines.append(
            f"lambda={_fmt_weight(lam_fin)} shift={beta.delta_shift}: "
            f"L0 scalar {rep.l0_scalar} = ({terms}) / {rep.denominator}"
        )
        if rep.l0_scalar <= 0:
            failed = True
            lines.append("  NON-POSITIVE SCALAR")
    out.writelines(line + "\n" for line in lines)
    return EXIT_NEGATIVE if failed else EXIT_OK


def _cmd_cache(args, cache, out) -> int:
    if args.action in ("stat", "clear"):
        for name, value in (("algebra", args.algebra), ("--up-to", args.up_to)):
            if value is not None:
                raise AlgebraError(f"cache {args.action} takes no {name} argument, got {value!r}")
        cache = cache or default_cache()  # under --no-cache too: they act on the files on disk
    if args.action == "stat":
        entries = cache.stat()
        out.write(f"{len(entries)} cached character tables in {cache.root}\n")
        for name, size in entries:
            out.write(f"  {name}  {size} bytes\n")
        return EXIT_OK
    if args.action == "clear":
        removed = cache.clear()
        out.write(f"removed {removed} cached character tables from {cache.root}\n")
        return EXIT_OK
    # warm
    if cache is None:
        raise AlgebraError("cache warm stores tables in the disk cache, which --no-cache turns off")
    if not args.algebra or not args.up_to:
        raise AlgebraError("cache warm requires an algebra and --up-to bound")
    rs = build_root_system(args.algebra)
    rs._require_finite()
    bound = parse_weight(args.up_to, rs.rank)
    count = 0
    for lam in dominant_weights_below(rs, bound):
        freudenthal(rs, lam, cache)
        count += 1
    out.write(f"warmed {count} character tables for {rs.algebra} up to {_fmt_weight(bound)}\n")
    return EXIT_OK


# -- the command table ---------------------------------------------------------


def _integer(text: str) -> int:
    """argparse ``type`` of a count: ``parse_integer``, with ``int``'s message."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _arg(*flags, **kwargs):
    return flags, kwargs


_M, _N = _arg("m", type=_integer), _arg("n", type=_integer)
_DEPTH = _arg("--depth", type=_integer, default=aff.DEFAULT_DEPTH)
_FORMAT = _arg("--format", choices=["table", "json", "csv"], default="table")

# name -> (help, handler, *argument specs): every parser is built from this
# table. A string spec names plain positional arguments.
COMMANDS = {
    "decompose": (
        "decompose V(lhs) (x) V(rhs) for a finite type", _cmd_decompose, "algebra lhs rhs", _FORMAT
    ),
    "weights": ("dominant weight multiplicities of one irreducible", _cmd_weights, "algebra weight", _FORMAT),
    "conjecture": (
        "verify the translated-weight-set prediction for (m, n)", _cmd_conjecture, "algebra", _M, _N,
        _arg("--depth", type=_integer, default=aff.DEFAULT_DEPTH, help="delta truncation depth (affine)"),
        _FORMAT,
    ),
    "scan": (
        "batch conjecture verification over types and m >= n >= 0", _cmd_scan,
        _arg("algebras", nargs="*"), _arg("--max-sum", type=_integer, required=True), _FORMAT,
    ),
    "naive-scan": (
        "dominant weights below (m+n) rho absent from the product", _cmd_naive_scan, "algebra", _M, _N, _FORMAT
    ),
    "schur-compare": (
        "multiplicity dominance of one product over another", _cmd_schur_compare,
        "algebra lhs1 rhs1 lhs2 rhs2", _FORMAT,
    ),
    "support-contain": (
        "support containment under (m,n) -> (m-1,n+1)", _cmd_support_contain, "algebra", _M, _N
    ),
    "saturate": (
        "check V(d nu) inside V(d lam) (x) V(d mu)", _cmd_saturate,
        "algebra lhs rhs component", _arg("d", type=_integer),
    ),
    "affine-decompose": (
        "truncated affine tensor decomposition", _cmd_affine_decompose, "algebra lhs rhs", _DEPTH, _FORMAT
    ),
    "delta-max": (
        "delta-maximal weights of a truncated affine character", _cmd_delta_max,
        "algebra weight", _DEPTH, _FORMAT,
    ),
    "gko": (
        "GKO central charge, L0 scalars and positivity certificates", _cmd_gko, "algebra", _M, _N,
        _arg("--lambda", dest="lam", help="single component weight (affine coords)"), _DEPTH,
    ),
    "cache": (
        "character cache administration", _cmd_cache, _arg("action", choices=["stat", "clear", "warm"]),
        _arg("algebra", nargs="?"), _arg("--up-to", help="warm bound, e.g. 7,7"),
    ),
}


class _RaisingParser(argparse.ArgumentParser):
    """Raises a usage error where ``ArgumentParser`` prints it and exits."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``rho-tensor`` parser of every command in ``COMMANDS``, or of
    ``command`` alone. Both parse a valid command line to the same namespace.
    A usage line of the one-command parser would list one command, so it
    raises ``argparse.ArgumentError`` where the full parser prints and exits."""
    parser = (argparse.ArgumentParser if command is None else _RaisingParser)(
        prog="rho-tensor",
        description="Exact tensor decompositions of V(m rho) (x) V(n rho) and related scans.",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the on-disk character cache")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else [command]:
        help_, func, *specs = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for spec in specs:
            for flags, kwargs in map(_arg, spec.split()) if isinstance(spec, str) else [spec]:
                p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the command word's parser; the full one takes what it rejects."""
    command = next((a for a in argv if not a.startswith("-")), None)
    if command in COMMANDS:
        try:
            return build_parser(command).parse_args(argv)
        except argparse.ArgumentError:
            pass  # the full parser reports it
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    cache = None if args.no_cache else default_cache()
    try:
        return args.func(args, cache, out)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
