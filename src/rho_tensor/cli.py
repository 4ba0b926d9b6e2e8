"""Command-line front end: parses a command line, calls the library, and
prints the result. The commands cover decompositions, characters, the
conjecture reports and scans, affine truncated products, GKO data, and cache
administration.

Every ``--format`` result is written by the output layer, ``render``.

Every command line is read from one table, ``COMMANDS``. ``main`` reads a
plain, valid line (see ``_read_command_line``) straight from the table, with
no argparse parser; help, usage errors and every other form go to the parser
``build_parser`` builds from the same table, which prints and exits.

Exit codes: 0 success / verified; 1 verified-negative (a conjecture case
fails, dominance fails, or a depth-limited scan has missing weights);
2 usage or parse error; 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
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
from .render import (
    affine_conjecture_lines, conjecture_lines, conjecture_rows, fmt_weight, meta, render, render_multiplicities,
    weight_columns,
)
from .rootdata import (
    AlgebraError, AlgebraId, InvariantError, RootSystem, build_root_system, parse_integer, parse_weight,
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


# -- command implementations -------------------------------------------------


def _cmd_decompose(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = parse_weight(args.lhs, rs.rank)
    mu = parse_weight(args.rhs, rs.rank)
    dec = klimyk(rs, lam, mu, cache)
    head = {"algebra": dec.algebra, "lhs": dec.lhs, "rhs": dec.rhs}
    items = [(nu, None, m) for nu, m in dec.sorted_items()]
    render_multiplicities(out, args.format, "decomposition", rs.rank, head, "components", items)
    return EXIT_OK


def _cmd_weights(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = parse_weight(args.weight, rs.rank)
    char = freudenthal(rs, lam, cache)
    head = {"algebra": char.algebra, "highest": char.highest}
    items = [(w, None, m) for w, m in sorted(char.mults.items())]
    render_multiplicities(out, args.format, "character", rs.rank, head, "weights", items)
    return EXIT_OK


def _cmd_conjecture(args, cache, out) -> int:
    aid = AlgebraId.parse(args.algebra)
    if args.m < args.n or args.n < 0:
        raise AlgebraError(f"conjecture requires m >= n >= 0, got m={args.m}, n={args.n}")
    rs = build_root_system(aid)
    # the report's fields are the JSON document
    if aid.affine:
        rep = verify_affine_conjecture(rs, args.m, args.n, args.depth)
        render(
            out, args.format, "affine-conjecture-report",
            lambda: vars(rep), lambda: affine_conjecture_lines(rep),
        )
        return EXIT_NEGATIVE if rep.missing or rep.unexpected else EXIT_OK
    if args.depth < 0:  # unused on a finite type, but checked as on an affine one
        raise AlgebraError(f"depth must be non-negative, got {args.depth}")
    rep = verify_conjecture(rs, args.m, args.n, cache)
    render(
        out, args.format, "conjecture-report",
        lambda: vars(rep), lambda: conjecture_lines(rep), lambda: conjecture_rows(rep),
    )
    return EXIT_OK if rep.verdict == HOLDS else EXIT_NEGATIVE


def _cmd_scan(args, cache, out) -> int:
    if not args.algebras:
        raise AlgebraError("scan requires at least one algebra")
    reports = scan_all(args.algebras, args.max_sum, cache)

    def doc():
        return {"reports": [{**vars(r), "meta": meta("conjecture-report")} for r in reports]}

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

    render(out, args.format, "scan", doc, lines, rows)
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
            yield f"  {fmt_weight(w)}"

    render(out, args.format, "naive-scan", doc, lines, lambda: [weight_columns(rs.rank), *missing])
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
            yield f"  {fmt_weight(w)}: {ma} vs {mb}"

    render(out, args.format, "schur-compare", doc, lines)
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
        out.write(f"  {fmt_weight(w)}\n")
    return EXIT_NEGATIVE


def _cmd_saturate(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = parse_weight(args.lhs, rs.rank)
    mu = parse_weight(args.rhs, rs.rank)
    nu = parse_weight(args.component, rs.rank)
    ok = saturation_check(rs, lam, mu, nu, args.d, cache)
    out.write(
        f"V({args.d}*{fmt_weight(nu)}) {'IS' if ok else 'is NOT'} a component of "
        f"V({args.d}*{fmt_weight(lam)}) (x) V({args.d}*{fmt_weight(mu)})\n"
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
    render_multiplicities(
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
            yield f"{fmt_weight(w)} at delta-depth {d}"

    def rows():
        yield weight_columns(rs.rank) + ["depth"]
        for w, d in entries:
            yield [*w, d]

    render(out, args.format, "delta-max", doc, lines, rows)
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
    for beta in betas:
        rep = aff.gko_positivity_certificate(rs, m, n, beta)
        lam_fin = tuple(m + b for b in beta.finite)
        terms = " + ".join(str(t) for t in rep.certificate_terms)
        lines.append(
            f"lambda={fmt_weight(lam_fin)} shift={beta.delta_shift}: "
            f"L0 scalar {rep.l0_scalar} = ({terms}) / {rep.denominator}"
        )
    out.writelines(line + "\n" for line in lines)
    return EXIT_OK


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
    out.write(f"warmed {count} character tables for {rs.algebra} up to {fmt_weight(bound)}\n")
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


def _arguments(specs):
    """The ``(flags, kwargs)`` of each argument in a command's specs."""
    for spec in specs:
        yield from map(_arg, spec.split()) if isinstance(spec, str) else [spec]


def build_parser() -> argparse.ArgumentParser:
    """The ``rho-tensor`` parser of every command in ``COMMANDS``. ``main``
    reads a plain command line without it (see ``_read_command_line``); it
    takes help, usage errors and every other form that argparse accepts."""
    parser = argparse.ArgumentParser(
        prog="rho-tensor",
        description="Exact tensor decompositions of V(m rho) (x) V(n rho) and related scans.",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the on-disk character cache")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, *specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in _arguments(specs):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _value(kwargs: dict, text: str):
    """``text`` through an argument's ``type`` and ``choices``, as argparse
    takes it; ``None`` where argparse would reject it."""
    try:
        value = kwargs["type"](text) if "type" in kwargs else text
    except argparse.ArgumentTypeError:
        return None
    return None if "choices" in kwargs and value not in kwargs["choices"] else value


def _dest(flag: str, kwargs: dict) -> str:
    """The namespace attribute of an option, named as argparse names it."""
    return kwargs.get("dest", flag[2:].replace("-", "_"))


def _read_command_line(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives a plain, valid
    command line, read straight from ``COMMANDS``; ``None`` for any other line.

    A plain line is an optional leading ``--no-cache``, a command word, one
    value for each of its positionals, then its options: each option an exact
    flag of the command, given once and followed by a value. No value may
    begin with ``-``, and every value must pass its ``type`` and ``choices``.
    A command with an ``nargs`` or ``required`` argument (``scan``,
    ``cache``) is left to argparse, as are help, ``--``, abbreviations,
    ``--flag=value``, options before positionals, negative values and
    repeated flags."""
    no_cache = argv[:1] == ["--no-cache"]
    word, *rest = argv[no_cache:] or [None]
    if word not in COMMANDS:
        return None
    _, func, *specs = COMMANDS[word]
    args = list(_arguments(specs))
    if any("nargs" in kwargs or "required" in kwargs for _, kwargs in args):
        return None
    options = {flags[0]: kwargs for flags, kwargs in args if flags[0].startswith("-")}
    positionals = [(flags[0], kwargs) for flags, kwargs in args if flags[0] not in options]
    values, given = rest[: len(positionals)], rest[len(positionals):]
    if len(values) < len(positionals) or len(given) % 2:
        return None
    fields = list(zip(positionals, values))
    for flag, text in zip(given[::2], given[1::2]):
        kwargs = options.pop(flag, None)
        if kwargs is None:
            return None
        fields.append(((_dest(flag, kwargs), kwargs), text))
    ns = {"no_cache": no_cache, "command": word, "func": func}
    for (dest, kwargs), text in fields:
        value = None if text.startswith("-") else _value(kwargs, text)
        if value is None:
            return None
        ns[dest] = value
    for flag, kwargs in options.items():
        ns[_dest(flag, kwargs)] = kwargs.get("default")
    return argparse.Namespace(**ns)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Read a plain command line from ``COMMANDS``; argparse takes the rest,
    printing help or a usage error and exiting as it does."""
    ns = _read_command_line(argv)
    return build_parser().parse_args(argv) if ns is None else ns


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
