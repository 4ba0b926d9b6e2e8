"""Command-line front end: decompositions, conjecture scans, affine truncated
reports, GKO data, and cache administration.

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
from .charcalc import DominantCharacter, default_cache, dominant_weights_below, freudenthal
from .harness import (
    DEPTH_LIMITED,
    FAILS,
    HOLDS,
    ConjectureReport,
    naive_condition_scan,
    scan_all,
    support_containment_check,
    verify_conjecture,
)
from .rootdata import AlgebraError, AlgebraId, InvariantError, RootSystem, Weight, build_root_system, weyl_orbit
from .tensor import Decomposition, klimyk, saturation_check, schur_compare

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_finite_weight(rs: RootSystem, text: str) -> Weight:
    from .rootdata import parse_weight

    return parse_weight(text, rs.rank)


def _parse_affine_weight(rs: RootSystem, text: str) -> aff.AffineWeight:
    body, _, shift_part = text.partition(":")
    shift = 0
    if shift_part:
        if not shift_part.startswith("d"):
            raise AlgebraError(f"bad delta-shift suffix in {text!r}: expected ':dN'")
        try:
            shift = int(shift_part[1:])
        except ValueError:
            raise AlgebraError(f"bad delta-shift suffix in {text!r}: expected ':dN'") from None
    from .rootdata import parse_weight

    coords = parse_weight(body, rs.rank + 1)
    return aff.AffineWeight(coords, shift)


def _fmt_weight(w: Weight) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


def _mult_str(m: int) -> str:
    return str(m)


# -- decomposition serialization --------------------------------------------


def decomposition_to_json_dict(dec: Decomposition) -> dict:
    return {
        "algebra": dec.algebra,
        "lhs": list(dec.lhs),
        "rhs": list(dec.rhs),
        "components": [
            {"weight": list(nu), "mult": _mult_str(m)} for nu, m in dec.sorted_items()
        ],
        "meta": {"kind": "decomposition", "version": 1},
    }


def decomposition_from_json_dict(doc: dict) -> Decomposition:
    return Decomposition(
        algebra=doc["algebra"],
        lhs=tuple(doc["lhs"]),
        rhs=tuple(doc["rhs"]),
        components={tuple(e["weight"]): int(e["mult"]) for e in doc["components"]},
    )


def _emit_decomposition(dec: Decomposition, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(decomposition_to_json_dict(dec), out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow([f"w{i+1}" for i in range(len(dec.lhs))] + ["mult"])
        for nu, m in dec.sorted_items():
            writer.writerow(list(nu) + [m])
    else:
        for nu, m in dec.sorted_items():
            out.write(f"{m} x {_fmt_weight(nu)}\n")


def _emit_character(char: DominantCharacter, fmt: str, out) -> None:
    items = sorted(char.mults.items())
    if fmt == "json":
        doc = {
            "algebra": char.algebra,
            "highest": list(char.highest),
            "weights": [{"weight": list(w), "mult": _mult_str(m)} for w, m in items],
            "meta": {"kind": "character", "version": 1},
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow([f"w{i+1}" for i in range(len(char.highest))] + ["mult"])
        for w, m in items:
            writer.writerow(list(w) + [m])
    else:
        for w, m in items:
            out.write(f"{m} x {_fmt_weight(w)}\n")


def conjecture_report_to_json_dict(rep: ConjectureReport) -> dict:
    return {
        "algebra": rep.algebra,
        "m": rep.m,
        "n": rep.n,
        "verdict": rep.verdict,
        "predicted": [list(w) for w in rep.predicted],
        "present": [list(w) for w in rep.present],
        "missing": [list(w) for w in rep.missing],
        "error": rep.error,
        "meta": {"kind": "conjecture-report", "version": 1},
    }


def _emit_conjecture(rep: ConjectureReport, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(conjecture_report_to_json_dict(rep), out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["weight", "status"])
        missing = set(rep.missing)
        for w in rep.predicted:
            writer.writerow([" ".join(str(c) for c in w), "missing" if w in missing else "present"])
    else:
        out.write(
            f"{rep.algebra}  m={rep.m} n={rep.n}  verdict={rep.verdict}  "
            f"predicted={len(rep.predicted)} present={len(rep.present)} missing={len(rep.missing)}\n"
        )
        if rep.missing:
            out.write("missing components:\n")
            for w in rep.missing:
                out.write(f"  {_fmt_weight(w)}\n")
        if rep.error:
            out.write(f"error: {rep.error}\n")


# -- command implementations -------------------------------------------------


def _cmd_decompose(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = _parse_finite_weight(rs, args.lhs)
    mu = _parse_finite_weight(rs, args.rhs)
    dec = klimyk(rs, lam, mu, cache)
    _emit_decomposition(dec, args.format, out)
    return EXIT_OK


def _cmd_weights(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    rs._require_finite()
    lam = _parse_finite_weight(rs, args.weight)
    char = freudenthal(rs, lam, cache)
    _emit_character(char, args.format, out)
    return EXIT_OK


def _cmd_conjecture(args, cache, out) -> int:
    aid = AlgebraId.parse(args.algebra)
    if args.m < args.n or args.n < 0:
        raise AlgebraError(f"conjecture requires m >= n >= 0, got m={args.m}, n={args.n}")
    if aid.affine:
        rs = build_root_system(aid)
        rep = affine_conjecture_report(rs, args.m, args.n, args.depth)
        _emit_affine_conjecture(rep, args.format, out)
        bad = rep["missing"] or rep["unexpected"]
        return EXIT_NEGATIVE if bad else EXIT_OK
    rs = build_root_system(aid)
    rep = verify_conjecture(rs, args.m, args.n, cache)
    _emit_conjecture(rep, args.format, out)
    return EXIT_OK if rep.verdict == HOLDS else EXIT_NEGATIVE


def affine_conjecture_report(rs: RootSystem, m: int, n: int, depth: int) -> dict:
    """Depth-qualified affine scan: predicted components come from the
    delta-maximal weights of V(n rho); presence is checked at shift zero."""
    h = rs.dual_coxeter
    rho = aff.affine_rho(rs)
    char_n = aff.affine_freudenthal(rs, n * rho, depth)
    mrho_fin = (m,) * rs.rank
    lvl = (m + n) * h
    predicted = []
    for beta_dom, d in aff.delta_max_weights(char_n):
        beta_aff_dominant = aff.theta_pairing(rs, beta_dom) <= n * h
        for beta in weyl_orbit(rs, beta_dom):
            lam_fin = tuple(a + b for a, b in zip(mrho_fin, beta))
            if all(x >= 0 for x in lam_fin) and aff.theta_pairing(rs, lam_fin) <= lvl:
                predicted.append(
                    (lam_fin, d, beta_aff_dominant and beta == beta_dom)
                )
    predicted.sort(key=lambda t: (t[1], t[0]))
    dec = aff.truncated_tensor(rs, m * rho, n * rho, depth)
    present, missing = [], []
    for lam_fin, d, dom_beta in predicted:
        (present if (lam_fin, d) in dec.components else missing).append((lam_fin, d, dom_beta))
    predicted_keys = {(w, d) for w, d, _ in predicted}
    unexpected = [wd for wd in dec.delta_max_components() if wd not in predicted_keys]
    return {
        "algebra": str(rs.algebra),
        "m": m,
        "n": n,
        "depth": depth,
        "verdict": DEPTH_LIMITED,
        "predicted": predicted,
        "present": present,
        "missing": missing,
        "unexpected": unexpected,
    }


def _emit_affine_conjecture(rep: dict, fmt: str, out) -> None:
    if fmt == "json":
        doc = dict(rep)
        doc["predicted"] = [
            {"weight": list(w), "depth": d, "beta_dominant": b} for w, d, b in rep["predicted"]
        ]
        doc["present"] = [
            {"weight": list(w), "depth": d, "beta_dominant": b} for w, d, b in rep["present"]
        ]
        doc["missing"] = [
            {"weight": list(w), "depth": d, "beta_dominant": b} for w, d, b in rep["missing"]
        ]
        doc["unexpected"] = [{"weight": list(w), "depth": d} for w, d in rep["unexpected"]]
        doc["meta"] = {"kind": "affine-conjecture-report", "version": 1}
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(
            f"{rep['algebra']}  m={rep['m']} n={rep['n']} depth={rep['depth']}  "
            f"verdict={rep['verdict']}  predicted={len(rep['predicted'])} "
            f"present={len(rep['present'])} missing={len(rep['missing'])} "
            f"unexpected={len(rep['unexpected'])}\n"
        )
        for w, d, dom_beta in rep["missing"]:
            note = "beta dominant" if dom_beta else "beta non-dominant"
            out.write(f"  missing: {_fmt_weight(w)} at depth {d} ({note})\n")
        for w, d in rep["unexpected"]:
            out.write(f"  unexpected delta-maximal component: {_fmt_weight(w)} at depth {d}\n")


def _cmd_scan(args, cache, out) -> int:
    if not args.algebras:
        raise AlgebraError("scan requires at least one algebra")
    reports = scan_all(args.algebras, args.max_sum, cache)
    if args.format == "json":
        json.dump(
            {"reports": [conjecture_report_to_json_dict(r) for r in reports],
             "meta": {"kind": "scan", "version": 1}},
            out, indent=2, sort_keys=True,
        )
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["algebra", "m", "n", "verdict", "predicted", "missing"])
        for r in reports:
            writer.writerow([r.algebra, r.m, r.n, r.verdict, len(r.predicted), len(r.missing)])
    else:
        for r in reports:
            out.write(
                f"{r.algebra:>4}  m={r.m} n={r.n}  {r.verdict}"
                f"  predicted={len(r.predicted)} missing={len(r.missing)}\n"
            )
    if any(r.verdict == "ERROR" for r in reports):
        return EXIT_INTERNAL
    return EXIT_NEGATIVE if any(r.verdict == FAILS for r in reports) else EXIT_OK


def _cmd_naive_scan(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    missing = naive_condition_scan(rs, args.m, args.n, cache)
    if args.format == "json":
        json.dump(
            {"algebra": str(rs.algebra), "m": args.m, "n": args.n,
             "absent": [list(w) for w in missing], "meta": {"kind": "naive-scan", "version": 1}},
            out, indent=2, sort_keys=True,
        )
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow([f"w{i+1}" for i in range(rs.rank)])
        for w in missing:
            writer.writerow(list(w))
    else:
        out.write(f"{len(missing)} dominant weights below (m+n) rho missing from the product:\n")
        for w in missing:
            out.write(f"  {_fmt_weight(w)}\n")
    return EXIT_OK


def _cmd_schur_compare(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    a = klimyk(rs, _parse_finite_weight(rs, args.lhs1), _parse_finite_weight(rs, args.rhs1), cache)
    b = klimyk(rs, _parse_finite_weight(rs, args.lhs2), _parse_finite_weight(rs, args.rhs2), cache)
    rep = schur_compare(a, b)
    if args.format == "json":
        json.dump(
            {"dominates": rep.dominates,
             "witnesses": [{"weight": list(w), "mult_first": ma, "mult_second": mb}
                           for w, ma, mb in rep.witnesses],
             "meta": {"kind": "schur-compare", "version": 1}},
            out, indent=2, sort_keys=True,
        )
        out.write("\n")
    else:
        if rep.dominates:
            out.write("second decomposition dominates the first (multiplicity-wise)\n")
        else:
            out.write("dominance FAILS at:\n")
            for w, ma, mb in rep.witnesses:
                out.write(f"  {_fmt_weight(w)}: {ma} vs {mb}\n")
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
    lam = _parse_finite_weight(rs, args.lhs)
    mu = _parse_finite_weight(rs, args.rhs)
    nu = _parse_finite_weight(rs, args.component)
    ok = saturation_check(rs, lam, mu, nu, args.d, cache)
    out.write(
        f"V({args.d}*{_fmt_weight(nu)}) {'IS' if ok else 'is NOT'} a component of "
        f"V({args.d}*{_fmt_weight(lam)}) (x) V({args.d}*{_fmt_weight(mu)})\n"
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_affine_decompose(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    lam = _parse_affine_weight(rs, args.lhs)
    mu = _parse_affine_weight(rs, args.rhs)
    dec = aff.truncated_tensor(rs, lam, mu, args.depth)
    items = sorted(dec.components.items(), key=lambda t: (t[0][1], t[0][0]))
    if args.format == "json":
        doc = {
            "algebra": str(rs.algebra),
            "lhs": list(lam.fund), "lhs_shift": lam.delta_shift,
            "rhs": list(mu.fund), "rhs_shift": mu.delta_shift,
            "depth": args.depth,
            "components": [
                {"weight": list(w), "depth": d, "mult": _mult_str(m)} for (w, d), m in items
            ],
            "meta": {"kind": "affine-decomposition", "version": 1},
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow([f"w{i+1}" for i in range(rs.rank)] + ["depth", "mult"])
        for (w, d), m in items:
            writer.writerow(list(w) + [d, m])
    else:
        for (w, d), m in items:
            out.write(f"{m} x {_fmt_weight(w)} at delta-depth {d}\n")
    return EXIT_OK


def _cmd_delta_max(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    lam = _parse_affine_weight(rs, args.weight)
    char = aff.affine_freudenthal(rs, lam, args.depth)
    entries = aff.delta_max_weights(char)
    if args.format == "json":
        doc = {
            "algebra": str(rs.algebra),
            "highest": list(lam.fund), "shift": lam.delta_shift, "depth": args.depth,
            "delta_maximal": [{"weight": list(w), "depth": d} for w, d in entries],
            "meta": {"kind": "delta-max", "version": 1},
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow([f"w{i+1}" for i in range(rs.rank)] + ["depth"])
        for w, d in entries:
            writer.writerow(list(w) + [d])
    else:
        for w, d in entries:
            out.write(f"{_fmt_weight(w)} at delta-depth {d}\n")
    return EXIT_OK


def _cmd_gko(args, cache, out) -> int:
    rs = build_root_system(args.algebra)
    if not rs.algebra.affine:
        raise AlgebraError(f"gko requires an affine algebra, got {rs.algebra}")
    m, n = args.m, args.n
    if m < n or n < 0:
        raise AlgebraError(f"gko requires m >= n >= 0, got m={m}, n={n}")
    h = rs.dual_coxeter
    cc = aff.gko_central_charge(rs, m * h, n * h)
    out.write(f"central charge: {cc}\n")
    if n == 0:
        return EXIT_OK
    rho = aff.affine_rho(rs)
    if args.lam is not None:
        lam = _parse_affine_weight(rs, args.lam)
        betas = [lam - m * rho]
    else:
        char_n = aff.affine_freudenthal(rs, n * rho, args.depth)
        betas = []
        for beta_dom, d in aff.delta_max_weights(char_n):
            for beta_fin in weyl_orbit(rs, beta_dom):
                lam_fin = tuple(m + b for b in beta_fin)
                if all(x >= 0 for x in lam_fin) and aff.theta_pairing(rs, lam_fin) <= (m + n) * h:
                    betas.append(aff.affinize(rs, beta_fin, n * h, -d))
    failed = False
    for beta in betas:
        rep = aff.gko_positivity_certificate(rs, m, n, beta)
        lam_fin = tuple(m + b for b in beta.finite)
        terms = " + ".join(str(t) for t in rep.certificate_terms)
        out.write(
            f"lambda={_fmt_weight(lam_fin)} shift={beta.delta_shift}: "
            f"L0 scalar {rep.l0_scalar} = ({terms}) / {rep.denominator}\n"
        )
        if rep.l0_scalar <= 0:
            failed = True
            out.write("  NON-POSITIVE SCALAR\n")
    return EXIT_NEGATIVE if failed else EXIT_OK


def _cmd_cache(args, cache, out) -> int:
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
    if not args.algebra or not args.up_to:
        raise AlgebraError("cache warm requires an algebra and --up-to bound")
    rs = build_root_system(args.algebra)
    rs._require_finite()
    bound = _parse_finite_weight(rs, args.up_to)
    count = 0
    for lam in dominant_weights_below(rs, bound):
        freudenthal(rs, lam, cache)
        count += 1
    out.write(f"warmed {count} character tables for {rs.algebra} up to {_fmt_weight(bound)}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rho-tensor",
        description="Exact tensor decompositions of V(m rho) (x) V(n rho) and related scans.",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the on-disk character cache")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["table", "json", "csv"], default="table")

    p = sub.add_parser("decompose", help="decompose V(lhs) (x) V(rhs) for a finite type")
    p.add_argument("algebra")
    p.add_argument("lhs")
    p.add_argument("rhs")
    add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("weights", help="dominant weight multiplicities of one irreducible")
    p.add_argument("algebra")
    p.add_argument("weight")
    add_format(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("conjecture", help="verify the translated-weight-set prediction for (m, n)")
    p.add_argument("algebra")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--depth", type=int, default=aff.DEFAULT_DEPTH, help="delta truncation depth (affine)")
    add_format(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("scan", help="batch conjecture verification over types and m >= n >= 0")
    p.add_argument("algebras", nargs="*")
    p.add_argument("--max-sum", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("naive-scan", help="dominant weights below (m+n) rho absent from the product")
    p.add_argument("algebra")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_naive_scan)

    p = sub.add_parser("schur-compare", help="multiplicity dominance of one product over another")
    p.add_argument("algebra")
    p.add_argument("lhs1")
    p.add_argument("rhs1")
    p.add_argument("lhs2")
    p.add_argument("rhs2")
    add_format(p)
    p.set_defaults(func=_cmd_schur_compare)

    p = sub.add_parser("support-contain", help="support containment under (m,n) -> (m-1,n+1)")
    p.add_argument("algebra")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_support_contain)

    p = sub.add_parser("saturate", help="check V(d nu) inside V(d lam) (x) V(d mu)")
    p.add_argument("algebra")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("component")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("affine-decompose", help="truncated affine tensor decomposition")
    p.add_argument("algebra")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--depth", type=int, default=aff.DEFAULT_DEPTH)
    add_format(p)
    p.set_defaults(func=_cmd_affine_decompose)

    p = sub.add_parser("delta-max", help="delta-maximal weights of a truncated affine character")
    p.add_argument("algebra")
    p.add_argument("weight")
    p.add_argument("--depth", type=int, default=aff.DEFAULT_DEPTH)
    add_format(p)
    p.set_defaults(func=_cmd_delta_max)

    p = sub.add_parser("gko", help="GKO central charge, L0 scalars and positivity certificates")
    p.add_argument("algebra")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--lambda", dest="lam", default=None, help="single component weight (affine coords)")
    p.add_argument("--depth", type=int, default=aff.DEFAULT_DEPTH)
    p.set_defaults(func=_cmd_gko)

    p = sub.add_parser("cache", help="character cache administration")
    p.add_argument("action", choices=["stat", "clear", "warm"])
    p.add_argument("algebra", nargs="?")
    p.add_argument("--up-to", default=None, help="warm bound, e.g. 7,7")
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    cache = default_cache(enabled=not args.no_cache)
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
