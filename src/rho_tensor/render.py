"""The output layer: every ``--format`` result of the command line is written
here. JSON documents carry ``meta: {kind, version}``; ``decompose``,
``weights``, finite ``conjecture``, ``scan``, ``naive-scan``,
``affine-decompose`` and ``delta-max`` write CSV, while ``schur-compare`` and
affine ``conjecture`` print their table for ``--format csv``.
"""

from __future__ import annotations

import csv
import json
from itertools import islice

from .rootdata import Weight

JSON_BATCH = 1 << 16  # chunks of JSON text per write


def fmt_weight(w: Weight) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


def weight_columns(rank: int) -> list[str]:
    return [f"w{i + 1}" for i in range(rank)]


def meta(kind: str) -> dict:
    return {"kind": kind, "version": 1}


def render(out, fmt: str, kind: str, doc, lines, rows=None) -> None:
    """Write one result in ``fmt``, building only that form. ``doc()`` is the
    JSON document (tuples are written as arrays), which gets ``meta`` of
    ``kind``; ``lines()`` the table lines; ``rows()`` the CSV rows, header
    first. A result without ``rows`` prints its table for ``--format csv``."""
    if fmt == "json":
        # json.dumps' text in batches of chunks: json.dump would write each
        # chunk on its own, and json.dumps holds every chunk before it joins them
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode({**doc(), "meta": meta(kind)})
        for batch in iter(lambda: "".join(islice(chunks, JSON_BATCH)), ""):
            out.write(batch)
        out.write("\n")
    elif fmt == "csv" and rows is not None:
        csv.writer(out).writerows(rows())
    else:
        out.writelines(line + "\n" for line in lines())


def render_multiplicities(out, fmt: str, kind: str, rank: int, head: dict, key: str, items, depth=False):
    """The weight -> multiplicity listing of ``decompose``, ``weights`` and
    ``affine-decompose``. ``items`` are sorted ``(weight, d, mult)``; the
    delta-depth ``d`` is shown only when ``depth`` is set. The JSON document
    is ``head`` with the entries under ``key``."""

    def entry(w, d, m):
        return {"weight": w, "depth": d, "mult": str(m)} if depth else {"weight": w, "mult": str(m)}

    def lines():
        for w, d, m in items:
            yield f"{m} x {fmt_weight(w)} at delta-depth {d}" if depth else f"{m} x {fmt_weight(w)}"

    def rows():
        yield weight_columns(rank) + (["depth", "mult"] if depth else ["mult"])
        for w, d, m in items:
            yield [*w, d, m] if depth else [*w, m]

    render(out, fmt, kind, lambda: {**head, key: [entry(*t) for t in items]}, lines, rows)


def conjecture_lines(rep):
    yield (
        f"{rep.algebra}  m={rep.m} n={rep.n}  verdict={rep.verdict}  "
        f"predicted={len(rep.predicted)} present={len(rep.present)} missing={len(rep.missing)}"
    )
    if rep.missing:
        yield "missing components:"
        yield from (f"  {fmt_weight(w)}" for w in rep.missing)


def conjecture_rows(rep):
    yield ["weight", "status"]
    missing = set(rep.missing)
    for w in rep.predicted:
        yield [" ".join(str(c) for c in w), "missing" if w in missing else "present"]


def affine_conjecture_lines(rep):
    yield (
        f"{rep.algebra}  m={rep.m} n={rep.n} depth={rep.depth}  "
        f"verdict={rep.verdict}  predicted={len(rep.predicted)} "
        f"present={len(rep.present)} missing={len(rep.missing)} "
        f"unexpected={len(rep.unexpected)}"
    )
    for e in rep.missing:
        note = "beta dominant" if e["beta_dominant"] else "beta non-dominant"
        yield f"  missing: {fmt_weight(e['weight'])} at depth {e['depth']} ({note})"
    for e in rep.unexpected:
        yield f"  unexpected delta-maximal component: {fmt_weight(e['weight'])} at depth {e['depth']}"
