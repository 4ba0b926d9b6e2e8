"""Record the goldens: the digest and exit code of every request any seed can
draw, for each workload.

    python3 perfbench/record_goldens.py [workload ...]

Before writing, part of the outputs is cross-checked against the independent
oracles in ``tests/oracles.py`` and ``tensor.oracle_decompose``:

- every finite product with a dimension product of at most 1e5 against
  ``oracle_decompose``;
- every finite character table of dimension at most 5000 outside type E
  against ``character_by_weyl_formula`` (its division loop rescans every
  Weyl-orbit term per step: 51,840 of them on E6, and D4 ``V(rho)`` already
  takes minutes);
- every A1~ and A2~ factor character against ``affine_slices_by_weyl_kac``.

Any disagreement, or any request that raises, writes nothing and exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import workloads

MAX_PRODUCT_DIM = 10**5
MAX_WEYL_DIM = 5000


def finite_products(req):
    """(lam, mu) pairs whose decomposition the request's output shows."""
    if req.kind == "conjecture":
        m, n = req.args
        return [("conjecture", m, n)]
    if req.kind == "klimyk":
        return [tuple(req.args)]
    if req.kind == "cli" and req.args[0] == "decompose":
        return [(workloads._weight(req.args[2]), workloads._weight(req.args[3]))]
    if req.kind == "cli" and req.args[0] == "conjecture":
        return [("conjecture", int(req.args[2]), int(req.args[3]))]
    return []


def finite_tables(req, rs):
    """Highest weights of the character tables the request computes."""
    if req.kind == "weights":
        return [req.args[0]]
    if req.kind == "cli" and req.args[0] == "weights":
        return [workloads._weight(req.args[2])]
    out = []
    for pair in finite_products(req):
        if pair[0] == "conjecture":
            out.append((pair[2],) * rs.rank)
        else:
            lam, mu = pair
            out.append(lam if rs.weyl_dimension(lam) < rs.weyl_dimension(mu) else mu)
    return out


def cross_check(workload, ctx, outcomes, errors) -> int:
    sys.path.insert(0, str(workloads.ROOT / "tests"))
    from oracles import affine_slices_by_weyl_kac, character_by_weyl_formula

    from rho_tensor.affine import affine_freudenthal, affine_rho
    from rho_tensor.charcalc import freudenthal
    from rho_tensor.tensor import klimyk, oracle_decompose

    checked = set()
    for req, outcome in outcomes:
        rs = ctx.systems[req.algebra]
        if rs.algebra.affine:
            if req.kind != "truncated" or req.algebra not in ("A1~", "A2~"):
                continue
            a, b, depth = req.args
            for k in (a, b):
                if (req.algebra, k, depth) in checked:
                    continue
                checked.add((req.algebra, k, depth))
                char = affine_freudenthal(rs, k * affine_rho(rs), depth)
                oracle = affine_slices_by_weyl_kac(rs, k * affine_rho(rs), depth)
                dominant = [{w: m for w, m in sl.items() if min(w) >= 0} for sl in oracle]
                if dominant != list(char.slices):
                    errors.append(f"{workload}: {req.algebra} {k}rho depth {depth} differs from Weyl-Kac")
            continue
        for pair in finite_products(req):
            lam, mu = ((pair[1],) * rs.rank, (pair[2],) * rs.rank) if pair[0] == "conjecture" else pair
            if (req.algebra, lam, mu) in checked or rs.weyl_dimension(lam) * rs.weyl_dimension(mu) > MAX_PRODUCT_DIM:
                continue
            checked.add((req.algebra, lam, mu))
            expected = oracle_decompose(rs, lam, mu).components
            if klimyk(rs, lam, mu).components != expected:
                errors.append(f"{workload}: klimyk {req.algebra} {lam} x {mu} differs from oracle_decompose")
            if req.kind == "conjecture" and json.loads(outcome.text)["present"] != sorted(map(list, expected)):
                errors.append(f"{workload}: {req.key} support differs from oracle_decompose")
        for lam in finite_tables(req, rs):
            if (req.algebra, lam) in checked or rs.algebra.family == "E" or rs.weyl_dimension(lam) > MAX_WEYL_DIM:
                continue
            checked.add((req.algebra, lam))
            full = character_by_weyl_formula(rs, lam)
            if {w: m for w, m in full.items() if min(w) >= 0} != freudenthal(rs, lam).mults:
                errors.append(f"{workload}: {req.algebra} table {lam} differs from the Weyl formula")
    return len(checked)


def record(workload: str) -> tuple[dict, list[str], int]:
    from rho_tensor.charcalc import clear_memory_cache

    requests = workloads.pool(workload)
    ctx = workloads.Context(workload, requests)
    goldens, outcomes, errors = {}, [], []
    for req in requests:
        ctx.prepare(req)
        try:
            outcome = ctx.execute(req)
        except Exception as exc:  # reported below; nothing is written
            errors.append(f"{workload}: {req.key} raised {type(exc).__name__}: {exc}")
            continue
        entry = {"sha256": outcome.digest, "exit": outcome.exit}
        if outcome.verdict is not None:
            entry["verdict"] = outcome.verdict
        goldens[req.key] = entry
        outcomes.append((req, outcome))
    clear_memory_cache()
    checks = cross_check(workload, ctx, outcomes, errors)
    return goldens, errors, checks


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(workloads.SRC))
    names = argv or list(workloads.WORKLOADS)
    work = workloads.ROOT / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="goldens-cache-", dir=work)
    os.environ["RHO_TENSOR_CACHE"] = cache_dir
    results, failed = {}, False
    try:
        for name in names:
            started = time.monotonic()
            goldens, errors, checks = record(name)
            print(f"{name}: {len(goldens)} requests, {checks} oracle cross-checks, "
                  f"{time.monotonic() - started:.1f}s", flush=True)
            for e in errors:
                print(f"  MISMATCH {e}")
            failed |= bool(errors)
            results[name] = goldens
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if failed:
        print("goldens not written: fix the disagreement first")
        return 1
    workloads.GOLDENS.mkdir(exist_ok=True)
    for name, goldens in results.items():
        doc = {"source_sha256": workloads.source_digest(), "requests": goldens}
        (workloads.GOLDENS / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
