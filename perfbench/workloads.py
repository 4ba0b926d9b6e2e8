"""The benchmark's four workloads: request pools, seeded draws and execution.

Each workload is a list of slots; an odd number of them on the small
workloads, so that the median latency falls inside one request's samples
instead of between two requests. A slot holds one or more variants that do
the same work: a Weyl-diagram automorphism image, the two factors of a
product in either order, or another output format. A seed picks one variant
per slot, so every seed gives different inputs at the same cost. On
``SHUFFLED`` workloads the seed also orders the requests. The others keep a
fixed order: there the order would decide which request pays for a shared
memoised or not yet cached table, and move the latency percentiles from
seed to seed. The goldens cover every variant of every slot (``pool``).

A request runs through the public API of ``rho_tensor`` and returns its
canonical output text and exit code; the digest of both is what the goldens
hold.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens"

WORKLOADS = ("finite_scan", "exceptional", "affine_products", "cli_requests")
SHUFFLED = ("finite_scan",)

# Lowest number of repeats (fresh processes) in one untraced run. The tail
# latency percentile of a workload is fixed from this count so that it does
# not move with the number of repeats that fit in the run.
MIN_REPEATS = 3


@dataclass(frozen=True)
class Request:
    kind: str  # conjecture | weights | klimyk | truncated | report | cli
    algebra: str
    args: tuple

    @property
    def key(self) -> str:
        return " ".join([self.kind, self.algebra, *(_fmt(a) for a in self.args)])


@dataclass
class Outcome:
    text: str
    exit: int
    verdict: str | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(f"{self.exit}\n{self.text}".encode()).hexdigest()


def _fmt(a) -> str:
    if isinstance(a, tuple):
        return ",".join(str(x) for x in a)
    return str(a)


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- slots -------------------------------------------------------------------

FINITE_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")


def _e6_mirror(w):
    """Image under the E6 diagram automorphism (Bourbaki 1<->6, 3<->5)."""
    return (w[5], w[1], w[4], w[3], w[2], w[0])


def _a3_mirror(w):
    return (w[2], w[1], w[0])


def _slots_finite_scan():
    # the acceptance sweep: m >= n >= 0, m + n <= 6; the seed only reorders
    return [
        [Request("conjecture", t, (total - n, n))]
        for t in FINITE_TYPES
        for total in range(7)
        for n in range(total // 2 + 1)
    ]


def _slots_exceptional():
    slots = [[Request("conjecture", "D4", (m, n))] for m, n in ((1, 0), (2, 0), (1, 1), (3, 0), (2, 1))]
    slots.append([Request("conjecture", "F4", (1, 1))])
    slots.append([Request("klimyk", "F4", ((1, 1, 1, 1), (1, 0, 0, 0)))])
    # triality permutes the outer nodes 1, 3, 4 of D4
    slots.append([Request("weights", "D4", (w,)) for w in ((1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1))])
    e6 = [
        (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
        (1, 0, 1, 0, 0, 0), (2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1),
        (0, 1, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0), (0, 2, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0),
    ]
    for w in e6:
        variants = dict.fromkeys([w, _e6_mirror(w)])
        slots.append([Request("weights", "E6", (v,)) for v in variants])
    lam, mu = (1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)
    slots.append([
        Request("klimyk", "E6", (lam, mu)),
        Request("klimyk", "E6", (_e6_mirror(lam), _e6_mirror(mu))),
    ])
    return slots


def _slots_affine_products():
    products = [
        ("A1~", 2, 1, 3), ("A1~", 2, 1, 10), ("A1~", 3, 1, 12), ("A1~", 2, 1, 20), ("A1~", 3, 2, 8),
        ("A2~", 1, 1, 4), ("A2~", 2, 1, 4), ("B2~", 1, 1, 3), ("B2~", 2, 1, 3),
        ("G2~", 1, 1, 3), ("A3~", 1, 1, 3),
    ]
    slots = [
        list({Request("truncated", alg, (a, b, d)): None for a, b in ((m, n), (n, m))})
        for alg, m, n, d in products
    ]
    for alg, m, n, d in (("A1~", 2, 1, 6), ("A2~", 1, 1, 4), ("B2~", 1, 1, 3)):
        slots.append([
            Request("report", alg, ("conjecture", m, n, "--depth", d, "--format", fmt))
            for fmt in ("table", "json")
        ])
        slots.append([Request("report", alg, ("gko", m, n, "--depth", d))])
    return slots


CLI_WEIGHTS = {
    "B2": [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3), (4, 2), (5, 5)],
    "G2": [(1, 0), (0, 1), (1, 1), (2, 1), (3, 3), (4, 4)],
    "A3": [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 1, 0), (2, 2, 2), (3, 1, 2)],
    "C3": [(1, 0, 0), (0, 0, 1), (1, 1, 1), (2, 1, 0), (2, 2, 2), (1, 2, 3)],
}
CLI_PRODUCTS = {
    "B2": [((5, 5), (2, 2)), ((4, 3), (3, 2)), ((3, 3), (1, 1)), ((2, 2), (2, 1))],
    "G2": [((3, 3), (2, 2)), ((4, 2), (2, 1)), ((2, 2), (1, 1))],
    "A3": [((2, 2, 2), (1, 1, 1)), ((3, 1, 0), (1, 2, 1)), ((1, 1, 1), (1, 1, 1))],
    "C3": [((2, 1, 1), (1, 1, 1)), ((2, 2, 2), (1, 0, 1)), ((1, 1, 1), (1, 0, 0))],
}
CLI_CONJECTURES = [("B2", 5, 2), ("B2", 3, 3), ("G2", 5, 2), ("G2", 3, 2), ("A3", 2, 2), ("A3", 3, 1), ("C3", 2, 1)]
FORMATS = ("table", "json", "csv")


def _cli(alg, *argv):
    return Request("cli", alg, (argv[0], alg, *argv[1:]))


def _slots_cli_requests():
    # every request once in each format, so that seeds do not change the mix of formats
    slots = []
    for f in FORMATS:
        for alg, weights in CLI_WEIGHTS.items():
            for w in weights:
                ws = dict.fromkeys([w, _a3_mirror(w)] if alg == "A3" else [w])
                slots.append([_cli(alg, "weights", _fmt(v), "--format", f) for v in ws])
        for alg, pairs in CLI_PRODUCTS.items():
            for a, b in pairs:
                slots.append([
                    _cli(alg, "decompose", _fmt(x), _fmt(y), "--format", f)
                    for x, y in dict.fromkeys([(a, b), (b, a)])
                ])
        for alg, m, n in CLI_CONJECTURES:
            slots.append([_cli(alg, "conjecture", str(m), str(n), "--format", f)])
    return slots


_SLOTS = {
    "finite_scan": _slots_finite_scan,
    "exceptional": _slots_exceptional,
    "affine_products": _slots_affine_products,
    "cli_requests": _slots_cli_requests,
}


def pool(workload: str) -> list[Request]:
    """Every request any seed can draw, once each."""
    return list(dict.fromkeys(r for slot in _SLOTS[workload]() for r in slot))


def draw(workload: str, seed: int) -> list[Request]:
    """The seed's request list: one variant per slot, in a seeded order on
    ``SHUFFLED`` workloads."""
    rng = random.Random(seed)
    reqs = [rng.choice(slot) for slot in _SLOTS[workload]()]
    if workload in SHUFFLED:
        rng.shuffle(reqs)
    return reqs


def tail_percentile(workload: str) -> int:
    """Highest whole percentile with at least ten samples beyond it in a run
    of ``MIN_REPEATS`` repeats (nearest-rank definition)."""
    n = len(_SLOTS[workload]()) * MIN_REPEATS
    return max(p for p in range(50, 100) if n - _rank(p, n) >= 10)


def _rank(p: int, n: int) -> int:
    return -(-p * n // 100)  # ceil(p n / 100), 1-based


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, _rank(p, len(ordered))) - 1]


# -- set-up and execution ----------------------------------------------------


class Context:
    """Root systems and the cache a workload's requests run against."""

    def __init__(self, workload: str, requests: list[Request]):
        from rho_tensor import cli  # imports every layer
        from rho_tensor.rootdata import build_root_system

        self.parser = cli.build_parser()
        self.systems = {alg: build_root_system(alg) for alg in dict.fromkeys(r.algebra for r in requests)}
        if workload == "cli_requests":
            self._fill_cache(requests)

    def _fill_cache(self, requests: list[Request]) -> None:
        """Store two of every three tables the requests need, so that the
        remaining third is computed and stored while the requests run: the
        middle one of each group of three, by dimension. A product needs the
        table of its smaller factor (ties to the second), as ``klimyk`` picks
        it; a conjecture case ``m n`` needs that of ``n rho``."""
        from rho_tensor.charcalc import clear_memory_cache, default_cache, freudenthal

        tables = set()
        for r in requests:
            rs = self.systems[r.algebra]
            cmd, rest = r.args[0], r.args[2:]
            if cmd == "weights":
                tables.add((r.algebra, _weight(rest[0])))
            elif cmd == "decompose":
                lam, mu = _weight(rest[0]), _weight(rest[1])
                tables.add((r.algebra, lam if rs.weyl_dimension(lam) < rs.weyl_dimension(mu) else mu))
            else:  # conjecture m n
                tables.add((r.algebra, (int(rest[1]),) * rs.rank))
        ordered = sorted(tables, key=lambda t: (self.systems[t[0]].weyl_dimension(t[1]), t))
        cache = default_cache()
        for i in range(0, len(ordered), 3):
            group = ordered[i : i + 3]
            group.pop(len(group) // 2)
            for alg, lam in group:
                freudenthal(self.systems[alg], lam, cache)
        clear_memory_cache()

    def prepare(self, req: Request) -> None:
        """Untimed reset before a request."""
        if req.kind == "cli":
            from rho_tensor.charcalc import clear_memory_cache

            clear_memory_cache()  # each CLI request behaves like a fresh invocation

    def execute(self, req: Request) -> Outcome:
        from rho_tensor import affine, cli
        from rho_tensor.charcalc import freudenthal
        from rho_tensor.harness import verify_conjecture
        from rho_tensor.tensor import klimyk

        rs = self.systems.get(req.algebra)
        if req.kind == "conjecture":
            rep = verify_conjecture(rs, *req.args)
            doc = {
                "verdict": rep.verdict,
                "predicted": rep.predicted,
                "present": rep.present,
                "missing": rep.missing,
            }
            return Outcome(_canon(doc), 0, rep.verdict)
        if req.kind == "weights":
            char = freudenthal(rs, req.args[0])
            return Outcome(_canon(sorted(char.mults.items())), 0)
        if req.kind == "klimyk":
            dec = klimyk(rs, *req.args)
            return Outcome(_canon(dec.sorted_items()), 0)
        if req.kind == "truncated":
            a, b, depth = req.args
            rho = affine.affine_rho(rs)
            dec = affine.truncated_tensor(rs, a * rho, b * rho, depth)
            return Outcome(_canon(sorted(dec.components.items())), 0)
        argv = [str(a) for a in req.args]
        out = io.StringIO()
        if req.kind == "report":
            # the CLI command itself, without cli.main's cache and I/O plumbing
            ns = self.parser.parse_args([argv[0], req.algebra, *argv[1:]])
            code = ns.func(ns, None, out)
        else:
            code = cli.main(argv, out)
        return Outcome(out.getvalue(), code)


def _weight(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def load_goldens(workload: str) -> dict[str, dict]:
    path = GOLDENS / f"{workload}.json"
    return json.loads(path.read_text())["requests"]


def source_digest() -> str:
    """sha256 over the library sources, standing in for the commit id where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((SRC / "rho_tensor").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()
