"""Self-tests of the benchmark: request lists, count identities of the trace,
and outputs that do not change when tracing is on.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

SEED = 7


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def repeats(request, tmp_path_factory):
    """One untraced and one traced repeat of a workload on the same seed."""
    run.WORK.mkdir(exist_ok=True)
    spans = tmp_path_factory.mktemp("spans") / "spans.jsonl"
    plain = run.run_repeat(request.param, SEED, False, None, timeout=120)
    traced = run.run_repeat(request.param, SEED, True, spans, timeout=120)
    return request.param, plain, traced, [json.loads(line) for line in spans.read_text().splitlines()]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_draws_from_the_goldens(workload):
    goldens = workloads.load_goldens(workload)
    assert set(goldens) == {r.key for r in workloads.pool(workload)}
    for seed in range(20):
        reqs = workloads.draw(workload, seed)
        assert reqs == workloads.draw(workload, seed)
        assert {r.key for r in reqs} <= set(goldens)


def test_tail_percentile_leaves_ten_samples_beyond():
    for workload in workloads.WORKLOADS:
        n = len(workloads.draw(workload, 0)) * workloads.MIN_REPEATS
        p = workloads.tail_percentile(workload)
        assert n - workloads._rank(p, n) >= 10
        assert n - workloads._rank(p + 1, n) < 10 or p == 99


def test_finite_scan_is_the_acceptance_sweep():
    reqs = workloads.draw("finite_scan", SEED)
    assert len(reqs) == 7 * 16 == 112
    assert Counter(r.algebra for r in reqs) == {t: 16 for t in workloads.FINITE_TYPES}
    goldens = workloads.load_goldens("finite_scan")
    assert Counter(g["verdict"] for g in goldens.values()) == {"HOLDS": 112}


def test_outputs_match_goldens_and_do_not_depend_on_tracing(repeats):
    workload, plain, traced, _ = repeats
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["digests"] == traced["digests"]
    assert set(plain["digests"]) == {r.key for r in workloads.draw(workload, SEED)}
    if workload == "finite_scan":
        assert plain["verdicts"] == {"HOLDS": 112}


def test_freudenthal_calls_split_into_memo_disk_and_computed(repeats):
    workload, _, traced, _ = repeats
    layers = traced["layers"]
    calls = layers["charcalc.freudenthal.calls"]
    parts = sum(layers[f"charcalc.freudenthal.{k}"] for k in ("memo_hits", "disk_hits", "computed"))
    assert calls == parts
    if workload == "cli_requests":
        assert layers["charcalc.freudenthal.disk_hits"] > 0
        assert layers["charcalc.cache_store.calls"] > 0
    else:
        assert layers["charcalc.cache_load.calls"] == 0


def test_klimyk_orbit_terms_are_the_smaller_factors_weights(repeats):
    from rho_tensor.charcalc import freudenthal
    from rho_tensor.rootdata import build_root_system

    workload, _, _, spans = repeats
    klimyk_spans = [s for s in spans if s["name"] == "tensor.klimyk"]
    assert bool(klimyk_spans) == (workload != "affine_products")
    for s in klimyk_spans:
        algebra, lam, mu = s["attrs"]["args"]
        rs = build_root_system(algebra)
        lam, mu = tuple(lam), tuple(mu)
        small = lam if rs.weyl_dimension(lam) < rs.weyl_dimension(mu) else mu
        assert s["attrs"].get("orbit_terms", 0) == len(freudenthal(rs, small).full_weights(rs))


def test_layers_outside_a_workload_read_zero(repeats):
    workload, _, traced, _ = repeats
    layers = traced["layers"]
    if workload != "affine_products":
        assert layers["affine.affine_freudenthal.calls"] == 0
        assert layers["affine.truncated_tensor.calls"] == 0
    if workload != "cli_requests":
        assert layers["cli.main.calls"] == 0
    if workload == "affine_products":
        assert layers["charcalc.freudenthal.calls"] == 0
        assert layers["rootdata.weyl_dimension.calls"] == 0
