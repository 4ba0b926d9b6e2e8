"""Command-line surface: formats, exit codes, schema round-trips, cache admin."""

import io
import json
from pathlib import Path

import pytest

from rho_tensor.charcalc import CharCache, clear_memory_cache, freudenthal
from rho_tensor.cli import (
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    decomposition_from_json_dict,
    main,
)
from rho_tensor.rootdata import build_root_system
from rho_tensor.tensor import klimyk


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(tmp_path / "cache"))
    yield


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# argv (space-joined) -> exit code and stdout, one entry per subcommand and
# --format; every later change to the CLI or the library must keep them
GOLDEN_CLI = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("argv", sorted(GOLDEN_CLI))
def test_golden_outputs(argv):
    code, text = run(*argv.split())
    assert (code, text) == (GOLDEN_CLI[argv]["exit"], GOLDEN_CLI[argv]["stdout"])


def test_decompose_table_b2():
    code, text = run("decompose", "B2", "5,5", "2,2")
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert len(lines) == 34
    assert "5 x (5,5)" in lines


def test_decompose_a1():
    code, text = run("decompose", "A1", "2", "1")
    assert code == EXIT_OK
    assert text.splitlines() == ["1 x (1)", "1 x (3)"]


def test_decompose_json_round_trip():
    code, text = run("decompose", "G2", "3,3", "4,4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["meta"]["kind"] == "decomposition"
    entry = {tuple(e["weight"]): e["mult"] for e in doc["components"]}
    assert entry[(4, 4)] == "48"
    rebuilt = decomposition_from_json_dict(doc)
    direct = klimyk(build_root_system("G2"), (3, 3), (4, 4))
    assert rebuilt.components == direct.components
    assert (rebuilt.algebra, rebuilt.lhs, rebuilt.rhs) == ("G2", (3, 3), (4, 4))


def test_decompose_csv():
    code, text = run("decompose", "A1", "2", "1", "--format", "csv")
    assert code == EXIT_OK
    assert text.splitlines() == ["w1,mult", "1,1", "3,1"]


def test_weights_command():
    code, text = run("weights", "A1", "4")
    assert code == EXIT_OK
    assert text.splitlines() == ["1 x (0)", "1 x (2)", "1 x (4)"]


def test_conjecture_finite():
    code, text = run("conjecture", "G2", "5", "2")
    assert code == EXIT_OK
    assert "verdict=HOLDS" in text
    code, text = run("conjecture", "A1", "3", "0")
    assert code == EXIT_OK
    assert "predicted=1" in text


def test_conjecture_affine_depth_limited():
    code, text = run("conjecture", "A1~", "2", "1", "--depth", "6")
    assert code == EXIT_OK
    assert "verdict=DEPTH_LIMITED" in text and "missing=0" in text


def test_conjecture_affine_sl3_reports_beta_dominance():
    code, text = run("conjecture", "A2~", "2", "1", "--depth", "3", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["verdict"] == "DEPTH_LIMITED"
    assert doc["missing"] == [] and doc["unexpected"] == []
    # entries from non-dominant delta-maximal beta are flagged, kept separate
    flags = {e["beta_dominant"] for e in doc["predicted"]}
    assert flags == {True, False}


def test_conjecture_usage_error(capsys):
    code, _ = run("conjecture", "A1", "1", "2")
    assert code == EXIT_USAGE
    # n = 0 is a usage error on affine types only, caught before any computation
    capsys.readouterr()
    assert run("conjecture", "A1~", "1", "0") == (EXIT_USAGE, "")
    assert "conjecture on an affine type requires n >= 1" in capsys.readouterr().err
    code, text = run("conjecture", "A1", "3", "0")
    assert code == EXIT_OK and "predicted=1" in text


def test_scan_command():
    code, text = run("scan", "B2", "--max-sum", "4")
    assert code == EXIT_OK
    assert all("HOLDS" in line for line in text.strip().splitlines())
    code, _ = run("scan", "--max-sum", "3")
    assert code == EXIT_USAGE
    assert run("scan", "A1", "--max-sum", "-1") == (EXIT_USAGE, "")


def test_naive_scan_command():
    code, text = run("naive-scan", "B2", "5", "2")
    assert code == EXIT_OK
    assert text.startswith("16 dominant weights")
    assert "(0,1)" in text


def test_schur_compare_command():
    code, text = run("schur-compare", "G2", "5,5", "2,2", "3,3", "4,4")
    assert code == EXIT_OK and "dominates" in text
    code, text = run("schur-compare", "G2", "3,3", "4,4", "5,5", "2,2")
    assert code == EXIT_NEGATIVE and "FAILS" in text


def test_support_contain_command():
    code, _ = run("support-contain", "B2", "5", "2")
    assert code == EXIT_OK


def test_saturate_command():
    code, text = run("saturate", "B2", "5,5", "2,2", "7,7", "1")
    assert code == EXIT_OK and "IS" in text
    code, text = run("saturate", "B2", "5,5", "2,2", "0,1", "1")
    assert code == EXIT_NEGATIVE
    # root-lattice violation is reported as usage, not as a false result
    code, _ = run("saturate", "A2", "1,0", "0,0", "0,1", "2")
    assert code == EXIT_USAGE


def test_affine_decompose_command():
    code, text = run("affine-decompose", "A1~", "1,1", "1,1", "--depth", "2")
    assert code == EXIT_OK
    assert "1 x (2) at delta-depth 0" in text
    code, text = run("affine-decompose", "A1~", "1,1", "1,1", "--depth", "2", "--format", "json")
    doc = json.loads(text)
    table = {(tuple(e["weight"]), e["depth"]): e["mult"] for e in doc["components"]}
    assert table[((2,), 0)] == "1"
    assert table[((0,), 0)] == "1"


def test_delta_max_command():
    code, text = run("delta-max", "A1~", "2,2", "--depth", "4")
    assert code == EXIT_OK
    assert "(0) at delta-depth 0" in text and "(4) at delta-depth 1" in text


def test_gko_command(capsys):
    code, text = run("gko", "A1~", "1", "1")
    assert code == EXIT_OK
    assert text.startswith("central charge: 1")
    code, text = run("gko", "A1~", "1", "0")
    assert code == EXIT_OK and text.startswith("central charge: 0")
    code, text = run("gko", "A1~", "2", "1", "--lambda", "3,3")
    assert code == EXIT_OK
    assert "L0 scalar" in text and "/ 96" in text  # 2 * h * (m+1)(n+1)(m+n+1)
    # --lambda is validated even when n = 0 leaves nothing to certify
    code, _ = run("gko", "A1~", "1", "0", "--lambda", "zz")
    assert code == EXIT_USAGE
    # ... and a valid one is not dropped: the certificate needs n >= 1
    capsys.readouterr()
    assert run("gko", "A1~", "1", "0", "--lambda", "3,1") == (EXIT_USAGE, "")
    assert "n=0" in capsys.readouterr().err
    # a usage error leaves stdout empty
    assert run("gko", "A1~", "1", "1", "--depth", "-1") == (EXIT_USAGE, "")
    assert run("gko", "A1~", "2", "1", "--lambda", "zz") == (EXIT_USAGE, "")
    assert run("gko", "A1~", "2", "1", "--lambda", "4,2") == (EXIT_USAGE, "")  # not a weight of V(rho)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("schur-compare", "A1~", "1,1", "1,1", "1,1", "1,1"), "operation requires a finite-type algebra"),
        (("saturate", "A1~", "1", "1", "1", "1"), "operation requires a finite-type algebra"),
        (("delta-max", "A1", "1"), "requires an untwisted affine algebra"),
        (("affine-decompose", "A1", "1", "1"), "requires an untwisted affine algebra"),
    ],
)
def test_algebra_type_checked_before_weights(capsys, argv, message):
    assert run(*argv) == (EXIT_USAGE, "")
    assert message in capsys.readouterr().err


def test_cache_commands(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache2"
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(cache_dir))
    code, text = run("cache", "stat")
    assert code == EXIT_OK and text.startswith("0 cached")
    code, text = run("cache", "warm", "B2", "--up-to", "3,3")
    assert code == EXIT_OK and "warmed 11" in text
    code, text = run("cache", "stat")
    assert code == EXIT_OK and text.startswith("11 cached")
    # --no-cache means no cache for the command; stat and clear still read the directory
    assert run("--no-cache", "cache", "stat") == (code, text)
    code, text = run("--no-cache", "cache", "warm", "B2", "--up-to", "4,4")
    assert code == EXIT_OK and "warmed 22" in text  # and stores none of them
    code, text = run("--no-cache", "cache", "clear")
    assert code == EXIT_OK and text.startswith("removed 11 ")
    code, text = run("cache", "clear")
    assert code == EXIT_OK and text.startswith("removed 0 ")
    code, text = run("cache", "stat")
    assert text.startswith("0 cached")


def test_output_identical_cold_and_warm(tmp_path, monkeypatch):
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(tmp_path / "cache3"))
    clear_memory_cache()
    _, cold = run("decompose", "B2", "5,5", "2,2")
    clear_memory_cache()
    _, warm = run("decompose", "B2", "5,5", "2,2")
    assert cold == warm
    clear_memory_cache()
    _, nocache = run("--no-cache", "decompose", "B2", "5,5", "2,2")
    assert nocache == cold


@pytest.mark.parametrize(
    "argv,old,new",
    [
        (("weights", "B2", "1,1"), b"0,1:2", b"0,1:2.5"),
        (("decompose", "B2", "2,2", "1,1"), b"0,1:2", b"0,1:2\ngarbage"),
        (("weights", "B2", "1,1"), b"0,1:2", b"0,1,0:2"),
        (("weights", "B2", "1,1"), b"0,1:2", b"-1,1:2"),
        (("weights", "B2", "1,1"), b"0,1:2", b"0,1:0"),
        (("weights", "B2", "1,1"), b"0,1:2", b"0,1:\xff"),
    ],
    ids=["non-integer", "stray-line", "coordinate-count", "negative-coordinate", "zero-multiplicity", "not-utf8"],
)
def test_malformed_cache_file_is_recomputed(tmp_path, argv, old, new):
    # a malformed table is a cache miss: recomputed, served, and rewritten
    path = tmp_path / "cache" / "B2.1_1.char"
    clear_memory_cache()
    _, expected = run("--no-cache", *argv)
    run(*argv)
    path.write_bytes(path.read_bytes().replace(old, new))
    clear_memory_cache()
    assert run(*argv) == (EXIT_OK, expected)
    b2 = build_root_system("B2")
    assert CharCache(tmp_path / "cache").load(b2, (1, 1)) == freudenthal(b2, (1, 1)).mults


def test_no_cache_flag_skips_disk(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache4"
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(cache_dir))
    clear_memory_cache()
    run("--no-cache", "decompose", "B2", "2,2", "1,1")
    assert not cache_dir.is_dir() or not list(cache_dir.glob("*.char"))


def test_usage_errors():
    code, _ = run("decompose", "B2", "5,5")  # missing argument
    assert code == EXIT_USAGE
    code, _ = run("decompose", "B2", "5,5,5", "2,2")  # wrong coordinate count
    assert code == EXIT_USAGE
    code, _ = run("decompose", "Z9", "1", "1")
    assert code == EXIT_USAGE
    code, _ = run("decompose", "A1~", "1,1", "1,1")  # affine rejected here
    assert code == EXIT_USAGE
    code, _ = run("nonsense")
    assert code == EXIT_USAGE


def test_affine_decompose_names_a_non_dominant_factor(capsys):
    # (1,-1) has level 0 too, but the cause reported is that it is not dominant
    code, text = run("affine-decompose", "A1~", "1,1", "1,-1")
    assert (code, text) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert "requires dominant weights" in err and "level" not in err
