"""Command-line surface: formats, exit codes, schema round-trips, cache admin."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import decomposition_from_json_dict

import rho_tensor
from rho_tensor.charcalc import CharCache, clear_memory_cache, freudenthal
from rho_tensor.harness import FAILS, ConjectureReport, SupportContainmentReport
from rho_tensor.cli import (
    COMMANDS,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    _arguments,
    _read_command_line,
    build_parser,
    main,
)
from rho_tensor.rootdata import InvariantError, build_root_system
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


def test_conjecture_affine_prints_missing_and_unexpected(monkeypatch):
    # the component (3) leaves and an unpredicted (9) arrives, both at depth 0
    import rho_tensor.harness as harness

    truncated_tensor = harness.truncated_tensor

    def moved(rs, lam, mu, depth):
        dec = truncated_tensor(rs, lam, mu, depth)
        components = {k: c for k, c in dec.components.items() if k[0] != (3,)}
        return dataclasses.replace(dec, components={**components, ((9,), 0): 1})

    monkeypatch.setattr(harness, "truncated_tensor", moved)
    assert run("conjecture", "A1~", "2", "1", "--depth", "4") == (
        EXIT_NEGATIVE,
        "A1~  m=2 n=1 depth=4  verdict=DEPTH_LIMITED  predicted=3 present=2 missing=1 unexpected=1\n"
        "  missing: (3) at depth 0 (beta dominant)\n"
        "  unexpected delta-maximal component: (9) at depth 0\n",
    )


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


def test_support_contain_lists_the_witnesses_of_a_failure(monkeypatch):
    failed = SupportContainmentReport(False, [(1, 0), (0, 3)])
    monkeypatch.setattr("rho_tensor.cli.support_containment_check", lambda *args: failed)
    text = "support containment FAILS at:\n  (1,0)\n  (0,3)\n"
    assert run("support-contain", "G2", "5", "2") == (EXIT_NEGATIVE, text)


def test_finite_conjecture_lists_the_missing_components(monkeypatch):
    failed = ConjectureReport("G2", 5, 2, [(7, 7), (1, 1)], [(7, 7)], [(1, 1)], FAILS)
    monkeypatch.setattr("rho_tensor.cli.verify_conjecture", lambda *args: failed)
    code, text = run("conjecture", "G2", "5", "2")
    assert code == EXIT_NEGATIVE
    assert text.splitlines() == [
        "G2  m=5 n=2  verdict=FAILS  predicted=2 present=1 missing=1",
        "missing components:",
        "  (1,1)",
    ]
    code, text = run("conjecture", "G2", "5", "2", "--format", "csv")
    assert code == EXIT_NEGATIVE and text.splitlines()[1:] == ["7 7,present", "1 1,missing"]


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
        (("gko", "A1", "1", "1", "--lambda", "1"), "requires an untwisted affine algebra"),
    ],
)
def test_algebra_type_checked_before_weights(capsys, argv, message):
    assert run(*argv) == (EXIT_USAGE, "")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["1,1:x1", "1,1:dx", "1,1:d"])
def test_bad_delta_shift_suffix_is_a_usage_error(capsys, weight):
    assert run("delta-max", "A1~", weight) == (EXIT_USAGE, "")
    assert "bad delta-shift suffix" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["1_0", "+1", "\u0663", " 1", "1 "])
def test_weights_take_plain_ascii_integers_only(capsys, field):
    assert run("weights", "B2", f"{field},1") == (EXIT_USAGE, "")
    assert "cannot parse weight" in capsys.readouterr().err
    assert run("delta-max", "A1~", f"1,1:d{field}") == (EXIT_USAGE, "")
    assert "bad delta-shift suffix" in capsys.readouterr().err


def test_invariant_failure_is_exit_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantError("x")

    monkeypatch.setattr("rho_tensor.cli.klimyk", broken)
    assert run("decompose", "B2", "1,1", "1,1") == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal invariant failure: x\n"


@pytest.mark.parametrize("argv", [("decompose", "B2", "1,1", "1,1"), ("conjecture", "B2", "1", "1")])
def test_component_outside_the_translated_set_is_exit_3(misplaced_reflections, capsys, argv):
    assert run("--no-cache", *argv) == (EXIT_INTERNAL, "")
    assert "exceeds the translated weight set" in capsys.readouterr().err


def test_component_above_the_prv_bound_is_exit_3(inflated_top_component, capsys):
    assert run("--no-cache", "affine-decompose", "A2~", "1,1,1", "1,1,1", "--depth", "2") == (EXIT_INTERNAL, "")
    assert "(PRV bound)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "perturbation,message",
    [("lowered_top_of_product", "negative multiplicity -1"), ("raised_reflected_entry", "alcove point")],
)
def test_read_off_failure_is_exit_3(request, capsys, perturbation, message):
    request.getfixturevalue(perturbation)
    assert run("--no-cache", "affine-decompose", "A2~", "1,1,1", "1,1,1", "--depth", "2") == (EXIT_INTERNAL, "")
    assert message in capsys.readouterr().err


def test_scan_case_error_is_exit_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("rho_tensor.harness.verify_conjecture", broken)
    code, text = run("scan", "A1", "--max-sum", "1")
    lines = text.splitlines()
    assert code == EXIT_INTERNAL
    assert len(lines) == 2 and all("ERROR" in line and "boom" not in line for line in lines)
    reasons = "error: A1 m=0 n=0: boom\nerror: A1 m=1 n=0: boom\n"
    assert capsys.readouterr().err == reasons
    for fmt in ("json", "csv"):
        code, text = run("scan", "A1", "--max-sum", "1", "--format", fmt)
        assert code == EXIT_INTERNAL and text.count("ERROR") == 2
        assert capsys.readouterr().err == reasons


@pytest.mark.parametrize(
    "argv,message",
    [
        (("gko", "A1~", "1", "2"), "gko requires m >= n >= 0, got m=1, n=2"),
        (("cache", "warm"), "cache warm requires an algebra and --up-to bound"),
    ],
    ids=["gko m < n", "cache warm without algebra"],
)
def test_arguments_the_command_refuses_are_exit_2(capsys, argv, message):
    assert run(*argv) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {message}\n"


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
    # warm stores tables: with no cache it is a usage error, before any work
    assert run("--no-cache", "cache", "warm", "B2", "--up-to", "4,4") == (EXIT_USAGE, "")
    code, text = run("--no-cache", "cache", "clear")
    assert code == EXIT_OK and text.startswith("removed 11 ")
    code, text = run("cache", "clear")
    assert code == EXIT_OK and text.startswith("removed 0 ")
    code, text = run("cache", "stat")
    assert text.startswith("0 cached")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cache", "clear", "B2"), "cache clear takes no algebra argument, got 'B2'"),
        (("cache", "stat", "Z9"), "cache stat takes no algebra argument, got 'Z9'"),
        (("cache", "stat", "--up-to", "zz"), "cache stat takes no --up-to argument, got 'zz'"),
        (
            ("--no-cache", "cache", "clear", "--up-to", "1,1"),
            "cache clear takes no --up-to argument, got '1,1'",
        ),
    ],
    ids=["clear B2", "stat Z9", "stat --up-to zz", "--no-cache clear --up-to 1,1"],
)
def test_cache_stat_and_clear_take_no_algebra_or_bound(capsys, argv, message):
    # a rejected stat or clear leaves the tables of both algebras in place
    run("cache", "warm", "B2", "--up-to", "1,1")
    run("cache", "warm", "A2", "--up-to", "1,1")
    _, before = run("cache", "stat")
    capsys.readouterr()
    assert run(*argv) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run("cache", "stat") == (EXIT_OK, before)


def test_cache_stat_and_clear_on_a_file_are_usage_errors(tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "a-file"
    not_a_dir.write_text("")
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(not_a_dir))
    for action in ("stat", "clear"):
        assert run("cache", action) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith(f"error: cache directory {not_a_dir} is unusable: ")
    assert not_a_dir.read_text() == ""


def test_cache_clear_that_cannot_remove_a_file_is_a_usage_error(tmp_path, monkeypatch, capsys):
    cache_dir = tmp_path / "cache5"
    (cache_dir / "B2.1_1.char").mkdir(parents=True)  # a directory: unlink fails
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(cache_dir))
    assert run("cache", "clear") == (EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith(f"error: cache directory {cache_dir} is unusable: ")


def test_unusable_cache_directory_is_a_usage_error(tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "a-file"
    not_a_dir.write_text("")
    monkeypatch.setenv("RHO_TENSOR_CACHE", str(not_a_dir))
    clear_memory_cache()
    assert run("weights", "B2", "1,1") == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(not_a_dir) in err


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
        (("weights", "B2", "1,1"), b"0,1:2", b"0,1:3"),
    ],
    ids=[
        "non-integer",
        "stray-line",
        "coordinate-count",
        "negative-coordinate",
        "zero-multiplicity",
        "not-utf8",
        "wrong-multiplicity",
    ],
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


# -- dispatch on the command word ----------------------------------------------

# argv -> exit code, stdout and stderr of usage errors, help and dispatch edge
# cases, recorded with COLUMNS=80 from the parser that built every subcommand
# on each call: dispatch must leave every message byte-identical
GOLDEN_ERRORS = json.loads((Path(__file__).parent / "golden_cli_errors.json").read_text())


def golden_error(argv):
    return next(g for g in GOLDEN_ERRORS if g["argv"] == list(argv))


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal width


@pytest.mark.parametrize("golden", GOLDEN_ERRORS, ids=lambda g: " ".join(g["argv"]) or "<empty>")
def test_dispatch_keeps_messages(columns_80, capsys, golden):
    code = main(golden["argv"])  # help goes to sys.stdout, not to main's out
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (golden["exit"], golden["stdout"], golden["stderr"])


@pytest.mark.parametrize(
    "argv,rejected",
    [
        (("conjecture", "B2", "{}", "1"), ("conjecture", "B2", "x", "1")),
        (("--no-cache", "conjecture", "B2", "{}", "\u0663"), ("conjecture", "B2", "x", "1")),
        (("scan", "A1", "--max-sum", "{}"), ("scan", "A1", "--max-sum", "x")),
        (("saturate", "B2", "1,1", "1,1", "2,2", "{}"), ("saturate", "B2", "1,1", "1,1", "2,2", "x")),
        (
            ("affine-decompose", "A1~", "1,1", "1,1", "--depth", "{}"),
            ("affine-decompose", "A1~", "1,1", "1,1", "--depth", "x"),
        ),
    ],
)
@pytest.mark.parametrize("field", ["1_0", "+1", "\u0662", " 1", "1 "])
def test_counts_take_plain_ascii_integers_only(columns_80, capsys, argv, rejected, field):
    # rejected as int() rejects "x": the same message, naming the field
    assert run(*(a.format(field) for a in argv)) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == golden_error(rejected)["stderr"].replace("'x'", repr(field))


@pytest.mark.parametrize("name", ["B\u0662", " B2 ", "B2\n"])
def test_algebra_names_take_plain_ascii_digits_only(capsys, name):
    assert run("weights", name, "1,1") == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: cannot parse algebra name {name!r} (expected e.g. B2, A1~)\n"


SAMPLE_ARGV = [
    ["decompose", "B2", "1,1", "2,2", "--format", "json"],
    ["--no-cache", "weights", "B2", "1,1"],
    ["conjecture", "A1~", "2", "1", "--depth", "3"],
    ["scan", "A1", "B2", "--max-sum", "2", "--format", "csv"],
    ["naive-scan", "B2", "2", "1"],
    ["schur-compare", "G2", "1,1", "1,1", "2,2", "0,0"],
    ["support-contain", "B2", "2", "1"],
    ["saturate", "B2", "1,1", "1,1", "2,2", "2"],
    ["affine-decompose", "A1~", "1,1", "1,1", "--depth", "2"],
    ["delta-max", "A1~", "2,2"],
    ["gko", "A1~", "2", "1", "--lambda", "3,3", "--depth", "1"],
    ["cache", "stat"],
    ["--no-cache", "cache", "clear"],
    ["cache", "warm", "B2", "--up-to", "1,1"],
]


def test_sample_argv_cover_every_command():
    assert sorted({next(a for a in argv if not a.startswith("-")) for argv in SAMPLE_ARGV}) == sorted(COMMANDS)


def full_parse(argv):
    """``vars`` of the full parser's namespace, or ``None`` where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


def assert_read_like_the_full_parser(argv):
    ns = _read_command_line(argv)
    expected = full_parse(argv)
    assert ns is None or vars(ns) == expected, argv
    return ns, expected


# every sample and golden line, once each
READER_LINES = [
    list(argv) for argv in dict.fromkeys(
        tuple(argv)
        for argv in SAMPLE_ARGV + [shlex.split(line) for line in sorted(GOLDEN_CLI)] + [g["argv"] for g in GOLDEN_ERRORS]
    )
]


@pytest.mark.parametrize("argv", READER_LINES, ids=lambda argv: " ".join(argv) or "<empty>")
def test_command_line_reader_parses_like_the_full_parser(argv):
    ns, expected = assert_read_like_the_full_parser(argv)
    # help and usage errors are left to argparse; of the lines it accepts,
    # those of scan and cache (nargs and required arguments) and the one with
    # a negative value are not plain
    assert (ns is None) == (expected is None or expected["command"] in ("scan", "cache") or "-5" in argv)


# any word or flag of the table, and tokens argparse treats apart
_NOISE = st.sampled_from(
    [*COMMANDS, "--no-cache", *(flags[0] for _, _, *specs in COMMANDS.values() for flags, _ in _arguments(specs))]
    + ["-1", "x", "1_0", "+1", "", "--", "-h", "--form", "--format=json"]
)


def _token(kwargs):
    """Mostly a value the argument takes, sometimes noise."""
    good = st.sampled_from(kwargs.get("choices") or (["0", "2"] if "type" in kwargs else ["B2", "1,1"]))
    return st.one_of(good, good, good, _NOISE)


def _command_line(word):
    """Lines of ``word``: its positionals, then some of its options, each
    with a value, in this order or shuffled."""
    args = list(_arguments(COMMANDS[word][2:]))
    counts = {None: (1, 1), "?": (0, 1), "*": (0, 2)}
    positionals = [
        st.lists(_token(kw), min_size=counts[kw.get("nargs")][0], max_size=counts[kw.get("nargs")][1])
        for flags, kw in args if not flags[0].startswith("-")
    ]
    options = [st.tuples(st.just(flags[0]), _token(kw)) for flags, kw in args if flags[0].startswith("-")]
    line = st.builds(
        lambda head, values, pairs: [*head, word, *(v for vs in values for v in vs), *(t for p in pairs for t in p)],
        st.sampled_from([[], ["--no-cache"]]),
        st.tuples(*positionals),
        st.lists(st.one_of(options), max_size=len(options) + 1) if options else st.just([]),
    )
    return st.one_of(line, line.flatmap(st.permutations))


@example(["scan", "3", "--max-sum", "0", "clear", "schur-compare", "x", "json"])
@given(st.sampled_from(list(COMMANDS)).flatmap(_command_line))
@settings(max_examples=400, deadline=None)
def test_command_line_reader_never_reads_what_argparse_rejects(argv):
    assert_read_like_the_full_parser(argv)


@pytest.mark.parametrize(
    "argv,built",
    [
        (["--no-cache", "weights", "B2", "1,1"], 0),
        (["weights", "-h"], 12),
        (["--help"], 12),
        (["bogus"], 12),
        ([], 12),
        (["weights", "B2", "1,1", "extra"], 12),
    ],
)
def test_main_builds_the_subparsers_it_needs(monkeypatch, capsys, argv, built):
    add_parser = argparse._SubParsersAction.add_parser
    names = []

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    main(argv)
    assert len(COMMANDS) == 12
    assert len(names) == built


def _subprocess_env(tmp_path) -> dict[str, str]:
    src = str(Path(rho_tensor.__file__).parents[1])
    return {
        **os.environ,
        "COLUMNS": "80",
        "RHO_TENSOR_CACHE": str(tmp_path / "cache"),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }


@pytest.mark.parametrize(
    "argv", [["--no-cache", "weights", "B2", "1,1"], ["weights", "B2", "1,1", "extra"]], ids=" ".join
)
def test_entrypoint_reads_the_command_word_from_sys_argv(tmp_path, argv):
    script = "from rho_tensor.cli import entrypoint; entrypoint()"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=_subprocess_env(tmp_path), capture_output=True, text=True
    )
    golden = golden_error(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (golden["exit"], golden["stdout"], golden["stderr"])


@pytest.mark.parametrize("module", ["rho_tensor", "rho_tensor.cli"])
@pytest.mark.parametrize("argv", [["--no-cache", "weights", "B2", "1,1"], ["decompose", "A2", "1,1"]], ids=" ".join)
def test_python_m_runs_the_command_line(tmp_path, module, argv):
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], env=_subprocess_env(tmp_path), capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == run(*argv)
