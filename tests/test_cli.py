import gc
import hashlib
import io
import json
import sys
import time
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, count
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from steinerkit.cli import main
from steinerkit.designs import _SLICE, design_from_json, design_to_json, fano_plane


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_admissible_negative_exit(capsys):
    code, out, _ = run_cli(capsys, ["admissible", "6", "14", "7", "1"])
    assert code == 1
    assert "9/2" in out
    assert "admissible: no" in out


def test_admissible_positive_exit_and_equality_note(capsys):
    code, out, _ = run_cli(capsys, ["admissible", "5", "24", "8", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is True
    equality = [c for c in payload["conditions"] if c["condition"] == "cameron-equality-list"][0]
    assert equality["witness"]["case"] == ["5", "8", "24"]


def test_construct_verify_pipe(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["construct", "boolean", "3"])
    assert code == 0
    design_text = out
    code, out, _ = run_cli(capsys, ["verify", "-", "--json"], stdin=design_text, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["covered_lambda"] == 1 and payload["is_design"] is True


def test_verify_failure_exit(capsys, monkeypatch):
    design = json.loads('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,1,2]]}')
    code, out, _ = run_cli(
        capsys, ["verify", "-"], stdin=json.dumps(design), monkeypatch=monkeypatch
    )
    assert code == 1


def test_derive_pipe(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["construct", "boolean", "3"])
    code, out, _ = run_cli(capsys, ["derive", "-", "0"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    derived = design_from_json(out)
    assert (derived.params.t, derived.params.v, derived.params.k) == (2, 7, 3)


def test_scan_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, ["scan", "6", "1", "--v-max", "40", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert {"t": 6, "v": 17, "k": 7, "lambda": 1} in payload["admissible"]


@pytest.mark.parametrize("bound, expected", [
    (["--k-max", "0"], 0),  # k <= 0 admits no k
    (["--k-min", "0"], 6),  # every k of the default range, 3..14
    (["--k-max", "3"], 5),
])
def test_scan_reads_a_k_bound_of_0_as_given(capsys, bound, expected):
    code, out, _ = run_cli(capsys, ["scan", "2", "1", "--v-max", "15", "--json"] + bound)
    assert code == 0 and len(json.loads(out)["admissible"]) == expected


def test_scan_past_the_cap_exits_3_at_once(capsys):
    # t = 2 decides about v^2/6 (v, k) pairs: some 6.7 * 10^7 to v = 20000
    started = time.perf_counter()
    code, out, err = run_cli(capsys, ["scan", "2", "1", "--v-max", "20000"])
    assert code == 3 and out == ""
    assert err == "capacity error: scan to v_max=20000: (v, k) pairs to decide exceed cap 10000000\n"
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("t, count", [(2, 338), (3, 162), (4, 121), (5, 87), (6, 77)])
def test_scan_to_200_lists_every_set_under_the_cap(capsys, t, count):
    code, out, err = run_cli(capsys, ["scan", str(t), "1", "--v-max", "200"])
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert lines[0] == "# caps: max_subsets=10000000"
    assert lines[-1] == "# %d admissible parameter sets" % count and len(lines) == count + 2


@pytest.mark.parametrize("argv, message", [
    (["km-search", "--group", "catalog:PSL(2,7)", "--t", "2", "--k", "3", "--lambda", "-1"],
     "--lambda must be a positive integer, got -1"),
    (["km-search", "--group", "catalog:PSL(2,7)", "--t", "0", "--k", "3"],
     "--t must be a positive integer, got 0"),
    (["km-search", "--group", "catalog:PSL(2,7)", "--t", "2", "--k", "0"],
     "--k must be a positive integer, got 0"),
    (["analyze-bt", "--t", "6", "--lambda", "0", "--v-max", "20"],
     "--lambda must be a positive integer, got 0"),
    (["analyze-bt", "--t", "1", "--v-max", "20"],
     "--t must be at least 2 for the elimination screen, got 1"),
    (["scan", "2", "1", "--v-max", "3"],
     "--v-max must be at least t+2 = 4, got 3"),
    (["analyze-bt", "--t", "6", "--v-max", "-5"],
     "--v-max must be at least t+2 = 8, got -5"),
    (["analyze-bt", "--t", "6", "--v-max", "7", "--json"],
     "--v-max must be at least t+2 = 8, got 7"),
    (["analyze-bt", "--t", "2", "--v-max", "3"],
     "--v-max must be at least t+2 = 4, got 3"),
    (["admissible", "2", "5", "3", "0"],
     "lambda must be a positive integer, got 0"),
], ids=["km-lambda", "km-t", "km-k", "bt-lambda", "bt-t", "scan-v-max", "bt-v-max-negative",
        "bt-v-max-below-t+2", "bt-v-max-below-4", "admissible-lambda"])
def test_usage_errors_name_the_option_typed(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_group_info_catalog(capsys):
    code, out, _ = run_cli(capsys, ["group", "info", "catalog:PSL(2,7)", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 8 and payload["order"] == "168"


def test_group_orbits_and_homogeneity(capsys):
    code, out, _ = run_cli(capsys, ["group", "orbits", "catalog:PSL(2,5)", "--m", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["orbits"]) == 2
    code, out, _ = run_cli(
        capsys, ["group", "homogeneity", "catalog:PSL(2,7)", "--t-max", "3", "--json"]
    )
    payload = json.loads(out)
    assert payload["homogeneity_degree"] == 3
    assert payload["transitivity_degree"] == 2


def test_group_from_file(tmp_path, capsys):
    path = tmp_path / "c7.json"
    path.write_text('{"degree": 7, "generators": ["(0 1 2 3 4 5 6)"]}')
    code, out, _ = run_cli(capsys, ["group", "info", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["order"] == "7"


def test_group_info_json_roundtrips_as_group_file(tmp_path, capsys):
    from steinerkit.perms import group_from_json_dict

    code, out, _ = run_cli(capsys, ["group", "info", "catalog:PSL(2,7)", "--json"])
    assert code == 0
    reloaded = group_from_json_dict(json.loads(out))
    assert reloaded.order == 168 and reloaded.degree == 8


def test_analyze_bt_sweep_and_single_entry(capsys):
    code, out, _ = run_cli(capsys, ["analyze-bt", "--t", "6", "--lambda", "1", "--v-max", "26", "--json"])
    assert code == 0
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    m24 = [v for v in verdicts if v["entry"] == "M_24"][0]
    assert m24["verdict"] == "eliminated"
    assert m24["feasible_k"] == [7, 8]

    code, _, _ = run_cli(capsys, ["analyze-bt", "--t", "6", "--group", "catalog:M_24"])
    assert code == 1  # eliminated -> definite negative
    code, _, _ = run_cli(capsys, ["analyze-bt", "--t", "5", "--group", "catalog:PSL(2,11)"])
    assert code == 0  # survives


def test_km_search_fano(capsys, tmp_path):
    path = tmp_path / "c7.json"
    path.write_text('{"degree": 7, "generators": [[1,2,3,4,5,6,0]]}')
    code, out, _ = run_cli(
        capsys, ["km-search", "--group", str(path), "--t", "2", "--k", "3", "--lambda", "1", "--json"]
    )
    assert code == 0
    designs = [design_from_json(line) for line in out.strip().splitlines()]
    assert designs and all(d.b == 7 for d in designs)


def test_km_search_negative_exit(capsys):
    code, _, _ = run_cli(
        capsys, ["km-search", "--group", "catalog:A_5", "--t", "2", "--k", "3", "--lambda", "1"]
    )
    assert code == 1


def test_km_search_dump_matrix(capsys, tmp_path):
    path = tmp_path / "c7.json"
    path.write_text('{"degree": 7, "generators": ["(0 1 2 3 4 5 6)"]}')
    dump = tmp_path / "matrix.json"
    code, _, _ = run_cli(
        capsys,
        [
            "km-search", "--group", str(path), "--t", "2", "--k", "3",
            "--lambda", "1", "--json", "--dump-matrix", str(dump),
        ],
    )
    assert code == 0
    payload = json.loads(dump.read_text())
    assert payload["t"] == 2 and payload["k"] == 3
    assert payload["col_sizes"] == [7, 7, 7, 7, 7]
    assert len(payload["row_reps"]) == 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    code, _, err = run_cli(capsys, ["admissible", "6", "2", "7", "1"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["km-search", "--group", "catalog:PSL(2,7)", "--t", "0", "--k", "2"],
        ["group", "homogeneity", "catalog:PSL(2,7)", "--t-max", "-1"],
        ["group", "homogeneity", "catalog:PSL(2,7)", "--t-max", "0"],
    ],
)
def test_out_of_range_parameters_exit_2_before_any_output(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_km_search_rejects_t_0_before_writing_the_matrix(capsys, tmp_path):
    dump = tmp_path / "matrix.json"
    argv = ["km-search", "--group", "catalog:PSL(2,7)", "--t", "0", "--k", "2"]
    code, out, _ = run_cli(capsys, argv + ["--dump-matrix", str(dump)])
    assert code == 2 and out == "" and not dump.exists()


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_km_search_rejects_a_limit_below_1_before_writing_the_matrix(capsys, tmp_path, limit):
    # PSL(2,7) has 2 designs 3-(8,4,1); a limit of 0 must not report none
    dump = tmp_path / "matrix.json"
    argv = ["km-search", "--group", "catalog:PSL(2,7)", "--t", "3", "--k", "4",
            "--limit", limit, "--dump-matrix", str(dump)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and not dump.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_km_search_verifies_under_its_max_subsets(capsys, monkeypatch):
    from steinerkit import kramer_mesner

    caps = []
    cover_counts = kramer_mesner.cover_counts

    def recording_cover_counts(blocks, t, v, k, width, cap=None):
        caps.append(cap)
        return cover_counts(blocks, t, v, k, width, cap=cap)

    monkeypatch.setattr(kramer_mesner, "cover_counts", recording_cover_counts)
    argv = ["km-search", "--group", "catalog:PSL(2,7)", "--t", "3", "--k", "4",
            "--max-subsets", str(2 * 10**8)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.endswith("# 2 design(s) found\n")
    assert caps == [2 * 10**8] * 2  # one column per design, each certified once


@pytest.mark.parametrize("lam", ["300", "5000000000"])
def test_km_search_lambda_above_every_row_sum_finds_nothing_at_once(capsys, lam):
    # each row of PSL(2,7) at (2, 3) sums to C(6, 1) = 6 < lambda
    argv = ["km-search", "--group", "catalog:PSL(2,7)", "--t", "2", "--k", "3", "--lambda", lam]
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, argv)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out.endswith("# 0 design(s) found\n")


def test_km_search_selection_deeper_than_the_recursion_limit(capsys, tmp_path):
    # the trivial group on 1200 points: the one 1-(1200,1,1) design takes
    # all 1200 columns, one solver level each
    path = tmp_path / "trivial1200.json"
    path.write_text('{"degree": 1200, "generators": []}')
    code, out, _ = run_cli(capsys, ["km-search", "--group", str(path), "--t", "1", "--k", "1",
                                    "--json"])
    assert code == 0
    (design,) = [design_from_json(line) for line in out.splitlines()]
    assert design.blocks == tuple((p,) for p in range(1200))


# sha256 of the first 20 designs 3-(20,4,1) under C_19 fixing point 19, as
# printed by the recursive solver that the bitmask search replaced
C19_SQS20_SHA256 = "14a3025b2501a8fc5abd214658fe029d54b90c99a80e40a1cf5cf02df311ad81"


def test_km_search_sqs20_under_c19_is_pinned(capsys, tmp_path):
    path = tmp_path / "c19.json"
    path.write_text(json.dumps({"degree": 20, "generators": [list(range(1, 19)) + [0, 19]]}))
    argv = ["km-search", "--group", str(path), "--t", "3", "--k", "4", "--limit", "20", "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and len(out.splitlines()) == 20
    assert hashlib.sha256(out.encode()).hexdigest() == C19_SQS20_SHA256


# sha256 of km-search stdout as printed when every design was made by
# Design(...) and encoded by design_to_json one at a time
C31_STS31_SHA256 = "5cddc8ca599f7114963a70849f45dd6a528a4bc82f110855d70a71138795c9a2"
PSL211_TEXT_SHA256 = "d2869778c396fd27850d30be4f6a864217ad8da70ee318e120af2e1190c66eaa"


def test_km_search_all_sts31_under_c31_json_is_pinned(capsys, tmp_path):
    path = tmp_path / "c31.json"
    path.write_text(json.dumps({"degree": 31, "generators": [list(range(1, 31)) + [0]]}))
    argv = ["km-search", "--group", str(path), "--t", "2", "--k", "3", "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and len(out.splitlines()) == 2048
    assert hashlib.sha256(out.encode()).hexdigest() == C31_STS31_SHA256


def test_km_search_psl211_text_is_pinned(capsys):
    argv = ["km-search", "--group", "catalog:PSL(2,11)", "--t", "5", "--k", "6"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.endswith("# 2 design(s) found\n")
    assert hashlib.sha256(out.encode()).hexdigest() == PSL211_TEXT_SHA256


# sha256 of the PSL(2,11) 5-(12,6,1) orbit matrix dump, as written by the
# full-partition builder that the row-stabilizer builder replaced
PSL211_MATRIX_SHA256 = "bc3d067e2331c9cb224874957ddb6e9a7fdf127ff1524d1cdea40e3496f3efd4"


def test_km_search_dump_matrix_is_pinned(capsys, tmp_path):
    dump = tmp_path / "matrix.json"
    argv = ["km-search", "--group", "catalog:PSL(2,11)", "--t", "5", "--k", "6",
            "--dump-matrix", str(dump)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.endswith("# 2 design(s) found\n")
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == PSL211_MATRIX_SHA256
    # C(12,6) = 924 6-subsets exceed this cap; the 792 5-subsets and 7 supersets do not
    code, capped, _ = run_cli(capsys, argv[:-2] + ["--max-subsets", "800"])
    assert code == 0 and capped.splitlines()[1:] == out.splitlines()[1:]


# sha256 of the orbit matrix dumps of two t-homogeneous groups, as written by
# the builder that partitioned every t-subset before the one-row path
HOMOGENEOUS_MATRIX_SHA256 = {
    ("M_24", "5", "8"): "ece01a5a3d1e71ef03d7db3c8739070f5dd5772453fb68c37719f84658bfb27b",
    ("PSL(2,128)", "3", "4"): "c37c9470c3f81d25e198d5111f3e41a61ff57ca45cb9ed42fcf1e72d6257f5e0",
}


@pytest.mark.parametrize("name, t, k", sorted(HOMOGENEOUS_MATRIX_SHA256))
def test_km_search_dump_matrix_of_a_homogeneous_group_is_pinned(capsys, tmp_path, name, t, k):
    dump = tmp_path / "matrix.json"
    argv = ["km-search", "--group", "catalog:" + name, "--t", t, "--k", k, "--limit", "1",
            "--dump-matrix", str(dump)]
    code, out, _ = run_cli(capsys, argv)
    found = 1 if name == "M_24" else 0
    assert code == (0 if found else 1) and out.endswith("# %d design(s) found\n" % found)
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == HOMOGENEOUS_MATRIX_SHA256[name, t, k]


@pytest.mark.parametrize("t, cap", [("5", "791"), ("1", "461")])
def test_km_search_cap_exits_3_before_writing_the_matrix(capsys, tmp_path, t, cap):
    # C(12,5) = 792 5-subsets at t = 5; C(11,5) = 462 supersets of a point at t = 1
    dump = tmp_path / "matrix.json"
    argv = ["km-search", "--group", "catalog:PSL(2,11)", "--t", t, "--k", "6",
            "--max-subsets", cap, "--dump-matrix", str(dump)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == "" and not dump.exists()
    assert err.startswith("capacity error: ") and err.count("\n") == 1


def test_km_search_cap_binds_a_homogeneous_group(capsys, tmp_path):
    # M_12 is 5-homogeneous, so its matrix enumerates no 5-subset; the cap on
    # the C(12,5) = 792 of them still holds
    dump = tmp_path / "matrix.json"
    argv = ["km-search", "--group", "catalog:M_12", "--t", "5", "--k", "6",
            "--max-subsets", "791", "--dump-matrix", str(dump)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == "" and not dump.exists()
    assert err == "capacity error: 5-subset enumeration size 792 exceeds cap 791\n"
    code, out, _ = run_cli(capsys, argv[:-3] + ["792"])
    assert code == 0 and out.endswith("# 1 design(s) found\n")


def test_capacity_error_exit_code(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["construct", "boolean", "5"])
    code, _, err = run_cli(
        capsys, ["verify", "-", "--max-subsets", "10"], stdin=out, monkeypatch=monkeypatch
    )
    assert code == 3
    assert "capacity" in err


def test_construct_boolean_refuses_large_n_before_enumerating(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, ["construct", "boolean", "9"])
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("capacity error: ")
    code, _, _ = run_cli(capsys, ["construct", "boolean", "4", "--max-subsets", "559"])
    assert code == 3


def test_construct_boolean_4_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, ["construct", "boolean", "4"])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "e9ba062f1359525ea395568d2a94c0ff55887eaa3ab805ea442158f1674d3c43"


@pytest.fixture(scope="module")
def boolean_5_files(tmp_path_factory):
    """``construct boolean 5`` and a copy whose first block is replaced."""
    directory = tmp_path_factory.mktemp("boolean5")
    text = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdout", text)
        assert main(["construct", "boolean", "5"]) == 0
    design = directory / "design.json"
    design.write_text(text.getvalue())
    data = json.loads(text.getvalue())
    data["blocks"][0] = [0, 1, 2, 31]  # {0,1,3} loses its only block
    altered = directory / "altered.json"
    altered.write_text(json.dumps(data))
    return str(design), str(altered)


@pytest.mark.parametrize(
    "which, argv, exit_code, digest",
    [
        (0, ["verify"], 0, "63170ef9355734546a44c317babe30c20f66f9d2e880fb1611b32bcc4906489a"),
        (0, ["verify", "--json"], 0,
         "58762830827e6253e4b92c1cb5a13faabdaea9674f93a2af081d3e5bebb53473"),
        (1, ["verify"], 1, "44be1faf1b80915e2df1131374022fbff282cf65178bab4d0081bb3d6cad940d"),
        (1, ["verify", "--json"], 1,
         "7f63f23cf1cef7e566ee111f227be6b928a8a115b348d7d0bcf3a1944a8dc47c"),
        (0, ["derive", "0"], 0, "343ec68f022a3f0e65a859a7b15acb7b7fd1a18c4e152d48c03e0d5d6841d37a"),
    ],
    ids=["verify", "verify-json", "altered", "altered-json", "derive-0"],
)
def test_verify_and_derive_of_boolean_5_are_pinned(capsys, boolean_5_files, which, argv,
                                                    exit_code, digest):
    command, *options = argv
    code, out, _ = run_cli(capsys, [command, boolean_5_files[which], *options])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field", ["t", "lambda", "point"])
def test_design_json_booleans_exit_2(capsys, tmp_path, field):
    data = json.loads(design_to_json(fano_plane()))
    if field == "point":
        data["blocks"][0] = [False, True, 3]
    else:
        data[field] = True
    path = tmp_path / "design.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["verify", str(path), "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: design json: " % path) and err.count("\n") == 1


@pytest.mark.parametrize(
    "t, digest",
    [
        (6, "5f2edfa62ce301a47779f17903d9e935220e75a3f060901c48322970efecb4f7"),
        (7, "c025d2293d6da610c88e8d28f221f572c18a260c8855cc16384cbab8ee4e9be4"),
        # the 4-homogeneity of PGammaL(2,128), C(129,4) = 11,009,376 4-subsets,
        # is decided by a setwise-stabilizer index; its k = 9 reason reads
        # insufficient-homogeneity
        (8, "2811fc8635899fc03c7bfa536c994f92b1af37b3a07fc5ccefd9587087881ad4"),
    ],
)
def test_analyze_bt_sweep_json_is_pinned(capsys, t, digest):
    code, out, _ = run_cli(capsys, ["analyze-bt", "--t", str(t), "--v-max", "257", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["admissible", "6", "14", "7", "1", "--max-subsets", "5"],
        ["admissible", "6", "14", "7", "1", "--data-dir", "x"],
        ["scan", "6", "1", "--v-max", "40", "--max-subsets", "5"],
        ["scan", "6", "1", "--v-max", "40", "--data-dir", "x"],
        ["verify", "-", "--data-dir", "x"],
        ["derive", "-", "0", "--json"],
        ["derive", "-", "0", "--max-subsets", "5"],
        ["derive", "-", "0", "--data-dir", "x"],
        ["construct", "boolean", "3", "--json"],
        ["construct", "boolean", "3", "--data-dir", "x"],
        ["analyze-bt", "--t", "6", "--v-max", "20", "--max-subsets", "5"],
        ["group", "info", "catalog:PSL(2,7)", "--data-dir", "x"],
        ["analyze-bt", "--t", "6", "--v-max", "20", "--data-dir", "x"],
        ["km-search", "--group", "catalog:PSL(2,7)", "--t", "2", "--k", "3", "--data-dir", "x"],
    ],
)
def test_options_a_subcommand_never_reads_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_caps_line_shows_the_default_without_the_option(capsys):
    _, out, _ = run_cli(capsys, ["scan", "6", "1", "--v-max", "40"])
    assert out.startswith("# caps: max_subsets=10000000\n")
    _, out, _ = run_cli(capsys, ["analyze-bt", "--t", "6", "--v-max", "20"])
    assert out.startswith("# caps: max_subsets=10000000\n")
    _, out, _ = run_cli(capsys, ["admissible", "6", "14", "7", "1", "--json"])
    assert json.loads(out)["caps"] == {"max_subsets": 10000000}


def test_byte_identical_repeat_runs(capsys):
    argv = ["analyze-bt", "--t", "6", "--lambda", "1", "--v-max", "20", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    argv = ["scan", "6", "1", "--v-max", "30", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


@pytest.mark.parametrize(
    "generators",
    [["(0 5)"], 5, [[0, 1, "a"]], [[1, 0, 2.0]], ["(0 1)(1 0)"]],
    ids=["cycle-point-out-of-range", "generators-not-array", "string-point", "float-point",
         "cycles-share-a-point"],
)
def test_malformed_group_json_exits_2(capsys, tmp_path, generators):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": 3, "generators": generators}))
    code, out, err = run_cli(capsys, ["group", "info", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: group json: " % path) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["group", "orbits", "catalog:PSL(2,7)", "--m", "3"],
    ["verify", "-"],
    ["construct", "boolean", "3"],
    ["km-search", "--group", "catalog:PSL(2,7)", "--t", "2", "--k", "3"],
], ids=["group", "verify", "construct", "km-search"])
def test_negative_max_subsets_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--max-subsets", "-1"])
    assert code == 2 and out == ""
    assert err == "error: --max-subsets must be non-negative, got -1\n"


@pytest.mark.parametrize("argv", [
    ["group", "info"],
    ["km-search", "--t", "2", "--k", "3", "--group"],
], ids=["group", "km-search"])
def test_group_file_of_a_huge_degree_exits_3(capsys, tmp_path, argv):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": 2**40, "generators": ["(0 1)"]}))
    code, out, err = run_cli(capsys, argv + [str(path)])
    assert code == 3 and out == ""
    assert err == "capacity error: %s: group json: degree %d exceeds cap 10000000\n" % (path, 2**40)


@pytest.mark.parametrize("argv", [
    ["km-search", "--t", "3", "--k", "4", "--group", "PSL(2,7)"],
    ["group", "info", "M_11"],
], ids=["km-search", "group"])
def test_a_missing_file_named_like_a_catalog_entry_names_the_prefix(capsys, monkeypatch,
                                                                     tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == ("error: %s: No such file or directory (catalog groups are "
                   "given as catalog:%s)\n" % (argv[-1], argv[-1]))


def test_a_group_file_is_read_before_a_catalog_name(capsys, monkeypatch, tmp_path):
    # a file wins over the catalog entry of its name, and a missing path that
    # names no entry keeps the plain message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "PSL(2,7)").write_text(json.dumps({"degree": 5, "generators": ["(0 1 2 3 4)"]}))
    code, out, _ = run_cli(capsys, ["group", "info", "PSL(2,7)", "--json"])
    payload = json.loads(out)
    assert code == 0 and (payload["name"], payload["order"]) == ("PSL(2,7)", "5")
    for missing in ("PSL(2,6)", "group.json"):
        code, out, err = run_cli(capsys, ["group", "info", missing])
        assert code == 2 and out == ""
        assert err == "error: %s: No such file or directory\n" % missing


def test_group_orbits_negative_m_names_the_option(capsys):
    code, out, err = run_cli(capsys, ["group", "orbits", "catalog:PSL(2,7)", "--m", "-1"])
    assert code == 2 and out == ""
    assert err == "error: --m must be non-negative, got -1\n"


def test_group_orbits_cap_bounds_the_matrix_not_every_m_subset(capsys):
    # PSL(2,49) is 2- but not 3-homogeneous, so its orbits on 3-subsets are
    # the columns of the one-row matrix at t = 2: the cap bounds C(50,2) =
    # 1225 and C(48,1) = 48, not the C(50,3) = 19600 3-subsets
    argv = ["group", "orbits", "catalog:PSL(2,49)", "--m", "3", "--json", "--max-subsets"]
    code, out, _ = run_cli(capsys, argv + ["2000"])
    assert code == 0
    assert [orbit["size"] for orbit in json.loads(out)["orbits"]] == [9800, 9800]
    code, out, err = run_cli(capsys, argv + ["1224"])
    assert code == 3 and out == ""
    assert err == "capacity error: 2-subset enumeration size 1225 exceeds cap 1224\n"


def test_group_orbits_refuses_a_large_partition_before_enumerating(capsys, monkeypatch):
    # PSL(2,27) is 3-homogeneous, but at m = 14 the matrix at t = 3 would
    # carry C(14,3) = 364 times per column member, more than the partition
    # enumerates; C(28,14) = 40116600 exceeds the default cap
    from steinerkit import kramer_mesner, perms

    def refuse(*args):
        raise AssertionError("a subset was enumerated")

    monkeypatch.setattr(perms, "combinations", refuse)
    monkeypatch.setattr(kramer_mesner, "combinations", refuse)
    code, out, err = run_cli(capsys, ["group", "orbits", "catalog:PSL(2,27)", "--m", "14"])
    assert code == 3 and out == ""
    assert err == "capacity error: 14-subset enumeration size 40116600 exceeds cap 10000000\n"


def test_main_reuses_one_parser_and_prints_what_a_fresh_parser_prints(capsys):
    from steinerkit import cli

    argvs = [
        ["group", "orbits", "catalog:PSL(2,5)", "--m", "3"],
        ["admissible", "3", "8", "4", "1", "--json"],
        ["scan", "3", "1"],  # --v-max is required
        ["km-search", "--group", "catalog:PSL(2,7)", "--t", "3", "--k", "4", "--json"],
        ["no-such-command"],
        ["group", "homogeneity", "catalog:M_11", "--t-max", "4"],
        ["group", "orbits", "catalog:PSL(2,7)", "--m", "-1"],
        ["analyze-bt", "--t", "4", "--v-max", "30", "--json"],
    ]

    def run(fresh):
        results = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cli._parser.cache_clear()
    shared = run(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert shared == run(fresh=True)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 2, 0]
    assert all(out for code, out, _ in shared if code == 0)


def test_analyze_bt_prints_orders_beyond_4300_digits(capsys):
    from math import factorial

    code, out, err = run_cli(capsys, ["analyze-bt", "--t", "6", "--group", "catalog:A_2000",
                                      "--json"])
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert len(payload["order"]) == 5736
    assert int(payload["order"]) == factorial(2000) // 2


def test_max_int_digits_fits_the_largest_catalog_order():
    from steinerkit.catalog import DEFAULT_DEGREE_CAP, catalog_entry_by_name
    from steinerkit.cli import MAX_INT_DIGITS

    order = catalog_entry_by_name("A_%d" % DEFAULT_DEGREE_CAP).order
    assert 10 ** (MAX_INT_DIGITS - 1) <= order < 10**MAX_INT_DIGITS


def test_m22_2_screens_by_name_but_has_no_construction(capsys):
    code, single, _ = run_cli(capsys, ["analyze-bt", "--t", "6", "--group", "catalog:M_22:2",
                                       "--json"])
    assert code == 1
    code, sweep, _ = run_cli(capsys, ["analyze-bt", "--t", "6", "--v-max", "22", "--json"])
    assert code == 0
    assert [line for line in sweep.splitlines() if '"entry": "M_22:2"' in line] == [
        single.strip()
    ]
    code, _, err = run_cli(capsys, ["group", "info", "catalog:M_22:2"])
    assert code == 2 and "symbolic" in err


def test_catalog_name_above_degree_cap_exits_2(capsys):
    code, out, err = run_cli(capsys, ["group", "info", "catalog:A_5000"])
    assert code == 2 and out == ""
    assert "unknown catalog entry" in err


def test_homogeneity_reads_transitive_degrees_without_subset_enumeration(capsys):
    code, out, _ = run_cli(capsys, ["group", "homogeneity", "catalog:M_24", "--t-max", "5",
                                    "--max-subsets", "10000", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["transitivity_degree"], payload["homogeneity_degree"]) == (5, 5)


def test_homogeneity_ignores_the_subset_cap(capsys):
    # C(294,3) = 4,192,244 3-subsets; the index answers under any cap
    code, out, _ = run_cli(capsys, ["group", "homogeneity", "catalog:PSL(2,293)", "--t-max", "3",
                                    "--max-subsets", "10", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["transitivity_degree"], payload["homogeneity_degree"]) == (2, 2)


def test_long_options_of_each_subcommand():
    import argparse

    from steinerkit.cli import build_parser

    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    inventory = {
        name: sorted(
            option for action in parser._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"
        )
        for name, parser in subparsers.choices.items()
    }
    assert inventory == {
        "admissible": ["--json"],
        "scan": ["--json", "--k-max", "--k-min", "--v-max"],
        "verify": ["--json", "--max-subsets"],
        "derive": [],
        "construct": ["--max-subsets"],
        "group": ["--json", "--m", "--max-subsets", "--t-max"],
        "analyze-bt": ["--group", "--json", "--lambda", "--t", "--v-max"],
        "km-search": ["--dump-matrix", "--group", "--json", "--k", "--lambda", "--limit",
                      "--max-subsets", "--t"],
    }
    assert sum(map(len, inventory.values())) == 25


def test_analyze_bt_refuses_v_max_above_the_cap_before_sweeping(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, ["analyze-bt", "--t", "6", "--v-max", "4097", "--json"])
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err == "error: degree 4097 exceeds catalog cap 4096\n"


@pytest.mark.parametrize("v_max", ["64", "20"])  # 64 is the sweep's default
def test_analyze_bt_group_with_v_max_exits_2(capsys, v_max):
    with pytest.raises(SystemExit) as info:
        main(["analyze-bt", "--t", "6", "--group", "catalog:M_24", "--v-max", v_max])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["", "catalog:"])
def test_analyze_bt_with_an_empty_group_name_exits_2(capsys, name):
    code, out, err = run_cli(capsys, ["analyze-bt", "--t", "4", "--group", name])
    assert code == 2 and out == ""
    assert err == "error: unknown catalog entry ''\n"


def _m11_bundle():
    from steinerkit.catalog import data_directory

    with open(f"{data_directory()}/m11.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_data_env_var_reaches_the_cli(capsys, tmp_path, monkeypatch):
    data = _m11_bundle()
    del data["generators"][1:]  # one generator: a cyclic group, not M_11
    (tmp_path / "m11.json").write_text(json.dumps(data))
    monkeypatch.setenv("STEINERKIT_DATA", str(tmp_path))
    code, out, err = run_cli(capsys, ["group", "info", "catalog:M_11"])
    assert code == 2 and out == ""
    assert err.startswith("error: bundle ") and err.count("\n") == 1 and "corrupt bundle" in err


def _with_a_fixed_point(data):
    degree = data["degree"]
    generators = [images + [degree] for images in data["generators"]]
    return json.dumps(dict(data, degree=degree + 1, generators=generators))


@pytest.mark.parametrize("damage", [
    lambda data: None,
    lambda data: "{",
    lambda data: "[" * 100000 + "]" * 100000,  # past the interpreter's recursion limit
    lambda data: json.dumps(dict(data, name="m12")),
    lambda data: json.dumps({key: data[key] for key in ("degree", "generators")}),
    _with_a_fixed_point,
    lambda data: json.dumps(dict(data, degree=10**11)),
    lambda data: json.dumps(dict(data, generators=data["generators"][:1])),
    lambda data: json.dumps(dict(data, generators=5)),
], ids=["no-file", "m11-not-json", "nested", "wrong-name", "no-name", "wrong-degree",
        "degree-above-cap", "wrong-order", "generators-not-an-array"])
def test_a_malformed_bundle_exits_2_naming_the_file(capsys, tmp_path, monkeypatch, damage):
    """``damage`` gives the text written in place of the M_11 bundle, or
    None for no file."""
    text = damage(_m11_bundle())
    if text is not None:
        (tmp_path / "m11.json").write_text(text)
    monkeypatch.setenv("STEINERKIT_DATA", str(tmp_path))
    code, out, err = run_cli(capsys, ["group", "info", "catalog:M_11"])
    assert code == 2 and out == ""
    assert err.startswith("error: bundle %s: " % (tmp_path / "m11.json"))
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "block", [[0, None, 3], [0, 2.5, 3], [0, "2", 3], [0, [2], 3], [0, True, 3], [0, 3]],
    ids=["null", "float", "string", "array", "true", "short"],
)
def test_verify_of_a_malformed_block_exits_2(capsys, tmp_path, block):
    data = json.loads(design_to_json(fano_plane()))
    data["blocks"][0] = block
    path = tmp_path / "design.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# 3-subsets of V points make more than three slices of rows
V = next(v for v in count(3) if comb(v, 3) > 3 * _SLICE)


def _late_fault(kind, i):
    """The JSON of the 3-subsets of V points, sorted, whose one fault of
    ``kind`` lies at ``blocks[i]``, and the message ``verify`` and
    ``derive`` print for it after the file's name."""
    blocks = [list(block) for block in combinations(range(V), 3)]
    a, b, c = blocks[i]
    if kind == "not-increasing":
        blocks[i] = [a, c, b]
        error = "design json: blocks[%d] is not strictly increasing at position 2" % i
    elif kind == "point-v":
        blocks[i] = [a, b, V]
        error = "design json: blocks[%d][2]=%d out of point range [0, %d)" % (i, V, V)
    elif kind == "point-minus-1":
        blocks[i] = [-1, b, c]
        error = "design json: blocks[%d][0]=-1 out of point range [0, %d)" % (i, V)
    elif kind == "true":
        blocks[i] = [a, True, c]
        error = "design json: blocks[%d][1] must be an integer, got True" % i
    elif kind == "duplicate":
        blocks[i] = list(blocks[i - 1])
        error = "design json: duplicate block %r (blocks[%d])" % (tuple(blocks[i]), i)
    else:  # unsorted
        blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
        error = "design json: blocks must be sorted lexicographically"
    text = json.dumps({"t": 2, "v": V, "k": 3, "lambda": 1, "blocks": blocks})
    return text, error


LATE_FAULTS = ["not-increasing", "point-v", "point-minus-1", "true", "duplicate", "unsorted"]
# a row of the first slice, of a middle one and of the last
FAULT_ROWS = [5, _SLICE + 7, comb(V, 3) - 2]


@pytest.mark.parametrize("i", FAULT_ROWS, ids=["first-slice", "middle-slice", "last-slice"])
@pytest.mark.parametrize("kind", LATE_FAULTS)
def test_a_fault_in_any_slice_of_rows_keeps_its_message(capsys, tmp_path, monkeypatch, kind, i):
    text, error = _late_fault(kind, i)
    path = tmp_path / "design.json"
    path.write_text(text)
    for argv, stdin in (
        (["verify", str(path)], None),
        (["verify", "-"], text),
        (["derive", str(path), "0"], None),
    ):
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: %s: %s\n" % (argv[1], error)), argv


POINT_REPLACEMENTS = [1.5, 2.0, True, False, "1", None, -1, 7, 2**70]


@st.composite
def edited_fano_texts(draw):
    """The Fano plane's JSON after one to three random edits of its blocks,
    cut short at a random character half of the time."""
    data = json.loads(design_to_json(fano_plane()))
    blocks = data["blocks"]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "add", "swap", "drop-point", "add-point", "replace"]))
        if edit == "add":  # a 3-subset where the order puts it, reading a non-int as -2
            block = sorted(draw(st.lists(st.integers(0, 6), min_size=3, max_size=3, unique=True)))
            keys = [[p if type(p) is int else -2 for p in other] for other in blocks]
            blocks.insert(bisect_left(keys, block), block)
            continue
        if not blocks:
            continue
        i = draw(st.integers(0, len(blocks) - 1))
        if edit == "drop":
            del blocks[i]
        elif edit == "swap":
            j = draw(st.integers(0, len(blocks) - 1))
            blocks[i], blocks[j] = blocks[j], blocks[i]
        elif edit == "drop-point" and blocks[i]:
            del blocks[i][draw(st.integers(0, len(blocks[i]) - 1))]
        elif edit == "add-point":
            blocks[i].insert(draw(st.integers(0, len(blocks[i]))), draw(st.integers(0, 6)))
        elif edit == "replace" and blocks[i]:
            j = draw(st.integers(0, len(blocks[i]) - 1))
            blocks[i][j] = draw(st.sampled_from(POINT_REPLACEMENTS))
    text = json.dumps(data)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _reference_blocks(text):
    """The blocks of a 2-(7,3,1) file as tuples, or None where the file must
    be refused: k strictly increasing ints (not bools) in [0, 7) per block,
    each block less than the next."""
    try:
        blocks = json.loads(text)["blocks"]
    except ValueError:
        return None
    ok = all(
        isinstance(block, list) and len(block) == 3
        and all(type(p) is int and 0 <= p < 7 for p in block)
        and block == sorted(set(block))
        for block in blocks
    ) and all(a < b for a, b in zip(blocks, blocks[1:]))
    return list(map(tuple, blocks)) if ok else None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edited_fano_texts())
def test_verify_and_derive_of_an_edited_design_file(text):
    blocks = _reference_blocks(text)
    for argv in (["verify", "-", "--json"], ["derive", "-", "0"]):
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = stdin
        out, err = out.getvalue(), err.getvalue()
        if blocks is None:
            assert code == 2 and out == "", (argv, code, out)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            continue
        assert err == ""
        if argv[0] == "verify":
            counts = [sum(set(pair) <= set(block) for block in blocks)
                      for pair in combinations(range(7), 2)]
            wrong = [(list(pair), n) for pair, n in zip(combinations(range(7), 2), counts) if n != 1]
            common = counts[0] if len(set(counts)) == 1 else None
            payload = json.loads(out)
            assert code == (0 if not wrong else 1)
            assert payload["covered_lambda"] == common and payload["is_design"] == (not wrong)
            witness = payload["failing_witness"]
            assert witness == (None if not wrong else {"subset": wrong[0][0], "count": wrong[0][1]})
        else:
            through = sorted([p - 1 for p in block if p] for block in blocks if 0 in block)
            expected = {"t": 1, "v": 6, "k": 2, "lambda": 1, "blocks": through}
            assert code == 0 and json.loads(out) == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_design_parsing_restores_the_callers_gc_state(capsys, tmp_path, enabled):
    text = design_to_json(fano_plane())
    cases = [(text[:-1], None)]  # truncated: a JSONDecodeError
    cases += [_late_fault(kind, i) for kind in LATE_FAULTS for i in FAULT_ROWS]
    path = tmp_path / "design.json"
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert design_from_json(text) == fano_plane()
        assert gc.isenabled() == enabled
        for bad, error in cases:
            path.write_text(bad)
            code, out, err = run_cli(capsys, ["verify", str(path)])
            assert gc.isenabled() == enabled
            assert code == 2 and out == ""
            where = "error: %s: " % path
            assert err == where + error + "\n" if error else err.startswith(where + "design json: ")
            assert err.count("\n") == 1
    finally:
        (gc.enable if was else gc.disable)()


def _pinned_runs(capsys, tmp_path):
    """[argv, exit, stdout, stderr] of 61 runs of every subcommand, text and
    --json, as JSON text.

    Temporary paths read as ``<tmp>``.  Where argparse itself refuses the
    argv (exit 2), its stderr is None: its wording is the interpreter's.
    """
    fano = tmp_path / "fano.json"
    fano.write_text(design_to_json(fano_plane()))
    short = tmp_path / "short.json"
    short.write_text('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,1,2]]}')
    c7 = tmp_path / "c7.json"
    c7.write_text('{"degree": 7, "generators": ["(0 1 2 3 4 5 6)"]}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree": 3, "generators": ["(0 5)"]}')
    dump = tmp_path / "matrix.json"
    km = ["km-search", "--group"]
    cases = [
        ["admissible", "6", "14", "7", "1"],
        ["admissible", "5", "24", "8", "1"],
        ["admissible", "2", "5", "3", "0"],
        ["scan", "3", "1", "--v-max", "30"],
        ["scan", "6", "1", "--v-max", "3"],
        ["verify", str(fano)],
        ["verify", str(fano), "--max-subsets", "100"],
        ["verify", str(short)],
        ["verify", str(fano), "--max-subsets", "5"],
        ["verify", str(tmp_path / "missing.json")],
        ["group", "info", "catalog:PSL(2,7)", "--max-subsets", "500"],
        ["group", "info", str(c7)],
        ["group", "info", str(bad)],
        ["group", "info", "catalog:NoSuchGroup"],
        ["group", "orbits", "catalog:PSL(2,5)", "--m", "3"],
        ["group", "orbits", "catalog:PSL(2,27)", "--m", "14"],
        ["group", "orbits", "catalog:PSL(2,7)", "--m", "-1"],
        ["group", "homogeneity", "catalog:PSL(2,7)", "--t-max", "3"],
        ["group", "homogeneity", "catalog:PSL(2,7)", "--t-max", "0"],
        ["analyze-bt", "--t", "5", "--v-max", "20"],
        ["analyze-bt", "--t", "6", "--group", "catalog:M_24"],
        ["analyze-bt", "--t", "5", "--group", "PSL(2,11)"],
        ["analyze-bt", "--t", "1", "--v-max", "20"],
        km + ["catalog:PSL(2,7)", "--t", "3", "--k", "4"],
        km + ["catalog:A_5", "--t", "2", "--k", "3"],
        km + [str(c7), "--t", "2", "--k", "3", "--limit", "2", "--dump-matrix", str(dump)],
        km + ["catalog:M_12", "--t", "5", "--k", "6", "--max-subsets", "791"],
        km + ["catalog:PSL(2,7)", "--t", "0", "--k", "3"],
    ]
    cases = [argv + form for argv in cases for form in ([], ["--json"])]
    cases += [
        ["derive", str(fano), "0"],
        ["construct", "boolean", "3"],
        ["construct", "boolean", "4", "--max-subsets", "559"],
        ["construct", "octads", "3"],
        ["group", "degree", "catalog:PSL(2,7)"],
    ]
    assert len(cases) == 61
    for argv in cases:
        try:
            code = main(argv)
            refused = False
        except SystemExit as exc:
            code, refused = exc.code, True
        out, err = capsys.readouterr()
        if refused:
            err = None
        if dump.exists():
            out += dump.read_text()
            dump.unlink()
        yield [json.dumps(x).replace(str(tmp_path), "<tmp>") for x in (argv, code, out, err)]


def _digest(records):
    """sha256 over the records, each written as the JSON list of its fields."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(("[%s]" % ", ".join(record)).encode() + b"\n")
    return digest.hexdigest()


def test_every_subcommand_prints_its_pinned_output(capsys, tmp_path):
    """One sha256 over (argv, exit, stdout, stderr) of every pinned run."""
    digest = _digest(_pinned_runs(capsys, tmp_path))
    assert digest == "72e49da5bdd6715c316ce93cd6cbeea358b5a5c7b8bc16180bc7721a46ba0207"


def test_every_subcommand_prints_its_pinned_stdout(capsys, tmp_path):
    """One sha256 over (argv, exit, stdout) of every pinned run: an error
    message may change its wording, no report may change a byte."""
    digest = _digest(record[:3] for record in _pinned_runs(capsys, tmp_path))
    assert digest == "306e2ccc01a6750c3b9ae1b517137a2499413d1639807c69ade06ed13d233007"


LOADED_BY = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import steinerkit, steinerkit.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("steinerkit"))

report = {"import": loaded()}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = steinerkit.cli.main(argv)
    report[" ".join(argv)] = [code, loaded()]
    for name in loaded():  # unload every layer, so the next run starts as a fresh process
        if name not in ("steinerkit", "steinerkit.cli", "steinerkit.errors"):
            del sys.modules[name]
            delattr(steinerkit, name.rpartition(".")[2])
print(json.dumps(report))
"""


def test_each_subcommand_imports_only_its_layers(tmp_path):
    """``import steinerkit`` and ``steinerkit.cli`` load no layer, and a
    subcommand loads only the layers it runs, in one child process."""
    import subprocess

    import steinerkit

    fano = tmp_path / "fano.json"
    fano.write_text(design_to_json(fano_plane()))
    c7 = tmp_path / "c7.json"
    c7.write_text('{"degree": 7, "generators": ["(0 1 2 3 4 5 6)"]}')
    cases = [["admissible", "6", "14", "7", "1"], ["scan", "3", "1", "--v-max", "30"],
             ["verify", str(fano)], ["derive", str(fano), "0"], ["construct", "boolean", "3"],
             ["group", "info", str(c7)]]
    src = str(Path(steinerkit.__file__).parent.parent)
    child = subprocess.run([sys.executable, "-c", LOADED_BY, src, json.dumps(cases)],
                           capture_output=True, text=True, check=True)
    report = json.loads(child.stdout)
    base = ["steinerkit", "steinerkit.cli", "steinerkit.errors"]
    assert report.pop("import") == base
    screen = sorted(base + ["steinerkit.admissibility", "steinerkit.designs"])
    assert report == {
        "admissible 6 14 7 1": [1, screen],
        "scan 3 1 --v-max 30": [0, screen],
        "verify %s" % fano: [0, sorted(base + ["steinerkit.designs"])],
        "derive %s 0" % fano: [0, sorted(base + ["steinerkit.designs"])],
        "construct boolean 3": [0, sorted(base + ["steinerkit.designs"])],
        "group info %s" % c7: [0, sorted(base + ["steinerkit.perms"])],
    }


def test_a_design_file_nested_past_the_recursion_limit_exits_2(capsys, tmp_path):
    # group files nested this deep are among the fuzzed files below
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (["verify", str(path)], ["derive", str(path), "0"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err == ("error: %s: design json: maximum recursion depth exceeded while decoding "
                       "a JSON array from a unicode string\n" % path)


def test_a_design_file_that_is_not_json_is_named(capsys, tmp_path, monkeypatch):
    text = design_to_json(fano_plane()).replace("], [", "] [", 1)
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(text)
    assert str(decode.value).startswith("Expecting ',' delimiter: ")
    path = tmp_path / "design.json"
    path.write_text(text)
    for argv, stdin, name in (
        (["verify", str(path)], None, str(path)),
        (["verify", "-"], text, "-"),
        (["derive", str(path), "0"], None, str(path)),
        (["derive", "-", "0"], text, "-"),
    ):
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: %s: design json: %s\n" % (name, decode.value))


# cycle text with a character that is no digit, space, comma or parenthesis
STRAY_TEXT = st.text(min_size=1, max_size=8).filter(
    lambda text: any(not (c in "()," or c.isspace() or c.isdecimal()) for c in text))
ODD_JSON = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
GROUP_FILE_FAULTS = ["not-an-object", "missing-key", "degree", "generators-type", "generator",
                     "not-json", "not-utf-8", "nested"]
GENERATOR_FAULTS = ["stray", "out-of-range", "twice", "parenthesis", "images", "odd-image", "odd"]


@st.composite
def malformed_group_files(draw):
    """The bytes of a group file that must be refused: raw text that is no
    JSON, or a document that breaks the interchange form in one place."""
    degree = draw(st.integers(1, 8))
    form = draw(st.sampled_from(GROUP_FILE_FAULTS))
    if form == "not-json":  # nothing completes a JSON value that ends in "{"
        return (draw(st.text(max_size=20)) + "{").encode("utf-8", "surrogatepass")
    if form == "not-utf-8":
        return b"\xff" + draw(st.binary(max_size=8))
    if form == "nested":  # past the interpreter's recursion limit
        depth = draw(st.integers(2000, 5000))
        return ("[" * depth + "]" * depth).encode()
    generators = [draw(st.permutations(range(degree))) if draw(st.booleans()) else "(0)"
                  for _ in range(draw(st.integers(0, 3)))]
    if form == "not-an-object":
        data = draw(st.one_of(ODD_JSON, st.integers(), st.lists(st.integers(), max_size=3)))
    elif form == "missing-key":
        data = draw(st.sampled_from([{}, {"degree": degree}, {"generators": generators}]))
    elif form == "degree":
        bad = draw(st.one_of(ODD_JSON, st.integers(max_value=0), st.integers(10**7 + 1),
                             st.lists(st.integers(), max_size=2)))
        data = {"degree": bad, "generators": generators}
    elif form == "generators-type":
        data = {"degree": degree, "generators": draw(st.one_of(ODD_JSON, st.integers()))}
    else:
        fault = draw(st.sampled_from(GENERATOR_FAULTS))
        if fault == "stray":
            bad = draw(STRAY_TEXT)
        elif fault == "out-of-range":
            bad = "(0 %d)" % (degree + draw(st.integers(0, 10**6)))
        elif fault == "twice":
            bad = "(%d %d)" % ((draw(st.integers(0, 7)) % degree,) * 2)
        elif fault == "parenthesis":
            bad = draw(st.sampled_from(["(", ")", "(0", "0)", "((0))", "(0)(", "0", "( ,0)"]))
        elif fault == "images":  # ints, but no bijection on 0..degree-1
            bad = draw(st.lists(st.integers(-2, 10), max_size=10))
            if sorted(bad) == list(range(degree)):
                bad.append(degree)
        elif fault == "odd-image":
            bad = draw(st.permutations(range(degree)))
            bad[-1] = draw(st.sampled_from([True, float(bad[-1]), str(bad[-1]), None, [0]]))
        else:
            bad = draw(st.sampled_from([None, True, 0, 1.5, {}]))
        generators.insert(draw(st.integers(0, len(generators))), bad)
        data = {"degree": degree, "generators": generators}
    return json.dumps(data).encode()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(malformed_group_files())
def test_a_malformed_group_file_exits_2_or_3_with_one_error_line(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "malformed-group.json"
    path.write_bytes(content)
    for argv in (["group", "info"], ["group", "orbits"], ["group", "homogeneity"],
                 ["km-search", "--t", "2", "--k", "3", "--group"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + [str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (2, 3) and out == "", (argv, code, out)
        prefix = "capacity error: " if code == 3 else "error: "
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize("degree, gens", [(1, []), (1, [[0]]), (2, []), (2, ["(0 1)"])],
                         ids=["1-trivial", "1-identity", "2-trivial", "2-swap"])
def test_group_orbits_of_a_group_of_degree_1_or_2(capsys, tmp_path, degree, gens):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"degree": degree, "generators": gens}))
    swaps = degree == 2 and gens != []
    for m in range(4):
        code, out, err = run_cli(capsys, ["group", "orbits", str(path), "--m", str(m), "--json"])
        assert (code, err) == (0, "")
        subsets = list(combinations(range(degree), m))
        if swaps and m == 1:  # (0 1) joins the two points
            expected = [{"representative": [0], "size": 2}]
        else:
            expected = [{"representative": list(s), "size": 1} for s in subsets]
        assert json.loads(out)["orbits"] == expected, m


NOT_UTF_8 = b"\xff\xfe{}"  # a UTF-16 byte-order mark


@pytest.mark.parametrize("argv", [["group", "info", "<file>"], ["group", "orbits", "<file>"],
                                  ["km-search", "--t", "2", "--k", "3", "--group", "<file>"],
                                  ["verify", "<file>"], ["derive", "<file>", "0"],
                                  ["verify", "-"], ["derive", "-", "0"]],
                         ids=["group-info", "group-orbits", "km-search", "verify", "derive",
                              "verify-stdin", "derive-stdin"])
def test_a_file_that_is_not_utf_8_exits_2_naming_the_file(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "utf16.json"
    path.write_bytes(NOT_UTF_8)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF_8), encoding="utf-8"))
    argv = [str(path) if arg == "<file>" else arg for arg in argv]
    code, out, err = run_cli(capsys, argv)
    where = "-" if "-" in argv else str(path)
    assert (code, out) == (2, "")
    assert err == ("error: %s: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n" % where)


DESIGN_COMMANDS = [["verify", "<F>"], ["derive", "<F>", "0"]]
GROUP_COMMANDS = [["group", action, "<F>"] for action in ("info", "orbits", "homogeneity")]
GROUP_COMMANDS.append(["km-search", "--t", "2", "--k", "3", "--group", "<F>"])
TEXT_FAULTS = ["not-utf-8", "not-json", "nested", "missing-key"]
DESIGN_FAULTS = ["bool-parameter", "float-parameter", "bool-point", "float-point",
                 "point-out-of-range", "unsorted", "duplicate"]
GROUP_FAULTS = ["not-a-bijection", "short-generator", "degree-above-cap"]
PATH_FAULTS = ["missing-file", "directory"]


@st.composite
def planted_faults(draw):
    """An argv reading one input, ``<F>``; the fault planted in it; whether
    the input comes on stdin; and its bytes, or None for a fault in the path."""
    design = draw(st.booleans())
    argv = draw(st.sampled_from(DESIGN_COMMANDS if design else GROUP_COMMANDS))
    fault = draw(st.sampled_from(
        TEXT_FAULTS + (DESIGN_FAULTS if design else GROUP_FAULTS) + PATH_FAULTS))
    if fault in PATH_FAULTS:
        return argv, fault, False, None
    if fault == "not-utf-8":
        content = b"\xff" + draw(st.binary(max_size=8))
    elif fault == "not-json":  # nothing completes a JSON value that ends in "{"
        content = (draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=20))
                   + "{").encode()
    elif fault == "nested":  # past the interpreter's recursion limit
        depth = draw(st.integers(2000, 5000))
        content = ("[" * depth + "]" * depth).encode()
    elif design:
        data = json.loads(design_to_json(fano_plane()))
        blocks = data["blocks"]
        i, j = draw(st.integers(0, 6)), draw(st.integers(0, 2))
        if fault == "missing-key":
            del data[draw(st.sampled_from(["t", "v", "k", "lambda", "blocks"]))]
        elif fault in ("bool-parameter", "float-parameter"):
            key = draw(st.sampled_from(["t", "v", "k", "lambda"]))
            data[key] = draw(st.booleans()) if fault == "bool-parameter" else float(data[key])
        elif fault == "bool-point":
            blocks[i][j] = draw(st.booleans())
        elif fault == "float-point":
            blocks[i][j] = float(blocks[i][j]) + draw(st.sampled_from([0, 0.5]))
        elif fault == "point-out-of-range":
            blocks[i][j] = draw(st.sampled_from([-1, 7, 2**70]))
        elif fault == "unsorted":
            blocks[i], blocks[(i + 1) % 7] = blocks[(i + 1) % 7], blocks[i]
        else:
            blocks.insert(i, list(blocks[i]))
        content = json.dumps(data).encode()
    else:
        degree = draw(st.integers(2, 8))
        generators = [draw(st.permutations(range(degree))) for _ in range(draw(st.integers(1, 3)))]
        data = {"degree": degree, "generators": generators}
        bad = generators[draw(st.integers(0, len(generators) - 1))]
        if fault == "missing-key":
            del data[draw(st.sampled_from(["degree", "generators"]))]
        elif fault == "not-a-bijection":
            bad[0] = bad[1]
        elif fault == "short-generator":
            del bad[draw(st.integers(0, degree - 1))]
        else:
            data["degree"] = draw(st.integers(10**7 + 1, 10**12))
        content = json.dumps(data).encode()
    return argv, fault, draw(st.booleans()), content


@settings(max_examples=300, derandomize=True, deadline=None)
@given(planted_faults())
def test_a_planted_fault_prints_one_line_naming_the_input(tmp_path_factory, case):
    argv, fault, stdin, content = case
    base = tmp_path_factory.getbasetemp()
    if stdin:
        name = "-"
    elif fault == "directory":
        name = str(base)
    else:
        name = str(base / ("planted-%s.json" % fault))
        if content is not None:
            Path(name).write_bytes(content)
    old_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(content if stdin else b""), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([name if arg == "<F>" else arg for arg in argv])
    finally:
        sys.stdin = old_stdin
    out, err = out.getvalue(), err.getvalue()
    capped = fault == "degree-above-cap"
    assert (code, out) == (3 if capped else 2, ""), (argv, fault, code, out)
    prefix = "%s: %s: " % ("capacity error" if capped else "error", name)
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err


def test_a_group_file_on_stdin_is_named_dash(capsys, monkeypatch):
    c7 = json.dumps({"degree": 7, "generators": ["(0 1 2 3 4 5 6)"]})
    code, out, err = run_cli(capsys, ["group", "info", "-", "--json"], stdin=c7,
                             monkeypatch=monkeypatch)
    payload = json.loads(out)
    assert (code, err, payload["name"], payload["order"]) == (0, "", "-", "7")


@pytest.mark.parametrize("where", ["directory", "no-parent"])
def test_a_matrix_dump_that_cannot_be_written_names_the_path(capsys, tmp_path, where):
    dump = tmp_path if where == "directory" else tmp_path / "no" / "matrix.json"
    reason = "Is a directory" if where == "directory" else "No such file or directory"
    argv = ["km-search", "--group", "catalog:PSL(2,7)", "--t", "3", "--k", "4",
            "--dump-matrix", str(dump)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: %s: %s\n" % (dump, reason))


def test_only_the_reader_opens_an_input_file():
    """Every ``open`` in the CLI outside ``_read`` writes."""
    import ast
    import steinerkit.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    opens = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                    mode = node.args[1].value if len(node.args) > 1 else "r"
                    opens.setdefault(function.name, []).append(mode)
    assert opens == {"_read": ["r"], "cmd_km_search": ["w"]}


FANO_FILE = "<fano>"  # stands for a Fano plane file the test writes


@st.composite
def numeric_argvs(draw):
    """An argv that gives every numeric option and positional of one
    subcommand a small or negative value; optional ones only at times."""

    def small(high=8):
        return str(draw(st.integers(-3, high)))

    def maybe(option, high=8):
        return [option, small(high)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["admissible", "scan", "construct", "derive", "orbits",
                                    "homogeneity", "analyze-bt", "km-search"]))
    if command == "admissible":
        return [command, small(), small(), small(), small()]
    if command == "scan":
        return [command, small(), small(), "--v-max", small(60), *maybe("--k-min", 60),
                *maybe("--k-max", 60)]
    if command == "construct":
        return [command, "boolean", small(6), *maybe("--max-subsets", 10**4)]
    if command == "derive":
        return [command, FANO_FILE, small()]
    if command in ("orbits", "homogeneity"):
        option = "--m" if command == "orbits" else "--t-max"
        return ["group", command, "catalog:PSL(2,7)", *maybe(option), *maybe("--max-subsets")]
    if command == "analyze-bt":
        return [command, "--t", small(), *maybe("--lambda"), *maybe("--v-max", 60)]
    return [command, "--group", "catalog:PSL(2,7)", "--t", small(), "--k", small(),
            *maybe("--lambda"), *maybe("--limit"), *maybe("--max-subsets", 10**4)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(numeric_argvs())
def test_numeric_options_at_small_and_negative_values_exit_cleanly(tmp_path_factory, argv):
    fano = tmp_path_factory.getbasetemp() / "fano-numeric.json"
    fano.write_text(design_to_json(fano_plane()))
    argv = [str(fano) if arg == FANO_FILE else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n") and out.getvalue() == "", (argv, err)
    else:
        assert err == "", (argv, err)
