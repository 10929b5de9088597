import hashlib
import io
import json
import time

import pytest

from steinerkit.cli import main
from steinerkit.designs import design_from_json, design_to_json_dict, fano_plane


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
], ids=["km-lambda", "km-t", "km-k", "bt-lambda", "bt-t", "scan-v-max"])
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


@pytest.mark.parametrize("t, cap", [("5", "791"), ("1", "461")])
def test_km_search_cap_exits_3_before_writing_the_matrix(capsys, tmp_path, t, cap):
    # C(12,5) = 792 5-subsets at t = 5; C(11,5) = 462 supersets of a point at t = 1
    dump = tmp_path / "matrix.json"
    argv = ["km-search", "--group", "catalog:PSL(2,11)", "--t", t, "--k", "6",
            "--max-subsets", cap, "--dump-matrix", str(dump)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == "" and not dump.exists()
    assert err.startswith("capacity error: ") and err.count("\n") == 1


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
    data = design_to_json_dict(fano_plane())
    if field == "point":
        data["blocks"][0] = [False, True, 3]
    else:
        data[field] = True
    path = tmp_path / "design.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["verify", str(path), "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: design json: ") and err.count("\n") == 1


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
    assert err.startswith("error: group json: ") and err.count("\n") == 1


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


def test_group_orbits_negative_m_names_the_option(capsys):
    code, out, err = run_cli(capsys, ["group", "orbits", "catalog:PSL(2,7)", "--m", "-1"])
    assert code == 2 and out == ""
    assert err == "error: --m must be non-negative, got -1\n"


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


def test_data_env_var_reaches_the_cli(capsys, tmp_path, monkeypatch):
    import shutil

    from steinerkit.catalog import data_directory

    shutil.copy(f"{data_directory()}/m11.json", tmp_path / "m11.json")
    with open(f"{data_directory()}/metadata.json", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    meta["groups"] = [g for g in meta["groups"] if g["name"] == "m11"]
    meta["groups"][0]["expected_order"] = 7921
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    monkeypatch.setenv("STEINERKIT_DATA", str(tmp_path))
    code, out, err = run_cli(capsys, ["group", "info", "catalog:M_11"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "corrupt bundle" in err
