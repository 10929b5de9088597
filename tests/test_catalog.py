import hashlib
import importlib.util
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

from steinerkit.catalog import (
    DEFAULT_DEGREE_CAP,
    agl_d2_order,
    alternating_group,
    candidates_for_degree,
    catalog_entry_by_name,
    load_bundled_group,
    mathieu,
    mathieu_m11_degree12,
    pgammal_order,
    pgl_order,
    projective_group,
    psl_order,
)
from steinerkit.errors import DataIntegrityError
from steinerkit.gf import field, prime_power_decomposition
from steinerkit.kramer_mesner import subset_orbits
from steinerkit.perms import PermutationGroup, group_from_json_dict, homogeneity, parse_cycles


def test_projective_orders_match_closed_forms():
    for q in (4, 5, 7, 8, 9, 11, 13):
        assert projective_group("PSL", q).order == psl_order(q)
    for q in (5, 7, 9):
        assert projective_group("PGL", q).order == pgl_order(q)
    assert projective_group("PGammaL", 8).order == pgammal_order(8) == 1512
    assert projective_group("PGammaL", 9).order == pgammal_order(9)
    assert projective_group("PSigmaL", 9).order == 720


def test_projective_rejects_bad_q():
    for bad in (3, 6, 12, 1):
        with pytest.raises(ValueError):
            projective_group("PSL", bad)
    with pytest.raises(ValueError):
        projective_group("PXL", 7)


def test_psl_two_transitive():
    for q in (4, 5, 7, 8, 9, 11):
        assert projective_group("PSL", q).is_transitive_on_tuples(2)


def test_psl_three_homogeneity_dichotomy_small():
    for q in (5, 7, 8, 9, 11, 13):
        group = projective_group("PSL", q)
        expected = (q % 2 == 0) or (q % 4 == 3)
        assert group.is_homogeneous(3) == expected


def test_psl5_has_two_orbits_on_triples():
    group = projective_group("PSL", 5)
    orbits = subset_orbits(group, 3)
    assert len(orbits) == 2
    assert sorted(size for _, size in orbits) == [10, 10]


def test_pgl_always_three_homogeneous():
    for q in (5, 9, 13):
        assert projective_group("PGL", q).is_homogeneous(3)


def test_field_element_orders_inside_projective_catalog():
    for q in (7, 8, 9):
        f = field(q)
        assert len({f.pow(f.generator, i) for i in range(q - 1)}) == q - 1


def test_affine_orders():
    assert catalog_entry_by_name("AGL(1,8)").group().order == 56
    assert catalog_entry_by_name("AGammaL(1,8)").group().order == 168
    assert catalog_entry_by_name("AGammaL(1,32)").group().order == 4960
    assert catalog_entry_by_name("AGL(3,2)").group().order == 1344 == agl_d2_order(3)
    assert catalog_entry_by_name("AGL(2,2)").group().order == 24


def test_affine_sharply_three_homogeneous_32():
    group = catalog_entry_by_name("AGammaL(1,32)").group()
    # 4960 = C(32,3): one regular orbit on triples
    assert group.is_homogeneous(3)


def test_affine_three_homogeneity():
    for spec in ("AGL(1,8)", "AGammaL(1,8)", "AGL(3,2)", "AGL(4,2)"):
        assert catalog_entry_by_name(spec).group().is_homogeneous(3), spec


def test_affine_rejects_unknown():
    with pytest.raises(ValueError, match="symbolic"):
        catalog_entry_by_name("AGL(7,2)").group()
    with pytest.raises(ValueError, match="unknown catalog entry"):
        catalog_entry_by_name("AGL(1,9)").group()


def test_alternating_and_symmetric():
    assert alternating_group(5).order == 60
    assert alternating_group(6).order == 360
    s5 = PermutationGroup([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    assert s5.order == 120


def test_mathieu_orders():
    assert mathieu(11).order == 7920
    assert mathieu(12).order == 95040
    assert mathieu(22).order == 443520
    assert mathieu(23).order == 10200960
    assert mathieu(24).order == 244823040
    with pytest.raises(ValueError):
        mathieu(13)


def test_mathieu_transitivity():
    report = homogeneity(mathieu(12), 5)
    assert report.transitivity_degree == 5
    m11_12 = mathieu_m11_degree12()
    assert m11_12.degree == 12 and m11_12.order == 7920
    assert m11_12.is_transitive_on_tuples(3)
    assert mathieu(11).is_transitive_on_tuples(4)


def test_affine_a7_bundle():
    group = catalog_entry_by_name("2^4:A7").group()
    assert group.degree == 16 and group.order == 40320
    assert group.is_homogeneous(3)
    assert not group.is_homogeneous(4)
    assert group.stabilizer_point(0).order == 2520


def test_bundle_integrity_check(tmp_path, monkeypatch):
    import steinerkit.catalog as catalog_module

    source = catalog_module.data_directory()
    for name in ("metadata.json", "m11.json"):
        shutil.copy(f"{source}/{name}", tmp_path / name)
    with open(tmp_path / "metadata.json", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    meta["groups"] = [g for g in meta["groups"] if g["name"] == "m11"]
    meta["groups"][0]["expected_order"] = 7921  # corrupt the recorded order
    with open(tmp_path / "metadata.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    monkeypatch.setenv("STEINERKIT_DATA", str(tmp_path))
    with pytest.raises(DataIntegrityError):
        load_bundled_group("m11")
    with pytest.raises(DataIntegrityError):
        load_bundled_group("m24")


def test_bundle_tool_regenerates_the_bundled_groups(tmp_path, monkeypatch, capsys):
    """``tools/build_group_bundles.py``, run into an empty directory, writes
    the six Mathieu files and metadata.json byte for byte as bundled.  Its
    2^4:A7 comes out with other generators, as the tool's docstring says,
    but they generate the bundled group."""
    root = Path(__file__).resolve().parents[1]
    tool_path = root / "tools" / "build_group_bundles.py"
    spec = importlib.util.spec_from_file_location("build_group_bundles", tool_path)
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT_DIR", str(tmp_path))
    tool.main()
    capsys.readouterr()
    bundled = root / "src" / "steinerkit" / "data" / "groups"
    for name in ("m24", "m23", "m22", "m12", "m11", "m11_deg12", "metadata"):
        filename = name + ".json"
        assert (tmp_path / filename).read_bytes() == (bundled / filename).read_bytes(), name
    written, held = (group_from_json_dict(json.loads((folder / "a7_16.json").read_text()))
                     for folder in (tmp_path, bundled))
    assert written.order == held.order == 40320
    assert all(g in held for g in written.generators)
    assert all(g in written for g in held.generators)


def test_data_dir_env_var_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("STEINERKIT_DATA", str(tmp_path))
    with pytest.raises(DataIntegrityError, match="metadata"):
        mathieu(11)


def test_candidates_for_degree_8():
    names = [entry.name for entry in candidates_for_degree(8)]
    for expected in ("AGL(1,8)", "AGammaL(1,8)", "AGL(3,2)", "PSL(2,7)", "A_8"):
        assert expected in names


def test_candidates_for_degree_12():
    names = [entry.name for entry in candidates_for_degree(12)]
    for expected in ("M_12", "M_11(deg12)", "PSL(2,11)", "A_12"):
        assert expected in names


def test_candidates_for_degree_7_has_no_affine():
    entries = candidates_for_degree(7)
    assert all(entry.family != "affine" for entry in entries)


def test_candidates_constructed_orders_match():
    for v in (8, 12, 16):
        for entry in candidates_for_degree(v):
            if entry.constructible:
                assert entry.group().order == entry.order


def test_candidates_annotations_match_reality():
    # the 3-homogeneity annotation is exact for every constructible entry here
    for v in (6, 8, 10, 12, 14):
        for entry in candidates_for_degree(v):
            if entry.constructible and entry.three_homogeneous is not None:
                assert entry.group().is_homogeneous(3) == entry.three_homogeneous, entry.name


def test_catalog_wide_three_homogeneity_invariant():
    # every constructed catalog group up to degree 65 is 3-homogeneous except
    # exactly the PSL(2,q) with q = 1 mod 4
    checked = 0
    for v in range(4, 66):
        for entry in candidates_for_degree(v):
            if not entry.constructible:
                continue
            group = entry.group()
            actual = group.is_homogeneous(3)
            q = v - 1
            if entry.name == "PSL(2,%d)" % q and q % 4 == 1:
                assert not actual, entry.name
            elif entry.three_homogeneous is not None:
                assert actual == entry.three_homogeneous, entry.name
            checked += 1
    assert checked > 80


def test_symbolic_entries_have_orders():
    entries = candidates_for_degree(128)
    agl7 = [entry for entry in entries if entry.name == "AGL(7,2)"]
    assert agl7 and not agl7[0].constructible
    assert agl7[0].order == agl_d2_order(7)
    with pytest.raises(ValueError):
        agl7[0].group()
    # the entries on either side of each construction cap: an entry is
    # constructible exactly when it has a builder, and a symbolic one refuses
    at_the_caps = {
        "PSL(2,293)": True, "PGL(2,293)": True, "PSL(2,307)": False, "PGL(2,307)": False,
        "AGL(6,2)": True, "AGL(7,2)": False, "A_16": True, "A_17": False, "M_22:2": False,
    }
    for name, constructible in at_the_caps.items():
        entry = catalog_entry_by_name(name)
        assert entry.constructible == (entry._builder is not None) == constructible, name
        if not constructible:
            with pytest.raises(ValueError, match="symbolic"):
                entry.group()


def test_known_homogeneity_annotations():
    entry = catalog_entry_by_name("A_20")
    assert entry.known_homogeneity(4) is True  # k-homogeneous family
    psl13 = catalog_entry_by_name("PSL(2,13)")
    assert psl13.known_homogeneity(3) is False
    assert psl13.known_homogeneity(2) is True
    assert psl13.known_homogeneity(4) is None  # order bound inconclusive: 1092 >= C(14,4)
    psl25 = catalog_entry_by_name("PSL(2,25)")
    assert psl25.known_homogeneity(4) is False  # order bound: 7800 < C(26,4)
    pgl13 = catalog_entry_by_name("PGL(2,13)")
    assert pgl13.known_homogeneity(3) is True


def test_catalog_entry_by_name_errors():
    for name in ("M_13", "PSL(2,6)", "nonsense", "PGL(2,8)", "A_4", "AGL(2,3)", "psl(2,7)",
                 "PSL(2,07)", " M_12", "M_12(deg12)"):
        with pytest.raises(ValueError, match="unknown catalog entry"):
            catalog_entry_by_name(name)


def test_name_index_matches_candidate_listing():
    # every listed entry resolves by name to an entry with the same data
    for v in list(range(4, 301)) + [1024, 4094, 4096]:
        for listed in candidates_for_degree(v):
            found = catalog_entry_by_name(listed.name)
            assert (found.name, found.family, found.degree, found.order, found.constructible) == (
                listed.name, listed.family, listed.degree, listed.order, listed.constructible
            )


def test_catalog_listing_is_pinned():
    # every field of every entry at v <= 300, at each power of 2 and at each
    # q + 1 up to the cap; orders as hex, which needs no int-digit limit
    degrees = [v for v in range(4, DEFAULT_DEGREE_CAP + 1)
               if v <= 300 or v & (v - 1) == 0 or prime_power_decomposition(v - 1)]
    digest = hashlib.sha256()
    entries = 0
    for v in degrees:
        for e in candidates_for_degree(v):
            digest.update(repr((e.name, e.family, e.degree, hex(e.order), e.char,
                                e.three_homogeneous, e.k_homogeneous_all, e.notes,
                                e.constructible)).encode())
            entries += 1
    assert (len(degrees), entries) == (825, 2106)
    assert digest.hexdigest() == (
        "754becd4d40ca98f298b634ea7628ad6dae47d103ef89fae6b47917b086fe9ba")


def test_m22_2_resolves_to_symbolic_entry():
    entry = catalog_entry_by_name("M_22:2")
    assert (entry.degree, entry.order, entry.constructible) == (22, 887040, False)
    with pytest.raises(ValueError, match="symbolic"):
        entry.group()


@pytest.mark.parametrize(
    "name",
    ["PSL(2,100000000000031)", "AGL(1200,2)", "A_5000", "PSL(2,%s)" % ("9" * 5000)],
    ids=["large-prime-q", "AGL-1200", "A_5000", "5000-digit-q"],
)
def test_names_beyond_the_degree_cap_are_rejected_quickly(name):
    started = time.perf_counter()
    with pytest.raises(ValueError, match="unknown catalog entry"):
        catalog_entry_by_name(name)
    assert time.perf_counter() - started < 0.5


def test_degree_cap():
    with pytest.raises(ValueError):
        candidates_for_degree(5000)
    with pytest.raises(ValueError):
        candidates_for_degree(3)
