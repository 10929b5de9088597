import ast
import dataclasses
import importlib.util
import random
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from steinerkit import kramer_mesner
from steinerkit.catalog import candidates_for_degree, catalog_entry_by_name, projective_group
from steinerkit.designs import verify
from steinerkit.kramer_mesner import (
    OrbitMatrix,
    build_orbit_matrix,
    expand_selection,
    solve,
    search_design,
    subset_orbits,
)
from steinerkit.errors import CapacityError
from steinerkit.perms import (
    Permutation,
    PermutationGroup,
    induced_block_action,
    induced_block_images,
    parse_cycles,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def cyclic_group(n):
    return PermutationGroup([Permutation([(i + 1) % n for i in range(n)])])


def reference_orbit_matrix(group, t, k):
    """Oracle: partition the t- and the k-subsets in full, then count each
    row representative's k-supersets per column orbit."""
    row_reps, _, _ = group.subset_orbit_partition(t)
    col_reps, col_sizes, col_index = group.subset_orbit_partition(k)
    v = group.degree
    entries = [[0] * len(col_reps) for _ in row_reps]
    for i, rep in enumerate(row_reps):
        rest = [p for p in range(v) if p not in rep]
        for extra in combinations(rest, k - t):
            entries[i][col_index[tuple(sorted(rep + extra))]] += 1
        assert sum(entries[i]) == comb(v - t, k - t)
    return OrbitMatrix(
        degree=v,
        t=t,
        k=k,
        row_reps=tuple(row_reps),
        col_reps=tuple(col_reps),
        col_sizes=tuple(col_sizes),
        entries=tuple(tuple(row) for row in entries),
    )


def assert_matches_reference(group, t, k):
    matrix = build_orbit_matrix(group, t, k)
    expected = reference_orbit_matrix(group, t, k)
    assert matrix == expected, (group.degree, t, k)
    assert matrix.to_json_dict() == expected.to_json_dict()


def small_km_cases():
    """The (group, t, k) of the benchmark's small KM searches."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(group, t, k) for group, t, k, _ in workloads.SMALL_KM]


def reference_solve(matrix, lam, limit=None):
    """Oracle: the recursive solver that the bitmask search replaced, with
    the same branching rule, so its solutions come in the same order."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    entries = matrix.entries
    nrows = len(entries)
    ncols = len(matrix.col_reps)
    if lam == 0:
        return [()]
    solutions = []
    residual = [lam] * nrows
    cols_of_row = [[j for j in range(ncols) if entries[i][j]] for i in range(nrows)]

    def usable(j, banned, chosen):
        if j in banned or j in chosen:
            return False
        return all(entries[i][j] <= residual[i] for i in range(nrows))

    def dfs(chosen, banned):
        if limit is not None and len(solutions) >= limit:
            return
        open_rows = [i for i in range(nrows) if residual[i] > 0]
        if not open_rows:
            solutions.append(tuple(sorted(chosen)))
            return
        best_row = None
        best_cols = None
        for i in open_rows:
            cols = [j for j in cols_of_row[i] if usable(j, banned, chosen)]
            if not cols:
                return  # dead end
            if best_cols is None or len(cols) < len(best_cols):
                best_row, best_cols = i, cols
        for j in best_cols:
            for i in range(nrows):
                residual[i] -= entries[i][j]
            newly_banned = {j2 for j2 in cols_of_row[best_row] if j2 < j} - banned
            chosen.append(j)
            dfs(chosen, banned | newly_banned)
            chosen.pop()
            for i in range(nrows):
                residual[i] += entries[i][j]
            if limit is not None and len(solutions) >= limit:
                return

    dfs([], frozenset())
    return solutions


def assert_solve_matches_reference(matrix, lam, limits=(None,)):
    """Same selections in the same order as the oracle, and a limit cuts
    the full list to its first ``limit`` entries."""
    full = solve(matrix, lam)
    for limit in limits:
        assert solve(matrix, lam, limit) == reference_solve(matrix, lam, limit), (lam, limit)
    for limit in (1, 2, 5):
        assert solve(matrix, lam, limit=limit) == full[:limit], (lam, limit)
    return full


def solve_brute_force(matrix, lam):
    """Reference solver: test all 2^cols column subsets (tiny matrices only)."""
    ncols = len(matrix.col_reps)
    if ncols > 20:
        raise ValueError("brute force reference is for small matrices")
    out = []
    for mask in range(1 << ncols):
        cols = [j for j in range(ncols) if (mask >> j) & 1]
        if all(
            sum(matrix.entries[i][j] for j in cols) == lam for i in range(len(matrix.entries))
        ):
            out.append(tuple(cols))
    return out


def brute_force_reference(matrix, lam):
    """Test-local exhaustive reference, independent of the library's."""
    ncols = len(matrix.col_reps)
    nrows = len(matrix.entries)
    hits = []
    for mask in range(1 << ncols):
        cols = tuple(j for j in range(ncols) if (mask >> j) & 1)
        if all(sum(matrix.entries[i][j] for j in cols) == lam for i in range(nrows)):
            hits.append(cols)
    return sorted(hits)


@pytest.mark.parametrize("module", sorted(
    path.name for path in Path(kramer_mesner.__file__).parent.glob("*.py")
    if path.name != "perms.py"))
def test_no_module_but_perms_reads_the_chain_layout(module):
    """Only ``perms`` reads a stabilizer chain's levels, so a change of how
    the chain is stored (a base change, say) stays inside ``perms``."""
    path = Path(kramer_mesner.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    layout = {"_transversals", "_inverse", "_inverses", "_level_gens", "_sift_from",
              "_sift_base_images", "_order_from", "_install", "_close_from",
              "_close_level", "_orbit_transversal"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & layout


def test_c7_matrix_shape_and_row_sums():
    matrix = build_orbit_matrix(cyclic_group(7), 2, 3)
    assert len(matrix.row_reps) == 3
    assert len(matrix.col_reps) == 5
    assert all(sum(row) == comb(5, 1) for row in matrix.entries)
    assert all(size == 7 for size in matrix.col_sizes)


def test_t_equals_k_is_orbit_identity_matrix():
    group = cyclic_group(7)
    matrix = build_orbit_matrix(group, 3, 3)
    assert matrix.row_reps == matrix.col_reps
    for i, row in enumerate(matrix.entries):
        assert all(value == (1 if i == j else 0) for j, value in enumerate(row))


def test_psl211_matrix_row_sums():
    matrix = build_orbit_matrix(projective_group("PSL", 11), 5, 6)
    assert all(sum(row) == comb(7, 1) for row in matrix.entries)
    assert sum(matrix.col_sizes) == comb(12, 6)


def test_row_well_defined_under_alternate_representatives():
    group = projective_group("PSL", 7)
    matrix = build_orbit_matrix(group, 2, 3)
    _, _, col_index = group.subset_orbit_partition(3)
    reps, _, row_index = group.subset_orbit_partition(2)
    rng = random.Random(41)
    all_pairs = [
        (i, subset)
        for subset, i in row_index.items()
    ]
    for _ in range(100):
        i, subset = rng.choice(all_pairs)
        row = [0] * len(matrix.col_reps)
        rest = [p for p in range(group.degree) if p not in subset]
        from itertools import combinations

        for extra in combinations(rest, 1):
            superset = tuple(sorted(subset + extra))
            row[col_index[superset]] += 1
        assert tuple(row) == matrix.entries[i]


def test_solver_finds_fano_difference_set():
    matrix = build_orbit_matrix(cyclic_group(7), 2, 3)
    selections = solve(matrix, 1)
    rep_sets = [tuple(matrix.col_reps[j] for j in s) for s in selections]
    assert ((0, 1, 3),) in rep_sets
    for selection in selections:
        assert sum(matrix.col_sizes[j] for j in selection) == 7


def test_solver_lambda_zero():
    matrix = build_orbit_matrix(cyclic_group(7), 2, 3)
    assert solve(matrix, 0) == [()]


def test_solver_matches_brute_force():
    cases = [
        (build_orbit_matrix(cyclic_group(7), 2, 3), 1),
        (build_orbit_matrix(cyclic_group(7), 2, 3), 2),
        (build_orbit_matrix(cyclic_group(7), 2, 4), 2),
        (build_orbit_matrix(PermutationGroup([], degree=5), 1, 2), 1),
        (build_orbit_matrix(cyclic_group(9), 2, 3), 1),
    ]
    for matrix, lam in cases:
        assert len(matrix.col_reps) <= 12
        got = sorted(solve(matrix, lam))
        expected = brute_force_reference(matrix, lam)
        assert got == expected
        assert got == sorted(solve_brute_force(matrix, lam))


def test_solver_limit():
    matrix = build_orbit_matrix(cyclic_group(7), 2, 3)
    assert len(solve(matrix, 1, limit=1)) == 1


@pytest.mark.parametrize("k, lam, v_max", [(3, 1, 31), (4, 1, 31), (4, 2, 20)])
def test_solver_matches_reference_cyclic(k, lam, v_max):
    # the reference takes 18 s on C_24 at (2, 4, 2), and more than twice as
    # long for each further v, so lambda = 2 stops at v = 20
    counts = {}
    for v in range(k, v_max + 1):
        counts[v] = len(assert_solve_matches_reference(
            build_orbit_matrix(cyclic_group(v), 2, k), lam))
    if k == 3:
        known = {7: 2, 9: 0, 13: 4, 15: 4, 19: 32, 21: 32, 31: 2048}
        assert {v: counts[v] for v in known} == known


@pytest.mark.parametrize("group, t, k", small_km_cases())
def test_solver_matches_reference_small_km(group, t, k):
    group = cyclic_group(group) if isinstance(group, int) else catalog_entry_by_name(group).group()
    matrix = build_orbit_matrix(group, t, k)
    assert_solve_matches_reference(matrix, 1, limits=(None, 1, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solver_matches_reference_random(data):
    nrows = data.draw(st.integers(0, 6))
    ncols = data.draw(st.integers(0, 12))
    entries = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols),
                                 min_size=nrows, max_size=nrows))
    sizes = data.draw(st.lists(st.integers(1, 60), min_size=ncols, max_size=ncols))
    matrix = OrbitMatrix(
        degree=1,
        t=1,
        k=1,
        row_reps=tuple((i,) for i in range(nrows)),
        col_reps=tuple((j,) for j in range(ncols)),
        col_sizes=tuple(sizes),
        entries=tuple(map(tuple, entries)),
    )
    lam = data.draw(st.integers(1, 3))
    limit = data.draw(st.one_of(st.none(), st.integers(1, 5)))
    assert_solve_matches_reference(matrix, lam, limits=(limit,))


def test_expand_and_verify_lambda2():
    group = cyclic_group(7)
    matrix = build_orbit_matrix(group, 2, 3)
    reps, _, col_index = group.subset_orbit_partition(3)
    orbits = {j: [s for s, i in col_index.items() if reps[i] == rep]
              for j, rep in enumerate(matrix.col_reps)}
    before = {j: list(orbit) for j, orbit in orbits.items()}
    designs = [expand_selection(matrix, selection, 2, orbits) for selection in solve(matrix, 2)]
    assert orbits == before  # expand_selection only reads its orbits
    for design in designs:
        assert verify(design).covered_lambda == 2
    assert designs == search_design(group, 2, 3, 2)


def test_expand_selection_ignores_the_order_of_orbits_and_blocks():
    group = cyclic_group(13)
    matrix = build_orbit_matrix(group, 2, 3)
    reps, _, col_index = group.subset_orbit_partition(3)
    orbits = {j: sorted(s for s, i in col_index.items() if reps[i] == rep)
              for j, rep in enumerate(matrix.col_reps)}
    rng = random.Random(13)
    for selection in solve(matrix, 2):
        design = expand_selection(matrix, selection, 2, orbits)
        assert verify(design).covered_lambda == 2
        shuffled = {j: rng.sample(orbit, len(orbit)) for j, orbit in orbits.items()}
        backwards = selection[::-1]
        assert expand_selection(matrix, backwards, 2, shuffled) == design


def test_orbit_size_check_survives_the_orbit_cache():
    group = cyclic_group(7)
    matrix = build_orbit_matrix(group, 2, 3)
    first, last = solve(matrix, 1)
    j = min(set(last) - set(first))  # first met after the cache fills
    sizes = list(matrix.col_sizes)
    sizes[j] -= 1
    bad = dataclasses.replace(matrix, col_sizes=tuple(sizes))
    with pytest.raises(AssertionError, match="orbit size drifted for column %d" % j):
        search_design(group, 2, 3, 1, matrix=bad)


def assert_designs_pass_oracles(group, designs, lam):
    """The per-design checks the column certificate replaces, as oracles."""
    for design in designs:
        assert verify(design).covered_lambda == lam
        induced_block_images(group, design)  # raises unless the group acts


@pytest.mark.parametrize("group, t, k", small_km_cases())
def test_search_design_small_km_designs_pass_oracles(group, t, k):
    group = cyclic_group(group) if isinstance(group, int) else catalog_entry_by_name(group).group()
    designs = search_design(group, t, k, 1)
    assert_designs_pass_oracles(group, designs, 1)


def test_search_design_all_sts31_under_c31_pass_oracles():
    group = cyclic_group(31)
    designs = search_design(group, 2, 3, 1)
    assert len(designs) == len(set(designs)) == 2048
    assert_designs_pass_oracles(group, designs, 1)


def test_search_design_lambda2_designs_pass_oracles():
    for group, t, k in ((cyclic_group(7), 2, 3), (cyclic_group(13), 2, 3),
                        (projective_group("PSL", 7), 3, 4)):
        designs = search_design(group, t, k, 2)
        assert designs
        assert_designs_pass_oracles(group, designs, 2)


def test_search_design_refuses_a_tampered_matrix():
    # under C_7 the column of {0,1,2} reads (2,1,0) on the rows of the
    # differences 1, 2, 3; claiming (1,1,1) makes it a solution on its own
    group = cyclic_group(7)
    matrix = build_orbit_matrix(group, 2, 3)
    j = matrix.col_reps.index((0, 1, 2))
    assert [row[j] for row in matrix.entries] == [2, 1, 0]
    entries = [list(row) for row in matrix.entries]
    for row in entries:
        row[j] = 1
    bad = dataclasses.replace(matrix, entries=tuple(map(tuple, entries)))
    assert (j,) in solve(bad, 1)
    with pytest.raises(AssertionError, match="does not cover every 2-subset 1 times"):
        search_design(group, 2, 3, 1, matrix=bad)


def test_search_design_refuses_a_column_repeating_an_orbit():
    # at lambda = 2 a copy of the Fano column under another representative
    # pairs with the original; the design would hold each block twice
    group = cyclic_group(7)
    matrix = build_orbit_matrix(group, 2, 3)
    j, extra = matrix.col_reps.index((0, 1, 3)), len(matrix.col_reps)
    bad = dataclasses.replace(
        matrix,
        col_reps=matrix.col_reps + ((1, 2, 4),),
        col_sizes=matrix.col_sizes + (matrix.col_sizes[j],),
        entries=tuple(row + (row[j],) for row in matrix.entries),
    )
    assert tuple(sorted((j, extra))) in solve(bad, 2)
    with pytest.raises(AssertionError, match="columns %d and %d have the same orbit" % (j, extra)):
        search_design(group, 2, 3, 2, matrix=bad)


def test_search_design_refuses_a_column_with_a_repeated_point(monkeypatch):
    from steinerkit import kramer_mesner

    group = cyclic_group(7)
    matrix = build_orbit_matrix(group, 2, 3)
    j = matrix.col_reps.index((0, 1, 3))
    bad = dataclasses.replace(
        matrix, col_reps=matrix.col_reps[:j] + ((0, 0, 1),) + matrix.col_reps[j + 1:])
    assert (j,) in solve(bad, 1)
    expanded = []
    monkeypatch.setattr(kramer_mesner, "expand_selection",
                        lambda *args: expanded.append(args) or expand_selection(*args))
    with pytest.raises(AssertionError, match="orbit of column %d: .* not strictly increasing" % j):
        search_design(group, 2, 3, 1, matrix=bad)
    assert not expanded  # refused before any design is made


def test_search_design_refuses_an_orbit_not_closed_under_the_group(monkeypatch):
    from steinerkit import kramer_mesner

    orbit = kramer_mesner._orbit

    def one_block_swapped(seed, maps, tree=None):
        members = orbit(seed, maps, tree)
        return members[:-1] + [(0, 1, 2)] if (0, 1, 2) not in members else members

    monkeypatch.setattr(kramer_mesner, "_orbit", one_block_swapped)
    with pytest.raises(AssertionError, match="not closed under the group"):
        search_design(cyclic_group(7), 2, 3, 1)


def test_search_design_cap_binds_a_passed_matrix():
    group = cyclic_group(7)
    matrix = build_orbit_matrix(group, 2, 3)
    assert search_design(group, 2, 3, 1, cap=21, matrix=matrix)
    with pytest.raises(CapacityError):  # C(7, 2) = 21 counters
        search_design(group, 2, 3, 1, cap=20, matrix=matrix)


@pytest.mark.parametrize("matrix_group, t, k", [("PSL(2,7)", 3, 4), ("C_7", 2, 3)],
                         ids=["other-t-and-k", "other-degree"])
def test_search_design_refuses_a_matrix_of_other_parameters(matrix_group, t, k):
    # PSL(2,7) on 8 points has two 3-(8,4,1) designs; neither their matrix
    # nor one of C_7 on 7 points may stand in for the 2-(8,3,1) search
    group = projective_group("PSL", 7)
    other = group if matrix_group == "PSL(2,7)" else cyclic_group(7)
    matrix = build_orbit_matrix(other, t, k)
    with pytest.raises(ValueError, match=r"orbit matrix is of \(v, t, k\) = \(%d, %d, %d\), "
                                         r"not \(8, 2, 3\)" % (other.degree, t, k)):
        search_design(group, 2, 3, 1, matrix=matrix)


def test_search_design_fano():
    designs = search_design(cyclic_group(7), 2, 3, 1)
    assert designs
    for design in designs:
        assert design.b == 7
        assert verify(design).covered_lambda == 1


def test_search_design_small_witt():
    group = projective_group("PSL", 11)
    designs = search_design(group, 5, 6, 1)
    assert designs
    for design in designs:
        assert design.b == 132
        assert verify(design).covered_lambda == 1
        action = induced_block_action(group, design)
        assert action.is_block_transitive
        assert group.order // design.b == 5


def test_search_design_outputs_pass_admissibility():
    from steinerkit.admissibility import check

    found = search_design(cyclic_group(7), 2, 3, 1) + search_design(
        projective_group("PSL", 11), 5, 6, 1, limit=1
    )
    for design in found:
        assert check(design.params).admissible


def test_search_design_infeasible_returns_empty():
    # the full symmetric group has a single k-orbit, whose row entry exceeds 1
    s5 = PermutationGroup([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    assert search_design(s5, 2, 3, 1) == []


def test_search_design_parameters_validated():
    with pytest.raises(ValueError):
        build_orbit_matrix(cyclic_group(7), 4, 3)
    with pytest.raises(ValueError):
        solve(build_orbit_matrix(cyclic_group(7), 2, 3), -1)


def test_matrix_json_dump_shape():
    matrix = build_orbit_matrix(cyclic_group(7), 2, 3)
    data = matrix.to_json_dict()
    assert data["t"] == 2 and data["k"] == 3
    assert data["col_sizes"] == [7, 7, 7, 7, 7]
    assert len(data["entries"]) == 3


@pytest.mark.parametrize("k", [3, 4])
def test_matrix_matches_reference_cyclic(k):
    for v in range(k, 32):
        assert_matches_reference(cyclic_group(v), 2, k)


@pytest.mark.parametrize("group, t, k", small_km_cases() + [("M_22", 3, 6)])
def test_matrix_matches_reference_catalog(group, t, k):
    if isinstance(group, int):
        group = cyclic_group(group)
    else:
        group = catalog_entry_by_name(group).group()
    assert_matches_reference(group, t, k)


def test_matrix_matches_reference_trivial_group():
    for t in range(1, 7):
        for k in range(t, 7):
            assert_matches_reference(PermutationGroup([], degree=6), t, k)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_matrix_matches_reference_random(data):
    degree = data.draw(st.integers(1, 8))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    for t in range(1, degree + 1):
        for k in range(t, degree + 1):
            assert_matches_reference(group, t, k)


def test_matrix_partitions_only_t_subsets(monkeypatch):
    sizes = []
    partition = PermutationGroup.subset_orbit_partition

    def counting(self, m, *args, **kwargs):
        sizes.append(m)
        return partition(self, m, *args, **kwargs)

    monkeypatch.setattr(PermutationGroup, "subset_orbit_partition", counting)
    # a t-homogeneous group's one row is read from its chain; PSL(2,19) is
    # 3-homogeneous but not 3-transitive
    psl19 = catalog_entry_by_name("PSL(2,19)").group()
    assert psl19.is_homogeneous(3) and not psl19.is_transitive_on_tuples(3)
    for name, t, k in [("M_24", 5, 8), ("PGL(2,19)", 3, 4), ("PSL(2,19)", 3, 4)]:
        matrix = build_orbit_matrix(catalog_entry_by_name(name).group(), t, k)
        assert matrix.row_reps == (tuple(range(t)),)
    assert sizes == []
    # |PSL(2,9)| = 360 is a multiple of C(10,3) = 120, but the index test fails
    build_orbit_matrix(projective_group("PSL", 9), 3, 4)
    build_orbit_matrix(projective_group("PSL", 11), 5, 6)
    build_orbit_matrix(cyclic_group(13), 2, 3)
    assert sizes == [3, 5, 2]


@pytest.mark.parametrize("name, t, k", [
    ("PSL(2,7)", 3, 4), ("PGL(2,9)", 3, 4), ("PSL(2,19)", 3, 4), ("PGL(2,19)", 3, 4),
    ("PSL(2,27)", 3, 4), ("M_12", 5, 6), ("AGL(1,8)", 5, 7), ("A_7", 5, 6),
])
def test_matrix_of_a_relabelled_homogeneous_group_matches_reference(name, t, k):
    # AGL(1,8) is 5-homogeneous but only 2-transitive, so the search for an
    # element taking a 5-subset onto R backtracks
    group = catalog_entry_by_name(name).group()
    rng = random.Random(name)
    for _ in range(2):
        images = list(range(group.degree))
        rng.shuffle(images)
        conj = Permutation(images)
        relabelled = PermutationGroup([conj.inverse() * g * conj for g in group.generators])
        assert relabelled.order == comb(group.degree, t) * relabelled.stabilizer_setwise(
            range(t)).order
        assert_matches_reference(relabelled, t, k)


@pytest.fixture
def orbit_routes(monkeypatch):
    """``route(group, m)`` is (orbits, the route ``subset_orbits`` took):
    "matrix", "partition", or "one" for a single orbit built from neither."""
    taken = []
    matrix, partition = build_orbit_matrix, PermutationGroup.subset_orbit_partition

    def counting_matrix(*args, **kwargs):
        taken.append("matrix")
        return matrix(*args, **kwargs)

    def counting_partition(*args, **kwargs):
        taken.append("partition")
        return partition(*args, **kwargs)

    monkeypatch.setattr(kramer_mesner, "build_orbit_matrix", counting_matrix)
    monkeypatch.setattr(PermutationGroup, "subset_orbit_partition", counting_partition)

    def route(group, m):
        taken.clear()
        orbits = subset_orbits(group, m)
        assert len(taken) <= 1
        return orbits, taken[0] if taken else "one"

    return route


def reference_subset_orbits(group, m):
    reps, sizes, _ = group.subset_orbit_partition(m)
    return list(zip(reps, sizes))


def relabelled(group, rng):
    """``group`` conjugated by a random relabelling; a conjugate has the same
    order, which is passed to keep the chain build short."""
    images = list(range(group.degree))
    rng.shuffle(images)
    conj = Permutation(images)
    return PermutationGroup([conj.inverse() * g * conj for g in group.generators],
                            _order=group.order)


def test_subset_orbits_match_the_partition_on_the_catalog(orbit_routes):
    """Every constructible catalog group of degree <= 28, as given and
    relabelled, at m = 0..3 and v-2..v+1, at m = 4 and v-3 up to degree 16,
    and at m = 5 up to degree 12: the partitions of larger m would take
    seconds.  A conjugate of an m-homogeneous group is m-homogeneous, so the
    relabelled copy is partitioned only where the given one has several
    orbits; and so is the given one at m > v/2 (complements carry the
    orbits on (v-m)-subsets onto those on m-subsets).  sympy recounts the
    orbits read from matrices up to degree 12."""
    sympy = importlib.util.find_spec("sympy") is not None
    rng = random.Random(28)
    routes = Counter()
    for v in range(5, 29):
        low = 3 if v > 16 else 4 if v > 12 else 5
        ms = sorted(set(range(low + 1)) | set(range(v - (2 if v > 16 else 3), v + 2)))
        for entry in candidates_for_degree(v):
            if not entry.constructible:
                continue
            given = entry.group()
            copy = relabelled(given, rng)
            counts = {}  # m -> number of orbits of the given group
            for m in ms:
                if counts.get(v - m) == 1:
                    expected = [(tuple(range(m)), comb(v, m))]
                else:
                    expected = reference_subset_orbits(given, m)
                counts[m] = len(expected)
                for group in (given, copy):
                    if group is copy and len(expected) > 1:
                        expected = reference_subset_orbits(copy, m)
                    orbits, route = orbit_routes(group, m)
                    routes[route] += 1
                    assert orbits == expected, (entry.name, m, group is copy)
                    if sympy and route == "matrix" and v <= 12:
                        assert_sympy_set_orbits(group, orbits)
    assert routes == {"one": 954, "matrix": 58, "partition": 10}


def assert_sympy_set_orbits(group, orbits):
    """Each representative's orbit in sympy has the reported size and the
    representative as its least member, so the orbits are distinct, and
    with sizes summing to C(v, m) they are all of them."""
    from sympy.combinatorics import Permutation as SympyPermutation
    from sympy.combinatorics import PermutationGroup as SympyGroup

    oracle = SympyGroup([SympyPermutation(list(g.images)) for g in group.generators])
    for rep, size in orbits:
        orbit = oracle.orbit(list(rep), action="sets")
        assert len(orbit) == size and min(tuple(sorted(s)) for s in orbit) == rep


@pytest.mark.parametrize("name, m, route", [
    # one orbit by homogeneity at h = min(m, v - m); the columns at the
    # largest homogeneous t <= m would be slow: on a 2-CPU host
    # build_orbit_matrix takes 7.5 s for (PSL(2,23), 3, 21) and 2.3 s for
    # (M_24, 5, 20)
    ("PSL(2,23)", 21, "one"), ("M_24", 20, "one"),
    # C(m, t0)^2 <= C(v, t0) selects the matrix, and fails for these
    ("PSL(2,49)", 3, "matrix"), ("M_22", 4, "matrix"),
    ("PSL(2,9)", 5, "partition"), ("PSL(2,13)", 11, "partition"),
])
def test_subset_orbit_routes(orbit_routes, name, m, route):
    group = catalog_entry_by_name(name).group()
    orbits, taken = orbit_routes(group, m)
    assert taken == route
    if name == "M_24":  # 5-transitive, so 20-homogeneous; its partition takes 0.1 s
        assert orbits == [(tuple(range(20)), comb(24, 20))]
    else:
        assert orbits == reference_subset_orbits(group, m)


def test_subset_orbits_edge_cases(orbit_routes):
    c7 = cyclic_group(7)
    assert orbit_routes(c7, 0) == ([((), 1)], "one")
    assert orbit_routes(c7, 7) == ([(tuple(range(7)), 1)], "one")
    assert orbit_routes(c7, 8) == ([], "one")
    # C_7's only homogeneous t0 is 1: its matrix pays at m = 2 (C(2,1)^2 <= 7),
    # not at m = 3, 4 or 5
    for m, route in [(1, "one"), (2, "matrix"), (3, "partition"), (4, "partition"),
                     (5, "partition"), (6, "one")]:
        orbits, taken = orbit_routes(c7, m)
        assert (taken, orbits) == (route, reference_subset_orbits(c7, m)), m
    trivial = PermutationGroup([], degree=5)
    intransitive = PermutationGroup([parse_cycles("(0 1 2)(3 4)", 7), parse_cycles("(0 1)", 7)])
    for group in (trivial, intransitive):
        for m in range(group.degree + 2):
            orbits, taken = orbit_routes(group, m)
            assert orbits == reference_subset_orbits(group, m), m
            assert taken == ("one" if m in (0, group.degree, group.degree + 1) else "partition")
    with pytest.raises(ValueError):
        subset_orbits(c7, -1)
