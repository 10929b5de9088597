import functools
import random
import re
import time
from itertools import combinations, permutations
from math import comb, perm

import pytest
from hypothesis import assume, given, settings, strategies as st

from steinerkit.catalog import candidates_for_degree, catalog_entry_by_name
from steinerkit.designs import Design, DesignParameters, construct_boolean, fano_plane
from steinerkit.errors import CapacityError, NotAutomorphismError
from steinerkit.kramer_mesner import subset_orbits
from steinerkit.perms import (
    DEFAULT_SUBSET_CAP,
    Permutation,
    PermutationGroup,
    group_from_json_dict,
    homogeneity,
    induced_block_action,
    induced_block_images,
    parse_cycles,
)


def closure(gens, degree):
    """Naive closure, used as an oracle for small groups."""
    elements = {Permutation.identity(degree)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = e * g
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    return elements


def chain_elements(group):
    """Every element read from the stabilizer chain: one product of
    transversal representatives per choice of coset at each level."""
    out = [Permutation.identity(group.degree)]
    for trans in group._transversals:
        out = [u * tail for tail in out for u in trans.values()]
    return out


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


@pytest.mark.parametrize("images", [[1.0, 0, 2], [True, False], [0, "1"], [None]])
def test_permutation_refuses_images_that_are_not_integers(images):
    # 1.0 and True compare equal to 1, so the bijection test alone lets them in
    with pytest.raises(ValueError, match="not an integer"):
        Permutation(images)
    with pytest.raises(ValueError, match="not an integer"):
        PermutationGroup([images])


@pytest.mark.parametrize("cycles", [[[0, 5]], [[-1, 0]], [[0, 1.0]], [[True, 2]], [[0], [3]]])
def test_from_cycles_refuses_a_point_out_of_range(cycles):
    with pytest.raises(ValueError, match=r"is not in 0\.\.2"):
        Permutation.from_cycles(3, cycles)


def test_composition_is_left_to_right():
    p = parse_cycles("(0 1)", 3)
    q = parse_cycles("(1 2)", 3)
    assert (p * q)(0) == q(p(0)) == 2
    assert (q * p)(0) == 1


def test_inverse():
    p = parse_cycles("(0 1 2 3 4)(5 6)", 7)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p.inverse() == parse_cycles("(0 4 3 2 1)(5 6)", 7)


def test_products_need_equal_degrees():
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 3) * parse_cycles("(0 1)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 4) * parse_cycles("(0 1)", 3)


def test_cycle_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        images = list(range(9))
        rng.shuffle(images)
        p = Permutation(images)
        assert parse_cycles(p.cycle_string(), 9) == p


def test_parse_cycles_variants():
    assert parse_cycles("(0 1 2)(3 4)") == parse_cycles("(0,1,2) (3,4)")
    for text in ("", "()", " () ", "()()"):
        assert parse_cycles(text, 4).is_identity()
        with pytest.raises(ValueError, match="cannot infer degree"):
            parse_cycles(text)
    with pytest.raises(ValueError):
        parse_cycles("(0 1) junk")
    with pytest.raises(ValueError):
        parse_cycles("(0 0 1)")


@pytest.mark.parametrize("text, point", [("(0 1)(1 0)", 1), ("(0 1 2)(0 1 2)", 0),
                                         ("(0 1)(2 3 1)", 1)])
def test_parse_cycles_refuses_a_point_in_two_cycles(text, point):
    # read as a product, these are not the permutation one cycle overwrite gives
    with pytest.raises(ValueError, match="point %d appears twice" % point):
        parse_cycles(text, 4)


@pytest.mark.parametrize(
    "cycles, degree, order",
    [
        (["(0 1)", "(0 1 2 3)"], 4, 24),  # S4
        (["(0 1 2)", "(0 1 2 3 4)"], 5, 60),  # A5
        (["(0 1 2 3 4 5 6)"], 7, 7),  # C7
        (["(0 1 2 3)", "(1 3)"], 4, 8),  # dihedral of the square
    ],
)
def test_chain_orders(cycles, degree, order):
    group = PermutationGroup([parse_cycles(c, degree) for c in cycles])
    assert group.order == order
    assert group.order == len(closure(group.generators, degree))


def test_trivial_group():
    group = PermutationGroup([], degree=10)
    assert group.order == 1
    assert Permutation.identity(10) in group
    assert parse_cycles("(0 1)", 10) not in group


def test_membership_exact():
    s4 = PermutationGroup([parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    for images in permutations(range(4)):
        assert Permutation(images) in s4
    a4 = PermutationGroup([parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)])
    assert a4.order == 12
    assert parse_cycles("(0 1)", 4) not in a4
    assert parse_cycles("(0 1)(2 3)", 4) in a4


def test_random_generator_words_are_members():
    group = PermutationGroup([parse_cycles("(0 1 2)", 7), parse_cycles("(2 3 4 5 6)", 7)])
    rng = random.Random(11)
    gens = list(group.generators) + [g.inverse() for g in group.generators]
    for _ in range(100):
        word = Permutation.identity(7)
        for _ in range(rng.randrange(1, 12)):
            word = word * rng.choice(gens)
        assert word in group


def test_elements_enumeration_matches_closure():
    group = PermutationGroup([parse_cycles("(0 1 2)", 5), parse_cycles("(0 1)(3 4)", 5)])
    listed = chain_elements(group)
    assert len(listed) == group.order == len(set(listed))
    assert set(listed) == closure(group.generators, 5)


def test_orbits_and_point_orbits():
    group = PermutationGroup([parse_cycles("(0 1 2)", 6), parse_cycles("(3 4)", 6)])
    assert group.point_orbits() == [(0, 1, 2), (3, 4), (5,)]


def test_orbit_stabilizer_identity():
    groups = [
        PermutationGroup([parse_cycles("(0 1)", 6), parse_cycles("(0 1 2 3 4 5)", 6)]),
        PermutationGroup([parse_cycles("(0 1 2)", 7), parse_cycles("(0 1 2 3 4 5 6)", 7)]),
    ]
    rng = random.Random(3)
    for group in groups:
        for _ in range(10):
            x = rng.randrange(group.degree)
            stab = group.stabilizer_point(x)
            orbit = next(orbit for orbit in group.point_orbits() if x in orbit)
            assert group.order == stab.order * len(orbit)


def test_pointwise_and_setwise_stabilizers_vs_bruteforce():
    s5 = PermutationGroup([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    all_elements = closure(s5.generators, 5)
    block = (1, 3)
    expected_setwise = {g for g in all_elements if g.apply_set(block) == block}
    setwise = s5.stabilizer_setwise(block)
    assert setwise.order == len(expected_setwise) == 12
    assert set(chain_elements(setwise)) == expected_setwise

    expected_pair = {g for g in all_elements if g(1) == 1 and g(3) == 3}
    pair = s5.stabilizer_pointwise([1, 3])
    assert pair.order == len(expected_pair) == 6
    assert set(chain_elements(pair)) == expected_pair


def test_stabilizer_point_in_block():
    s5 = PermutationGroup([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    sub = s5.stabilizer_point_in_block(1, (1, 3))
    # fix 1, fix {1,3} setwise => fix 3 too; S_3 remains on {0,2,4}
    assert sub.order == 6
    with pytest.raises(ValueError):
        s5.stabilizer_point_in_block(0, (1, 3))


@pytest.mark.parametrize("point", [0.5, 2.9, 1.0, True, False, "1", None, -1, 4])
def test_stabilizers_refuse_a_point_that_is_not_an_int_in_range(point):
    # 0.5 and 2.9 were truncated and 1.0 and True read as 1: each gave S_3
    s4 = PermutationGroup([parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    message = r"^point %s is not an integer in 0\.\.3$" % re.escape(repr(point))
    with pytest.raises(ValueError, match=message):
        s4.stabilizer_point(point)
    with pytest.raises(ValueError, match=message):
        s4.stabilizer_pointwise([0, point])
    with pytest.raises(ValueError, match=message):
        s4.stabilizer_setwise([point, 2])
    with pytest.raises(ValueError, match="^base " + message[1:]):
        PermutationGroup(s4.generators, 4, base_prefix=[point])
    assert s4.stabilizer_point(1).order == 6  # an int point is still read


def test_stabilizer_of_fixed_point_is_whole_group():
    group = PermutationGroup([parse_cycles("(1 2 3)", 5), parse_cycles("(2 3 4)", 5)])
    assert group.stabilizer_point(0).order == group.order


def test_subset_orbits_c7():
    c7 = PermutationGroup([parse_cycles("(0 1 2 3 4 5 6)", 7)])
    orbits2 = subset_orbits(c7, 2)
    assert [size for _, size in orbits2] == [7, 7, 7]
    orbits3 = subset_orbits(c7, 3)
    assert len(orbits3) == 5 and all(size == 7 for _, size in orbits3)
    for rep, _ in orbits3:
        assert rep == min(_orbit_of(c7, rep, Permutation.apply_set))


def _orbit_of(group, seed, act):
    """Reference orbit by breadth-first search, ``act(g, x)`` the action."""
    orbit = {seed}
    queue = [seed]
    for item in queue:
        for g in group.generators:
            image = act(g, item)
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    return orbit


def _transitive_on_tuples_bfs(group, t):
    """Reference t-transitivity: one orbit on all distinct t-tuples."""
    total = perm(group.degree, t)
    seed = tuple(range(t))
    return total > 0 and len(_orbit_of(group, seed, _apply_tuple)) == total


def _apply_tuple(g, points):
    return tuple(g(p) for p in points)


def test_subset_orbits_trivial_group():
    group = PermutationGroup([], degree=4)
    orbits = subset_orbits(group, 2)
    assert len(orbits) == 6 and all(size == 1 for _, size in orbits)


def test_subset_orbit_sizes_divide_group_order():
    group = PermutationGroup([parse_cycles("(0 1 2)", 6), parse_cycles("(0 1)(2 3)(4 5)", 6)])
    for m in (1, 2, 3):
        for _, size in subset_orbits(group, m):
            assert group.order % size == 0


def test_homogeneity_symmetric_group():
    s6 = PermutationGroup([parse_cycles("(0 1)", 6), parse_cycles("(0 1 2 3 4 5)", 6)])
    report = homogeneity(s6, 6)
    assert report.transitivity_degree == 6
    assert report.homogeneity_degree == 6


def test_one_chain_per_base_prefix(monkeypatch):
    # homogeneity rebases once, to 0..t_max-1, and build_orbit_matrix once,
    # to R; the setwise stabilizers of {0..m-1} search those chains, so the
    # only other group built is each search's result.  No stabilizer is
    # searched where C(v,m) does not divide |G|, as C(22,4) = 7315 and |M_22|.
    # subset_orbits reads M_24's 4-transitivity from its own chain, and
    # rebases PSL(2,27) once, to 0..3, for the climb and the matrix at t = 3,
    # which reads the G_R the climb's index test searched.  homogeneity reads
    # a relabelled M_24's 4-transitivity from its own chain, whose base
    # starts 0, 1, 2, 4
    from steinerkit.catalog import catalog_entry_by_name
    from steinerkit.kramer_mesner import build_orbit_matrix

    psl8, psl27, m22, m23, m24 = (catalog_entry_by_name(name).group()
                                  for name in ("PSL(2,8)", "PSL(2,27)", "M_22", "M_23", "M_24"))
    assert psl27.base[:3] == [0, 1, 2] and m22.base[:4] != [0, 1, 2, 3]
    assert psl8.base == [0, 1, 2]
    images = list(range(24))
    random.Random(3).shuffle(images)
    conj = Permutation(images)
    m24_relabelled = PermutationGroup([conj.inverse() * g * conj for g in m24.generators])
    assert m24_relabelled.base[:4] != [0, 1, 2, 3]
    built = []
    init = PermutationGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermutationGroup, "__init__", counting_init)
    cases = [
        (lambda: homogeneity(psl27, 3).homogeneity_degree, 3, 1),
        (lambda: homogeneity(m22, 4).homogeneity_degree, 3, 1),
        (lambda: homogeneity(psl8, 4).homogeneity_degree, 4, 2),
        (lambda: homogeneity(m24_relabelled, 4).transitivity_degree, 4, 0),
        (lambda: len(build_orbit_matrix(m24, 5, 8).col_reps), 3, 2),
        (lambda: len(build_orbit_matrix(m23, 4, 7).col_reps), 4, 2),
        (lambda: len(subset_orbits(m24, 4)), 1, 0),
        (lambda: len(subset_orbits(psl27, 4)), 6, 2),
    ]
    for run, result, chains in cases:
        built.clear()
        assert run() == result
        assert len(built) == chains


def test_subset_orbits_searches_the_row_stabilizer_once(monkeypatch):
    # the climb's index test at t0 = 3 and the one-row matrix at (3, m) ask
    # one chain for G_R, R = (0, 1, 2); it is searched once, not per caller
    from steinerkit.catalog import catalog_entry_by_name

    searched = []
    setwise = PermutationGroup.stabilizer_setwise

    def spy(self, block):
        searched.append(tuple(block))
        return setwise(self, block)

    monkeypatch.setattr(PermutationGroup, "stabilizer_setwise", spy)
    for name, m in (("PSL(2,23)", 4), ("PSL(2,19)", 4), ("PSL(2,27)", 4), ("PSL(2,27)", 5)):
        group = catalog_entry_by_name(name).group()
        searched.clear()
        subset_orbits(group, m)
        assert searched.count((0, 1, 2)) == 1, (name, m, searched)


def test_homogeneity_monotone():
    groups = [
        PermutationGroup([parse_cycles("(0 1 2 3 4 5 6)", 7)]),
        PermutationGroup([parse_cycles("(0 1 2)", 6), parse_cycles("(0 1 2 3 4 5)", 6)]),
        PermutationGroup([parse_cycles("(0 1 2)", 7), parse_cycles("(0 1 2 3 4 5 6)", 7)]),
    ]
    for group in groups:
        report = homogeneity(group, 3)
        for t in range(1, report.transitivity_degree + 1):
            assert group.is_transitive_on_tuples(t)
            assert group.is_homogeneous(t)
        assert report.homogeneity_degree >= report.transitivity_degree


SMALL_GROUPS = [
    (["(0 1)", "(0 1 2 3)"], 4),  # S4
    (["(0 1 2)", "(0 1 2 3 4)"], 5),  # A5
    (["(0 1 2 3 4 5 6)"], 7),  # C7
    (["(0 1 2 3)", "(1 3)"], 4),  # dihedral of the square
    (["(0 1 2)", "(0 1 2 3 4 5)"], 6),
    (["(0 1 2)", "(0 1 2 3 4 5 6)"], 7),
    (["(0 1 2)", "(0 1)(2 3)(4 5)"], 6),
    (["(0 1 2)", "(3 4)"], 6),  # intransitive
    ([], 5),  # trivial
]


@pytest.mark.parametrize("cycles, degree", SMALL_GROUPS)
def test_tuple_transitivity_matches_bfs_small_groups(cycles, degree):
    group = PermutationGroup([parse_cycles(c, degree) for c in cycles], degree=degree)
    for t in range(degree + 2):
        assert group.is_transitive_on_tuples(t) == _transitive_on_tuples_bfs(group, t), t


@pytest.mark.parametrize("name", ["M_11", "M_11(deg12)", "PGL(2,11)", "PSL(2,11)", "AGL(3,2)"])
def test_tuple_transitivity_matches_bfs_catalog(name):
    from steinerkit.catalog import catalog_entry_by_name

    group = catalog_entry_by_name(name).group()
    t = 0
    while _transitive_on_tuples_bfs(group, t + 1):
        t += 1
        assert group.is_transitive_on_tuples(t), t
    assert not group.is_transitive_on_tuples(t + 1), t + 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tuple_transitivity_matches_bfs_random(data):
    degree = data.draw(st.integers(1, 7))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    for t in range(degree + 2):
        assert group.is_transitive_on_tuples(t) == _transitive_on_tuples_bfs(group, t), t


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subset_schreier_tree_labels_lead_to_the_least_member(data):
    degree = data.draw(st.integers(1, 8))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    maps = [g.apply_set for g in group.generators]
    for m in range(degree + 1):
        tree = {}
        reps, sizes, index = group.subset_orbit_partition(m, tree=tree)
        assert len(tree) == len(index) - len(reps)
        for subset, (u, f) in tree.items():
            assert f in maps and f(u) == subset
        least = {}
        for subset, i in index.items():
            least[i] = min(least.get(i, subset), subset)
            steps = 0
            while subset in tree:
                subset = tree[subset][0]
                steps += 1
                assert steps < sizes[i]
            assert subset == reps[i]
        assert [least[i] for i in range(len(reps))] == reps


def _homogeneous_bfs(group, t):
    """Reference t-homogeneity: one orbit on all t-subsets."""
    total = comb(group.degree, t)
    return total > 0 and len(_orbit_of(group, tuple(range(t)), Permutation.apply_set)) == total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_homogeneous_matches_bfs_random(data):
    # covers m > degree/2 (the complement step), m = degree and m > degree
    degree = data.draw(st.integers(1, 8))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    for m in range(degree + 2):
        assert group.is_homogeneous(m) == _homogeneous_bfs(group, m), m


def test_is_homogeneous_matches_bfs_on_catalog():
    # A_v and S_v are left to the random groups above and the test below:
    # their G_(S) is large, and the setwise backtrack rebuilds a chain that
    # size for each generator it finds
    from steinerkit.catalog import candidates_for_degree

    checked = 0
    for v in range(4, 25):
        for entry in candidates_for_degree(v):
            if entry.constructible and not entry.k_homogeneous_all:
                group = entry.group()
                for m in range(1, 5):
                    assert group.is_homogeneous(m) == _homogeneous_bfs(group, m), (entry.name, m)
                checked += 1
    assert checked >= 30


@pytest.mark.parametrize("v", [12, 16])
def test_homogeneity_near_the_degree_reads_the_complement(v):
    # A_v is (v-2)-transitive; (v-1)-homogeneity must be decided through the
    # stabilizer of one point, not of v-1 points (about (v-1)!/2 leaves)
    from steinerkit.catalog import catalog_entry_by_name

    group = catalog_entry_by_name("A_%d" % v).group()
    started = time.perf_counter()
    report = homogeneity(group, v - 1)
    assert time.perf_counter() - started < 1.0
    assert (report.transitivity_degree, report.homogeneity_degree) == (v - 2, v - 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_homogeneity_report_matches_bfs_random(data):
    degree = data.draw(st.integers(1, 7))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    t_max = data.draw(st.integers(0, degree + 1))
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    report = homogeneity(group, t_max)
    top = min(t_max, degree)
    trans = 0
    while trans < top and _transitive_on_tuples_bfs(group, trans + 1):
        trans += 1
    homog = 0
    while homog < top and _homogeneous_bfs(group, homog + 1):
        homog += 1
    assert (report.transitivity_degree, report.homogeneity_degree) == (trans, homog)
    assert report.tested_t_max == top


def test_point_orbits_with_many_orbits():
    group = PermutationGroup([parse_cycles("(0 1)(5 9 7)", 20000)])
    orbits = group.point_orbits()
    assert len(orbits) == 19997
    assert orbits[:6] == [(0, 1), (2,), (3,), (4,), (5, 7, 9), (6,)]
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)


def test_transitivity_degree_matches_sympy_on_catalog():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from steinerkit.catalog import candidates_for_degree

    checked = 0
    for v in range(4, 13):
        for entry in candidates_for_degree(v):
            if not entry.constructible:
                continue
            group = entry.group()
            oracle = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g.images)) for g in group.generators]
            )
            expected = oracle.transitivity_degree
            report = homogeneity(group, min(expected + 1, group.degree))
            assert report.transitivity_degree == expected, entry.name
            checked += 1
    assert checked >= 25


def test_capacity_errors():
    group = PermutationGroup([parse_cycles("(0 1 2 3 4 5 6 7 8 9)", 10)])
    with pytest.raises(CapacityError):
        subset_orbits(group, 5, cap=10)
    # homogeneity enumerates no subsets, so it takes no cap
    report = homogeneity(group, 5)
    assert (report.transitivity_degree, report.homogeneity_degree) == (1, 1)


def test_induced_block_action_fano():
    fano = fano_plane()
    c7 = PermutationGroup([parse_cycles("(0 1 2 3 4 5 6)", 7)])
    report = induced_block_action(c7, fano)
    assert report.is_block_transitive
    assert report.is_point_transitive
    assert report.block_orbit_count == 1

    identity = PermutationGroup([], degree=7)
    report = induced_block_action(identity, fano)
    assert report.block_orbit_count == 7
    assert not report.is_block_transitive


def test_induced_block_action_boolean():
    from steinerkit.catalog import catalog_entry_by_name

    design = construct_boolean(3)
    agl = catalog_entry_by_name("AGL(3,2)").group()
    report = induced_block_action(agl, design)
    assert report.is_block_transitive and report.is_flag_transitive and report.is_point_transitive


def test_flag_orbit_count_matches_a_pair_bfs():
    from steinerkit.catalog import catalog_entry_by_name

    cases = [
        (PermutationGroup([parse_cycles("(0 1 2 3 4 5 6)", 7)]), fano_plane()),
        (PermutationGroup([], degree=7), fano_plane()),
        (catalog_entry_by_name("AGL(3,2)").group(), construct_boolean(3)),
        (PermutationGroup([parse_cycles("(1 2 4)(3 6 5)", 8)]), construct_boolean(3)),
    ]
    for group, design in cases:
        flags = {(x, block) for block in design.blocks for x in block}
        orbits = 0
        while flags:
            seen = _orbit_of(group, flags.pop(), lambda g, f: (g(f[0]), g.apply_set(f[1])))
            flags -= seen
            orbits += 1
        report = induced_block_action(group, design)
        assert report.flag_orbit_count == orbits
        assert report.is_flag_transitive == (orbits == 1)


def test_induced_block_action_rejects_non_automorphism():
    fano = fano_plane()
    bad = PermutationGroup([parse_cycles("(0 1)", 7)])
    with pytest.raises(NotAutomorphismError) as info:
        induced_block_action(bad, fano)
    assert info.value.block is not None


def test_group_json_roundtrip():
    group = PermutationGroup([parse_cycles("(0 1 2)", 5), parse_cycles("(0 1)(3 4)", 5)])
    data = {"degree": 5, "generators": [list(g.images) for g in group.generators]}
    again = group_from_json_dict(data)
    assert again.order == group.order and again.degree == group.degree


def test_group_json_cycle_text_form():
    data = {"degree": 5, "generators": ["(0 1 2)", [1, 0, 2, 4, 3]]}
    group = group_from_json_dict(data)
    assert group.order == PermutationGroup(
        [parse_cycles("(0 1 2)", 5), parse_cycles("(0 1)(3 4)", 5)]
    ).order


def test_group_json_errors():
    with pytest.raises(ValueError):
        group_from_json_dict({"degree": 5})
    with pytest.raises(ValueError):
        group_from_json_dict({"degree": 5, "generators": [[0, 1]]})
    with pytest.raises(ValueError):
        group_from_json_dict({"degree": 5, "generators": [[0, 0, 1, 2, 3]]})


@pytest.mark.parametrize("degree", [2**40, DEFAULT_SUBSET_CAP + 1])
@pytest.mark.parametrize("generators", [[], ["(0 1)"], [[1, 0]]], ids=["none", "cycles", "images"])
def test_group_json_refuses_a_degree_above_the_cap_before_allocating(degree, generators):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="group json: degree %d exceeds cap %d"
                           % (degree, DEFAULT_SUBSET_CAP)):
            group_from_json_dict({"degree": degree, "generators": generators})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_base_prefix_kept():
    s4 = PermutationGroup(
        [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)], base_prefix=(2, 0)
    )
    assert s4.order == 24
    assert s4.base[:2] == [2, 0]


def _check_sift_points(group, elements, points):
    """``_sift_points`` stops short of ``len(points)`` exactly when no element
    maps the base prefix onto ``points`` in order, and then at the first
    point no element reaches; otherwise, carrying every point, it returns a
    member sending each ``points[i]`` to ``base[i]``."""
    prefix = group.base[:len(points)]

    def mapped(m):
        return any(all(g(b) == p for b, p in zip(prefix[:m], points[:m])) for g in elements)

    images, depth = group._sift_points(points, range(group.degree))
    assert group._sift_points(points)[1] == depth, points
    assert (depth < len(points)) == (not mapped(len(points))), points
    if depth < len(points):
        assert mapped(depth) and not mapped(depth + 1), points
        return
    back = Permutation(images)
    assert back in elements and [back(p) for p in points] == prefix, points


def reference_sift_from(group, g, level):
    """The chain's former sift loop, kept as a test oracle: reduce ``g``
    through levels >= ``level`` by whole products with the inverse
    transversal elements, giving (residue, dropout level)."""
    for lev in range(level, len(group.base)):
        image = g(group.base[lev])
        trans = group._transversals[lev]
        if image not in trans:
            return g, lev
        g = g * trans[image].inverse()
    return g, len(group.base)


def _check_sift_from(group, perms):
    for g in perms:
        for level in range(len(group.base) + 1):
            assert group._sift_from(g, level) == reference_sift_from(group, g, level), (g, level)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sift_from_matches_the_reference_loop_random(data):
    degree = data.draw(st.integers(1, 7))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    elements = sorted(closure(group.generators, degree), key=lambda g: g.images)
    members = data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4))
    others = data.draw(st.lists(st.permutations(range(degree)), max_size=4))
    _check_sift_from(group, members + [Permutation(g) for g in others])


@functools.lru_cache(maxsize=None)
def _catalog_closure(name):
    from steinerkit.catalog import catalog_entry_by_name

    group = catalog_entry_by_name(name).group()
    return group, sorted(closure(group.generators, group.degree), key=lambda g: g.images)


@settings(max_examples=20, deadline=None)
@given(st.data())
@pytest.mark.parametrize("name", ["PSL(2,7)", "AGL(1,8)"])
def test_sift_from_matches_the_reference_loop_catalog(name, data):
    group, elements = _catalog_closure(name)
    members = data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4))
    inside = set(elements)
    outside = st.permutations(range(group.degree)).map(Permutation).filter(
        lambda g: g not in inside)
    others = data.draw(st.lists(outside, min_size=1, max_size=4))
    _check_sift_from(group, members + others)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sift_points_matches_brute_force_random(data):
    degree = data.draw(st.integers(1, 7))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    elements = closure(group.generators, degree)
    for points in permutations(range(degree), min(1, len(group.base))):
        _check_sift_points(group, elements, points)
    for _ in range(5):
        points = data.draw(st.lists(st.integers(0, degree - 1), unique=True,
                                    max_size=len(group.base)))
        _check_sift_points(group, elements, points)


@pytest.mark.parametrize("name", ["PSL(2,7)", "AGL(1,8)"])
def test_sift_points_matches_brute_force_catalog(name):
    group, elements = _catalog_closure(name)
    elements = set(elements)
    for m in range(len(group.base) + 1):
        for points in permutations(range(group.degree), m):
            _check_sift_points(group, elements, points)


def test_chain_against_closure_random_battery():
    # random generator sets on up to 7 points; the chain order, membership
    # test, and stabilizers must agree with the naive closure
    rng = random.Random(1234)
    for trial in range(30):
        degree = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = PermutationGroup(gens, degree=degree)
        elements = closure(group.generators, degree)
        assert group.order == len(elements), (trial, degree)
        sample = rng.sample(sorted(elements, key=lambda p: p.images), min(6, len(elements)))
        for p in sample:
            assert p in group
        images = list(range(degree))
        rng.shuffle(images)
        outsider = Permutation(images)
        assert (outsider in group) == (outsider in elements)

        x = rng.randrange(degree)
        expected_stab = sum(1 for p in elements if p(x) == x)
        assert group.stabilizer_point(x).order == expected_stab

        size = rng.randrange(1, degree)
        block = tuple(sorted(rng.sample(range(degree), size)))
        _check_setwise_against_closure(group, elements, block)

    # products of symmetric groups on two disjoint parts, with a block that
    # holds a whole part: the pointwise stabilizer G_(B) is often nontrivial
    nontrivial_pointwise = 0
    for _ in range(20):
        degree = rng.randrange(4, 8)
        points = rng.sample(range(degree), degree)
        cut = rng.randrange(2, degree - 1)
        parts = (points[:cut], points[cut:])
        gens = []
        for part in parts:
            gens.append(Permutation.from_cycles(degree, [part]))
            gens.append(Permutation.from_cycles(degree, [part[:2]]))
        group = PermutationGroup(gens, degree=degree)
        elements = closure(group.generators, degree)
        whole, rest = rng.sample(parts, 2)
        block = tuple(sorted(whole + rng.sample(rest, rng.randrange(len(rest)))))
        pointwise = _check_setwise_against_closure(group, elements, block)
        nontrivial_pointwise += pointwise > 1
    assert nontrivial_pointwise >= 5


def _check_setwise_against_closure(group, elements, block):
    """Assert the setwise stabilizer is the closure's filter; return |G_(B)|."""
    expected = {p for p in elements if p.apply_set(block) == block}
    setwise = group.stabilizer_setwise(block)
    assert setwise.order == len(expected), block
    assert set(chain_elements(setwise)) == expected, block
    return sum(1 for p in expected if all(p(x) == x for x in block))


HEPTAD = (0, 1, 2, 8, 11, 20, 22)  # a block of the Steiner system S(4,7,23)
HEXAD = (0, 1, 2, 8, 11, 20)  # a block of the Steiner system S(3,6,22)


@pytest.mark.parametrize("name, block, order", [("M_23", HEPTAD, 40320), ("M_22", HEXAD, 5760)])
def test_setwise_stabilizer_of_steiner_blocks(name, block, order):
    from steinerkit.catalog import catalog_entry_by_name

    group = catalog_entry_by_name(name).group()
    stab = group.stabilizer_setwise(block)
    assert stab.order == order
    for g in stab.generators:
        assert g.apply_set(block) == block
        assert g in group
    assert stab.generators == _setwise_generators_by_recursion(group, block)


def test_stabilizer_point_in_heptad():
    from steinerkit.catalog import catalog_entry_by_name

    m23 = catalog_entry_by_name("M_23").group()
    sub = m23.stabilizer_point_in_block(HEPTAD[0], HEPTAD)
    assert sub.order == 5760
    for g in sub.generators:
        assert g(HEPTAD[0]) == HEPTAD[0] and g.apply_set(HEPTAD) == HEPTAD
        assert g in m23


@pytest.mark.parametrize("name, block, order, pointwise, leaves", [
    ("M_23", HEPTAD, 40320, 16, 6),
    ("M_24", tuple(range(12)), 240, 1, 4),
])
def test_setwise_backtrack_reaches_only_the_leaves_that_extend(monkeypatch, name, block,
                                                                order, pointwise, leaves):
    # pruned by orbit counts and by the subgroup found so far, the walk
    # reaches the identity leaf and the leaves that extend the result, and
    # sifts none of them; unpruned it sifted one leaf per coset of G_(B) in
    # G_B: 40320 / 16 = 2520 for the M_23 heptad, 240 for M_24 {0..11}
    from steinerkit.catalog import catalog_entry_by_name

    group = catalog_entry_by_name(name).group()
    assert group.stabilizer_pointwise(block).order == pointwise
    extensions, sifts = [], []
    real_extend, real_sift = PermutationGroup._extend, PermutationGroup.sift

    def counting_extend(self, g):
        extensions.append(g)
        return real_extend(self, g)

    def counting_sift(self, perm):
        sifts.append(perm)
        return real_sift(self, perm)

    monkeypatch.setattr(PermutationGroup, "_extend", counting_extend)
    monkeypatch.setattr(PermutationGroup, "sift", counting_sift)
    assert group.stabilizer_setwise(block).order == order
    assert (len(extensions) + 1, len(sifts)) == (leaves, 0)


def test_setwise_stabilizer_of_a_large_block_needs_no_recursion():
    # the backtrack walks one level per block point; 1100 levels are past
    # Python's default recursion limit, so the walk keeps its own stack
    group = PermutationGroup([Permutation.from_cycles(1200, [range(1100, 1200)])])
    start = time.perf_counter()
    assert group.stabilizer_setwise(range(1100)).order == 100
    assert time.perf_counter() - start < 2


def _random_group(data, max_degree=8):
    degree = data.draw(st.integers(1, max_degree))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermutationGroup([Permutation(g) for g in gens], degree=degree)


def _sympy_order(perms, degree):
    """Group order from ``sympy.combinatorics``, or None when it is not importable."""
    try:
        from sympy.combinatorics import Permutation as SympyPermutation
        from sympy.combinatorics import PermutationGroup as SympyGroup
    except ImportError:
        return None
    if not perms:
        return 1
    return SympyGroup([SympyPermutation(list(p.images), size=degree) for p in perms]).order()


def _chain_state(group):
    return (
        group.base,
        [[g.images for g in gens] for gens in group._level_gens],
        [sorted((point, u.images) for point, u in trans.items()) for trans in group._transversals],
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_known_order_rebase_matches_a_full_closure(data):
    # a group whose base already starts with the prefix is its own rebase;
    # any other rebase ends with the chain a full closure builds
    group = _random_group(data)
    prefix = data.draw(st.lists(st.integers(0, group.degree - 1), unique=True))
    rebased = group._rebase(prefix)
    full = PermutationGroup(group.generators, group.degree, base_prefix=prefix)
    assert rebased.order == full.order == group.order
    if group.base[:len(prefix)] == prefix:
        assert rebased is group
    else:
        assert _chain_state(rebased) == _chain_state(full)
    expected = _sympy_order(group.generators, group.degree)
    assert expected in (None, rebased.order)
    for _ in range(5):
        perm = Permutation(data.draw(st.permutations(range(group.degree))))
        assert (perm in rebased) == (perm in full)
    points = prefix[:data.draw(st.integers(0, len(prefix)))]
    assert rebased.stabilizer_pointwise(points).order == full.stabilizer_pointwise(points).order
    level = len(prefix)
    assert _chain_state(rebased._level_subgroup(level)) == _chain_state(
        PermutationGroup(rebased._level_gens[level], group.degree))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_matches_a_group_built_with_the_generator(data):
    degree = data.draw(st.integers(1, 8))
    *gens, g = [Permutation(p) for p in data.draw(
        st.lists(st.permutations(range(degree)), min_size=1, max_size=3))]
    group = PermutationGroup(gens, degree=degree)
    assume(g not in group)
    group._extend(g)
    full = PermutationGroup(gens + [g], degree)
    assert group.generators == full.generators
    assert group.order == full.order
    assert _sympy_order(full.generators, degree) in (None, full.order)
    for _ in range(5):
        perm = Permutation(data.draw(st.permutations(range(degree))))
        assert (perm in group) == (perm in full)


def _setwise_generators_by_recursion(group, block):
    """Reference: the setwise backtrack as a recursion over the block's levels
    that rebuilds its result from scratch at every new generator."""
    chain = PermutationGroup(group.generators, group.degree, base_prefix=block)
    found = list(chain._level_gens[len(block)])
    known = PermutationGroup(found, group.degree)

    def rec(level, post):
        nonlocal known
        if level == len(block):
            if post not in known:
                found.append(post)
                known = PermutationGroup(found, group.degree)
            return
        trans = chain._transversals[level]
        for gamma in sorted(trans):
            if post(gamma) in block:
                rec(level + 1, trans[gamma] * post)

    rec(0, Permutation.identity(group.degree))
    return known.generators


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_setwise_generators_match_the_recursive_backtrack_random(data):
    group = _random_group(data)
    block = data.draw(st.lists(st.integers(0, group.degree - 1), unique=True))
    assert group.stabilizer_setwise(block).generators == (
        _setwise_generators_by_recursion(group, tuple(sorted(block))))


@pytest.mark.parametrize("name", ["PSL(2,11)", "M_11", "M_11(deg12)", "AGL(3,2)"])
def test_setwise_generators_match_the_recursive_backtrack(name):
    from steinerkit.catalog import catalog_entry_by_name

    group = catalog_entry_by_name(name).group()
    rng = random.Random(name)
    for size in range(1, group.degree):
        block = tuple(sorted(rng.sample(range(group.degree), size)))
        assert group.stabilizer_setwise(block).generators == (
            _setwise_generators_by_recursion(group, block)), block


# -- the orbit loops that perms._orbit and perms._partition replaced, kept
# as test oracles with a breadth-first search of their own ----------------


def reference_orbit(seed, maps, tree=None):
    """Orbit of ``seed`` in breadth-first order; ``tree`` as in ``perms._orbit``."""
    seen = {seed}
    queue = [seed]
    for item in queue:
        for f in maps:
            image = f(item)
            if image not in seen:
                seen.add(image)
                queue.append(image)
                if tree is not None:
                    tree[image] = (item, f)
    return queue


def reference_cycles(perm):
    seen = set()
    out = []
    for start in range(perm.degree):
        if start in seen or perm.images[start] == start:
            continue
        cycle = [start]
        j = perm.images[start]
        while j != start:
            seen.add(j)
            cycle.append(j)
            j = perm.images[j]
        out.append(tuple(cycle))
    return out


def reference_orbit_transversal(group, level):
    b = group.base[level]
    trans = {b: Permutation.identity(group.degree)}
    queue = [b]
    for point in queue:
        u = trans[point]
        for g in group._level_gens[level]:
            image = g(point)
            if image not in trans:
                trans[image] = u * g
                queue.append(image)
    return trans


def reference_point_orbits(group):
    seen = [False] * group.degree
    out = []
    for seed in range(group.degree):
        if not seen[seed]:
            orb = tuple(sorted(reference_orbit(seed, group.generators)))
            for point in orb:
                seen[point] = True
            out.append(orb)
    return out


def reference_orbit_counts(chain, level, block):
    rest = block[level + 1:]
    if len(chain._transversals[level]) == 1 or len(rest) < 2:
        return None
    first = chain._transversals[level + 1]
    if len(first) == chain.degree - level - 1:
        return None
    label = dict.fromkeys(first, 0)
    need = [0]
    maps = [g.images.__getitem__ for g in chain._level_gens[level + 1]]
    for point in rest:
        if point not in label:
            label.update(dict.fromkeys(reference_orbit(point, maps), len(need)))
            need.append(0)
        need[label[point]] += 1
    return label, need


def reference_subset_orbit_partition(group, m, tree=None):
    maps = [g.apply_set for g in group.generators]
    index_of = {}
    reps = []
    sizes = []
    for seed in combinations(range(group.degree), m):
        if seed in index_of:
            continue
        idx = len(reps)
        orbit = reference_orbit(seed, maps, tree)
        for sub in orbit:
            index_of[sub] = idx
        reps.append(seed)
        sizes.append(len(orbit))
    return reps, sizes, index_of


def reference_block_and_flag_orbit_counts(group, design):
    induced = induced_block_images(group, design)
    v = design.params.v
    flags = [bi * v + x for bi, block in enumerate(design.blocks) for x in block]
    flag_maps = [
        (lambda flag, p=g.images, img=img: img[flag // v] * v + p[flag % v])
        for g, img in zip(group.generators, induced)
    ]
    block_maps = [img.__getitem__ for img in induced]
    orbit_counts = []
    for items, maps in ((range(design.b), block_maps), (flags, flag_maps)):
        remaining = set(items)
        count = 0
        while remaining:
            remaining.difference_update(reference_orbit(remaining.pop(), maps))
            count += 1
        orbit_counts.append(count)
    return tuple(orbit_counts)


def _relabelled(group, rng):
    images = list(range(group.degree))
    rng.shuffle(images)
    conj = Permutation(images)
    return PermutationGroup([conj.inverse() * g * conj for g in group.generators],
                            _order=group.order)


# every constructible catalog group of degree <= 28
CATALOG_TO_28 = [entry.name for v in range(4, 29) for entry in candidates_for_degree(v)
                 if entry.constructible]


def _check_orbit_routines(group, rng):
    for level in range(len(group.base)):
        assert list(group._transversals[level].items()) == list(
            reference_orbit_transversal(group, level).items()), level
    assert group.point_orbits() == reference_point_orbits(group)
    elements = list(group.generators)
    for _ in range(5):
        elements.append(Permutation(rng.sample(range(group.degree), group.degree)))
    for g in elements:
        assert g.cycles() == reference_cycles(g), g
    for m in (1, 2):
        tree, expected_tree = {}, {}
        reps, sizes, index = group.subset_orbit_partition(m, tree=tree)
        expected = reference_subset_orbit_partition(group, m, expected_tree)
        assert (reps, sizes, list(index.items())) == (
            expected[0], expected[1], list(expected[2].items())), m
        assert list(tree.items()) == list(expected_tree.items()), m
    for _ in range(3):
        block = tuple(sorted(rng.sample(range(group.degree), rng.randrange(2, group.degree - 1))))
        chain = group._rebase(block)
        for level in range(len(block)):
            table = chain._orbit_counts(level, block)
            expected = reference_orbit_counts(chain, level, block)
            if expected is None:
                assert table is None, (block, level)
            else:
                assert (list(table[0].items()), table[1]) == (
                    list(expected[0].items()), expected[1]), (block, level)
    v = group.degree
    design = Design(DesignParameters(2, v, 3, 1), combinations(range(v), 3))
    report = induced_block_action(group, design)
    assert (report.block_orbit_count, report.flag_orbit_count) == (
        reference_block_and_flag_orbit_counts(group, design))


@pytest.mark.parametrize("relabel", [False, True], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", CATALOG_TO_28)
def test_orbit_routines_match_the_reference_loops_on_the_catalog(name, relabel):
    group = catalog_entry_by_name(name).group()
    rng = random.Random(name)
    if relabel:
        group = _relabelled(group, rng)
    _check_orbit_routines(group, rng)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_routines_match_the_reference_loops_random(data):
    group = _random_group(data, max_degree=9)
    if group.degree > 3:
        _check_orbit_routines(group, random.Random(data.draw(st.integers(0, 2**16))))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
def test_cycles_match_the_reference_loop(images):
    perm = Permutation(images)
    assert perm.cycles() == reference_cycles(perm)
    assert Permutation.from_cycles(perm.degree, perm.cycles()) == perm


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16).flatmap(
    lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))))
def test_point_orbits_match_the_reference_loop(case):
    degree, gens = case
    group = PermutationGroup([Permutation(g) for g in gens], degree=degree)
    assert group.point_orbits() == reference_point_orbits(group)
