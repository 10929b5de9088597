"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Expected values come from independent oracles computed
inside this module (factorial-ratio binomials, exhaustive enumeration,
2^cols solver references), never from the code paths under test.
"""
import random
import time
from fractions import Fraction

from math import factorial

from steinerkit.admissibility import CAMERON_EQUALITY_CASES, scan
from steinerkit.blocktrans import eliminate, sweep
from steinerkit.catalog import (
    candidates_for_degree,
    catalog_entry_by_name,
    projective_group,
)
from steinerkit.designs import (
    DesignParameters,
    complete_design,
    construct_boolean,
    derived,
    fano_plane,
    lambda_s,
    verify,
)
from steinerkit.gf import prime_power_decomposition
from steinerkit.kramer_mesner import build_orbit_matrix, search_design, solve
from steinerkit.perms import Permutation, PermutationGroup, induced_block_action
from test_blocktrans import bt_equation_check


def _binom(n, k):
    """Factorial-ratio binomial; the oracle avoids math.comb on purpose."""
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def _report(number, label, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, "criterion %d exceeded its %gs budget (%.1fs)" % (
        number,
        budget,
        elapsed,
    )
    print("ACCEPTANCE %d PASS (%.2fs): %s" % (number, elapsed, label))


def test_criterion_1_lambda_s_table():
    started = time.time()
    params = DesignParameters(5, 24, 8, 1)
    oracle = [Fraction(_binom(24 - s, 5 - s), _binom(8 - s, 5 - s)) for s in range(6)]
    assert oracle == [759, 253, 77, 21, 5, 1]
    got = [lambda_s(params, s) for s in range(6)]
    assert got == oracle
    _report(1, "lambda_s table for 5-(24,8,1) is 759,253,77,21,5,1", started, 1.0)


def test_criterion_2_boolean_and_derived():
    started = time.time()
    design = construct_boolean(3)
    report = verify(design)
    assert report.covered_lambda == 1 and design.b == 14
    for x in range(8):
        sub = derived(design, x)
        assert sub.params == DesignParameters(2, 7, 3, 1)
        assert verify(sub).covered_lambda == 1
    _report(2, "boolean 3-(8,4,1) verifies; derived at all 8 points gives 2-(7,3,1)", started, 1.0)


def test_criterion_3_scan_matches_independent_oracle():
    started = time.time()

    def oracle_ok(v, k):
        for s in range(1, 7):
            if _binom(v - s, 6 - s) % _binom(k - s, 6 - s) != 0:
                return False
        if v < 7 * (k - 5):
            return False
        if v - 6 + 1 < (k - 6 + 2) * (k - 6 + 1):
            return False
        if v - 6 + 1 == (k - 6 + 2) * (k - 6 + 1) and (6, k, v) not in CAMERON_EQUALITY_CASES:
            return False
        return True

    oracle = [(v, k) for v in range(8, 101) for k in range(7, v) if oracle_ok(v, k)]
    got = [(p.v, p.k) for p in scan(6, 1, 100)]
    assert got == oracle
    _report(3, "scan(t=6, lam=1, v<=100) equals the divisibility+bounds oracle", started, 10.0)


def test_criterion_4_degree_24_elimination():
    started = time.time()
    witnesses = {}
    for entry in candidates_for_degree(24):
        verdict = eliminate(entry, 6, 1)
        assert verdict.eliminated, entry.name
        if entry.name == "M_24":
            assert verdict.feasible_k == (7, 8)
            for out in verdict.k_outcomes:
                assert out.reasons[0].test == "inadmissible-params"
                witnesses[out.k] = out.reasons[0].witness["lambda_s"]
    assert witnesses == {7: Fraction(19, 2), 8: Fraction(19, 3)}
    _report(4, "t=6 at v=24: no surviving k; witnesses 19/2 and 19/3", started, 1.0)


def test_criterion_5_bt_equation_agl32():
    started = time.time()
    agl = catalog_entry_by_name("AGL(3,2)").group()
    design = construct_boolean(3)
    assert agl.order == 1344
    gxy = agl.stabilizer_pointwise([0, 1]).order
    assert gxy == 24
    result = bt_equation_check(agl.order, design.params, gxy)
    assert result.consistent and result.b == 14 and result.required_gb_order == 96
    assert 14 * 96 == agl.order
    backtracked = agl.stabilizer_setwise(design.blocks[0]).order
    assert backtracked == 96
    _report(5, "AGL(3,2): b=14, |Gxy|=24, forced |G_B|=96 = backtracked order", started, 5.0)


def test_criterion_6_kramer_mesner_designs():
    started = time.time()
    c7 = PermutationGroup([Permutation([(i + 1) % 7 for i in range(7)])])
    fano_like = search_design(c7, 2, 3, 1)
    assert fano_like and all(d.b == 7 and verify(d).covered_lambda == 1 for d in fano_like)
    reps = {d.blocks for d in fano_like}
    assert fano_plane().blocks in reps

    psl11 = projective_group("PSL", 11)
    witt = search_design(psl11, 5, 6, 1)
    assert witt
    design = witt[0]
    assert design.b == 132
    assert verify(design).covered_lambda == 1
    action = induced_block_action(psl11, design)
    assert action.is_block_transitive
    assert psl11.order // design.b == 5
    assert psl11.stabilizer_setwise(design.blocks[0]).order == 5
    _report(6, "KM search: Fano from C7; 5-(12,6,1) with 132 blocks, |G_B|=5, one orbit", started, 60.0)


def test_criterion_7_psl_homogeneity_dichotomy():
    started = time.time()
    tested = []
    for q in range(5, 65):
        if prime_power_decomposition(q) is None:
            continue
        group = projective_group("PSL", q)
        expected = (q % 2 == 0) or (q % 4 == 3)
        assert group.is_homogeneous(3) == expected, q
        tested.append(q)
    assert len(tested) == 24
    _report(
        7,
        "PSL(2,q) 3-homogeneous iff q=3 mod 4 or q even, all 24 prime powers 4<q<=64",
        started,
        120.0,
    )


def test_criterion_8_main_theorem_shadow():
    started = time.time()
    verdicts = sweep(6, 1, 257)
    degrees = {v.degree for v in verdicts}
    assert degrees == set(range(8, 258))
    # one verdict for every catalog entry at every degree in range
    expected_counts = {v: len(candidates_for_degree(v)) for v in range(8, 258)}
    for v in range(8, 258):
        assert sum(1 for verdict in verdicts if verdict.degree == v) == expected_counts[v]
    survivors = [v for v in verdicts if v.survives]
    for verdict in survivors:
        assert verdict.family == "projective", verdict.entry_name
        assert verdict.char in (2, 3), verdict.entry_name
    _report(
        8,
        "sweep(t=6, v<=257): %d verdicts; every survivor (%d found) is projective over "
        "characteristic 2 or 3 (a containment check, not a nonexistence proof)"
        % (len(verdicts), len(survivors)),
        started,
        600.0,
    )


def test_criterion_9_property_suites(catalog_group):
    started = time.time()

    # Block's implication across the corpus of (group, design) pairs
    c7 = PermutationGroup([Permutation([(i + 1) % 7 for i in range(7)])])
    psl11 = projective_group("PSL", 11)
    witt = search_design(psl11, 5, 6, 1)[0]
    corpus = [
        (c7, fano_plane()),
        (PermutationGroup([], degree=7), fano_plane()),
        (catalog_group("AGL(3,2)"), construct_boolean(3)),
        (catalog_group("AGL(1,8)"), construct_boolean(3)),
        (catalog_group("AGammaL(1,8)"), construct_boolean(3)),
        (catalog_group("AGL(4,2)"), construct_boolean(4)),
        (psl11, witt),
        (catalog_group("A_5"), complete_design(5, 3, 2)),
    ]
    for group, design in corpus:
        a = induced_block_action(group, design)
        assert a.is_point_transitive or not a.is_block_transitive

    # orbit-stabilizer identity on 200 random (catalog group, point) pairs
    rng = random.Random(2024)
    constructible = []
    for v in (6, 8, 10, 12, 14, 16, 24, 32):
        for entry in candidates_for_degree(v):
            if entry.constructible:
                constructible.append(entry)
    groups = [catalog_group(entry.name) for entry in constructible]
    for _ in range(200):
        group = rng.choice(groups)
        x = rng.randrange(group.degree)
        orbit = next(orbit for orbit in group.point_orbits() if x in orbit)
        assert group.order == group.stabilizer_point(x).order * len(orbit)

    # solver completeness against 2^cols enumeration on small matrices
    def reference(matrix, lam):
        ncols = len(matrix.col_reps)
        out = []
        for mask in range(1 << ncols):
            cols = tuple(j for j in range(ncols) if (mask >> j) & 1)
            if all(
                sum(matrix.entries[i][j] for j in cols) == lam
                for i in range(len(matrix.entries))
            ):
                out.append(cols)
        return sorted(out)

    c9 = PermutationGroup([Permutation([(i + 1) % 9 for i in range(9)])])
    small = [
        (build_orbit_matrix(c7, 2, 3), 1),
        (build_orbit_matrix(c7, 2, 3), 2),
        (build_orbit_matrix(c7, 2, 4), 2),
        (build_orbit_matrix(c9, 2, 3), 1),
        (build_orbit_matrix(PermutationGroup([], degree=5), 1, 2), 1),
        (build_orbit_matrix(projective_group("PSL", 11), 5, 6), 1),
    ]
    for matrix, lam in small:
        assert len(matrix.col_reps) <= 12
        assert sorted(solve(matrix, lam)) == reference(matrix, lam)

    _report(
        9,
        "Block's implication on the corpus; 200 orbit-stabilizer identities; "
        "solver equals 2^cols enumeration on %d matrices" % len(small),
        started,
        120.0,
    )
