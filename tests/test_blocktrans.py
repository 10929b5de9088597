import json
from dataclasses import dataclass
from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from steinerkit import admissibility
from steinerkit.blocktrans import ReasonStep, _parameter_step, eliminate, sweep
from steinerkit.catalog import (
    candidates_for_degree,
    catalog_entry_by_name,
    projective_group,
    projective_scaling,
    projective_translation,
)
from steinerkit.designs import (
    DesignParameters,
    complete_design,
    lambda_s,
)
from steinerkit.errors import MembershipError
from steinerkit.perms import (
    Permutation,
    PermutationGroup,
    check_membership,
    induced_block_action,
    parse_cycles,
)


@dataclass(frozen=True)
class BtEquationResult:
    """Exact evaluation of b = v(v-1)|G_xy| / |G_B| for given orders."""

    b: Fraction
    required_gb_order: int | None
    consistent: bool
    witness: dict


def bt_equation_check(group_order, params, gxy_order):
    """Check that the block count b fits the two-point stabilizer equation.

    For a block-transitive group that is point 2-transitive (the caller
    asserts this), b = v(v-1)|G_xy| / |G_B|, so b must be a positive
    integer dividing v(v-1)|G_xy|; the quotient is the forced |G_B|.
    """
    v = params.v
    b = lambda_s(params, 0)
    numerator = v * (v - 1) * gxy_order
    witness = {
        "b": b,
        "v(v-1)|Gxy|": numerator,
        "group_order": group_order,
    }
    if b.denominator != 1 or b <= 0:
        return BtEquationResult(b, None, False, dict(witness, reason="b is not a positive integer"))
    b_int = int(b)
    if numerator % b_int != 0:
        return BtEquationResult(
            b, None, False, dict(witness, reason="b does not divide v(v-1)|Gxy|")
        )
    gb = numerator // b_int
    return BtEquationResult(b, gb, True, dict(witness, required_gb_order=gb))


def test_bt_equation_boolean_design():
    result = bt_equation_check(1344, DesignParameters(3, 8, 4, 1), 24)
    assert result.consistent
    assert result.b == 14
    assert result.required_gb_order == 96
    assert 14 * 96 == 1344


def test_bt_equation_small_witt():
    result = bt_equation_check(660, DesignParameters(5, 12, 6, 1), 5)
    assert result.consistent and result.required_gb_order == 5


def test_bt_equation_rejects_fractional_b():
    result = bt_equation_check(720, DesignParameters(2, 10, 4, 1), 8)
    assert not result.consistent
    assert result.required_gb_order is None
    assert result.b == Fraction(15, 2)


def test_bt_equation_rejects_non_dividing_b():
    # b = 1768 for 6-(17,7,1), which cannot divide 17*16*1
    result = bt_equation_check(272, DesignParameters(6, 17, 7, 1), 1)
    assert not result.consistent
    assert result.witness["reason"] == "b does not divide v(v-1)|Gxy|"


def test_bt_equation_conjugation_invariant():
    # orders of the stabilizers do not change under relabelling
    agl = catalog_entry_by_name("AGL(3,2)").group()
    rng = random.Random(9)
    images = list(range(8))
    rng.shuffle(images)
    conj = Permutation(images)
    relabeled = PermutationGroup([conj.inverse() * g * conj for g in agl.generators])
    assert relabeled.order == agl.order
    x, y = conj(0), conj(1)
    assert relabeled.stabilizer_pointwise([x, y]).order == agl.stabilizer_pointwise([0, 1]).order
    block = (0, 1, 2, 3)
    assert relabeled.stabilizer_setwise(conj.apply_set(block)).order == agl.stabilizer_setwise(block).order


def test_eliminate_m24_t6():
    verdict = eliminate(catalog_entry_by_name("M_24"), 6, 1)
    assert verdict.eliminated
    assert verdict.feasible_k == (7, 8)
    witnesses = {}
    for out in verdict.k_outcomes:
        assert out.eliminated
        step = out.reasons[0]
        assert step.test == "inadmissible-params"
        witnesses[out.k] = step.witness["lambda_s"]
    assert witnesses == {7: Fraction(19, 2), 8: Fraction(19, 3)}


def test_eliminate_psl211_t5_survives():
    verdict = eliminate(catalog_entry_by_name("PSL(2,11)"), 5, 1)
    assert not verdict.eliminated
    assert verdict.surviving_k == (6,)
    outcome = [out for out in verdict.k_outcomes if out.k == 6][0]
    assert outcome.b == 132 and outcome.required_gb_order == 5


def test_eliminate_psl25_t6_not_homogeneous():
    verdict = eliminate(catalog_entry_by_name("PSL(2,5)"), 6, 1)
    assert verdict.eliminated
    assert verdict.feasible_k == ()
    assert verdict.group_reasons[0].test == "insufficient-homogeneity"


def test_eliminate_t8_requires_four_homogeneity():
    # M_11 on 12 points is 3- but not 4-homogeneous; t=8 needs floor(8/2)=4
    verdict = eliminate(catalog_entry_by_name("M_11(deg12)"), 8, 1)
    assert verdict.eliminated and verdict.feasible_k == ()
    step = verdict.group_reasons[0].to_json_dict()
    assert step["test"] == "insufficient-homogeneity"
    assert step["witness"]["required_homogeneity"] == "4"


def test_eliminate_alternating_orbit_obstruction():
    verdict = eliminate(catalog_entry_by_name("A_17"), 6, 1)
    assert verdict.eliminated
    outcome = [out for out in verdict.k_outcomes if out.k == 7][0]
    assert outcome.reasons[0].test == "orbit-length-obstruction"


def test_eliminate_m23_near_miss():
    # (6,23,7,1) is admissible; the block count 14421 = 3*11*19*23 does not
    # divide |M_23|, which kills the pair
    verdict = eliminate(catalog_entry_by_name("M_23"), 6, 1)
    outcome = [out for out in verdict.k_outcomes if out.k == 7][0]
    assert outcome.reasons[0].test == "b-does-not-divide-order"
    assert outcome.reasons[0].witness["b"] == 14421


def test_eliminate_rejects_a_fractional_block_count():
    # 2-(11,3,1) passes admissibility.check, but b = 55/3
    verdict = eliminate(catalog_entry_by_name("A_11"), 2, 1)
    outcome = verdict.k_outcomes[0]
    assert outcome.k == 3 and outcome.eliminated and outcome.b is None
    step = outcome.reasons[0]
    assert step.test == "inadmissible-params"
    assert step.witness == {"condition": "block-count-integrality", "b": Fraction(55, 3)}


def test_eliminate_requires_t_at_least_2():
    with pytest.raises(ValueError):
        eliminate(catalog_entry_by_name("PSL(2,7)"), 1, 1)


def test_sweep_empty_below_nontrivial_range():
    assert sweep(6, 1, 6) == []
    assert sweep(6, 1, 7) == []


def test_sweep_deterministic():
    first = [v.to_json_dict() for v in sweep(6, 1, 30)]
    second = [v.to_json_dict() for v in sweep(6, 1, 30)]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_sweep_matches_eliminate_of_each_entry():
    for t in range(4, 9):
        swept = [verdict.to_json_dict() for verdict in sweep(t, 1, 64)]
        single = [
            eliminate(entry, t, 1).to_json_dict()
            for v in range(t + 2, 65)
            for entry in candidates_for_degree(v)
        ]
        single.sort(key=lambda d: (d["degree"], d["family"], d["entry"]))
        assert json.dumps(swept, sort_keys=True) == json.dumps(single, sort_keys=True)


def test_sweep_checks_each_parameter_set_once(monkeypatch):
    calls = []
    decide = admissibility._decide

    def spy(t, v, k, lam, failing):
        calls.append((t, v, k, lam))
        return decide(t, v, k, lam, failing)

    monkeypatch.setattr(admissibility, "_decide", spy)
    verdicts = sweep(6, 1, 100)
    distinct = {(verdict.degree, k) for verdict in verdicts for k in verdict.feasible_k}
    assert len(calls) == len(set(calls)) == len(distinct)


def reference_parameter_step(t, v, k, lam):
    """The earlier parameter step, read from a full ``check`` report."""
    report = admissibility.check(DesignParameters(t, v, k, lam))
    if not report.admissible:
        failures = [out for out in report.outcomes if out.status is admissibility.Status.FAIL]
        detail = {"conditions": [out.condition.value for out in failures]}
        detail.update(failures[0].witness)
        return ReasonStep("inadmissible-params", detail), None
    b = report.outcome(admissibility.Condition.INTEGRALITY_ALL_S).witness["b"]
    if b.denominator != 1:
        witness = {"condition": "block-count-integrality", "b": b}
        return ReasonStep("inadmissible-params", witness), None
    return None, int(b)


def assert_parameter_step_matches_the_reference(t, v, k, lam):
    reason, b = _parameter_step(t, v, k, lam)
    expected_reason, expected_b = reference_parameter_step(t, v, k, lam)
    assert (reason, b) == (expected_reason, expected_b)
    if reason is not None:
        # equal dicts may still differ in key order or in int against Fraction,
        # which the JSON form would show
        assert [(key, value, type(value)) for key, value in reason.witness.items()] == [
            (key, value, type(value)) for key, value in expected_reason.witness.items()
        ]
    else:
        assert type(b) is int


def test_parameter_step_matches_the_reference_on_every_feasible_small_set():
    # lambda > 1 lists every k, so those run to a smaller v
    for lam, v_max in ((1, 300), (2, 50), (3, 50)):
        for t in range(2, 9):
            for v in range(t + 2, v_max + 1):
                for k in admissibility.feasible_k(t, v, lam):
                    assert_parameter_step_matches_the_reference(t, v, k, lam)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parameter_step_matches_the_reference_up_to_v_4096(data):
    t = data.draw(st.integers(2, 8))
    lam = data.draw(st.integers(1, 3))
    v = data.draw(st.integers(t + 2, 4096))
    ks = admissibility.feasible_k(t, v, lam)
    if ks:
        assert_parameter_step_matches_the_reference(t, v, data.draw(st.sampled_from(ks)), lam)


def test_sweep_t6_small_all_eliminated():
    verdicts = sweep(6, 1, 40)
    assert verdicts
    assert all(v.eliminated for v in verdicts)


def test_sweep_t8_four_homogeneity_requirement():
    verdicts = sweep(8, 1, 64)
    assert verdicts
    assert all(v.eliminated for v in verdicts)


def test_sweep_t5_has_projective_survivor():
    verdicts = sweep(5, 1, 12)
    survivors = {v.entry_name: v.surviving_k for v in verdicts if v.survives}
    assert survivors.get("PSL(2,11)") == (6,)


def subgroup_orbit_profile(group, subgroup_generators):
    """Sorted point-orbit lengths of a subgroup, with membership enforced.

    Every claimed generator is sift-checked against the ambient group's
    chain first; a non-member raises MembershipError.
    """
    subgroup_generators = list(subgroup_generators)
    check_membership(group, subgroup_generators)
    subgroup = PermutationGroup(subgroup_generators, degree=group.degree)
    return tuple(sorted(len(orbit) for orbit in subgroup.point_orbits()))


def borel_generators(q):
    """Generators of the Borel subgroup of PSL(2,q): x -> x+1 and x -> c^2*x."""
    return [projective_translation(q), projective_scaling(q, square=True)]


def cyclic_scaling_generators(q):
    """Generator of the cyclic subgroup x -> c*x of PGL(2,q)."""
    return [projective_scaling(q)]


def test_subgroup_orbit_profiles():
    psl7 = projective_group("PSL", 7)
    assert subgroup_orbit_profile(psl7, borel_generators(7)) == (1, 7)
    pgl7 = projective_group("PGL", 7)
    assert subgroup_orbit_profile(pgl7, cyclic_scaling_generators(7)) == (1, 1, 6)
    assert subgroup_orbit_profile(psl7, []) == tuple([1] * 8)


def test_subgroup_orbit_profile_membership_enforced():
    psl5 = projective_group("PSL", 5)
    outsider = projective_group("PGL", 5).generators[1]  # x -> c*x, c a non-square
    assert outsider not in psl5
    with pytest.raises(MembershipError):
        subgroup_orbit_profile(psl5, [outsider])


def test_borel_orbits_across_q():
    for q in (5, 7, 11, 13):
        psl = projective_group("PSL", q)
        profile = subgroup_orbit_profile(psl, borel_generators(q))
        assert profile == (1, q)


def test_complete_design_under_symmetric_group_is_block_transitive():
    design = complete_design(5, 3, 2)
    s5 = PermutationGroup([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    report = induced_block_action(s5, design)
    assert report.is_block_transitive and report.is_point_transitive
