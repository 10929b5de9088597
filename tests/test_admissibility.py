import functools
from fractions import Fraction
from math import comb, factorial

import pytest

from steinerkit.admissibility import (
    CAMERON_EQUALITY_CASES,
    Condition,
    Status,
    check,
    feasible_k,
    scan,
)
from steinerkit.designs import DesignParameters, complete_design, construct_boolean, fano_plane, verify


def binom(n, k):
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def oracle_admissible(t, v, k, lam=1):
    """Direct reimplementation of every condition from the raw formulas."""
    for s in range(1, t + 1):
        if (lam * binom(v - s, t - s)) % binom(k - s, t - s) != 0:
            return False
    b = Fraction(lam * binom(v, t), binom(k, t))
    if lam == 1 and t < k < v:
        if v < (t + 1) * (k - t + 1):
            return False
        if t > 2:
            if v - t + 1 < (k - t + 2) * (k - t + 1):
                return False
            if v - t + 1 == (k - t + 2) * (k - t + 1) and (t, k, v) not in CAMERON_EQUALITY_CASES:
                return False
    if t >= 2 and t < k < v and b < v:
        return False
    if t % 2 == 0 and v >= k + t // 2 and b < binom(v, t // 2):
        return False
    if t % 2 == 1 and v - 1 >= k + (t - 1) // 2 and b < 2 * binom(v - 1, (t - 1) // 2):
        return False
    return True


def test_boolean_parameters_admissible_with_equalities():
    report = check(DesignParameters(3, 8, 4, 1))
    assert report.admissible
    assert report.outcome(Condition.TITS_BOUND).witness["equality"] is True
    equality = report.outcome(Condition.CAMERON_EQUALITY_LIST)
    assert equality.status is Status.PASS and equality.witness["listed"] is True


def test_large_witt_parameters_admissible():
    report = check(DesignParameters(5, 24, 8, 1))
    assert report.admissible
    assert report.outcome(Condition.INTEGRALITY_ALL_S).witness["lambda_s"] == [253, 77, 21, 5, 1]
    rw = report.outcome(Condition.RAY_CHAUDHURI_WILSON)
    assert rw.status is Status.PASS
    assert rw.witness["bound"] == 2 * comb(23, 2) == 506


@pytest.mark.parametrize(
    "params, s, value",
    [
        (DesignParameters(6, 14, 7, 1), 5, Fraction(9, 2)),
        (DesignParameters(6, 24, 7, 1), 5, Fraction(19, 2)),
        (DesignParameters(6, 24, 8, 1), 5, Fraction(19, 3)),
    ],
)
def test_integrality_failures_with_witness(params, s, value):
    report = check(params)
    assert not report.admissible
    outcome = report.outcome(Condition.INTEGRALITY_ALL_S)
    assert outcome.status is Status.FAIL
    assert outcome.witness["s"] == s
    assert outcome.witness["lambda_s"] == value


def test_integrality_monotone_under_noncancelling_lambda():
    base = check(DesignParameters(6, 14, 7, 1))
    assert base.outcome(Condition.INTEGRALITY_ALL_S).status is Status.FAIL
    # the lambda_s denominators for (6,14,7) have lcm 4; odd multiples keep failing
    for lam in (3, 5, 2):
        report = check(DesignParameters(6, 14, 7, lam))
        assert report.outcome(Condition.INTEGRALITY_ALL_S).status is Status.FAIL
    # lambda = 4 clears every denominator
    cleared = check(DesignParameters(6, 14, 7, 4))
    assert cleared.outcome(Condition.INTEGRALITY_ALL_S).status is Status.PASS


def test_cameron_equality_off_list_fails():
    # (4,6,16): v-t+1 = 13? pick constructed off-list equality: t=3, k=5, v = (k-t+2)(k-t+1)+t-1 = 14
    params = DesignParameters(3, 14, 5, 1)
    assert params.v - params.t + 1 == (params.k - params.t + 2) * (params.k - params.t + 1)
    report = check(params)
    outcome = report.outcome(Condition.CAMERON_EQUALITY_LIST)
    assert outcome.status is Status.FAIL
    assert not report.admissible


def test_trivial_parameters_remain_admissible():
    # complete designs exist, so their parameters must never be rejected
    for v, k, t in ((6, 3, 2), (7, 4, 3), (8, 8, 3)):
        design = complete_design(v, k, t)
        report = check(design.params)
        assert report.admissible
        assert report.outcome(Condition.TITS_BOUND).status is Status.NOT_APPLICABLE


def test_verified_designs_pass_check():
    for design in (construct_boolean(3), construct_boolean(4), fano_plane(), complete_design(6, 3, 2)):
        assert verify(design).covered_lambda == design.params.lam
        assert check(design.params).admissible


def test_bounds_not_applicable_for_lambda_bigger_one():
    report = check(DesignParameters(3, 9, 4, 3))
    assert report.outcome(Condition.TITS_BOUND).status is Status.NOT_APPLICABLE
    assert report.outcome(Condition.CAMERON_BOUND).status is Status.NOT_APPLICABLE
    # Fisher and RW still apply
    assert report.outcome(Condition.FISHER_BOUND).status in (Status.PASS, Status.FAIL)


def test_rw_not_applicable_when_v_too_small():
    report = check(DesignParameters(4, 9, 7, 2))  # t=2s=4, needs v >= k+2 = 9: applicable
    assert report.outcome(Condition.RAY_CHAUDHURI_WILSON).status is not Status.NOT_APPLICABLE
    report = check(DesignParameters(4, 8, 7, 2))  # v=8 < k+s=9
    assert report.outcome(Condition.RAY_CHAUDHURI_WILSON).status is Status.NOT_APPLICABLE


def test_scan_contains_fano():
    found = scan(2, 1, 7)
    assert DesignParameters(2, 7, 3, 1) in found


def test_scan_sorted_and_matches_oracle_t6():
    found = scan(6, 1, 40)
    oracle = [
        DesignParameters(6, v, k, 1)
        for v in range(8, 41)
        for k in range(7, v)
        if oracle_admissible(6, v, k)
    ]
    assert found == oracle
    assert found == sorted(found, key=lambda p: (p.v, p.k))


def test_scan_matches_oracle_small_t_lambda():
    for t, lam, v_max in ((2, 1, 15), (3, 1, 24), (2, 2, 12), (4, 1, 30), (5, 1, 40)):
        found = scan(t, lam, v_max)
        oracle = [
            DesignParameters(t, v, k, lam)
            for v in range(t + 2, v_max + 1)
            for k in range(t + 1, v)
            if oracle_admissible(t, v, k, lam)
        ]
        assert found == oracle


def test_scan_fisher_holds_on_output():
    for params in scan(3, 1, 30) + scan(2, 2, 15):
        if params.t >= 2:
            b = Fraction(params.lam * comb(params.v, params.t), comb(params.k, params.t))
            assert b >= params.v


def test_scan_k_range_and_empty():
    assert scan(2, 1, 7, k_range=(4, 6)) == []
    with pytest.raises(ValueError):
        scan(2, 1, 3)
    assert scan(6, 1, 13) == []  # Tits excludes everything this small


def test_scan_and_feasible_k_match_a_brute_force_filter_of_check(monkeypatch):
    # every t < k < v is checked, so the bound pruning may drop no admissible
    # set; lambda > 1 prunes nothing and is run to a smaller v_max
    memo = functools.lru_cache(maxsize=None)(check)
    monkeypatch.setattr("steinerkit.admissibility.check", memo)
    bounds = (Condition.TITS_BOUND, Condition.CAMERON_BOUND)
    for lam, v_max in ((1, 60), (2, 30), (3, 30)):
        for t in range(2, 9):
            brute = []
            for v in range(t + 2, v_max + 1):
                reports = [memo(DesignParameters(t, v, k, lam)) for k in range(t + 1, v)]
                assert feasible_k(t, v, lam) == [
                    r.params.k
                    for r in reports
                    if all(r.outcome(c).status is not Status.FAIL for c in bounds)
                ]
                brute += [r.params for r in reports if r.admissible]
            assert scan(t, lam, v_max) == brute
            k_lo, k_hi = t + 2, t + 5
            assert scan(t, lam, v_max, k_range=(k_lo, k_hi)) == [
                p for p in brute if k_lo <= p.k <= k_hi
            ]


def test_report_json_shape():
    data = check(DesignParameters(6, 14, 7, 1)).to_json_dict()
    assert data["admissible"] is False
    names = [entry["condition"] for entry in data["conditions"]]
    assert "integrality-all-s" in names and "tits-bound" in names
    failing = [entry for entry in data["conditions"] if entry["status"] == "fail"]
    assert failing[0]["witness"]["lambda_s"] == "9/2"
