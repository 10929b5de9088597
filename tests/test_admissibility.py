import functools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from steinerkit.admissibility import (
    CAMERON_EQUALITY_CASES,
    AdmissibilityReport,
    Condition,
    ConditionOutcome,
    Status,
    _cameron_rhs,
    _decide,
    _failing_s,
    _first_v,
    _tits_min_v,
    check,
    feasible_k,
    scan,
)
from steinerkit.designs import (
    DesignParameters,
    complete_design,
    construct_boolean,
    fano_plane,
    lambda_s,
    verify,
)
from steinerkit.errors import CapacityError


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_failing_s_is_the_s_with_a_fractional_lambda_s(data):
    t = data.draw(st.integers(1, 8))
    v = data.draw(st.integers(t + 2, 300))
    k = data.draw(st.integers(t + 1, v - 1))
    lam = data.draw(st.integers(1, 4))
    params = DesignParameters(t, v, k, lam)
    assert _failing_s(t, v, k, lam) == [
        s for s in range(1, t + 1) if lambda_s(params, s).denominator != 1
    ]


def test_scan_checks_only_the_sets_with_integral_lambda_s(monkeypatch):
    # scan builds no report: it decides the conditions with one _decide per
    # feasible (v, k) in range whose lambda_s, s = 1..t, are all integers,
    # and none for any other
    decided = []

    def refuse(params):
        raise AssertionError("scan built a report")

    def spy(t, v, k, lam, failing):
        decided.append(DesignParameters(t, v, k, lam))
        return _decide(t, v, k, lam, failing)

    monkeypatch.setattr("steinerkit.admissibility.check", refuse)
    monkeypatch.setattr("steinerkit.admissibility._decide", spy)
    for lam in (1, 2):
        for t in range(2, 7):
            for k_lo, k_hi in ((t + 1, 59), (t + 2, t + 5)):
                decided.clear()
                scan(t, lam, 60, k_range=(k_lo, k_hi))
                integral = []
                for v in range(t + 2, 61):
                    for k in feasible_k(t, v, lam):
                        params = DesignParameters(t, v, k, lam)
                        if k_lo <= k <= k_hi and all(
                            lambda_s(params, s).denominator == 1 for s in range(1, t + 1)
                        ):
                            integral.append(params)
                assert decided == integral


def _tits_and_cameron_hold(t, v, k):
    return v >= _tits_min_v(t, k) and (t <= 2 or v - t + 1 >= _cameron_rhs(t, k))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_feasible_k_closed_form_matches_the_bounds(data):
    # both right-hand sides grow with k, so the list is t+1..k_max exactly
    # when k_max passes both bounds and k_max + 1 fails one or equals v;
    # v - t + 1 is drawn at and next to m(m+1), where Cameron's bound turns
    t = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, 999))
    v = data.draw(st.one_of(
        st.integers(t + 2, 10**6),
        st.sampled_from([m * (m + 1) + t - 1 + d for d in (-1, 0, 1)]),
    ))
    ks = feasible_k(t, v, 1)
    k_next = t + 1 + len(ks)
    assert ks == list(range(t + 1, k_next))
    assert k_next == v or not _tits_and_cameron_hold(t, v, k_next)
    if k_next < v:
        assert _first_v(t, k_next, 1) > v
    if ks:
        assert _first_v(t, ks[-1], 1) <= v
        for k in [ks[0], ks[-1]] + data.draw(st.lists(st.sampled_from(ks), max_size=5)):
            assert t < k < v and _tits_and_cameron_hold(t, v, k)


def test_feasible_k_matches_the_bounds_directly_for_small_v():
    for t in range(1, 13):
        for v in range(1, 300):
            ks = feasible_k(t, v, 1)
            assert ks == [k for k in range(t + 1, v) if _tits_and_cameron_hold(t, v, k)]
            assert ks == [k for k in range(t + 1, v + 2) if _first_v(t, k, 1) <= v]
            for lam in (2, 3):
                assert feasible_k(t, v, lam) == list(range(t + 1, v))
                assert [k for k in range(t + 1, v + 2) if _first_v(t, k, lam) <= v] == list(
                    range(t + 1, v))


def test_scan_refuses_more_pairs_than_the_cap_before_building_a_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr("steinerkit.admissibility.comb", refuse)
    with pytest.raises(CapacityError, match="exceed cap 10000000"):
        scan(2, 1, 20000)
    with pytest.raises(CapacityError):
        scan(2, 2, 10**12, k_range=(5, 5))
    assert scan(2, 1, 10**12, k_range=(5, 4)) == []


@pytest.mark.parametrize("t, lam, v_max, k_range", [
    (2, 1, 120, None), (3, 1, 300, None), (6, 1, 500, (9, 12)),
    (2, 2, 60, None), (4, 3, 80, (6, 70)),
])
def test_scan_cap_counts_the_pairs_it_decides(monkeypatch, t, lam, v_max, k_range):
    k_lo, k_hi = k_range or (t + 1, v_max - 1)
    pairs = sum(
        k_lo <= k <= k_hi for v in range(t + 2, v_max + 1) for k in feasible_k(t, v, lam)
    )
    assert pairs
    monkeypatch.setattr("steinerkit.admissibility.DEFAULT_SUBSET_CAP", pairs)
    found = scan(t, lam, v_max, k_range)
    monkeypatch.setattr("steinerkit.admissibility.DEFAULT_SUBSET_CAP", pairs - 1)
    with pytest.raises(CapacityError):
        scan(t, lam, v_max, k_range)
    assert found == [
        DesignParameters(t, v, k, lam)
        for v in range(t + 2, v_max + 1)
        for k in feasible_k(t, v, lam)
        if k_lo <= k <= k_hi and check(DesignParameters(t, v, k, lam)).admissible
    ]


def test_report_json_shape():
    data = check(DesignParameters(6, 14, 7, 1)).to_json_dict()
    assert data["admissible"] is False
    names = [entry["condition"] for entry in data["conditions"]]
    assert "integrality-all-s" in names and "tits-bound" in names
    failing = [entry for entry in data["conditions"] if entry["status"] == "fail"]
    assert failing[0]["witness"]["lambda_s"] == "9/2"


def _reference_integrality_outcome(lambdas):
    failing = [(s, value) for s, value in enumerate(lambdas) if s and value.denominator != 1]
    if not failing:
        witness = {"lambda_s": lambdas[1:], "b": lambdas[0]}
        return ConditionOutcome(Condition.INTEGRALITY_ALL_S, Status.PASS, witness)
    s_max, value_max = failing[-1]
    witness = {
        "s": s_max,
        "lambda_s": value_max,
        "all_failing_s": [s for s, _ in failing],
        "all_failing_values": [value for _, value in failing],
    }
    return ConditionOutcome(Condition.INTEGRALITY_ALL_S, Status.FAIL, witness)


def reference_check(params):
    """The earlier ``check``: every branch spelled out, one outcome per branch."""
    t, v, k, lam = params.t, params.v, params.k, params.lam
    nontrivial = params.t < params.k < params.v
    steiner = lam == 1
    lambdas = [lambda_s(params, s) for s in range(t + 1)]
    b = lambdas[0]
    outcomes = []

    if nontrivial:
        outcomes.append(
            ConditionOutcome(Condition.NONTRIVIAL_RANGE, Status.PASS, {"t": t, "k": k, "v": v})
        )
    else:
        outcomes.append(
            ConditionOutcome(
                Condition.NONTRIVIAL_RANGE,
                Status.NOT_APPLICABLE,
                {"t": t, "k": k, "v": v, "note": "trivial parameters; bounds not applicable"},
            )
        )

    outcomes.append(_reference_integrality_outcome(lambdas))

    if nontrivial and steiner:
        rhs = _tits_min_v(t, k)
        status = Status.PASS if v >= rhs else Status.FAIL
        outcomes.append(
            ConditionOutcome(
                Condition.TITS_BOUND,
                status,
                {"v": v, "bound": rhs, "equality": v == rhs},
            )
        )
    else:
        outcomes.append(ConditionOutcome(Condition.TITS_BOUND, Status.NOT_APPLICABLE, {}))

    cameron_applicable = nontrivial and steiner and t > 2
    if cameron_applicable:
        lhs = v - t + 1
        rhs = _cameron_rhs(t, k)
        status = Status.PASS if lhs >= rhs else Status.FAIL
        outcomes.append(
            ConditionOutcome(
                Condition.CAMERON_BOUND,
                status,
                {"v_minus_t_plus_1": lhs, "bound": rhs, "equality": lhs == rhs},
            )
        )
        if lhs > rhs:
            outcomes.append(
                ConditionOutcome(
                    Condition.CAMERON_EQUALITY_LIST, Status.PASS, {"strict": True}
                )
            )
        elif lhs == rhs:
            listed = (t, k, v) in CAMERON_EQUALITY_CASES
            outcomes.append(
                ConditionOutcome(
                    Condition.CAMERON_EQUALITY_LIST,
                    Status.PASS if listed else Status.FAIL,
                    {"strict": False, "case": (t, k, v), "listed": listed},
                )
            )
        else:
            outcomes.append(
                ConditionOutcome(
                    Condition.CAMERON_EQUALITY_LIST,
                    Status.NOT_APPLICABLE,
                    {"note": "bound already failed"},
                )
            )
    else:
        outcomes.append(ConditionOutcome(Condition.CAMERON_BOUND, Status.NOT_APPLICABLE, {}))
        outcomes.append(
            ConditionOutcome(Condition.CAMERON_EQUALITY_LIST, Status.NOT_APPLICABLE, {})
        )

    if t >= 2 and nontrivial:
        status = Status.PASS if b >= v else Status.FAIL
        outcomes.append(
            ConditionOutcome(
                Condition.FISHER_BOUND,
                status,
                {"b": b, "v": v, "via": "2-design reduction", "lambda_2": lambdas[2]},
            )
        )
    else:
        outcomes.append(ConditionOutcome(Condition.FISHER_BOUND, Status.NOT_APPLICABLE, {}))

    if t % 2 == 0:
        s = t // 2
        if v >= k + s:
            bound = comb(v, s)
            status = Status.PASS if b >= bound else Status.FAIL
            outcomes.append(
                ConditionOutcome(
                    Condition.RAY_CHAUDHURI_WILSON,
                    status,
                    {"b": b, "bound": bound, "s": s, "parity": "even"},
                )
            )
        else:
            outcomes.append(
                ConditionOutcome(
                    Condition.RAY_CHAUDHURI_WILSON,
                    Status.NOT_APPLICABLE,
                    {"note": "needs v >= k+s", "s": s},
                )
            )
    else:
        s = (t - 1) // 2
        if v - 1 >= k + s:
            bound = 2 * comb(v - 1, s)
            status = Status.PASS if b >= bound else Status.FAIL
            outcomes.append(
                ConditionOutcome(
                    Condition.RAY_CHAUDHURI_WILSON,
                    status,
                    {"b": b, "bound": bound, "s": s, "parity": "odd"},
                )
            )
        else:
            outcomes.append(
                ConditionOutcome(
                    Condition.RAY_CHAUDHURI_WILSON,
                    Status.NOT_APPLICABLE,
                    {"note": "needs v-1 >= k+s", "s": s},
                )
            )

    admissible = all(out.status is not Status.FAIL for out in outcomes)
    return AdmissibilityReport(params=params, outcomes=tuple(outcomes), admissible=admissible)


def assert_matches_reference(params):
    report, expected = check(params), reference_check(params)
    # raw witnesses first (a tuple is not a list), then the JSON form (True is not 1)
    assert [(o.condition, o.status, o.witness) for o in report.outcomes] == [
        (o.condition, o.status, o.witness) for o in expected.outcomes
    ]
    assert report.admissible is expected.admissible
    assert report.to_json_dict() == expected.to_json_dict()


def test_check_matches_the_reference_on_every_small_quadruple():
    for t in range(1, 9):
        for v in range(t, 31):
            for k in range(t, v + 1):
                for lam in (1, 2, 3):
                    assert_matches_reference(DesignParameters(t, v, k, lam))


@pytest.mark.parametrize("t, k, v", CAMERON_EQUALITY_CASES)
def test_check_matches_the_reference_at_the_cameron_equality_cases(t, k, v):
    near = (t, k + 1, _cameron_rhs(t, k + 1) + t - 1)  # the equality case at k+1, on no list
    assert near not in CAMERON_EQUALITY_CASES
    for case in ((t, k, v), near):
        case_t, case_k, case_v = case
        params = DesignParameters(case_t, case_v, case_k, 1)
        assert_matches_reference(params)
        outcome = check(params).outcome(Condition.CAMERON_EQUALITY_LIST)
        assert outcome.witness == {"strict": False, "case": case, "listed": case != near}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_check_matches_the_reference_for_larger_v(data):
    t = data.draw(st.integers(1, 12))
    v = data.draw(st.integers(t, 3000))
    k = data.draw(st.integers(t, v))
    lam = data.draw(st.integers(1, 5))
    assert_matches_reference(DesignParameters(t, v, k, lam))


@pytest.mark.parametrize("params", [
    DesignParameters(3, 8, 4, 1),   # every condition applies
    DesignParameters(3, 8, 8, 1),   # trivial: every bound is not applicable
    DesignParameters(4, 9, 7, 2),   # lambda > 1: Tits and Cameron are not applicable
    DesignParameters(4, 12, 11, 1),  # Cameron fails, so its equality list is not applicable
])
def test_each_condition_once_in_enum_order_with_its_own_witness(params):
    first, second = check(params), check(params)
    assert [out.condition for out in first.outcomes] == list(Condition)
    witnesses = [out.witness for out in first.outcomes + second.outcomes]
    assert len({id(witness) for witness in witnesses}) == 2 * len(Condition)
