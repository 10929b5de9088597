"""Necessary-condition screening for design parameters, in exact arithmetic.

Each condition is one classical counting or bound argument; a report lists
every condition with pass / fail / not-applicable and the exact numbers
that decided it.  "Admissible" means no applicable condition failed; it
never asserts existence.

Conditions and their hypotheses:

* integrality-all-s: lambda * C(v-s, t-s) must be divisible by
  C(k-s, t-s) for every s in 1..t.  Always applicable.  The block count
  b = lambda_0 (s = 0) is not tested, so parameters with a fractional b
  can be admissible: 2-(11,3,1) passes with b = 55/3.  The block-transitive
  screen in ``blocktrans`` rejects such b itself.
* tits-bound: v >= (t+1)(k-t+1) for nontrivial Steiner parameters.
* cameron-bound: v-t+1 >= (k-t+2)(k-t+1) for nontrivial Steiner
  parameters with t > 2.
* cameron-equality-list: when the previous bound is met with equality,
  (t,k,v) must be one of the five known quintuples; strict inequality
  passes.
* fisher-bound: b >= v, applied through the reduction of a t-design
  (t >= 2) to a 2-design with index lambda_2; holds for any lambda.
* ray-chaudhuri-wilson: b >= C(v,s) for t=2s when v >= k+s, and
  b >= 2*C(v-1,s) for t=2s+1 when v-1 >= k+s; any lambda.
* nontrivial-range: informational marker for t < k < v; trivial
  parameter sets make the bound conditions not-applicable rather than
  failing (complete designs exist and must stay admissible).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .designs import DesignParameters, lambda_s


class Condition(enum.Enum):
    NONTRIVIAL_RANGE = "nontrivial-range"
    INTEGRALITY_ALL_S = "integrality-all-s"
    TITS_BOUND = "tits-bound"
    CAMERON_BOUND = "cameron-bound"
    CAMERON_EQUALITY_LIST = "cameron-equality-list"
    FISHER_BOUND = "fisher-bound"
    RAY_CHAUDHURI_WILSON = "ray-chaudhuri-wilson"


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


CAMERON_EQUALITY_CASES = ((3, 4, 8), (3, 6, 22), (3, 12, 112), (4, 7, 23), (5, 8, 24))


def json_witness(witness):
    """A witness dict for JSON: exact integers/rationals as decimal strings."""
    out = {}
    for key, value in witness.items():
        if isinstance(value, bool):
            out[key] = value
        elif isinstance(value, (int, Fraction)):
            out[key] = str(value)
        elif isinstance(value, (list, tuple)):
            out[key] = [str(item) for item in value]
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class ConditionOutcome:
    condition: Condition
    status: Status
    witness: dict


@dataclass(frozen=True)
class AdmissibilityReport:
    params: DesignParameters
    outcomes: tuple
    admissible: bool

    def outcome(self, condition):
        for out in self.outcomes:
            if out.condition is condition:
                return out
        raise KeyError(condition)

    def failures(self):
        return [out for out in self.outcomes if out.status is Status.FAIL]

    def to_json_dict(self):
        p = self.params
        return {
            "params": {"t": p.t, "v": p.v, "k": p.k, "lambda": p.lam},
            "admissible": self.admissible,
            "conditions": [
                {
                    "condition": out.condition.value,
                    "status": out.status.value,
                    "witness": json_witness(out.witness),
                }
                for out in self.outcomes
            ],
        }


def _integrality_outcome(lambdas):
    """The outcome for lambdas = [lambda_0, ..., lambda_t]; s = 0 is not tested."""
    failing = [(s, value) for s, value in enumerate(lambdas) if s and value.denominator != 1]
    if not failing:
        witness = {"lambda_s": lambdas[1:], "b": lambdas[0]}
        return ConditionOutcome(Condition.INTEGRALITY_ALL_S, Status.PASS, witness)
    # headline the deepest failing s: lambda_{t-1} is the first counting
    # obstruction one meets walking down from s = t
    s_max, value_max = failing[-1]
    witness = {
        "s": s_max,
        "lambda_s": value_max,
        "all_failing_s": [s for s, _ in failing],
        "all_failing_values": [value for _, value in failing],
    }
    return ConditionOutcome(Condition.INTEGRALITY_ALL_S, Status.FAIL, witness)


def _tits_min_v(t, k):
    return (t + 1) * (k - t + 1)


def _cameron_rhs(t, k):
    return (k - t + 2) * (k - t + 1)


def feasible_k(t, v, lam):
    """The k with t < k < v that pass the Tits and Cameron bounds.

    For lam = 1 the list stops at the first k that fails the Tits bound
    or, when t > 2, the Cameron bound: both right-hand sides grow with k.
    For lam > 1 neither bound applies and every k in the range is listed.
    """
    ks = []
    for k in range(t + 1, v):
        if lam == 1 and (v < _tits_min_v(t, k) or t > 2 and v - t + 1 < _cameron_rhs(t, k)):
            break
        ks.append(k)
    return ks


def check(params):
    """Evaluate every condition on a parameter quadruple."""
    t, v, k, lam = params.t, params.v, params.k, params.lam
    nontrivial = params.nontrivial()
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

    outcomes.append(_integrality_outcome(lambdas))

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


def scan(t, lam, v_max, k_range=None):
    """All admissible nontrivial quadruples with v <= v_max, sorted by (v, k).

    Only the k that ``feasible_k`` lists for each v are checked.
    """
    if t < 1 or lam < 1:
        raise ValueError("need t >= 1 and lambda >= 1")
    if v_max < t + 2:
        raise ValueError("v_max must be at least t+2 for a nontrivial range")
    k_lo, k_hi = k_range if k_range is not None else (t + 1, v_max - 1)
    found = []
    for v in range(t + 2, v_max + 1):
        for k in feasible_k(t, v, lam):
            params = DesignParameters(t, v, k, lam)
            if k_lo <= k <= k_hi and check(params).admissible:
                found.append(params)
    return found
