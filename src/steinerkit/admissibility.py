"""Necessary-condition screening for design parameters, in exact arithmetic.

Each condition is one classical counting or bound argument.  ``_decide``
decides all of them on integers at one site: passed is True or False, or
None ("not applicable") when the condition's hypothesis does not hold.
``_witnesses`` gives the exact numbers behind each decision.  A report
(``check``) lists every condition with its pass / fail / not-applicable
status and witness; the block-transitive screen builds only the first
failing condition's witness, and ``scan`` builds no report.  "Admissible"
means no applicable condition failed; it never asserts existence.

Conditions and their hypotheses:

* integrality-all-s: lambda * C(v-s, t-s) must be divisible by
  C(k-s, t-s) for every s in 1..t.  Always applicable; decided by one
  remainder per s.  The block count b = lambda_0 (s = 0) is not tested,
  so parameters with a fractional b can be admissible: 2-(11,3,1) passes
  with b = 55/3.  The block-transitive screen in ``blocktrans`` rejects
  such b itself.
* tits-bound: v >= (t+1)(k-t+1) for nontrivial Steiner parameters.
* cameron-bound: v-t+1 >= (k-t+2)(k-t+1) for nontrivial Steiner
  parameters with t > 2.
* cameron-equality-list: when the previous bound is met with equality,
  (t,k,v) must be one of the five known quintuples; strict inequality
  passes.
* fisher-bound: b >= v, applied through the reduction of a t-design
  (t >= 2) to a 2-design with index lambda_2; holds for any lambda.
  This bound and the next compare b = lambda C(v,t) / C(k,t) by
  cross-multiplication.
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
from math import comb, isqrt
from operator import mod

from .designs import DesignParameters
from .errors import DEFAULT_SUBSET_CAP, CapacityError


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


def _failing_s(t, v, k, lam):
    """The s in 1..t, in increasing order, at which lambda * C(v-s, t-s) is
    not divisible by C(k-s, t-s); s = 0 is not tested."""
    return [s for s in range(1, t + 1) if lam * comb(v - s, t - s) % comb(k - s, t - s)]


def _tits_min_v(t, k):
    return (t + 1) * (k - t + 1)


def _cameron_rhs(t, k):
    return (k - t + 2) * (k - t + 1)


def _k_max(t, v, lam):
    """The largest k that ``feasible_k`` lists at v, or t when it lists none.

    Tits: v >= (t+1)(k-t+1) iff k <= v // (t+1) + t - 1.  Cameron (t > 2):
    with m = k-t+1, v-t+1 >= (m+1)m iff m <= (isqrt(4(v-t+1) + 1) - 1) // 2.
    """
    k_max = v - 1
    if lam == 1 and v > t + 1:
        k_max = min(k_max, v // (t + 1) + t - 1)
        if t > 2:
            k_max = min(k_max, (isqrt(4 * (v - t + 1) + 1) - 1) // 2 + t - 1)
    return max(k_max, t)


def _first_v(t, k, lam):
    """The least v at which ``feasible_k`` lists k (k > t)."""
    if lam != 1:
        return k + 1
    first = max(k + 1, _tits_min_v(t, k))
    return max(first, _cameron_rhs(t, k) + t - 1) if t > 2 else first


def feasible_k(t, v, lam):
    """The k with t < k < v that pass the Tits and Cameron bounds.

    For lam = 1 both right-hand sides grow with k, so the k that pass are
    t+1..``_k_max``, read off in closed form.  For lam > 1 neither bound
    applies and every k in the range is listed.
    """
    return list(range(t + 1, _k_max(t, v, lam) + 1))


_STATUS = {True: Status.PASS, False: Status.FAIL, None: Status.NOT_APPLICABLE}
_CONDITIONS = tuple(Condition)  # iterating the enum class itself is several times slower


def _decide(t, v, k, lam, failing):
    """Each condition's passed value (True, False or None for not applicable)
    in ``Condition`` order, on integers; ``failing`` is ``_failing_s``.

    The block count b = lambda C(v,t) / C(k,t) is compared by
    cross-multiplication, so no rational is built.
    """
    nontrivial = t < k < v
    steiner = nontrivial and lam == 1
    tits = cameron = equality = fisher = None
    if steiner:
        tits = v >= _tits_min_v(t, k)
        if t > 2:
            lhs, rhs = v - t + 1, _cameron_rhs(t, k)
            cameron = lhs >= rhs
            listed = (t, k, v) in CAMERON_EQUALITY_CASES
            equality = True if lhs > rhs else listed if cameron else None
    b_num, b_den = lam * comb(v, t), comb(k, t)
    if t >= 2 and nontrivial:
        fisher = b_num >= v * b_den
    s, odd = divmod(t, 2)
    rcw = b_num >= (1 + odd) * comb(v - odd, s) * b_den if v - odd >= k + s else None
    return True if nontrivial else None, not failing, tits, cameron, equality, fisher, rcw


def _witnesses(t, v, k, lam, failing, passed):
    """Each condition's witness, in ``Condition`` order, for the decision
    ``passed`` of ``_decide``; built as the caller consumes them, so one
    that stops at the first failing condition builds no other.
    """
    witness = {"t": t, "k": k, "v": v}
    if passed[0] is None:
        witness["note"] = "trivial parameters; bounds not applicable"
    yield witness

    def lambda_(s):
        return Fraction(lam * comb(v - s, t - s), comb(k - s, t - s))

    # a failing integrality headlines the deepest failing s: lambda_{t-1} is
    # the first counting obstruction one meets walking down from s = t
    if failing:
        values = [lambda_(s) for s in failing]
        yield {"s": failing[-1], "lambda_s": values[-1], "all_failing_s": failing,
               "all_failing_values": values}
    b = lambda_(0)
    if not failing:
        lambdas = [lambda_(s) for s in range(1, t + 1)]
        yield {"lambda_s": lambdas, "b": b}
    tits_rhs, lhs, rhs = _tits_min_v(t, k), v - t + 1, _cameron_rhs(t, k)
    yield {} if passed[2] is None else {"v": v, "bound": tits_rhs, "equality": v == tits_rhs}
    if passed[3] is None:
        yield from ({}, {})
    else:
        yield {"v_minus_t_plus_1": lhs, "bound": rhs, "equality": lhs == rhs}
        if passed[4] is None:
            yield {"note": "bound already failed"}
        elif lhs > rhs:
            yield {"strict": True}
        else:
            yield {"strict": False, "case": (t, k, v), "listed": passed[4]}
    if passed[5] is None:
        yield {}
    else:
        lambda_2 = lambda_(2) if failing else lambdas[1]
        yield {"b": b, "v": v, "via": "2-design reduction", "lambda_2": lambda_2}
    # t = 2s + odd: b >= C(v,s) for even t, b >= 2 C(v-1,s) for odd t
    s, odd = divmod(t, 2)
    if passed[6] is None:
        yield {"note": ("needs v >= k+s", "needs v-1 >= k+s")[odd], "s": s}
    else:
        yield {"b": b, "bound": (1 + odd) * comb(v - odd, s), "s": s,
               "parity": ("even", "odd")[odd]}


def check(params):
    """Evaluate every condition on a parameter quadruple.

    ``_decide`` decides each condition once, with None when its hypothesis
    does not hold, ``_witnesses`` gives the exact numbers behind it, and
    ``_STATUS`` turns the decision into a status.
    """
    t, v, k, lam = params.t, params.v, params.k, params.lam
    failing = _failing_s(t, v, k, lam)
    passed = _decide(t, v, k, lam, failing)
    outcomes = tuple([
        ConditionOutcome(condition, _STATUS[decision], witness)
        for condition, decision, witness in zip(
            _CONDITIONS, passed, _witnesses(t, v, k, lam, failing, passed), strict=True)
    ])
    return AdmissibilityReport(params=params, outcomes=outcomes, admissible=False not in passed)


def scan(t, lam, v_max, k_range=None):
    """All admissible nontrivial quadruples with v <= v_max, sorted by (v, k).

    The (v, k) pairs decided are those with k in ``k_range`` that
    ``feasible_k`` lists at v; their number is counted from the closed-form
    ranges first, and above ``DEFAULT_SUBSET_CAP`` the scan is refused
    with CapacityError.  Integrality is decided from tables of
    lambda C(v-s, t-s) per v and C(k-s, t-s) per k, and ``_decide`` only
    where it passes; no report is built.
    """
    if t < 1 or lam < 1:
        raise ValueError("need t >= 1 and lambda >= 1")
    if v_max < t + 2:
        raise ValueError("v_max must be at least t+2 for a nontrivial range")
    k_lo, k_hi = k_range if k_range is not None else (t + 1, v_max - 1)
    k_lo, k_hi = max(k_lo, t + 1), min(k_hi, _k_max(t, v_max, lam))
    # k is decided at each v from _first_v(k) to v_max; _first_v grows with
    # k, so the terms are distinct and pass the cap within ~sqrt(2 cap) of them
    pairs = 0
    for k in range(k_lo, k_hi + 1):
        pairs += v_max - _first_v(t, k, lam) + 1
        if pairs > DEFAULT_SUBSET_CAP:
            raise CapacityError("scan to v_max=%d: (v, k) pairs to decide exceed cap %d"
                                % (v_max, DEFAULT_SUBSET_CAP))
    if not pairs:
        return []
    s_range = range(1, t + 1)
    denominators = [[comb(k - s, t - s) for s in s_range] for k in range(k_lo, k_hi + 1)]
    found = []
    for v in range(_first_v(t, k_lo, lam), v_max + 1):
        numerators = [lam * comb(v - s, t - s) for s in s_range]
        for k, dens in zip(range(k_lo, min(k_hi, _k_max(t, v, lam)) + 1), denominators):
            if not any(map(mod, numerators, dens)) and False not in _decide(t, v, k, lam, ()):
                found.append(DesignParameters(t, v, k, lam))
    return found
