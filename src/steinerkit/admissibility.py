"""Necessary-condition screening for design parameters, in exact arithmetic.

Each condition is one classical counting or bound argument, decided once
as (passed, witness): passed is True or False, or None ("not applicable")
when the condition's hypothesis does not hold, and the witness holds the
exact numbers that decided it.  A report lists every condition with its
pass / fail / not-applicable status and witness.  "Admissible" means no
applicable condition failed; it never asserts existence.

Conditions and their hypotheses:

* integrality-all-s: lambda * C(v-s, t-s) must be divisible by
  C(k-s, t-s) for every s in 1..t.  Always applicable.  It is decided on
  integers, by one remainder per s, and ``scan`` runs the same test before
  it builds any report, so most quadruples it meets cost no report.  The
  block count b = lambda_0 (s = 0) is not tested, so parameters with a
  fractional b can be admissible: 2-(11,3,1) passes with b = 55/3.  The
  block-transitive screen in ``blocktrans`` rejects such b itself.
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


def _failing_s(t, v, k, lam):
    """The s in 1..t, in increasing order, at which lambda * C(v-s, t-s) is
    not divisible by C(k-s, t-s); s = 0 is not tested."""
    return [s for s in range(1, t + 1) if lam * comb(v - s, t - s) % comb(k - s, t - s)]


def _integrality(failing, lambdas):
    """The decision for the ``_failing_s`` list, with lambdas = [lambda_0,
    ..., lambda_t] as the witness values."""
    if not failing:
        return True, {"lambda_s": lambdas[1:], "b": lambdas[0]}
    # headline the deepest failing s: lambda_{t-1} is the first counting
    # obstruction one meets walking down from s = t
    s_max = failing[-1]
    witness = {
        "s": s_max,
        "lambda_s": lambdas[s_max],
        "all_failing_s": failing,
        "all_failing_values": [lambdas[s] for s in failing],
    }
    return False, witness


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


_STATUS = {True: Status.PASS, False: Status.FAIL, None: Status.NOT_APPLICABLE}
_CONDITIONS = tuple(Condition)  # iterating the enum class itself is several times slower


def check(params):
    """Evaluate every condition on a parameter quadruple.

    Each condition is decided once, as (passed, witness) with passed None
    when its hypothesis does not hold; ``_STATUS`` turns that into a status.
    """
    t, v, k, lam = params.t, params.v, params.k, params.lam
    nontrivial = params.nontrivial()
    steiner = nontrivial and lam == 1
    lambdas = [lambda_s(params, s) for s in range(t + 1)]
    b = lambdas[0]
    # not applicable unless decided below; each keeps a witness dict of its own
    tits, cameron, equality, fisher = (None, {}), (None, {}), (None, {}), (None, {})

    range_witness = {"t": t, "k": k, "v": v}
    if not nontrivial:
        range_witness["note"] = "trivial parameters; bounds not applicable"
    if steiner:
        rhs = _tits_min_v(t, k)
        tits = v >= rhs, {"v": v, "bound": rhs, "equality": v == rhs}
    if steiner and t > 2:
        lhs, rhs = v - t + 1, _cameron_rhs(t, k)
        cameron = lhs >= rhs, {"v_minus_t_plus_1": lhs, "bound": rhs, "equality": lhs == rhs}
        if lhs > rhs:
            equality = True, {"strict": True}
        elif lhs == rhs:
            listed = (t, k, v) in CAMERON_EQUALITY_CASES
            equality = listed, {"strict": False, "case": (t, k, v), "listed": listed}
        else:
            equality = None, {"note": "bound already failed"}
    if t >= 2 and nontrivial:
        fisher = b >= v, {"b": b, "v": v, "via": "2-design reduction", "lambda_2": lambdas[2]}
    # t = 2s + odd: b >= C(v,s) for even t, b >= 2 C(v-1,s) for odd t
    s, odd = divmod(t, 2)
    if v - odd >= k + s:
        bound = (1 + odd) * comb(v - odd, s)
        rcw = b >= bound, {"b": b, "bound": bound, "s": s, "parity": ("even", "odd")[odd]}
    else:
        rcw = None, {"note": ("needs v >= k+s", "needs v-1 >= k+s")[odd], "s": s}

    decisions = (
        (True if nontrivial else None, range_witness),
        _integrality(_failing_s(t, v, k, lam), lambdas),
        tits, cameron, equality, fisher, rcw,
    )
    outcomes = tuple([
        ConditionOutcome(condition, _STATUS[passed], witness)
        for condition, (passed, witness) in zip(_CONDITIONS, decisions, strict=True)
    ])
    admissible = all(out.status is not Status.FAIL for out in outcomes)
    return AdmissibilityReport(params=params, outcomes=outcomes, admissible=admissible)


def scan(t, lam, v_max, k_range=None):
    """All admissible nontrivial quadruples with v <= v_max, sorted by (v, k).

    Only the k that ``feasible_k`` lists for each v are considered, and
    integrality is decided on integers first: a report is built only for
    the quadruples at which ``_failing_s`` finds no failing s in 1..t.
    """
    if t < 1 or lam < 1:
        raise ValueError("need t >= 1 and lambda >= 1")
    if v_max < t + 2:
        raise ValueError("v_max must be at least t+2 for a nontrivial range")
    k_lo, k_hi = k_range if k_range is not None else (t + 1, v_max - 1)
    found = []
    for v in range(t + 2, v_max + 1):
        for k in feasible_k(t, v, lam):
            if k_lo <= k <= k_hi and not _failing_s(t, v, k, lam):
                params = DesignParameters(t, v, k, lam)
                if check(params).admissible:
                    found.append(params)
    return found
