"""Arithmetic screening of (group, parameter) pairs for block-transitive
Steiner designs.

The screen runs in two steps.  The parameter step depends only on
(t, v, k, lambda): the k allowed by the Tits and Cameron bounds, the
admissibility conditions, and an integral block count b.  It runs once per
degree, however many groups act on that many points.  The group step
follows: the floor(t/2)-homogeneity that block-transitivity forces on the
point action (annotated, or read from a setwise stabilizer's index), then
the orbit conditions b = |G| / |G_B| (so b must divide |G|; for a group
transitive on k-subsets the only invariant block set is complete, which a
nontrivial design never is).  A surviving pair merely survives this
screen; nothing here asserts that a design exists.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import admissibility
from .catalog import DEFAULT_DEGREE_CAP, candidates_for_degree


@dataclass(frozen=True)
class ReasonStep:
    """One failed screen test with the exact numbers that failed it."""

    test: str  # inadmissible-params | insufficient-homogeneity | b-does-not-divide-order
    #            | bound-violation | orbit-length-obstruction
    witness: dict  # exact values; to_json_dict serializes them

    def to_json_dict(self):
        return {"test": self.test, "witness": admissibility.json_witness(self.witness)}


@dataclass(frozen=True)
class KOutcome:
    k: int
    reasons: tuple  # nonempty iff eliminated
    b: int | None = None
    required_gb_order: int | None = None

    @property
    def eliminated(self):
        return bool(self.reasons)


@dataclass(frozen=True)
class EliminationVerdict:
    entry_name: str
    family: str
    degree: int
    char: int | None
    group_order: int
    t: int
    lam: int
    feasible_k: tuple
    k_outcomes: tuple
    group_reasons: tuple  # reason chain used when no k was feasible

    @property
    def eliminated(self):
        return not self.surviving_k

    @property
    def survives(self):
        return not self.eliminated

    @property
    def surviving_k(self):
        return tuple(out.k for out in self.k_outcomes if not out.eliminated)

    def to_json_dict(self):
        return {
            "entry": self.entry_name,
            "family": self.family,
            "degree": self.degree,
            "char": self.char,
            "order": str(self.group_order),
            "t": self.t,
            "lambda": self.lam,
            "feasible_k": list(self.feasible_k),
            "k_outcomes": [
                {
                    "k": out.k,
                    "eliminated": out.eliminated,
                    "b": str(out.b) if out.b is not None else None,
                    "required_gb_order": str(out.required_gb_order)
                    if out.required_gb_order is not None
                    else None,
                    "reasons": [r.to_json_dict() for r in out.reasons],
                }
                for out in self.k_outcomes
            ],
            "group_reasons": [r.to_json_dict() for r in self.group_reasons],
            "verdict": "eliminated" if self.eliminated else "survives-arithmetic-screen",
            "surviving_k": list(self.surviving_k),
        }


def _parameter_step(t, v, k, lam):
    """(reason, None) if (t, v, k, lam) fails, else (None, integral b).

    The conditions are decided on integers; a failing reason names every
    failing condition and carries the first one's witness, the only one built.
    """
    failing = admissibility._failing_s(t, v, k, lam)
    passed = admissibility._decide(t, v, k, lam, failing)
    if False in passed:
        conditions = admissibility._CONDITIONS
        detail = {"conditions": [c.value for c, d in zip(conditions, passed) if d is False]}
        witnesses = admissibility._witnesses(t, v, k, lam, failing, passed)
        detail.update(next(w for d, w in zip(passed, witnesses) if d is False))
        return ReasonStep("inadmissible-params", detail), None
    numerator, denominator = lam * comb(v, t), comb(k, t)
    b, remainder = divmod(numerator, denominator)
    if remainder:
        # the counting conditions range over s >= 1; the block count
        # itself must also be an integer for a design to exist
        witness = {"condition": "block-count-integrality", "b": Fraction(numerator, denominator)}
        return ReasonStep("inadmissible-params", witness), None
    return None, b


def _group_step(entry, k, b, homogeneity_reason):
    """The outcome at k for parameters that passed, with block count b."""
    if homogeneity_reason is not None:
        return KOutcome(k, (homogeneity_reason,))
    if entry.k_homogeneous_all and b != comb(entry.degree, k):
        note = "group is transitive on k-subsets; the only invariant block set is complete"
        witness = {"note": note, "b": b, "complete_block_count": comb(entry.degree, k)}
        return KOutcome(k, (ReasonStep("orbit-length-obstruction", witness),), b)
    if entry.order % b != 0:
        witness = {"b": b, "group_order": entry.order}
        return KOutcome(k, (ReasonStep("b-does-not-divide-order", witness),), b)
    return KOutcome(k, (), b, entry.order // b)


def _screen(v, entries, t, lam):
    """Verdicts for entries of degree v; the parameter step runs once per k.

    The homogeneity prerequisite (block-transitive implies point
    floor(t/2)-homogeneous) is resolved from the catalog annotation when
    certain, by the index of a setwise stabilizer when the entry is
    constructible, and is otherwise left undecided (which never
    eliminates).  It is resolved only when some k passes the parameter
    step or no k is feasible.
    """
    if t < 2:
        raise ValueError("elimination screen needs t >= 2")
    required = t // 2
    feasible = admissibility.feasible_k(t, v, lam)
    steps = [(k, *_parameter_step(t, v, k, lam)) for k in feasible]
    needs_homogeneity = not feasible or any(reason is None for _, reason, _ in steps)
    verdicts = []
    for entry in entries:
        homogeneous = None
        if needs_homogeneity:
            homogeneous = entry.known_homogeneity(required)
            if homogeneous is None and entry.constructible:
                homogeneous = entry.group().is_homogeneous(required)
        homogeneity_reason = None
        if homogeneous is False:
            homogeneity_reason = ReasonStep(
                "insufficient-homogeneity", {"required_homogeneity": required, "note": entry.notes}
            )
        k_outcomes = tuple(
            KOutcome(k, (reason,)) if reason else _group_step(entry, k, b, homogeneity_reason)
            for k, reason, b in steps
        )
        group_reasons = ()
        if not feasible:
            note = "no k in the nontrivial range satisfies the bounds"
            bound_reason = ReasonStep("bound-violation", {"note": note, "v": v})
            group_reasons = (homogeneity_reason or bound_reason,)
        verdicts.append(
            EliminationVerdict(
                entry_name=entry.name,
                family=entry.family,
                degree=v,
                char=entry.char,
                group_order=entry.order,
                t=t,
                lam=lam,
                feasible_k=tuple(feasible),
                k_outcomes=k_outcomes,
                group_reasons=group_reasons,
            )
        )
    return verdicts


def eliminate(entry, t, lam):
    """Run the arithmetic screen on one catalog entry for all feasible k."""
    return _screen(entry.degree, [entry], t, lam)[0]


def sweep(t, lam, v_max):
    """Screen every catalog entry at every degree up to v_max.

    Degrees below t+2 carry no nontrivial parameter set and are skipped,
    so the result is empty when v_max < t+2.  A v_max above the catalog
    cap is refused before any degree is screened.  Verdicts are ordered by
    (degree, family, name).
    """
    if v_max > DEFAULT_DEGREE_CAP:
        raise ValueError("degree %d exceeds catalog cap %d" % (v_max, DEFAULT_DEGREE_CAP))
    verdicts = []
    for v in range(max(4, t + 2), v_max + 1):
        verdicts += _screen(v, candidates_for_degree(v), t, lam)
    verdicts.sort(key=lambda verdict: (verdict.degree, verdict.family, verdict.entry_name))
    return verdicts

