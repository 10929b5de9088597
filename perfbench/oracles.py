"""Output oracles, independent of the program under test.

Each check takes a task (with the facts ``workloads.py`` planted in it)
and the task's outcome, and returns None when the outcome is right or a
one-line reason when it is not.  The checks recount, re-enumerate or
compare against family facts; the only program routine they call is the
membership sift of the task's own group, on the generators of a setwise
stabilizer.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import comb

from workloads import set_orbit


def _fail(fmt, *args):
    return fmt % args


def check_group_info(check, rc, out):
    data = json.loads(out)
    if rc != 0:
        return _fail("exit %d", rc)
    if int(data["order"]) != check["order"]:
        return _fail("order %s, expected %d", data["order"], check["order"])
    if data["point_orbit_lengths"] != [data["degree"]]:
        return _fail("not transitive: %s", data["point_orbit_lengths"])
    return None


def check_homogeneity(check, rc, out):
    data = json.loads(out)
    got = (rc, data["transitivity_degree"], data["homogeneity_degree"])
    want = (0, check["transitivity"], check["homogeneity"])
    return None if got == want else _fail("(exit, trans, homog) %s, expected %s", got, want)


def check_orbits(check, rc, out):
    """Every reported orbit is re-enumerated from its representative."""
    data = json.loads(out)
    gens, m = check["generators"], check["m"]
    degree = len(gens[0])
    if rc != 0:
        return _fail("exit %d", rc)
    covered = set()
    for orbit in data["orbits"]:
        rep = tuple(orbit["representative"])
        members = set_orbit(gens, rep)
        if len(members) != orbit["size"] or min(members) != rep or len(rep) != m:
            return _fail("orbit of %s has %d members, least %s; reported size %d",
                         rep, len(members), min(members), orbit["size"])
        if covered & members:
            return _fail("orbit of %s reported twice", rep)
        covered |= members
    if len(covered) != comb(degree, m):
        return _fail("orbits cover %d of C(%d,%d) subsets", len(covered), degree, m)
    return None


def check_setwise(check, task, group, stab):
    """Generators fix the block (and point) and are members; the order is
    the known one or satisfies orbit-stabilizer with an enumerated orbit."""
    block = set(task["block"])
    point = task.get("point")
    gens = [list(g.images) for g in stab.generators]
    for g in gens:
        if {g[p] for p in block} != block:
            return _fail("a generator moves the block")
        if point is not None and g[point] != point:
            return _fail("a generator moves point %d", point)
    for h in stab.generators:
        if not group.sift(h).is_identity():
            return _fail("a generator is not a group member")
    order = stab.order
    if "order" in check:
        return None if order == check["order"] else _fail("order %d, expected %d", order,
                                                          check["order"])
    if check["group_order"] % order:
        return _fail("order %d does not divide %d", order, check["group_order"])
    if check["orbit_cap"]:
        group_gens = [list(g.images) for g in group.generators]
        orbit = set_orbit(group_gens, task["block"], check["orbit_cap"])
        if orbit is None:
            return _fail("orbit above the enumeration cap")
        size = len(orbit)
        if size * order != check["group_order"]:
            return _fail("|orbit| %d * |G_B| %d != |G| %d", size, order, check["group_order"])
    return None


def check_member(check, verdicts):
    wrong = [i for i, (got, want) in enumerate(zip(verdicts, check["expected"])) if got != want]
    return _fail("membership wrong at %s", wrong[:5]) if wrong else None


def cover_failure(blocks, t, v, lam):
    """Brute-force cover count; None when every t-subset lies in lam blocks."""
    counts = {}
    for block in blocks:
        for sub in combinations(block, t):
            counts[sub] = counts.get(sub, 0) + 1
    if len(counts) != comb(v, t):
        return "%d of C(%d,%d) t-subsets covered" % (len(counts), v, t)
    bad = [sub for sub, n in counts.items() if n != lam]
    return "%s covered %d times" % (min(bad), counts[min(bad)]) if bad else None


def check_km(check, rc, out):
    """Each design is a t-(v,k,1) design invariant under the group; the
    number of designs is the relabelling-invariant count."""
    gens = check["generators"]
    v = len(gens[0])
    seen = set()
    for line in out.splitlines():
        data = json.loads(line)
        if (data["t"], data["v"], data["k"], data["lambda"]) != (
            check["t"], v, check["k"], check["lambda"]
        ):
            return _fail("parameters %s", (data["t"], data["v"], data["k"], data["lambda"]))
        blocks = [tuple(b) for b in data["blocks"]]
        blockset = set(blocks)
        if len(blockset) != len(blocks) or any(list(b) != sorted(set(b)) for b in blocks):
            return _fail("malformed block list")
        reason = cover_failure(blocks, check["t"], v, check["lambda"])
        if reason:
            return _fail("not a design: %s", reason)
        for g in gens:
            if any(tuple(sorted(g[p] for p in b)) not in blockset for b in blocks):
                return _fail("design is not invariant under the group")
        seen.add(frozenset(blocks))
    if len(seen) != check["count"]:
        return _fail("%d distinct designs, expected %d", len(seen), check["count"])
    want_rc = 0 if check["count"] else 1
    return None if rc == want_rc else _fail("exit %d, expected %d", rc, want_rc)


def check_sweep(check, rc, out):
    verdicts = [json.loads(line) for line in out.splitlines()]
    survivors = [v["entry"] for v in verdicts if v["verdict"] != "eliminated"]
    if rc != 0 or len(verdicts) != check["lines"] or survivors != check["survivors"]:
        return _fail("exit %d, %d verdicts, survivors %s", rc, len(verdicts), survivors)
    return None


def lambda_integral(t, v, k, lam):
    """lambda_s = lam C(v-s,t-s)/C(k-s,t-s) is an integer for s = 1..t."""
    return all(
        Fraction(lam * comb(v - s, t - s), comb(k - s, t - s)).denominator == 1
        for s in range(1, t + 1)
    )


def check_scan(check, rc, out):
    found = json.loads(out)["admissible"]
    if rc != 0 or len(found) != check["count"]:
        return _fail("exit %d, %d parameter sets, expected %d", rc, len(found), check["count"])
    for p in found:
        if p["t"] != check["t"] or p["lambda"] != 1 or not lambda_integral(
            p["t"], p["v"], p["k"], 1
        ):
            return _fail("listed %s fails integrality", p)
    return None


def check_admissible(check, rc, out):
    """Integrality must agree with an independent recount; an admissible
    set also satisfies Fisher's inequality b >= v."""
    data = json.loads(out)
    t, v, k, lam = check["t"], check["v"], check["k"], check["lambda"]
    integral = lambda_integral(t, v, k, lam)
    status = {c["condition"]: c["status"] for c in data["conditions"]}
    if (status["integrality-all-s"] == "pass") != integral:
        return _fail("integrality reported %s, recount says %s", status["integrality-all-s"],
                     integral)
    admissible = data["admissible"]
    if rc != (0 if admissible else 1):
        return _fail("exit %d with admissible=%s", rc, admissible)
    if admissible and (not integral or Fraction(lam * comb(v, t), comb(k, t)) < v):
        return _fail("admissible although integrality or Fisher fails")
    return None


def check_verify(check, rc, out):
    data = json.loads(out)
    witness = check["witness"]
    if witness is None:
        ok = rc == 0 and data["is_design"] and data["covered_lambda"] == 1 \
            and data["failing_witness"] is None
    else:
        ok = rc == 1 and not data["is_design"] and data["failing_witness"] == witness
    return None if ok else _fail("exit %d, report %s, planted %s", rc, data, witness)


def check_derive(check, rc, out):
    data = json.loads(out)
    if rc != 0 or (data["t"], data["v"], data["k"], data["lambda"]) != (2, check["v"], 3, 1):
        return _fail("exit %d, parameters %s", rc, (data["t"], data["v"], data["k"]))
    digest = hashlib.sha256(json.dumps(data["blocks"]).encode()).hexdigest()
    if digest != check["digest"] or len(data["blocks"]) != check["b"]:
        return _fail("derived blocks differ from the planted design's")
    reason = cover_failure([tuple(b) for b in data["blocks"]], 2, check["v"], 1)
    return _fail("derived design is not an STS: %s", reason) if reason else None


CLI_CHECKS = {
    "group_info": check_group_info,
    "homogeneity": check_homogeneity,
    "orbits": check_orbits,
    "km": check_km,
    "sweep": check_sweep,
    "scan": check_scan,
    "admissible": check_admissible,
    "verify": check_verify,
    "derive": check_derive,
}


def check_cli(check, rc, out):
    return CLI_CHECKS[check["type"]](check, rc, out)
