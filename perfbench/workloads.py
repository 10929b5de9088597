"""Seeded inputs and fixed task lists for the three benchmark workloads.

Every input the program receives is generated here from the seed: group
JSON files conjugated by a random relabelling of the points, random
subsets, random admissibility quadruples, relabelled boolean quadruple
systems and copies of them with one block altered.  The task list itself
(which queries, on which groups, how many) is fixed per workload; only the
inputs vary with the seed.  Each task carries the facts its oracle checks
against (see ``oracles.py``); none of those facts is read from the output
of the program under test.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import combinations
from math import comb, gcd

WORKLOADS = ("groups", "km", "screen")

MATHIEU_ORDERS = {
    "M_11": 7920, "M_11(deg12)": 7920, "M_12": 95040,
    "M_22": 443520, "M_23": 10200960, "M_24": 244823040,
}


def family_order(name):
    """Closed-form order of a catalog group, independent of the program."""
    if name in MATHIEU_ORDERS:
        return MATHIEU_ORDERS[name]
    if name == "2^4:A7":
        return 16 * 2520
    if name == "AGammaL(1,32)":
        return 32 * 31 * 5
    if name.startswith(("PSL(2,", "PGL(2,")):
        q = int(name[6:-1])
        order = q * (q * q - 1)
        return order // gcd(2, q - 1) if name.startswith("PSL") else order
    if name.startswith("AGL(") and name.endswith(",2)"):
        d = int(name[4:-3])
        order = 2**d
        for i in range(d):
            order *= 2**d - 2**i
        return order
    raise ValueError("no closed-form order for %r" % (name,))


# (name, t_max, transitivity degree, homogeneity degree) up to t_max.
# Mathieu groups are 5/4/3-transitive (M_24, M_12 / M_23, M_11 / M_22);
# PGL(2,q) and PSL(2,2^e) are sharply 3-transitive; PSL(2,q), q odd, is
# 2-transitive and 3-homogeneous iff q != 1 (mod 4); AGammaL(1,32) is
# sharply 3-homogeneous.  No other group here is 4-homogeneous: by
# Livingstone-Wagner and Kantor a 4-homogeneous group is 4-transitive
# apart from PSL(2,8), PGammaL(2,8) and PGammaL(2,32).
HOMOGENEITY_FACTS = (
    ("M_24", 4, 4, 4),
    ("M_23", 4, 4, 4),
    ("M_22", 4, 3, 3),
    ("M_12", 5, 5, 5),
    ("M_11", 5, 4, 4),
    ("M_11(deg12)", 4, 3, 3),
    ("PSL(2,27)", 3, 2, 3),
    ("PSL(2,49)", 3, 2, 2),
    ("PSL(2,64)", 3, 3, 3),
    ("PSL(2,81)", 3, 2, 2),
    ("PGL(2,25)", 3, 3, 3),
    ("AGL(3,2)", 4, 3, 3),
    ("AGL(4,2)", 4, 3, 3),
    ("2^4:A7", 4, 3, 3),
    ("AGammaL(1,32)", 3, 2, 3),
)

# Blocks of the Witt systems in the labels of the bundled Mathieu
# generators: an octad through 22 and 23 of S(5,8,24), giving the heptad
# of S(4,7,23) and the hexad of S(3,6,22), and a hexad of S(5,6,12).
# (group, block, |orbit of the block| = b, |G_B| = |G| / b)
STEINER_BLOCKS = (
    ("M_23", (0, 1, 2, 8, 11, 20, 22), 253),
    ("M_22", (0, 1, 2, 8, 11, 20), 77),
    ("M_12", (0, 1, 2, 3, 4, 9), 132),
)

# Groups whose orbits on 6..10-subsets have at most 20000 members, so the
# oracle can check |G_B| by orbit-stabilizer.
SMALL_ORBIT_GROUPS = (
    "M_11", "M_11(deg12)", "M_12", "AGL(4,2)", "2^4:A7",
    "AGammaL(1,32)", "PSL(2,23)", "PSL(2,27)", "PGL(2,19)",
)
ORBIT_ENUMERATION_CAP = 20000

MEMBERSHIP_GROUPS = (
    "M_24", "M_23", "M_22", "M_12", "PSL(2,49)",
    "PSL(2,81)", "AGL(4,2)", "2^4:A7", "PGL(2,49)", "AGammaL(1,32)",
)

# (group, m) with C(degree, m) small enough to enumerate in the oracle.
ORBIT_TASKS = (
    ("M_24", 4), ("M_23", 4), ("M_22", 3), ("M_22", 4), ("M_12", 4),
    ("M_11", 4), ("M_11(deg12)", 4), ("AGL(4,2)", 4), ("2^4:A7", 4),
    ("AGammaL(1,32)", 3), ("PSL(2,49)", 3), ("PSL(2,23)", 3),
)

# KM solution counts at the unrelabelled groups (seed commit), keyed by the
# group (an int v is the cyclic group C_v, searched for STS(v)).  A
# relabelling conjugates the group and maps its invariant designs
# bijectively, so the counts do not depend on the seed.
KM_COUNTS = {
    7: 2, 9: 0, 13: 4, 15: 4, 19: 32, 21: 32, 31: 2048,
    "PSL(2,7)": 2, "PSL(2,9)": 1, "PGL(2,9)": 1, "PSL(2,13)": 0,
    "PSL(2,19)": 2, "PGL(2,19)": 0, "PSL(2,27)": 1,
    "PSL(2,11)": 2, "PGL(2,11)": 0, "M_12": 1, "M_11(deg12)": 1,
}

# analyze-bt sweeps to v = 257: (verdict lines, surviving entries).
SWEEP_FACTS = {
    4: (421, ["M_11", "PGL(2,17)", "PSL(2,17)", "M_23", "PGammaL(2,32)", "PSL(2,32)",
              "PGL(2,101)", "PSL(2,101)", "PGammaL(2,128)", "PSL(2,128)"]),
    5: (418, ["M_11(deg12)", "M_12", "PGL(2,11)", "PSL(2,11)", "M_24", "PGL(2,23)",
              "PSL(2,23)"]),
    6: (417, []),
    7: (411, []),
}
# Admissible parameter sets with lambda = 1 and v <= 200, per t.
SCAN_COUNTS = {2: 338, 3: 162, 4: 121, 5: 87, 6: 77}


# -- generation helpers -------------------------------------------------------


def relabelling(rng, degree):
    points = list(range(degree))
    rng.shuffle(points)
    return points


def conjugate(images, sigma):
    """The generator sigma^-1 g sigma: point sigma[x] goes to sigma[g(x)]."""
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[sigma[x]] = sigma[y]
    return out


def compose(p, q):
    """Apply p, then q (the program's convention)."""
    return [q[x] for x in p]


def catalog_generators(name):
    from steinerkit.catalog import catalog_entry_by_name

    return [list(g.images) for g in catalog_entry_by_name(name).group().generators]


def set_orbit(generators, subset, cap=None):
    """Orbit of a point set (as sorted tuples), or None once it exceeds cap."""
    start = tuple(sorted(subset))
    seen = {start}
    queue = [start]
    for current in queue:
        for g in generators:
            image = tuple(sorted(g[p] for p in current))
            if image not in seen:
                seen.add(image)
                queue.append(image)
                if cap is not None and len(seen) > cap:
                    return None
    return seen


def generic_relabelling(rng, generators, t, cap=20000):
    """A random relabelling under which {0..t-1} lies in a largest orbit
    on t-subsets.

    ``homogeneity`` searches outward from {0..t-1}; where the t-subsets
    fall into orbits of unequal length, a relabelling that moves {0..t-1}
    into a short orbit makes the task many times cheaper.  Pinning the
    generic case keeps a task's cost the same for every seed.  Groups
    with more than ``cap`` t-subsets (here the PSL/PGL lines, whose
    orbits have equal lengths) take any relabelling.
    """
    degree = len(generators[0])
    if comb(degree, t) > cap:
        return relabelling(rng, degree)
    seen, largest = set(), 0
    for subset in combinations(range(degree), t):
        if subset not in seen:
            orbit = set_orbit(generators, subset)
            seen |= orbit
            largest = max(largest, len(orbit))
    while True:
        sigma = relabelling(rng, degree)
        inverse = sorted(range(degree), key=sigma.__getitem__)
        if len(set_orbit(generators, [inverse[p] for p in range(t)])) == largest:
            return sigma


def boolean_blocks(n, sigma):
    """Relabelled blocks of the 3-(2^n,4,1) design: 4-sets with zero XOR."""
    v = 2**n
    blocks = []
    for a in range(v):
        for b in range(a + 1, v):
            ab = a ^ b
            for c in range(b + 1, v):
                d = ab ^ c
                if d > c:
                    blocks.append(sorted((sigma[a], sigma[b], sigma[c], sigma[d])))
    blocks.sort()
    return blocks


def corrupt(blocks, v, rng):
    """Replace one block {0,b,c,d} by {0,b,c,e}; return (blocks, witness).

    Only the removed block covers {0,b,c}, so the new block is not already
    present.  The triples of the removed block other than {0,b,c} are now
    covered 0 times and those of the new block 2 times; the verifier must
    report the lexicographically least of them.
    """
    through_zero = [blk for blk in blocks if blk[0] == 0]
    old = rng.choice(through_zero)
    d = rng.choice(old[1:])
    e = rng.choice([p for p in range(v) if p not in old])
    kept = [p for p in old if p != d]
    new = sorted(kept + [e])
    bad = [(tuple(sorted((x, y, d))), 0) for x, y in combinations(kept, 2)]
    bad += [(tuple(sorted((x, y, e))), 2) for x, y in combinations(kept, 2)]
    subset, count = min(bad)
    altered = sorted([blk for blk in blocks if blk != old] + [new])
    return altered, {"subset": list(subset), "count": count}


def derived_digest(blocks, x):
    derived = sorted([p if p < x else p - 1 for p in blk if p != x] for blk in blocks if x in blk)
    return hashlib.sha256(json.dumps(derived).encode()).hexdigest(), len(derived)


class Inputs:
    """Writes the generated files of one run into ``workdir`` and hashes them.

    Tasks name the files relative to ``workdir``, where the worker runs.
    """

    def __init__(self, workdir, rng):
        self.workdir = workdir
        self.rng = rng
        self.files = []
        self.generators = {}

    def write(self, name, payload):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        self.files.append(path)
        return name

    def group_file(self, name, generators=None, generic_t=None):
        """A relabelled copy of a catalog group; returns (path, sigma, gens).

        With ``generic_t`` the relabelling is a ``generic_relabelling``.
        """
        if generators is None:
            if name not in self.generators:
                self.generators[name] = catalog_generators(name)
            generators = self.generators[name]
        degree = len(generators[0])
        if generic_t:
            sigma = generic_relabelling(self.rng, generators, generic_t)
        else:
            sigma = relabelling(self.rng, degree)
        gens = [conjugate(g, sigma) for g in generators]
        path = self.write("g%03d.json" % len(self.files), {"degree": degree, "generators": gens})
        return path, sigma, gens

    def digest(self, tasks):
        h = hashlib.sha256(json.dumps(tasks, sort_keys=True).encode())
        for path in self.files:
            h.update(os.path.basename(path).encode())
            with open(path, "rb") as handle:
                h.update(handle.read())
        return h.hexdigest()


def cli_task(argv, check):
    return {"kind": "cli", "argv": argv, "check": check}


# -- workloads ----------------------------------------------------------------


def groups_tasks(inp, small):
    rng = inp.rng
    small_facts = ("M_11", "AGL(3,2)", "AGammaL(1,32)")
    facts = [f for f in HOMOGENEITY_FACTS if not small or f[0] in small_facts]
    tasks = []
    for name, t_max, trans, homog in facts:
        info = {"type": "group_info", "order": family_order(name)}
        tasks.append(cli_task(["group", "info", "catalog:" + name, "--json"], info))
        path, _, _ = inp.group_file(name)
        tasks.append(cli_task(["group", "info", path, "--json"], info))
        path, _, _ = inp.group_file(name, generic_t=t_max)
        tasks.append(cli_task(
            ["group", "homogeneity", path, "--t-max", str(t_max), "--json"],
            {"type": "homogeneity", "transitivity": trans, "homogeneity": homog},
        ))

    blocks = STEINER_BLOCKS[2:] if small else STEINER_BLOCKS
    for name, block, b in blocks:
        order = family_order(name)
        path, sigma, gens = inp.group_file(name)
        relabelled = sorted(sigma[p] for p in block)
        if len(set_orbit(gens, relabelled, b) or ()) != b:
            raise RuntimeError("%s block is not a Steiner block of the bundle" % name)
        tasks.append({"kind": "setwise", "group": path, "block": relabelled,
                      "check": {"type": "setwise", "group_order": order, "order": order // b}})
        point = rng.choice(relabelled)
        tasks.append({"kind": "point_in_block", "group": path, "block": relabelled, "point": point,
                      "check": {"type": "setwise", "group_order": order,
                                "order": order // b // len(block)}})

    for i, name in enumerate(SMALL_ORBIT_GROUPS[:2] if small else SMALL_ORBIT_GROUPS):
        path, _, gens = inp.group_file(name)
        block = sorted(rng.sample(range(len(gens[0])), 6 + i % 5))
        tasks.append({"kind": "setwise", "group": path, "block": block,
                      "check": {"type": "setwise", "group_order": family_order(name),
                                "orbit_cap": ORBIT_ENUMERATION_CAP}})
    if not small:
        path, _, gens = inp.group_file("M_24")
        block = sorted(rng.sample(range(24), 10))
        tasks.append({"kind": "setwise", "group": path, "block": block,
                      "check": {"type": "setwise", "group_order": family_order("M_24"),
                                "orbit_cap": 0}})

    member_groups = ("M_12", "AGammaL(1,32)") if small else MEMBERSHIP_GROUPS * 3
    for name in member_groups:
        path, _, gens = inp.group_file(name)
        degree = len(gens[0])
        perms, expected = [], []
        for _ in range(30):
            word = list(range(degree))
            for _ in range(20):
                word = compose(word, rng.choice(gens))
            perms.append(word)
            expected.append(True)
            # a 2-transitive group other than S_n holds no transposition,
            # so a member times a transposition is never a member
            a, b = rng.sample(range(degree), 2)
            swapped = list(word)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            perms.append(swapped)
            expected.append(False)
        tasks.append({"kind": "member", "group": path, "perms": perms,
                      "check": {"type": "member", "expected": expected}})

    orbit_tasks = ORBIT_TASKS[5:7] if small else ORBIT_TASKS
    for name, m in orbit_tasks:
        path, _, gens = inp.group_file(name)
        tasks.append(cli_task(["group", "orbits", path, "--m", str(m), "--json"],
                              {"type": "orbits", "m": m, "generators": gens}))
    return tasks


def km_task(inp, name_or_gens, t, k, expected, limit=None):
    if isinstance(name_or_gens, str):
        path, _, gens = inp.group_file(name_or_gens)
    else:
        path, _, gens = inp.group_file(None, generators=name_or_gens)
    argv = ["km-search", "--group", path, "--t", str(t), "--k", str(k), "--json"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    return cli_task(argv, {"type": "km", "t": t, "k": k, "lambda": 1,
                           "count": expected, "generators": gens})


def cyclic(v):
    return [list(range(1, v)) + [0]]


# (group, t, k, repeats) of the small KM searches.  The repeats put a block
# of like tasks at the median (cyclic STS(15)) and at the 90th percentile
# (3-(20,4,1) under PSL(2,19)), so those two figures do not hinge on one
# relabelling.
SMALL_KM = (
    (7, 2, 3, 8), (9, 2, 3, 8), (13, 2, 3, 10), (15, 2, 3, 20), (19, 2, 3, 6), (21, 2, 3, 6),
    ("PSL(2,7)", 3, 4, 5), ("PSL(2,9)", 3, 4, 5), ("PGL(2,9)", 3, 4, 5), ("PSL(2,13)", 3, 4, 5),
    ("PSL(2,19)", 3, 4, 10), ("PGL(2,19)", 3, 4, 5), ("PSL(2,27)", 3, 4, 2),
    ("PSL(2,11)", 5, 6, 3), ("PGL(2,11)", 5, 6, 3), ("M_12", 5, 6, 3), ("M_11(deg12)", 5, 6, 3),
)


def km_tasks(inp, small):
    tasks = []
    if not small:
        tasks.append(km_task(inp, "M_24", 5, 8, 1, limit=1))
        tasks.append(km_task(inp, "M_23", 4, 7, 1, limit=1))
        tasks.append(km_task(inp, "M_22", 3, 6, 1, limit=1))
        tasks.append(km_task(inp, cyclic(31), 2, 3, KM_COUNTS[31]))
    for group, t, k, repeats in SMALL_KM:
        if small and group not in (7, 13, "PSL(2,7)", "PSL(2,11)"):
            continue
        for _ in range(1 if small else repeats):
            tasks.append(km_task(inp, cyclic(group) if isinstance(group, int) else group, t, k,
                                 KM_COUNTS[group]))
    return tasks


def screen_tasks(inp, small):
    rng = inp.rng
    tasks = []
    for t in (6,) if small else (4, 5, 6, 7):
        lines, survivors = SWEEP_FACTS[t]
        tasks.append(cli_task(
            ["analyze-bt", "--t", str(t), "--lambda", "1", "--v-max", "257", "--json"],
            {"type": "sweep", "lines": lines, "survivors": survivors},
        ))
    # three runs each of the like-costing t = 4, 5, 6 scans make a block of
    # nine at the 90th percentile
    for t in (6,) if small else (2, 3) + (4, 5, 6) * 3:
        tasks.append(cli_task(["scan", str(t), "1", "--v-max", "200", "--json"],
                              {"type": "scan", "t": t, "count": SCAN_COUNTS[t]}))
    for _ in range(10 if small else 100):
        t = rng.randint(2, 5)
        v = rng.randint(t + 2, 150)
        k = rng.randint(t + 1, v - 1)
        lam = rng.randint(1, 3)
        tasks.append(cli_task(["admissible", str(t), str(v), str(k), str(lam), "--json"],
                              {"type": "admissible", "t": t, "v": v, "k": k, "lambda": lam}))

    sizes = (4, 5) if small else (6, 7, 8)
    for n in sizes:
        blocks = boolean_blocks(n, relabelling(rng, 2**n))
        path = inp.write("d%d.json" % n, {"t": 3, "v": 2**n, "k": 4, "lambda": 1,
                                          "blocks": blocks})
        tasks.append(cli_task(["verify", path, "--json"], {"type": "verify", "witness": None}))
        if n == 8:
            continue  # derive and alter only the smaller designs: 2 s more per pass
        x = rng.randrange(2**n)
        digest, b = derived_digest(blocks, x)
        tasks.append(cli_task(["derive", path, str(x)],
                              {"type": "derive", "v": 2**n - 1, "digest": digest, "b": b}))
        blocks, witness = corrupt(blocks, 2**n, rng)
        path = inp.write("c%d.json" % n, {"t": 3, "v": 2**n, "k": 4, "lambda": 1,
                                          "blocks": blocks})
        tasks.append(cli_task(["verify", path, "--json"], {"type": "verify", "witness": witness}))
    return tasks


TASK_LISTS = {"groups": groups_tasks, "km": km_tasks, "screen": screen_tasks}


def generate(workload, seed, workdir, small=False):
    """Write the inputs of one run; return (tasks, input digest)."""
    rng = random.Random("%s:%s" % (workload, seed))
    inp = Inputs(workdir, rng)
    tasks = TASK_LISTS[workload](inp, small)
    for i, task in enumerate(tasks):
        task["id"] = i
    return tasks, inp.digest(tasks)
