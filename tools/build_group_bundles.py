#!/usr/bin/env python3
"""Regenerate the bundled generator files under src/steinerkit/data/groups/.

Everything is derived, not copied from tables:

1. The [24,12,8] extended quadratic-residue code over GF(2) is built from a
   degree-11 irreducible factor of (x^23 + 1)/(x + 1); its weight-8 words are
   the 759 octads of the Witt system on 24 points.  Coordinates are labelled
   0..22 for the cyclic positions (residues mod 23) and 23 for the extension,
   which matches the projective-line labelling used by the catalog, so the
   catalog's PSL(2,23) permutes the octads (checked).
2. A depth-first search finds one octad-preserving permutation fixing three
   points; together with PSL(2,23) it generates the full automorphism group
   M_24 (order checked against 244823040).
3. The remaining groups are stabilizers inside M_24: point stabilizers give
   M_23 and M_22, a dodecad (weight-12 word) stabilizer gives M_12, its point
   stabilizer gives M_11 in both its degree-11 and degree-12 actions, and an
   incident point+octad stabilizer restricted to the complementary 16 points
   gives the affine group 2^4:A7.

Every derived group's order is verified by a stabilizer chain before the
file is written; the orders land in metadata.json and are re-verified at
load time by the package.

A file that already holds the group built is left alone: same order, and
each generator set lies in the other group.  This keeps ``a7_16.json``
frozen: the stabilizer routines have changed since it was written, and
the tool now derives other generators for the same 2^4:A7.  Writing them
would change the output of ``group info catalog:2^4:A7`` and of every task
that starts from those generators.  With the bundle files removed, the
tool writes the six Mathieu files and metadata.json byte for byte as
committed; only ``a7_16.json`` comes out different.
"""
from __future__ import annotations

import json
import os
import sys
import time
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from steinerkit.catalog import (  # noqa: E402
    projective_inversion,
    projective_scaling,
    projective_translation,
)
from steinerkit.perms import (  # noqa: E402
    Permutation,
    PermutationGroup,
    group_from_json_dict,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "steinerkit", "data", "groups")


# -- GF(2) polynomial helpers (coefficients as bitmasks, bit i = coeff of x^i) --


def poly_mul(a, b):
    out = 0
    while a:
        if a & 1:
            out ^= b
        a >>= 1
        b <<= 1
    return out


def poly_divmod(a, b):
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def degree11_factors_of_x23_minus_1():
    """Both degree-11 irreducible factors of (x^23+1)/(x+1) over GF(2)."""
    x23_1 = (1 << 23) | 1
    factors = []
    for tail in range(1 << 10):
        cand = (1 << 11) | (tail << 1) | 1  # monic, nonzero constant term
        _, rem = poly_divmod(x23_1, cand)
        if rem == 0:
            factors.append(cand)
    assert len(factors) == 2, factors
    return sorted(factors)


def golay_codewords(generator_poly):
    """All 4096 words of the parity-extended [23,12] cyclic code, as bitmasks."""
    basis = []
    for i in range(12):
        word = generator_poly << i  # coefficients of x^i * g(x), fits in 23 bits
        assert word < (1 << 23)
        parity = bin(word).count("1") & 1
        basis.append(word | (parity << 23))
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    assert len(words) == 4096
    return words


def words_of_weight(words, weight):
    out = []
    for w in words:
        if bin(w).count("1") == weight:
            out.append(tuple(i for i in range(24) if (w >> i) & 1))
    return sorted(out)


def find_extra_automorphism(octads):
    """First non-identity octad-preserving permutation fixing points 23, 0, 1.

    PSL(2,23) fixes no three points except trivially, so any hit lies
    outside it.  Pruning: once five points of an octad are mapped, the whole
    mapped part must land inside the unique octad over the image 5-set.
    """
    octad_sets = [frozenset(o) for o in octads]
    five_map = {}
    for idx, o in enumerate(octads):
        for five in combinations(o, 5):
            five_map[five] = idx
    point_octads = [[] for _ in range(24)]
    for idx, o in enumerate(octads):
        for p in o:
            point_octads[p].append(idx)

    domain = [23, 0, 1] + list(range(2, 23))
    images = {23: 23, 0: 0, 1: 1}
    used = set(images.values())

    def consistent(x):
        for idx in point_octads[x]:
            oset = octad_sets[idx]
            mapped = sorted(p for p in oset if p in images)
            if len(mapped) < 5:
                continue
            img5 = tuple(sorted(images[p] for p in mapped[:5]))
            target = five_map.get(img5)
            if target is None:
                return False
            target_set = octad_sets[target]
            if any(images[p] not in target_set for p in mapped):
                return False
        return True

    def dfs(i):
        if i == len(domain):
            if all(images[p] == p for p in range(24)):
                return None
            perm = Permutation([images[p] for p in range(24)])
            if all(frozenset(perm.apply_set(o)) in set(octad_sets) for o in octads):
                return perm
            return None
        x = domain[i]
        for y in range(24):
            if y in used:
                continue
            images[x] = y
            used.add(y)
            if consistent(x):
                hit = dfs(i + 1)
                if hit is not None:
                    return hit
            del images[x]
            used.remove(y)
        return None

    perm = dfs(3)
    assert perm is not None, "no external automorphism found"
    return perm


def restrict(group, kept_points, expected_order):
    """Action of a group on an invariant point set, relabelled onto 0..n-1."""
    kept = sorted(kept_points)
    relabel = {p: i for i, p in enumerate(kept)}
    gens = []
    for g in group.generators:
        gens.append(Permutation([relabel[g(p)] for p in kept]))
    out = PermutationGroup(gens, degree=len(kept))
    assert out.order == expected_order, (out.order, expected_order)
    return out


def holds_group(path, group):
    """Whether the bundle file at ``path`` holds ``group`` itself."""
    if not os.path.exists(path):
        return False
    with open(path, encoding="utf-8") as handle:
        held = group_from_json_dict(json.load(handle))
    return (
        held.degree == group.degree
        and held.order == group.order
        and all(g in held for g in group.generators)
        and all(g in group for g in held.generators)
    )


def dump(name, group, expected_order, metadata):
    assert group.order == expected_order, (name, group.order, expected_order)
    filename = "%s.json" % name
    path = os.path.join(OUT_DIR, filename)
    metadata.append(
        {"name": name, "degree": group.degree, "expected_order": expected_order, "file": filename}
    )
    if holds_group(path, group):
        print("kept %s: it holds this group already" % filename)
        return
    payload = {
        "name": name,
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    print("wrote %s (degree %d, order %d, %d generators)" % (
        filename, group.degree, expected_order, len(group.generators)))


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = time.time()

    factors = degree11_factors_of_x23_minus_1()
    psl23 = [projective_translation(23), projective_scaling(23, square=True), projective_inversion(23)]
    octads = None
    for gen_poly in factors:
        words = golay_codewords(gen_poly)
        cand = words_of_weight(words, 8)
        assert len(cand) == 759, len(cand)
        cand_sets = set(map(frozenset, cand))
        if all(frozenset(g.apply_set(o)) in cand_sets for g in psl23 for o in cand):
            octads = cand
            dodecads = words_of_weight(words, 12)
            print("using generator polynomial %#x (PSL(2,23)-invariant octads)" % gen_poly)
            break
    assert octads is not None, "no PSL(2,23)-invariant factor (labelling bug)"
    assert len(dodecads) == 2576

    print("searching for an automorphism outside PSL(2,23)...")
    extra = find_extra_automorphism(octads)
    print("  found:", extra.cycle_string())

    m24 = PermutationGroup(psl23 + [extra], degree=24)
    print("M24 chain order:", m24.order, "(%.1fs)" % (time.time() - t0))
    assert m24.order == 244823040

    metadata = []
    dump("m24", m24, 244823040, metadata)

    m23_24 = m24.stabilizer_point(23)
    m23 = restrict(m23_24, range(23), 10200960)
    dump("m23", m23, 10200960, metadata)

    m22_23 = m23.stabilizer_point(22)
    m22 = restrict(m22_23, range(22), 443520)
    dump("m22", m22, 443520, metadata)

    dodecad = dodecads[0]
    print("dodecad stabilizer (this is the slow step)...")
    t1 = time.time()
    stab_dodecad = m24.stabilizer_setwise(dodecad)
    print("  order %d in %.1fs" % (stab_dodecad.order, time.time() - t1))
    assert stab_dodecad.order == 95040
    m12 = restrict(stab_dodecad, dodecad, 95040)
    dump("m12", m12, 95040, metadata)

    m11_12pts = m12.stabilizer_point(0)
    assert m11_12pts.order == 7920
    m11 = restrict(m11_12pts, range(1, 12), 7920)
    dump("m11", m11, 7920, metadata)

    # the same stabilizer acts 3-transitively on the complementary dodecad
    stab_point = stab_dodecad.stabilizer_point(dodecad[0])
    complement = [p for p in range(24) if p not in set(dodecad)]
    m11_deg12 = restrict(stab_point, complement, 7920)
    dump("m11_deg12", m11_deg12, 7920, metadata)

    octad = octads[0]
    print("octad stabilizer...")
    t1 = time.time()
    stab_octad = m24.stabilizer_setwise(octad)
    print("  order %d in %.1fs" % (stab_octad.order, time.time() - t1))
    assert stab_octad.order == 322560
    inc_stab = stab_octad.stabilizer_point(octad[0])
    assert inc_stab.order == 40320
    outside = [p for p in range(24) if p not in set(octad)]
    a7_16 = restrict(inc_stab, outside, 40320)
    assert a7_16.is_homogeneous(3)
    assert a7_16.stabilizer_point(0).order == 2520  # the A_7 point stabilizer
    dump("a7_16", a7_16, 40320, metadata)

    with open(os.path.join(OUT_DIR, "metadata.json"), "w", encoding="utf-8") as handle:
        json.dump({"groups": metadata}, handle, indent=2)
        handle.write("\n")
    print("metadata.json written; total %.1fs" % (time.time() - t0))


if __name__ == "__main__":
    main()
