"""Concrete permutation groups for the families the screening pipeline tests.

Projective groups act on the projective line over GF(q): point indices
0..q-1 are the field elements in the fixed basis order and index q is the
point at infinity.  Affine groups over GF(2) act on bit-vector indices.
Mathieu groups (and the affine group with point stabilizer A_7 on 16
points) load from bundled generator files; ``BUNDLES`` gives each file's
degree and order, and every load checks the file against its row, the order
by the stabilizer chain, and fails closed on a mismatch.

Entries above the construction caps stay symbolic: they carry the family's
closed-form order so divisibility screening can run without building the
group.

The affine side of the candidate listing implements exactly the printed
classification list (AGL(1,8), AGammaL(1,8), AGammaL(1,32), the
2^d:SL(d,2) series, and 2^4:A7); whether that enumeration of affine cases
is exhaustive is a question the listing does not decide.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dc_field
from math import comb, factorial, gcd

from .errors import CapacityError, DataIntegrityError
from .gf import field, prime_power_decomposition
from .perms import Permutation, PermutationGroup, group_from_json

DEFAULT_DEGREE_CAP = 4096
PROJECTIVE_CONSTRUCT_CAP = 300
AFFINE_CONSTRUCT_CAP = 64
ALTERNATING_CONSTRUCT_CAP = 16

# Each bundled generator file, as <name>.json: (degree, order).  The catalog
# lists these orders, every load checks its file against its row, and
# tools/build_group_bundles.py checks each group it derives against it.
BUNDLES = {
    "m24": (24, 244823040),
    "m23": (23, 10200960),
    "m22": (22, 443520),
    "m12": (12, 95040),
    "m11": (11, 7920),
    "m11_deg12": (12, 7920),
    "a7_16": (16, 40320),
}
_MATHIEU_TRANSITIVITY = {11: 4, 12: 5, 22: 3, 23: 4, 24: 5}  # M_v is this transitive

DATA_ENV_VAR = "STEINERKIT_DATA"


# -- closed-form orders -------------------------------------------------------


def psl_order(q):
    return q * (q * q - 1) // gcd(2, q - 1)


def pgl_order(q):
    return q * (q * q - 1)


def pgammal_order(q):
    _, e = prime_power_decomposition(q)
    return e * pgl_order(q)


def psigmal_order(q):
    _, e = prime_power_decomposition(q)
    return e * psl_order(q)


def agl_d2_order(d):
    order = 2**d
    for i in range(d):
        order *= 2**d - 2**i
    return order


# -- projective line constructions -------------------------------------------


def _field_maps(q, square=False, semilinear=False):
    """Image lists on GF(q) of x -> x+1, of x -> c*x for the field's
    generator c (x -> c^2*x if ``square``) and, if ``semilinear``, of the
    Frobenius x -> x^p.  The projective and affine builders share them."""
    f = field(q)
    c = f.mul(f.generator, f.generator) if square else f.generator
    maps = [[f.add(x, 1) for x in range(q)], [f.mul(c, x) for x in range(q)]]
    if semilinear:
        maps.append([f.frobenius(x) for x in range(q)])
    return maps


# kind: (closed-form order, scaling by a square, Frobenius among the generators)
PROJECTIVE_KINDS = {
    "PSL": (psl_order, True, False),
    "PGL": (pgl_order, False, False),
    "PSigmaL": (psigmal_order, True, True),
    "PGammaL": (pgammal_order, False, True),
}


def projective_group(kind, q):
    """PSL/PGL/PSigmaL/PGammaL(2,q) on the q+1 points of the projective line.

    Generated by x -> x+1, x -> c*x for a primitive c (or its square),
    x -> -1/x and, for the semilinear kinds, the Frobenius x -> x^p, as
    ``PROJECTIVE_KINDS`` says per kind.  The stabilizer chain order is
    checked against the kind's closed form at construction.
    """
    if kind not in PROJECTIVE_KINDS:
        raise ValueError("unknown projective kind %r" % (kind,))
    if prime_power_decomposition(q) is None or q <= 3:
        raise ValueError("q must be a prime power > 3, got %r" % (q,))
    order, square, semilinear = PROJECTIVE_KINDS[kind]
    f = field(q)
    gens = [images + [q] for images in _field_maps(q, square, semilinear)]  # infinity fixed
    # x -> -1/x swaps 0 and infinity (x -> 1/x in characteristic 2)
    gens.insert(2, [q] + [f.neg(f.inv(x)) for x in range(1, q)] + [0])
    group = PermutationGroup(gens, degree=q + 1)
    if group.order != order(q):
        raise DataIntegrityError(
            "%s(2,%d): chain order %d != closed form %d" % (kind, q, group.order, order(q))
        )
    return group


# -- affine constructions ------------------------------------------------------


def _transvection_perm(d, i, j):
    # linear map adding coordinate j into coordinate i on V(d,2)
    return Permutation([x ^ (((x >> j) & 1) << i) for x in range(2**d)])


def _agl_d2_group(d):
    gens = [Permutation([x ^ 1 for x in range(2**d)])]
    for i in range(d):
        for j in range(d):
            if i != j:
                gens.append(_transvection_perm(d, i, j))
    return PermutationGroup(gens, degree=2**d)


def _affine_1dim_group(q, semilinear):
    return PermutationGroup(_field_maps(q, semilinear=semilinear), degree=q)


# -- alternating / symmetric ---------------------------------------------------


def alternating_group(v):
    """A_v on v points (a 3-cycle plus a long even cycle)."""
    if v < 3:
        raise ValueError("alternating group needs v >= 3")
    three = Permutation.from_cycles(v, [[0, 1, 2]])
    if v % 2 == 1:
        long = Permutation.from_cycles(v, [list(range(v))])
    else:
        long = Permutation.from_cycles(v, [list(range(1, v))])
    group = PermutationGroup([three, long], degree=v)
    if group.order != factorial(v) // 2:
        raise DataIntegrityError("A_%d: chain order %d != %d" % (v, group.order, factorial(v) // 2))
    return group


# -- bundled generator data ------------------------------------------------------


def data_directory():
    """Directory holding bundled generator files (env var > package data)."""
    env = os.environ.get(DATA_ENV_VAR)
    return env or os.path.join(os.path.dirname(__file__), "data", "groups")


def load_bundled_group(name):
    """Load the bundled group ``name`` and check it against its ``BUNDLES`` row.

    A missing or unreadable file, one ``group_from_json`` refuses (a degree
    above the cap too), or one whose 'name', degree or chain order is not
    the row's is a DataIntegrityError naming the file."""
    degree, order = BUNDLES[name]
    path = os.path.join(data_directory(), name + ".json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        group = group_from_json(text, name=name)
    except OSError as exc:
        raise DataIntegrityError("bundle %s: %s" % (path, exc.strerror)) from None
    except (ValueError, CapacityError) as exc:
        raise DataIntegrityError("bundle %s: %s" % (path, exc)) from None
    if (group.degree, group.order) != (degree, order):
        raise DataIntegrityError(
            "bundle %s: degree %d and chain order %d, expected %d and %d (corrupt bundle)"
            % (path, group.degree, group.order, degree, order))
    return group


def mathieu(v):
    """The Mathieu group M_v in its natural degree-v action, from the bundle."""
    if v not in _MATHIEU_TRANSITIVITY:
        raise ValueError("Mathieu groups exist for v in 11,12,22,23,24; got %r" % (v,))
    return load_bundled_group("m%d" % v)


def mathieu_m11_degree12():
    """M_11 in its exceptional 3-transitive action on 12 points."""
    return load_bundled_group("m11_deg12")


# -- catalog entries ---------------------------------------------------------


@dataclass
class CatalogEntry:
    """One group family member at a fixed degree.

    ``order`` is exact (closed form or ``BUNDLES`` row).  An entry is
    constructible exactly when it has a builder; ``group()`` builds lazily,
    checks the built order against ``order`` and caches; symbolic entries
    (above the construction caps, or M_22:2) raise.  The
    ``three_homogeneous`` annotation records the family's known
    3-homogeneity status (None = not annotated, must be tested).
    ``k_homogeneous_all`` marks families transitive on m-subsets for every
    m (alternating/symmetric), which forces any invariant block set to be
    complete.
    """

    name: str
    family: str
    degree: int
    order: int
    char: int | None = None
    three_homogeneous: bool | None = None
    k_homogeneous_all: bool = False
    notes: str = ""
    _builder: object = dc_field(default=None, repr=False, compare=False)
    _group: object = dc_field(default=None, repr=False, compare=False)

    @property
    def constructible(self):
        return self._builder is not None

    def group(self):
        if self._group is None:
            if self._builder is None:
                raise ValueError("catalog entry %s is symbolic (no construction)" % self.name)
            built = self._builder()
            if built.order != self.order:
                raise DataIntegrityError(
                    "%s: constructed order %d != catalog order %d"
                    % (self.name, built.order, self.order)
                )
            self._group = built
        return self._group

    def known_homogeneity(self, m):
        """Annotation-level m-homogeneity: True/False if certain, None if unknown.

        Uses family facts for m <= 3 and the order bound |G| >= C(v, m)
        (with C(v,m) evaluated at m' = min(m, v-m)) for larger m.
        """
        if m <= 1:
            return True
        if self.k_homogeneous_all:
            return True
        if m == 2:
            return True  # every catalog family is 2-transitive
        if m == 3:
            return self.three_homogeneous
        needed = comb(self.degree, m)
        if needed > 0 and self.order < needed:
            return False
        return None


def _projective_entries(v):
    q = v - 1
    decomp = prime_power_decomposition(q)
    if decomp is None or q <= 3:
        return []
    p, e = decomp
    psl_3hom = (q % 2 == 0) or (q % 4 == 3)
    rows = [  # kind, listed at this q, 3-homogeneous, notes
        ("PSL", True, psl_3hom,
         "3-homogeneous" if psl_3hom else "not 3-homogeneous (q = 1 mod 4)"),
        ("PGL", q % 2 == 1, True, "sharply 3-transitive"),
        ("PSigmaL", q % 2 == 1 and e > 1, q % 4 == 3, "PSL extended by the field automorphisms"),
        ("PGammaL", e > 1, True, "contains sharply 3-transitive PGL(2,%d)" % q),
    ]
    buildable = v <= PROJECTIVE_CONSTRUCT_CAP
    return [
        CatalogEntry(name="%s(2,%d)" % (kind, q), family="projective", degree=v,
                     order=PROJECTIVE_KINDS[kind][0](q), char=p,
                     three_homogeneous=three_homogeneous, notes=notes,
                     _builder=(lambda kind=kind: projective_group(kind, q)) if buildable else None)
        for kind, listed, three_homogeneous, notes in rows
        if listed
    ]


# The printed list's affine groups besides the AGL(d,2) series, by degree:
# (name, order, builder, notes).  AGL(1,q) has order q(q-1), AGammaL(1,p^e)
# e times that.  Builders look their functions up when they run, so a
# tracer that later replaces a module name still sees the call.
_AFFINE_EXTRAS = {
    8: [
        ("AGL(1,8)", 8 * 7, lambda: _affine_1dim_group(8, semilinear=False),
         "sharply 1-dimensional affine"),
        ("AGammaL(1,8)", 8 * 7 * 3, lambda: _affine_1dim_group(8, semilinear=True), ""),
    ],
    16: [
        ("2^4:A7", BUNDLES["a7_16"][1], lambda: load_bundled_group("a7_16"),
         "translations extended by the exceptional A_7 < GL(4,2)"),
    ],
    32: [
        ("AGammaL(1,32)", 32 * 31 * 5, lambda: _affine_1dim_group(32, semilinear=True),
         "sharply 3-homogeneous"),
    ],
}


def _affine_entries(v):
    if v < 4 or v & (v - 1):
        return []
    d = v.bit_length() - 1
    rows = [
        ("AGL(%d,2)" % d, agl_d2_order(d),
         (lambda: _agl_d2_group(d)) if v <= AFFINE_CONSTRUCT_CAP else None,
         "3-transitive (no three collinear points over GF(2))"),
    ] + _AFFINE_EXTRAS.get(v, [])
    return [
        CatalogEntry(name=name, family="affine", degree=v, order=order, char=2,
                     three_homogeneous=True, notes=notes, _builder=builder)
        for name, order, builder, notes in rows
    ]


def _mathieu_entries(v):
    rows = []  # name, order, builder (None: symbolic), notes
    if v in _MATHIEU_TRANSITIVITY:
        rows.append(("M_%d" % v, BUNDLES["m%d" % v][1], lambda: mathieu(v),
                     "%d-transitive" % _MATHIEU_TRANSITIVITY[v]))
    if v == 12:
        rows.append(("M_11(deg12)", BUNDLES["m11_deg12"][1], mathieu_m11_degree12,
                     "M_11 in its 3-transitive action on 12 points"))
    if v == 22:
        rows.append(("M_22:2", 2 * BUNDLES["m22"][1], None,
                     "automorphism extension of M_22 (symbolic)"))
    return [
        CatalogEntry(name=name, family="mathieu", degree=v, order=order,
                     three_homogeneous=True, notes=notes, _builder=builder)
        for name, order, builder, notes in rows
    ]


def _alternating_entries(v):
    if v < 5:
        return []
    return [
        CatalogEntry(
            name="A_%d" % v,
            family="alternating",
            degree=v,
            order=factorial(v) // 2,
            three_homogeneous=True,
            k_homogeneous_all=True,
            notes="socle entry; the S_%d overgroup is covered by the same orbit argument" % v,
            _builder=(lambda v=v: alternating_group(v)) if v <= ALTERNATING_CONSTRUCT_CAP else None,
        )
    ]


def candidates_for_degree(v):
    """All catalog family members acting on v points.

    Ordered affine, alternating, mathieu, projective (then by name) for
    deterministic reports.  Entries above the per-family construction caps
    are symbolic but still carry exact orders.
    """
    if v < 4:
        raise ValueError("catalog degrees start at 4")
    if v > DEFAULT_DEGREE_CAP:
        raise ValueError("degree %d exceeds catalog cap %d" % (v, DEFAULT_DEGREE_CAP))
    entries = (
        sorted(_affine_entries(v), key=lambda c: c.name)
        + _alternating_entries(v)
        + sorted(_mathieu_entries(v), key=lambda c: c.name)
        + sorted(_projective_entries(v), key=lambda c: c.name)
    )
    return entries


def catalog_entry_by_name(name):
    """The entry that ``candidates_for_degree`` lists under exactly ``name``.

    The degrees tried are n, n+1 and 2^n for every integer n written in the
    name, which covers q+1, 2^d and each degree written out (``PSL(2,7)``,
    ``AGL(3,2)``, ``M_12``, ``2^4:A7``); longer digit runs name no degree
    within the cap and are skipped unparsed.
    """
    degrees = set()
    for digits in re.findall(r"[0-9]+", name):
        if len(digits) <= len(str(DEFAULT_DEGREE_CAP)):
            n = int(digits)
            degrees.update((n, n + 1, 2**n))
    for v in sorted(degrees):
        if 4 <= v <= DEFAULT_DEGREE_CAP:
            for entry in candidates_for_degree(v):
                if entry.name == name:
                    return entry
    raise ValueError("unknown catalog entry %r" % (name,))
