"""Permutations and permutation groups with exact stabilizer-chain machinery.

Permutations act on points 0..degree-1.  Composition is left-to-right:
``(p * q)(x) == q(p(x))``, i.e. apply ``p`` first.  Groups build a
deterministic stabilizer chain eagerly at construction (base points chosen
smallest-moved-point first, optionally behind a caller-supplied base prefix),
which gives exact orders as products of transversal lengths and exact
membership tests by sifting.  One Schreier-Sims loop closes every chain: a
first build from generators closes it fully, a rebase of a group whose
order is already known stops once the transversal lengths multiply to that
order (Seress, *Permutation Group Algorithms*, 2003, ch. 4), and
``_extend`` adds one generator and re-closes only the levels it reaches.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb, prod

from .errors import CapacityError, MembershipError, NotAutomorphismError

DEFAULT_SUBSET_CAP = 10**7


class Permutation:
    """An immutable bijection on 0..degree-1, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not set(map(type, images)) <= {int}:  # one pass in C; the loop finds the culprit
            for x in images:
                if not _is_int(x):
                    raise ValueError("image %r is not an integer" % (x,))
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection on 0..%d" % (len(images) - 1))
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _trusted(cls, images):
        """Wrap an image tuple that is a bijection by construction."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @classmethod
    def identity(cls, degree):
        return cls._trusted(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build a permutation from disjoint cycles; a repeated point, or one
        that is not an integer in 0..degree-1, is refused."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for point in cycle:
                if not (_is_int(point) and 0 <= point < degree):
                    raise ValueError("point %r is not in 0..%d" % (point, degree - 1))
                if point in seen:
                    raise ValueError("point %d appears twice in the cycles" % point)
                seen.add(point)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        # apply self, then other
        q = other.images
        if len(q) != len(self.images):
            raise ValueError("degree mismatch: %d * %d" % (len(self.images), len(q)))
        return Permutation._trusted(tuple([q[x] for x in self.images]))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def apply_set(self, points):
        """Image of a point set, returned as a sorted tuple."""
        images = self.images
        return tuple(sorted([images[p] for p in points]))

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def min_moved(self):
        for i, j in enumerate(self.images):
            if i != j:
                return i
        return None

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least point."""
        moved = [x for x, y in enumerate(self.images) if x != y]
        return [tuple(cycle) for cycle in _partition(moved, [self.images.__getitem__])[0]]

    def cycle_string(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(%s)" % " ".join(map(str, c)) for c in cyc)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%s)" % self.cycle_string()


_CYCLE_RE = re.compile(r"\(([\d\s,]*)\)")


def parse_cycles(text, degree=None):
    """Parse disjoint cycle notation like ``"(0 1 2)(3 4)"``.

    Whitespace and commas both separate points.  ``degree`` defaults to one
    more than the largest point mentioned.
    """
    stripped = text.strip()
    leftover = _CYCLE_RE.sub("", stripped).strip()
    if leftover:
        raise ValueError("could not parse cycle text %r (unexpected %r)" % (text, leftover))
    cycles = []
    for match in _CYCLE_RE.finditer(stripped):
        body = match.group(1).strip()
        if body:
            cycles.append([int(tok) for tok in re.split(r"[\s,]+", body)])
    if not cycles:
        if degree is None:
            raise ValueError("cannot infer degree from identity cycle text")
        return Permutation.identity(degree)
    largest = max(max(c) for c in cycles)
    if degree is None:
        degree = largest + 1
    elif largest >= degree:
        raise ValueError("point %d in %r is out of range for degree %d" % (largest, text, degree))
    return Permutation.from_cycles(degree, cycles)


class PermutationGroup:
    """A permutation group given by generators, with an eager stabilizer chain.

    The chain is deterministic: base points come from ``base_prefix`` first,
    then smallest moved points of offending residues; transversals are built
    by breadth-first search in generator order.  ``order`` is the exact
    product of transversal lengths.  A group built from generators alone is
    closed fully, so its order is an independent check of any order claimed
    for it.  Only rebases and subgroups read off a chain level pass the
    private known ``_order``; they end with the chain a full closure builds.
    A rebase onto a prefix the base already starts with builds nothing.
    """

    def __init__(self, generators, degree=None, base_prefix=(), _order=None):
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("degree required for a generator-free group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d != group degree %d" % (g.degree, degree))
        self.degree = degree
        self._identity = Permutation.identity(degree)
        seen = set()
        kept = []
        for g in gens:
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            kept.append(g)
        self.generators = tuple(kept)

        self.base = list(base_prefix)
        _check_points(self.base, degree, "base point")
        if len(set(self.base)) != len(self.base):
            raise ValueError("base prefix contains repeats")
        # level i holds the strong generators fixing base[:i]
        self._level_gens = [list(self.generators)]
        for i, b in enumerate(self.base):
            self._level_gens.append([g for g in self._level_gens[i] if g(b) == b])
        for g in self.generators:
            if all(g(b) == b for b in self.base):
                mm = g.min_moved()
                self.base.append(mm)
                self._level_gens.append([h for h in self._level_gens[-1] if h(mm) == mm])
        self._transversals = [None] * len(self.base)
        self._inverses = [None] * len(self.base)
        # m -> G_S, S = {0..m-1} (_set_stabilizer).  _extend, the one in-place
        # mutator, runs only on a stabilizer_setwise result, with this empty
        self._set_stabilizers = {}
        for level in range(len(self.base)):
            self._orbit_transversal(level)
        self._close_from(len(self.base) - 1, _order)
        self.order = self._order_from(0)

    # -- chain construction -------------------------------------------------

    def _orbit_transversal(self, level):
        b = self.base[level]
        tree = {}
        _orbit(b, self._level_gens[level], tree)
        # the tree lists the orbit in breadth-first order, each member after
        # the point it was reached from
        trans = {b: self._identity}
        for image, (point, g) in tree.items():
            trans[image] = trans[point] * g
        self._transversals[level] = trans
        self._inverses[level] = {}

    def _inverse(self, level, point):
        """Inverse of the transversal element for ``point``, computed on
        first use and kept until the level's transversal is rebuilt."""
        cache = self._inverses[level]
        inv = cache.get(point)
        if inv is None:
            inv = cache[point] = self._transversals[level][point].inverse()
        return inv

    def _sift_from(self, perm, level):
        """Reduce ``perm`` through levels >= ``level``.

        Returns ``(residue, dropout)`` where ``dropout`` is the first level
        whose transversal cannot absorb the residue, or ``len(base)`` if the
        residue passed every level (identity iff membership).
        """
        points = [perm(b) for b in self.base[level:]]
        residue, dropout = self._sift_points(points, perm.images, level)
        return Permutation._trusted(residue), dropout

    def _order_from(self, level):
        """Product of the transversal lengths at ``level`` and below."""
        return prod(len(trans) for trans in self._transversals[level:])

    def _close_from(self, level, order=None):
        """Verify the levels from ``level`` up to 0, going deeper again after
        each new strong generator.  Given the exact ``order``, stop once the
        transversal lengths multiply to it: the product never exceeds |G| and
        each new strong generator grows it, so a full closure adds no more.
        """
        while level >= 0 and self._order_from(0) != order:
            jump = self._close_level(level)
            level = level - 1 if jump is None else jump

    def _close_level(self, level):
        """Sift all Schreier generators of ``level`` through deeper levels.

        Returns the level to reprocess when a new strong generator was
        installed, or None when the level verified clean.
        """
        trans = self._transversals[level]
        gens = self._level_gens[level]
        for point in sorted(trans):
            u = trans[point]
            for s in gens:
                image = s(point)
                us = u * s
                if us.images == trans[image].images:
                    continue
                residue, dropout = self._sift_from(us, level)
                if not residue.is_identity():
                    self._install(residue, level + 1, dropout)
                    return dropout
        return None

    def _install(self, residue, first, dropout):
        """Add ``residue`` to the strong generators of levels ``first`` to
        ``dropout`` and rebuild their transversals, so every transversal
        stays the orbit of its level's generators."""
        if dropout == len(self.base):
            self.base.append(residue.min_moved())
            self._level_gens.append([])
            self._transversals.append(None)
            self._inverses.append(None)
        for level in range(first, dropout + 1):
            self._level_gens[level].append(residue)
            self._orbit_transversal(level)

    def _extend(self, g):
        """Add a non-member ``g`` to the generators, re-closing only the
        levels its sifted residue reaches."""
        residue, dropout = self._sift_from(g, 0)
        self.generators += (g,)
        self._install(residue, 0, dropout)
        self._close_from(dropout)
        self.order = self._order_from(0)

    def _sift_points(self, points, carried=(), level=0):
        """Send ``points[i]`` to ``base[level + i]`` one level at a time, by the
        inverse transversal element of each level, carrying ``carried`` along.
        Returns (images of ``carried``, depth).  Depth is ``level + len(points)``
        when a member g fixing ``base[:level]`` has g(base[level + i]) = points[i],
        with the images under g^-1 for the g the transversals give, and is
        otherwise the first level whose transversal lacks its point."""
        points, carried = list(points), list(carried)
        for lev, x in enumerate(points, level):
            if x not in self._transversals[lev]:
                return tuple(carried), lev
            if x != self.base[lev]:
                inv = self._inverse(lev, x).images
                points[lev - level + 1:] = [inv[p] for p in points[lev - level + 1:]]
                carried = [inv[p] for p in carried]
        return tuple(carried), level + len(points)

    def _rebase(self, prefix):
        """The same group on a chain with ``prefix`` as its base prefix: this
        group itself when its base already starts with ``prefix``."""
        prefix = list(prefix)
        if self.base[:len(prefix)] == prefix:
            return self
        return PermutationGroup(self.generators, self.degree, prefix, _order=self.order)

    def _level_subgroup(self, level):
        """The pointwise stabilizer of ``base[:level]``, from that level's
        strong generators; the deeper transversals give its order."""
        return PermutationGroup(self._level_gens[level], self.degree,
                                _order=self._order_from(level))

    # -- queries ------------------------------------------------------------

    def sift(self, perm):
        """Full sift from the top; identity residue means membership."""
        if perm.degree != self.degree:
            raise ValueError("degree mismatch")
        residue, _ = self._sift_from(perm, 0)
        return residue

    def __contains__(self, perm):
        return self.sift(perm).is_identity()

    def point_orbits(self):
        """All point orbits, each sorted, ordered by least element."""
        maps = [g.images.__getitem__ for g in self.generators]
        orbits, _ = _partition(range(self.degree), maps)
        return [tuple(sorted(orbit)) for orbit in orbits]

    # -- stabilizers ----------------------------------------------------------

    def stabilizer_point(self, x):
        """Stabilizer of a point (exact, via a chain based at x)."""
        return self.stabilizer_pointwise([x])

    def stabilizer_pointwise(self, points):
        """Subgroup fixing every listed point."""
        points = list(points)
        _check_points(points, self.degree, "point")
        return self._rebase(points)._level_subgroup(len(points))

    def stabilizer_setwise(self, block):
        """Setwise stabilizer of a point set, by backtracking over the chain.

        On a chain with the block as base prefix the levels below the block
        hold the pointwise stabilizer G_(B), so the search chooses only the
        images of the block's points: one leaf per coset of G_(B) in G_B.
        The result K starts as G_(B) and each leaf it does not yet hold
        extends it in place.  Two exact prunes (Seress, *Permutation Group
        Algorithms*, 2003, §9.1; Leon, *J. Symb. Comput.* 12, 1991) cut every
        subtree without a leaf outside K:

        - orbit counts: below a node at depth m the search maps each orbit
          O of the level-m stabilizer onto post(O), so a node whose block
          preimages meet some O less often than the block does has no leaf;
        - the subgroup found so far: the identity subtree at each depth is
          searched first, so a node whose prefix images lie in the K-orbit
          of the block's prefix holds only members of K, and a child of the
          identity path whose image is not least in its orbit under K's
          stabilizer of the earlier block points repeats a searched sibling.

        Leaves outside K are met in the unpruned order, so the generators
        are those of the unpruned search.
        """
        block = list(block)
        _check_points(block, self.degree, "point")
        block = tuple(sorted(set(block)))
        chain = self._rebase(block)
        known = PermutationGroup(chain._level_gens[len(block)], self.degree, block,
                                 _order=chain._order_from(len(block)))
        pointwise = known.order
        tables = [chain._orbit_counts(level, block) for level in range(len(block))]
        # depth first; children are pushed in descending gamma order so they
        # pop in the ascending order a recursion visits.  A node at depth m
        # stands for the coset G^(m) * post, where post composes the
        # transversal elements chosen so far; it keeps the preimages of the
        # block under post and the images of block[:m]
        stack = [(block, ())]
        while stack:
            pre, images = stack.pop()
            level = len(images)
            # only the identity path keeps the block itself as its preimages
            on_path = pre is block
            if not on_path and known.order > pointwise:
                # a child of the identity path repeats the subtree of the
                # least image in its K-orbit; any other node lies in K when
                # its prefix images lie in the K-orbit of the block's prefix
                if images[:-1] == block[:level - 1]:
                    image = images[-1]
                    maps = [g.images.__getitem__ for g in known._level_gens[level - 1]]
                    if min(_orbit(image, maps)) < image:
                        continue
                elif known._sift_points(images)[1] == level:
                    continue
            if level == len(block):
                if not on_path:
                    post, _ = chain._sift_points(images, range(self.degree))
                    post = Permutation._trusted(post).inverse()
                    if post.apply_set(block) != block:
                        raise AssertionError("backtrack leaf does not stabilize the block (bug)")
                    known._extend(post)
                continue
            trans = chain._transversals[level]
            table = tables[level]
            where = dict(zip(pre, block))
            children = [(gamma, where[gamma]) for gamma in trans.keys() & where.keys()]
            for gamma, image in sorted(children, reverse=True):
                if gamma == block[level]:
                    child_pre = pre
                else:
                    inv = chain._inverse(level, gamma).images
                    child_pre = tuple([inv[p] for p in pre])
                if table is not None and child_pre is not block:
                    label, need = table
                    counts = [0] * len(need)
                    for p in child_pre:
                        if p in label:
                            counts[label[p]] += 1
                    if any(map(int.__lt__, counts, need)):
                        continue
                stack.append((child_pre, images + (image,)))
        return known

    def _orbit_counts(self, level, block):
        """The orbit-count table of the setwise backtrack for the children
        of ``level``: a child can lead to a leaf only if every orbit of level
        ``level + 1`` that meets the unfixed block points holds at least as
        many of the child's block preimages as block points.  The table
        labels the points of these orbits and lists the block counts; it is
        None where the test cannot cut anything."""
        rest = block[level + 1:]
        if len(self._transversals[level]) == 1 or len(rest) < 2:
            return None
        # the next transversal is the orbit of rest[0]; where it holds every
        # unfixed point, the counts are forced
        if len(self._transversals[level + 1]) == self.degree - level - 1:
            return None
        maps = [g.images.__getitem__ for g in self._level_gens[level + 1]]
        orbits, label = _partition(rest, maps)
        need = [0] * len(orbits)
        for point in rest:
            need[label[point]] += 1
        return label, need

    def stabilizer_point_in_block(self, x, block):
        """Stabilizer of an incident point-and-set pair (G_x intersect G_B)."""
        if x not in set(block):
            raise ValueError("point %d is not in the block" % x)
        return self.stabilizer_point(x).stabilizer_setwise(block)

    # -- subset actions, tuple transitivity ------------------------------------

    def subset_orbit_partition(self, m, cap=DEFAULT_SUBSET_CAP, tree=None):
        """Full orbit partition on m-subsets: (reps, sizes, subset -> index).

        The index lists each orbit's subsets together, in breadth-first order
        from its representative.  A dict ``tree`` receives the labelled
        Schreier tree of that search (see ``_orbit``), one entry per subset
        that is not a representative.
        """
        _subset_count(self.degree, m, cap)
        maps = [g.apply_set for g in self.generators]
        orbits, index = _partition(combinations(range(self.degree), m), maps, tree)
        return [orbit[0] for orbit in orbits], [len(orbit) for orbit in orbits], index

    def is_transitive_on_tuples(self, t):
        """Exact t-transitivity test, read from the stabilizer chain."""
        return t <= self.degree and self._transitivity_up_to(t) >= t

    def _transitivity_up_to(self, t):
        """The largest s <= t such that the group is s-transitive (t <= degree).

        Transversal i is the orbit of base point b_i under the pointwise
        stabilizer of b_0..b_{i-1}, so the orbit of (b_0..b_{s-1}) on distinct
        s-tuples has the product of the first s lengths as its size.  Length
        i is at most degree - i; the group is s-transitive iff the first s
        attain it.  Any base of at least t points will do; a shorter one is
        first extended by a rebase onto 0..t-1.
        """
        chain = self if len(self.base) >= t else self._rebase(range(t))
        s = 0
        while s < t and len(chain._transversals[s]) == self.degree - s:
            s += 1
        return s

    def is_homogeneous(self, m):
        """Exact m-homogeneity test |G : G_S| = C(degree, m), S = {0..m-1}, with
        S on at most degree/2 points, as m- and (degree-m)-homogeneity agree."""
        total = comb(self.degree, m)
        found = self._set_stabilizer(min(m, self.degree - m)) if total else None
        return found is not None and self.order == total * found[1].order

    def _set_stabilizer(self, m):
        """The index test's (chain with S = {0..m-1} as base prefix, G_S), G_S
        kept on that chain; None, with nothing searched, when C(degree, m) does
        not divide |G|, as then no orbit on m-subsets has C(degree, m) members."""
        if self.order % comb(self.degree, m):
            return None
        chain = self._rebase(range(m))
        if m not in chain._set_stabilizers:
            chain._set_stabilizers[m] = chain.stabilizer_setwise(range(m))
        return chain, chain._set_stabilizers[m]


def _subset_count(v, m, cap):
    """C(v, m); CapacityError when it exceeds ``cap``."""
    total = comb(v, m)
    if total > cap:
        raise CapacityError("%d-subset enumeration size %d exceeds cap %d" % (m, total, cap))
    return total


@dataclass(frozen=True)
class ActionReport:
    """Point-action summary: orbits plus exact transitivity/homogeneity degrees."""

    orbit_count_points: int
    orbit_lengths: tuple
    transitivity_degree: int
    homogeneity_degree: int
    tested_t_max: int


def homogeneity(group, t_max):
    """Exact transitivity and homogeneity degrees up to ``t_max``, by ``_climb``."""
    t_max = min(t_max, group.degree)
    orbits = group.point_orbits()
    _, trans_degree, homog_degree = _climb(group, t_max)
    return ActionReport(
        orbit_count_points=len(orbits),
        orbit_lengths=tuple(sorted(len(o) for o in orbits)),
        transitivity_degree=trans_degree,
        homogeneity_degree=homog_degree,
        tested_t_max=t_max,
    )


def _climb(group, t_max):
    """(chain, s, h): s is G's transitivity degree up to t_max <= degree, from
    its own chain or else from ``chain``, its rebase onto 0..t_max-1; h counts
    up from s while ``is_homogeneous`` holds on ``chain``: for t_max <= v/2 the
    homogeneity degree (Livingstone and Wagner, *Math. Z.* 90, 1965)."""
    chain = group
    s = h = group._transitivity_up_to(min(t_max, len(group.base)))
    if s < t_max:
        chain = group._rebase(range(t_max))
        s = h = chain._transitivity_up_to(t_max)
        while h < t_max and chain.is_homogeneous(h + 1):
            h += 1
    return chain, s, h


@dataclass(frozen=True)
class BlockActionReport:
    """Induced action of a group on a design's blocks and flags."""

    block_orbit_count: int
    flag_orbit_count: int
    point_orbit_count: int
    is_block_transitive: bool
    is_flag_transitive: bool
    is_point_transitive: bool


def induced_block_images(group, design):
    """Each generator's action on block indices.

    NotAutomorphismError names the first generator and block it maps outside.
    """
    if group.degree != design.params.v:
        raise ValueError(
            "group degree %d != design point count %d" % (group.degree, design.params.v)
        )
    blocks = design.blocks
    block_index = {blk: i for i, blk in enumerate(blocks)}
    induced = []
    for g in group.generators:
        images = []
        for blk in blocks:
            image = g.apply_set(blk)
            if image not in block_index:
                raise NotAutomorphismError(
                    "generator %s maps block %s outside the block set"
                    % (g.cycle_string(), blk),
                    generator=g,
                    block=blk,
                )
            images.append(block_index[image])
        induced.append(images)
    return induced


def induced_block_action(group, design):
    """Check a group acts on a design and report its block/flag/point orbits."""
    induced = induced_block_images(group, design)
    nblocks = design.b
    v = design.params.v
    # the flag (point x, block bi) is the int bi * v + x
    flags = [bi * v + x for bi, block in enumerate(design.blocks) for x in block]
    flag_maps = [
        (lambda flag, p=g.images, img=img: img[flag // v] * v + p[flag % v])
        for g, img in zip(group.generators, induced)
    ]
    block_maps = [img.__getitem__ for img in induced]
    block_orbits = len(_partition(range(nblocks), block_maps)[0])
    flag_orbits = len(_partition(flags, flag_maps)[0])
    point_orbits = len(group.point_orbits())
    return BlockActionReport(
        block_orbit_count=block_orbits,
        flag_orbit_count=flag_orbits,
        point_orbit_count=point_orbits,
        is_block_transitive=block_orbits == 1,
        is_flag_transitive=flag_orbits == 1 and nblocks > 0,
        is_point_transitive=point_orbits == 1,
    )


def _orbit(seed, maps, tree=None):
    """Orbit of ``seed`` under the functions ``maps``, in breadth-first order.

    A dict ``tree`` receives, for every member but the seed,
    ``tree[member] = (u, f)``: the map ``f`` first reached it from ``u``.
    """
    seen = {seed}
    queue = [seed]
    for item in queue:
        for f in maps:
            image = f(item)
            if image not in seen:
                seen.add(image)
                queue.append(image)
                if tree is not None:
                    tree[image] = (item, f)
    return queue


def _partition(items, maps, tree=None):
    """Orbits of ``maps`` on ``items``, numbered in the order of their first
    item: (orbits, index), each orbit in breadth-first order from that item
    (see ``_orbit``, which fills ``tree``) and ``index`` taking each member
    to its orbit's number."""
    orbits = []
    index = {}
    for item in items:
        if item not in index:
            orbit = _orbit(item, maps, tree)
            index.update(zip(orbit, repeat(len(orbits))))
            orbits.append(orbit)
    return orbits, index


def group_from_json_dict(data):
    """Read the interchange form; generators may be image arrays or cycle text."""
    if not isinstance(data, dict):
        raise ValueError("group json: expected an object")
    if "degree" not in data or "generators" not in data:
        raise ValueError("group json: missing 'degree' or 'generators'")
    degree = data["degree"]
    if not _is_int(degree) or degree <= 0:
        raise ValueError("group json: degree must be a positive integer")
    if degree > DEFAULT_SUBSET_CAP:  # before a list of that length is built
        raise CapacityError("group json: degree %d exceeds cap %d" % (degree, DEFAULT_SUBSET_CAP))
    if not isinstance(data["generators"], list):
        raise ValueError("group json: 'generators' must be an array")
    gens = []
    for i, entry in enumerate(data["generators"]):
        try:
            if isinstance(entry, str):
                gens.append(parse_cycles(entry, degree=degree))
            elif isinstance(entry, list) and all(_is_int(x) for x in entry):
                if len(entry) != degree:
                    raise ValueError("has length %d, expected %d" % (len(entry), degree))
                gens.append(Permutation(entry))
            else:
                raise ValueError("must be an array of integers or cycle text")
        except ValueError as exc:
            raise ValueError("group json: generators[%d]: %s" % (i, exc)) from exc
    return PermutationGroup(gens, degree=degree)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_points(points, degree, name):
    """Refuse (ValueError) a point that is not an int in 0..degree-1; a
    float or a bool would otherwise be read as the int it compares equal to."""
    for p in points:
        if not (_is_int(p) and 0 <= p < degree):
            raise ValueError("%s %r is not an integer in 0..%d" % (name, p, degree - 1))


def check_membership(group, perms):
    """Sift-check a batch of permutations; raise MembershipError on the first failure."""
    for p in perms:
        if p not in group:
            raise MembershipError("permutation %s is not a group member" % p.cycle_string())
    return True
