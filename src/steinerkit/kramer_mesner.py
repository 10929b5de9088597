"""Design search with a prescribed automorphism group.

Rows of the orbit matrix are the group's orbits on t-subsets, columns its
orbits on k-subsets; entry (i, j) counts the column-orbit members
containing the row representative, which is independent of the chosen
representative.  When the group is t-homogeneous there is one row R,
read from a stabilizer chain without enumerating a t-subset, and each
t-subset is carried onto R by the first of its orderings that the chain's
``_sift_points`` sifts through all t levels; otherwise the t-subsets are partitioned.
A design with the prescribed group is a column selection whose row sums
all equal lambda; the solver enumerates those selections by deterministic
backtracking and the results are expanded to explicit block sets.  The
first time a solution uses a column, one pass expands its orbit, proves it
closed under the group, sorts it and checks its blocks, refuses it if an
earlier column has the same least block (the same orbit), and counts its
covers of every t-subset.  A design is proved by summing its columns'
counts, and made by merging its columns' sorted orbits without checking a
block again.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, permutations
from math import comb

from .designs import DesignParameters, _checked_columns, _trusted_design, cover_counts
from .errors import CapacityError
from .perms import DEFAULT_SUBSET_CAP, _climb, _orbit, _subset_count


@dataclass(frozen=True)
class OrbitMatrix:
    degree: int
    t: int
    k: int
    row_reps: tuple  # canonical (lex-least) t-subset representatives
    col_reps: tuple  # canonical k-subset representatives
    col_sizes: tuple
    entries: tuple  # entries[i][j]

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "t": self.t,
            "k": self.k,
            "row_reps": [list(r) for r in self.row_reps],
            "col_reps": [list(c) for c in self.col_reps],
            "col_sizes": list(self.col_sizes),
            "entries": [list(row) for row in self.entries],
        }


def build_orbit_matrix(group, t, k, cap=DEFAULT_SUBSET_CAP):
    """Count, for each t-orbit representative, its k-supersets per k-orbit.

    Each k-orbit K is found at the least row r whose orbit it meets: the
    k-supersets of R = R_r that meet no earlier row are split into orbits of
    the row stabilizer G_R (from ``stabilizer_setwise``, or trivial when
    |orbit(R)| = |G|), and the G_R-orbits lying in one K are joined by a
    G-invariant label, the least G_R-orbit id that the superset's t-subsets
    in row r are carried to by elements taking each onto R.  Their sizes
    sum to M[r, K].  The rest is double counting over the pairs (T, S) with
    T a t-subset of S in K: |orbit(R_s)| M[s, K] = |K| n_s for every row s,
    where n_s counts the t-subsets of any one S in K that lie in row s.
    K's lex-least member begins with R_r and each row's supersets are
    enumerated in lex order, so the first superset found in K is its
    representative.  Rows and columns are sorted by representative.

    The rows and the carrying elements come from one of two sources; no
    k-subset is partitioned in either.  If G is t-homogeneous (the index
    test of ``_set_stabilizer`` on R = (0..t-1)), R is the only row, no
    t-subset is enumerated, and ``carry`` takes the first ordering of the
    t-subset that ``_sift_points``, on a chain with R as its base prefix,
    sifts through all t levels.  Otherwise the t-subsets are partitioned and
    carried along their labelled Schreier tree paths; G_R, if the test built
    it, is row 0's.
    """
    v = group.degree
    if not 1 <= t <= k <= v:
        raise ValueError(
            "need 1 <= t <= k <= degree, got t=%d k=%d degree=%d" % (t, k, v)
        )
    supersets = comb(v - t, k - t)
    if supersets > cap:
        raise CapacityError(
            "%d-supersets of a %d-subset: %d exceed cap %d" % (k, t, supersets, cap)
        )
    total = _subset_count(v, t, cap)
    based, stab = group._set_stabilizer(t) or (None, None)  # R as base prefix, G_R
    if stab is not None and group.order == total * stab.order:
        row_reps, row_sizes = [tuple(range(t))], [total]

        def row_of(sub):
            return 0

        def carry(sub, superset):
            """The image of ``superset`` under an element taking ``sub`` onto R."""
            moved = [p for p in superset if p not in sub]
            for ordering in permutations(sub):
                images, depth = based._sift_points(ordering, moved)
                if depth == t:
                    return tuple(sorted(row_reps[0] + images))
    else:
        tree = {}
        row_reps, row_sizes, index = group.subset_orbit_partition(t, cap=cap, tree=tree)
        row_of = index.__getitem__
        inverse = {g.apply_set: g.inverse().images for g in group.generators}

        def carry(sub, superset):
            """The image of ``superset`` under the tree path taking its t-subset
            ``sub`` to that row's representative."""
            points = [p for p in superset if p not in sub]
            rep = row_reps[index[sub]]
            while sub in tree:
                sub, f = tree[sub]
                inv = inverse[f]
                points = [inv[p] for p in points]
            return tuple(sorted(rep + tuple(points)))

    columns = []  # (representative, least row met, entry there), one per k-orbit
    for r, rep in enumerate(row_reps):
        maps = None  # G_R's generators, once some superset needs them
        rest = [p for p in range(v) if p not in rep]
        orbit_id = {}
        orbits = []  # (least member, size, its t-subsets in row r)
        for extra in combinations(rest, k - t):
            superset = tuple(sorted(rep + extra))
            if superset in orbit_id:
                continue
            meets = []
            for sub in combinations(superset, t):
                row = row_of(sub)
                if row < r:  # its k-orbit was found at an earlier row
                    break
                if row == r:
                    meets.append(sub)
            else:
                if maps is None:  # G_R is trivial when R's orbit is as large as G
                    if group.order == row_sizes[r]:
                        maps = []
                    elif r == 0 and stab is not None:  # built by the index test
                        maps = [g.apply_set for g in stab.generators]
                    else:
                        maps = [g.apply_set for g in group.stabilizer_setwise(rep).generators]
                orbit = _orbit(superset, maps) if maps else (superset,)
                for member in orbit:
                    orbit_id[member] = len(orbits)
                orbits.append((superset, len(orbit), meets))
        found = {}  # label -> index into columns
        for i, (superset, size, meets) in enumerate(orbits):
            if meets == [rep]:  # the identity carries rep: carry(rep, superset) is superset
                label = i
            else:
                label = min(orbit_id[carry(sub, superset)] for sub in meets)
            if label in found:
                columns[found[label]][2] += size
            else:
                found[label] = len(columns)
                columns.append([superset, r, size])
    columns.sort()
    entries = [[0] * len(columns) for _ in row_reps]
    col_sizes = []
    for j, (col_rep, r, entry) in enumerate(columns):
        counts = Counter(map(row_of, combinations(col_rep, t)))
        size, rem = divmod(row_sizes[r] * entry, counts[r])
        for s, n in counts.items():
            entries[s][j], rem_s = divmod(size * n, row_sizes[s])
            rem += rem_s
        if rem:
            raise AssertionError("column %r has fractional counts (bug)" % (col_rep,))
        col_sizes.append(size)
    for r, row in enumerate(entries):
        if sum(row) != supersets:
            raise AssertionError("row %d sums to %d, expected %d (bug)" % (r, sum(row), supersets))
    return OrbitMatrix(
        degree=v,
        t=t,
        k=k,
        row_reps=tuple(row_reps),
        col_reps=tuple(col_rep for col_rep, _, _ in columns),
        col_sizes=tuple(col_sizes),
        entries=tuple(tuple(row) for row in entries),
    )


def subset_orbits(group, m, cap=DEFAULT_SUBSET_CAP):
    """Orbit representatives and sizes of the action on m-subsets.

    Representatives are the lexicographically least members of their
    orbits, listed in lexicographic order; sizes sum to C(degree, m).
    m- and (v-m)-homogeneity agree, so ``_climb`` finds t0, the largest
    t <= h = min(m, v-m) at which G is t-homogeneous, on a chain that keeps
    G_R for R = 0..t0-1.  At t0 = h there is one orbit.  Otherwise, when
    C(m, t0)^2 <= C(v, t0), the orbits are the columns of the one-row matrix
    ``build_orbit_matrix(G, t0, m)``, whose C(v-t0, m-t0) C(m, t0) =
    C(v, m) C(m, t0)^2 / C(v, t0) carries are then at most the C(v, m)
    subsets a partition enumerates; else the m-subsets are partitioned.
    ``cap`` bounds C(v, t0) and C(v-t0, m-t0) on the matrix route and
    C(v, m) on the other two.
    """
    v = group.degree
    if not comb(v, m):
        return []
    h = min(m, v - m)
    based, _, t0 = _climb(group, h)
    if t0 == h:
        return [(tuple(range(m)), _subset_count(v, m, cap))]
    if t0 and comb(m, t0) ** 2 <= comb(v, t0):
        matrix = build_orbit_matrix(based, t0, m, cap)
        return list(zip(matrix.col_reps, matrix.col_sizes))
    reps, sizes, _ = group.subset_orbit_partition(m, cap=cap)
    return list(zip(reps, sizes))


def solve(matrix, lam, limit=None):
    """All column selections with every row sum equal to lambda, at most
    ``limit`` of them if given, each a sorted tuple of column indices.

    Deterministic depth-first search on an explicit stack: branch on the
    unsatisfied row with the fewest usable columns (ties to the lowest row
    index), try its columns in ascending index order.  Each solution is
    reached exactly once: picking column j for the branching row bars the
    smaller-indexed columns covering that row from the subtree, so a
    solution's columns on any row are always chosen in increasing order.

    Column sets are int bitmasks.  A node's usable mask holds the columns
    neither chosen nor barred whose every entry fits its row's residual;
    choosing j only lowers the residuals of the rows j touches, so the
    child's mask is the parent's minus the barred columns, ANDed with
    ``fits[i][residual[i]]`` for those rows alone; ``fits[i]`` stops at
    lambda or at row i's largest entry, which every column fits.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return [()]
    entries = matrix.entries
    if any(sum(row) < lam for row in entries):
        return []  # no choice of columns lifts that row to lambda
    nrows = len(entries)
    rows = range(nrows)
    ncols = len(matrix.col_reps)
    row_cols = [sum(1 << j for j, e in enumerate(row) if e) for row in entries]
    top = [min(max(row), lam) for row in entries]
    fits = [[sum(1 << j for j, e in enumerate(row) if e <= r) for r in range(top[i] + 1)]
            for i, row in enumerate(entries)]
    support = [[(i, entries[i][j]) for i in rows if entries[i][j]] for j in range(ncols)]
    residual = [lam] * nrows
    usable = (1 << ncols) - 1
    for i in rows:
        usable &= fits[i][-1]
    solutions = []
    chosen = []  # the column taken at each stack frame
    stack = []  # [usable mask, branching row's columns, its untried candidates]
    while limit is None or len(solutions) < limit:
        best_row, best_count = None, ncols + 1
        for i in rows:
            if residual[i]:
                count = (usable & row_cols[i]).bit_count()
                if count < best_count:
                    best_row, best_count = i, count
                    if not count:
                        break
        if best_row is None:
            solutions.append(tuple(sorted(chosen)))
        elif best_count:
            stack.append([usable, row_cols[best_row], usable & row_cols[best_row]])
            chosen.append(None)
        while stack:  # take the next untried candidate, undoing the last one
            frame = stack[-1]
            j = chosen.pop()
            if j is not None:
                for i, e in support[j]:
                    residual[i] += e
            untried = frame[2]
            if untried:
                low = untried & -untried
                frame[2] = untried ^ low
                j = low.bit_length() - 1
                chosen.append(j)
                usable = frame[0] & ~(frame[1] & ((low << 1) - 1))
                for i, e in support[j]:
                    left = residual[i] - e
                    residual[i] = left
                    if left < top[i]:  # else every column fits row i
                        usable &= fits[i][left]
                break
            stack.pop()
        else:
            break
    return solutions


def expand_selection(matrix, selection, lam, orbits):
    """The design whose blocks are the orbits of the columns in ``selection``.

    ``orbits`` maps each chosen column index to its orbit, a list of blocks
    already checked as ``Design`` would check them, and pairwise disjoint.
    The orbits are merged by one sort, which runs through sorted orbits as
    a merge of runs, and the design is made without checking its blocks
    again.
    """
    blocks = sorted(chain.from_iterable(map(orbits.__getitem__, selection)))
    params = DesignParameters(matrix.t, matrix.degree, matrix.k, lam)
    return _trusted_design(params, list(map(list, zip(*blocks))))


def search_design(group, t, k, lam, limit=None, cap=DEFAULT_SUBSET_CAP, matrix=None):
    """Full pipeline: orbit matrix, solve, expand, and an exhaustive proof.

    ``matrix`` is the orbit matrix of (group, t, k) if the caller has built
    it already; it is not trusted.  The first time a selection uses column
    j, one pass expands its orbit K_j, checks |K_j| against ``col_sizes``
    and K_j closed under every generator, sorts K_j and checks its blocks
    as ``Design`` would (k strictly increasing points in range, no block
    twice), and counts its covers of each t-subset (CapacityError when the
    C(v,t) counters exceed ``cap``) into one int, a fixed-width field per
    t-subset.  Each K_j is a whole G-orbit, so two columns' orbits are
    equal exactly when their least blocks are, and disjoint otherwise; a
    column whose least block an earlier column has is refused, so the
    chosen orbits of a design are disjoint.  A design's columns' ints must
    sum to lambda in every field: no t-subset lies in more than C(v-t,k-t)
    k-subsets, so no field carries.  So every returned design covers each
    t-subset exactly lambda times, and its automorphism group contains the
    group.  A matrix of another v, t or k is refused (ValueError).
    """
    params = DesignParameters(t, group.degree, k, lam)  # rejects bad input before enumerating
    v = params.v
    if matrix is None:
        matrix = build_orbit_matrix(group, t, k, cap=cap)
    elif (matrix.degree, matrix.t, matrix.k) != (v, t, k):
        raise ValueError("the orbit matrix is of (v, t, k) = %r, not %r"
                         % ((matrix.degree, matrix.t, matrix.k), (v, t, k)))
    width = 1 if max(lam, comb(v - t, k - t)) < 256 else 4  # bytes per field
    maps = [g.apply_set for g in group.generators]
    orbits = {}  # column -> its sorted orbit, for the columns used so far
    covers = {}  # column -> its cover counts, one fixed-width field per t-subset
    column_of = {}  # least block of a used column's orbit -> that column
    target = None  # built at the first design
    designs = []
    for selection in solve(matrix, lam, limit=limit):
        for j in selection:
            if j not in orbits:
                orbit = _orbit(matrix.col_reps[j], maps)
                if len(orbit) != matrix.col_sizes[j]:
                    raise AssertionError("orbit size drifted for column %d" % j)
                members = set(orbit)
                if not all(members.issuperset(map(f, orbit)) for f in maps):
                    raise AssertionError("column %d is not closed under the group (bug)" % j)
                orbit.sort()
                try:
                    columns, _ = _checked_columns(params, orbit)
                except ValueError as exc:
                    raise AssertionError("orbit of column %d: %s (bug)" % (j, exc)) from None
                i = column_of.setdefault(orbit[0], j)
                if i != j:
                    raise AssertionError("columns %d and %d have the same orbit (bug)" % (i, j))
                orbits[j] = orbit
                counts = cover_counts(columns, t, v, k, width, cap)
                covers[j] = int.from_bytes(counts, sys.byteorder)
        if target is None:  # lambda in every field
            target = lam * int.from_bytes((b"\1" + bytes(width - 1)) * comb(v, t), "little")
        if sum(map(covers.__getitem__, selection)) != target:
            raise AssertionError("selection %r does not cover every %d-subset %d times (bug)"
                                 % (selection, t, lam))
        designs.append(expand_selection(matrix, selection, lam, orbits))
    return designs
