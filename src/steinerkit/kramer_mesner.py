"""Design search with a prescribed automorphism group.

Rows of the orbit matrix are the group's orbits on t-subsets, columns its
orbits on k-subsets; entry (i, j) counts the column-orbit members
containing the row representative, which is independent of the chosen
representative.  A design with the prescribed group is a column selection
whose row sums all equal lambda; the solver enumerates those selections by
deterministic backtracking and the results are expanded to explicit block
sets and re-verified exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .designs import Design, DesignParameters, verify
from .perms import DEFAULT_SUBSET_CAP, _orbit, induced_block_images


@dataclass(frozen=True)
class OrbitMatrix:
    group_name: str
    degree: int
    t: int
    k: int
    row_reps: tuple  # canonical (lex-least) t-subset representatives
    col_reps: tuple  # canonical k-subset representatives
    col_sizes: tuple
    entries: tuple  # entries[i][j]

    def to_json_dict(self):
        return {
            "group": self.group_name,
            "degree": self.degree,
            "t": self.t,
            "k": self.k,
            "row_reps": [list(r) for r in self.row_reps],
            "col_reps": [list(c) for c in self.col_reps],
            "col_sizes": list(self.col_sizes),
            "entries": [list(row) for row in self.entries],
        }


def build_orbit_matrix(group, t, k, cap=DEFAULT_SUBSET_CAP, group_name=""):
    """Count, for each t-orbit representative, its k-supersets per k-orbit.

    Rows and columns are sorted by canonical representative; each row sums
    to C(v-t, k-t) because every k-superset of the representative lies in
    exactly one column orbit (checked).
    """
    if not 1 <= t <= k <= group.degree:
        raise ValueError(
            "need 1 <= t <= k <= degree, got t=%d k=%d degree=%d" % (t, k, group.degree)
        )
    row_reps, _, _ = group.subset_orbit_partition(t, cap=cap)
    col_reps, col_sizes, col_index = group.subset_orbit_partition(k, cap=cap)
    v = group.degree
    entries = [[0] * len(col_reps) for _ in row_reps]
    for i, rep in enumerate(row_reps):
        rest = [p for p in range(v) if p not in rep]
        row = entries[i]
        for extra in combinations(rest, k - t):
            superset = tuple(sorted(rep + extra))
            row[col_index[superset]] += 1
        if sum(row) != comb(v - t, k - t):
            raise AssertionError("row %d sums to %d, expected C(%d,%d)" % (
                i, sum(row), v - t, k - t))
    return OrbitMatrix(
        group_name=group_name,
        degree=v,
        t=t,
        k=k,
        row_reps=tuple(row_reps),
        col_reps=tuple(col_reps),
        col_sizes=tuple(col_sizes),
        entries=tuple(tuple(row) for row in entries),
    )


@dataclass(frozen=True)
class Selection:
    columns: tuple  # chosen column indices, sorted
    block_count: int  # sum of the chosen orbit sizes


def solve(matrix, lam, limit=None):
    """All column selections with every row sum equal to lambda.

    Deterministic depth-first search: branch on the unsatisfied row with the
    fewest usable columns (ties to the lowest row index), try its columns in
    ascending index order.  Each solution is reached exactly once: picking
    column j for the branching row bars the smaller-indexed columns covering
    that row from the subtree, so a solution's columns on any row are always
    chosen in increasing order.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    entries = matrix.entries
    nrows = len(entries)
    ncols = len(matrix.col_reps)
    if lam == 0:
        return [Selection(columns=(), block_count=0)]
    solutions = []
    residual = [lam] * nrows
    cols_of_row = [[j for j in range(ncols) if entries[i][j]] for i in range(nrows)]

    def usable(j, banned, chosen):
        if j in banned or j in chosen:
            return False
        return all(entries[i][j] <= residual[i] for i in range(nrows))

    def dfs(chosen, banned):
        if limit is not None and len(solutions) >= limit:
            return
        open_rows = [i for i in range(nrows) if residual[i] > 0]
        if not open_rows:
            solutions.append(
                Selection(
                    columns=tuple(sorted(chosen)),
                    block_count=sum(matrix.col_sizes[j] for j in chosen),
                )
            )
            return
        best_row = None
        best_cols = None
        for i in open_rows:
            cols = [j for j in cols_of_row[i] if usable(j, banned, chosen)]
            if not cols:
                return  # dead end
            if best_cols is None or len(cols) < len(best_cols):
                best_row, best_cols = i, cols
        for j in best_cols:
            for i in range(nrows):
                residual[i] -= entries[i][j]
            newly_banned = {j2 for j2 in cols_of_row[best_row] if j2 < j} - banned
            chosen.append(j)
            dfs(chosen, banned | newly_banned)
            chosen.pop()
            for i in range(nrows):
                residual[i] += entries[i][j]
            if limit is not None and len(solutions) >= limit:
                return

    dfs([], frozenset())
    return solutions


def expand_selection(group, matrix, selection, lam):
    """Turn a column selection into an explicit verified design."""
    maps = [g.apply_set for g in group.generators]
    blocks = set()
    for j in selection.columns:
        orbit = _orbit(matrix.col_reps[j], maps)
        if len(orbit) != matrix.col_sizes[j]:
            raise AssertionError("orbit size drifted for column %d" % j)
        blocks.update(orbit)
    params = DesignParameters(matrix.t, matrix.degree, matrix.k, lam)
    return Design(params, sorted(blocks))


def search_design(group, t, k, lam, limit=None, cap=DEFAULT_SUBSET_CAP, group_name=""):
    """Full pipeline: orbit matrix, solve, expand, exhaustive re-verification.

    Every returned design passes the cover-count verifier at the requested
    lambda, and the prescribing group is re-checked as an automorphism
    group of it.
    """
    DesignParameters(t, group.degree, k, lam)  # rejects bad input before enumerating
    matrix = build_orbit_matrix(group, t, k, cap=cap, group_name=group_name)
    designs = []
    for selection in solve(matrix, lam, limit=limit):
        design = expand_selection(group, matrix, selection, lam)
        report = verify(design)
        if report.covered_lambda != lam:
            raise AssertionError("expanded selection failed verification (bug)")
        induced_block_images(group, design)
        designs.append(design)
    return designs


def solve_brute_force(matrix, lam):
    """Reference solver: test all 2^cols column subsets (tiny matrices only)."""
    ncols = len(matrix.col_reps)
    if ncols > 20:
        raise ValueError("brute force reference is for small matrices")
    out = []
    for mask in range(1 << ncols):
        cols = [j for j in range(ncols) if (mask >> j) & 1]
        if all(
            sum(matrix.entries[i][j] for j in cols) == lam for i in range(len(matrix.entries))
        ):
            out.append(
                Selection(
                    columns=tuple(cols),
                    block_count=sum(matrix.col_sizes[j] for j in cols),
                )
            )
    return out
