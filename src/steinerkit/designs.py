"""Designs on points 0..v-1: counts, verification, and explicit constructions.

All arithmetic is exact; block-count formulas return Fractions so that
non-integrality is visible to the admissibility layer instead of being
rounded away.  Blocks are strictly increasing and a design's block list is
duplicate-free and lexicographically sorted, giving deterministic equality
and diffable serialized output.  A Design holds its points as k columns,
one list per block position, built once when it is made; validation, cover
counting, derived designs and serialization read the columns, and
``Design.blocks`` builds the block tuples only when a caller asks for them.
"""
from __future__ import annotations

import gc
import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, compress, count, islice, repeat
from math import comb
from operator import add, lt
from typing import Optional

from .errors import DEFAULT_SUBSET_CAP, CapacityError


@dataclass(frozen=True)
class DesignParameters:
    """The quadruple (t, v, k, lambda) with basic range validation."""

    t: int
    v: int
    k: int
    lam: int

    def __post_init__(self):
        for name in ("t", "v", "k", "lam"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError("%s must be a positive integer, got %r" % (name, value))
        if not self.t <= self.k <= self.v:
            raise ValueError(
                "need t <= k <= v, got t=%d k=%d v=%d" % (self.t, self.k, self.v)
            )


def lambda_s(params, s):
    """Blocks through a fixed s-subset: lambda * C(v-s, t-s) / C(k-s, t-s).

    Exact rational; integrality is a separate admissibility question.
    """
    if not 0 <= s <= params.t:
        raise ValueError("s must lie in [0, t]=[0, %d], got %r" % (params.t, s))
    return Fraction(
        params.lam * comb(params.v - s, params.t - s), comb(params.k - s, params.t - s)
    )


class Design:
    """A block design: parameters plus a sorted, duplicate-free block list.

    The blocks are held as k columns, one list per block position:
    ``columns[j][i]`` is point j of block i.  ``blocks`` builds the tuples
    from them on each call.
    """

    __slots__ = ("params", "columns")

    def __init__(self, params, blocks):
        columns, _ = _checked_columns(params, list(blocks))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("Design is immutable")

    @property
    def blocks(self):
        return tuple(zip(*self.columns))

    @property
    def b(self):
        return len(self.columns[0])

    def __eq__(self, other):
        return (
            isinstance(other, Design)
            and self.params == other.params
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.params, *map(tuple, self.columns)))

    def __repr__(self):
        p = self.params
        return "Design(%d-(%d,%d,%d), %d blocks)" % (p.t, p.v, p.k, p.lam, self.b)


def _trusted_design(params, columns):
    """The Design on ``columns``, which the caller has already proved to be
    k columns of strictly increasing, in-range, sorted and distinct blocks."""
    design = object.__new__(Design)
    object.__setattr__(design, "params", params)
    object.__setattr__(design, "columns", columns)
    return design


# rows per slice when columns are built from a list of rows
_SLICE = 1 << 12


def _checked_columns(params, rows):
    """The columns of the list ``rows`` in lexicographic order, and whether
    ``rows`` came in that order.

    The function takes ``rows`` over.  Rows in order are checked and turned
    into columns a slice at a time (``_slice_columns``), and the list
    becomes the first column as its rows are dropped, so the rows and all
    the columns are never held at once.  Rows out of order are sorted, once
    their lengths and point types show that any two compare, and checked
    the same way.  Rows that are not all lists or all tuples are read as
    tuples, so that any two compare.  An invalid block list raises the
    ValueError naming its first invalid entry in the order given; dropped
    rows are put back first, as tuples.
    """
    k = params.k
    kinds = set(map(type, rows))
    if not (kinds <= {list} or kinds <= {tuple}):
        rows = list(map(tuple, rows))
    columns, m = _slice_columns(params, rows)
    if not m:
        return columns, True
    if m < len(rows):  # put the dropped rows back
        rows[m:] = zip(*columns)
        rows = list(map(tuple, rows))
    # out of order, or a fault
    if all(map(k.__eq__, map(len, rows))) and set(map(type, chain.from_iterable(rows))) <= {int}:
        columns, m = _slice_columns(params, sorted(rows))
        if not m:
            return columns, False
    _raise_block_fault(params, rows)


def _slice_columns(params, rows):
    """The columns of the longest run of whole slices at the end of
    ``rows`` whose rows are blocks of k strictly increasing points in
    [0, v), each row less than the next, and the index m where that run
    starts: 0 when every row got through.

    Slices of ``_SLICE`` rows are taken from the end, and each is checked
    and turned into columns before the one before it is read.  Each
    slice's entries in ``rows`` are then overwritten by its first points,
    so ``rows[m:]`` is the first column, and ``rows`` itself when m is 0.
    From the end, because the rows a decoder made last lie in
    the memory it took last, which is handed back as soon as they are gone;
    its first rows fill memory taken before, which other objects may still
    hold.  The walk stops at the first failing slice, which is left as it
    was.
    """
    k, v = params.k, params.v
    columns = [[] for _ in range(k)]  # built back to front, reversed at the end
    m = len(rows)
    after = None  # the first row of the slice after
    for lo in reversed(range(0, len(rows), _SLICE)):
        part = rows[lo:m]
        if not all(map(k.__eq__, map(len, part))):
            break
        points = list(chain.from_iterable(part))
        if not (
            set(map(type, points)) <= {int}
            and (after is None or part[-1] < after)
            and all(map(lt, part, islice(part, 1, None)))
        ):
            break
        cols = [points[j::k] for j in range(k)]
        if not (
            all(all(map(lt, cols[j], cols[j + 1])) for j in range(k - 1))
            and min(cols[0]) >= 0
            and max(cols[-1]) < v
        ):
            break
        rows[lo:m] = cols[0]
        for column, col in zip(columns[1:], cols[1:]):
            column += reversed(col)
        after = part[0]
        m = lo
    for column in columns[1:]:
        column.reverse()
    columns[0] = rows[m:] if m else rows
    return columns, m


def _raise_block_fault(params, blocks):
    """Raise the ValueError naming the first invalid entry of ``blocks``."""
    seen = set()
    for i, block in enumerate(map(tuple, blocks)):
        if len(block) != params.k:
            raise ValueError(
                "blocks[%d] has %d points, expected k=%d" % (i, len(block), params.k)
            )
        for j, p in enumerate(block):
            if type(p) is not int:
                raise ValueError("blocks[%d][%d] must be an integer, got %r" % (i, j, p))
            if not 0 <= p < params.v:
                raise ValueError(
                    "blocks[%d][%d]=%r out of point range [0, %d)" % (i, j, p, params.v)
                )
            if j and block[j - 1] >= p:
                raise ValueError(
                    "blocks[%d] is not strictly increasing at position %d" % (i, j)
                )
        if block in seen:
            raise ValueError("duplicate block %r (blocks[%d])" % (block, i))
        seen.add(block)
    raise AssertionError("unreachable: blocks failed a whole-list check but have no fault")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the exhaustive cover-count check.

    covered_lambda is present exactly when every t-subset of the point set
    lies in the same number of blocks (that common count); otherwise
    failing_witness holds the lexicographically least t-subset whose count
    differs from the declared lambda, paired with its count.
    """

    covered_lambda: Optional[int]
    failing_witness: Optional[tuple]


@lru_cache(maxsize=8)
def _rank_tables(v, t):
    """lexrank(s_0 < ... < s_{t-1}) = C(v,t) - 1 - sum_i C(v-1-s_i, t-i) as
    one term table per position i, the constant folded into the first."""
    tables = [[-comb(v - 1 - s, t - i) for s in range(v)] for i in range(t)]
    tables[0] = [comb(v, t) - 1 + term for term in tables[0]]
    return tables  # lists: list.__getitem__ is the faster bound method


def cover_counts(columns, t, v, k, width, cap=DEFAULT_SUBSET_CAP):
    """How many blocks (k-subsets of [0, v), given as k columns) contain
    each t-subset.

    Each t-subset has a counter of ``width`` bytes (1 or 4) at its
    lexicographic rank.  For each choice of t block positions, the ranks
    are summed from one table per position, streamed down the columns.
    Refuses (CapacityError) when the C(v,t) counters exceed ``cap``.
    """
    total = comb(v, t)
    if total > cap:
        raise CapacityError(
            "cover counts of C(%d,%d)=%d t-subsets are above the cap %d" % (v, t, total, cap)
        )
    counts = bytearray(total) if width == 1 else array("I", [0]) * total
    tables = _rank_tables(v, t)
    for positions in combinations(range(k), t):
        terms = [
            map(table.__getitem__, columns[j]) for table, j in zip(tables, positions)
        ]
        for rank in reduce(partial(map, add), terms):
            counts[rank] += 1
    return counts


def verify(design, cap=DEFAULT_SUBSET_CAP):
    """Exhaustively count block covers of every t-subset of the point set.

    The counts come from ``cover_counts`` (CapacityError past ``cap``), one
    byte each unless a t-subset can lie in 256 or more blocks; the first
    rank whose count differs from lambda is the least witness in lex order.
    """
    params = design.params
    t, v, k = params.t, params.v, params.k
    width = 1 if min(design.b, comb(v - t, k - t)) < 256 else 4
    counts = cover_counts(design.columns, t, v, k, width, cap)
    common = counts[0]
    if counts.count(common) == len(counts):
        witness = None if common == params.lam else (tuple(range(t)), common)
        return VerificationReport(common, witness)
    rank = next(compress(count(), map(params.lam.__ne__, counts)))
    subset = next(islice(combinations(range(v), t), rank, None))
    return VerificationReport(None, (subset, counts[rank]))


def derived(design, x):
    """Design on the blocks through x with x removed, points relabelled.

    Parameters map (t,v,k,lam) -> (t-1, v-1, k-1, lam); points above x
    shift down by one.
    """
    params = design.params
    if params.t < 2:
        raise ValueError("derived design needs t >= 2, got t=%d" % params.t)
    if not 0 <= x < params.v:
        raise ValueError("point %r out of range [0, %d)" % (x, params.v))
    new_params = DesignParameters(params.t - 1, params.v - 1, params.k - 1, params.lam)
    through = []  # the rows through x; x lies at most once in a block
    for column in design.columns:
        i = -1
        for _ in range(column.count(x)):
            i = column.index(x, i + 1)
            through.append(i)
    through.sort()
    cols = [list(map(column.__getitem__, through)) for column in design.columns]
    del through
    # a block through x keeps its points below x; past x, position j takes
    # the point at j + 1, shifted down
    new_columns = [
        [p if p < x else q - 1 for p, q in zip(cols[j], cols[j + 1])]
        for j in range(params.k - 1)
    ]
    del cols  # each stage is dropped once the next holds its points
    return Design(new_params, zip(*new_columns))


def construct_boolean(n, cap=DEFAULT_SUBSET_CAP):
    """The quadruple system on the 2^n bit vectors: blocks are the 4-sets
    with zero XOR.

    Every 3-set {a,b,c} extends by d = a^b^c to exactly one block, so the
    result is a 3-(2^n, 4, 1) design, re-checked by the exhaustive
    verifier.  Refuses (CapacityError) before enumerating anything when the
    C(2^n, 3) triples exceed ``cap``.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError("n must be an integer >= 3, got %r" % (n,))
    v = 2**n
    total = comb(v, 3)
    if total > cap:
        raise CapacityError(
            "boolean construction would enumerate C(%d,3)=%d triples, above the cap %d"
            % (v, total, cap)
        )
    blocks = []
    for a, b, c in combinations(range(v), 3):
        d = a ^ b ^ c
        if d > c:
            blocks.append((a, b, c, d))
    design = Design(DesignParameters(3, v, 4, 1), blocks)
    if verify(design, cap=cap).covered_lambda != 1:
        raise AssertionError("boolean construction failed verification (bug)")
    return design


def complete_design(v, k, t):
    """All k-subsets of [0, v): a t-(v, k, C(v-t, k-t)) design."""
    if not 1 <= t <= k <= v:
        raise ValueError("need 1 <= t <= k <= v")
    params = DesignParameters(t, v, k, comb(v - t, k - t))
    return Design(params, combinations(range(v), k))


def fano_plane():
    """The 2-(7,3,1) design generated by the difference set {0,1,3} mod 7."""
    blocks = [tuple(sorted(((0 + i) % 7, (1 + i) % 7, (3 + i) % 7))) for i in range(7)]
    return Design(DesignParameters(2, 7, 3, 1), blocks)


# -- interchange format -------------------------------------------------------


def _json_dict(design, blocks):
    p = design.params
    return {"t": p.t, "v": p.v, "k": p.k, "lambda": p.lam, "blocks": blocks}


def _json_form(design):
    """The JSON text of ``design`` up to its blocks' "[", and the ``%d``
    format that writes one of its blocks, a tuple of ints, as the encoder
    would."""
    head = json.dumps(_json_dict(design, []))[:-2]
    return head, "[" + ", ".join(["%d"] * design.params.k) + "]"


def design_to_json(design):
    head, form = _json_form(design)
    return head + ", ".join(map(form.__mod__, zip(*design.columns))) + "]}"


def _json_lines(designs):
    """``design_to_json`` of each design, each distinct block formatted once.

    The designs of one search share most of their blocks, so a block's text
    is kept from the first design that holds it.
    """
    texts = {}  # block -> its text
    params = None
    for design in designs:
        if design.params != params:
            params = design.params
            head, form = _json_form(design)
        rows = design.blocks
        try:
            text = ", ".join(map(texts.__getitem__, rows))
        except KeyError:  # a block not met before: format all of this design's
            new = list(map(form.__mod__, rows))
            texts.update(zip(rows, new))
            text = ", ".join(new)
        yield head + text + "]}"


def design_from_json_dict(data):
    """Validate and load the interchange object; an error is a ValueError
    reading ``design json: ``, then the fault and its position.

    The load takes over ``data['blocks']``: the list becomes the first
    column as its rows are dropped, and a fault puts them back, as tuples
    (``_checked_columns``).
    """
    try:
        if not isinstance(data, dict):
            raise ValueError("expected an object")
        for key in ("t", "v", "k", "lambda", "blocks"):
            if key not in data:
                raise ValueError("missing key %r" % key)
        for key in ("t", "v", "k", "lambda"):
            if type(data[key]) is not int:
                raise ValueError("%r must be an integer, got %r" % (key, data[key]))
        params = DesignParameters(data["t"], data["v"], data["k"], data["lambda"])
        blocks = data["blocks"]
        if not isinstance(blocks, list):
            raise ValueError("'blocks' must be an array")
        if not all(map(isinstance, blocks, repeat(list))):
            i = next(i for i, block in enumerate(blocks) if not isinstance(block, list))
            raise ValueError("blocks[%d] must be an array" % i)
        columns, in_order = _checked_columns(params, blocks)
        if not in_order:
            raise ValueError("blocks must be sorted lexicographically")
    except ValueError as exc:
        raise ValueError("design json: %s" % exc) from None
    return _trusted_design(params, columns)


def design_from_json(text):
    """Parse a design from JSON text; text that does not decode, or nests
    past the recursion limit, is a ValueError.

    A load holds the text and one list per block while the decoder runs;
    the text is then dropped, and each slice of block lists once its
    columns are built, the decoder's block list itself becoming the first
    column, so the peak is the parse's own.  The cyclic garbage
    collector is off until the block lists are gone: they make no cycles,
    and its passes over them were about a third of a large parse.  The
    caller's state comes back in every case.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ValueError("design json: %s" % exc) from exc
        del text
        return design_from_json_dict(data)
    finally:
        if enabled:
            gc.enable()
