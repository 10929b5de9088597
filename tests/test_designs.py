import json
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from steinerkit.designs import (
    _SLICE,
    Design,
    DesignParameters,
    VerificationReport,
    complete_design,
    construct_boolean,
    derived,
    design_from_json,
    design_from_json_dict,
    design_to_json,
    fano_plane,
    lambda_s,
    verify,
)
from steinerkit import designs
from steinerkit.errors import CapacityError


def blocks_through(design, subset):
    """Indices of blocks containing every point of ``subset``."""
    subset = set(subset)
    return [i for i, block in enumerate(design.blocks) if subset.issubset(block)]


def reference_verify(design):
    """Cover counts in a dict of t-subset tuples: the oracle for ``verify``."""
    params = design.params
    t, v = params.t, params.v
    counts = {}
    for block in design.blocks:
        for sub in combinations(block, t):
            counts[sub] = counts.get(sub, 0) + 1
    if len(counts) == comb(v, t):
        values = set(counts.values())
        if len(values) == 1:
            common = values.pop()
            witness = None if common == params.lam else (min(counts), common)
            return VerificationReport(common, witness)
    elif not counts:
        return VerificationReport(0, (tuple(range(t)), 0))
    for subset in combinations(range(v), t):
        count = counts.get(subset, 0)
        if count != params.lam:
            return VerificationReport(None, (subset, count))
    raise AssertionError("unreachable: non-constant counts with no witness")


def reference_canon(params, blocks):
    """Per-point block validation: the oracle for ``Design``'s sorted blocks."""
    seen = set()
    canon = []
    for i, block in enumerate(blocks):
        block = tuple(block)
        if len(block) != params.k:
            raise ValueError(
                "blocks[%d] has %d points, expected k=%d" % (i, len(block), params.k)
            )
        for j, p in enumerate(block):
            if not isinstance(p, int) or not 0 <= p < params.v:
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
        canon.append(block)
    return tuple(sorted(canon))


def binom_oracle(n, k):
    """Factorial-ratio binomial, independent of math.comb."""
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def test_parameter_validation():
    with pytest.raises(ValueError):
        DesignParameters(3, 2, 4, 1)
    with pytest.raises(ValueError):
        DesignParameters(0, 8, 4, 1)
    with pytest.raises(ValueError):
        DesignParameters(2, 8, 4, 0)
    params = DesignParameters(3, 8, 4, 1)
    assert params.t < params.k < params.v
    params = DesignParameters(3, 8, 8, 1)
    assert not params.t < params.k < params.v


def test_parameters_refuse_bools():
    # bool is an int subclass: a True here would serialize as JSON true,
    # which design_from_json refuses
    for name in ("t", "v", "k", "lam"):
        values = {"t": 2, "v": 7, "k": 3, "lam": 1, name: True}
        with pytest.raises(ValueError, match="%s must be a positive integer" % name):
            DesignParameters(**values)


def test_lambda_s_examples():
    params = DesignParameters(5, 24, 8, 1)
    assert lambda_s(params, 1) == 253
    assert lambda_s(params, 0) == 759
    assert lambda_s(params, params.t) == params.lam
    assert lambda_s(DesignParameters(6, 14, 7, 1), 5) == Fraction(9, 2)
    with pytest.raises(ValueError):
        lambda_s(params, 6)
    with pytest.raises(ValueError):
        lambda_s(params, -1)


def test_lambda_s_against_independent_oracle():
    rng = random.Random(5)
    for _ in range(60):
        t = rng.randrange(1, 7)
        k = rng.randrange(t, t + 6)
        v = rng.randrange(k, k + 20)
        lam = rng.randrange(1, 5)
        params = DesignParameters(t, v, k, lam)
        for s in range(t + 1):
            expected = Fraction(lam * binom_oracle(v - s, t - s), binom_oracle(k - s, t - s))
            assert lambda_s(params, s) == expected


def test_block_validation():
    params = DesignParameters(2, 7, 3, 1)
    with pytest.raises(ValueError):
        Design(params, [(0, 1)])
    with pytest.raises(ValueError):
        Design(params, [(0, 1, 7)])
    with pytest.raises(ValueError):
        Design(params, [(0, 2, 1)])
    with pytest.raises(ValueError):
        Design(params, [(0, 1, 2), (0, 1, 2)])


def test_blocks_canonically_sorted():
    params = DesignParameters(2, 7, 3, 21)
    design = Design(params, [(4, 5, 6), (0, 1, 2)])
    assert design.blocks == ((0, 1, 2), (4, 5, 6))


def test_verify_boolean():
    design = construct_boolean(3)
    assert design.b == 14
    report = verify(design)
    assert report.covered_lambda == 1
    assert report.failing_witness is None


def test_verify_complete_design():
    design = complete_design(7, 4, 2)
    report = verify(design)
    assert report.covered_lambda == comb(7 - 2, 4 - 2) == design.params.lam


def test_verify_deleted_block_witness():
    design = construct_boolean(3)
    broken = Design(design.params, design.blocks[1:])
    report = verify(broken)
    assert report.covered_lambda is None
    witness_subset, count = report.failing_witness
    assert count == 0
    assert set(witness_subset) <= set(design.blocks[0])
    # lexicographically least violating triple
    assert witness_subset == design.blocks[0][:3]


def test_verify_label_invariance():
    design = fano_plane()
    rng = random.Random(17)
    for _ in range(10):
        relabel = list(range(7))
        rng.shuffle(relabel)
        blocks = [tuple(sorted(relabel[p] for p in block)) for block in design.blocks]
        shuffled = Design(design.params, blocks)
        assert verify(shuffled).covered_lambda == verify(design).covered_lambda


def test_verify_zero_blocks():
    params = DesignParameters(2, 5, 3, 1)
    design = Design(params, [])
    report = verify(design)
    assert report.covered_lambda == 0
    assert report.failing_witness == ((0, 1), 0)


def test_verify_capacity():
    design = fano_plane()
    with pytest.raises(CapacityError):
        verify(design, cap=10)


def test_derived_boolean():
    design = construct_boolean(3)
    for x in range(8):
        sub = derived(design, x)
        assert sub.params == DesignParameters(2, 7, 3, 1)
        assert sub.b == 7
        assert verify(sub).covered_lambda == 1
    twice = derived(derived(design, 0), 0)
    assert twice.params == DesignParameters(1, 6, 2, 1)
    assert twice.b == 3
    assert verify(twice).covered_lambda == 1


def test_derived_parameter_map():
    params = DesignParameters(5, 24, 8, 1)
    mapped = DesignParameters(params.t - 1, params.v - 1, params.k - 1, params.lam)
    assert (mapped.t, mapped.v, mapped.k, mapped.lam) == (4, 23, 7, 1)


def test_derived_errors():
    design = derived(construct_boolean(3), 0)
    once_more = derived(design, 0)
    with pytest.raises(ValueError):
        derived(once_more, 0)  # t=1
    with pytest.raises(ValueError):
        derived(construct_boolean(3), 8)


def test_construct_boolean_properties():
    design = construct_boolean(4)
    assert design.params == DesignParameters(3, 16, 4, 1)
    assert design.b == 140
    for block in design.blocks:
        a, b, c, d = block
        assert a ^ b ^ c ^ d == 0
    # closed under translation x -> x ^ u, blockwise
    block_set = set(design.blocks)
    for u in range(16):
        for block in design.blocks:
            assert tuple(sorted(p ^ u for p in block)) in block_set
    with pytest.raises(ValueError):
        construct_boolean(2)
    with pytest.raises(CapacityError):
        construct_boolean(16)


def test_construct_boolean_cap_bounds_the_triples():
    # the cap is on the C(2^n, 3) triples, checked before any enumeration
    with pytest.raises(CapacityError, match=r"C\(512,3\)=22238720"):
        construct_boolean(9)
    with pytest.raises(CapacityError):
        construct_boolean(4, cap=comb(16, 3) - 1)
    assert construct_boolean(4, cap=comb(16, 3)).b == 140


def test_incidence_counts_match_lambda_s():
    # exhaustive cross-check of the counting formula on small verified designs
    rng = random.Random(23)
    corpus = (
        construct_boolean(3),
        construct_boolean(4),
        derived(construct_boolean(4), 3),
        fano_plane(),
        complete_design(6, 3, 2),
    )
    for design in corpus:
        params = design.params
        for s in range(params.t + 1):
            for _ in range(5):
                subset = tuple(sorted(rng.sample(range(params.v), s)))
                count = len(blocks_through(design, subset))
                assert count == lambda_s(params, s)


def test_counting_identities_on_verified_designs():
    for design in (construct_boolean(3), fano_plane(), complete_design(7, 3, 2)):
        params = design.params
        b = lambda_s(params, 0)
        r = lambda_s(params, 1)
        assert b * params.k == params.v * r
        if params.t >= 2:
            assert r * (params.k - 1) == lambda_s(params, 2) * (params.v - 1)


def test_json_roundtrip():
    design = fano_plane()
    text = design_to_json(design)
    assert design_from_json(text) == design
    data = json.loads(text)
    assert data["lambda"] == 1 and data["blocks"][0] == [0, 1, 3]


@pytest.mark.parametrize("make", [
    fano_plane,
    lambda: construct_boolean(6),
    lambda: derived(construct_boolean(4), 5),
    lambda: Design(DesignParameters(1, 3, 1, 1), [(0,), (1,), (2,)]),
    lambda: construct_boolean(3),
    lambda: construct_boolean(4),
    lambda: construct_boolean(5),
    lambda: complete_design(7, 3, 2),
    lambda: Design(DesignParameters(2, 5, 3, 1), []),
])
def test_design_to_json_encodes_the_blocks_as_the_dict_lists(make):
    # design_to_json writes each block by a %d format; the encoder, given
    # the block tuples or lists, is the oracle
    from steinerkit.designs import _json_dict

    design = make()
    p = design.params
    lists = {"t": p.t, "v": p.v, "k": p.k, "lambda": p.lam,
             "blocks": [list(block) for block in design.blocks]}
    assert design_to_json(design) == json.dumps(lists)
    assert design_to_json(design) == json.dumps(_json_dict(design, design.blocks))


def test_json_lines_match_design_to_json_across_designs():
    # C_7 designs repeat blocks, the Fano plane and the quadruple system change
    # the parameters mid-stream, and k = 1 formats one point per block
    from steinerkit.designs import _json_lines
    from steinerkit.kramer_mesner import search_design
    from steinerkit.perms import Permutation, PermutationGroup

    c7 = PermutationGroup([Permutation([(i + 1) % 7 for i in range(7)])])
    designs = search_design(c7, 2, 3, 2) + [fano_plane(), construct_boolean(3)]
    designs += [fano_plane(), complete_design(4, 1, 1)]
    assert list(_json_lines(designs)) == list(map(design_to_json, designs))
    assert list(_json_lines([])) == []


def test_json_errors_carry_positions():
    with pytest.raises(ValueError, match="missing key"):
        design_from_json('{"t":2,"v":7,"k":3,"blocks":[]}')
    with pytest.raises(ValueError, match=r"blocks\[0\]\[2\]"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,1,9]]}')
    with pytest.raises(ValueError, match="strictly increasing"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,2,1]]}')
    with pytest.raises(ValueError, match="sorted"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[1,2,3],[0,1,2]]}')
    with pytest.raises(ValueError, match=r"design json: blocks\[1\] must be an array"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,1,2],"345"]}')
    with pytest.raises(ValueError, match=r"design json: blocks\[1\]\[0\] must be an integer"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,1,2],[false,1,3]]}')
    with pytest.raises(ValueError, match="design json: 'v' must be an integer, got True"):
        design_from_json('{"t":2,"v":true,"k":3,"lambda":1,"blocks":[]}')
    with pytest.raises(ValueError, match="design json"):
        design_from_json("not json")


@st.composite
def design_cases(draw):
    v = draw(st.integers(1, 12))
    t = draw(st.integers(1, v))
    k = draw(st.integers(t, v))
    lam = draw(st.integers(1, 3))
    ksets = list(combinations(range(v), k))
    kind = draw(st.sampled_from(["subset", "complete", "complete-less-one"]))
    if kind == "subset":
        picked = draw(st.lists(st.sampled_from(ksets), unique=True, max_size=40))
    elif kind == "complete":
        picked = ksets  # every count is C(v-t, k-t), right or wrong lambda
    else:
        dropped = draw(st.sampled_from(ksets))
        picked = [block for block in ksets if block != dropped]
    return Design(DesignParameters(t, v, k, lam), picked)


@settings(max_examples=100, deadline=None)
@given(design_cases())
def test_verify_matches_the_dict_oracle(design):
    assert verify(design) == reference_verify(design)


@st.composite
def block_lists(draw):
    """Valid sorted k-subsets, each possibly broken in one way."""
    v = draw(st.integers(1, 9))
    k = draw(st.integers(1, v))
    blocks = []
    for _ in range(draw(st.integers(0, 8))):
        block = sorted(draw(st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)))
        fault = draw(st.sampled_from(["none", "none", "order", "point", "short", "long"]))
        j = draw(st.integers(0, k - 1))
        if fault == "order" and k > 1:
            block[j], block[j - 1] = block[j - 1], block[j]
        elif fault == "point":
            block[j] = draw(st.sampled_from(["a", 1.0, None, -1, v, 2**70]))
        elif fault == "short":
            del block[j]
        elif fault == "long":
            block.insert(j, draw(st.integers(-1, v)))
        blocks.append(block)
    if blocks and draw(st.booleans()):
        blocks.insert(draw(st.integers(0, len(blocks))), draw(st.sampled_from(blocks)))
    return DesignParameters(1, v, k, 1), blocks


@settings(max_examples=100, deadline=None)
@given(block_lists())
def test_design_matches_the_per_point_oracle(case):
    params, blocks = case
    try:
        expected = reference_canon(params, blocks)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            Design(params, blocks)
        assert str(raised.value) == str(exc)
    else:
        assert Design(params, blocks).blocks == expected


def test_design_refuses_bool_points():
    # bool is an int subclass; a point must be an int proper
    with pytest.raises(ValueError, match=r"blocks\[0\]\[0\]=False out of point range"):
        Design(DesignParameters(1, 3, 2, 1), [(False, True)])


@pytest.mark.parametrize("lam, witness", [(1, ((0, 1), 255)), (255, ((0, 2), 1))])
def test_verify_255_covers_fit_the_byte_counters(lam, witness):
    design = Design(DesignParameters(2, 258, 3, lam), [(0, 1, x) for x in range(2, 257)])
    report = verify(design)
    assert report == VerificationReport(None, witness)
    assert report == reference_verify(design)


@pytest.mark.parametrize("lam, witness", [(1, ((0, 1), 256)), (256, ((0, 2), 1))])
def test_verify_256_covers_widen_the_counters(lam, witness):
    design = Design(DesignParameters(2, 258, 3, lam), [(0, 1, x) for x in range(2, 258)])
    report = verify(design)
    assert report == VerificationReport(None, witness)
    assert report == reference_verify(design)


def test_verify_complete_design_above_255_covers():
    assert verify(complete_design(14, 6, 2)) == VerificationReport(495, None)


def test_verify_memory_is_the_counters():
    design = construct_boolean(6)
    tracemalloc.start()
    try:
        verify(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * comb(64, 3) + 16384


def test_design_from_json_dict_builds_no_block_tuples():
    data = json.loads(design_to_json(construct_boolean(6)))
    b, k = len(data["blocks"]), data["k"]
    tracemalloc.start()
    try:
        design = design_from_json_dict(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.b == b
    # the flat point list plus the k columns; a tuple per block would exceed it
    assert peak < sys.getsizeof([0] * (b * k)) + k * sys.getsizeof([0] * b) + 16384


@pytest.fixture(scope="module")
def boolean7():
    return construct_boolean(7)


def _rows_bytes(rows):
    return sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))


def test_design_from_json_holds_the_rows_and_a_slice_of_columns(boolean7):
    text = design_to_json(boolean7)
    k, b = boolean7.params.k, boolean7.b
    rows = _rows_bytes(json.loads(text)["blocks"])  # the decoder's lists
    tracemalloc.start()
    try:
        design = design_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design == boolean7
    # past the rows: one slice's row pointers, points and columns, and the
    # columns' growth; holding every column beside the rows costs more
    slices = 4 * k * _SLICE * 8
    assert slices < k * sys.getsizeof([0] * b)
    assert peak < rows + slices


def test_derived_holds_its_rows_and_a_slice_of_columns(boolean7, monkeypatch):
    # slices short enough that the 2667 rows of the derived design span six
    monkeypatch.setattr(designs, "_SLICE", 512)
    tracemalloc.start()
    try:
        sub = derived(boolean7, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sub.b == comb(127, 2) // 3 and verify(sub).covered_lambda == 1
    k, b = sub.params.k, sub.b
    rows = _rows_bytes(list(zip(*sub.columns)))
    columns = k * sys.getsizeof([0] * b)
    # derived hands its own columns on; past them and the rows, one slice's
    # row pointers, points and columns, and the columns' growth.  Released
    # rows of three points stay on the interpreter's free list for tuples
    # (2000 at most), which tracemalloc still counts
    slices = 4 * k * 512 * 8
    free_tuples = 2000 * sys.getsizeof((0, 0, 0))
    assert peak < rows + columns + slices + free_tuples


def test_checked_columns_takes_over_only_a_released_list_past_one_slice(monkeypatch):
    monkeypatch.setattr(designs, "_SLICE", 4)
    params = DesignParameters(2, 8, 3, 6)
    blocks = list(combinations(range(8), 3))  # 56 rows, 14 slices
    expected = [list(column) for column in zip(*blocks)]
    kept = list(blocks)
    assert designs._checked_columns(params, kept) == (expected, True)
    assert kept == blocks  # a caller's list, as km-search's orbits
    released = list(blocks)
    columns, in_order = designs._checked_columns(params, released, True)
    assert (columns, in_order) == (expected, True) and columns[0] is released
    one = blocks[:3]
    released = list(one)
    columns, _ = designs._checked_columns(params, released, True)
    assert columns == [list(column) for column in zip(*one)] and released == one


def test_design_from_lists_tuples_a_mix_or_an_iterator_is_one_design():
    params = DesignParameters(2, 6, 3, 4)
    rows = list(combinations(range(6), 3))
    mixed = [list(row) if i % 2 else row for i, row in enumerate(rows)]
    forms = [
        rows,
        list(map(list, rows)),
        mixed,
        mixed[::-1],  # out of order: the sort compares a list with a tuple
        tuple(rows),
        combinations(range(6), 3),
    ]
    designs = [Design(params, form) for form in forms]
    assert all(design == designs[0] for design in designs)
    assert len(set(map(hash, designs))) == 1
    assert designs[0].blocks == tuple(rows) and designs[0].b == 20
