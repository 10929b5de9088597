import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from steinerkit.designs import (
    Design,
    DesignParameters,
    blocks_through,
    complete_design,
    construct_boolean,
    derived,
    design_from_json,
    design_to_json,
    fano_plane,
    lambda_s,
    verify,
)
from steinerkit.errors import CapacityError


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
    assert params.nontrivial()
    assert not DesignParameters(3, 8, 8, 1).nontrivial()


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


def test_json_errors_carry_positions():
    with pytest.raises(ValueError, match="missing key"):
        design_from_json('{"t":2,"v":7,"k":3,"blocks":[]}')
    with pytest.raises(ValueError, match=r"blocks\[0\]\[2\]"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,1,9]]}')
    with pytest.raises(ValueError, match="strictly increasing"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[0,2,1]]}')
    with pytest.raises(ValueError, match="sorted"):
        design_from_json('{"t":2,"v":7,"k":3,"lambda":1,"blocks":[[1,2,3],[0,1,2]]}')
    with pytest.raises(ValueError, match="design json"):
        design_from_json("not json")
