"""Golden values of the counter-mode generator.

Every seeded output of the package flows through ``Rng``, so a change to
how a draw is computed must keep each of these bits.  The values were taken
from the straightforward implementation (one ``raw`` call per Box-Muller
half, counters built by ``np.arange`` arithmetic).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahabench.rng import Rng, derive_seed, derive_seeds


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_a_mixed_call_sequence_reproduces_its_golden_values():
    rng = Rng(12345)
    assert rng.raw(3).tolist() == [2454886589211414944, 3778200017661327597, 2205171434679333405]
    assert [float(v).hex() for v in rng.uniform(3)] == [
        "0x1.68b073f2e1fa0p-3", "0x1.0385cdb9301afp-1", "0x1.591f956b64cfcp-2",
    ]
    assert [float(v).hex() for v in rng.normal(5)] == [
        "0x1.6102d0a50e3b6p+0", "0x1.09148c4af791bp-1", "-0x1.c4f7a4f10dd36p-1",
        "-0x1.83d8bf9debe6ap+0", "0x1.3051b00dbf2aap+0",
    ]
    assert rng.integers(-3, 7, 8).tolist() == [5, 6, 7, 1, 5, 2, 5, 1]
    assert rng.permutation(10).tolist() == [4, 8, 3, 0, 5, 6, 7, 9, 2, 1]
    assert rng.below(1000) == 176
    # 3 raw, 3 uniform, 3 Box-Muller pairs, 8 integers, 9 swaps, 1 below
    assert rng._counter == 30


def test_long_draws_near_the_top_of_the_seed_range_reproduce_their_hashes():
    rng = Rng(2**64 - 1)
    raw = rng.raw(1000)
    assert raw.dtype == np.uint64
    assert sha256(raw) == "f63dd15ba646356d869ec9010c9f6fec094ee5cecd902e47b1f17276d1710116"
    normals = rng.normal((7, 9))
    assert normals.shape == (7, 9)
    assert sha256(normals) == "41c25c6fa2ae37efc85536e5c659558389c097dd2c18a4a8d211de1db37adc08"
    assert float(rng.normal(())).hex() == "-0x1.c04a90516a1aap-2"
    assert rng.normal(0).shape == (0,)
    assert sha256(rng.uniform(999)) == (
        "8b8f8912199ff4c27b2d471e6e2a6acf05538b45cacecef5b88273b8771462f6"
    )
    assert rng._counter == 2065


@pytest.mark.parametrize("count", [1, 2, 7, 8])
def test_normal_consumes_two_raw_outputs_per_pair(count):
    rng = Rng(9)
    rng.normal(count)
    assert rng._counter == 2 * ((count + 1) // 2)


@pytest.mark.parametrize("streams", [1, 2, 5])
def test_row_i_of_a_seed_array_draw_is_the_draw_of_seed_i(streams):
    # seeds across the whole uint64 range, and draws of odd and even sizes
    # in sequence, so that each row must also keep its own stream's counter
    seeds = [2**64 - 1, 0, 12345, 2**63, 987654321987654321][:streams]
    block = Rng(np.array(seeds, dtype=np.uint64))
    alone = [Rng(seed) for seed in seeds]
    for draw, size in [("normal", 3), ("uniform", 4), ("normal", (2, 3)), ("uniform", 1),
                       ("normal", 1), ("normal", 4), ("uniform", 7)]:
        rows = getattr(block, draw)(size)
        assert rows.shape == (streams, *np.atleast_1d(size))
        for row, rng in zip(rows, alone):
            assert row.tobytes() == getattr(rng, draw)(size).tobytes(), (draw, size)
    # every stream keeps a counter of its own, at its scalar stream's count
    assert block._counter.tolist() == [rng._counter for rng in alone]


@pytest.mark.parametrize("rows", [
    np.array([True, False, True, False]), np.array([False, False, False, True]),
    np.ones(4, dtype=bool), np.array([1, 2]), np.array([3, 0]), np.array([], dtype=np.intp),
], ids=str)
def test_a_draw_for_some_rows_advances_those_rows_alone(rows):
    # after a draw for a subset (a mask, or indices in any order), each
    # row's next draw, alone or with all rows, is its scalar stream's next draw
    seeds = [7, 2**64 - 1, 0, 123456789]
    block = Rng(np.array(seeds, dtype=np.uint64))
    alone = [Rng(seed) for seed in seeds]
    block.normal(3)
    for rng in alone:
        rng.normal(3)
    picked = np.arange(4)[rows]
    drawn = block.normal((2, 3), rows=rows)
    assert drawn.shape == (len(picked), 2, 3)
    for row, s in zip(drawn, picked):
        assert row.tobytes() == alone[s].normal((2, 3)).tobytes()
    assert block._counter.tolist() == [rng._counter for rng in alone]
    for row, rng in zip(block.normal(5), alone):
        assert row.tobytes() == rng.normal(5).tobytes()
    for row, rng in zip(block.raw(3), alone):
        assert row.tolist() == rng.raw(3).tolist()


def test_rows_need_a_stack_of_seeds():
    with pytest.raises(ValueError):
        Rng(3).normal(2, rows=np.array([0]))


# Python ints on both sides of the uint64 range, as the scalar form masks them
INTS = st.integers(-(2**65), 2**65)
TAG_ROWS = st.one_of(st.text(max_size=8), INTS,
                     st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3))


@settings(max_examples=300, deadline=None)
@given(seeds=st.one_of(INTS, st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3)),
       tags=st.lists(TAG_ROWS, max_size=4))
def test_the_array_form_of_derive_seed_has_the_bits_of_the_scalar_form(seeds, tags):
    # lists stand for uint64 arrays of three elements, broadcast with the
    # int seeds and tags; a string tag is one tag for every element
    args = [seeds, *tags]
    got = derive_seeds(*(np.array(v, dtype=np.uint64) if isinstance(v, list) else v for v in args))
    assert got.dtype == np.uint64
    if any(isinstance(v, list) for v in args):
        assert got.tolist() == [derive_seed(*(v[i] if isinstance(v, list) else v for v in args))
                                for i in range(3)]
    else:
        assert got.shape == () and int(got) == derive_seed(seeds, *tags)
