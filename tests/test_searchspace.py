"""Box sampling determinism and bounds (ISSUE 1 spec)."""

import random

import pytest

from repro.core.searchspace import Box, paper_box


def test_paper_box_shape():
    box = paper_box(3)
    assert box.n_dims == 3
    assert box.lows == (20, 20, 20)
    assert box.highs == (1200, 1200, 1200)
    assert box.span(0) == 1180


def test_paper_box_sampling_is_deterministic_under_fixed_seed():
    samples_a = [paper_box(5).sample(random.Random(123)) for _ in range(1)]
    rng_b = random.Random(123)
    samples_b = [paper_box(5).sample(rng_b)]
    assert samples_a == samples_b

    rng1, rng2 = random.Random(7), random.Random(7)
    box = paper_box(3)
    seq1 = [box.sample(rng1) for _ in range(50)]
    seq2 = [box.sample(rng2) for _ in range(50)]
    assert seq1 == seq2
    # A different seed must give a different sequence.
    rng3 = random.Random(8)
    assert seq1 != [box.sample(rng3) for _ in range(50)]


def test_samples_stay_inside_bounds():
    box = Box((5, 100), (9, 110))
    rng = random.Random(0)
    for _ in range(200):
        sample = box.sample(rng)
        assert box.contains(sample)


@pytest.mark.parametrize(
    "box",
    [
        Box((7,), (7,)),
        Box((1, 1, 1), (64, 65, 1024)),
        Box((3, 5, 20), (3, 69, 1200)),
        Box((1, 9), (2**40, 9 + 2**40)),
    ],
    ids=["degenerate", "pow2", "degenerate-axis", "2**40"],
)
def test_sample_many_matches_randint_reference(box):
    for seed in range(20):
        for count in (0, 1, 5, 37):
            rng_a, rng_b = random.Random(seed), random.Random(seed)
            assert box.sample_many(rng_a, count) == [
                tuple(
                    rng_b.randint(lo, hi)
                    for lo, hi in zip(box.lows, box.highs)
                )
                for _ in range(count)
            ]
            assert rng_a.getstate() == rng_b.getstate()


def test_clamp_and_contains():
    box = Box((10, 10), (20, 20))
    assert box.clamp((5, 25)) == (10, 20)
    assert not box.contains((5, 15))
    assert not box.contains((15,))


def test_invalid_boxes_are_rejected():
    with pytest.raises(ValueError):
        Box((10,), (5,))
    with pytest.raises(ValueError):
        Box((0,), (5,))
    with pytest.raises(ValueError):
        Box((1, 2), (3,))
