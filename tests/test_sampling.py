"""The LCG stream is a documented contract: pin its exact values."""

from pathlib import Path

import numpy as np
import pytest

from viviani import Lcg64, sample_points
from viviani.cli import run_cli

MULT, INC, MASK = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
TRAPEZOID = str(Path(__file__).parent.parent / "fixtures" / "trapezoid.json")


def _one_step_points(dimension, count, seed, lo, hi):
    gen = Lcg64(seed)
    flat = [gen.uniform(lo, hi) for _ in range(count * dimension)]
    return np.array(flat, dtype=float).reshape(count, dimension)


def test_first_draws_match_definition():
    mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    state = 7
    expected = []
    for _ in range(4):
        state = (mult * state + inc) & mask
        expected.append((state >> 11) / float(1 << 53))
    gen = Lcg64(7)
    got = [gen.next_float() for _ in range(4)]
    assert got == expected


def test_draws_in_unit_interval():
    gen = Lcg64(123456789)
    vals = [gen.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    # crude uniformity: the mean of 1000 uniforms is near 1/2
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_point_major_order():
    pts = sample_points(3, 2, seed=42, lo=0.0, hi=1.0)
    gen = Lcg64(42)
    flat = [gen.uniform(0.0, 1.0) for _ in range(6)]
    assert pts.reshape(-1).tolist() == flat


def test_fixed_seed_reproducible():
    a = sample_points(2, 50, seed=7, lo=-1.0, hi=1.0)
    b = sample_points(2, 50, seed=7, lo=-1.0, hi=1.0)
    assert a.tolist() == b.tolist()


def test_box_mapping():
    pts = sample_points(2, 100, seed=3, lo=-5.0, hi=2.5)
    assert pts.min() >= -5.0
    assert pts.max() < 2.5


# The bulk sampler fills the stream by doubling, so its edges sit at powers
# of two of count * dimension.
@pytest.mark.parametrize("draws", [1, 2, 3, 1023, 1024, 1025, 4097])
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1, -1, 2**64 + 7,
                                  3 * 2**64])
def test_bulk_stream_matches_one_step_generator(draws, seed):
    for n in range(1, 9):
        count = -(-draws // n)
        for lo, hi in ((-1.5, 2.25), (-5, 2)):
            got = sample_points(n, count, seed, lo, hi)
            want = _one_step_points(n, count, seed, lo, hi)
            assert got.shape == (count, n)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def test_millionth_draw_matches_jump_ahead():
    # square-and-multiply over the affine map, independent of the sampler
    def jump(steps):
        a, c = 1, 0  # identity
        sa, sc = MULT, INC  # the map of 2^j steps
        while steps:
            if steps & 1:
                a, c = (sa * a) & MASK, (sa * c + sc) & MASK
            sa, sc = (sa * sa) & MASK, (sa * sc + sc) & MASK
            steps >>= 1
        return a, c

    seed = 2**63 + 5
    a, c = jump(10**6)
    state = (a * seed + c) & MASK
    pts = sample_points(1, 10**6, seed, 0.0, 1.0)
    assert pts[-1, 0] == (state >> 11) / float(1 << 53)


@pytest.mark.parametrize("n", [1, 3])
def test_zero_count_is_empty(n):
    assert sample_points(n, 0, seed=5, lo=-1.0, hi=1.0).shape == (0, n)


@pytest.mark.parametrize("count", [-1, -2])
def test_negative_count_rejected(count):
    with pytest.raises(ValueError):
        sample_points(2, count, seed=5, lo=-1.0, hi=1.0)


def test_cli_sample_golden(capsys):
    # the trapezoid is not Viviani, so its spread depends on every draw
    code = run_cli(["sample", TRAPEZOID, "--count", "100000", "--seed", "7",
                    "--box=-1,1"])
    assert code == 0
    assert capsys.readouterr().out == (
        "n=100000 min=4.683305390067774 max=6.472120064958199 "
        "spread=1.7888146748904248\n")
