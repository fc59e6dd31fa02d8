import numpy as np
import pytest

from robustkf import RandomStream, substream_seed


def test_same_seed_same_sequence():
    a, b = RandomStream(12345), RandomStream(12345)
    np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))
    np.testing.assert_array_equal(a.normals(50), b.normals(50))


def test_uniforms_strictly_inside_unit_interval():
    u = RandomStream(7).uniforms(100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_each_normal_consumes_two_uniforms():
    a = RandomStream(99)
    a.normals(3)
    tail = a.uniforms(4)
    b = RandomStream(99)
    b.uniforms(6)  # skip what the three normals consumed
    np.testing.assert_array_equal(b.uniforms(4), tail)


def test_normal_moments():
    z = RandomStream(2024).normals(200_000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.var(z)) - 1.0) < 0.02


def test_substreams_distinct_and_deterministic():
    seeds = [substream_seed(555, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds == [substream_seed(555, i) for i in range(1000)]
    a = RandomStream(substream_seed(555, 3))
    b = RandomStream(substream_seed(555, 4))
    assert not np.array_equal(a.uniforms(10), b.uniforms(10))


def test_block_generation_matches_sequential():
    a = RandomStream(31)
    block = a.uniforms(64)
    b = RandomStream(31)
    singles = np.concatenate([b.uniforms(1) for _ in range(64)])
    np.testing.assert_array_equal(block, singles)


def test_stream_over_seeds_draws_each_seeds_stream():
    seeds = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    batch = RandomStream(seeds)
    block = batch.uniforms(5)
    normals = batch.normals(3)
    assert block.shape == (4, 5) and normals.shape == (4, 3)
    for i, seed in enumerate(seeds):
        single = RandomStream(int(seed))
        np.testing.assert_array_equal(block[i], single.uniforms(5))
        np.testing.assert_array_equal(normals[i], single.normals(3))


def test_substream_seed_over_arrays():
    indices = np.arange(6)
    np.testing.assert_array_equal(
        substream_seed(-1, indices), [substream_seed(-1, i) for i in range(6)]
    )
    parents = substream_seed(2**64 + 5, indices)
    assert parents.dtype == np.uint64
    np.testing.assert_array_equal(
        substream_seed(parents, 2), [substream_seed(int(p), 2) for p in parents]
    )
    with pytest.raises(ValueError):
        substream_seed(1, np.array([0, -1]))
