"""Counter-addressed RNG: replay identity, stream quality, key separation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress.determinism import (
    _BLOCK,
    StreamKey,
    _splitmix64,
    derive_key,
    gaussian,
    permutation,
    uniform,
)


def test_same_tuple_same_key():
    a = derive_key("corruption", "cora", "edge_delete", 3, 17)
    b = derive_key("corruption", "cora", "edge_delete", 3, 17)
    assert a == b


def test_any_component_changes_key():
    base = derive_key("corruption", "cora", "edge_delete", 3, 17)
    assert derive_key("ood", "cora", "edge_delete", 3, 17) != base
    assert derive_key("corruption", "corb", "edge_delete", 3, 17) != base
    assert derive_key("corruption", "cora", "feature_noise", 3, 17) != base
    assert derive_key("corruption", "cora", "edge_delete", 4, 17) != base
    assert derive_key("corruption", "cora", "edge_delete", 3, 18) != base


def test_no_separator_collision():
    # the field separator prevents ("ab", "c") colliding with ("a", "bc")
    assert derive_key("ab", "c", "op", 0, 0) != derive_key("a", "bc", "op", 0, 0)


def test_key_collision_scan():
    keys = {
        derive_key("axis", f"ds{d}", f"op{o}", s, seed).key
        for d in range(10) for o in range(10) for s in range(10) for seed in range(100)
    }
    assert len(keys) == 100_000


def test_uniform_replay_and_range():
    k = derive_key("a", "b", "c", 0, 0)
    idx = np.arange(10_000, dtype=np.int64)
    u1 = uniform(k, idx)
    u2 = uniform(k, idx)
    assert np.array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0


def test_uniform_scalar_matches_vector():
    k = derive_key("a", "b", "c", 1, 2)
    vec = uniform(k, np.arange(50, dtype=np.int64))
    for i in range(50):
        assert uniform(k, i) == vec[i]


def test_gaussian_replay():
    k = derive_key("g", "g", "g", 0, 0)
    assert gaussian(k, 7) == gaussian(k, 7)


def test_uniform_moments():
    k = derive_key("mc", "uniform", "mean", 0, 0)
    u = uniform(k, np.arange(1_000_000, dtype=np.int64))
    # 3 sigma/sqrt(n) for a U(0,1): 3 * 0.2887 / 1000 ~ 0.00087; spec bound 0.002
    assert abs(u.mean() - 0.5) < 0.002


def test_gaussian_moments():
    k = derive_key("mc", "gauss", "moments", 0, 0)
    g = gaussian(k, np.arange(1_000_000, dtype=np.int64))
    assert abs(g.mean()) < 0.004
    assert abs(g.var() - 1.0) < 0.006


def test_serial_correlation():
    k = derive_key("mc", "uniform", "serial", 0, 0)
    u = uniform(k, np.arange(1_000_001, dtype=np.int64))
    r = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(r) < 0.01


def test_distinct_keys_distinct_streams():
    k1 = derive_key("a", "b", "c", 0, 0)
    k2 = derive_key("a", "b", "c", 0, 1)
    idx = np.arange(1000, dtype=np.int64)
    assert not np.array_equal(uniform(k1, idx), uniform(k2, idx))


def test_permutation_is_permutation_and_deterministic():
    k = derive_key("p", "p", "p", 0, 0)
    p1 = permutation(k, 257)
    p2 = permutation(k, 257)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(257))


def test_chunked_evaluation_matches_whole():
    # parallel workers draw disjoint index ranges; the result must not depend
    # on how the range was chunked
    k = derive_key("chunk", "x", "y", 0, 0)
    whole = uniform(k, np.arange(1000, dtype=np.int64))
    parts = [uniform(k, np.arange(s, s + 100, dtype=np.int64)) for s in range(0, 1000, 100)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_uniform_matches_scalar_splitmix64_across_blocks():
    # draws are computed a block of indices at a time: indices on both sides of
    # block edges, at the top of the uint64 range and in a 2-D shape match the
    # scalar definition, the top 53 bits of splitmix64(key + (i + 1) * gamma)
    k = derive_key("blocks", "x", "y", 0, 0)
    idx = np.array([0, 1, 65535, 65536, 65537, 131072, 2**63, 2**64 - 1], dtype=np.uint64)
    want = [(_splitmix64(k.key + (i + 1) * 0x9E3779B97F4A7C15) >> 11) / 2**53
            for i in idx.tolist()]
    assert uniform(k, idx).tolist() == want
    assert uniform(k, idx.reshape(2, 4)).tolist() == [want[:4], want[4:]]
    assert uniform(k, np.arange(200_000))[[65535, 65536, 131072]].tolist() == [want[2], want[3], want[5]]


def test_uniform_holds_no_full_size_temporary():
    # one float64 per draw is the result; the splitmix64 steps run in place
    k = derive_key("mem", "x", "y", 0, 0)
    idx = np.arange(1_000_000, dtype=np.int64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = uniform(k, idx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert u.nbytes == 8 * len(idx)
    assert peak <= 10 * len(idx)  # the result plus one block of scratch


@pytest.mark.parametrize("n", [1, 7, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 13])
def test_gaussian_matches_the_unblocked_formula(n):
    # gaussian is computed a block of indices at a time and in place; each
    # draw keeps the bits of the whole-array Box-Muller formula
    k = derive_key("gauss", "x", "y", 0, 0)
    for idx in (np.arange(n, dtype=np.int64), np.arange(2**63 - n // 2, 2**63 + n - n // 2,
                                                         dtype=np.uint64)):
        sub = idx.astype(np.uint64) * np.uint64(2)
        want = (np.sqrt(-2.0 * np.log1p(-uniform(k, sub)))
                * np.cos(2.0 * np.pi * uniform(k, sub + np.uint64(1))))
        assert gaussian(k, idx).tobytes() == want.tobytes()
        assert gaussian(k, int(idx[-1])) == float(want[-1])  # a scalar index gives a float
    flat = gaussian(k, np.arange(n, dtype=np.int64))
    assert gaussian(k, np.arange(n).reshape(1, n, 1)).tobytes() == flat.tobytes()


def test_gaussian_holds_no_full_size_temporary():
    # one float64 per draw is the result; Box-Muller runs a block at a time
    k = derive_key("mem", "x", "y", 0, 0)
    idx = np.arange(1_000_000, dtype=np.int64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = gaussian(k, idx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.nbytes == 8 * len(idx)
    assert peak <= 10 * len(idx)  # the result plus a few blocks of scratch


def test_stream_key_validates_range():
    with pytest.raises(ValueError):
        StreamKey(-1)
    with pytest.raises(ValueError):
        StreamKey(1 << 64)


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=200)
def test_uniform_in_unit_interval(key, index):
    u = uniform(StreamKey(key), index)
    assert 0.0 <= u < 1.0


@given(st.text(max_size=20), st.text(max_size=20), st.integers(0, 100), st.integers(0, 2**31))
@settings(max_examples=100)
def test_derive_key_total(axis, dataset, severity, seed):
    key = derive_key(axis, dataset, "op", severity, seed)
    assert 0 <= key.key < 2**64
