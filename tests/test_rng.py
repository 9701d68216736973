import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvhomog import rng


def test_normals_repeatable():
    a = rng.normals(42, np.arange(100), step=7, ncomp=3)
    b = rng.normals(42, np.arange(100), step=7, ncomp=3)
    assert np.array_equal(a, b)
    assert a.shape == (100, 3)


def test_different_seeds_streams_steps_differ():
    base = rng.normals(1, np.arange(50), 0, 2)
    assert not np.array_equal(base, rng.normals(2, np.arange(50), 0, 2))
    assert not np.array_equal(base, rng.normals(1, np.arange(50) + 50, 0, 2))
    assert not np.array_equal(base, rng.normals(1, np.arange(50), 1, 2))


def test_chunk_invariance():
    streams = np.arange(257)
    whole = rng.normals(9, streams, 4, 2)
    parts = np.concatenate([rng.normals(9, streams[:100], 4, 2),
                            rng.normals(9, streams[100:190], 4, 2),
                            rng.normals(9, streams[190:], 4, 2)])
    assert np.array_equal(whole, parts)


def test_permuting_streams_permutes_draws():
    streams = np.arange(64)
    perm = np.random.default_rng(0).permutation(64)
    assert np.array_equal(rng.normals(5, streams[perm], 2, 3),
                          rng.normals(5, streams, 2, 3)[perm])


def test_normal_moments():
    x = rng.normals(3, np.arange(100000), 0, 2).ravel()
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02
    assert abs(np.mean(x ** 3)) < 0.05
    assert np.all(np.isfinite(x))


def test_derive_labels_separate_domains():
    assert rng.derive(0, "alpha") != rng.derive(0, "beta")
    assert rng.derive(0, "alpha") == rng.derive(0, "alpha")
    assert rng.derive(1, "alpha") != rng.derive(0, "alpha")


@given(seed=st.integers(min_value=0, max_value=2 ** 62),
       step=st.integers(min_value=0, max_value=2 ** 30))
def test_draws_pure_in_key(seed, step):
    streams = np.arange(8)
    a = rng.normals(seed, streams, step, 2)
    b = rng.normals(seed, streams, step, 2)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def _splitmix(z):
    """SplitMix64 finalizer written out of place, as first specified."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_formula_hash(seed, streams, counters):
    """One hash of (seed, stream, counter), shape (len(streams), len(counters))."""
    with np.errstate(over="ignore"):
        s = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
        return _splitmix(_splitmix(_splitmix(np.uint64(seed)) ^ s) ^ counters[None, :])


def _step_counters(step, ncomp):
    with np.errstate(over="ignore"):
        return np.uint64(step) * np.uint64(ncomp) + np.arange(ncomp, dtype=np.uint64)


def _seed_formula_normals(seed, streams, step, ncomp):
    """The draws as specified: Box-Muller on one tagged word per counter pair.

    Counter c belongs to pair c // 2, which is hashed as the counter under
    the normal draws' tag, one round.  The word's high half gives
    u1 = (hi + 1) 2^-32 and its low half u2 = lo 2^-32.  With
    r = sqrt(-2 log u1), t = tan(pi (u2 - 1/2)) and s = r / (t^2 + 1), the
    even counter takes r cos(2 pi u2) = r - 2s and the odd one
    r sin(2 pi u2) = (-2t) s.
    """
    c = _step_counters(step, ncomp)
    h = _seed_formula_hash(seed, streams, (c // np.uint64(2)) ^ rng._TAG_NORMAL)
    u1 = ((h >> np.uint64(32)).astype(np.float64) + 1.0) * 2.0 ** -32
    u2 = (h & np.uint64(0xFFFFFFFF)).astype(np.float64) * 2.0 ** -32
    r = np.sqrt(-2.0 * np.log(u1))
    t = np.tan(np.pi * (u2 - 0.5))
    s = r / (t * t + 1.0)
    return np.where(c % np.uint64(2) == 0, r - 2.0 * s, (-2.0 * t) * s)


_STEPS = st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                   st.integers(min_value=2 ** 32 - 8, max_value=2 ** 32 + 8))


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       step=_STEPS,
       ncomp=st.integers(min_value=1, max_value=3),
       lo=st.integers(min_value=0, max_value=90),
       width=st.integers(min_value=0, max_value=40),
       perm_seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cached_keys_reproduce_normals(seed, step, ncomp, lo, width, perm_seed):
    streams = np.random.default_rng(perm_seed).permutation(97).astype(np.uint64)
    keys = rng.stream_keys(seed, streams)
    hi = min(lo + width, 97)
    chunk = rng.normal_block(keys[lo:hi], step, 1, ncomp)[0]
    assert chunk.shape == (hi - lo, ncomp)
    assert np.array_equal(chunk, rng.normals(seed, streams[lo:hi], step, ncomp))
    assert np.array_equal(chunk, _seed_formula_normals(seed, streams[lo:hi], step, ncomp))


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       step=_STEPS,
       steps=st.integers(min_value=1, max_value=9),
       ncomp=st.integers(min_value=1, max_value=3),
       n=st.integers(min_value=0, max_value=40),
       perm_seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_block_rows_equal_per_step_draws(seed, step, steps, ncomp, n, perm_seed):
    streams = np.random.default_rng(perm_seed).permutation(max(n, 1))[:n].astype(np.uint64)
    keys = rng.stream_keys(seed, streams)
    block = rng.normal_block(keys, step, steps, ncomp)
    assert block.shape == (steps, n, ncomp)
    for j in range(steps):
        assert np.array_equal(block[j], rng.normal_block(keys, step + j, 1, ncomp)[0])
        assert np.array_equal(block[j], _seed_formula_normals(seed, streams, step + j, ncomp))


@pytest.mark.parametrize("block", [1, 4, 7, 10, 23, 40])
@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_blocks_cover_a_run_that_they_do_not_divide(block, ncomp):
    n_steps, first = 23, 2 ** 32 - 11
    streams = np.arange(50, dtype=np.uint64)[::-1]
    keys = rng.stream_keys(2026, streams)
    drawn = np.concatenate([rng.normal_block(keys, first + k, min(block, n_steps - k), ncomp)
                            for k in range(0, n_steps, block)])
    per_step = np.stack([_seed_formula_normals(2026, streams, first + k, ncomp)
                         for k in range(n_steps)])
    assert np.array_equal(drawn, per_step)


@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_blocks_into_owned_buffers_equal_allocating_draws(ncomp):
    # the driver's and the ring's reuse: one out and one scratch for every
    # block, the last block shorter, the buffers dirty from the block before
    n, block, n_steps, first = 70, 9, 40, 2 ** 33 - 20
    keys = rng.stream_keys(77, np.arange(n, dtype=np.uint64)[::-1])
    out = np.full((block, n, ncomp), np.nan)
    scratch = np.full(rng.scratch_words(block, n, ncomp), 0xFFFF, dtype=np.uint64)
    for k in range(0, n_steps, block):
        steps = min(block, n_steps - k)
        got = rng.normal_block(keys, first + k, steps, ncomp, out[:steps], scratch)
        want = rng.normal_block(keys, first + k, steps, ncomp)
        assert np.shares_memory(got, out)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


_PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def _wave_error(y, cosine):
    """Largest |_wave_2pi(y) - exact| against an extended-precision reference."""
    y = np.asarray(y, dtype=float)
    exact = (np.cos if cosine else np.sin)(2 * _PI_LONG * y.astype(np.longdouble))
    return float(np.abs(rng._wave_2pi(y, cosine).astype(np.longdouble) - exact).max())


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="longdouble is plain double here")
def test_wave_is_as_accurate_as_libm_on_the_unit_cell():
    # libm on the rounded angle 2 pi y reads 6.4e-16 to 6.9e-16 on these
    grid = (np.arange(1 << 17) + 0.5) / (1 << 17)
    lattice = np.random.default_rng(0).integers(0, 2 ** 53, 1 << 17) * 2.0 ** -53
    for y in (grid, lattice):
        for cosine in (False, True):
            assert _wave_error(y, cosine) <= 6e-16


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="longdouble is plain double here")
def test_wave_stays_accurate_one_period_over():
    # the seam check evaluates the fast drift at y + 1
    y = 1.0 + (np.arange(1 << 14) + 0.5) / (1 << 14)
    assert _wave_error(y, False) <= 2e-15
    assert _wave_error(y, True) <= 2e-15


def test_wave_edge_values():
    assert rng._wave_2pi(np.zeros(1), cosine=True)[0] == 1.0
    sine = rng._wave_2pi(np.zeros(1))[0]
    assert np.isfinite(sine) and abs(sine) < 1e-15


def test_wave_of_a_strided_column_equals_its_contiguous_copy():
    y = np.random.default_rng(1).random((500, 3))
    for cosine in (False, True):
        strided = rng._wave_2pi(y[:, 1], cosine)
        contiguous = rng._wave_2pi(np.ascontiguousarray(y[:, 1]), cosine)
        assert np.array_equal(strided.view(np.int64), contiguous.view(np.int64))


@pytest.mark.parametrize("ncomp", [1, 2, 3, 4])
@pytest.mark.parametrize("step, steps", [(6, 4), (6, 5), (7, 4), (7, 5), (0, 1), (9, 1)])
def test_every_block_layout_equals_the_formula(ncomp, step, steps):
    # pairs drawn straight into the block (even widths) and through scratch
    # (odd widths), from and to either half of a pair
    n = 33
    streams = np.arange(n, dtype=np.uint64)[::-1]
    keys = rng.stream_keys(314, streams)
    out = np.full((steps, n, ncomp), np.nan)
    scratch = np.full(rng.scratch_words(steps, n, ncomp), 0xFFFF, dtype=np.uint64)
    got = rng.normal_block(keys, step, steps, ncomp, out, scratch)
    want = np.stack([_seed_formula_normals(314, streams, step + j, ncomp) for j in range(steps)])
    assert got.tobytes() == want.tobytes()


def _drawn_in_odd_blocks(ncomp, n, first, n_steps, block=131):
    """Normals of steps first.. in blocks of ``block`` steps, (n_steps, n, ncomp)."""
    keys = rng.stream_keys(2027, np.arange(n, dtype=np.uint64))
    return np.concatenate([rng.normal_block(keys, first + k, min(block, n_steps - k), ncomp)
                           for k in range(0, n_steps, block)])


def _pair_halves(ncomp):
    """The two normals of 10^6 pairs, drawn in blocks that start and end
    inside a pair: width 1 pairs steps (2k, 2k+1), width 2 the components."""
    if ncomp == 1:
        x = _drawn_in_odd_blocks(1, 2000, 131, 1001)[1:, :, 0]   # from step 132
        pairs = x.reshape(500, 2, 2000)
        return pairs[:, 0].ravel(), pairs[:, 1].ravel()
    x = _drawn_in_odd_blocks(2, 2000, 131, 500)
    return x[..., 0].ravel(), x[..., 1].ravel()


@pytest.mark.parametrize("ncomp", [1, 2])
def test_paired_normals_are_standard_and_uncorrelated(ncomp):
    from scipy import stats

    first, second = _pair_halves(ncomp)
    pairs = len(first)
    assert pairs == 10 ** 6
    x = np.concatenate([first, second])
    n = len(x)
    # five standard errors of each moment of N(0, 1) at n draws
    assert abs(x.mean()) < 5 / np.sqrt(n)
    assert abs(np.mean(x ** 2) - 1.0) < 5 * np.sqrt(2 / n)
    assert abs(np.mean(x ** 3)) < 5 * np.sqrt(15 / n)
    assert abs(np.mean(x ** 4) - 3.0) < 5 * np.sqrt(96 / n)
    assert abs(np.corrcoef(first, second)[0, 1]) < 5 / np.sqrt(pairs)
    assert stats.kstest(x, "norm").pvalue > 1e-3


def _peak_bytes(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("steps, n", [(32, 1000), (131, 250), (8, 4000)])
def test_a_block_into_owned_buffers_allocates_no_block_sized_memory(steps, n):
    # the counter broadcast took numpy's buffered path at the lower rungs'
    # shapes: 129 kB per call; the block itself is 256 kB
    keys = rng.stream_keys(5, np.arange(n, dtype=np.uint64))
    rows = steps // 2 + 1
    h = np.empty((rows, n, 1), dtype=np.uint64)
    assert _peak_bytes(lambda: rng._keyed_counters(keys, 131, rows, 1, h)) < 4096
    out = np.empty((steps, n, 1))
    scratch = np.empty(rng.scratch_words(steps, n, 1), dtype=np.uint64)
    for step in (steps, steps + 1):
        peak = _peak_bytes(lambda: rng.normal_block(keys, step, steps, 1, out, scratch))
        assert peak < out.nbytes // 3


def test_a_two_pair_block_into_owned_buffers_allocates_no_block_sized_memory():
    # width 4: two pairs per step, so the counters have two components; one
    # xor over both took numpy's buffered path, 130 kB per call
    steps, n, width = 8, 4000, 4
    keys = rng.stream_keys(5, np.arange(n, dtype=np.uint64))
    h = np.empty((steps, n, width // 2), dtype=np.uint64)
    assert _peak_bytes(lambda: rng._keyed_counters(keys, 131, steps, width // 2, h)) < 4096
    out = np.empty((steps, n, width))
    scratch = np.empty(rng.scratch_words(steps, n, width), dtype=np.uint64)
    peak = _peak_bytes(lambda: rng.normal_block(keys, steps, steps, width, out, scratch))
    assert peak < out.nbytes // 3
