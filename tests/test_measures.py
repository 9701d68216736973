import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvhomog import rng
from mvhomog.errors import ValidationError
from mvhomog.measures import (EmpiricalMeasure, MeasurePath, _sorted_sum, _w2_1d,
                              radial_moment, wasserstein2)

atoms_1d = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40)


@given(a=atoms_1d, b=atoms_1d)
def test_w2_symmetry_and_identity(a, b):
    ma, mb = EmpiricalMeasure(np.array(a)), EmpiricalMeasure(np.array(b))
    assert wasserstein2(ma, mb) == pytest.approx(wasserstein2(mb, ma), abs=1e-10)
    assert wasserstein2(ma, ma) <= 1e-10


@given(a=atoms_1d, b=atoms_1d, c=atoms_1d)
def test_w2_triangle_inequality(a, b, c):
    ma, mb, mc = (EmpiricalMeasure(np.array(v)) for v in (a, b, c))
    assert wasserstein2(ma, mc) <= wasserstein2(ma, mb) + wasserstein2(mb, mc) + 1e-10



_tied = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0]), st.floats(-50, 50))


@given(pairs=st.lists(st.tuples(_tied, _tied), min_size=1, max_size=60))
def test_w2_1d_sort_shortcut_equals_stable_argsort(pairs):
    # ties and signed zeros: a plain sort may order them differently from a
    # stable argsort, but the squared differences, and so the bits, agree
    xa, xb = (np.array(v) for v in zip(*pairs))
    by_argsort = np.mean((xa[np.argsort(xa, kind="stable")]
                          - xb[np.argsort(xb, kind="stable")]) ** 2)
    assert _w2_1d(xa, xb) == float(by_argsort)
    assert _w2_1d(xa, xb) == _w2_1d(xa[::-1], xb)


def test_w2_zero_iff_sorted_atoms_coincide():
    a = EmpiricalMeasure(np.array([3.0, 1.0, 2.0]))
    b = EmpiricalMeasure(np.array([1.0, 2.0, 3.0]))
    assert wasserstein2(a, b) == 0.0
    c = EmpiricalMeasure(np.array([1.0, 2.0, 3.5]))
    assert wasserstein2(a, c) > 0.1


def test_w2_translation_exact_1d():
    x = np.random.default_rng(1).normal(size=300)
    a = EmpiricalMeasure(x)
    b = EmpiricalMeasure(x + 0.7)
    assert wasserstein2(a, b) == pytest.approx(0.7, abs=1e-12)


def test_w2_weighted_matches_replication():
    # an atom held k times weighs k/N: the unequal-count coupling must agree
    # with the same measure replicated to other counts
    a = EmpiricalMeasure(np.array([0.0, 0.0, 1.0, 3.0]))
    b = EmpiricalMeasure(np.random.default_rng(2).normal(size=7))
    for copies in (2, 3):
        replicated = EmpiricalMeasure(np.repeat(a.atoms, copies, axis=0))
        assert wasserstein2(a, b) == pytest.approx(wasserstein2(replicated, b), abs=1e-12)


def test_w2_of_a_replication_is_exactly_zero():
    # the cuts of the unequal-count coupling are integers, so a measure
    # against its own replication pairs every piece with an equal atom
    atoms = np.array([0.0, 0.0, 1.0, 3.0])
    for copies in (2, 3):
        assert _w2_1d(atoms, np.repeat(atoms, copies)) == 0.0
        assert _w2_1d(np.tile(atoms, copies)[::-1], atoms) == 0.0


def test_w2_unequal_counts_match_the_exact_coupling():
    from fractions import Fraction
    xa = np.random.default_rng(4).normal(size=6)
    xb = np.random.default_rng(5).normal(size=4)
    # the quantile coupling in exact rationals: cuts at k/6 and j/4
    cuts = sorted({Fraction(k, 6) for k in range(7)} | {Fraction(j, 4) for j in range(5)})
    sa, sb = np.sort(xa), np.sort(xb)
    exact = sum((hi - lo) * Fraction(float(sa[int(lo * 6)] - sb[int(lo * 4)])) ** 2
                for lo, hi in zip(cuts, cuts[1:]))
    assert _w2_1d(xa, xb) == pytest.approx(float(exact), rel=1e-15)


def test_w2_translation_multid():
    for d, tol in ((2, 1e-9), (3, 1e-3)):
        x = rng.normals(5, np.arange(400), 0, d)
        shift = np.full(d, 0.5)
        a, b = EmpiricalMeasure(x), EmpiricalMeasure(x + shift)
        want = np.linalg.norm(shift)
        assert wasserstein2(a, b) == pytest.approx(want, rel=tol)


def test_sliced_w2_reads_fixed_directions():
    # the directions are the same on every call, so a fixed pair has a fixed
    # estimate; the 3-d frames come from normals through numpy's tan and
    # from a QR, whose last bits may depend on the CPU's kernels
    g = np.random.default_rng(7)
    for d, want in ((2, 0.7287228861332515), (3, 0.9874244766617903)):
        a = EmpiricalMeasure(g.normal(size=(200, d)))
        b = EmpiricalMeasure(1.3 * g.normal(size=(150, d)) + 0.4)
        assert wasserstein2(a, b) == pytest.approx(want, rel=1e-12)


def test_statistics_permutation_invariant():
    x = np.random.default_rng(4).normal(size=(257, 2))
    perm = np.random.default_rng(5).permutation(257)
    a, b = EmpiricalMeasure(x), EmpiricalMeasure(x[perm])
    assert np.array_equal(a.mean(), b.mean())
    assert np.array_equal(a.cov(), b.cov())
    assert radial_moment(a.atoms, 4) == radial_moment(b.atoms, 4)

    def canonical(m):
        return m.atoms[m.canonical_order()]

    assert np.array_equal(canonical(a), canonical(b))
    # tied coordinates and signed zeros: rows sort by the first column, ties
    # by the next, into the same sequence of atoms
    tied = np.array([[0.0, 1.0], [0.0, -2.0], [1.0, 0.0], [-0.0, 1.0], [0.0, -2.0]])
    want = canonical(EmpiricalMeasure(tied))
    assert want[:, 0].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert want[:, 1].tolist() == [-2.0, -2.0, 1.0, 1.0, 0.0]
    for perm in itertools.permutations(range(len(tied))):
        assert np.array_equal(canonical(EmpiricalMeasure(tied[list(perm)])), want)


def test_measure_path_validation():
    x = np.zeros((3, 5, 1))
    with pytest.raises(ValidationError):
        MeasurePath.from_arrays(np.array([0.0, 0.0, 1.0]), x)
    with pytest.raises(ValidationError):
        MeasurePath.from_arrays(np.array([0.0]), x[:1])
    path = MeasurePath.from_arrays(np.array([0.0, 0.5, 1.0]), x)
    assert len(path.measures) == 3


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


def _adversarial_sums():
    """Arrays whose sums depend on order: ties, signed zeros, subnormals, scales."""
    tiny = np.nextafter(0.0, 1.0)
    g = np.random.default_rng(8)
    return [
        np.array([-0.0, -0.0, -0.0]),
        np.array([0.0, -0.0, -0.0, 0.0, -0.0]),
        np.array([-0.0, 1.0, -1.0, 0.0, -0.0, 1.0, -1.0, -0.0, 0.0]),
        np.array([tiny, -tiny, 3 * tiny, -0.0, 2.2e-308, -2.2e-308, tiny]),
        np.array([1e16, 1.0, -1e16, 1.0, 3.0, -0.0, 1e-300, 0.5, 0.5] * 3),
        np.repeat([2.5, -0.0, 2.5, 0.0, -7.25], 40),
        g.normal(size=257) * 10.0 ** g.integers(-300, 300, size=257),
        np.concatenate([g.normal(size=300), np.zeros(50), -np.zeros(50),
                        np.full(60, 0.1), g.normal(size=300) * 1e-310]),
    ]


@pytest.mark.parametrize("case", range(8))
def test_sorted_sum_matches_stable_sort_reference(case):
    values = _adversarial_sums()[case]
    ref = float(np.sort(values, kind="stable").sum())
    assert _bits(_sorted_sum(values)) == _bits(ref)
    g = np.random.default_rng(case)
    for _ in range(20):
        assert _bits(_sorted_sum(values[g.permutation(len(values))])) == _bits(ref)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=200), st.randoms(use_true_random=False))
def test_sorted_sum_is_permutation_exact(values, shuffler):
    # sums of large draws may overflow to +-inf, which the bits compare too
    with np.errstate(over="ignore"):
        values = np.array(values)
        perm = np.array(shuffler.sample(range(len(values)), len(values)))
        ref = float(np.sort(values, kind="stable").sum())
        assert _bits(_sorted_sum(values)) == _bits(ref)
        assert _bits(_sorted_sum(values[perm])) == _bits(ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_moment_permutation_exact_and_close_to_pow(dim):
    g = np.random.default_rng(dim)
    x = g.normal(size=(999, dim)) * 10.0 ** g.integers(-3, 3, size=(999, 1))
    w = 1.0 / 999
    for order in (1, 2, 3, 4, 6):
        m = radial_moment(x, order)
        for _ in range(5):
            perm = g.permutation(999)
            assert _bits(radial_moment(x[perm], order)) == _bits(m)
        pow_form = np.sum(w * np.linalg.norm(x, axis=1) ** order)
        assert m == pytest.approx(pow_form, rel=1e-13)
