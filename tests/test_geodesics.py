"""Displacement interpolation: block CDF exactness, endpoint recovery,
and constant speed."""

import math

import numpy as np
import pytest

from cdknlab.errors import GridTooCoarse, InvalidParams
from cdknlab.geodesics1d import (
    bin_blocks,
    blocks_cdf,
    displacement_interpolate,
    union_refined_grid,
)
from cdknlab.measure import uniform_block
from cdknlab.mmspace import Grid1D
from cdknlab.transport import monotone_map, w2_block_1d

from conftest import random_measure


def test_blocks_cdf_hand_values():
    u0 = np.array([0.0, 2.0])
    u1 = np.array([1.0, 4.0])
    w = np.array([1.0, 2.0])
    pts = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 9.0])
    want = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0])
    np.testing.assert_allclose(blocks_cdf(u0, u1, w, pts), want, atol=1e-15)


def test_blocks_cdf_zero_width_is_a_step():
    cdf = blocks_cdf(np.array([0.5]), np.array([0.5]), np.array([2.0]),
                     np.array([0.4, 0.5, 0.6]))
    np.testing.assert_allclose(cdf, [0.0, 2.0, 2.0])


def _dense_cdf(u0, u1, w, pts):
    """Brute-force block CDF: sum of w clip((x - a) / (b - a), 0, 1)."""
    out = np.zeros(pts.size)
    for a, b, m in zip(u0, u1, w):
        out += m * (np.clip((pts - a) / (b - a), 0.0, 1.0) if b > a
                    else (pts >= a) * 1.0)
    return out


def test_blocks_cdf_matches_dense_sum_on_geodesic_slices(rng):
    g = Grid1D.uniform(0.0, 1.0, 64)
    edges = union_refined_grid(g, g).edges
    for _ in range(5):
        tmap = monotone_map(random_measure(g, rng, sparsity=0.4),
                            random_measure(g, rng, sparsity=0.4))
        for t in (0.0, 0.3, 0.7, 1.0):
            u0, u1, w = tmap.interpolate_blocks(t)
            np.testing.assert_allclose(blocks_cdf(u0, u1, w, edges),
                                       _dense_cdf(u0, u1, w, edges),
                                       rtol=0.0, atol=1e-15 * w.sum())


def test_blocks_cdf_accepts_a_rounding_crossing():
    # a block end one ulp past the next block's start, as rounding leaves it
    x = 0.0275
    u0 = np.array([0.0, np.nextafter(x, 0.0)])
    u1 = np.array([x, 1.0])
    w = np.array([1.0, 2.0])
    cdf = blocks_cdf(u0, u1, w, np.array([-1.0, x, 2.0]))
    np.testing.assert_allclose(cdf, [0.0, 1.0, 3.0], atol=1e-15)
    mu = bin_blocks(u0, u1, w, Grid1D.uniform(0.0, 1.0, 7))
    assert mu.total_mass == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("u0, u1", [
    ([0.0, 0.4], [0.5, 1.0]),  # the second block starts inside the first
    ([0.0, 0.6], [0.5, 0.55]),  # the second block has negative width
], ids=["overlap", "reversed"])
def test_unordered_blocks_are_rejected(u0, u1):
    u0, u1, w = np.array(u0), np.array(u1), np.ones(2)
    with pytest.raises(InvalidParams, match="ordered and disjoint"):
        blocks_cdf(u0, u1, w, np.linspace(0.0, 1.0, 5))
    with pytest.raises(InvalidParams, match="ordered and disjoint"):
        bin_blocks(u0, u1, w, Grid1D.uniform(0.0, 1.0, 4))


def test_bin_blocks_conserves_mass(rng):
    ends = np.sort(rng.uniform(0.0, 1.0, 600))
    u0, u1 = ends[0::2], ends[1::2]
    w = rng.uniform(0.0, 1.0, 300)
    g = Grid1D.uniform(-0.5, 1.6, 37)
    mu = bin_blocks(u0, u1, w, g)
    assert mu.total_mass == pytest.approx(w.sum(), rel=1e-13)


def test_bin_blocks_detects_escaping_mass():
    g = Grid1D.uniform(0.0, 1.0, 10)
    with pytest.raises(GridTooCoarse):
        bin_blocks(np.array([2.0]), np.array([3.0]), np.array([1.0]), g)


def test_union_refined_grid_contains_both_edge_sets():
    g0 = Grid1D.uniform(0.0, 1.0, 3)
    g1 = Grid1D.uniform(0.2, 1.1, 4)
    g = union_refined_grid(g0, g1)
    for e in np.concatenate([g0.edges, g1.edges]):
        assert np.min(np.abs(g.edges - e)) < 1e-12


def test_slice_domain_check(rng):
    mu = random_measure(Grid1D.uniform(0.0, 1.0, 8), rng)
    tmap = monotone_map(mu, mu)
    for t in (1.5, -0.1, math.nan):
        with pytest.raises(InvalidParams, match="outside"):
            displacement_interpolate(mu, mu, t, tmap=tmap)


def test_endpoints_recover_marginals(rng):
    g = Grid1D.uniform(0.0, 1.0, 64)
    mu0 = random_measure(g, rng, sparsity=0.4)
    mu1 = random_measure(g, rng, sparsity=0.4)
    out = union_refined_grid(g, g)
    for t, ref in ((0.0, mu0), (1.0, mu1)):
        sl = displacement_interpolate(mu0, mu1, t)
        binned = np.add.reduceat(sl.measure.masses, np.arange(0, out.n, 4))
        np.testing.assert_allclose(binned, ref.masses, atol=1e-14)


def test_translation_geodesic_is_exact():
    g = Grid1D.uniform(0.0, 1.0, 128)
    mu0 = uniform_block(g, 0.0, 1.0)
    g1 = Grid1D.uniform(2.0, 3.0, 128)
    mu1 = uniform_block(g1, 2.0, 3.0)
    sl = displacement_interpolate(mu0, mu1, 0.5)
    sup = sl.measure.grid.centers[sl.measure.support]
    assert sup.min() >= 1.0 - 1e-9 and sup.max() <= 2.0 + 1e-9
    assert sl.measure.total_mass == pytest.approx(1.0, rel=1e-12)


def test_constant_speed(rng):
    g = Grid1D.uniform(0.0, 1.0, 512)
    for _ in range(5):
        mu0 = random_measure(g, rng, sparsity=0.6)
        mu1 = random_measure(g, rng, sparsity=0.6)
        w = w2_block_1d(mu0, mu1)
        for t in (0.25, 0.5, 0.75):
            sl = displacement_interpolate(mu0, mu1, t)
            assert abs(w2_block_1d(mu0, sl.measure) - t * w) <= 1e-3 * w


def test_mass_conserved_along_geodesic(rng):
    g = Grid1D.uniform(0.0, 2.0, 100)
    mu0 = random_measure(g, rng, total=3.0)
    mu1 = random_measure(g, rng, total=3.0)
    tmap = monotone_map(mu0, mu1)
    for t in np.linspace(0.0, 1.0, 9):
        sl = displacement_interpolate(mu0, mu1, t, tmap=tmap)
        assert sl.measure.total_mass == pytest.approx(3.0, rel=1e-12)
