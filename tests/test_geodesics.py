"""Displacement interpolation: block CDF exactness, endpoint recovery,
and constant speed."""

import math

import numpy as np
import pytest

from cdknlab import geodesics1d
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


def _padded(blocks):
    """(G, T, S) ends and (G, S) masses of G maps' (T, S_g) slices, each
    padded to the most segments with zero-mass, zero-width blocks at its
    last end."""
    width = max(w.size for _, _, w in blocks)
    u0 = np.empty((len(blocks), blocks[0][0].shape[0], width))
    u1, w = np.empty_like(u0), np.zeros((len(blocks), width))
    for g, (a, b, wg) in enumerate(blocks):
        u0[g, :, :wg.size], u1[g, :, :wg.size], w[g, :wg.size] = a, b, wg
        u0[g, :, wg.size:] = u1[g, :, wg.size:] = b[:, -1:]
    return u0, u1, w


def test_blocks_cdf_with_per_set_masses_equals_each_set_alone(rng):
    # maps with unequal segment counts, padded to one array: each set's rows
    # equal the (T, S) call on its own unpadded blocks, padded rows included
    g0, g1 = Grid1D.uniform(0.0, 1.0, 48), Grid1D.uniform(0.3, 1.7, 31)
    ts = np.array([0.0, 0.2, 0.5, 0.5, 0.9, 1.0])
    blocks = [monotone_map(random_measure(g0, rng, sparsity=s),
                           random_measure(g1, rng, sparsity=s)).interpolate_blocks(ts)
              for s in (0.0, 0.5, 0.8, 0.3)]
    assert len({w.size for _, _, w in blocks}) == 4
    pts = np.concatenate([np.linspace(-0.2, 2.0, 41), [1.0, 1.7, 1.7]])
    u0, u1, w = _padded(blocks)
    got = blocks_cdf(u0, u1, w, pts)
    assert got.shape == (4, ts.size, pts.size)
    for cdf, (a, b, wg) in zip(got, blocks):
        assert cdf.tobytes() == blocks_cdf(a, b, wg, pts).tobytes()
        for row, ra, rb in zip(cdf, a, b):
            assert row.tobytes() == blocks_cdf(ra, rb, wg, pts).tobytes()
    # a shared w still weighs every row alike
    assert blocks_cdf(u0, u1, w[0], pts)[0].tobytes() == got[0].tobytes()
    # one overlapping row of one set fails the call, as it fails that set's
    bad0 = u0.copy()
    bad0[2, 3, 1] = bad0[2, 3, 0]
    with pytest.raises(InvalidParams, match="ordered and disjoint"):
        blocks_cdf(bad0[2], u1[2], w[2], pts)
    with pytest.raises(InvalidParams, match="ordered and disjoint"):
        blocks_cdf(bad0, u1, w, pts)
    with pytest.raises(InvalidParams, match="per-set masses"):
        blocks_cdf(u0, u1, w[:3], pts)


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


def test_bin_blocks_over_slices_equals_one_slice_at_a_time(rng):
    mu0 = random_measure(Grid1D.uniform(0.0, 1.0, 40), rng, sparsity=0.3)
    mu1 = random_measure(Grid1D.uniform(0.2, 1.5, 23), rng, sparsity=0.3)
    ts = np.array([0.0, 1e-9, 0.3, 0.5, 0.5, 0.97, 1.0])
    u0s, u1s, w = monotone_map(mu0, mu1).interpolate_blocks(ts)
    g = union_refined_grid(mu0.grid, mu1.grid)
    got = bin_blocks(u0s, u1s, w, g)
    assert isinstance(got, np.ndarray) and got.shape == (ts.size, g.n)
    for row, u0, u1 in zip(got, u0s, u1s):
        assert row.tolist() == bin_blocks(u0, u1, w, g).masses.tolist()


def test_bin_blocks_over_slices_raises_when_one_row_leaks():
    g = Grid1D.uniform(0.0, 1.0, 10)
    u0 = np.array([[0.1, 0.5], [0.1, 0.5], [0.2, 0.6]])
    u1 = np.array([[0.4, 0.9], [0.4, 1.25], [0.5, 0.8]])
    w = np.array([1.0, 3.0])
    bin_blocks(u0[[0, 2]], u1[[0, 2]], w, g)  # no row leaks
    # the middle row puts 3 * 0.25 / 0.75 = 1 of its 4 outside
    with pytest.raises(GridTooCoarse, match="1.000e[+]00 of 4 mass"):
        bin_blocks(u0, u1, w, g)
    with pytest.raises(GridTooCoarse, match="1.000e[+]00 of 4 mass"):
        bin_blocks(u0[1], u1[1], w, g)


def _bin_blocks_full_grid(u0, u1, w, grid, tol=1e-12):
    """bin_blocks with the block CDF evaluated at every edge of the grid."""
    total = float(np.sum(w))
    cdf = blocks_cdf(u0, u1, w, grid.edges)
    outside = cdf[..., 0] + (total - cdf[..., -1])
    leaks = outside[outside > tol * max(total, 1.0)]
    if leaks.size:
        raise GridTooCoarse(
            f"{leaks.max():.3e} of {total:.6g} mass falls outside the grid")
    return np.maximum(np.diff(cdf, axis=-1), 0.0)


def _ordered_blocks(rng, lo, hi, count, zero_width=0.0):
    """count ordered, disjoint blocks spanning [lo, hi] exactly, a share of
    them of zero width."""
    ends = np.sort(rng.uniform(lo, hi, 2 * count))
    ends[0], ends[-1] = lo, hi
    u0, u1 = ends[0::2].copy(), ends[1::2].copy()
    flat = rng.uniform(size=count) < zero_width
    u1[flat] = u0[flat]
    return u0, u1, rng.uniform(0.1, 1.0, count)


def _binned_or_error(bin_them):
    """The masses' bytes, or the message of the GridTooCoarse raised (a
    zero-width block on the left end counts as mass outside the grid)."""
    try:
        return bin_them().tobytes()
    except GridTooCoarse as e:
        return str(e)


def test_bin_blocks_window_equals_the_full_grid(monkeypatch):
    # the CDF is evaluated only from the edge before the first knot to the
    # edge after the last: the masses are those of every edge bit for bit,
    # for 1-D and (T, S) ends, blocks in the interior, on an edge or at
    # either end of the grid, and zero-width blocks
    rng = np.random.default_rng(11)
    points = []
    monkeypatch.setattr(geodesics1d, "blocks_cdf",
                        lambda *a: points.append(np.size(a[3])) or blocks_cdf(*a))
    grids = (Grid1D.uniform(0.0, 1.0, 64),
             Grid1D(np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 50)), [1.0]])))
    for g in grids:
        e = g.edges
        spans = [(0.3, 0.6), (e[0], 0.4), (0.55, e[-1]), (e[0], e[-1]),
                 (e[5], e[9]), (e[3], e[3]), (e[0], e[0]), (e[-1], e[-1]),
                 (0.5 * (e[7] + e[8]),) * 2]
        for lo, hi in spans:
            for zero_width in (0.0, 0.3, 1.0):
                u0, u1, w = _ordered_blocks(rng, lo, hi, 7, zero_width)
                points.clear()
                got = _binned_or_error(lambda: bin_blocks(u0, u1, w, g).masses)
                assert got == _binned_or_error(lambda: _bin_blocks_full_grid(u0, u1, w, g))
                assert points[0] <= g.n + 1
                if e[2] < lo <= hi < e[-3]:
                    assert points[0] < g.n + 1
        # ends that cross by rounding around an edge: the last knot is the
        # crossed start, past the last block end
        k = 20
        for u0, u1 in ((np.array([e[k - 3], e[k] + 1e-14]), np.array([e[k - 1], e[k] - 1e-14])),
                       (np.array([e[k] + 1e-14, e[k + 2]]), np.array([e[k] - 1e-14, e[k + 3]]))):
            w = np.array([1.0, 2.0])
            assert bin_blocks(u0, u1, w, g).masses.tobytes() == \
                _bin_blocks_full_grid(u0, u1, w, g).tobytes()
        # (T, S) ends: the slices of a monotone map, whose window is the
        # union of the rows'
        for sub in ((e[0], 0.3, 0.6, e[-1]), (0.1, 0.2, 0.7, 0.9), (e[0], e[4], e[-5], e[-1])):
            mu0 = uniform_block(g, sub[0], sub[1])
            mu1 = uniform_block(g, sub[2], sub[3])
            u0s, u1s, w = monotone_map(mu0, mu1).interpolate_blocks(np.linspace(0.0, 1.0, 7))
            got = bin_blocks(u0s, u1s, w, g)
            assert got.tobytes() == _bin_blocks_full_grid(u0s, u1s, w, g).tobytes()
            assert got.shape == (7, g.n)


def test_bin_blocks_window_still_sees_a_leak_past_either_end():
    g = Grid1D.uniform(0.0, 1.0, 16)
    w = np.array([1.0, 3.0])
    cases = [(np.array([-0.25, 0.5]), np.array([0.25, 0.75])),   # past the left end
             (np.array([0.25, 0.5]), np.array([0.4, 1.25])),     # past the right end
             (np.array([-0.5, 0.5]), np.array([-0.25, 1.5])),    # past both
             (np.array([-0.1, 1.2]), np.array([-0.1, 1.2]))]     # zero-width, outside
    for u0, u1 in cases:
        with pytest.raises(GridTooCoarse) as want:
            _bin_blocks_full_grid(u0, u1, w, g)
        with pytest.raises(GridTooCoarse) as got:
            bin_blocks(u0, u1, w, g)
        assert str(got.value) == str(want.value)
    # one leaking row of (T, S) ends, at either end
    for shift in (-0.3, 0.3):
        u0 = np.array([[0.25, 0.5], [0.25 + shift, 0.5 + shift]])
        u1 = np.array([[0.4, 0.75], [0.4 + shift, 0.75 + shift]])
        with pytest.raises(GridTooCoarse) as want:
            _bin_blocks_full_grid(u0, u1, w, g)
        with pytest.raises(GridTooCoarse) as got:
            bin_blocks(u0, u1, w, g)
        assert str(got.value) == str(want.value)
    # the converge rebin's tolerance: a leak below it passes and bins as before
    u0, u1 = np.array([-1e-12, 0.5]), np.array([0.25, 0.75])
    got = bin_blocks(u0, u1, w, g, tol=1e-9).masses
    assert got.tobytes() == _bin_blocks_full_grid(u0, u1, w, g, tol=1e-9).tobytes()


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
