"""Transport layer: quantile fast path against the exact LP and a brute-force
permutation oracle, plus the concave-cost distance used by the gap terms."""

import itertools
import math

import numpy as np
import pytest

from cdknlab.errors import (
    InvalidParams,
    NotAbsolutelyContinuous,
    SizeCap,
    UnbalancedMasses,
)
from cdknlab.measure import DiscreteMeasure, uniform_block
from cdknlab.mmspace import Grid1D
from cdknlab.transport import (
    MAX_LP_SUPPORT,
    CostSpec,
    monotone_map,
    optimal_coupling_lp,
    w2_block_1d,
    w2_quantile_1d,
    wc_distance,
    weighted_marginalization,
)

from conftest import random_measure


def permutation_oracle(x, y, cost):
    """Exact minimum over all assignments of n uniform atoms (n <= 8)."""
    n = len(x)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        c = sum(cost.fn(abs(x[i] - y[p])) for i, p in enumerate(perm)) / n
        best = min(best, float(c))
    return best


def random_grid(rng, n, lo=0.0, hi=1.0):
    edges = np.sort(rng.uniform(lo, hi, n + 1))
    edges += np.arange(n + 1) * 1e-9  # guard against ties
    return Grid1D(edges)


def assert_marginals(coup, mu, nu, tol):
    """The coupling's two marginals equal mu's and nu's masses to tol."""
    src = np.bincount(coup.i, weights=coup.w, minlength=mu.grid.n)
    dst = np.bincount(coup.j, weights=coup.w, minlength=nu.grid.n)
    np.testing.assert_allclose(src, mu.masses, rtol=0, atol=tol)
    np.testing.assert_allclose(dst, nu.masses, rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# oracle equivalences


def test_lp_matches_permutation_oracle(rng):
    for trial in range(25):
        n = int(rng.integers(2, 9))
        gx, gy = random_grid(rng, n), random_grid(rng, n, 0.5, 2.0)
        mu = DiscreteMeasure(gx, np.full(n, 1.0 / n))
        nu = DiscreteMeasure(gy, np.full(n, 1.0 / n))
        for kind in ("w2", "tanh"):
            cost = CostSpec(kind)
            val, coup = optimal_coupling_lp(mu, nu, cost=cost)
            want = permutation_oracle(gx.centers, gy.centers, cost)
            assert val == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert_marginals(coup, mu, nu, tol=1e-9)


def test_quantile_matches_lp(rng):
    for trial in range(40):
        n = int(rng.integers(3, 65))
        m = int(rng.integers(3, 65))
        mu = random_measure(random_grid(rng, n), rng, sparsity=0.3)
        nu = random_measure(random_grid(rng, m, -1.0, 1.5), rng, sparsity=0.3)
        q_cost, _ = w2_quantile_1d(mu, nu)
        lp_cost, _ = optimal_coupling_lp(mu, nu)
        assert q_cost == pytest.approx(lp_cost, rel=1e-9, abs=1e-13)


def test_quantile_plan_cyclically_monotone(rng):
    # for the squared cost, support pairs must satisfy the 2-cycle inequality
    mu = random_measure(Grid1D.uniform(0.0, 1.0, 32), rng)
    nu = random_measure(Grid1D.uniform(0.2, 1.7, 48), rng)
    _, tmap = w2_quantile_1d(mu, nu)
    x, y = tmap.x_mid, tmap.y_mid
    for a in range(0, len(x), 7):
        for b in range(a + 1, len(x), 11):
            direct = (x[a] - y[a]) ** 2 + (x[b] - y[b]) ** 2
            swapped = (x[a] - y[b]) ** 2 + (x[b] - y[a]) ** 2
            assert direct <= swapped + 1e-12


# ---------------------------------------------------------------------------
# monotone map mechanics


def test_monotone_map_marginals_and_order(rng):
    mu = random_measure(Grid1D.uniform(0.0, 1.0, 40), rng, sparsity=0.5)
    nu = random_measure(Grid1D.uniform(3.0, 5.0, 25), rng, sparsity=0.5)
    tmap = monotone_map(mu, nu)
    coup = tmap.as_coupling()
    assert_marginals(coup, mu, nu, tol=1e-12)
    assert np.all(np.diff(tmap.a0) >= -1e-12)
    assert np.all(np.diff(tmap.b0) >= -1e-12)
    assert np.all(tmap.w > 0)


def test_interpolate_blocks_endpoints(rng):
    mu = random_measure(Grid1D.uniform(0.0, 1.0, 16), rng)
    nu = random_measure(Grid1D.uniform(0.0, 1.0, 16), rng)
    tmap = monotone_map(mu, nu)
    u0, u1, w = tmap.interpolate_blocks(0.0)
    np.testing.assert_allclose(u0, tmap.a0)
    np.testing.assert_allclose(u1, tmap.a1)
    v0, v1, _ = tmap.interpolate_blocks(1.0)
    np.testing.assert_allclose(v0, tmap.b0)
    np.testing.assert_allclose(v1, tmap.b1)
    assert w.sum() == pytest.approx(mu.total_mass, rel=1e-12)


def test_translation_block_distance_is_exact():
    g0 = Grid1D.uniform(0.0, 1.0, 200)
    g1 = Grid1D.uniform(2.0, 3.0, 200)
    mu = uniform_block(g0, 0.0, 1.0)
    nu = uniform_block(g1, 2.0, 3.0)
    assert w2_block_1d(mu, nu) == pytest.approx(2.0, abs=1e-13)


def test_block_vs_atom_distance_on_coarse_grid():
    # blocks see the within-cell variance the atom cost misses
    g = Grid1D.uniform(0.0, 1.0, 4)
    mu = DiscreteMeasure(g, [1.0, 0.0, 0.0, 0.0])
    nu = DiscreteMeasure(g, [0.0, 0.0, 0.0, 1.0])
    atom_sq, _ = w2_quantile_1d(mu, nu)
    block = w2_block_1d(mu, nu)
    assert block == pytest.approx(0.75, abs=1e-13)  # same-shape translation
    assert math.sqrt(atom_sq) == pytest.approx(0.75, abs=1e-13)
    half = DiscreteMeasure(g, [0.5, 0.5, 0.0, 0.0])
    assert w2_block_1d(mu, half) != pytest.approx(
        math.sqrt(w2_quantile_1d(mu, half)[0]), rel=1e-3)


def test_unbalanced_inputs_raise():
    g = Grid1D.uniform(0.0, 1.0, 4)
    mu = DiscreteMeasure(g, [1.0, 0.0, 0.0, 0.0])
    nu = DiscreteMeasure(g, [0.0, 0.0, 0.0, 2.0])
    with pytest.raises(UnbalancedMasses):
        monotone_map(mu, nu)
    with pytest.raises(InvalidParams):
        monotone_map(mu, DiscreteMeasure(g, np.zeros(4)))


def test_size_cap():
    # one cell past MAX_LP_SUPPORT is refused before any LP is built
    g = Grid1D.uniform(0.0, 1.0, MAX_LP_SUPPORT + 1)
    mu = uniform_block(g, 0.0, 1.0)
    with pytest.raises(SizeCap, match="2001 x 2001 exceed 2000"):
        optimal_coupling_lp(mu, mu)


# ---------------------------------------------------------------------------
# concave metric costs


def test_cost_spec_properties():
    assert not CostSpec("w2").is_metric
    assert CostSpec("tanh").is_metric and CostSpec("cap1").is_metric
    assert CostSpec("cap1").fn(3.0) == 1.0
    with pytest.raises(InvalidParams):
        CostSpec("euclid")


def test_wc_rejects_convex_cost(lebesgue):
    mu = uniform_block(lebesgue.grid, 0.1, 0.4)
    with pytest.raises(InvalidParams):
        wc_distance(mu, mu, cost=CostSpec("w2"))


def test_wc_metric_axioms(rng):
    g = Grid1D.uniform(0.0, 2.0, 48)
    a = random_measure(g, rng)
    b = random_measure(g, rng)
    c = random_measure(g, rng)
    for kind in ("tanh", "cap1"):
        cost = CostSpec(kind)
        dab = wc_distance(a, b, cost=cost)
        assert wc_distance(a, a, cost=cost) == pytest.approx(0.0, abs=1e-12)
        assert dab == pytest.approx(wc_distance(b, a, cost=cost), rel=1e-9)
        assert dab <= (wc_distance(a, c, cost=cost)
                       + wc_distance(c, b, cost=cost) + 1e-9)


def test_wc_cancellation_matches_full_lp(rng):
    # same-grid fast path (transport the difference) == LP on the full pair
    g = Grid1D.uniform(0.0, 1.0, 24)
    a = random_measure(g, rng)
    b = random_measure(g, rng)
    fast = wc_distance(a, b, cost=CostSpec("cap1"))
    full, _ = optimal_coupling_lp(a, b, cost=CostSpec("cap1"))
    assert fast <= full + 1e-12
    # and on genuinely different grids it falls back to the full problem
    g2 = Grid1D.uniform(0.0, 1.0, 25)
    c = random_measure(g2, rng, total=a.total_mass)
    full2, _ = optimal_coupling_lp(a, c, cost=CostSpec("cap1"))
    assert wc_distance(a, c, cost=CostSpec("cap1")) == pytest.approx(
        full2, rel=1e-9)


def test_wc_dominated_by_total_variation(rng):
    # c <= 1 means W_c never exceeds the transported mass
    g = Grid1D.uniform(0.0, 3.0, 30)
    a = random_measure(g, rng)
    b = random_measure(g, rng)
    tv = 0.5 * float(np.abs(a.masses - b.masses).sum())
    assert wc_distance(a, b, cost=CostSpec("cap1")) <= tv + 1e-10


# ---------------------------------------------------------------------------
# weighted marginalization


def test_weighted_marginalization_exact(rng):
    gs = Grid1D.uniform(0.0, 1.0, 12)
    gt = Grid1D.uniform(5.0, 6.0, 9)
    m_src = random_measure(gs, rng, total=2.0)
    m_dst = random_measure(gt, rng, total=2.0)
    plan = monotone_map(m_src, m_dst).as_coupling()
    rho = rng.uniform(0.0, 2.0, 12)
    mu = DiscreteMeasure(gs, rho * m_src.masses)
    nu = weighted_marginalization(plan, mu, m_src)
    want = np.bincount(plan.j, weights=plan.w * rho[plan.i], minlength=9)
    np.testing.assert_allclose(nu.masses, want, rtol=1e-12)
    assert nu.total_mass == pytest.approx(mu.total_mass, rel=1e-12)


def test_weighted_marginalization_needs_ac(rng):
    gs = Grid1D.uniform(0.0, 1.0, 8)
    m_src = DiscreteMeasure(gs, [1, 1, 1, 1, 0, 1, 1, 1])
    m_dst = random_measure(gs, rng, total=7.0)
    plan = monotone_map(m_src, m_dst).as_coupling()
    mu = DiscreteMeasure(gs, [0, 0, 0, 0, 1, 0, 0, 0])
    with pytest.raises(NotAbsolutelyContinuous):
        weighted_marginalization(plan, mu, m_src)


def test_weighted_marginalization_identity_density(rng):
    # rho~ = 1 pushes the source reference exactly onto the target reference
    gs = Grid1D.uniform(0.0, 1.0, 16)
    gt = Grid1D.uniform(2.0, 3.5, 11)
    m_src = random_measure(gs, rng, total=3.0)
    m_dst = random_measure(gt, rng, total=3.0)
    plan = monotone_map(m_src, m_dst).as_coupling()
    out = weighted_marginalization(plan, m_src, m_src)
    np.testing.assert_allclose(out.masses, m_dst.masses, atol=1e-12)


def test_weighted_marginalization_w2_continuity(rng):
    # as the target reference slides back onto the source, P' mu returns
    # to mu in W2, at rate controlled by the coupling displacement
    g = Grid1D.uniform(0.0, 1.0, 32)
    m_src = random_measure(g, rng, total=1.0)
    rho = rng.uniform(0.2, 1.8, 32)
    mu = DiscreteMeasure(g, rho * m_src.masses)
    gaps = []
    for shift in (0.2, 0.05, 0.0125):
        gt = Grid1D(g.edges + shift)
        m_dst = DiscreteMeasure(gt, m_src.masses.copy())
        plan = monotone_map(m_src, m_dst).as_coupling()
        nu = weighted_marginalization(plan, mu, m_src)
        gaps.append(w2_block_1d(mu, nu))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.0125 + 1e-9
