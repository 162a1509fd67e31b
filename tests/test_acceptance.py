"""Acceptance runs: one test per shipped claim, each asserting the stated
tolerance, sample count, and (where stated) runtime budget.

The heavyweight model certifications are computed once in a session fixture
and shared by the criteria that reference them.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from cdknlab.cdcheck import (
    cd_suite,
    default_nprime_grid,
    estimate_Omega,
    estimate_omega,
    hierarchy_check,
    richardson_check,
    sample_pair_specs,
)
from cdknlab.cli import EXIT_OK, main
from cdknlab.distortion import sigma_kappa, tau_KN
from cdknlab.geodesics1d import displacement_interpolate
from cdknlab.ikrw import extrinsic_gap, ikrw_fm, truncated_power_space
from cdknlab.measure import (
    DiscreteMeasure,
    entropy_from_masses,
    legendre_entropy,
    optimal_test_function,
    radon_nikodym,
    renyi_entropy,
    uniform_block,
)
from cdknlab.mmspace import Grid1D, ModelSpec, build_model_space, k_cut
from cdknlab.transport import (
    Coupling,
    CostSpec,
    monotone_map,
    optimal_coupling_lp,
    w2_block_1d,
    w2_quantile_1d,
    weighted_marginalization,
)

SEED = 20240814


def _model(kind, **kw):
    def make(grid_n):
        return build_model_space(ModelSpec(kind=kind, grid_n=grid_n, **kw))
    return make


# the six reference spaces and the CD(K, N) claim each one is certified for
MODELS = (
    ("cosh_n", _model("cosh_n", K=1.0, N=-2.0, domain=(-2.0, 2.0)), 1.0, -1.0),
    ("sinh_n", _model("sinh_n", K=1.0, N=-2.0, domain=(0.0, 2.0)), 1.0, -1.0),
    ("power_n", _model("power_n", N=-2.0, domain=(0.0, 2.0), base_point=1.0),
     0.0, -1.0),
    ("cos_n", _model("cos_n", K=-2.0, N=-2.0), -2.0, -1.0),
    ("cauchy", _model("cauchy", alpha=1.0, domain=(-4.0, 4.0)), 0.0, -1.0),
    ("glued_cos_n", _model("glued_cos_n", K=-2.0, N=-2.0, J=2), -2.0, -1.0),
)


@pytest.fixture(scope="session")
def certifications():
    out = {}
    for name, make, K, N in MODELS:
        t0 = time.perf_counter()
        res = richardson_check(make, K, N, n_samples=50, seed=SEED)
        out[name] = {"res": res, "seconds": time.perf_counter() - t0}
    return out


def _random_grid(rng, n, lo=0.0, span=1.0):
    edges = np.sort(rng.uniform(lo, lo + span, n + 1))
    edges += np.arange(n + 1) * 1e-9  # break ties
    return Grid1D(edges)


def _random_measure(grid, rng, sparsity=0.2):
    w = rng.uniform(0.0, 1.0, grid.n) * (rng.uniform(size=grid.n) > sparsity)
    w[int(rng.integers(grid.n))] += 0.5
    return DiscreteMeasure(grid, w)


# ---------------------------------------------------------------------------


def test_criterion_01_distortion_coefficient_identities():
    t0 = time.perf_counter()
    ts = np.linspace(0.05, 0.95, 10)
    thetas = np.linspace(0.0, 8.0, 10)
    Ns = np.linspace(-8.0, -0.05, 10)
    for t, th, N in itertools.product(ts, thetas, Ns):
        assert abs(sigma_kappa(0.0, t, th) - t) <= 1e-12
        assert abs(tau_KN(0.0, N, t, th) - t) <= 1e-12

    # infinite exactly on {kappa theta^2 >= pi^2}
    for th in (0.5, 1.0, 3.0):
        edge = math.pi ** 2 / th ** 2
        assert sigma_kappa(edge, 0.5, th) == math.inf
        assert sigma_kappa(1.1 * edge, 0.5, th) == math.inf
        assert math.isfinite(sigma_kappa(0.99 * edge, 0.5, th))

    # nondecreasing in kappa
    kappas = np.linspace(-6.0, 12.0, 40)
    for t, th in itertools.product((0.2, 0.5, 0.8), (0.4, 1.0, 2.0)):
        vals = [sigma_kappa(k, t, th) for k in kappas]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_ot_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        n_mu = int(rng.integers(2, 65))
        n_nu = int(rng.integers(2, 65))
        mu = _random_measure(_random_grid(rng, n_mu), rng)
        nu = _random_measure(_random_grid(rng, n_nu, lo=rng.uniform(-1, 1)), rng)
        nu = DiscreteMeasure(nu.grid, nu.masses * (mu.total_mass / nu.total_mass))
        q_cost, _ = w2_quantile_1d(mu, nu)
        lp_cost, _ = optimal_coupling_lp(mu, nu)
        assert abs(q_cost - lp_cost) <= 1e-9 * max(lp_cost, 1e-12)

    for _ in range(50):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(0.0, 1.0, n)) + np.arange(n) * 1e-6
        y = np.sort(rng.uniform(0.5, 2.0, n)) + np.arange(n) * 1e-6
        gx = Grid1D(np.append(x - 1e-9, x[-1] + 1e-9))
        gy = Grid1D(np.append(y - 1e-9, y[-1] + 1e-9))
        mu = DiscreteMeasure(gx, np.full(n, 1.0 / n))
        nu = DiscreteMeasure(gy, np.full(n, 1.0 / n))
        lp_cost, _ = optimal_coupling_lp(mu, nu)
        xc, yc = mu.grid.centers, nu.grid.centers
        brute = min(
            sum((xc[i] - yc[p[i]]) ** 2 for i in range(n)) / n
            for p in itertools.permutations(range(n)))
        assert abs(lp_cost - brute) <= 1e-9 * max(brute, 1e-12)

    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_trivial_equality_on_flat_space():
    from cdknlab.cdcheck import verify_cd
    from cdknlab.mmspace import PointedSpace1D

    g = Grid1D.uniform(0.0, 1.0, 256)
    sp = PointedSpace1D(grid=g, density=np.ones(256), singular_points=(),
                        base_point=0.5)
    mu = uniform_block(g, 0.0, 1.0)
    rep = verify_cd(sp, mu, mu, K=0.0, N=-2.0, t_grid=21, nprime_grid=9)
    assert len(rep.rows) == 21 * 9
    for row in rep.rows:
        assert -1e-10 <= row.margin <= 1e-10


def test_criterion_04_model_space_certification(certifications):
    for name, _, _, _ in MODELS:
        res = certifications[name]["res"]
        # scaled negative margin within tolerance on the 512 grid ...
        assert res["neg_coarse"] <= 5e-2, name
        # ... and shrinking by >= 1.5x when the grid doubles
        assert res["ok"], name
    assert sum(v["seconds"] for v in certifications.values()) <= 300.0


def test_criterion_05_negative_control_detects_wrong_K():
    sp = _model("cos_n", K=-2.0, N=-2.0)(512)
    sampled = 0
    violated = 0
    for seed in range(40):  # chunks of 5 pairs, up to 200
        suite = cd_suite(sp, -2.0 + 2.0, -1.0, 5, seed)
        sampled += 5
        violated = suite.counts().get("violated", 0)
        if violated:
            break
    assert violated > 0
    assert sampled <= 200


def test_criterion_06_hierarchy_monotonicity():
    rng = np.random.default_rng(SEED)
    for name, make, K, N in MODELS:
        sp = make(512)
        fracs = 0.15 + 0.75 * (rng.uniform(size=3) + np.arange(3)) / 3.0
        nps = np.sort(N * fracs)  # 3 stratified values in (N, 0)
        union = np.unique(np.concatenate([default_nprime_grid(N), nps]))
        pairs = sample_pair_specs(sp, N, 4, seed=SEED)
        kw = dict(t_grid=7, nprime_grid=union, pair_specs=pairs)
        strong = cd_suite(sp, K, N, 4, SEED, **kw)
        weaker = [cd_suite(sp, K - 1.0, N, 4, SEED, **kw)]
        for npr in nps:
            sub = union[union >= npr - 1e-12]
            weaker.append(cd_suite(sp, K, npr, 4, SEED, t_grid=7,
                                   nprime_grid=sub, pair_specs=pairs))
        for weak in weaker:
            for a, b in zip(strong.reports, weak.reports):
                assert hierarchy_check(a, b), name


def test_criterion_07_entropy_duality_and_scaling():
    from cdknlab.mmspace import PointedSpace1D

    g = Grid1D.uniform(0.0, 1.0, 256)
    sp = PointedSpace1D(grid=g, density=np.ones(256), singular_points=(),
                        base_point=0.5)
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        mu = _random_measure(g, rng)
        nprime = float(rng.uniform(-3.0, -0.2))
        s = renyi_entropy(mu, sp, nprime)
        rho = radon_nikodym(mu, sp).values
        dual = legendre_entropy(mu, sp, nprime, [optimal_test_function(rho, nprime)])
        assert abs(dual - s) <= 1e-9 * abs(s)
        lower = legendre_entropy(mu, sp, nprime,
                                 [rng.uniform(0.0, 4.0, g.n) for _ in range(3)])
        assert lower <= s + 1e-12

    mu = _random_measure(g, rng)
    for c in (0.5, 2.0, 7.3):
        for N in (-2.0, -1.0, -0.4):
            a = renyi_entropy(mu, sp.scaled(c), N)
            b = c ** (1.0 / N) * renyi_entropy(mu, sp, N)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_criterion_08_entropy_contraction():
    rng = np.random.default_rng(SEED)

    def product_coupling(a, b):
        ia = np.nonzero(a.masses > 0)[0]
        jb = np.nonzero(b.masses > 0)[0]
        w = np.outer(a.masses[ia], b.masses[jb]).ravel() / a.total_mass
        i = np.repeat(ia, jb.size)
        j = np.tile(jb, ia.size)
        return Coupling(i=i, j=j, w=w, x=a.grid.centers[i],
                        y=b.grid.centers[j], src_grid=a.grid, dst_grid=b.grid)

    violations = 0
    for trial in range(100):
        gA = Grid1D.uniform(0.0, 1.0, int(rng.integers(8, 40)))
        gB = Grid1D.uniform(rng.uniform(-1, 1), rng.uniform(1.5, 3.0),
                            int(rng.integers(8, 40)))
        mA = DiscreteMeasure(gA, rng.uniform(0.05, 1.0, gA.n))
        mB = DiscreteMeasure(gB, rng.uniform(0.05, 1.0, gB.n))
        mB = DiscreteMeasure(gB, mB.masses * (mA.total_mass / mB.total_mass))
        plan = (monotone_map(mA, mB).as_coupling() if trial % 2 == 0
                else product_coupling(mA, mB))
        rho = rng.uniform(0.0, 2.0, gA.n) * (rng.uniform(size=gA.n) > 0.2)
        mu = DiscreteMeasure(gA, rho * mA.masses)
        nu = weighted_marginalization(plan, mu, mA)
        N = float(rng.uniform(-3.0, -0.3))
        s_a = entropy_from_masses(mu.masses, mA.masses, N)
        s_b = entropy_from_masses(nu.masses, mB.masses, N)
        if not s_b <= s_a + 1e-12 * max(1.0, abs(s_a)):
            violations += 1
    assert violations == 0


def test_criterion_09_geodesic_constant_speed():
    g = Grid1D.uniform(0.0, 1.0, 1024)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        mu0 = _random_measure(g, rng, sparsity=0.3)
        mu1 = _random_measure(g, rng, sparsity=0.3)
        mu0 = DiscreteMeasure(g, mu0.masses / mu0.total_mass)
        mu1 = DiscreteMeasure(g, mu1.masses / mu1.total_mass)
        w2 = w2_block_1d(mu0, mu1)
        tmap = monotone_map(mu0, mu1)
        for t in (0.25, 0.5, 0.75):
            sl = displacement_interpolate(mu0, mu1, t, tmap=tmap)
            assert abs(w2_block_1d(mu0, sl.measure) - t * w2) <= 1e-3 * w2


def test_criterion_10_stability_evidence(certifications):
    t0 = time.perf_counter()
    members = [truncated_power_space(-2.0, n, grid_n=2048) for n in range(1, 11)]
    limit = truncated_power_space(-2.0, None, grid_n=2048)
    for k in (0, 1, 2):
        gaps = [extrinsic_gap(m, limit, k) for m in members]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), k
        assert gaps[-1] < 1e-2
        for m in members:
            _, terms = ikrw_fm(k_cut(m, k), k_cut(limit, k), return_terms=True)
            assert terms["hausdorff"] == math.inf
    # the limit is the certified power-density space
    res = certifications["power_n"]["res"]
    assert res["neg_coarse"] <= 5e-2 and res["ok"]
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_11_regular_region_escape():
    k, M = 3, 10.0
    single = _model("cos_n", K=-2.0, N=-2.0)(512)
    for h in range(k, k + 7):
        assert estimate_omega(single, k, h, M, n_samples=30, seed=0) <= 1e-3

    glued = _model("glued_cos_n", K=-2.0, N=-2.0, J=2)(512)
    omegas = [estimate_omega(glued, k, h, M, n_samples=50, seed=0)
              for h in range(k, k + 7)]
    assert all(b <= a + 1e-12 for a, b in zip(omegas, omegas[1:]))
    assert omegas[-1] <= 0.05

    h_top = k + 6
    delta = 0.004
    Om = estimate_Omega(glued, k, h_top, M, delta, n_samples=50, seed=0)
    assert Om - 2.0 * delta <= 1e-2
    assert estimate_Omega(glued, k, h_top, M, 0.3, n_samples=50, seed=0) == 1.0


def test_criterion_12_deterministic_cli_reports(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"kind": "cos_n",
                                 "params": {"K": -2.0, "N": -2.0},
                                 "grid_n": 256}))
    outputs = []
    for name in ("one", "two"):
        rep = tmp_path / f"{name}.csv"
        rc = main(["cdcheck", "--space", str(space), "--K", "-2.0",
                   "--N", "-1.0", "--samples", "3", "--seed", "5",
                   "--out", str(rep)])
        assert rc == EXIT_OK
        om = tmp_path / f"{name}-omega.csv"
        rc = main(["omega", "--space", str(space), "--k", "2", "--h-max", "3",
                   "--M", "5.0", "--samples", "5", "--seed", "5",
                   "--out", str(om)])
        assert rc == EXIT_OK
        outputs.append((rep.read_bytes(),
                        (tmp_path / f"{name}.csv.summary.json").read_bytes(),
                        om.read_bytes()))
    assert outputs[0] == outputs[1]
