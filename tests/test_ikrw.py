"""Distances between pointed blow-up spaces, the convergent families, and
the per-(n, k) gap tables."""

import math

import numpy as np
import pytest

from cdknlab.errors import InfiniteMass, InvalidParams, RegularityMismatch
from cdknlab.ikrw import (
    ConvergenceRow,
    ConvergenceTable,
    convergence_experiment,
    extrinsic_gap,
    glued_drift_space,
    hausdorff_distance,
    ikrw,
    ikrw_fm,
    truncated_power_space,
)
from cdknlab.mmspace import (Grid1D, PointedSpace1D, detect_singular_set, k_cut,
                             total_mass)


# ---------------------------------------------------------------------------
# Hausdorff distance


def test_hausdorff_empty_conventions():
    assert hausdorff_distance((), ()) == 0.0
    assert hausdorff_distance((), (1.0,)) == math.inf
    assert hausdorff_distance((0.0, 2.0), ()) == math.inf


def test_hausdorff_known_value_and_symmetry():
    A, B = (0.0, 1.0), (0.25,)
    assert hausdorff_distance(A, B) == pytest.approx(0.75)
    assert hausdorff_distance(B, A) == pytest.approx(0.75)
    assert hausdorff_distance(A, A) == 0.0


def test_hausdorff_matches_dense_formula_on_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(300):
        A = tuple(rng.normal(size=rng.integers(1, 30)))
        B = tuple(rng.normal(size=rng.integers(1, 30)) * 1.5 + 0.3)
        d = np.abs(np.subtract.outer(A, B))
        want = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
        assert hausdorff_distance(A, B) == want
        assert hausdorff_distance(B, A) == want


# ---------------------------------------------------------------------------
# Finite-mass distance on cuts


@pytest.fixture(scope="module")
def trunc_pair():
    # same ambient grid, different truncation depths
    a = truncated_power_space(-2.0, 2, grid_n=256)
    b = truncated_power_space(-2.0, 5, grid_n=256)
    return a, b


def test_fm_zero_on_identical_cuts():
    sp = k_cut(glued_drift_space(1, grid_n=256), 1)
    value, terms = ikrw_fm(sp, sp, return_terms=True)
    assert value == 0.0
    assert all(v == 0.0 for v in terms.values())


def test_fm_symmetric(trunc_pair):
    a, b = trunc_pair
    va, ta = ikrw_fm(k_cut(a, 0), k_cut(b, 0), return_terms=True)
    vb, tb = ikrw_fm(k_cut(b, 0), k_cut(a, 0), return_terms=True)
    assert va == pytest.approx(vb, rel=1e-12)
    for key in ta:
        assert ta[key] == pytest.approx(tb[key], rel=1e-12, abs=1e-15)


def test_fm_rejects_infinite_and_empty_mass():
    limit = truncated_power_space(-2.0, None, grid_n=256)
    with pytest.raises(InfiniteMass):
        ikrw_fm(limit, limit)
    g = Grid1D.uniform(0.0, 1.0, 8)
    hollow = PointedSpace1D(grid=g, density=np.zeros(8), singular_points=(),
                            base_point=0.5)
    with pytest.raises(InvalidParams):
        ikrw_fm(hollow, hollow)


def test_fm_hausdorff_term_survives_cutting():
    # the finite members have no blow-up point, the limit does; every k-cut
    # remembers that, so the set term stays infinite at all depths
    member = truncated_power_space(-2.0, 3, grid_n=512)
    limit = truncated_power_space(-2.0, None, grid_n=512)
    for k in (0, 1):
        value, terms = ikrw_fm(k_cut(member, k), k_cut(limit, k),
                               return_terms=True)
        assert value == math.inf
        assert terms["hausdorff"] == math.inf
        assert math.isfinite(terms["wc"])
        assert math.isfinite(terms["log_mass"])


def test_extrinsic_gap_drops_only_the_set_term(trunc_pair):
    a, b = trunc_pair
    gap = extrinsic_gap(a, b, 0)
    value, terms = ikrw_fm(k_cut(a, 0), k_cut(b, 0), return_terms=True)
    # both members have empty singular set, so nothing else differs
    assert terms["hausdorff"] == 0.0
    assert gap == pytest.approx(value, rel=1e-12)

    member = truncated_power_space(-2.0, 3, grid_n=256)
    limit = truncated_power_space(-2.0, None, grid_n=256)
    assert math.isfinite(extrinsic_gap(member, limit, 0))


# ---------------------------------------------------------------------------
# Truncated series


def test_ikrw_zero_for_identical_spaces():
    sp = glued_drift_space(2, grid_n=256)
    value, tail = ikrw(sp, sp, k_bar=0, k_max=6)
    assert value == 0.0
    assert tail == 2.0 ** -6


def test_ikrw_positive_and_bounded(trunc_pair):
    a, b = trunc_pair
    value, tail = ikrw(a, b, k_bar=0, k_max=5)
    assert 0.0 < value <= sum(2.0 ** -k for k in range(0, 6))
    assert tail == 2.0 ** -5


def test_ikrw_rejects_bad_truncation(trunc_pair):
    a, b = trunc_pair
    with pytest.raises(InvalidParams):
        ikrw(a, b, k_bar=4, k_max=3)


# ---------------------------------------------------------------------------
# Convergent families


def test_truncated_power_member_fields():
    sp = truncated_power_space(-2.0, 4, R=2.0, grid_n=512)
    assert sp.singular_points == ()
    assert sp.cut_anchors == (2.0 ** -4,)
    assert math.isfinite(total_mass(sp))
    c = sp.grid.centers
    below = c < 2.0 ** -4
    assert np.all(sp.density[below] == 0.0)
    assert np.allclose(sp.density[~below], c[~below] ** -2.0)


def test_truncated_power_limit_blows_up():
    sp = truncated_power_space(-2.0, None, grid_n=512)
    assert sp.singular_points == (0.0,)
    assert total_mass(sp) == math.inf


def test_glued_drift_fields():
    n, delta = 2, 0.5
    sp = glued_drift_space(n, K=-2.0, N=-2.0, delta=delta, grid_n=512)
    L = 2.0 * math.pi
    s = L / 2.0 + delta * 2.0 ** -n
    assert sp.singular_points == (0.0, pytest.approx(s), pytest.approx(L))
    # the gluing point is always a grid edge
    assert np.min(np.abs(sp.grid.edges - s)) < 1e-12
    lim = glued_drift_space(None, K=-2.0, N=-2.0, delta=delta, grid_n=512)
    assert lim.singular_points[1] == pytest.approx(L / 2.0)


def test_glued_drift_builds_quietly_when_the_density_overflows():
    # cos^-318 passes the largest double on the cells next to a blow-up point
    sp = glued_drift_space(1, K=-2.0, N=-318.0, grid_n=64)
    assert np.isinf(sp.density[[0, -1]]).all()
    assert math.isfinite(total_mass(k_cut(sp, 0)))


@pytest.mark.parametrize("n", [None, 0, 3, 6])
def test_family_blow_ups_are_detected_exactly(n):
    # a truncated member's cut at 2^-n is a jump of V, not a blow-up
    for sp in (truncated_power_space(-2.0, n, grid_n=512),
               glued_drift_space(n, grid_n=256)):
        assert detect_singular_set(sp) == pytest.approx(sp.singular_points,
                                                        abs=1e-9)


def test_glued_drift_guards():
    with pytest.raises(InvalidParams):
        glued_drift_space(1, K=2.0, N=-2.0)
    with pytest.raises(InvalidParams):
        glued_drift_space(0, K=-2.0, N=-2.0, delta=5.0)  # s = pi + 5 > L


# ---------------------------------------------------------------------------
# Convergence tables


def _row(n, k, total):
    return ConvergenceRow(n=n, k=k, log_mass_gap=0.0, base_point_gap=0.0,
                          hausdorff_gap=0.0, wc_gap=total, total=total)


def test_convergence_table_columns():
    tab = ConvergenceTable(
        rows=(_row(1, 0, 0.5), _row(2, 0, 0.3), _row(3, 0, 0.31),
              _row(1, 1, 0.4), _row(2, 1, 0.2), _row(3, 1, 0.1)),
        series={1: 0.7, 2: 0.4, 3: 0.36})
    assert tab.column("total", 1) == [0.4, 0.2, 0.1]
    assert tab.decreasing("total", 1)
    assert not tab.decreasing("total", 0)


def test_convergence_experiment_glued_family():
    spec = {"family": "glued_drift", "K": -2.0, "N": -2.0, "delta": 0.5,
            "grid_n": 512, "n_range": (1, 3), "k_range": (0, 1)}
    table, suite = convergence_experiment(spec, run_cd=False)
    assert suite is None
    assert len(table.rows) == 6
    for k in (0, 1):
        haus = table.column("hausdorff_gap", k)
        assert haus == pytest.approx([0.5 * 2.0 ** -n for n in (1, 2, 3)])
        assert table.decreasing("total", k)
    vals = [table.series[n] for n in (1, 2, 3)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_convergence_experiment_cd_hook():
    spec = {"family": "truncated_power", "N": -2.0, "K": 0.0,
            "grid_n": 512, "n_range": (2, 3), "k_range": (0, 0)}
    table, suite = convergence_experiment(spec, run_cd=True, cd_samples=2,
                                          seed=3)
    # the member-vs-limit set term is infinite at every n
    assert all(r.hausdorff_gap == math.inf for r in table.rows)
    assert suite is not None
    assert suite.N == -1.0  # family claim is CD(K, N + 1) for the limit
    assert suite.passes()


@pytest.mark.parametrize("spec, make", [
    ({"family": "glued_drift", "K": -2.0, "N": -2.0, "delta": 0.5,
      "grid_n": 256, "n_range": (1, 3), "k_range": (0, 2)},
     lambda n: glued_drift_space(n, K=-2.0, N=-2.0, delta=0.5, grid_n=256)),
    ({"family": "truncated_power", "N": -2.0, "grid_n": 256,
      "n_range": (1, 3), "k_range": (0, 1)},
     lambda n: truncated_power_space(-2.0, n, grid_n=256)),
], ids=["glued_drift", "truncated_power"])
def test_convergence_series_is_the_ikrw_series(spec, make):
    table, _ = convergence_experiment(spec, run_cd=False)
    k0, k1 = spec["k_range"]
    limit = make(None)
    for n in range(spec["n_range"][0], spec["n_range"][1] + 1):
        assert table.series[n] == ikrw(make(n), limit, k0, k1)[0]


def test_convergence_experiment_regularity_guards():
    base = {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": 128}
    mixed = {"family": "custom_list", "k_range": [2, 2],
             "spaces": [dict(base, regularity_k=0), dict(base, regularity_k=1)],
             "limit": dict(base, regularity_k=0)}
    with pytest.raises(RegularityMismatch, match="mixed regularity"):
        convergence_experiment(mixed, run_cd=False)
    shifted = {"family": "custom_list", "k_range": [0, 1],
               "spaces": [dict(base, regularity_k=2)],
               "limit": dict(base, regularity_k=2)}
    with pytest.raises(RegularityMismatch, match="below the shared"):
        convergence_experiment(shifted, run_cd=False)
