"""Grids, model spaces, singular sets, and the k-cut machinery."""

import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate

from cdknlab import mmspace
from cdknlab.errors import (
    EmptyCut,
    InvalidParams,
    SingularPointOffGrid,
)
from cdknlab.cdcheck import regular_intervals
from cdknlab.ikrw import ikrw_fm
from cdknlab.mmspace import (
    Grid1D,
    ModelSpec,
    PointedSpace1D,
    _dist_to_set,
    _singular_adjacent_cells,
    build_model_space,
    carve,
    cut_weights,
    detect_singular_set,
    f_cut,
    k_cut,
    space_from_dict,
    space_summary,
    total_mass,
)

from conftest import flat_space


def test_grid_uniform_and_locate():
    g = Grid1D.uniform(0.0, 1.0, 10)
    assert g.n == 10
    assert g.a == 0.0 and g.b == 1.0
    np.testing.assert_allclose(g.widths, 0.1)


def test_grid_validation():
    with pytest.raises(InvalidParams):
        Grid1D.uniform(1.0, 0.0, 4)
    with pytest.raises(InvalidParams):
        Grid1D.uniform(0.0, 1.0, 1)
    with pytest.raises(InvalidParams):
        Grid1D(np.array([0.0, 0.5, 0.4, 1.0]))


def test_f_cut_plateau():
    np.testing.assert_allclose(f_cut(np.array([0.0, 0.5, 1.0])), 1.0)
    assert f_cut(1.5) == pytest.approx(0.5)
    np.testing.assert_allclose(f_cut(np.array([2.0, 3.0, 100.0])), 0.0)


def test_space_validation():
    g = Grid1D.uniform(0.0, 1.0, 4)
    with pytest.raises(InvalidParams):
        PointedSpace1D(grid=g, density=np.ones(3), singular_points=(),
                       base_point=0.5)
    with pytest.raises(InvalidParams):
        PointedSpace1D(grid=g, density=-np.ones(4), singular_points=(),
                       base_point=0.5)
    with pytest.raises(InvalidParams):
        PointedSpace1D(grid=g, density=np.ones(4), singular_points=(),
                       base_point=2.0)
    with pytest.raises(SingularPointOffGrid):
        PointedSpace1D(grid=g, density=np.ones(4), singular_points=(0.3,),
                       base_point=0.6)
    # cut anchors are bookkeeping marks, not required to sit on edges
    sp = PointedSpace1D(grid=g, density=np.ones(4), singular_points=(),
                        base_point=0.6, cut_anchors=(0.3,))
    assert sp.anchors == (0.3,)


def _assert_arrays_are_the_expressions(sp):
    """The grid's widths and centres and the space's cell masses equal the
    expressions they were once computed by on every read, bit for bit, and
    are one read-only array each, as are the edges and the density."""
    g, e = sp.grid, sp.grid.edges
    with np.errstate(invalid="ignore"):
        masses = sp.density * np.diff(e)
    for got, want in ((g.widths, np.diff(e)), (g.centers, 0.5 * (e[:-1] + e[1:])),
                      (sp.cell_masses, masses)):
        assert got.tobytes() == want.tobytes()
    assert g.widths is g.widths and g.centers is g.centers
    assert sp.cell_masses is sp.cell_masses
    for arr in (g.widths, g.centers, sp.cell_masses, g.edges, sp.density):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_grid_and_space_arrays_are_computed_once_and_read_only():
    rng = np.random.default_rng(11)
    for case in range(20):
        n = int(rng.integers(2, 60))
        g = (Grid1D.uniform(-3.0, 2.0, n) if case % 2 else
             Grid1D(np.cumsum(rng.uniform(1e-3, 1.0, n + 1)) - 7.0))
        dens = rng.uniform(0.0, 2.0, n)
        dens[rng.uniform(size=n) < 0.2] = 0.0
        dens[rng.uniform(size=n) < 0.2] = np.inf
        sp = PointedSpace1D(grid=g, density=dens, singular_points=(),
                            base_point=float(g.centers[n // 2]))
        _assert_arrays_are_the_expressions(sp)
        # every derived grid and space rebuilds its own arrays
        _assert_arrays_are_the_expressions(sp.scaled(3.0))
        _assert_arrays_are_the_expressions(replace(sp, density=dens[::-1]))
        fine = g.refined(3)
        _assert_arrays_are_the_expressions(
            PointedSpace1D(grid=fine, density=np.repeat(dens, 3),
                           singular_points=(), base_point=sp.base_point))
    # the arrays given are copied: a later write into them changes nothing
    e, dens = np.linspace(0.0, 1.0, 9), np.ones(8)
    sp = PointedSpace1D(grid=Grid1D(e), density=dens, singular_points=(),
                        base_point=0.5)
    e[1], dens[0] = 0.05, 7.0
    assert sp.grid.edges[1] == 0.125 and sp.density[0] == 1.0
    assert sp.cell_masses[0] == sp.grid.widths[0] == 0.125
    cos = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=64))
    assert np.isinf(cos.cell_masses).any()
    _assert_arrays_are_the_expressions(cos)
    _assert_arrays_are_the_expressions(k_cut(cos, 0))


def test_scaled_space(lebesgue):
    doubled = lebesgue.scaled(2.0)
    np.testing.assert_allclose(doubled.cell_masses, 2.0 * lebesgue.cell_masses)
    with pytest.raises(InvalidParams):
        lebesgue.scaled(0.0)


# ---------------------------------------------------------------------------
# model spaces


def test_cosh_model_mass_matches_quadrature():
    spec = ModelSpec(kind="cosh_n", K=1.0, N=-2.0, domain=(-3.0, 3.0), grid_n=2048)
    sp = build_model_space(spec)
    a = math.sqrt(0.5)
    want, _ = integrate.quad(lambda x: math.cosh(a * x) ** -2.0, -3.0, 3.0)
    assert total_mass(sp) == pytest.approx(want, rel=1e-5)
    assert sp.singular_points == ()
    assert not sp.domain_truncation or sp.truncated_tail_mass > 0


def test_power_model_blows_up_at_origin():
    sp = build_model_space(ModelSpec(kind="power_n", N=-2.0, domain=(0.0, 2.0)))
    assert sp.singular_points == (0.0,)
    assert math.isinf(sp.density[0])
    assert math.isinf(total_mass(sp))
    assert detect_singular_set(sp) == (0.0,)


def test_cos_model_domain_rules():
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=128))
    half = 0.5 * math.pi
    assert sp.grid.a == pytest.approx(-half) and sp.grid.b == pytest.approx(half)
    assert sp.singular_points == (-half, half)
    with pytest.raises(InvalidParams):
        build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0,
                                    domain=(-1.0, 1.0)))


def test_glued_cos_model_needs_J_to_divide_grid_n():
    with pytest.raises(InvalidParams, match="J=3, grid_n=64"):
        build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=3,
                                    grid_n=64))
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=3,
                                     grid_n=96))
    assert len(sp.singular_points) == 4


def test_glued_cos_model_interior_joints():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=512))
    assert len(sp.singular_points) == 3
    detected = detect_singular_set(sp)
    assert detected == pytest.approx(sp.singular_points)


def test_cauchy_truncation_bookkeeping():
    sp = build_model_space(ModelSpec(kind="cauchy", alpha=1.0,
                                     domain=(-5.0, 5.0), grid_n=1024))
    assert sp.domain_truncation
    assert total_mass(sp) + sp.truncated_tail_mass == pytest.approx(1.0, rel=1e-3)


def test_scaling_scales_the_truncated_tail():
    # the tail is reference mass cut off the domain, so it scales with it
    sp = build_model_space(ModelSpec(kind="cauchy", alpha=1.0,
                                     domain=(-4.0, 4.0), grid_n=256))
    assert sp.truncated_tail_mass == pytest.approx(0.156, abs=1e-3)
    for c in (3.0, 0.25):
        s = sp.scaled(c)
        assert s.truncated_tail_mass == c * sp.truncated_tail_mass
        assert total_mass(s) + s.truncated_tail_mass == pytest.approx(
            c * (total_mass(sp) + sp.truncated_tail_mass), rel=1e-14)
    inf_tail = build_model_space(ModelSpec(kind="power_n", N=-2.0,
                                           domain=(0.5, 4.0)))
    assert inf_tail.scaled(2.0).truncated_tail_mass == math.inf


def test_tail_reaching_a_singular_point_is_inf():
    specs = [
        ModelSpec(kind="power_n", N=-2.0, domain=(0.5, 4.0)),
        ModelSpec(kind="sinh_n", K=1.0, N=-2.0, domain=(0.5, 4.0)),
        ModelSpec(kind="glued_power_n", N=-2.0, domain=(0.5, 4.0)),
        ModelSpec(kind="glued_sinh_n", K=1.0, N=-2.0, domain=(-4.0, -0.5),
                  base_point=-2.0),
    ]
    for spec in specs:
        assert build_model_space(spec).truncated_tail_mass == math.inf
    # tails away from the blow-up point stay finite: 2 * int_4^inf x^-2
    sp = build_model_space(ModelSpec(kind="glued_power_n", N=-2.0,
                                     domain=(-4.0, 4.0), grid_n=256))
    assert sp.truncated_tail_mass == pytest.approx(0.5, rel=1e-9)


def test_model_parameter_guards():
    with pytest.raises(InvalidParams):
        build_model_space(ModelSpec(kind="cosh_n", K=-1.0, N=-2.0,
                                    domain=(-1.0, 1.0)))
    with pytest.raises(InvalidParams):
        build_model_space(ModelSpec(kind="power_n", N=-0.5, domain=(0.0, 1.0)))
    with pytest.raises(InvalidParams):
        build_model_space(ModelSpec(kind="power_n", N=-2.0))  # unbounded
    with pytest.raises(InvalidParams):
        build_model_space(ModelSpec(kind="wavelet", domain=(0.0, 1.0)))
    with pytest.raises(InvalidParams):
        # base point inside the blow-up cell
        build_model_space(ModelSpec(kind="power_n", N=-2.0, domain=(0.0, 2.0),
                                    base_point=1e-6))


def test_detect_singular_set_flat_and_strict(lebesgue):
    sp = build_model_space(ModelSpec(kind="cosh_n", K=1.0, N=-2.0,
                                     domain=(-2.0, 2.0)))
    assert detect_singular_set(sp) == ()
    assert detect_singular_set(lebesgue) == ()


# ---------------------------------------------------------------------------
# cuts and regular sets


@pytest.fixture
def power_space():
    return build_model_space(ModelSpec(kind="power_n", N=-2.0,
                                       domain=(0.0, 2.0), grid_n=512))


def test_cut_support_inside_regular_set(power_space):
    for k in (0, 1, 2):
        cut = k_cut(power_space, k)
        centers = power_space.grid.centers[cut.cell_masses > 0]
        ivs = regular_intervals(power_space, k)
        assert centers.size
        assert all(any(a <= c <= b for a, b in ivs) for c in centers)


def test_cut_masses_nondecreasing_in_k(power_space):
    prev = k_cut(power_space, 0).cell_masses
    for k in (1, 2, 3):
        cur = k_cut(power_space, k).cell_masses
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_cut_kills_singular_cells(power_space):
    cut = k_cut(power_space, 1)
    assert np.all(np.isfinite(cut.density))
    assert cut.density[0] == 0.0
    assert math.isfinite(total_mass(cut))
    # metadata survives the cut
    assert cut.singular_points == power_space.singular_points


def test_cut_weight_profile(power_space):
    # plateau of height 1 where |x-p| <= 2^k and d(x, S) >= 2^(1-k), zero
    # outside the 2^(k+1) ball and within 2^-k of the blow-up
    w0 = cut_weights(power_space, 0)
    c = power_space.grid.centers
    p = power_space.base_point
    np.testing.assert_allclose(w0[np.abs(c - p) >= 2.0], 0.0)
    np.testing.assert_allclose(w0[c <= 0.5], 0.0)
    w1 = cut_weights(power_space, 1)
    flat = (np.abs(c - p) <= 2.0) & (c >= 1.0)
    assert flat.sum() > 100
    np.testing.assert_allclose(w1[flat], 1.0)
    np.testing.assert_allclose(w1[c <= 0.25], 0.0)


def test_cut_k_below_regularity_raises():
    sp = build_model_space(ModelSpec(kind="power_n", N=-2.0, domain=(0.0, 2.0),
                                     regularity_k=1))
    with pytest.raises(InvalidParams):
        k_cut(sp, 0)


def test_empty_cut_raises():
    g = Grid1D.uniform(0.0, 1.0, 8)
    sp = PointedSpace1D(grid=g, density=np.ones(8),
                        singular_points=(0.0, 0.5, 1.0), base_point=0.25)
    with pytest.raises(EmptyCut):
        k_cut(sp, 0)


def test_cut_anchors_override_kill_factor():
    # with an explicit empty anchor tuple, nothing is killed near 2^-n
    g = Grid1D.uniform(0.0, 2.0, 64)
    dens = np.ones(64)
    marked = PointedSpace1D(grid=g, density=dens, singular_points=(),
                            base_point=1.0, cut_anchors=(0.25,))
    plain = PointedSpace1D(grid=g, density=dens, singular_points=(),
                           base_point=1.0)
    w_marked = cut_weights(marked, 2)
    w_plain = cut_weights(plain, 2)
    left = g.centers < 0.27
    assert np.all(w_marked[left] < 1.0)
    np.testing.assert_allclose(w_plain[left], 1.0)


# ---------------------------------------------------------------------------
# nearest-point lookup: oracles and scale


def _carve_reference(pieces, points, r):
    """Sequential reference: cut each point's neighbourhood from every piece."""
    for s in sorted(points):
        nxt = []
        for a, b in pieces:
            if s - r > a:
                nxt.append((a, min(b, s - r)))
            if s + r < b:
                nxt.append((max(a, s + r), b))
        pieces = nxt
    return list(pieces)


@pytest.mark.parametrize("x, points", [
    (np.linspace(-1.0, 2.0, 7), ()),
    (np.linspace(-1.0, 2.0, 31), (0.5, 0.5, 1.0, 1.0, 1.0)),
    (np.array([3.0, -2.0, 0.1, 0.7, 0.1]), (1.5, -0.25, 0.7, 0.0, 1.2)),
    (np.array(0.3), (1.0, 0.2, 0.5)),
    (np.array(-4.0), (7.0,)),
], ids=["empty_set", "duplicates", "unsorted", "scalar_x", "one_point"])
def test_dist_to_set_matches_dense_min(x, points):
    got = _dist_to_set(x, points)
    if len(points) == 0:
        want = np.full(x.shape, np.inf)
    else:
        want = np.min(np.abs(np.subtract.outer(x, points)), axis=-1)
    assert np.shape(got) == want.shape
    np.testing.assert_array_equal(got, want)


def test_dist_to_set_matches_dense_min_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = rng.normal(size=rng.integers(1, 40))
        x = rng.normal(size=rng.integers(1, 60)) * 2.0
        want = np.min(np.abs(x[:, None] - pts[None, :]), axis=1)
        np.testing.assert_array_equal(_dist_to_set(x, tuple(pts)), want)


def test_singular_adjacent_cells_match_dense_scan():
    g = Grid1D.uniform(0.0, 3.0, 48)
    tol = 1e-9 * 3.0
    for pts in [(), (0.0,), (3.0,), (1.0, 0.0, 1.0), (0.5, 0.51, 2.0 + 1e-10)]:
        want = set()
        for s in pts:
            for e in np.nonzero(np.abs(g.edges - s) <= tol)[0]:
                want |= {c for c in (e - 1, e) if 0 <= c < g.n}
        got = _singular_adjacent_cells(g, pts)
        assert got.dtype.kind == "i"
        assert got.tolist() == sorted(want)


def test_carve_matches_sequential_reference():
    rng = np.random.default_rng(2024)
    for case in range(2500):
        # ends and points on a coarse lattice, so that points hit piece ends
        # and neighbourhoods touch exactly
        lattice = case % 2 == 0
        def draw(n):
            v = rng.integers(-16, 17, size=n) / 8.0 if lattice else rng.uniform(-2, 2, n)
            return [float(t) if rng.random() < 0.5 else np.float64(t) for t in v]
        pieces = []
        for _ in range(rng.integers(0, 5)):
            a, b = sorted(draw(2))
            if a < b:
                pieces.append((a, b))
        rng.shuffle(pieces)  # unordered, possibly overlapping pieces
        points = draw(rng.integers(0, 9))
        if points and rng.random() < 0.3:
            points += points[: rng.integers(1, len(points) + 1)]  # duplicates
        r = [0.0, 0.125, 0.25, float(rng.uniform(0, 0.5))][case % 4]
        got = carve(pieces, points, r)
        want = _carve_reference(pieces, points, r)
        assert got == want, (pieces, points, r)
        assert [tuple(map(type, p)) for p in got] == [tuple(map(type, p)) for p in want]


def test_many_singular_points_build_cut_and_compare_quickly():
    t0 = time.perf_counter()
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0,
                                     J=65536, grid_n=262144))
    assert len(sp.singular_points) == 65537
    cut = k_cut(sp, 3)
    assert ikrw_fm(cut, cut) == 0.0
    pieces = carve([(sp.grid.a, sp.grid.b)], sp.singular_points, 0.25)
    assert len(pieces) == 65536
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# descriptors


_HALF = 0.5 * math.pi  # half an arch of cos_n with K = N


@pytest.mark.parametrize("kind, params, domain, singular, base", [
    ("cosh_n", {"K": 1.0, "N": -2.0}, (-3.0, 3.0), (), 0.0),
    ("glued_power_n", {"N": -2.0}, (-3.0, 3.0), (0.0,), 1.0),
    ("glued_sinh_n", {"K": 1.0, "N": -2.0}, (-3.0, 3.0), (0.0,), 1.0),
    ("cauchy", {"alpha": 1.0}, (-3.0, 3.0), (), 0.0),
    ("sinh_n", {"K": 1.0, "N": -2.0}, (0.0, 3.0), (0.0,), 1.0),
    ("power_n", {"N": -2.0}, (0.0, 3.0), (0.0,), 1.0),
    # cos kinds span their whole arches whatever the radius
    ("cos_n", {"K": -2.0, "N": -2.0}, (-_HALF, _HALF), (-_HALF, _HALF), 0.0),
    ("glued_cos_n", {"K": -2.0, "N": -2.0, "J": 2}, (_HALF, 5 * _HALF),
     (_HALF, 3 * _HALF, 5 * _HALF), 2 * _HALF),
])
def test_model_table_domain_singular_set_and_base_point(kind, params, domain,
                                                        singular, base):
    sp = space_from_dict({"kind": kind, "params": params,
                          "truncation_radius": 3.0, "grid_n": 64})
    assert (sp.grid.a, sp.grid.b) == pytest.approx(domain)
    assert sp.singular_points == pytest.approx(singular)
    assert sp.base_point == pytest.approx(base)


@pytest.mark.parametrize("kind, params", [
    ("power_n", {"N": -2.0}),
    ("sinh_n", {"K": 1.0, "N": -2.0}),
])
def test_glued_kind_mirrors_its_one_sided_model(kind, params):
    one = space_from_dict({"kind": kind, "params": params,
                           "truncation_radius": 3.0, "grid_n": 64})
    glued = space_from_dict({"kind": "glued_" + kind, "params": params,
                             "truncation_radius": 3.0, "grid_n": 128})
    x = one.grid.centers
    np.testing.assert_array_equal(glued.log_density(x), one.log_density(x))
    np.testing.assert_array_equal(glued.log_density(-x), one.log_density(x))
    # the positive half of the glued grid is the one-sided grid
    np.testing.assert_allclose(glued.density[64:], one.density, rtol=1e-12)


def test_detect_singular_set_is_quiet_when_masses_overflow():
    # cos^-270 is past the largest double near the arch ends
    sp = space_from_dict({"kind": "cos_n", "params": {"K": -2.0, "N": -270.0},
                          "grid_n": 64})
    assert detect_singular_set(sp) == pytest.approx(sp.singular_points, abs=1e-9)
    assert sp.singular_points == pytest.approx((-18.2510, 18.2510), abs=5e-5)


# from just below -1, where the mass near a blow-up gains only 2^-(N+1) per
# halving of the radius, to -270, where V overflows near every blow-up
_DETECT_N = (-1.02, -1.1, -1.3, -1.5, -2.0, -5.0, -20.0, -40.0, -270.0)


@pytest.mark.parametrize("kind, K", [
    ("cosh_n", 1.0), ("sinh_n", 1.0), ("power_n", 0.0), ("glued_sinh_n", 1.0),
    ("glued_power_n", 0.0), ("cos_n", -2.0), ("glued_cos_n", -2.0),
    ("cauchy", 0.0),
])
def test_detect_singular_set_finds_exactly_the_declared_blow_ups(kind, K):
    for grid_n in (64, 256):
        for N in _DETECT_N:
            params = {"alpha": -1.0 - N} if kind == "cauchy" else {"K": K, "N": N}
            sp = space_from_dict({"kind": kind, "params": params,
                                  "truncation_radius": 3.0, "grid_n": grid_n})
            assert detect_singular_set(sp) == pytest.approx(
                sp.singular_points, abs=1e-9), (N, grid_n)


def _arches(x, p):
    """cos(b (x - 2 h j)) over the J arches of glued_cos_n, j = 1 .. J."""
    b, h = math.sqrt(p["K"] / p["N"]), 0.5 * math.pi * math.sqrt(p["N"] / p["K"])
    return np.cos(b * (x - 2.0 * h * np.clip(np.round(x / (2.0 * h)), 1, p["J"])))


@pytest.mark.parametrize("N", [-1.5, -2.0, -40.0, -270.0])
@pytest.mark.parametrize("kind, params, v", [
    ("cosh_n", {"K": 1.0},
     lambda x, p: np.cosh(math.sqrt(-p["K"] / p["N"]) * x) ** p["N"]),
    ("sinh_n", {"K": 1.0},
     lambda x, p: np.abs(np.sinh(math.sqrt(-p["K"] / p["N"]) * x)) ** p["N"]),
    ("glued_sinh_n", {"K": 1.0},
     lambda x, p: np.abs(np.sinh(math.sqrt(-p["K"] / p["N"]) * x)) ** p["N"]),
    ("power_n", {}, lambda x, p: np.abs(x) ** p["N"]),
    ("glued_power_n", {}, lambda x, p: np.abs(x) ** p["N"]),
    ("cos_n", {"K": -2.0},
     lambda x, p: np.clip(np.cos(math.sqrt(p["K"] / p["N"]) * x), 0, None) ** p["N"]),
    ("glued_cos_n", {"K": -2.0, "J": 3},
     lambda x, p: np.clip(_arches(x, p), 0, None) ** p["N"]),
    ("cauchy", {},
     lambda x, p: (1.0 + x * x) ** (0.5 * p["N"]) / mmspace._cauchy_norm(p["alpha"])),
])
def test_log_density_is_the_log_of_the_density(kind, params, v, N):
    p = {**params, "N": N, "alpha": -1.0 - N}
    sp = space_from_dict({"kind": kind, "params": p, "truncation_radius": 3.0,
                          "grid_n": 96})
    x = np.linspace(sp.grid.a, sp.grid.b, 9601)
    with np.errstate(divide="ignore", over="ignore"):
        want = v(x, p)
        got = sp.log_density(x)
    normal = np.isfinite(want) & (want >= np.finfo(float).tiny)
    assert normal.sum() > 1000
    np.testing.assert_allclose(got[normal], np.log(want[normal]),
                               rtol=1e-13, atol=1e-13)


def test_space_from_dict_variants():
    sp = space_from_dict({"kind": "cos_n", "params": {"K": -2.0, "N": -2.0},
                          "grid_n": 64})
    assert sp.kind == "cos_n"
    sp = space_from_dict({"kind": "power_n", "params": {"N": -2.0},
                          "truncation_radius": 2.0, "grid_n": 64})
    assert sp.grid.b == pytest.approx(2.0)
    with pytest.raises(InvalidParams):
        space_from_dict({"kind": "cosh_n", "params": {"K": 1.0, "N": -2.0}})
    x = np.linspace(0.0, 1.0, 33)
    sp = space_from_dict({"kind": "custom_psi", "domain": [0.0, 1.0],
                          "psi_samples": list(np.zeros(32))})
    np.testing.assert_allclose(sp.density, 1.0)


def test_cauchy_descriptor_integrates_only_its_reported_tails(monkeypatch):
    calls = []
    quad = mmspace._quad

    def counted(fn, lo, hi):
        calls.append((lo, hi))
        return quad(fn, lo, hi)

    monkeypatch.setattr(mmspace, "_quad", counted)
    d = {"kind": "cauchy", "params": {"alpha": 1}, "truncation_radius": 4,
         "grid_n": 64}
    sp = space_from_dict(d)
    want = build_model_space(ModelSpec(kind="cauchy", alpha=1.0,
                                       domain=(-4.0, 4.0), grid_n=64))
    # the normalisation is in closed form, and the tails wait to be read
    assert calls == []
    assert np.array_equal(sp.density, want.density)
    first = space_summary(sp)
    # one integral per cut-off tail, on the first read only, shared with
    # the spaces made from this one
    tails = [(-math.inf, -4.0), (4.0, math.inf)]
    assert calls == tails
    assert space_summary(sp) == first
    assert k_cut(sp, 1).truncated_tail_mass == first["truncated_tail_mass"]
    assert calls == tails
    assert first == space_summary(want)


@pytest.mark.parametrize("alpha", [1e-300, 1e-10, 0.01, 0.5, 1.0, 2.0, 3.0,
                                   100.0, 1999.0, 2001.0, 1e4, 1e10, 1e300])
def test_cauchy_normalisation_is_the_closed_form(alpha):
    # sqrt(pi) Gamma(alpha / 2) / Gamma((1 + alpha) / 2), by mpmath with
    # digits to spare for the cancelling loggammas; both sides of the switch
    # from lgamma to the asymptotic series at s = 1000
    with mpmath.workdps(340):
        a = mpmath.mpf(alpha)
        want = mpmath.sqrt(mpmath.pi) * mpmath.exp(
            mpmath.loggamma(a / 2) - mpmath.loggamma((1 + a) / 2))
    assert mmspace._cauchy_norm(alpha) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("alpha, R", [(1.0, 4.0), (0.5, 4.0), (10.0, 50.0),
                                      (100.0, 4.0), (1000.0, 1.0)])
def test_cauchy_tail_is_integrated_to_a_relative_tolerance(alpha, R):
    # both tails together are the regularised incomplete beta
    # I_{1/(1+R^2)}(alpha/2, 1/2); an absolute tolerance of 1.5e-8 passed
    # the tiny ones 4e-5 off (alpha 10, R 50 and alpha 1000, R 1)
    sp = build_model_space(ModelSpec(kind="cauchy", alpha=alpha,
                                     domain=(-R, R), grid_n=64))
    want = mpmath.betainc(mpmath.mpf(alpha) / 2, 0.5, 0,
                          1 / (1 + mpmath.mpf(R) ** 2), regularized=True)
    assert sp.truncated_tail_mass == pytest.approx(float(want), rel=1e-11)


@pytest.mark.parametrize("alpha, match", [
    (5e-324, "too small to normalise"), (1e-320, "too small to normalise"),
    (math.inf, "finite alpha"),
    # the normaliser is finite, but the density underflows at every centre
    (1e308, "underflows to 0 on every cell"),
    (1e10, "underflows to 0 on every cell")])
def test_cauchy_alpha_out_of_range_is_invalid(alpha, match):
    with pytest.raises(InvalidParams, match=match):
        build_model_space(ModelSpec(kind="cauchy", alpha=alpha,
                                    domain=(-4.0, 4.0), grid_n=64))


def test_space_summary_fields(power_space):
    s = space_summary(power_space)
    assert s["kind"] == "power_n"
    assert s["total_mass"] == "inf"
    assert s["singular_points"] == [0.0]
    assert s["grid_n"] == 512
