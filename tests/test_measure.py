"""Entropy functional, its Legendre-type dual form, and measure constructors.

The scalar oracle below recomputes S_N term by term with plain math.pow so
that the vectorized log-space implementation is checked against an
independent route, including the infinite-mass and zero-mass conventions.
"""

import math
import re

import numpy as np
import pytest
from scipy import optimize

from cdknlab.errors import DomainError, InvalidParams, InvalidTestFunction
from cdknlab.measure import (
    DiscreteMeasure,
    bump,
    conjugate_coefficient,
    entropy_from_masses,
    f_star,
    legendre_entropy,
    measure_from_dict,
    mixture,
    optimal_test_function,
    radon_nikodym,
    renyi_entropy,
    uniform_block,
)
from cdknlab.mmspace import Grid1D, PointedSpace1D

from conftest import flat_space, random_measure


def entropy_oracle(w, m, N):
    """Termwise S_N = sum w^(1-1/N) m^(1/N) with explicit edge conventions."""
    total = 0.0
    for wi, mi in zip(w, m):
        if wi == 0.0:
            continue
        if mi == 0.0:
            return math.inf
        if math.isinf(mi):
            continue  # m^(1/N) -> 0 for N < 0
        total += math.pow(wi, 1.0 - 1.0 / N) * math.pow(mi, 1.0 / N)
    return total


# ---------------------------------------------------------------------------
# Renyi entropy


def test_entropy_matches_scalar_oracle(rng):
    g = Grid1D.uniform(-1.0, 2.0, 64)
    m = rng.uniform(0.1, 3.0, 64)
    space = PointedSpace1D(grid=g, density=m / g.widths, singular_points=(),
                           base_point=0.0)
    for N in (-0.3, -1.0, -2.0, -7.5):
        for sparsity in (0.0, 0.5):
            mu = random_measure(g, rng, sparsity=sparsity)
            want = entropy_oracle(mu.masses, space.cell_masses, N)
            got = renyi_entropy(mu, space, N)
            assert got == pytest.approx(want, rel=1e-12)


def test_entropy_edge_conventions():
    g = Grid1D.uniform(0.0, 1.0, 4)
    m = np.array([1.0, math.inf, 1.0, 0.0])
    w = np.array([0.25, 0.25, 0.25, 0.0])
    # infinite reference mass contributes nothing, zero mass only counts
    # where the measure actually sits
    assert entropy_from_masses(w, m, -2.0) == pytest.approx(
        2 * 0.25 ** 1.5, rel=1e-14)
    w_bad = np.array([0.25, 0.0, 0.25, 0.5])
    assert entropy_from_masses(w_bad, m, -2.0) == math.inf
    assert entropy_from_masses(np.zeros(4), m, -2.0) == 0.0


def test_entropy_requires_negative_N(lebesgue):
    mu = uniform_block(lebesgue.grid, 0.2, 0.6)
    for N in (0.0, 1.0):
        with pytest.raises(DomainError):
            renyi_entropy(mu, lebesgue, N)


def test_entropy_scaling_law(rng):
    """S against the c-scaled reference picks up the factor c^(1/N)."""
    space = flat_space(n=128)
    mu = random_measure(space.grid, rng, sparsity=0.3)
    for N in (-0.5, -2.0, -5.0):
        base = renyi_entropy(mu, space, N)
        for c in (0.5, 2.0, 10.0):
            scaled = renyi_entropy(mu, space.scaled(c), N)
            assert scaled == pytest.approx(c ** (1.0 / N) * base, rel=1e-12)


def test_entropy_minimized_by_reference_splitting():
    # spreading a fixed budget over more reference mass lowers S (N < 0)
    g = Grid1D.uniform(0.0, 1.0, 100)
    space = flat_space(n=100)
    narrow = uniform_block(g, 0.4, 0.5)
    wide = uniform_block(g, 0.1, 0.9)
    for N in (-0.5, -2.0):
        assert renyi_entropy(wide, space, N) < renyi_entropy(narrow, space, N)


def test_entropy_overflow_becomes_inf():
    # rho^(1-1/N) overflows the float range for N close to 0-; the sum must
    # come back as inf, not raise and not wrap around
    g = Grid1D.uniform(0.0, 1.0, 10)
    space = flat_space(n=10)
    mu = uniform_block(g, 0.45, 0.55)
    val = renyi_entropy(mu, space, -1e-3)
    assert math.isinf(val) and val > 0


def test_entropy_over_nprimes_equals_one_nprime_at_a_time(rng):
    # one value per N', each bit-identical to the call with that N' alone,
    # including +inf (overflow near N' = 0, a charged zero-mass cell) and 0
    nps = np.array([-2.0, -1.0, -0.37, -0.05, -1e-3])
    m = rng.uniform(0.1, 3.0, 64)
    m[5] = math.inf
    m[9] = 0.0
    atom = np.zeros(64)
    atom[0] = 1e3
    charges_null = np.zeros(64)
    charges_null[9] = 0.5
    spread = rng.uniform(0.0, 1.0, 64) * (rng.uniform(size=64) < 0.6)
    spread[9] = 0.0
    for w in (spread, atom, charges_null, np.zeros(64)):
        got = entropy_from_masses(w, m, nps)
        assert isinstance(got, np.ndarray) and got.shape == nps.shape
        assert got.tolist() == [entropy_from_masses(w, m, float(n)) for n in nps]
    assert np.isinf(entropy_from_masses(atom, m, nps)).tolist() == [False] * 4 + [True]
    assert entropy_from_masses(charges_null, m, nps).tolist() == [math.inf] * 5
    assert entropy_from_masses(np.zeros(64), m, nps).tolist() == [0.0] * 5
    # each value is the sum of exp(lw + (lm - lw) / N') over the charged cells
    on = spread > 0
    with np.errstate(divide="ignore", over="ignore"):
        lw, lm = np.log(spread[on]), np.log(m[on])
        want = [float(np.sum(np.exp(lw + (lm - lw) / n))) for n in nps]
    assert entropy_from_masses(spread, m, nps).tolist() == want
    assert math.isfinite(want[3]) and want[3] > 1e10
    g = Grid1D.uniform(0.0, 1.0, 64)
    space = PointedSpace1D(grid=g, density=m / g.widths, singular_points=(),
                           base_point=0.5)
    mu = DiscreteMeasure(g, np.where(np.isfinite(m) & (m > 0), spread, 0.0))
    got = renyi_entropy(mu, space, nps)
    assert got.tolist() == [renyi_entropy(mu, space, float(n)) for n in nps]
    with pytest.raises(DomainError):
        renyi_entropy(mu, space, np.array([-1.0, 0.0]))
    # (rows, n) masses give one entropy, or one row of them, per row, each
    # bit-identical to the call on that row's measure
    rows = np.stack([spread, atom, charges_null, np.zeros(64)])
    for N in (-2.0, -1e-3, nps):
        got = renyi_entropy(rows, space, N)
        assert [np.asarray(v).tobytes() for v in got] == [
            np.asarray(renyi_entropy(DiscreteMeasure(g, w), space, N)).tobytes()
            for w in rows]
    with pytest.raises(DomainError):
        renyi_entropy(rows, space, 0.0)


def test_entropy_over_slices_equals_one_slice_at_a_time(rng):
    # (T, n) masses against one reference: each row equals the 1-D call on
    # it, for one N' and for an array of them, with uncharged cells, a
    # charged zero-mass cell (inf), an overflow near N' = 0 (inf) and an
    # all-zero row (0)
    nps = np.array([-2.0, -1.0, -0.37, -0.05, -1e-3])
    m = rng.uniform(0.1, 3.0, 64)
    m[5] = math.inf
    m[9] = 0.0
    w = rng.uniform(0.0, 1.0, (6, 64)) * (rng.uniform(size=(6, 64)) < 0.6)
    w[:, 9] = 0.0
    w[1, 9] = 0.5  # charges the zero-mass cell
    w[2] = 0.0
    w[3, :] = 0.0
    w[3, 0] = 1e3  # overflows for N' = -1e-3 only
    w[4, 5] = 0.25  # charges the infinite reference cell, which adds 0
    for N in (nps, -0.37, -1e-3):
        got = entropy_from_masses(w, m, N)
        assert isinstance(got, np.ndarray) and got.shape == (6,) + np.shape(N)
        want = [entropy_from_masses(row, m, N) for row in w]
        assert [np.asarray(v).tolist() for v in want] == got.tolist()
        # bit for bit: the 1-D call takes log m at its charged cells only
        assert np.array(want).tobytes() == got.tobytes()
    got = entropy_from_masses(w, m, nps)
    assert got[1].tolist() == [math.inf] * 5 and got[2].tolist() == [0.0] * 5
    assert np.isinf(got[3]).tolist() == [False] * 4 + [True]
    assert np.isfinite(got[[0, 4, 5], :4]).all()


# ---------------------------------------------------------------------------
# Legendre-type dual form


def test_conjugate_coefficient_known_values():
    # N = -1: f(x) = x^2, whose conjugate is y^2/4
    assert conjugate_coefficient(-1.0) == pytest.approx(0.25, rel=1e-15)
    # N = -2: f(x) = x^(3/2), conjugate 4/27 y^3
    assert conjugate_coefficient(-2.0) == pytest.approx(4.0 / 27.0, rel=1e-15)
    assert f_star(2.0, -2.0) == pytest.approx(4.0 / 27.0 * 8.0, rel=1e-14)


def test_conjugate_matches_numeric_sup(rng):
    """C_N |y|^(1-N) must equal sup_x (x y - x^(1-1/N)) found numerically."""
    for _ in range(20):
        N = float(-rng.uniform(0.2, 6.0))
        y = float(rng.uniform(0.05, 4.0))
        p = 1.0 - 1.0 / N

        def neg(x):
            return -(x * y - x ** p)

        res = optimize.minimize_scalar(neg, bounds=(1e-12, 1e6),
                                       method="bounded",
                                       options={"xatol": 1e-14})
        assert f_star(y, N) == pytest.approx(-res.fun, rel=1e-8)


def test_optimal_test_function_attains_equality(rng):
    # F* rho - f*(F*) = rho^(1-1/N) pointwise, so the sup is attained
    rho = rng.uniform(0.01, 5.0, 50)
    for N in (-0.5, -2.0, -4.0):
        F = optimal_test_function(rho, N)
        lhs = F * rho - f_star(F, N)
        np.testing.assert_allclose(lhs, rho ** (1.0 - 1.0 / N), rtol=1e-12)


def test_legendre_equals_entropy_at_optimum(rng):
    space = flat_space(n=80)
    for N in (-1.0, -2.5):
        mu = random_measure(space.grid, rng, sparsity=0.4)
        rho = radon_nikodym(mu, space).values
        S = renyi_entropy(mu, space, N)
        dual = legendre_entropy(mu, space, N, [optimal_test_function(rho, N)])
        assert dual == pytest.approx(S, rel=1e-12)


def test_legendre_never_exceeds_entropy(rng):
    space = flat_space(n=60)
    mu = random_measure(space.grid, rng)
    for N in (-0.8, -3.0):
        S = renyi_entropy(mu, space, N)
        fams = [rng.uniform(0.0, 3.0, 60) for _ in range(25)]
        assert legendre_entropy(mu, space, N, fams) <= S + 1e-12


def test_legendre_rejects_bad_test_functions():
    g = Grid1D.uniform(0.0, 1.0, 8)
    space = PointedSpace1D(grid=g, density=np.ones(8), singular_points=(0.0,),
                           base_point=0.5)
    mu = uniform_block(g, 0.3, 0.9)
    with pytest.raises(InvalidTestFunction):
        legendre_entropy(mu, space, -2.0, [np.ones(7)])
    bad = np.ones(8)
    bad[3] = math.nan
    with pytest.raises(InvalidTestFunction):
        legendre_entropy(mu, space, -2.0, [bad])
    charges_singular = np.ones(8)  # cell 0 touches the singular point
    with pytest.raises(InvalidTestFunction):
        legendre_entropy(mu, space, -2.0, [charges_singular])
    ok = np.ones(8)
    ok[0] = 0.0
    assert math.isfinite(legendre_entropy(mu, space, -2.0, [ok]))


# ---------------------------------------------------------------------------
# constructors


def test_uniform_block_basic():
    g = Grid1D.uniform(0.0, 1.0, 50)
    mu = uniform_block(g, 0.205, 0.595)
    assert mu.total_mass == pytest.approx(1.0, rel=1e-14)
    sup = g.centers[mu.support]
    assert sup.min() >= 0.18 and sup.max() <= 0.62
    with pytest.raises(InvalidParams):
        uniform_block(g, 0.7, 0.4)


def test_bump_and_mixture():
    g = Grid1D.uniform(-1.0, 1.0, 64)
    b = bump(g, 0.0, 0.3)
    assert b.total_mass == pytest.approx(1.0)
    assert np.average(g.centers, weights=b.masses) == pytest.approx(0.0, abs=1e-12)
    mix = mixture([(0.25, b), (0.75, uniform_block(g, -0.8, -0.2))])
    assert mix.total_mass == pytest.approx(1.0)
    assert np.average(g.centers, weights=mix.masses) < 0.0
    with pytest.raises(InvalidParams):
        mixture([])


def test_mixture_refuses_parts_on_grids_with_other_edges():
    a, b = Grid1D.uniform(0.0, 1.0, 8), Grid1D.uniform(5.0, 6.0, 8)
    with pytest.raises(InvalidParams, match="different grids"):
        mixture([(1.0, uniform_block(a, 0.0, 0.25)),
                 (1.0, uniform_block(b, 5.75, 6.0))])
    # a second grid object with the same edges is the same grid
    twin = Grid1D(a.edges.copy())
    mix = mixture([(1.0, uniform_block(a, 0.0, 0.25)),
                   (1.0, uniform_block(twin, 0.75, 1.0))])
    assert mix.grid is a
    assert mix.masses.tolist() == [0.25, 0.25, 0, 0, 0, 0, 0.25, 0.25]


def test_measure_from_dict_roundtrip():
    g = Grid1D.uniform(0.0, 2.0, 40)
    spec = {"type": "mixture", "parts": [
        {"type": "uniform_block", "a": 0.2, "b": 0.6, "weight": 1.0},
        {"type": "bump", "center": 1.4, "width": 0.2, "weight": 1.0},
    ]}
    mu = measure_from_dict(g, spec)
    direct = mixture([(1.0, uniform_block(g, 0.2, 0.6)),
                      (1.0, bump(g, 1.4, 0.2))])
    np.testing.assert_allclose(mu.masses, direct.masses, rtol=1e-14)
    with pytest.raises(InvalidParams):
        measure_from_dict(g, {"type": "nope"})


def _measure_as_written(grid, d):
    """measure_from_dict of one spec as it was written before its batch
    form: each shape and each mixture builds its own DiscreteMeasure."""
    kind = d["type"]
    if kind == "uniform_block":
        a, b = float(d["a"]), float(d["b"])
        if not a < b:
            raise InvalidParams("block needs a < b")
        overlap = np.maximum(np.minimum(grid.edges[1:], b)
                             - np.maximum(grid.edges[:-1], a), 0.0)
        if overlap.sum() <= 0:
            raise InvalidParams("block does not meet the grid")
        return DiscreteMeasure(grid, overlap / overlap.sum())
    if kind == "bump":
        center, width = float(d["center"]), float(d["width"])
        if width <= 0:
            raise InvalidParams("bump needs width > 0")
        vals = np.maximum(0.0, 1.0 - np.abs(grid.centers - center) / width) * grid.widths
        if vals.sum() <= 0:
            raise InvalidParams("bump does not meet the grid")
        return DiscreteMeasure(grid, vals / vals.sum())
    if kind == "mixture":
        parts = [(float(p["weight"]), _measure_as_written(grid, p)) for p in d["parts"]]
        if not parts:
            raise InvalidParams("empty mixture")
        total_w = sum(w for w, _ in parts)
        if total_w <= 0:
            raise InvalidParams("mixture weights must be positive")
        masses = np.zeros(grid.n)
        for w, m in parts:
            masses += (w / total_w) * m.masses / m.total_mass
        return DiscreteMeasure(grid, masses)
    raise InvalidParams(f"unknown measure type {kind!r}")


def _random_spec(rng, depth=0):
    """A spec of any type, now and then one that makes no measure (each
    InvalidParams of _measure_as_written) or that raises another error."""
    u = rng.uniform(-1.0, 3.0, 2)
    kind = int(rng.integers(4 if depth < 2 else 2))
    if kind == 0:
        d = {"type": "uniform_block", "a": u[0], "b": u[0] + rng.uniform(-0.1, 0.6)}
    elif kind == 1:
        d = {"type": "bump", "center": u[0], "width": rng.choice(
            [rng.uniform(-0.2, 0.5), 0.01, math.nan])}
    elif kind == 2:
        parts = [_random_spec(rng, depth + 1) for _ in range(int(rng.integers(4)))]
        d = {"type": "mixture", "parts": [
            dict(p, weight=rng.uniform(-1.0, 1.0)) for p in parts]}
    else:
        d = {"type": "nope"}
    if kind == 2 and d["parts"] and rng.uniform() < 0.15:
        d["parts"][-1]["weight"] = "heavy"  # a ValueError
    if rng.uniform() < 0.02:
        d.pop("type")  # a KeyError
    return d


def _outcome(build):
    """The mass bytes of the measure built, or the type and message raised."""
    try:
        return build().masses.tobytes()
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return type(e), str(e)


def test_measure_from_dict_batch_rows_equal_the_one_spec_build():
    # one spec gives what it gave before its batch form; in a batch, each
    # row is bit for bit that spec's measure alone, NaN where that raises
    # InvalidParams, and the first other error raises, in spec order
    rng = np.random.default_rng(11)
    grids = (Grid1D.uniform(0.0, 2.0, 40),
             Grid1D(np.r_[0.0, np.sort(rng.uniform(0.0, 2.0, 29)), 2.0]))
    seen = set()
    for g in grids:
        specs = [_random_spec(rng) for _ in range(400)]
        want = [_outcome(lambda d=d: _measure_as_written(g, d)) for d in specs]
        assert [_outcome(lambda d=d: measure_from_dict(g, d)) for d in specs] == want
        seen |= {w[1] if isinstance(w, tuple) else "ok" for w in want}
        others = [w for w in want if isinstance(w, tuple) and w[0] is not InvalidParams]
        with pytest.raises(others[0][0], match=re.escape(others[0][1])):
            measure_from_dict(g, specs)
        kept = [(d, w) for d, w in zip(specs, want) if w not in others]
        masses = measure_from_dict(g, [d for d, _ in kept])
        assert masses.shape == (len(kept), g.n)
        assert [w if isinstance(w, bytes) else True for _, w in kept] == \
            [np.isnan(row).all() or row.tobytes() for row in masses]
    assert {"ok", "block needs a < b", "block does not meet the grid",
            "bump needs width > 0", "bump does not meet the grid", "empty mixture",
            "mixture weights must be positive", "masses must be finite and nonnegative",
            "unknown measure type 'nope'", "'type'",
            "could not convert string to float: 'heavy'"} == seen
    assert measure_from_dict(grids[0], []).shape == (0, 40)


def test_explicit_and_normalized():
    g = Grid1D.uniform(0.0, 1.0, 5)
    mu = DiscreteMeasure(g, [0.0, 1.0, 2.0, 1.0, 0.0])
    assert mu.total_mass == pytest.approx(4.0)
    assert mu.normalized().total_mass == pytest.approx(1.0, abs=1e-9)
    assert list(mu.support) == [1, 2, 3]


def test_measure_fields_are_computed_once_and_read_only(rng):
    g = Grid1D.uniform(0.0, 1.0, 40)
    given = rng.uniform(0.0, 1.0, 40) * (rng.uniform(size=40) < 0.5)
    before = given.copy()
    mu = DiscreteMeasure(g, given)
    # a copy of the caller's array: neither aliased nor made read-only
    assert mu.masses is not given and not np.shares_memory(mu.masses, given)
    assert given.flags.writeable
    given[:] = 7.0
    assert mu.masses.tobytes() == before.tobytes()
    for arr in (mu.masses, mu.support):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the cached fields are the ones computed afresh, and every read the same
    assert mu.support.tolist() == np.nonzero(before > 0)[0].tolist()
    assert mu.total_mass == float(np.sum(before))
    assert mu.support is mu.support and type(mu.total_mass) is float
    assert DiscreteMeasure(g, np.zeros(40)).support.size == 0
    assert DiscreteMeasure(g, mu.masses).masses.flags.writeable is False


def test_density_and_radon_nikodym(lebesgue):
    mu = uniform_block(lebesgue.grid, 0.25, 0.75)
    rho = radon_nikodym(mu, lebesgue)
    inside = (lebesgue.grid.centers > 0.3) & (lebesgue.grid.centers < 0.7)
    np.testing.assert_allclose(rho.values[inside], 2.0, rtol=1e-12)


def test_radon_nikodym_compares_edges_only_on_another_grid(lebesgue, monkeypatch):
    # a measure built on the space's own grid object skips the edge check;
    # an equal copy passes it and a different grid fails it
    calls = []
    allclose = np.allclose
    monkeypatch.setattr(np, "allclose", lambda *a, **k: calls.append(1) or allclose(*a, **k))
    mu = uniform_block(lebesgue.grid, 0.25, 0.75)
    want = radon_nikodym(mu, lebesgue).values
    assert calls == []
    copy = DiscreteMeasure(Grid1D(lebesgue.grid.edges.copy()), mu.masses)
    assert np.array_equal(radon_nikodym(copy, lebesgue).values, want)
    assert calls == [1]
    moved = DiscreteMeasure(Grid1D(lebesgue.grid.edges + 0.5), mu.masses)
    with pytest.raises(InvalidParams):
        radon_nikodym(moved, lebesgue)
    other = DiscreteMeasure(Grid1D(np.linspace(0.0, 1.0, 5)), [0.25] * 4)
    with pytest.raises(InvalidParams):
        radon_nikodym(other, lebesgue)
