"""Grid bookkeeping: locate/round-trip, rounding ties, antipodal lookups."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pai.notch import TWO_PI, NotchGrid, antipolar_notch, locate, nearest_notch

# the explicit-grid walkthrough example used across several tests
EXPLICIT = [0.0, 0.5, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 4.8, 5.4, 6.0]


@st.composite
def explicit_grids(draw):
    n = draw(st.integers(min_value=5, max_value=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return NotchGrid.explicit(oracles.random_explicit_angles(rng, n))


# ------------------------------------------------------------ construction


def test_uniform_grid_shape():
    g = NotchGrid.uniform(7)
    assert g.is_uniform and g.bits == 7
    assert g.size == 128 and len(g) == 128
    assert g.delta_max == pytest.approx(TWO_PI / 128)
    assert g.angle(0) == 0.0
    assert g.angle(3) == pytest.approx(3 * TWO_PI / 128)
    assert g.angle(130) == g.angle(2)  # indices wrap
    assert g.spacing(127) == pytest.approx(g.delta_max)


def test_uniform_bits_bounds():
    for bad in (1, 0, -3, 31):
        with pytest.raises(ValueError):
            NotchGrid.uniform(bad)
    NotchGrid.uniform(2)
    NotchGrid.uniform(30)


def test_explicit_grid_validation():
    with pytest.raises(ValueError):
        NotchGrid.explicit([0.0, 1.0, 2.0])  # too few
    with pytest.raises(ValueError):
        NotchGrid.explicit([0.0, 2.0, 1.0, 3.0])  # unsorted
    with pytest.raises(ValueError):
        NotchGrid.explicit([0.0, 1.0, 1.0, 2.0])  # duplicate
    with pytest.raises(ValueError):
        NotchGrid.explicit([0.0, 1.0, 2.0, TWO_PI])  # out of range
    with pytest.raises(ValueError):
        NotchGrid.explicit([-0.1, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        NotchGrid.explicit([0.0, 2.0, 4.0, 6.0])  # gap above pi/2
    with pytest.raises(ValueError):
        NotchGrid.explicit([0.0, float("nan"), 1.0, 2.0])


def test_explicit_grid_spacing_and_wrap():
    g = NotchGrid.explicit(EXPLICIT)
    assert not g.is_uniform and g.bits is None
    assert g.size == 11
    assert g.spacing(0) == pytest.approx(0.5)
    assert g.spacing(10) == pytest.approx(EXPLICIT[0] + TWO_PI - 6.0)
    assert g.delta_max == pytest.approx(0.7)
    np.testing.assert_allclose(g.angles_array(), EXPLICIT)


def test_grid_from_json(tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(EXPLICIT))
    assert NotchGrid.from_json(bare).size == 11

    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps({"angles": EXPLICIT}))
    assert NotchGrid.from_json(keyed).size == 11

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"notches": EXPLICIT}))
    with pytest.raises(ValueError):
        NotchGrid.from_json(bad)
    notalist = tmp_path / "notalist.json"
    notalist.write_text(json.dumps("oops"))
    with pytest.raises(ValueError):
        NotchGrid.from_json(notalist)


# ----------------------------------------------------------------- locate


def test_locate_on_and_between_notches():
    g = NotchGrid.uniform(7)
    d = g.delta_max
    on = locate(g, 3 * d)
    assert (on.k, on.theta, on.lam) == (3, 0.0, 0.0)
    mid = locate(g, 3.5 * d)
    assert mid.k == 3
    assert mid.lam == pytest.approx(0.5)
    assert mid.delta_k == pytest.approx(d)


def test_locate_reduces_modulo_the_circle():
    g = NotchGrid.uniform(5)
    d = g.delta_max
    assert locate(g, -d).k == g.size - 1
    assert locate(g, -d).theta == 0.0
    assert locate(g, 5 * TWO_PI + 1.5 * d).k == 1
    assert locate(g, -1e-18).k == 0  # reduces to 2*pi, then snaps to 0
    assert locate(g, -1e-18).theta == 0.0
    with pytest.raises(ValueError):
        locate(g, float("inf"))


def test_locate_snaps_within_tolerance():
    g = NotchGrid.uniform(7)
    d = g.delta_max
    near_low = locate(g, 3 * d + 1e-14)
    assert (near_low.k, near_low.theta) == (3, 0.0)
    near_high = locate(g, 4 * d - 1e-14)
    assert (near_high.k, near_high.theta) == (4, 0.0)


def test_locate_explicit_walkthrough():
    g = NotchGrid.explicit(EXPLICIT)
    pos = locate(g, 0.9)
    assert pos.k == 1
    assert pos.theta == pytest.approx(0.4)
    assert pos.delta_k == pytest.approx(0.7)
    assert pos.lam == pytest.approx(0.4 / 0.7)
    wrap = locate(g, 6.1)  # inside the wrap-around gap
    assert wrap.k == 10
    assert wrap.theta == pytest.approx(0.1)


@given(
    grid=st.one_of(
        st.integers(min_value=2, max_value=16).map(NotchGrid.uniform),
        explicit_grids(),
    ),
    target=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=150)
def test_locate_round_trip(grid, target):
    pos = locate(grid, target)
    assert 0 <= pos.k < grid.size
    assert 0.0 <= pos.lam < 1.0
    assert 0.0 <= pos.theta < pos.delta_k
    rebuilt = grid.angle(pos.k) + pos.theta
    err = (rebuilt - target) % TWO_PI
    assert min(err, TWO_PI - err) < 1e-12


def test_locate_round_trip_bulk(rng):
    grids = [NotchGrid.uniform(3), NotchGrid.uniform(12), NotchGrid.explicit(EXPLICIT)]
    targets = rng.uniform(-4 * TWO_PI, 4 * TWO_PI, size=100_000)
    per_grid = len(targets) // len(grids)
    worst = 0.0
    for i, grid in enumerate(grids):
        t = targets[i * per_grid : (i + 1) * per_grid]
        pos = locate(grid, t)
        err = (grid.angle(pos.k) + pos.theta - t) % TWO_PI
        worst = max(worst, np.minimum(err, TWO_PI - err).max())
    assert worst < 1e-12


# --------------------------------------------------------------- rounding


def test_nearest_notch_tie_rounds_up():
    g = NotchGrid.uniform(7)
    d = g.delta_max
    assert nearest_notch(g, 3.4 * d) == 3
    assert nearest_notch(g, 3.5 * d) == 4
    assert nearest_notch(g, 3.6 * d) == 4
    assert nearest_notch(g, (g.size - 0.5) * d) == 0  # tie at the wrap


@given(grid=explicit_grids(), target=st.floats(min_value=0.0, max_value=6.28))
@settings(max_examples=80)
def test_nearest_notch_minimizes_circular_distance(grid, target):
    k = nearest_notch(grid, target)
    dists = np.abs((grid.angles_array() - target + np.pi) % TWO_PI - np.pi)
    best = dists.min()
    got = abs((grid.angle(k) - target + np.pi) % TWO_PI - np.pi)
    assert got <= best + 1e-9


# --------------------------------------------------------------- antipolar


def test_antipolar_uniform_examples():
    assert antipolar_notch(NotchGrid.uniform(7), 3) == 3 + 64
    assert antipolar_notch(NotchGrid.uniform(4), 10) == 2  # wraps
    with pytest.raises(ValueError):
        antipolar_notch(NotchGrid.uniform(4), 16)
    with pytest.raises(ValueError):
        antipolar_notch(NotchGrid.uniform(4), -1)


@given(bits=st.integers(min_value=2, max_value=12), k=st.integers(min_value=0, max_value=4095))
def test_antipolar_uniform_involution(bits, k):
    g = NotchGrid.uniform(bits)
    k %= g.size
    other = antipolar_notch(g, k)
    assert antipolar_notch(g, other) == k


def test_antipolar_explicit_matches_brute_force():
    g = NotchGrid.explicit(EXPLICIT)
    angles = g.angles_array()
    for k in range(g.size):
        target = g.angle(k) + np.pi
        dists = np.abs((angles - target + np.pi) % TWO_PI - np.pi)
        got = antipolar_notch(g, k)
        assert dists[got] <= dists.min() + 1e-9


# -------------------------------------------------- quarter-turn alignment


@given(
    bits=st.integers(min_value=2, max_value=14),
    target=st.floats(min_value=0.0, max_value=6.28),
)
@settings(max_examples=80)
def test_quarter_turn_shifts_by_quarter_of_the_grid(bits, target):
    # pi/2 is a multiple of the spacing for every uniform grid, so shifting
    # by it moves the bracket index and leaves the fraction untouched
    g = NotchGrid.uniform(bits)
    a = locate(g, target)
    if min(a.lam, 1 - a.lam) < 1e-6:  # dodge snap boundaries
        return
    b = locate(g, target + np.pi / 2)
    assert b.k == (a.k + g.size // 4) % g.size
    assert b.lam == pytest.approx(a.lam, abs=1e-9)
