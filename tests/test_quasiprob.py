"""Interpolation coefficients, sampling tables, and overhead formulas."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pai.estimate import _variant_uniforms
from pai.models import TrotterSpec, neel_prep_circuit, spin_ring, trotter_circuit
from pai.notch import (
    TWO_PI,
    NotchGrid,
    antipolar_notch,
    locate,
    nearest_notch,
    round_params_to_grid,
)
from pai.quasiprob import (
    DegenerateSettingsError,
    decompose_circuit,
    gamma_general,
    gamma_uniform,
    interpolation_residual,
    max_gates_for_bits,
    refined_overhead,
    settings_from_uniforms,
    worst_case_overhead,
)
from pai.rng import stream
from pai.statevector import PauliString

OVERHEAD_LIMIT = math.exp(math.pi**2 / 4)  # ~11.7918

delta_st = st.floats(min_value=1e-4, max_value=np.pi / 2)


# ------------------------------------------------------------ coefficients


def test_gamma_endpoints_are_exact():
    for delta in (0.01, 0.3, np.pi / 2):
        assert gamma_uniform(0.0, delta) == (1.0, 0.0, -0.0)
        g = gamma_uniform(delta, delta)
        assert g[0] == 0.0 and g[1] == pytest.approx(1.0, abs=1e-15) and g[2] == -0.0


@given(delta=delta_st)
def test_gamma_midpoint_closed_form(delta):
    g1, g2, g3 = gamma_uniform(delta / 2, delta)
    assert g1 == pytest.approx(0.5, abs=1e-12)
    assert g2 == pytest.approx(1.0 / (2.0 * math.cos(delta / 2)), rel=1e-12)
    assert g3 == pytest.approx(
        -math.sin(delta / 4) ** 2 / math.cos(delta / 2), rel=1e-10, abs=1e-15
    )


@given(delta=delta_st, frac=st.floats(min_value=0.0, max_value=1.0))
def test_gamma_sums_to_one(delta, frac):
    g = gamma_uniform(frac * delta, delta)
    assert abs(sum(g) - 1.0) < 1e-12


@given(delta=delta_st, frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_gamma_signs_and_norm_inflation(delta, frac):
    g1, g2, g3 = gamma_uniform(frac * delta, delta)
    assert g1 > 0.0 and g2 > 0.0 and g3 < 0.0
    # only the antipodal coefficient is negative, so the one-norm exceeds
    # 1 strictly off the endpoints
    assert g1 + g2 - g3 > 1.0


def test_gamma_norm_is_one_only_at_endpoints():
    delta = TWO_PI / 128
    for theta in (0.0, delta):
        g = gamma_uniform(theta, delta)
        assert abs(g[0]) + abs(g[1]) + abs(g[2]) == pytest.approx(1.0, abs=1e-15)


def test_gamma_domain_validation():
    with pytest.raises(ValueError):
        gamma_uniform(0.1, 0.0)
    with pytest.raises(ValueError):
        gamma_uniform(0.1, np.pi / 2 + 0.01)
    with pytest.raises(ValueError):
        gamma_uniform(-0.01, 0.1)
    with pytest.raises(ValueError):
        gamma_uniform(0.2, 0.1)
    with pytest.raises(ValueError):
        gamma_uniform(float("nan"), 0.1)


@given(
    base=st.floats(min_value=0.0, max_value=6.2),
    delta=st.floats(min_value=1e-3, max_value=np.pi / 2),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80)
def test_general_solver_matches_closed_form(base, delta, frac):
    theta = frac * delta
    settings_abs = (base, base + delta, base + np.pi)
    got = gamma_general(base + theta, settings_abs)
    want = gamma_uniform(theta, delta)
    np.testing.assert_allclose(got, want, atol=1e-10)
    assert interpolation_residual(base + theta, settings_abs, got) < 1e-10


def test_general_solver_on_a_setting_gives_a_unit_vector():
    settings_abs = (0.3, 0.8, 0.3 + np.pi)
    got = gamma_general(0.8, settings_abs)
    np.testing.assert_allclose(got, (0.0, 1.0, 0.0), atol=1e-12)


def test_degenerate_settings_raise():
    with pytest.raises(DegenerateSettingsError):
        gamma_general(0.2, (0.3, 0.3, 0.3 + np.pi))
    with pytest.raises(ValueError):
        gamma_general(0.2, (0.3, float("inf"), 1.0))


# --------------------------------------------------- small-gap asymptotics


@given(
    bits=st.integers(min_value=7, max_value=12),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80)
def test_fine_grid_expansions(bits, frac):
    delta = TWO_PI / (1 << bits)
    theta = frac * delta
    g1, g2, g3 = gamma_uniform(theta, delta)
    norm1 = abs(g1) + abs(g2) + abs(g3)
    lam = theta / delta
    assert abs(norm1**2 - (1.0 + lam * (1 - lam) * delta**2)) < 10 * delta**4
    p1 = abs(g1) / norm1
    p3 = abs(g3) / norm1
    assert abs(p1 - (1.0 - lam)) < delta**2
    assert abs(p3 - lam * (1 - lam) * delta**2 / 4.0) < 10 * delta**4


# ---------------------------------------------------------- gate decompose


def test_decompose_on_notch_is_the_identity_mixture():
    grid = NotchGrid.uniform(7)
    dec = decompose_circuit(grid, [(PauliString("X"), 3 * grid.delta_max)])
    assert dec.gammas[0].tolist() == [1.0, 0.0, 0.0]
    assert dec.probs[0].tolist() == [1.0, 0.0, 0.0]
    assert dec.norm1[0] == 1.0
    assert dec.lam[0] == 0.0
    assert dec.setting_indices[0].tolist() == [3, 4, 67]


def test_decompose_midgap_seven_bit_numbers():
    grid = NotchGrid.uniform(7)
    d = grid.delta_max
    dec = decompose_circuit(grid, [(PauliString("X"), 3.5 * d)])
    assert dec.probs[0, 2] == pytest.approx(d**2 / 16.0, rel=1e-3)
    assert dec.norm1[0] ** 2 == pytest.approx(1.0 + d**2 / 4.0, rel=1e-3)
    assert dec.setting_signs[0].tolist() == [1, 1, -1]


def test_decompose_quarter_gap_probabilities():
    grid = NotchGrid.uniform(7)
    d = grid.delta_max
    dec = decompose_circuit(grid, [(PauliString("Z"), 3.25 * d)])
    assert abs(dec.probs[0, 0] - 0.75) < d**2
    assert abs(dec.probs[0, 1] - 0.25) < d**2


def test_decompose_rejects_identity_generator():
    with pytest.raises(ValueError):
        decompose_circuit(NotchGrid.uniform(5), [(PauliString("II"), 0.3)])


def test_decompose_uses_bracketing_and_antipodal_settings():
    grid = NotchGrid.explicit([0.0, 0.5, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 4.8, 5.4, 6.0])
    dec = decompose_circuit(grid, [(PauliString("Y"), 0.9)])
    pos = locate(grid, 0.9)
    assert dec.setting_indices[0].tolist() == [1, 2, antipolar_notch(grid, 1)]
    assert dec.setting_angles[0, 0] == grid.angle(1)
    assert dec.lam[0] == pytest.approx(pos.lam)
    assert abs(sum(dec.gammas[0].tolist()) - 1.0) < 1e-12
    target_residual = interpolation_residual(0.9, dec.setting_angles[0], dec.gammas[0])
    assert target_residual < 1e-10


@given(
    bits=st.integers(min_value=3, max_value=12),
    target=st.floats(min_value=0.0, max_value=6.28),
    letter=st.sampled_from(["X", "Y", "Z"]),
)
@settings(max_examples=60)
def test_single_gate_mixture_reproduces_the_channel(bits, target, letter):
    # weighted sum of the three setting process matrices equals the target
    # process matrix; dense 4x4 oracle, no shared code
    grid = NotchGrid.uniform(bits)
    dec = decompose_circuit(grid, [(PauliString(letter), target)])
    mix = sum(
        g * oracles.process_matrix(letter, a)
        for g, a in zip(dec.gammas[0].tolist(), dec.setting_angles[0].tolist())
    )
    np.testing.assert_allclose(
        mix, oracles.process_matrix(letter, target), atol=1e-12
    )


# ------------------------------------------------------- circuit decompose


def test_circuit_weight_is_the_product_of_gate_weights():
    grid = NotchGrid.uniform(6)
    x = PauliString("X")
    a = decompose_circuit(grid, [(x, 0.4)])
    b = decompose_circuit(grid, [(x, 1.1)])
    dec = decompose_circuit(grid, [(x, 0.4), (x, 1.1)])
    assert dec.num_gates == 2
    assert dec.norm1_total == pytest.approx(a.norm1[0] * b.norm1[0], rel=1e-12)


def test_circuit_weight_on_notch_is_one():
    grid = NotchGrid.uniform(6)
    d = grid.delta_max
    dec = decompose_circuit(grid, [(PauliString("X"), k * d) for k in range(5)])
    assert dec.norm1_total == 1.0


def test_empty_circuit_decomposition():
    dec = decompose_circuit(NotchGrid.uniform(5), [])
    assert dec.num_gates == 0
    assert dec.norm1_total == 1.0
    lam_tilde, bound = refined_overhead(dec)
    assert (lam_tilde, bound) == (0.0, 1.0)


def test_max_depth_midgap_circuit_hits_the_overhead_limit():
    # 2**(2*(B-1)) mid-gap gates: the designed-for worst case
    grid = NotchGrid.uniform(7)
    nu = max_gates_for_bits(7)
    assert nu == 4096
    angle = 3.5 * grid.delta_max
    dec = decompose_circuit(grid, [(PauliString("X"), angle)] * nu)
    assert dec.norm1_total**2 == pytest.approx(OVERHEAD_LIMIT, rel=0.03)


# ----------------------------------------------------------------- sampling


def test_sample_gate_on_notch_is_deterministic():
    grid = NotchGrid.uniform(7)
    dec = decompose_circuit(grid, [(PauliString("X"), 0.0)])
    idx, signs = settings_from_uniforms(dec, stream(0, 5).random((16, 1)))
    assert np.all(idx == 0) and np.all(signs == 1)
    assert dec.setting_angles[0, 0] == 0.0


def test_sample_gate_thresholds():
    grid = NotchGrid.uniform(4)
    dec = decompose_circuit(grid, [(PauliString("X"), 1.6 * grid.delta_max)])
    p1, p2, _ = dec.probs[0]
    eps = 1e-9
    seq = [0.0, p1 - eps, p1 + eps, p1 + p2 - eps, p1 + p2 + eps, 1.0 - eps]
    idx, _ = settings_from_uniforms(dec, np.array(seq)[:, None])
    assert idx[:, 0].tolist() == [0, 0, 1, 1, 2, 2]


def test_sample_gate_frequencies_match_probabilities():
    grid = NotchGrid.uniform(5)
    dec = decompose_circuit(grid, [(PauliString("X"), 2.5 * grid.delta_max)])
    n = 200_000
    draws = settings_from_uniforms(dec, stream(1, 6).random((n, 1)))[0][:, 0]
    for setting, p in zip((0, 1, 2), dec.probs[0]):
        freq = float(np.mean(draws == setting))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 5 * sigma


def test_settings_from_uniforms_replays_sample_gate():
    grid = NotchGrid.uniform(4)
    circ = [(PauliString("X"), 0.9), (PauliString("Y"), 2.0), (PauliString("Z"), 4.4)]
    dec = decompose_circuit(grid, circ)
    u = stream(9, 0).random((7, 3))
    idx, signs = settings_from_uniforms(dec, u)
    assert idx.dtype == np.int8 and signs.dtype == np.int64
    for v in range(7):
        want_sign = 1
        for j in range(dec.num_gates):
            setting, sign = oracles.sample_gate(dec.probs[j], dec.setting_signs[j], u[v, j])
            assert idx[v, j] == setting
            want_sign *= sign
        assert signs[v] == want_sign


def test_sample_variant_draws_one_uniform_per_gate():
    grid = NotchGrid.uniform(4)
    circ = [(PauliString("X"), 0.9), (PauliString("Y"), 2.0), (PauliString("Z"), 4.4)]
    dec = decompose_circuit(grid, circ)
    # three uniforms fill one Philox block of four doubles, so variant 3 of
    # master seed 5 reads the first three doubles of block 3 of (5, 0)
    u, _ = _variant_uniforms(5, (), 3, 4, dec.num_gates)
    np.testing.assert_array_equal(u[0], stream(5, 0).random(16)[12:15])
    idx, signs = settings_from_uniforms(dec, u)
    want_sign = 1
    for j in range(dec.num_gates):
        want_sign *= dec.setting_signs[j, idx[0, j]]
    assert signs[0] == want_sign


def test_variant_sign_distribution_matches_enumeration():
    grid = NotchGrid.uniform(3)  # coarse grid: negative settings are common
    circ = [(PauliString("X"), 0.5), (PauliString("Y"), 1.9), (PauliString("Z"), 3.3)]
    dec = decompose_circuit(grid, circ)
    p_minus = 0.0
    for combo in itertools.product(range(3), repeat=3):
        p = 1.0
        s = 1
        for j, c in enumerate(combo):
            p *= dec.probs[j, c]
            s *= dec.setting_signs[j, c]
        if s < 0:
            p_minus += p
    n = 100_000
    _, signs = settings_from_uniforms(dec, stream(2, 8).random((n, 3)))
    freq = np.mean(signs < 0)
    sigma = math.sqrt(p_minus * (1 - p_minus) / n)
    assert abs(freq - p_minus) < 5 * sigma


# ----------------------------------------------------------------- overhead


def test_worst_case_overhead_edge_values():
    assert worst_case_overhead(0, 0.3) == 1.0
    with pytest.raises(ValueError):
        worst_case_overhead(-1, 0.3)
    with pytest.raises(ValueError):
        worst_case_overhead(10, 0.0)
    with pytest.raises(ValueError):
        worst_case_overhead(10, 2.0)
    with pytest.raises(ValueError, match="overflows a float"):  # exp(4437)
        worst_case_overhead(6402, np.pi / 2)


def test_worst_case_overhead_at_design_depth():
    for bits in range(4, 13):
        delta = TWO_PI / (1 << bits)
        value = worst_case_overhead(max_gates_for_bits(bits), delta)
        assert value == pytest.approx(OVERHEAD_LIMIT, rel=0.03)


def test_worst_case_overhead_squares_when_depth_doubles():
    delta = TWO_PI / 128
    for nu in (1, 8, 64, 512):
        one = worst_case_overhead(nu, delta)
        two = worst_case_overhead(2 * nu, delta)
        assert two == pytest.approx(one**2, rel=1e-12)
    assert worst_case_overhead(64, delta) > worst_case_overhead(63, delta)


def test_worst_case_overhead_matches_midgap_norm():
    # the formula must agree with the actual mid-gap coefficient norm
    delta = TWO_PI / 32
    g = gamma_uniform(delta / 2, delta)
    norm1 = abs(g[0]) + abs(g[1]) + abs(g[2])
    assert worst_case_overhead(10, delta) == pytest.approx(norm1**20, rel=1e-10)


def test_refined_overhead_examples():
    grid = NotchGrid.uniform(7)
    d = grid.delta_max
    x = PauliString("X")
    mid = decompose_circuit(grid, [(x, 3.5 * d)] * 4)
    lam_tilde, bound = refined_overhead(mid)
    assert lam_tilde == pytest.approx(1.0)
    quarter = decompose_circuit(grid, [(x, 3.25 * d)] * 4)
    lam_tilde_q, _ = refined_overhead(quarter)
    assert lam_tilde_q == pytest.approx(0.75)


@given(data=st.data())
@settings(max_examples=40)
def test_refined_overhead_never_exceeds_worst_case(data):
    bits = data.draw(st.integers(min_value=3, max_value=9))
    grid = NotchGrid.uniform(bits)
    nu = data.draw(st.integers(min_value=1, max_value=30))
    fracs = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=nu, max_size=nu
        )
    )
    circ = [(PauliString("X"), f * grid.delta_max + grid.angle(2)) for f in fracs]
    dec = decompose_circuit(grid, circ)
    _, bound = refined_overhead(dec)
    assert bound <= worst_case_overhead(nu, grid.delta_max) * (1.0 + 1e-9)


def _antipodal_grid(rng: np.random.Generator, half: int) -> NotchGrid:
    """Explicit grid whose notches come in pairs half a turn apart: ``half``
    random gaps in (0, pi/2] cover one half-circle, repeated on the other."""
    gaps = rng.uniform(0.1, 1.0, size=half)
    gaps *= np.pi / gaps.sum()
    if gaps.max() > np.pi / 2:
        gaps = np.full(half, np.pi / half)
    first = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    return NotchGrid.explicit(np.concatenate([first, first + np.pi]))


@given(data=st.data())
@settings(max_examples=80)
def test_refined_overhead_lies_between_the_weight_and_the_worst_case(data):
    # uniform grids from B = 2, and explicit grids of antipodal pairs; gates
    # anywhere on the circle, on notches and at mid-gap
    if data.draw(st.booleans()):
        grid = NotchGrid.uniform(data.draw(st.integers(min_value=2, max_value=9)))
    else:
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        grid = _antipodal_grid(np.random.default_rng(seed), data.draw(st.integers(2, 12)))
    notches = grid.angles_array()
    gaps = grid.spacing(np.arange(grid.size))
    angle = st.one_of(
        st.floats(min_value=-10.0, max_value=10.0),
        st.integers(0, grid.size - 1).map(lambda k: float(notches[k])),
        st.integers(0, grid.size - 1).map(lambda k: float(notches[k] + gaps[k] / 2)),
    )
    angles = data.draw(st.lists(angle, min_size=1, max_size=60))
    dec = decompose_circuit(grid, [(PauliString("X"), a) for a in angles])
    _, bound = refined_overhead(dec)
    # the weight is a product of rounded one-norms, hence the tolerance
    assert dec.norm1_total**2 <= bound * (1.0 + 1e-9)
    assert bound <= worst_case_overhead(len(angles), float(dec.delta_k.max()))


def test_refined_overhead_bounds_the_trotter_weight():
    # the leading-order exp(nu * lam_tilde * delta**2 / 4) gave 31.703
    # against the exact 31.886 on this 388-gate circuit
    model = spin_ring(8, 0.3, 11)
    circuit = neel_prep_circuit(8) + trotter_circuit(model, TrotterSpec(2.0, 12))
    grid = NotchGrid.uniform(5)
    dec = decompose_circuit(grid, circuit)
    _, bound = refined_overhead(dec)
    assert dec.norm1_total**2 == pytest.approx(31.886, abs=1e-3)
    assert dec.norm1_total**2 <= bound < worst_case_overhead(len(circuit), grid.delta_max)


def test_refined_overhead_needs_each_third_setting_at_its_antipode():
    # notch 0's antipode pi falls between 2.4 and 3.6 and rounds to 3.6,
    # so its third setting sits 0.46 rad past half a turn
    grid = NotchGrid.explicit([0.0, 1.2, 2.4, 3.6, 4.8])
    x = PauliString("X")
    with pytest.raises(ValueError, match="antipode"):
        refined_overhead(decompose_circuit(grid, [(x, 0.5)]))
    # a gate on a notch mixes nothing, so it needs no antipode
    assert refined_overhead(decompose_circuit(grid, [(x, 1.2)])) == (0.0, 1.0)


def test_refined_overhead_refuses_a_gap_over_a_quarter_turn():
    # no worst case is defined past pi/2: explicit() refuses such a grid,
    # and a decomposition over one built past that check raises too
    angles = np.array([0.0, 2.0, np.pi, np.pi + 2.0])
    with pytest.raises(ValueError, match="spacing"):
        NotchGrid.explicit(angles)
    dec = decompose_circuit(NotchGrid(bits=None, angles=angles), [(PauliString("X"), 1.0)])
    assert dec.delta_k[0] == 2.0 and dec.lam[0] == 0.5
    with pytest.raises(ValueError, match="pi/2"):
        refined_overhead(dec)


def test_max_gates_for_bits_values():
    assert max_gates_for_bits(2) == 4
    assert max_gates_for_bits(7) == 4096
    assert max_gates_for_bits(10) == 262_144
    with pytest.raises(ValueError):
        max_gates_for_bits(1)


# ------------------------------------------------ array pass against oracle


@st.composite
def grid_and_angles(draw):
    """A uniform (B = 2-10) or explicit grid and up to 40 angles, many on
    the rules' edges: within 1e-13 of a notch, a hair below 0, multiples
    of 2*pi and exact mid-gap ties, each shifted by whole turns."""
    if draw(st.booleans()):
        grid = NotchGrid.uniform(draw(st.integers(min_value=2, max_value=10)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        n = draw(st.integers(min_value=5, max_value=24))
        grid = NotchGrid.explicit(oracles.random_explicit_angles(rng, n))
    notches = grid.angles_array()
    upper = np.append(notches[1:], notches[0] + TWO_PI)
    k = st.integers(min_value=0, max_value=grid.size - 1)
    edge = st.one_of(
        st.floats(min_value=-20.0, max_value=20.0),
        st.tuples(k, st.sampled_from([-1e-13, 1e-13, -1e-11, 1e-11, 0.0])).map(
            lambda p: float(notches[p[0]]) + p[1]
        ),
        k.map(lambda i: 0.5 * (float(notches[i]) + float(upper[i]))),
        st.sampled_from([-1e-18, 1e-18, -0.0]),
        st.integers(min_value=-3, max_value=3).map(lambda m: m * TWO_PI),
    )
    turns = st.integers(min_value=-2, max_value=2)
    angle = st.tuples(edge, turns).map(lambda p: p[0] + p[1] * TWO_PI)
    return grid, draw(st.lists(angle, min_size=1, max_size=40))


@given(case=grid_and_angles())
@settings(max_examples=150, deadline=None)
def test_array_pass_matches_the_scalar_oracle(case):
    grid, angles = case
    x = PauliString("X")
    dec = decompose_circuit(grid, [(x, a) for a in angles])
    pos = locate(grid, angles)
    nearest = nearest_notch(grid, angles)
    rounded = round_params_to_grid(grid, angles)
    for j, angle in enumerate(angles):
        want = oracles.decompose_scalar(grid, angle)
        assert pos.k[j] == want["setting_indices"][0]
        assert pos.theta[j] == want["theta"]  # snapping included
        assert pos.delta_k[j] == want["delta_k"]
        assert dec.setting_indices[j].tolist() == list(want["setting_indices"])
        assert dec.setting_angles[j].tolist() == list(want["setting_angles"])
        assert dec.setting_signs[j].tolist() == list(want["setting_signs"])
        for name in ("gammas", "probs", "lam"):
            np.testing.assert_array_max_ulp(getattr(dec, name)[j], want[name], maxulp=2)
        assert nearest[j] == oracles.nearest_scalar(grid, angle)
        assert rounded[j] == grid.angle(oracles.nearest_scalar(grid, angle))


@pytest.mark.parametrize(
    "bad, message",
    [
        ((PauliString("I" * 12), 0.3), "gate 1000: rotation generator must be a non-identity"),
        ((PauliString("X" + "I" * 11), float("nan")), "gate 1000: target angle must be finite"),
    ],
)
def test_a_bad_gate_fails_by_index_before_any_array_work(bad, message, monkeypatch):
    from pai import cli, quasiprob

    circuit = cli._quench_circuit(cli.FidelityConfig())
    assert len(circuit) == 1782
    circuit[1000] = bad
    circuit[1500] = (PauliString("I" * 12), float("inf"))  # a later bad gate

    def no_work(*args, **kwargs):
        raise AssertionError("angles were placed")

    monkeypatch.setattr(quasiprob, "locate", no_work)
    with pytest.raises(ValueError, match=message):
        decompose_circuit(NotchGrid.uniform(7), circuit)
