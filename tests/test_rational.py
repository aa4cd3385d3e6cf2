import numpy as np
import pytest
import scipy.signal

from lpvsyn import frozen_tf
from lpvsyn.rational import (RationalTf, closed_loop_char_poly,
                             closed_loop_maps, internally_stable, polyadd,
                             statespace_response, statespace_tf, trim_poly)


def test_trim_keeps_zero_polynomial():
    assert trim_poly([0.0, 0.0]).tolist() == [0.0]
    assert trim_poly([0.0, 2.0, 1.0]).tolist() == [2.0, 1.0]


def test_polyadd_pads_left():
    assert polyadd([1.0, 2.0], [1.0]).tolist() == [1.0, 3.0]


def test_improper_rejected():
    with pytest.raises(ValueError):
        RationalTf([1.0, 0.0, 0.0], [1.0, -0.5])


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        RationalTf([1.0], [0.0])


def test_eval_and_dc_gain():
    tf = RationalTf([0.5], [1.0, -0.9])
    assert tf.dc_gain() == pytest.approx(5.0)
    z = np.exp(1j * 0.3)
    assert tf.eval_at(np.array([z]))[0] == pytest.approx(0.5 / (z - 0.9))


def test_filter_matches_difference_equation():
    tf = RationalTf([1.0, -0.2], [1.0, -1.1, 0.3])
    rng = np.random.default_rng(0)
    u = rng.standard_normal(200)
    y = tf.filter(u)
    # a0 y_k = b1 u_{k-1} + b2 u_{k-2} - a1 y_{k-1} - a2 y_{k-2}
    y_ref = np.zeros_like(y)
    for k in range(200):
        acc = 0.0
        if k >= 1:
            acc += 1.0 * u[k - 1] + 1.1 * y_ref[k - 1]
        if k >= 2:
            acc += -0.2 * u[k - 2] - 0.3 * y_ref[k - 2]
        y_ref[k] = acc
    assert np.allclose(y, y_ref, atol=1e-12)


def lfilter_reference(tf, u):
    """The same filter through scipy's direct-form ``lfilter``."""
    b = np.zeros(tf.den.size)
    b[tf.den.size - tf.num.size:] = tf.num
    return scipy.signal.lfilter(b, tf.den, u)


class TestFilterAgainstLfilter:
    @pytest.mark.parametrize("p", [30.0, 40.0, 50.0])
    @pytest.mark.parametrize("name", ["S", "GS"])
    def test_closed_loop_maps_long_record(self, model, k0, p, name):
        # order-5 maps with poles up to |z| = 0.9968; against a long-double
        # recursion this filter is at most 1.8e-9 relative off, lfilter 2.8e-9
        tf = closed_loop_maps(frozen_tf(model, p), k0)[name]
        u = np.random.default_rng(int(p)).standard_normal(32768)
        ref = lfilter_reference(tf, u)
        y = tf.filter(u)
        assert np.max(np.abs(y - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_empty_input(self):
        y = RationalTf([0.3], [1.0, -0.4]).filter(np.zeros(0))
        assert y.shape == (0,)

    def test_pure_gain(self):
        u = np.random.default_rng(1).standard_normal(64)
        assert np.array_equal(RationalTf([2.5], [1.0]).filter(u), 2.5 * u)
        assert np.array_equal(RationalTf([5.0], [2.0]).filter(u), 2.5 * u)

    def test_delay_is_exact(self):
        u = np.random.default_rng(2).standard_normal(64)
        y = RationalTf([1.0], [1.0, 0.0, 0.0]).filter(u)
        assert np.array_equal(y, np.concatenate([[0.0, 0.0], u[:-2]]))

    @pytest.mark.parametrize("num, den", [
        ([2.0, -0.4], [4.0, -2.0, 0.8]),       # den[0] != 1
        ([1.0, 0.5, 0.1], [2.0, -1.1, 0.3]),   # feedthrough with den[0] != 1
        ([0.3], [1.0, -1.1, 0.3]),             # num shorter than den
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    def test_edge_cases_match_lfilter(self, num, den, n):
        tf = RationalTf(num, den)
        u = np.random.default_rng(n).standard_normal(n)
        assert np.allclose(tf.filter(u), lfilter_reference(tf, u),
                           rtol=1e-13, atol=1e-13)


def test_bilinear_integrator():
    fs = 50.0
    tf = RationalTf.from_continuous([1.0], [1.0, 0.0], fs)  # 1/s
    omega = np.linspace(0.05, 2.0, 7)
    z = np.exp(1j * omega)
    # bilinear map: response equals 1/(i * 2 fs tan(omega/2)) exactly
    expected = 1.0 / (1j * 2.0 * fs * np.tan(omega / 2.0))
    assert np.allclose(tf.eval_at(z), expected, rtol=1e-12)


def test_statespace_tf_matches_eigenvalues_and_resolvent():
    rng = np.random.default_rng(3)
    a = 0.4 * rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    c = rng.standard_normal(4)
    tf = statespace_tf(a, b, c, d=0.7)
    assert np.allclose(np.sort_complex(tf.poles()),
                       np.sort_complex(np.linalg.eigvals(a)), atol=1e-9)
    z = np.exp(1j * np.linspace(0.1, 3.0, 9))
    assert np.allclose(tf.eval_at(z), statespace_response(a, b, c, 0.7, z),
                       atol=1e-10)


def test_statespace_response_of_empty_state_is_feedthrough():
    z = np.exp(1j * np.linspace(0.1, 3.0, 5))
    out = statespace_response(np.zeros((0, 0)), np.zeros(0), np.zeros(0), 2.5, z)
    assert out.shape == z.shape
    assert np.array_equal(out, np.full(z.shape, 2.5 + 0j))


def test_statespace_response_rows_match_single_output():
    rng = np.random.default_rng(4)
    a = 0.3 * rng.standard_normal((4, 4))
    b, c, d = rng.standard_normal(4), rng.standard_normal((3, 4)), rng.standard_normal(3)
    z = np.exp(1j * np.linspace(0.1, 3.0, 7))
    out = statespace_response(a, b, c, d, z)
    assert out.shape == (3, 7)
    for row in range(3):
        assert np.allclose(out[row], statespace_response(a, b, c[row], d[row], z),
                           rtol=1e-14, atol=0)


def test_internal_stability_examples():
    g = RationalTf([1.0], [1.0, -2.0])
    assert internally_stable(g, RationalTf.constant(2.0))
    assert not internally_stable(g, RationalTf.constant(0.5))
    stable_g = RationalTf([0.3], [1.0, -0.5])
    assert internally_stable(stable_g, RationalTf.constant(0.0))


def test_internal_stability_degenerate_loop():
    g = RationalTf.constant(1.0)
    with pytest.raises(ValueError):
        internally_stable(g, RationalTf.constant(-1.0))


def test_internal_stability_improper_loop_is_unstable():
    # 1 + G K vanishes at infinity: leading degree drops
    g = RationalTf([1.0, 0.0], [1.0, -0.5])
    assert not internally_stable(g, RationalTf.constant(-1.0))


def test_closed_loop_maps_identity():
    g = RationalTf([0.4], [1.0, -0.6])
    k = RationalTf([0.8, -0.1], [1.0, -0.3])
    maps = closed_loop_maps(g, k)
    z = np.exp(1j * np.linspace(0.1, 3.0, 11))
    s = maps["S"].eval_at(z)
    t = maps["T"].eval_at(z)
    assert np.allclose(s + t, 1.0, atol=1e-12)
    phi = closed_loop_char_poly(g, k)
    assert np.allclose(maps["S"].den, phi)
