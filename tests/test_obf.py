import numpy as np
import pytest

from lpvsyn import (ControllerParameters, FrequencyGrid, ObfBasis, SchedulingBasis,
                    cluster_poles, eval_basis, eval_basis_at, factor_rationals,
                    laguerre_basis, realize_bank, scheduling_eval)
from lpvsyn.obf import _section_matrices


def unit_circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def closed_form_basis(basis, z):
    """Oracle: per-section analytic resolvents times the running product of
    the inner functions of the sections before them."""
    z = np.asarray(z, dtype=complex).ravel()
    out = np.empty((basis.size, z.size), dtype=complex)
    out[0] = 1.0
    blaschke = np.ones_like(z)
    row = 1
    for section in basis._sections:
        if len(section) == 1:
            a = section[0]
            out[row] = blaschke * np.sqrt(1.0 - a * a) / (z - a)
            row += 1
            blaschke = blaschke * (1.0 - a * z) / (z - a)
        else:
            a_s, b_s, _, _ = _section_matrices(section)
            det = (z - a_s[0, 0]) * (z - a_s[1, 1]) - a_s[0, 1] * a_s[1, 0]
            out[row] = blaschke * ((z - a_s[1, 1]) * b_s[0] + a_s[0, 1] * b_s[1]) / det
            out[row + 1] = blaschke * (a_s[1, 0] * b_s[0] + (z - a_s[0, 0]) * b_s[1]) / det
            row += 2
            c1, c2 = -2.0 * section[0].real, abs(section[0]) ** 2
            blaschke = blaschke * (c2 * z * z + c1 * z + 1.0) / (z * z + c1 * z + c2)
    return out


class TestLaguerre:
    def test_pole_zero_gives_pure_delays(self):
        basis = laguerre_basis(0.0, 2)
        z = np.exp(1j * np.linspace(0.2, 3.0, 5))
        ev = eval_basis_at(basis, z)
        assert np.allclose(ev[1], z ** -1.0, atol=1e-14)
        assert np.allclose(ev[2], z ** -2.0, atol=1e-14)

    def test_phi1_at_one_closed_form(self):
        basis = laguerre_basis(0.7, 1)
        val = eval_basis_at(basis, np.array([1.0 + 0j]))[1, 0]
        assert val.real == pytest.approx(np.sqrt(0.51) / 0.3, abs=1e-9)
        assert val == pytest.approx(2.380476, abs=1e-6)

    def test_reference_configuration_has_six_functions(self):
        basis = laguerre_basis(0.7, 5)
        assert basis.size == 6
        assert basis.n == 5

    def test_invalid_pole_rejected(self):
        with pytest.raises(ValueError):
            laguerre_basis(1.0, 3)
        with pytest.raises(ValueError):
            ObfBasis(np.array([0.5 + 0.9j, 0.5 - 0.9j]))  # modulus > 1

    @pytest.mark.parametrize("pole", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_pole_rejected(self, pole):
        with pytest.raises(ValueError, match="finite"):
            ObfBasis([pole])
        with pytest.raises(ValueError, match="finite"):
            ObfBasis([0.5, pole])

    def test_conjugate_closure_required(self):
        with pytest.raises(ValueError, match="conjugate"):
            ObfBasis(np.array([0.3 + 0.4j]))


class TestEvalAndRealization:
    def test_row_zero_is_one(self):
        grid = FrequencyGrid(np.linspace(0.1, 3.0, 9))
        ev = eval_basis(laguerre_basis(0.6, 3), grid)
        assert np.all(ev[0] == 1.0)

    @pytest.mark.parametrize("poles", [
        np.full(5, 0.7, dtype=complex),
        np.array([0.5, 0.6 + 0.5j, 0.6 - 0.5j, -0.3], dtype=complex),
    ])
    def test_matches_bank_realization(self, poles):
        basis = ObfBasis(poles)
        z = np.exp(1j * np.linspace(0.05, 3.1, 33))
        ev = eval_basis_at(basis, z)
        assert np.array_equal(ev, realize_bank(basis).response(z))
        assert np.max(np.abs(ev - closed_form_basis(basis, z))) < 1e-10

    def test_gram_matrix_is_identity(self):
        basis = ObfBasis(np.array([0.5, 0.2 + 0.6j, 0.2 - 0.6j], dtype=complex))
        phi = eval_basis_at(basis, unit_circle(2 ** 14))
        gram = phi @ phi.conj().T / 2 ** 14
        assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-6

    def test_shift_register_for_zero_pole(self):
        bank = realize_bank(laguerre_basis(0.0, 3))
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0
        expected[2, 1] = 1.0
        assert np.allclose(bank.a, expected)
        assert np.allclose(bank.b, [1.0, 0.0, 0.0])

    def test_impulse_response_matches_long_division(self):
        a = 0.6
        basis = laguerre_basis(a, 2)
        bank = realize_bank(basis)
        n = 50
        # simulate the bank impulse response
        x = np.zeros(2)
        h = np.zeros((2, n))
        u = 1.0
        for k in range(n):
            h[:, k] = x
            x = bank.a @ x + bank.b * u
            u = 0.0
        # long division of phi_1 as the rational N_K of a controller whose
        # numerator coefficients select phi_1; the padded numerator makes
        # coeff[k] the impulse response at k
        sched = SchedulingBasis.constant((30.0, 50.0))
        params = ControllerParameters(np.array([[0.0], [1.0], [0.0]]),
                                      np.array([[1.0]]), basis, ObfBasis([]), sched)
        tf, _ = factor_rationals(params, 40.0)
        den = tf.den
        coeff = np.zeros(n)
        rem = np.concatenate([np.zeros(den.size - tf.num.size), tf.num, np.zeros(n)])
        for k in range(n):
            c = rem[0] / den[0]
            coeff[k] = c
            rem[:den.size] -= c * den
            rem = rem[1:]
        assert np.max(np.abs(h[0] - coeff)) < 1e-10
        # closed form sqrt(1-a^2) a^{k-1} for k >= 1
        expected = np.sqrt(1 - a * a) * a ** np.arange(n - 1)
        assert np.max(np.abs(h[0, 1:] - expected)) < 1e-10

    def test_bank_eigenvalues_equal_pole(self):
        bank = realize_bank(laguerre_basis(0.7, 5))
        assert np.allclose(np.linalg.eigvals(bank.a), 0.7)


class TestSchedulingBasis:
    def test_affine_centering(self):
        sb = SchedulingBasis.affine((30.0, 50.0))
        assert np.allclose(scheduling_eval(sb, 40.0), [1.0, 0.0])
        assert np.allclose(scheduling_eval(sb, 50.0), [1.0, 1.0])
        assert np.allclose(scheduling_eval(sb, 30.0), [1.0, -1.0])

    def test_polynomial_degree_two_at_pmax(self):
        sb = SchedulingBasis.polynomial(2, (30.0, 50.0))
        assert np.allclose(scheduling_eval(sb, 50.0), [1.0, 1.0, 1.0])

    def test_constant_mode(self):
        sb = SchedulingBasis.constant((30.0, 50.0))
        assert np.allclose(scheduling_eval(sb, 37.0), [1.0])

    def test_constant_mode_takes_any_finite_point(self):
        # a constant basis does not depend on p, so nothing is extrapolated
        sb = SchedulingBasis.constant((39.5, 40.5))
        assert np.array_equal(scheduling_eval(sb, np.array([30.0, 40.0, 50.0])),
                              np.ones((3, 1)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="operating point not finite"):
                scheduling_eval(sb, np.array([40.0, bad]))

    def test_out_of_range_rejected(self):
        sb = SchedulingBasis.affine((30.0, 50.0))
        with pytest.raises(ValueError):
            scheduling_eval(sb, 51.0)
        with pytest.raises(ValueError, match=r"operating point outside range \[30\.0, 50\.0\]: nan"):
            scheduling_eval(sb, np.array([30.0, 40.0, np.nan]))

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_array_rows_equal_scalar_calls(self, m):
        sb = SchedulingBasis(m, (30.0, 50.0))
        ps = np.random.default_rng(m).uniform(30.0, 50.0, 257)
        rows = scheduling_eval(sb, ps)
        assert np.array_equal(rows, np.stack([scheduling_eval(sb, float(p))
                                              for p in ps]))
        # the running products of the monomials, bit for bit
        want = np.ones((ps.size, m))
        for l in range(1, m):
            want[:, l] = want[:, l - 1] * sb.rescale(ps)
        assert np.array_equal(rows, want)

    def test_array_names_first_out_of_range_value(self):
        sb = SchedulingBasis.affine((30.0, 50.0))
        with pytest.raises(ValueError, match=r"operating point outside range .*: 52\.5$"):
            scheduling_eval(sb, np.array([31.0, 52.5, 29.0, 60.0]))


class TestClusterPoles:
    def test_identical_samples_collapse(self):
        centers = cluster_poles(np.full(6, 0.4 + 0.1j), 3)
        assert np.allclose(centers, 0.4 + 0.1j)

    def test_two_tight_clusters_match_kmeans_oracle(self):
        rng = np.random.default_rng(1)
        s = np.concatenate([
            0.3 + 0.001 * (rng.standard_normal(25) + 1j * rng.standard_normal(25)),
            0.8 + 0.001 * (rng.standard_normal(25) + 1j * rng.standard_normal(25))])
        centers = np.sort(cluster_poles(s, 2).real)
        # brute-force Lloyd k-means oracle
        pts = np.column_stack([s.real, s.imag])
        c = pts[[0, -1]].copy()
        for _ in range(100):
            d = ((pts[None] - c[:, None]) ** 2).sum(-1)
            lab = np.argmin(d, axis=0)
            c = np.array([pts[lab == i].mean(axis=0) for i in range(2)])
        oracle = np.sort(c[:, 0])
        assert np.max(np.abs(centers - oracle)) < 1e-3
        assert abs(centers[0] - 0.3) < 1e-3 and abs(centers[1] - 0.8) < 1e-3

    def test_cluster_count_equal_sample_count(self):
        samples = np.array([0.1 + 0j, 0.5 + 0.2j, -0.3 + 0.1j])
        centers = cluster_poles(samples, 3)
        assert np.allclose(np.sort_complex(centers), np.sort_complex(samples),
                           atol=1e-9)

    def test_centers_stay_inside_disk(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = rng.uniform(0, 0.99, 12)
            th = rng.uniform(0, 2 * np.pi, 12)
            s = r * np.exp(1j * th)
            centers = cluster_poles(s, 4)
            assert np.all(np.abs(centers) < 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cluster_poles(np.array([]), 1)
        with pytest.raises(ValueError):
            cluster_poles(np.array([0.1 + 0j]), 2)
        with pytest.raises(ValueError):
            cluster_poles(np.array([1.2 + 0j]), 1)
