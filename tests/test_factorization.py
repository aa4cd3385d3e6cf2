import numpy as np
import pytest

from lpvsyn import (CoprimeFrfPair, FrequencyGrid, FrfResponse, RationalTf,
                    assemble_closed_loop, characteristic_data,
                    closed_loop_to_plant, coprime_from_closed_loop,
                    frozen_coprime_from_model, origin_factorization)
from lpvsyn.exceptions import StabilizationError
from lpvsyn.rational import closed_loop_char_poly, closed_loop_maps


@pytest.fixture
def grid():
    return FrequencyGrid(np.linspace(0.05, 3.1, 48))


G_UNSTABLE = RationalTf([1.0], [1.0, -2.0])
K_TWO = RationalTf.constant(2.0)


class TestCoprimeConstruction:
    def test_unstable_plant_hand_factors(self, grid):
        # G = 1/(z-2), K0 = 2: N_G = 1/z, D_G = (z-2)/z and the witness is exact
        pair, witness = frozen_coprime_from_model(G_UNSTABLE, K_TWO, grid)
        n_ref = RationalTf([1.0], [1.0, 0.0]).on_grid(grid)
        d_ref = RationalTf([1.0, -2.0], [1.0, 0.0]).on_grid(grid)
        assert np.max(np.abs(pair.n_g.values - n_ref)) < 1e-12
        assert np.max(np.abs(pair.d_g.values - d_ref)) < 1e-12
        assert witness.residual(pair) < 1e-12

    def test_open_loop_factors_for_stable_plant(self, grid):
        g = RationalTf([0.4], [1.0, -0.5])
        pair, witness = frozen_coprime_from_model(g, RationalTf.constant(0.0), grid)
        assert np.max(np.abs(pair.n_g.values - g.on_grid(grid))) < 1e-13
        assert np.max(np.abs(pair.d_g.values - 1.0)) < 1e-13
        assert np.allclose(witness.x.num, [0.0])
        assert witness.y.dc_gain() == 1.0

    def test_unity_plant(self, grid):
        pair, _ = frozen_coprime_from_model(RationalTf.constant(1.0),
                                            RationalTf.constant(0.0), grid)
        assert np.allclose(pair.n_g.values, 1.0)
        assert np.allclose(pair.d_g.values, 1.0)

    def test_unstable_k0_rejected(self, grid):
        k_bad = RationalTf([1.0], [1.0, -1.5])
        sens = FrfResponse(np.ones(len(grid)), grid)
        with pytest.raises(StabilizationError, match="stable K0"):
            coprime_from_closed_loop(sens, sens, k_bad)
        with pytest.raises(StabilizationError, match="stable K0"):
            frozen_coprime_from_model(G_UNSTABLE, k_bad, grid)

    def test_non_stabilizing_k0_rejected_in_model_path(self, grid):
        with pytest.raises(StabilizationError, match="stabilize"):
            frozen_coprime_from_model(G_UNSTABLE, RationalTf.constant(0.5), grid)

    def test_data_path_matches_model_path(self, grid):
        maps = closed_loop_maps(G_UNSTABLE, K_TWO)
        sens = FrfResponse(maps["S"].on_grid(grid), grid)
        proc = FrfResponse(maps["GS"].on_grid(grid), grid)
        pair_data, _ = coprime_from_closed_loop(sens, proc, K_TWO)
        pair_model, _ = frozen_coprime_from_model(G_UNSTABLE, K_TWO, grid)
        assert np.max(np.abs(pair_data.n_g.values - pair_model.n_g.values)) < 1e-10
        assert np.max(np.abs(pair_data.d_g.values - pair_model.d_g.values)) < 1e-10

    def test_inconsistent_data_rejected(self, grid):
        sens = FrfResponse(np.full(len(grid), 0.5 + 0j), grid)
        proc = FrfResponse(np.full(len(grid), 0.5 + 0j), grid)
        with pytest.raises(StabilizationError, match="residual"):
            coprime_from_closed_loop(sens, proc, K_TWO)

    def test_factors_of_stabilized_unstable_plant_are_stable(self, grid):
        # both factors are rational with all poles strictly inside the circle
        phi = closed_loop_char_poly(G_UNSTABLE, K_TWO)
        s = RationalTf(np.convolve(G_UNSTABLE.den, K_TWO.den), phi)
        gs = RationalTf(np.convolve(G_UNSTABLE.num, K_TWO.den), phi)
        assert s.is_stable() and gs.is_stable()

    def test_quotient_recovers_plant(self, model, k0, small_grid):
        from lpvsyn import frozen_tf
        for p in (30.0, 40.0, 50.0):
            pair, _ = frozen_coprime_from_model(frozen_tf(model, p), k0, small_grid)
            mask = np.abs(pair.d_g.values) > 1e-8
            truth = frozen_tf(model, p).on_grid(small_grid)
            plant = closed_loop_to_plant(pair.d_g, pair.n_g).values
            rel = np.abs(plant - truth) / np.abs(truth)
            assert rel[mask].max() < 1e-9

    def test_bezout_residual_invariant(self, model, k0, small_grid):
        from lpvsyn import frozen_tf
        for p in (30.0, 40.0, 50.0):
            pair, witness = frozen_coprime_from_model(frozen_tf(model, p), k0,
                                                      small_grid)
            assert witness.residual(pair) < 1e-8


class TestAssembleClosedLoop:
    def test_bezout_controller_gives_unit_characteristic(self, grid):
        pair, witness = frozen_coprime_from_model(G_UNSTABLE, K_TWO, grid)
        nk = witness.x.on_grid(grid)
        dk = witness.y.on_grid(grid)
        block = assemble_closed_loop(pair, nk, dk)
        assert np.max(np.abs(block.d_p - 1.0)) < 1e-12

    def test_open_loop_channels(self, grid):
        pair, _ = frozen_coprime_from_model(G_UNSTABLE, K_TWO, grid)
        n = len(grid)
        block = assemble_closed_loop(pair, np.zeros(n), np.ones(n))
        assert np.array_equal(block.d_p, pair.d_g.values)
        assert np.array_equal(block.n_s, pair.d_g.values)
        assert np.array_equal(block.n_gs, pair.n_g.values)
        assert np.all(block.n_ks == 0) and np.all(block.n_t == 0)

    def test_hand_value_at_z_one(self):
        # factors of 1/(z-2) at z=1 with nk=1.5, dk=1: D_p = (1-2+1.5)/1 = 0.5
        grid1 = FrequencyGrid(np.array([0.0]))
        pair, _ = frozen_coprime_from_model(G_UNSTABLE, K_TWO, grid1)
        block = assemble_closed_loop(pair, np.array([1.5 + 0j]), np.array([1.0 + 0j]))
        assert block.d_p[0] == pytest.approx(0.5)

    def test_channel_numerators_match_four_block_maps(self, grid):
        g = RationalTf([0.4, 0.1], [1.0, -0.9, 0.2])
        k = RationalTf([0.5], [1.0, -0.3])
        pair, _ = frozen_coprime_from_model(g, RationalTf.constant(0.2), grid)
        # controller factor data over the same denominator normalization
        nk = RationalTf(k.num, k.den).on_grid(grid)
        dk = np.ones(len(grid), dtype=complex)
        block = assemble_closed_loop(pair, nk, dk)
        maps = closed_loop_maps(g, k)
        for channel, name in (("S", "S"), ("GS", "GS"), ("KS", "KS"), ("T", "T")):
            truth = maps[name].on_grid(grid)
            assert np.max(np.abs(block.numerator(channel) / block.d_p - truth)) < 1e-9

    def test_linearity_machine_precision(self, grid):
        pair, _ = frozen_coprime_from_model(G_UNSTABLE, K_TWO, grid)
        rng = np.random.default_rng(0)
        n = len(grid)
        nk1, dk1 = rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n)
        nk2, dk2 = rng.standard_normal(n) + 0j, rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = assemble_closed_loop(pair, nk1 + nk2, dk1 + dk2)
        b1 = assemble_closed_loop(pair, nk1, dk1)
        b2 = assemble_closed_loop(pair, nk2, dk2)
        for attr in ("d_p", "n_s", "n_gs", "n_ks", "n_t"):
            assert np.allclose(getattr(a, attr),
                               getattr(b1, attr) + getattr(b2, attr),
                               rtol=0, atol=1e-12)

    def test_length_mismatch_rejected(self, grid):
        pair, _ = frozen_coprime_from_model(G_UNSTABLE, K_TWO, grid)
        with pytest.raises(ValueError):
            assemble_closed_loop(pair, np.zeros(3), np.zeros(len(grid)))


class TestOriginFactorization:
    def test_factors_and_characteristic_data(self, grid):
        g = RationalTf([1.0, 0.5], [1.0, -1.4, 0.6])
        k = RationalTf([0.3], [1.0, 0.2])
        n_g, d_g = origin_factorization(g)
        assert n_g.is_stable() and d_g.is_stable()
        quotient = n_g.on_grid(grid) / d_g.on_grid(grid)
        assert np.allclose(quotient, g.on_grid(grid), atol=1e-12)
        dp = characteristic_data(g, k, grid)
        phi = closed_loop_char_poly(g, k)
        shift = np.exp(1j * grid.omegas * (g.degree + k.degree))
        assert np.allclose(dp, np.polyval(phi, np.exp(1j * grid.omegas)) / shift,
                           atol=1e-12)

    def test_mismatched_grids_rejected(self, grid):
        other = FrequencyGrid(np.linspace(0.1, 2.0, len(grid)))
        n = FrfResponse(np.ones(len(grid)), grid)
        d = FrfResponse(np.ones(len(other)), other)
        with pytest.raises(ValueError):
            CoprimeFrfPair(n, d)
