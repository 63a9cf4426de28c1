"""Forcing operator, counter-based Wiener streams, Ito isometry oracle."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dissipeuler.forcing import (
    ForcingError,
    ForcingMode,
    ForcingOperator,
    WienerPath,
    _STREAM_AUX,
    _raw_words,
    _uniforms,
    apply_noise,
    auxiliary_normals,
    default_forcing,
    ndtri,
    sample_increments,
)
from dissipeuler.spectral import TorusGrid, divergence_defect, inner_product, l2_norm_sq

from conftest import full_index


def two_mode_operator():
    return ForcingOperator((
        ForcingMode((1, 0), (0.0, 1.0), 1.0, "cos"),
        ForcingMode((0, 1), (1.0, 0.0), 0.5, "sin"),
    ))


class TestForcingOperator:
    def test_zero_amplitude_zero_norm(self):
        op = ForcingOperator((ForcingMode((1, 0), (0.0, 1.0), 0.0),))
        assert op.hs_norm_sq() == 0.0

    def test_two_modes_direct_sum(self):
        assert two_mode_operator().hs_norm_sq() == pytest.approx(1.25)

    def test_amplitude_scaling_is_quadratic(self):
        op = two_mode_operator()
        scaled = ForcingOperator(tuple(
            ForcingMode(m.k, m.direction, 3.0 * m.sigma, m.parity)
            for m in op.modes))
        assert scaled.hs_norm_sq() == pytest.approx(9.0 * op.hs_norm_sq())

    def test_rejects_non_orthogonal_direction(self):
        with pytest.raises(ForcingError):
            ForcingMode((1, 0), (1.0, 1.0), 1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -0.1])
    def test_rejects_a_non_finite_or_negative_amplitude(self, sigma):
        # NaN passes a test of sigma < 0, and would make every increment NaN
        with pytest.raises(ForcingError, match="amplitude"):
            ForcingMode((1, 0), (0.0, 1.0), sigma)
        with pytest.raises(ForcingError, match="amplitude"):
            default_forcing(2, sigma=sigma)

    @pytest.mark.parametrize("direction", [
        (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (0.0, 1e200), (0.0, 0.0)])
    def test_rejects_a_direction_without_a_finite_nonzero_norm(self, direction):
        # a NaN or infinite component would normalise to NaN, and a norm
        # that overflows to inf would normalise (0, 1e200) to (0, 0)
        with pytest.raises(ForcingError, match="direction"):
            ForcingMode((1, 0), direction, 1.0)

    def test_mode_fields_unit_norm_and_orthogonal(self, grid2d):
        op = default_forcing(2)
        fields = [op.mode_field(grid2d, i) for i in range(op.rank)]
        for f in fields:
            assert l2_norm_sq(f) == pytest.approx(1.0, rel=1e-12)
            assert divergence_defect(f) < 1e-13
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                assert abs(inner_product(fields[i], fields[j])) < 1e-12


class TestApplyNoise:
    def test_zero_increments(self, grid2d):
        op = two_mode_operator()
        f = apply_noise(op, np.zeros(2), grid2d)
        assert np.max(np.abs(f.coeffs)) == 0.0

    def test_single_unit_increment_gives_sigma_g(self, grid2d):
        op = two_mode_operator()
        f = apply_noise(op, np.array([1.0, 0.0]), grid2d)
        g0 = op.mode_field(grid2d, 0)
        assert np.max(np.abs(f.coeffs - g0.coeffs)) < 1e-12

    def test_output_divergence_free(self, grid2d):
        op = default_forcing(2)
        rng = np.random.default_rng(0)
        f = apply_noise(op, rng.standard_normal(op.rank), grid2d)
        assert divergence_defect(f) < 1e-13

    def test_rank_0_is_no_noise(self, grid2d):
        f = apply_noise(ForcingOperator(()), np.zeros(0), grid2d)
        assert f.coeffs.shape == (2,) + grid2d.spectral_shape
        assert not np.any(f.coeffs)

    def test_rejects_mode_of_another_dimension(self, grid2d):
        op = ForcingOperator((ForcingMode((1, 0, 0), (0.0, 1.0, 0.0), 1.0),))
        with pytest.raises(ForcingError, match="does not match grid"):
            op.check_resolved(grid2d)

    def test_rejects_unresolved_mode(self):
        grid = TorusGrid(2, 8)
        op = ForcingOperator((ForcingMode((5, 0), (0.0, 1.0), 1.0),))
        with pytest.raises(ForcingError):
            apply_noise(op, np.array([1.0]), grid)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_matches_dense_mode_sum(self, dim, n):
        # default forcing plus a cos/sin pair sharing one wavevector, so two
        # modes write the same coefficients of the sparse support
        grid = TorusGrid(dim, n)
        k = (1, 2) if dim == 2 else (1, 2, 0)
        d = (2.0, -1.0) if dim == 2 else (2.0, -1.0, 0.5)
        op = ForcingOperator(default_forcing(dim, 0.7).modes + (
            ForcingMode(k, d, 0.3, "cos"), ForcingMode(k, d, 0.2, "sin")))
        dw = np.random.default_rng(5).standard_normal(op.rank)
        dense = sum(op.modes[i].sigma * op.mode_field(grid, i).coeffs * dw[i]
                    for i in range(op.rank))
        got = apply_noise(op, dw, grid).coeffs
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))

    def test_support_is_the_plus_minus_k_coefficients(self, grid2d):
        # of k and -k, the ones with last component >= 0 are stored; the
        # support holds their band positions
        op = default_forcing(2, 0.5)
        support = op.noise_support(grid2d)
        index, values = full_index(grid2d, support.index), support.values
        assert values.shape == (op.rank, len(index))
        expect = set()
        for m in op.modes:
            for k in (m.k, tuple(-q for q in m.k)):
                for i in range(2):
                    if m.direction[i] != 0.0 and k[-1] >= 0:
                        expect.add(np.ravel_multi_index(
                            (i,) + tuple(q % grid2d.n for q in k),
                            (2,) + grid2d.spectral_shape))
        assert sorted(expect) == list(index)
        for i in range(op.rank):
            g = op.modes[i].sigma * op.mode_field(grid2d, i).coeffs
            assert np.array_equal(g.reshape(-1)[index], values[i])
            assert np.count_nonzero(g) == np.count_nonzero(values[i])

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 8), (3, 16)])
    def test_support_marks_the_nonzero_coefficients_of_the_mode_sum(self, dim, n):
        # from_band of the band support marks exactly the coefficients where
        # the dense sum of the modes is nonzero, and its duals are the
        # conjugated values times the Parseval weight, bit for bit
        grid = TorusGrid(dim, n)
        op = default_forcing(dim, 0.5)
        support = op.noise_support(grid)
        marks = np.zeros((dim,) + grid.ops.band_shape, dtype=bool)
        marks.flat[support.index] = True
        dense = sum(m.sigma * op.mode_field(grid, i).coeffs
                    for i, m in enumerate(op.modes))
        assert np.array_equal(grid.ops.from_band(marks), dense != 0)
        weight = np.broadcast_to(grid.ops.weight, (dim,) + grid.spectral_shape)
        want = np.conj(support.values) * weight.take(full_index(grid, support.index))
        assert support.dual.tobytes() == want.tobytes()

    def test_ito_isometry_monte_carlo(self, grid2d):
        # E || sum_n Phi dW_n ||^2 = t ||Phi||_HS^2; by linearity the summed
        # field equals apply_noise evaluated on the summed increments
        op = two_mode_operator()
        dt, steps = 0.01, 20
        t = dt * steps
        n_paths = 10_000
        totals = np.empty(n_paths)
        for pid in range(n_paths):
            inc = sample_increments(77, pid, op.rank, dt, 0, steps)
            totals[pid] = l2_norm_sq(apply_noise(op, inc.sum(axis=0), grid2d))
        expected = t * op.hs_norm_sq()
        assert abs(totals.mean() - expected) / expected < 0.05


class TestIncrementStreams:
    def test_variance(self):
        dt = 0.02
        draws = sample_increments(11, 0, 1, dt, 0, 100_000)[:, 0]
        assert abs(draws.var() - dt) <= 0.02 * dt

    def test_cross_mode_covariance(self):
        dt = 0.02
        n = 100_000
        draws = sample_increments(13, 0, 3, dt, 0, n)
        band = 3.0 * dt / np.sqrt(n)
        for a in range(3):
            for b in range(a + 1, 3):
                cov = np.mean(draws[:, a] * draws[:, b])
                assert abs(cov) <= band

    def test_serial_covariance(self):
        dt = 0.5
        n = 100_000
        d = sample_increments(17, 4, 1, dt, 0, n)[:, 0]
        cov = np.mean(d[:-1] * d[1:])
        assert abs(cov) <= 3.0 * dt / np.sqrt(n)

    def test_normality_skewness_kurtosis(self):
        n = 100_000
        z = sample_increments(19, 0, 1, 1.0, 0, n)[:, 0]
        zc = (z - z.mean()) / z.std()
        skew = np.mean(zc ** 3)
        kurt = np.mean(zc ** 4) - 3.0
        assert abs(skew) <= 4.0 * np.sqrt(6.0 / n)
        assert abs(kurt) <= 4.0 * np.sqrt(24.0 / n)

    def test_pure_function_of_key(self):
        a = sample_increments(23, 5, 4, 0.1, 0, 64)
        b = sample_increments(23, 5, 4, 0.1, 0, 64)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_increments(24, 5, 4, 0.1, 0, 64))
        assert not np.array_equal(a, sample_increments(23, 6, 4, 0.1, 0, 64))

    def test_restriction_extension_consistency(self):
        whole = sample_increments(29, 2, 3, 0.05, 0, 128)
        first = sample_increments(29, 2, 3, 0.05, 0, 64)
        second = sample_increments(29, 2, 3, 0.05, 64, 128)
        assert np.array_equal(whole, np.vstack([first, second]))

    def test_thread_count_invariance(self):
        def chunk(args):
            lo, hi = args
            return sample_increments(31, 9, 2, 0.1, lo, hi)

        ranges = [(i * 16, (i + 1) * 16) for i in range(8)]
        serial = np.vstack([chunk(r) for r in ranges])
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = np.vstack(list(pool.map(chunk, ranges)))
        assert np.array_equal(serial, threaded)
        assert np.array_equal(serial, sample_increments(31, 9, 2, 0.1, 0, 128))

    @pytest.mark.parametrize("seed", [0, 2, 2 ** 63 + 5, 2 ** 64 - 1])
    @pytest.mark.parametrize("stream", [0, 2, _STREAM_AUX])
    @pytest.mark.parametrize("start", [0, 5])
    def test_one_generator_gives_the_words_of_fresh_generators(self, seed,
                                                               stream, start):
        # the sampler resets one generator per stream; each stream's words
        # are those of a Philox generator built at its own counter
        path_ids, modes, count = [3, 0, 7], [0, 1, 4], 6
        words = _raw_words(seed, path_ids, modes, start, count, stream)
        key = np.array([seed, 0x9E3779B97F4A7C15], dtype=np.uint64)
        for p, pid in enumerate(path_ids):
            for k, mode in enumerate(modes):
                counter = np.array([start, mode, pid, stream], dtype=np.uint64)
                fresh = np.random.Philox(key=key, counter=counter)
                assert np.array_equal(words[p, :, k],
                                      fresh.random_raw(4 * count)[::4])


class TestWienerPath:
    def test_coordinates_start_at_zero(self):
        p = WienerPath.sample(47, 1, 2, 0.1, 16)
        beta = p.coordinates()
        assert np.array_equal(beta[0], np.zeros(2))
        assert np.allclose(beta[-1], p.increments.sum(axis=0))


class TestBrownianBridge:
    def test_refinement_preserves_coarse_sums(self):
        p = WienerPath.sample(53, 3, 2, 0.2, 32)
        f = p.refine()
        assert f.dt == pytest.approx(0.1)
        assert f.steps == 64
        resummed = f.increments[0::2] + f.increments[1::2]
        assert np.max(np.abs(resummed - p.increments)) < 1e-15

    def test_double_refinement_matches_factor_four(self):
        p = WienerPath.sample(59, 0, 2, 0.2, 8)
        assert np.array_equal(p.refined(4).increments,
                              p.refine().refine().increments)

    def test_refined_variance(self):
        # fine increments remain N(0, dt/2)
        vals = []
        for pid in range(2000):
            p = WienerPath.sample(61, pid, 1, 0.2, 8)
            vals.append(p.refine().increments[:, 0])
        vals = np.concatenate(vals)
        assert abs(vals.var() - 0.1) < 0.02 * 0.1

    def test_refinement_level_streams_differ(self):
        p = WienerPath.sample(67, 0, 1, 0.4, 16)
        f1 = p.refine()
        f2 = f1.refine()
        # bridge noise at level 2 is a fresh stream, not a replay of level 1
        x1 = f1.increments[0::2] - 0.5 * p.increments
        x2 = f2.increments[0::2] - 0.5 * f1.increments
        assert not np.allclose(x1[: 8], x2[: 8])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def grid_uniforms(top):
    """The uniforms of the words whose top 53 bits are ``top``."""
    return _uniforms(np.asarray(top, dtype=np.uint64) << np.uint64(11))


class TestInverseNormalCdf:
    def test_word_to_uniform(self):
        words = np.array([0, 2 ** 64 - 1, 2 ** 64 - 2049], dtype=np.uint64)
        u = _uniforms(words)
        z = ndtri(u)
        assert np.all(np.isfinite(z[:2]))
        assert z[0] < -8.0 < 8.0 < z[1]
        # the half-ulp offset rounds only the all-ones word up to 1.0
        plain = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54
        assert plain[1] == 1.0 and u[1] == np.nextafter(1.0, 0.0)
        assert np.array_equal(bits(u[[0, 2]]), bits(plain[[0, 2]]))

    def test_special_values(self):
        z = ndtri(np.array([0.0, 1.0, -0.5, 1.5, np.nan, 0.5]))
        assert z[0] == -np.inf and z[1] == np.inf
        assert np.all(np.isnan(z[2:5])) and z[5] == 0.0
        assert ndtri(np.zeros((0, 3))).shape == (0, 3)
        assert float(ndtri(0.975)) == pytest.approx(1.959963984540054, rel=1e-15)

    def test_matches_scipy_on_philox_uniforms(self):
        special = pytest.importorskip("scipy.special")
        bg = np.random.Philox(key=np.array([2025, 7], dtype=np.uint64))
        for _ in range(10):   # 10^7 uniforms, in chunks
            u = _uniforms(bg.random_raw(1_000_000))
            assert np.array_equal(bits(ndtri(u)), bits(special.ndtri(u)))

    def test_matches_scipy_at_the_grid_ends(self):
        # the 10^5 smallest and largest grid uniforms reach x = sqrt(-2 log p)
        # of 8.65, past the x = 8 switch, on both tails
        special = pytest.importorskip("scipy.special")
        top = np.arange(100_000, dtype=np.uint64)
        u = np.concatenate([grid_uniforms(top),
                            grid_uniforms(np.uint64(2 ** 53 - 1) - top)])
        z = ndtri(u)
        assert np.sum(z < -8.0) > 0 and np.sum(z > 8.0) > 0
        assert np.array_equal(bits(z), bits(special.ndtri(u)))

    def test_matches_scipy_at_the_branch_points(self):
        special = pytest.importorskip("scipy.special")
        steps = np.arange(-1000, 1001)
        e = np.exp(-2.0)
        u = np.concatenate([e + steps * np.spacing(e),
                            (1.0 - e) + steps * np.spacing(1.0 - e),
                            [0.5, 1e-300, 5e-324, np.nextafter(1.0, 0.0)]])
        assert np.array_equal(bits(ndtri(u)), bits(special.ndtri(u)))

    def test_stacked_draws_equal_per_mode_and_per_path_draws(self):
        def per_mode(seed, pid, k, start, count, stream, var):
            words = _raw_words(seed, [pid], [k], start, count, stream)[0, :, 0]
            return np.sqrt(var) * ndtri(_uniforms(words))

        inc = sample_increments(37, 3, 4, 0.1, 5, 29)
        for k in range(4):
            assert np.array_equal(bits(inc[:, k]), bits(per_mode(37, 3, k, 5, 24, 0, 0.1)))
        path = WienerPath.sample(37, 3, 4, 0.1, 24)
        fine = path.refine()
        for k in range(4):
            xi = per_mode(37, 3, k, 0, 24, 1, 0.1 / 4.0)
            assert np.array_equal(bits(fine.increments[0::2, k]),
                                  bits(0.5 * path.increments[:, k] + xi))
        many = WienerPath.sample_many(37, [3, 0, 8], 4, 0.1, 24)
        for one, pid in zip(many, [3, 0, 8]):
            assert one.path_id == pid
            assert np.array_equal(bits(one.increments),
                                  bits(WienerPath.sample(37, pid, 4, 0.1, 24).increments))
        aux = auxiliary_normals(37, 3, 2, 50)
        assert np.array_equal(bits(aux[:10]), bits(auxiliary_normals(37, 3, 2, 10)))
