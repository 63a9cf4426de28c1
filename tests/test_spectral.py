"""Spectral core: projection, derivatives, transport term, inner products."""

import itertools
import struct

import numpy as np
import pytest

from dissipeuler.limits import probe_fields
from dissipeuler.spectral import (
    SpectralError,
    SpectralField,
    TorusGrid,
    _band_energy_and_grad_norm_sq,
    _band_rfft,
    _band_to_physical,
    _convective_with_sup,
    _rfft,
    band_gradient,
    convective_term,
    divergence_defect,
    half_to_physical,
    inner_product,
    l2_norm_sq,
    leray_project,
    read_field,
    single_mode,
    taylor_green,
    write_field,
)

from conftest import (
    band_field,
    coeff_at,
    dealias,
    full_layout,
    full_wavenumbers,
    gradient_physical,
    parseval_energy,
    random_divfree_field,
    random_field,
)


def field_from_values(grid, *components):
    vals = np.zeros((grid.dim,) + grid.shape)
    for i, c in enumerate(components):
        vals[i] = np.broadcast_to(c, grid.shape)
    return SpectralField.from_physical(grid, vals)


class TestGrid:
    def test_invariants(self):
        g = TorusGrid(2, 64)
        assert g.dof == 2 * 64 ** 2
        assert g.volume == pytest.approx((2 * np.pi) ** 2)

    @pytest.mark.parametrize("dim,n", [(1, 32), (4, 32), (2, 6), (2, 48)])
    def test_rejects_bad_grids(self, dim, n):
        with pytest.raises(SpectralError):
            TorusGrid(dim, n)

    def test_dealias_cutoff_strict(self):
        # alias images of products of retained modes must stay above the cut
        for n in (16, 32, 64, 128):
            cut = TorusGrid(2, n).dealias_cutoff()
            assert n - 2 * cut > cut


class TestLerayProjection:
    def test_gradient_projects_to_zero(self, grid2d):
        # u = grad(sin x1) = (cos x1, 0)
        x = grid2d.points()
        u = field_from_values(grid2d, np.cos(x[0]), 0.0)
        p = leray_project(u)
        assert np.max(np.abs(p.coeffs)) < 1e-12 * grid2d.n ** 2

    def test_divergence_free_unchanged(self, grid2d):
        x = grid2d.points()
        u = field_from_values(grid2d, np.sin(x[1]), 0.0)
        p = leray_project(u)
        assert np.max(np.abs(p.coeffs - u.coeffs)) < 1e-12 * np.max(np.abs(u.coeffs))

    def test_mixed_field_hand_formula(self, grid2d):
        # u = (cos x1 + sin x2, 0): the cos x1 part is a gradient, per-mode
        # formula u_hat - k (k.u_hat)/|k|^2 kills it and keeps sin x2
        x = grid2d.points()
        u = field_from_values(grid2d, np.cos(x[0]) + np.sin(x[1]), 0.0)
        expected = field_from_values(grid2d, np.sin(x[1]), 0.0)
        p = leray_project(u)
        assert np.max(np.abs(p.coeffs - expected.coeffs)) < 1e-10

    def test_mean_mode_unchanged(self, grid2d):
        rng = np.random.default_rng(3)
        f = random_field(grid2d, rng)
        shifted = SpectralField(grid2d, f.coeffs.copy())
        mean = shifted.coeffs.copy()
        p = leray_project(shifted)
        zero_idx = (0,) * grid2d.dim
        for i in range(grid2d.dim):
            assert p.coeffs[(i,) + zero_idx] == mean[(i,) + zero_idx]

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_idempotent_and_self_adjoint(self, dim, n):
        grid = TorusGrid(dim, n)
        rng = np.random.default_rng(101 + dim)
        for _ in range(20):
            f = random_field(grid, rng)
            g = random_field(grid, rng)
            pf = leray_project(f)
            pg = leray_project(g)
            ppf = leray_project(pf)
            scale = np.max(np.abs(pf.coeffs)) + 1e-300
            assert np.max(np.abs(ppf.coeffs - pf.coeffs)) / scale < 1e-12
            lhs = inner_product(pf, g)
            rhs = inner_product(f, pg)
            denom = abs(lhs) + abs(rhs) + 1e-300
            assert abs(lhs - rhs) / denom < 1e-12
            assert divergence_defect(pf) < 1e-12


def grad_of(f):
    """``band_gradient`` of a field ``f`` that lies in the dealias band."""
    return band_gradient(f.grid, f.grid.ops.to_band(f.coeffs))


class TestGradient:
    def test_single_mode(self, grid2d):
        x = grid2d.points()
        u = field_from_values(grid2d, np.sin(x[0]), 0.0)
        g = grad_of(u)
        assert np.allclose(g[0, 0], np.broadcast_to(np.cos(x[0]), grid2d.shape), atol=1e-12)
        assert np.max(np.abs(g[0, 1])) < 1e-12
        assert np.max(np.abs(g[1])) < 1e-12

    def test_constant_field(self, grid2d):
        u = field_from_values(grid2d, 0.7, -0.3)
        assert np.max(np.abs(grad_of(u))) < 1e-13

    def test_hand_differentiated_mode(self, grid2d):
        x = grid2d.points()
        u = field_from_values(grid2d, np.sin(2 * x[1]), 0.0)
        g = grad_of(u)
        expected = np.broadcast_to(2.0 * np.cos(2 * x[1]), grid2d.shape)
        assert np.allclose(g[0, 1], expected, atol=1e-12)

    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 128), (3, 16)])
    def test_band_gradient_keeps_the_bits_of_the_full_layout_gradient(self, dim, n):
        # the probe's fields and random band fields: one pruned inverse
        # transform of the band gives the bits of the full-layout transform
        grid = TorusGrid(dim, n)
        rng = np.random.default_rng(dim * n)
        fields = [phi for _, phi in probe_fields(grid)] + [
            band_field(grid, grid.ops.to_band(random_field(grid, rng, scale).coeffs))
            for scale in (1e-3, 1.0, 1e3)]
        for f in fields:
            got = band_gradient(grid, grid.ops.to_band(f.coeffs))
            assert got.shape == (dim, dim) + grid.shape
            assert got.view(np.uint64).tobytes() == \
                gradient_physical(f).view(np.uint64).tobytes()

    def test_grad_norm_matches_tensor(self, grid2d):
        rng = np.random.default_rng(7)
        f = random_divfree_field(grid2d, rng)
        tensor = grad_of(f)
        quad = np.sum(tensor ** 2) * grid2d.dx ** grid2d.dim
        band = grid2d.ops.to_band(f.coeffs)   # f lies in the band
        assert _band_energy_and_grad_norm_sq(grid2d, band)[1] == pytest.approx(quad, rel=1e-12)


class TestConvectiveTerm:
    def test_constant_is_zero(self, grid2d):
        u = field_from_values(grid2d, 1.3, -0.4)
        c = convective_term(u)
        assert np.max(np.abs(c.coeffs)) < 1e-12

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_energy_neutral(self, dim, n):
        grid = TorusGrid(dim, n)
        rng = np.random.default_rng(53 + dim)
        for _ in range(10):
            u = random_divfree_field(grid, rng)
            c = convective_term(u)
            num = abs(inner_product(c, u))
            den = np.sqrt(l2_norm_sq(c) * l2_norm_sq(u)) + 1e-300
            assert num / den < 1e-10

    def test_result_divergence_free(self, grid2d):
        rng = np.random.default_rng(11)
        u = random_divfree_field(grid2d, rng)
        assert divergence_defect(convective_term(u)) < 1e-12

    def test_taylor_green_physical_space_oracle(self):
        # independent pipeline: evaluate analytic TG on a 4x refined grid,
        # form products pointwise, differentiate and project there, then
        # compare retained modes against the coarse-grid operator
        coarse = TorusGrid(2, 32)
        fine = TorusGrid(2, 128)
        xf = fine.points()
        vals = np.zeros((2,) + fine.shape)
        vals[0] = np.sin(xf[0]) * np.cos(xf[1])
        vals[1] = -np.cos(xf[0]) * np.sin(xf[1])

        prods = np.empty((2, 2) + fine.shape)
        for i in range(2):
            for j in range(2):
                prods[i, j] = vals[i] * vals[j]
        k = full_wavenumbers(fine)
        div_hat = np.zeros((2,) + fine.shape, dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                div_hat[i] += 1j * k[j] * np.fft.fftn(prods[i, j])
        k2 = k[0] ** 2 + k[1] ** 2
        k2safe = np.where(k2 == 0, 1.0, k2)
        kdot = k[0] * div_hat[0] + k[1] * div_hat[1]
        proj = np.empty_like(div_hat)
        for i in range(2):
            proj[i] = -(div_hat[i] - k[i] * kdot / k2safe)

        ours = convective_term(taylor_green(coarse))
        # compare on the coarse mode set (normalized amplitudes)
        nc, nf = coarse.n, fine.n
        for kx in range(-10, 11):
            for ky in range(-10, 11):
                a_ref = proj[:, kx % nf, ky % nf] / nf ** 2
                a_our = coeff_at(ours, (kx, ky)) / nc ** 2
                assert np.max(np.abs(a_ref - a_our)) < 1e-8

        # Taylor-Green transports itself onto a pure gradient: P div(u x u) = 0
        assert np.max(np.abs(ours.coeffs)) / coarse.n ** 2 < 1e-12

    def test_physical_space_oracle_3d(self):
        # band-limited modes evaluated on a 2x refined grid: products there
        # are exact, so the np.fft reference loop and the dealiased coarse
        # operator must agree on every retained mode
        coarse = TorusGrid(3, 16)
        fine = TorusGrid(3, 32)
        rng = np.random.default_rng(29)
        modes = {}
        for k in [(1, 0, 0), (0, 2, 1), (1, -1, 2), (3, 1, -2), (2, 2, 0)]:
            kk = np.array(k, dtype=float)
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            modes[k] = 0.3 * (a - kk * (kk @ a) / (kk @ kk))
        # point values a e^{ik.x} + conj(a) e^{-ik.x} summed over the modes
        x = fine.points()
        vals = np.zeros((3,) + fine.shape)
        for q, a in modes.items():
            phase = np.exp(1j * sum(qj * xj for qj, xj in zip(q, x)))
            for i in range(3):
                vals[i] += 2.0 * np.real(a[i] * phase)

        k = full_wavenumbers(fine)
        div_hat = np.zeros((3,) + fine.shape, dtype=np.complex128)
        for i in range(3):
            for j in range(3):
                div_hat[i] += 1j * k[j] * np.fft.fftn(vals[i] * vals[j])
        k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        k2safe = np.where(k2 == 0, 1.0, k2)
        kdot = sum(k[j] * div_hat[j] for j in range(3))
        proj = np.empty_like(div_hat)
        for i in range(3):
            proj[i] = -(div_hat[i] - k[i] * kdot / k2safe)

        ours = convective_term(SpectralField.from_modes(coarse, modes))
        nc, nf = coarse.n, fine.n
        cut = coarse.dealias_cutoff()
        span = range(-cut, cut + 1)
        worst = 0.0
        for q in itertools.product(span, span, span):
            a_ref = proj[(slice(None),) + tuple(x % nf for x in q)] / nf ** 3
            a_our = coeff_at(ours, q) / nc ** 3
            worst = max(worst, float(np.max(np.abs(a_ref - a_our))))
        assert worst < 1e-12
        # nothing outside the dealiased band
        kc = full_wavenumbers(coarse)
        inside = (np.abs(kc[0]) <= cut) & (np.abs(kc[1]) <= cut) & (np.abs(kc[2]) <= cut)
        assert np.max(np.abs(full_layout(ours) * ~inside)) == 0.0

    def test_combination_mode_hand_oracle(self):
        # u = TG + a*(sin x2, 0). By hand: div(u x u) =
        #   ( sin(2x1)/2 , sin(2x2)/2 + (a/2) sin x1 (1 - cos 2x2) )
        # The TG part and (a/2) sin x1 are gradients/solenoidal; projecting
        # the (1, +-2) modes of -(a/4)[sin(x1+2x2)+sin(x1-2x2)] by hand gives
        # the expected amplitudes asserted below.
        grid = TorusGrid(2, 32)
        a = 0.8
        u = SpectralField(grid, taylor_green(grid).coeffs + single_mode(grid, a).coeffs)
        got = convective_term(u)

        expected = np.zeros((2,) + grid.shape, dtype=np.complex128)
        scale = grid.n ** 2

        def add_mode(kvec, vec):
            kidx = tuple(q % grid.n for q in kvec)
            cidx = tuple((-q) % grid.n for q in kvec)
            for i in range(2):
                expected[(i,) + kidx] += vec[i] * scale
                expected[(i,) + cidx] += np.conj(vec[i]) * scale

        # convective term = -P div(u x u); drop pure-gradient parts
        # term -(a/2) sin x1 e2: sin t = (e^{it} - e^{-it}) / 2i
        add_mode((1, 0), np.array([0.0, -(a / 2) * (1 / 2j)]))
        # term +(a/2) sin x1 cos 2x2 e2 = (a/4)[sin(x1+2x2) + sin(x1-2x2)] e2
        for kvec in ((1, 2), (1, -2)):
            raw = np.array([0.0, (a / 4) * (1 / 2j)])
            kk = np.array(kvec, dtype=float)
            raw = raw - kk * (kk @ raw) / (kk @ kk)
            add_mode(kvec, raw)

        assert np.max(np.abs(full_layout(got) - expected)) / scale < 1e-12


class TestInnerProduct:
    def test_zero(self, grid2d):
        z = SpectralField.zero(grid2d)
        assert l2_norm_sq(z) == 0.0

    def test_sin_mode_closed_form_3d(self, grid3d):
        u = single_mode(grid3d)
        assert l2_norm_sq(u) == pytest.approx((2 * np.pi) ** 3 / 2, rel=1e-12)

    def test_sin_mode_closed_form_2d(self, grid2d):
        u = single_mode(grid2d)
        assert l2_norm_sq(u) == pytest.approx((2 * np.pi) ** 2 / 2, rel=1e-12)

    def test_symmetry(self, grid2d):
        rng = np.random.default_rng(5)
        f, g = random_field(grid2d, rng), random_field(grid2d, rng)
        assert inner_product(f, g) == inner_product(g, f)

    def test_parseval_against_physical_quadrature(self, grid2d):
        rng = np.random.default_rng(9)
        f = random_field(grid2d, rng)
        phys = f.to_physical()
        quad = np.sum(phys ** 2) * grid2d.dx ** 2
        assert l2_norm_sq(f) == pytest.approx(quad, rel=1e-12)


class TestRoundTrips:
    def test_physical_spectral_round_trip(self, grid2d):
        rng = np.random.default_rng(13)
        vals = rng.standard_normal((2,) + grid2d.shape)
        f = SpectralField.from_physical(grid2d, vals)
        back = f.to_physical()
        assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))

    def test_from_modes_is_real(self, grid2d):
        f = SpectralField.from_modes(grid2d, {(2, 1): np.array([0.3 + 0.1j, -0.2])})
        assert np.max(np.abs(np.fft.ifftn(full_layout(f), axes=(1, 2)).imag)) < 1e-13

    def test_snapshot_round_trip(self, tmp_path, grid2d):
        rng = np.random.default_rng(17)
        f = random_divfree_field(grid2d, rng)
        p = tmp_path / "field.bin"
        write_field(p, f, 0.625)
        g, t = read_field(p)
        assert t == 0.625
        assert g.grid == grid2d
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_snapshot_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTAFIELD")
        with pytest.raises(SpectralError):
            read_field(p)

    def test_snapshot_rejects_truncated(self, tmp_path, grid2d):
        f = taylor_green(grid2d)
        p = tmp_path / "field.bin"
        write_field(p, f, 0.5)
        full = p.read_bytes()
        want = 16 * grid2d.dim * grid2d.n * (grid2d.n // 2 + 1)
        assert len(full) == 21 + want
        p.write_bytes(full[:-8])
        with pytest.raises(SpectralError) as err:
            read_field(p)
        assert f"expected {want}" in str(err.value)
        assert f"got {want - 8}" in str(err.value)
        p.write_bytes(full[:12])
        with pytest.raises(SpectralError):
            read_field(p)
        p.write_bytes(full + bytes(8))
        with pytest.raises(SpectralError, match=f"8 trailing bytes after the {want}"):
            read_field(p)

    @pytest.mark.parametrize("version", [1, 3])
    def test_snapshot_other_version_rejected(self, tmp_path, grid2d, version):
        # version 2 is the one format; a header naming another is refused
        p = tmp_path / "field.bin"
        write_field(p, taylor_green(grid2d), 0.25)
        raw = bytearray(p.read_bytes())
        raw[6:8] = struct.pack("<H", version)
        p.write_bytes(bytes(raw))
        with pytest.raises(SpectralError, match="unsupported snapshot version"):
            read_field(p)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_snapshot_v2_bytes(self, tmp_path, dim, n):
        # format v2 on disk: header then the half spectrum, last axis
        # n//2 + 1, component-major in C order
        grid = TorusGrid(dim, n)
        f = taylor_green(grid)
        p = tmp_path / "field.bin"
        write_field(p, f, 0.25)
        raw = p.read_bytes()
        assert raw[:6] == b"DEFLD\x00"
        assert raw[6:21] == struct.pack("<HBId", 2, dim, n, 0.25)
        assert len(raw) == 21 + 16 * dim * n ** (dim - 1) * (n // 2 + 1)
        data = np.frombuffer(raw[21:], dtype="<c16").reshape(
            (dim,) + (n,) * (dim - 1) + (n // 2 + 1,))
        assert np.array_equal(data, f.coeffs)
        full = np.fft.fftn(f.to_physical(), axes=tuple(range(1, dim + 1)))
        assert np.max(np.abs(data - full[..., : n // 2 + 1])) < 1e-12 * n ** dim

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_transforms_match_complex_fft(self, dim, n):
        # the half-spectrum transforms and the Hermitian completion agree
        # with full complex FFTs of the same real data
        grid = TorusGrid(dim, n)
        axes = tuple(range(1, dim + 1))
        vals = np.random.default_rng(31 + dim).standard_normal((dim,) + grid.shape)
        f = SpectralField.from_physical(grid, vals)
        ref = np.fft.fftn(vals, axes=axes)
        full = full_layout(f)
        assert np.max(np.abs(full - ref)) < 1e-13 * np.max(np.abs(ref))
        back = np.real(np.fft.ifftn(full, axes=axes))
        assert np.max(np.abs(f.to_physical() - back)) < 1e-14 * np.max(np.abs(back))
        k = full_wavenumbers(grid)
        grad_ref = np.real(np.fft.ifftn(
            np.stack([[1j * k[j] * full[i] for j in range(dim)]
                      for i in range(dim)]), axes=tuple(a + 1 for a in axes)))
        grad = gradient_physical(f)
        assert np.max(np.abs(grad - grad_ref)) < 1e-13 * np.max(np.abs(grad_ref))


class TestOperatorBundle:
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_cached_arrays_are_read_only(self, dim, n):
        ops = TorusGrid(dim, n).ops
        arrays = [*ops.ks, *ops.dks, ops.k2, ops.inv_k2, ops.mask, ops.weight]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1

    def test_cached_once_per_grid(self):
        grid = TorusGrid(2, 32)
        assert grid.ops is grid.ops
        assert grid.ops.k2 is grid.ops.k2

    def test_bundle_matches_definitions(self):
        # the half spectrum of the fftn layout: last axis 0..n/2 with -n/2
        # at Nyquist, as np.fft.fftfreq orders it
        grid = TorusGrid(3, 16)
        ops = grid.ops
        assert grid.spectral_shape == (16, 16, 9)
        k1 = np.fft.fftfreq(16, d=1.0 / 16)
        kf = full_wavenumbers(grid)
        ks = kf[:2] + (kf[2][..., :9],)
        for axis in range(3):
            assert ops.ks[axis].shape == ks[axis].shape
            assert np.array_equal(ops.ks[axis], ks[axis])
            dk = ks[axis].copy()
            dk[np.abs(dk) == 8] = 0.0
            assert np.array_equal(ops.dks[axis], dk)
        assert np.array_equal(ops.ks[2].ravel(), np.append(np.arange(8), -8))
        assert np.array_equal(ops.ks[0].ravel(), k1)
        k2 = ks[0] ** 2 + ks[1] ** 2 + ks[2] ** 2
        assert np.array_equal(ops.k2, k2)
        cut = grid.dealias_cutoff()
        mask = (np.abs(ks[0]) <= cut) & (np.abs(ks[1]) <= cut) & (np.abs(ks[2]) <= cut)
        assert np.array_equal(ops.mask, mask)
        assert np.array_equal(ops.weight.ravel(), [1.0] + [2.0] * 7 + [1.0])


def white_field(grid, seed):
    """Real field with energy on every mode, Nyquist planes included."""
    vals = np.random.default_rng(seed).standard_normal((grid.dim,) + grid.shape)
    return SpectralField.from_physical(grid, vals), vals


class TestHalfSpectrum:
    GRIDS = [(2, 32), (3, 16)]

    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_parseval_sums_match_full_spectrum(self, dim, n):
        grid = TorusGrid(dim, n)
        axes = tuple(range(1, dim + 1))
        f, fv = white_field(grid, 61 + dim)
        g, gv = white_field(grid, 71 + dim)
        full_f, full_g = np.fft.fftn(fv, axes=axes), np.fft.fftn(gv, axes=axes)
        assert np.max(np.abs(f.coeffs[..., 0])) > 0
        assert np.max(np.abs(f.coeffs[..., n // 2])) > 0
        scale = grid.volume / n ** (2 * dim)
        k = full_wavenumbers(grid)
        k2 = sum(kj ** 2 for kj in k)
        power = (np.abs(full_f) ** 2).sum(axis=0)

        def close(a, b):
            return abs(a - b) <= 1e-13 * abs(b)

        assert close(inner_product(f, g),
                     float(np.real(np.sum(full_f * np.conj(full_g)))) * scale)
        energy, grad = parseval_energy(f)
        assert close(energy, 0.5 * float(power.sum()) * scale)
        assert close(grad, float(np.sum(k2 * power)) * scale)
        # the Nyquist index of an axis other than the last holds -n/2 for
        # both k and -k, so k.u there is not the mirror image: leave them out
        keep = np.ones(grid.shape, dtype=bool)
        for kj in k[:-1]:
            keep &= np.abs(kj) != n // 2
        f = SpectralField(grid, f.coeffs * keep[..., : n // 2 + 1])
        full_f = full_f * keep
        kdotu = sum(k[j] * full_f[j] for j in range(dim))
        want = np.sqrt(np.sum(np.abs(kdotu) ** 2) / np.sum(np.abs(full_f) ** 2))
        assert close(divergence_defect(f), float(want))

    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_from_modes_matches_rfftn_of_analytic_field(self, dim, n):
        # last wavevector component 0, > 0 and < 0
        if dim == 2:
            ks = [(2, 0), (-1, 0), (1, 3), (-2, 1), (2, -3), (0, -1)]
        else:
            ks = [(1, -2, 0), (0, 1, 0), (1, 2, 3), (-2, 0, 1), (2, 1, -3),
                  (0, 0, -1)]
        rng = np.random.default_rng(83 + dim)
        modes = {q: rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                 for q in ks}
        grid = TorusGrid(dim, n)
        vals = np.zeros((dim,) + grid.shape)
        for q, a in modes.items():
            phase = np.exp(1j * sum(qj * xj for qj, xj in zip(q, grid.points())))
            for i in range(dim):
                vals[i] += 2.0 * np.real(a[i] * phase)
        f = SpectralField.from_modes(grid, modes)
        ref = np.fft.rfftn(vals, axes=tuple(range(1, dim + 1)))
        assert f.coeffs.shape == ref.shape
        assert np.max(np.abs(f.coeffs - ref)) < 1e-12 * n ** dim


class TestTransformOracle:
    # the stacks the kernels transform: a field's dim components and the
    # dim(dim+1)/2 products u_i u_j
    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (2, 128), (3, 16), (3, 32)])
    def test_transforms_match_scipy_bit_for_bit(self, dim, n):
        scipy_fft = pytest.importorskip("scipy.fft")
        grid = TorusGrid(dim, n)
        axes = tuple(range(-dim, 0))
        rng = np.random.default_rng(101 * n + dim)
        for stack in (dim, dim * (dim + 1) // 2):
            vals = rng.standard_normal((stack,) + grid.shape)
            half = _rfft(grid, vals)
            want = scipy_fft.rfftn(vals, axes=axes)
            assert np.array_equal(half.view(np.uint64), want.view(np.uint64))
            half *= rng.standard_normal(half.shape)
            back = half_to_physical(grid, half)
            want = scipy_fft.irfftn(half, s=grid.shape, axes=axes)
            assert np.array_equal(back.view(np.uint64), want.view(np.uint64))


class TestDiagnostics:
    def test_convective_reports_sup_norm(self, grid2d):
        # the solver's blow-up and CFL checks read this pointwise sup
        u = single_mode(grid2d, 2.0)
        assert _convective_with_sup(u, dealias(u).to_physical())[1] \
            == pytest.approx(2.0, rel=1e-10)


def per_product_convective(u):
    """The transport kernel as one transform per product u_i u_j, with the
    real and boolean multipliers cast on every use: the oracle of the
    stacked kernel."""
    grid, ops = u.grid, u.grid.ops
    phys = half_to_physical(grid, u.coeffs * ops.mask)
    sup = float(np.sqrt((phys ** 2).sum(axis=0).max()))
    c = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            prod_hat = _rfft(grid, phys[i] * phys[j])
            prod_hat *= ops.mask
            c[i] -= 1j * ops.dks[j] * prod_hat
            if i != j:
                c[j] -= 1j * ops.dks[i] * prod_hat
    ks = ops.ks
    factor = sum(ks[j] * c[j] for j in range(len(ks))) * ops.inv_k2
    out = np.empty_like(c)
    for j in range(len(ks)):
        out[j] = c[j] - ks[j] * factor
    return out, sup


class TestStackedKernel:
    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (2, 128), (3, 16)])
    def test_matches_per_product_loop_bit_for_bit(self, dim, n):
        grid = TorusGrid(dim, n)
        rng = np.random.default_rng(7 * n + dim)
        # a field with energy on every mode, which convective_term dealiases
        # and transforms, and its dealiased part, whose point values the
        # solver hands over
        u = SpectralField.from_physical(
            grid, rng.standard_normal((dim,) + grid.shape))
        band = dealias(u)
        want, _ = per_product_convective(u)
        assert np.array_equal(convective_term(u).coeffs.view(np.uint64),
                              want.view(np.uint64))
        want, want_sup = per_product_convective(band)
        got, got_sup = _convective_with_sup(band, band.to_physical())
        assert np.array_equal(got.coeffs.view(np.uint64),
                              want.view(np.uint64))
        assert got_sup == want_sup


class TestBandTransforms:
    """The pruned transforms of the band carry the bits of the full ones."""

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (2, 128), (3, 8), (3, 16)])
    def test_match_the_full_transforms_bit_for_bit(self, dim, n):
        grid = TorusGrid(dim, n)
        ops = grid.ops
        rng = np.random.default_rng(13 * n + dim)
        for stack in (dim, dim * (dim + 1) // 2):
            vals = rng.standard_normal((stack,) + grid.shape)
            band = _band_rfft(grid, vals)
            assert band.shape == (stack,) + ops.band_shape
            want = ops.to_band(_rfft(grid, vals))
            assert np.array_equal(band.view(np.uint64), want.view(np.uint64))
            band *= rng.standard_normal(band.shape)
            full = ops.from_band(band)
            assert np.array_equal(full[:, ops.mask], band.reshape(stack, -1))
            assert not np.any(np.ascontiguousarray(full[:, ~ops.mask]).view(np.uint64))
            back = _band_to_physical(grid, band)
            want = half_to_physical(grid, full)
            assert np.array_equal(back.view(np.uint64), want.view(np.uint64))
