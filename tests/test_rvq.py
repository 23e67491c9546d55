import numpy as np
import pytest

from minisvs import rvq
from minisvs.autodiff import Tensor, gradient_check


def _coder_from_entries(*entry_sets, pin_zero=False):
    return rvq.RvqCoder(
        [rvq.Codebook(np.asarray(e, dtype=np.float32)) for e in entry_sets],
        pin_zero=pin_zero,
    )


BOOK1 = [[0.0, 0.0], [1.0, 1.0]]
BOOK2 = [[0.0, 0.0], [-0.1, 0.2]]


class TestEncodeDecode:
    def test_single_stage_nearest_neighbor(self):
        coder = _coder_from_entries(BOOK1)
        codes, zq, res, sel = rvq.encode_detailed(coder, np.array([[0.9, 1.2]]))
        assert codes.indices.tolist() == [[1]]
        assert np.allclose(np.array([[0.9, 1.2]]) - zq, [[-0.1, 0.2]], atol=1e-7)

    def test_two_stage_exact_cover(self):
        coder = _coder_from_entries(BOOK1, BOOK2)
        codes, zq, _, _ = rvq.encode_detailed(coder, np.array([[0.9, 1.2]]))
        assert codes.indices.ravel().tolist() == [1, 1]
        assert np.abs(np.array([[0.9, 1.2]]) - zq).max() < 1e-6

    def test_decode_sums_entries(self):
        coder = _coder_from_entries(BOOK1, BOOK2)
        codes = rvq.CodecCodes(np.array([[1], [1]]), 2, 2)
        out = rvq.decode(coder, codes)
        assert np.allclose(out, [[0.9, 1.2]], atol=1e-7)

    def test_all_zero_codebooks_decode_to_zero(self):
        coder = _coder_from_entries(np.zeros((4, 3)), np.zeros((4, 3)))
        codes = rvq.CodecCodes(np.array([[2, 1], [0, 3]]), 4, 3)
        assert np.all(rvq.decode(coder, codes) == 0)

    def test_roundtrip_error_equals_final_residual(self):
        rng = np.random.default_rng(0)
        coder = _coder_from_entries(
            rng.standard_normal((8, 4)), rng.standard_normal((8, 4)) * 0.3
        )
        z = rng.standard_normal((20, 4))
        codes, zq, residuals, selected = rvq.encode_detailed(coder, z)
        final_residual = residuals[-1] - selected[-1]
        assert np.allclose(z - rvq.decode(coder, codes), final_residual, atol=1e-12)

    def test_residual_norm_nonincreasing_with_zero_entry(self):
        rng = np.random.default_rng(1)
        sets = []
        for c in range(3):
            e = rng.standard_normal((6, 4)).astype(np.float32)
            e[0] = 0.0
            sets.append(e)
        coder = _coder_from_entries(*sets)
        z = rng.standard_normal((50, 4))
        _, _, residuals, selected = rvq.encode_detailed(coder, z)
        # oracle: exhaustive nearest neighbor per stage
        r = z.copy()
        for c, cb in enumerate(coder.codebooks):
            d = ((r[:, None, :] - cb.entries[None].astype(np.float64)) ** 2).sum(axis=2)
            ids = d.argmin(axis=1)
            assert np.allclose(selected[c], cb.entries[ids])
            r = r - cb.entries[ids]
        norms = [np.linalg.norm(residuals[c], axis=1) for c in range(3)]
        norms.append(np.linalg.norm(residuals[-1] - selected[-1], axis=1))
        for a, b in zip(norms, norms[1:]):
            assert np.all(b <= a + 1e-9)

    def test_tie_breaks_to_lowest_index(self):
        coder = _coder_from_entries([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        codes = rvq.encode(coder, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert codes.indices.tolist() == [[0, 0]]

    def test_dimension_mismatch_rejected(self):
        coder = _coder_from_entries(BOOK1)
        with pytest.raises(ValueError):
            rvq.encode(coder, np.zeros((3, 5)))

    def test_codebooks_of_unequal_sizes_rejected(self):
        # codes carry one K, so a later stage's id past the first stage's
        # size could not be encoded
        with pytest.raises(ValueError, match=r"one size, got sizes \[4, 40\]"):
            _coder_from_entries(np.zeros((4, 2)), np.ones((40, 2)))

    def test_out_of_range_codes_rejected(self):
        coder = _coder_from_entries(BOOK1)
        with pytest.raises(ValueError):
            rvq.CodecCodes(np.array([[5]]), 2, 2)

    def test_encode_decode_idempotent_on_scale_separated_books(self):
        # each stage an order of magnitude finer: re-encoding a decode
        # provably reproduces the codes
        rng = np.random.default_rng(2)
        sets = [rng.standard_normal((8, 3)) * (0.05**c) for c in range(3)]
        coder = _coder_from_entries(*sets)
        z = rng.standard_normal((30, 3))
        codes = rvq.encode(coder, z)
        again = rvq.encode(coder, rvq.decode(coder, codes))
        assert np.array_equal(codes.indices, again.indices)

    def test_stage1_codes_stable_under_small_perturbation(self):
        # stability radius: half the gap between best and runner-up distance
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((10, 4))
        coder = _coder_from_entries(entries)
        z = rng.standard_normal((40, 4))
        d = np.sqrt(((z[:, None, :] - entries[None]) ** 2).sum(axis=2))
        d.sort(axis=1)
        margin = d[:, 1] - d[:, 0]
        base = rvq.encode(coder, z).indices
        for trial in range(5):
            delta = rng.standard_normal(z.shape)
            delta /= np.linalg.norm(delta, axis=1, keepdims=True)
            z2 = z + delta * (0.49 * margin)[:, None]
            assert np.array_equal(rvq.encode(coder, z2).indices, base)

    def test_bit_identical_to_a_per_stage_reference(self):
        # a codec-step batch: 512 float32 latents of 16 dims, 8 pin-zero
        # codebooks of 64, each stage finer than the last
        rng = np.random.default_rng(4)
        sets = [rng.standard_normal((64, 16)).astype(np.float32) * 0.5**c for c in range(8)]
        # exact ties: a duplicated entry, and two entries that are
        # coordinate swaps of each other, equidistant from a frame on the
        # diagonal; each must break to the lower index
        sets[0][20] = sets[0][10]
        sets[0][3, :2], sets[0][7, :2], sets[0][[3, 7], 2:] = (1.0, 2.0), (2.0, 1.0), 0.0
        coder = _coder_from_entries(*sets, pin_zero=True)
        z = rng.standard_normal((512, 16)).astype(np.float32)
        z[5] = sets[0][10]
        z[6] = 0.0
        z[6, :2] = 1.5
        codes, zq, residuals, selected = rvq.encode_detailed(coder, z)
        ref_codes, ref_zq, ref_residuals, ref_selected = _reference_encode(coder, z)
        assert codes.indices[0, 5] == 10 and codes.indices[0, 6] == 3
        assert np.array_equal(codes.indices, ref_codes)
        for got, want in ((zq, ref_zq), (residuals, ref_residuals), (selected, ref_selected)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _reference_encode(coder, z):
    """Encoding stage by stage: the squared-distance expansion, entries
    chosen by fancy indexing and a fresh residual array per stage."""
    z = np.asarray(z, dtype=np.float64)
    r = z.copy()
    codes, residuals, selected = [], [], []
    for cb in coder.codebooks:
        entries = cb.entries.astype(np.float64)
        d = ((r * r).sum(axis=1, keepdims=True) - 2.0 * (r @ entries.T)
             + (entries * entries).sum(axis=1))
        ids = np.argmin(d, axis=1)
        codes.append(ids)
        residuals.append(r)
        selected.append(cb.entries[ids].astype(np.float64))
        r = r - selected[-1]
    return np.array(codes), z - r, np.array(residuals), np.array(selected)


class TestCommitment:
    def test_exact_quantization_zero(self):
        coder = _coder_from_entries(BOOK1)
        _, _, res, sel = rvq.encode_detailed(coder, np.array([[1.0, 1.0]]))
        assert rvq.commitment_loss(res, sel) == 0.0

    def test_single_stage_value(self):
        coder = _coder_from_entries(BOOK1)
        _, _, res, sel = rvq.encode_detailed(coder, np.array([[0.9, 1.2]]))
        assert abs(rvq.commitment_loss(res, sel) - 0.05) < 1e-7

    def test_additive_over_stages(self):
        res = np.zeros((2, 1, 2))
        sel = np.zeros((2, 1, 2))
        res[0, 0] = [-0.1, 0.2]  # squared error 0.05
        res[1, 0] = [0.1, 0.0]  # squared error 0.01
        assert abs(rvq.commitment_loss(res, sel) - 0.06) < 1e-12

    def test_matches_independent_residual_norms(self):
        rng = np.random.default_rng(4)
        coder = _coder_from_entries(*[rng.standard_normal((6, 3)) for _ in range(4)])
        z = rng.standard_normal((25, 3))
        _, _, res, sel = rvq.encode_detailed(coder, z)
        direct = sum(
            float(((res[c] - sel[c]) ** 2).sum(axis=1).mean()) for c in range(4)
        )
        assert abs(rvq.commitment_loss(res, sel) - direct) < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rvq.commitment_loss(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):
            rvq.commitment_loss(np.zeros((3, 3)), np.zeros((1, 2, 3)))

    @staticmethod
    def _encoded(seed=11):
        rng = np.random.default_rng(seed)
        coder = _coder_from_entries(*[rng.standard_normal((6, 3)) for _ in range(4)])
        z = rng.standard_normal((25, 3))
        _, _, res, sel = rvq.encode_detailed(coder, z)
        return z, res, sel

    def test_latent_against_running_reconstruction(self):
        # stage c's residual is z minus the sum of the entries chosen before
        # it, so (residuals, selected) and (z, cumsum(selected)) agree
        z, res, sel = self._encoded()
        a = rvq.commitment_loss(res, sel)
        b = rvq.commitment_loss(z, np.cumsum(sel, axis=0))
        assert abs(a - b) <= 1e-12 * abs(a)

    @pytest.mark.parametrize("shape", [(8, 512, 16), (4, 25, 3), (1, 3, 2)])
    def test_stage_reconstructions_are_cumsum_bit_for_bit(self, shape):
        scale = np.logspace(0, -3, shape[0])[:, None, None]  # residual stages shrink
        sel = np.random.default_rng(shape[0]).standard_normal(shape) * scale
        got = rvq.stage_reconstructions(sel)
        want = np.cumsum(sel, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_tensor_form_and_gradient(self):
        z, _, sel = self._encoded(12)
        prefix = np.cumsum(sel, axis=0)
        zt = Tensor(z.copy(), requires_grad=True)
        out = rvq.commitment_loss(zt, prefix)
        assert isinstance(out, Tensor)
        assert float(out.data) == rvq.commitment_loss(z, prefix)
        err = gradient_check(lambda: rvq.commitment_loss(zt, prefix), [zt], n_points=12,
                             rng=np.random.default_rng(13))
        assert err < 1e-6

    def test_f32_graph_matches_the_cast_prefix_form_bit_for_bit(self):
        def reference(z_flat, selected):
            # the in-graph form the codec step used before the two were one function
            prefix = np.cumsum(selected, axis=0).astype(z_flat.data.dtype)
            diff = z_flat - Tensor(prefix)
            return (diff * diff).sum(axis=-1).mean(axis=-1).sum()

        z, _, sel = self._encoded(14)
        outs, grads = [], []
        for fn in (reference, lambda zt, s: rvq.commitment_loss(zt, np.cumsum(s, axis=0))):
            zt = Tensor(z.astype(np.float32), requires_grad=True)
            out = fn(zt, sel)
            out.backward()
            outs.append(out.data)
            grads.append(zt.grad)
        assert outs[0].dtype == outs[1].dtype == np.float32
        assert outs[0].tobytes() == outs[1].tobytes()
        assert grads[0].dtype == grads[1].dtype == np.float32
        assert grads[0].tobytes() == grads[1].tobytes()


class TestInitCodebooks:
    def test_k1_is_sample_mean(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((40, 4))
        coder = _coder_from_entries(np.zeros((1, 4)))
        out = rvq.init_codebooks(coder, samples, seed=0)
        assert np.abs(out.codebooks[0].entries[0] - samples.mean(axis=0)).max() < 1e-6

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((30, 2)) * 0.05 + 4.0
        b = rng.standard_normal((30, 2)) * 0.05 - 4.0
        coder = _coder_from_entries(np.zeros((2, 2)))
        out = rvq.init_codebooks(coder, np.vstack([a, b]), seed=1)
        got = np.sort(out.codebooks[0].entries[:, 0])
        assert abs(got[0] - b[:, 0].mean()) < 0.05
        assert abs(got[1] - a[:, 0].mean()) < 0.05

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((64, 4))
        coder = _coder_from_entries(np.zeros((8, 4)), np.zeros((8, 4)))
        a = rvq.init_codebooks(coder, samples, seed=3)
        b = rvq.init_codebooks(coder, samples, seed=3)
        for ca, cb in zip(a.codebooks, b.codebooks):
            assert np.array_equal(ca.entries, cb.entries)

    def test_too_few_samples_rejected(self):
        coder = _coder_from_entries(np.zeros((8, 4)))
        with pytest.raises(ValueError):
            rvq.init_codebooks(coder, np.zeros((4, 4)), seed=0)


def _ema(coder, batch, **kwargs):
    """Encode a batch, then update the codebooks from that encode."""
    codes, _, residuals, _ = rvq.encode_detailed(coder, batch)
    return rvq.ema_update(coder, residuals, codes.indices, **kwargs)


def _reference_ema_from_batch(coder, batch, decay, rng=None):
    """EMA update that searches every stage again from a raw batch: the reference."""
    r = np.asarray(batch, dtype=np.float64).copy()
    for cb in coder.codebooks:
        old_entries = cb.entries.astype(np.float64)
        d = (r * r).sum(axis=1, keepdims=True) - 2.0 * (r @ old_entries.T) + (
            old_entries * old_entries
        ).sum(axis=1)
        ids = np.argmin(d, axis=1)
        counts = np.bincount(ids, minlength=cb.size).astype(np.float64)
        sums = np.zeros((cb.size, cb.dim))
        np.add.at(sums, ids, r)
        cb.ema_counts = (decay * cb.ema_counts + (1.0 - decay) * counts).astype(np.float32)
        cb.ema_sums = (decay * cb.ema_sums + (1.0 - decay) * sums).astype(np.float32)
        new_entries = cb.ema_sums / np.maximum(cb.ema_counts, rvq.COUNT_EPS)[:, None]
        if rng is not None:
            dead = (counts == 0) & (cb.ema_counts < rvq.DEAD_CODE_THRESHOLD)
            if coder.pin_zero:
                dead[0] = False
            if dead.any():
                new_entries[dead] = r[rng.integers(0, r.shape[0], size=int(dead.sum()))]
                cb.ema_counts[dead] = 1.0
                cb.ema_sums[dead] = new_entries[dead]
        cb.entries = new_entries.astype(np.float32)
        if coder.pin_zero:
            cb.entries[0] = 0.0
            cb.ema_sums[0] = 0.0
        r = r - old_entries[ids]


def _reference_ema(coder, residuals, ids, decay, rng=None):
    """EMA update from given ids, one np.add.at scatter per stage: the reference."""
    for cb, r, stage_ids in zip(coder.codebooks, residuals, ids):
        counts = np.bincount(stage_ids, minlength=cb.size).astype(np.float64)
        sums = np.zeros((cb.size, cb.dim))
        np.add.at(sums, stage_ids, r)
        cb.ema_counts = (decay * cb.ema_counts + (1.0 - decay) * counts).astype(np.float32)
        cb.ema_sums = (decay * cb.ema_sums + (1.0 - decay) * sums).astype(np.float32)
        new_entries = cb.ema_sums / np.maximum(cb.ema_counts, rvq.COUNT_EPS)[:, None]
        if rng is not None:
            dead = (counts == 0) & (cb.ema_counts < rvq.DEAD_CODE_THRESHOLD)
            if coder.pin_zero:
                dead[0] = False
            if dead.any():
                new_entries[dead] = r[rng.integers(0, r.shape[0], size=int(dead.sum()))]
                cb.ema_counts[dead] = 1.0
                cb.ema_sums[dead] = new_entries[dead]
        cb.entries = new_entries.astype(np.float32)
        if coder.pin_zero:
            cb.entries[0] = 0.0
            cb.ema_sums[0] = 0.0


class TestEmaUpdate:
    @pytest.mark.parametrize("sizes", [(16, 16, 16), (40, 40, 40)])
    @pytest.mark.parametrize("pin_zero", [False, True])
    def test_byte_identical_to_searching_the_batch_again(self, pin_zero, sizes):
        rng = np.random.default_rng(15)
        books = [rng.standard_normal((k, 4)).astype(np.float32) * 0.5**c
                 for c, k in enumerate(sizes)]
        ours = _coder_from_entries(*books, pin_zero=pin_zero)
        ref = _coder_from_entries(*books, pin_zero=pin_zero)
        ours_rng, ref_rng = np.random.default_rng(16), np.random.default_rng(16)
        for step in range(6):
            batch = np.random.default_rng(100 + step).standard_normal((64, 4)) * (1.0 + step)
            _ema(ours, batch, decay=0.9, rng=ours_rng)
            _reference_ema_from_batch(ref, batch, 0.9, rng=ref_rng)
            for a, b in zip(ours.codebooks, ref.codebooks):
                for name in ("entries", "ema_counts", "ema_sums"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (step, name)
        # dead entries were reseeded, from the same draws
        assert ours_rng.bit_generator.state != np.random.default_rng(16).bit_generator.state
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_codec_batch_matches_a_per_stage_add_at_scatter(self):
        # codec-batch shapes: 8 stages of 64 entries, 512 frames of 16 dims;
        # ids crowd onto few entries, so every stage has dead codes to reseed
        rng = np.random.default_rng(17)
        books = [rng.standard_normal((64, 16)).astype(np.float32) for _ in range(8)]
        ours = _coder_from_entries(*books, pin_zero=True)
        ref = _coder_from_entries(*books, pin_zero=True)
        for cb in ours.codebooks + ref.codebooks:
            cb.ema_counts[:] = 0.5  # under DEAD_CODE_THRESHOLD from the start
        ours_rng, ref_rng = np.random.default_rng(18), np.random.default_rng(18)
        for step in range(3):
            data = np.random.default_rng(200 + step)
            residuals = data.standard_normal((8, 512, 16)) * 3.0
            ids = data.integers(0, 40, size=(8, 512)) // 3 * 3
            rvq.ema_update(ours, residuals, ids, decay=0.95, rng=ours_rng)
            _reference_ema(ref, residuals, ids, 0.95, rng=ref_rng)
            for a, b in zip(ours.codebooks, ref.codebooks):
                for name in ("entries", "ema_counts", "ema_sums"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (step, name)
        assert ours_rng.bit_generator.state != np.random.default_rng(18).bit_generator.state
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("sizes,bad", [
        # with stage-offset ids, id 16 of stage 1 would land on entry 0 of stage 2
        ((16, 16, 16), 16), ((16, 16, 16), -1), ((16, 16, 16), 99), ((5, 5, 5), 5),
    ])
    def test_out_of_range_id_names_its_stage(self, sizes, bad):
        coder = _coder_from_entries(*(np.zeros((k, 2)) for k in sizes))
        ids = np.zeros((3, 6), dtype=np.int64)
        ids[1, 4] = bad
        before = [cb.entries.copy() for cb in coder.codebooks]
        match = rf"stage 1: id {bad} at frame 4 is outside \[0, {sizes[1]}\)"
        with pytest.raises(ValueError, match=match):
            rvq.ema_update(coder, np.zeros((3, 6, 2)), ids)
        assert all(np.array_equal(cb.entries, b) for cb, b in zip(coder.codebooks, before))

    def test_residual_and_id_shapes_checked(self):
        coder = _coder_from_entries(BOOK1, BOOK2)
        codes, _, residuals, _ = rvq.encode_detailed(coder, np.zeros((5, 2)))
        with pytest.raises(ValueError):
            rvq.ema_update(coder, residuals[:1], codes.indices[:1])  # one stage of two
        with pytest.raises(ValueError):
            rvq.ema_update(coder, residuals, codes.indices[:, :4])  # frames differ
        with pytest.raises(ValueError):
            rvq.ema_update(coder, residuals[0], codes.indices[0])  # not stage-major

    def test_fixed_point_when_batch_equals_entries(self):
        rng = np.random.default_rng(8)
        entries = rng.standard_normal((8, 3)).astype(np.float32)
        coder = _coder_from_entries(entries.copy())
        _ema(coder, entries.astype(np.float64), decay=0.99)
        assert np.abs(coder.codebooks[0].entries - entries).max() < 1e-6

    def test_decay_zero_gives_batch_mean(self):
        coder = _coder_from_entries([[0.0, 0.0], [100.0, 100.0]])
        rng = np.random.default_rng(9)
        batch = rng.standard_normal((30, 2)) * 0.1
        _ema(coder, batch, decay=0.0)
        assert np.abs(coder.codebooks[0].entries[0] - batch.mean(axis=0)).max() < 1e-6

    def test_distortion_drops_over_repeated_updates(self):
        rng = np.random.default_rng(10)
        data_rng = np.random.default_rng(11)
        entries = rng.standard_normal((16, 4)).astype(np.float32) * 3.0
        coder = _coder_from_entries(entries)
        holdout = np.random.default_rng(99).standard_normal((2000, 4))
        errs = []
        for _ in range(50):
            zq = rvq.quantize(coder, holdout)
            errs.append(float(((holdout - zq) ** 2).mean()))
            batch = data_rng.standard_normal((256, 4))  # stationary source
            _ema(coder, batch, decay=0.9, rng=data_rng)
        assert errs[-1] < 0.5 * errs[0]
        # held-out distortion curve: monotone within 5% noise tolerance
        running = np.minimum.accumulate(errs)
        assert np.all(np.asarray(errs) <= running * 1.05 + 1e-9)

    def test_dead_codes_reseeded_only_with_rng(self):
        far = np.full((1, 2), 50.0, dtype=np.float32)
        coder = _coder_from_entries(np.vstack([np.zeros((1, 2), dtype=np.float32), far]))
        batch = np.random.default_rng(12).standard_normal((20, 2)) * 0.1
        _ema(coder, batch, decay=0.5)  # no rng: entry drifts but stays far
        assert np.abs(coder.codebooks[0].entries[1]).max() > 10
        coder2 = _coder_from_entries(np.vstack([np.zeros((1, 2), dtype=np.float32), far]))
        _ema(coder2, batch, decay=0.5, rng=np.random.default_rng(13))
        assert np.abs(coder2.codebooks[0].entries[1]).max() < 5  # reseeded from batch

    def test_pin_zero_entry_survives_updates(self):
        rng = np.random.default_rng(14)
        entries = rng.standard_normal((8, 3)).astype(np.float32)
        coder = rvq.RvqCoder([rvq.Codebook(entries)], pin_zero=True)
        for _ in range(5):
            _ema(coder, rng.standard_normal((64, 3)), rng=rng)
        assert np.all(coder.codebooks[0].entries[0] == 0.0)

    def test_bad_decay_rejected(self):
        coder = _coder_from_entries(BOOK1)
        with pytest.raises(ValueError):
            _ema(coder, np.zeros((4, 2)), decay=1.0)


class TestDistortionMonotonicity:
    def test_nonincreasing_in_stage_count(self):
        rng = np.random.default_rng(15)
        sets = []
        for c in range(8):
            e = (rng.standard_normal((12, 5)) * 0.7**c).astype(np.float32)
            e[0] = 0.0
            sets.append(e)
        coder = _coder_from_entries(*sets, pin_zero=True)
        z = rng.standard_normal((100, 5))
        codes = rvq.encode(coder, z)
        errs = [
            float(((z - rvq.decode(coder, codes, c)) ** 2).mean()) for c in range(1, 9)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12


class TestBitstream:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        codes = rvq.CodecCodes(rng.integers(0, 64, size=(8, 100)), 64, 16)
        path = tmp_path / "x.hsc"
        rvq.write_bitstream(path, codes, 24000, 256)
        back, sr, hop = rvq.read_bitstream(path)
        assert (sr, hop) == (24000, 256)
        assert np.array_equal(back.indices, codes.indices)
        assert (back.codebook_size, back.dim) == (64, 16)

    def test_header_layout(self, tmp_path):
        codes = rvq.CodecCodes(np.array([[3, 1], [2, 0]]), 4, 2)
        path = tmp_path / "h.hsc"
        rvq.write_bitstream(path, codes, 24000, 256)
        blob = path.read_bytes()
        assert blob[:4] == b"HSC1"
        import struct

        c, k, d, frames, sr, hop = struct.unpack("<HHHIII", blob[4:22])
        assert (c, k, d, frames, sr, hop) == (2, 4, 2, 2, 24000, 256)
        # frame-major u16 payload
        assert np.frombuffer(blob[22:], dtype="<u2").tolist() == [3, 2, 1, 0]

    def test_corrupt_magic_rejected(self, tmp_path):
        codes = rvq.CodecCodes(np.array([[0]]), 2, 2)
        path = tmp_path / "m.hsc"
        rvq.write_bitstream(path, codes, 24000, 256)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            rvq.read_bitstream(path)

    def test_truncated_payload_rejected(self, tmp_path):
        codes = rvq.CodecCodes(np.zeros((2, 10), dtype=int), 4, 2)
        path = tmp_path / "t.hsc"
        rvq.write_bitstream(path, codes, 24000, 256)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ValueError):
            rvq.read_bitstream(path)
