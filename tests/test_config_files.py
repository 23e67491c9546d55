import json

import numpy as np
import pytest

from minisvs import corpus, dsp, fileio
from minisvs.config import ConfigError, RunConfig, config_from_dict, load_config, save_config


class TestConfig:
    def test_defaults_carry_reference_values(self):
        cfg = RunConfig()
        assert cfg.beta0 == 0.05 and cfg.betaT == 20.0
        assert cfg.tau == 1.5
        assert cfg.beta1 == 0.8 and cfg.beta2 == 0.99 and cfg.weight_decay == 0.01
        assert cfg.fft_size == 2048 and cfg.mel_bins == 128
        assert cfg.loss.recon == 45.0 and cfg.loss.emb == 0.02 and cfg.loss.fm == 2.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"no_such_key": 1})
        with pytest.raises(ConfigError, match="unknown loss config keys"):
            config_from_dict({"loss": {"nope": 1}})

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict({"beta0": 30.0})
        with pytest.raises(ConfigError):
            config_from_dict({"tau": 0.2})
        with pytest.raises(ConfigError):
            config_from_dict({"window": 0})
        with pytest.raises(ConfigError, match="loss weight 'recon'"):
            config_from_dict({"loss": {"recon": -1.0}})

    def test_loss_prior_is_unknown(self):
        # the prior NLL is weighted by lambda_prior
        with pytest.raises(ConfigError, match="unknown loss config keys"):
            config_from_dict({"loss": {"prior": 1.0}})

    def test_json_roundtrip(self, tmp_path):
        cfg = config_from_dict({"seed": 7, "loss": {"recon": 10.0}})
        path = tmp_path / "cfg.json"
        save_config(path, cfg)
        back = load_config(path)
        assert back == cfg

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


class TestMatrixFiles:
    def test_roundtrip_with_sidecar(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((7, 3)).astype(np.float32)
        path = tmp_path / "m.f32"
        fileio.save_matrix(path, arr, kind="mel", hop=256)
        back, meta = fileio.load_matrix(path)
        assert np.array_equal(back, arr)
        assert meta["frames"] == 7 and meta["dim"] == 3
        assert meta["kind"] == "mel" and meta["hop"] == 256
        # raw little-endian f32 on disk
        assert path.read_bytes() == arr.astype("<f4").tobytes()

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.f32"
        fileio.save_matrix(path, np.zeros((4, 2), dtype=np.float32))
        meta = json.loads((tmp_path / "m.f32.json").read_text())
        meta["frames"] = 5
        (tmp_path / "m.f32.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            fileio.load_matrix(path)


class TestCheckpointFiles:
    def test_roundtrip_and_manifest_layout(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {
            "a.w": rng.standard_normal((3, 2)).astype(np.float32),
            "b": rng.standard_normal(5).astype(np.float32),
        }
        meta = {"kind": "test", "step": 3}
        path = tmp_path / "c.ckpt"
        fileio.save_checkpoint(path, arrays, meta)
        back, back_meta = fileio.load_checkpoint(path)
        assert back_meta == meta
        for name in arrays:
            assert np.array_equal(back[name], arrays[name])
        manifest = json.loads((tmp_path / "c.ckpt.json").read_text())
        entry = {e["name"]: e for e in manifest["params"]}
        assert entry["a.w"]["shape"] == [3, 2]
        assert entry["a.w"]["offset"] == 0
        assert entry["b"]["offset"] == 3 * 2 * 4  # bytes


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus.gen_corpus(out, 2, seed=3)
    return out


class TestCorpus:
    def test_regeneration_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        corpus.gen_corpus(a, 2, seed=5)
        corpus.gen_corpus(b, 2, seed=5)
        for name in ("song000.wav", "song001.wav", "song000.score.json", "phonemes.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_score_frames_match_audio_frames(self, corpus_dir):
        songs, _ = corpus.load_corpus(corpus_dir, RunConfig())
        for song in songs:
            cfg = dsp.StftConfig()
            assert dsp.stft(song.audio, cfg).frames == song.grid.frames

    def test_song0_carries_midi_69_at_440(self, corpus_dir):
        songs, _ = corpus.load_corpus(corpus_dir, RunConfig())
        song = songs[0]
        track = dsp.estimate_f0(song.audio, dsp.StftConfig())
        spans = [s for s, m in zip(song.grid.note_spans, song.grid.note_midi) if m == 69]
        assert spans
        a, b = spans[0]
        seg = track.f0[a:b][track.voiced[a:b]]
        med = float(np.median(seg))
        assert abs(med - 440.0) / 440.0 < 0.02

    def test_feature_file_override(self, corpus_dir, tmp_path):
        songs, _ = corpus.load_corpus(corpus_dir, RunConfig())
        custom = np.random.default_rng(2).standard_normal(
            (songs[0].frames, RunConfig().feature_dim)
        ).astype(np.float32)
        fileio.save_matrix(corpus_dir / "song000.feats", custom)
        try:
            reloaded, _ = corpus.load_corpus(corpus_dir, RunConfig())
            assert np.array_equal(reloaded[0].features, custom)
        finally:
            (corpus_dir / "song000.feats").unlink()
            (corpus_dir / "song000.feats.json").unlink()

    def test_ground_truth_f0_quantization(self, corpus_dir):
        songs, _ = corpus.load_corpus(corpus_dir, RunConfig())
        song = songs[0]
        assert np.all(song.f0_quant[song.grid.midi == 0] == 0)
        assert np.all(song.f0_quant[song.grid.midi > 0] > 0)

    def test_missing_corpus_rejected(self, tmp_path):
        (tmp_path / "phonemes.json").write_text(json.dumps({"a": 1}))
        with pytest.raises(ValueError):
            corpus.load_corpus(tmp_path, RunConfig())
