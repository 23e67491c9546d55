import json

import numpy as np
import pytest

from minisvs import condition as cond
from minisvs import corpus, dsp, fileio, rvq
from minisvs.config import ConfigError, RunConfig, config_from_dict, load_config


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
        for key in ("width", "embed_dim", "feature_dim"):
            for bad in (0, -3):
                with pytest.raises(ConfigError, match=f"'{key}' must be >= 1"):
                    config_from_dict({key: bad})
        for bad in (63, 1, 0, -2):
            with pytest.raises(ConfigError, match="'time_dim' must be even and >= 2"):
                config_from_dict({"time_dim": bad})
        assert config_from_dict({"time_dim": 2, "width": 1, "embed_dim": 1,
                                 "feature_dim": 1}).time_dim == 2
        for bad in (0.0, -0.5):
            with pytest.raises(ConfigError, match="'loss.tau_cont' must be > 0"):
                config_from_dict({"loss": {"tau_cont": bad}})
        for bad in (0, -3):
            with pytest.raises(ConfigError, match="'loss.n_neg' must be >= 1"):
                config_from_dict({"loss": {"n_neg": bad}})
        for key in ("codec_steps", "latent_steps"):
            with pytest.raises(ConfigError, match=f"'{key}' must be >= 0, got -1"):
                config_from_dict({key: -1})
        cfg = config_from_dict({"codec_steps": 0, "latent_steps": 0,
                                "loss": {"tau_cont": 1e-3, "n_neg": 1}})
        assert (cfg.codec_steps, cfg.loss.n_neg) == (0, 1)

    def test_loss_prior_is_unknown(self):
        # the prior NLL is weighted by lambda_prior
        with pytest.raises(ConfigError, match="unknown loss config keys"):
            config_from_dict({"loss": {"prior": 1.0}})

    def test_json_roundtrip(self, tmp_path):
        cfg = config_from_dict({"seed": 7, "loss": {"recon": 10.0}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = load_config(path)
        assert back == cfg

    def test_tau_may_be_infinity(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"tau": Infinity, "lr": 1}')
        cfg = load_config(path)
        assert cfg.tau == float("inf") and cfg.lr == 1
        with pytest.raises(ConfigError, match="'tau'"):
            config_from_dict({"tau": float("nan")})

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

    def test_failed_write_keeps_the_old_pair_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        old = {"w": rng.standard_normal((4, 3)).astype(np.float32)}
        path = tmp_path / "c.ckpt"
        fileio.save_checkpoint(path, old, {"step": 1})
        listing = sorted(p.name for p in tmp_path.iterdir())

        def failing_open(file, mode="r", **kwargs):
            if str(file).endswith(".json.tmp"):  # the manifest, after the blob
                raise OSError("disk full")
            return open(file, mode, **kwargs)

        monkeypatch.setattr(fileio, "open", failing_open, raising=False)
        new = {"w": rng.standard_normal((2, 5)).astype(np.float32)}
        with pytest.raises(OSError, match="disk full"):
            fileio.save_checkpoint(path, new, {"step": 2})
        monkeypatch.undo()
        back, meta = fileio.load_checkpoint(path)
        assert meta == {"step": 1}
        assert np.array_equal(back["w"], old["w"])
        assert sorted(p.name for p in tmp_path.iterdir()) == listing


class _FullDisk:
    """An open() for fileio on a disk with room bytes free: a write past
    them stores what fits, then raises OSError."""

    def __init__(self, room):
        self.room = room

    def __call__(self, file, mode="r", **kwargs):
        self.fh = open(file, mode, **kwargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        stored = self.fh.write(chunk[: self.room])
        self.room -= stored
        if stored < len(chunk):
            raise OSError("disk full")


def _score(v):
    notes = [cond.Syllable(1, cond.Note(60 + i, 0.25, 120.0)) for i in range(v)]
    return cond.MusicalScore(notes, 14)


# each writer writes version v (1 or 2, which differ) of its output at path
WRITERS = {
    "save_matrix": lambda path, v: fileio.save_matrix(
        path, np.full((v + 2, 3), v, np.float32), kind="mel"),
    "save_checkpoint": lambda path, v: fileio.save_checkpoint(
        path, {"w": np.full((v, 3), v, np.float32), "b": np.full(v, -v, np.float32)},
        {"step": v}),
    "write_bitstream": lambda path, v: rvq.write_bitstream(
        path, rvq.CodecCodes(np.full((2, 3 * v), v), 8, 4), 24000, 256),
    "save_wav": lambda path, v: dsp.save_wav(path, dsp.AudioBuffer(np.full(50 * v, 0.1 * v))),
    "save_score": lambda path, v: cond.save_score(path, _score(v), dict(cond.TOY_PHONEMES)),
    "write_json": lambda path, v: fileio.write_json(path, {"v": [v] * 4 * v}),
}


class TestWriteFiles:
    @pytest.mark.parametrize("fraction", [0.5, 1.0], ids=["midway", "at-the-last-byte"])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_write_that_fails_partway_keeps_the_earlier_file(
            self, tmp_path, monkeypatch, writer, fraction):
        write, path = WRITERS[writer], tmp_path / "out"
        write(path, 2)
        size = sum(p.stat().st_size for p in tmp_path.iterdir())
        write(path, 1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(fileio, "open", _FullDisk(int(size * fraction) - 1), raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(path, 2)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        write(path, 2)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} != before

    def test_files_are_replaced_in_the_order_given(self, tmp_path, monkeypatch):
        moved = []
        replace = fileio.os.replace
        monkeypatch.setattr(fileio.os, "replace", lambda a, b: (moved.append(b), replace(a, b)))
        fileio.write_files((tmp_path / "b", [b"1"]), (tmp_path / "a", [b"2", b"3"]))
        assert moved == [tmp_path / "b", tmp_path / "a"]
        assert (tmp_path / "a").read_bytes() == b"23"

    def test_write_json_is_indented_strict_json(self, tmp_path):
        path = tmp_path / "r.json"
        fileio.write_json(path, {"a": [1, None]})
        assert path.read_text() == '{\n "a": [\n  1,\n  null\n ]\n}'
        with pytest.raises(ValueError):
            fileio.write_json(path, {"a": float("nan")})
        assert json.loads(path.read_text()) == {"a": [1, None]}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


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
        for i, song in enumerate(songs):
            cfg = dsp.StftConfig()
            audio = dsp.load_wav(corpus_dir / f"song{i:03d}.wav")
            assert dsp.stft(audio, cfg).shape[0] == song.grid.frames

    def test_song0_carries_midi_69_at_440(self, corpus_dir):
        songs, _ = corpus.load_corpus(corpus_dir, RunConfig())
        song = songs[0]
        track = dsp.estimate_f0(dsp.load_wav(corpus_dir / "song000.wav"), dsp.StftConfig())
        spans = [s for s, m in zip(song.grid.note_spans, song.grid.note_midi) if m == 69]
        assert spans
        a, b = spans[0]
        seg = track.f0[a:b][track.voiced[a:b]]
        med = float(np.median(seg))
        assert abs(med - 440.0) / 440.0 < 0.02

    def test_songs_keep_no_samples_or_score(self, corpus_dir):
        # training reads a song's frame arrays only; the samples and the
        # parsed score are dropped once the song is analysed
        songs, _ = corpus.load_corpus(corpus_dir, RunConfig())
        for song in songs:
            held = vars(song).values()
            assert not any(isinstance(v, (dsp.AudioBuffer, cond.MusicalScore)) for v in held)

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
