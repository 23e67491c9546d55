import json
import re

import numpy as np
import pytest

from minisvs import condition, corpus, diffusion, dsp, fileio, nn, rvq, train
from minisvs.autodiff import NumericalError
from minisvs.config import ConfigError, config_from_dict

# trimmed sizes: these tests exercise plumbing, not model quality
FAST = {
    "mel_bins": 48,
    "width": 24,
    "embed_dim": 24,
    "time_dim": 16,
    "latent_dim": 8,
    "quantizers": 4,
    "codebook_size": 24,
    "window": 64,
    "batch": 2,
    "feature_dim": 16,
}


@pytest.fixture(scope="module")
def cfg():
    return config_from_dict(dict(FAST))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, cfg):
    out = tmp_path_factory.mktemp("corpus")
    corpus.gen_corpus(out, 2, seed=0, cfg=cfg)
    return out


@pytest.fixture(scope="module")
def codec_ckpt(tmp_path_factory, cfg, corpus_dir):
    out = tmp_path_factory.mktemp("codec")
    ckpt, _ = train.train_codec(cfg, corpus_dir, out, steps=30, seed=0)
    return ckpt


@pytest.fixture(scope="module")
def latent_ckpt(tmp_path_factory, cfg, corpus_dir, codec_ckpt):
    out = tmp_path_factory.mktemp("latent")
    ckpt, _ = train.train_latent(cfg, corpus_dir, codec_ckpt, out, steps=30, seed=0)
    return ckpt


class TestCodecTraining:
    def test_log_schema_and_finite_losses(self, cfg, corpus_dir, tmp_path):
        _, log = train.train_codec(cfg, corpus_dir, tmp_path, steps=5, seed=1)
        data = train.read_loss_log(log)
        assert list(data) == train.CODEC_LOG_HEADER
        for name in ("recon", "emb", "lyrics", "note", "total", "grad_norm"):
            assert np.all(np.isfinite(data[name]))
        assert data["step"].tolist() == [0, 1, 2, 3, 4]

    def test_total_equals_recon_when_other_weights_zero(self, corpus_dir, tmp_path):
        cfg = config_from_dict(
            dict(
                FAST,
                loss={"recon": 1.0, "emb": 0.0, "fm": 0.0, "lyrics": 0.0, "note": 0.0},
            )
        )
        _, log = train.train_codec(cfg, corpus_dir, tmp_path, steps=4, seed=2)
        data = train.read_loss_log(log)
        assert np.array_equal(data["total"], data["recon"])

    def test_resume_reproduces_steps_bit_exactly(self, cfg, corpus_dir, tmp_path):
        full_dir = tmp_path / "full"
        ck_full, log_full = train.train_codec(cfg, corpus_dir, full_dir, steps=8, seed=3)
        half_dir = tmp_path / "half"
        ck_half, _ = train.train_codec(cfg, corpus_dir, half_dir, steps=4, seed=3)
        resumed_dir = tmp_path / "resumed"
        ck_res, log_res = train.train_codec(
            cfg, corpus_dir, resumed_dir, steps=8, seed=3, resume=ck_half
        )
        full = train.read_loss_log(log_full)
        res = train.read_loss_log(log_res)
        assert res["step"].tolist() == [4, 5, 6, 7]
        for name in train.CODEC_LOG_HEADER:
            assert np.array_equal(full[name][4:], res[name])
        a, _ = fileio.load_checkpoint(ck_full)
        b, _ = fileio.load_checkpoint(ck_res)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_resume_into_same_directory_keeps_earlier_log_rows(self, cfg, corpus_dir, tmp_path):
        _, log_full = train.train_codec(cfg, corpus_dir, tmp_path / "full", steps=9, seed=7)
        run = tmp_path / "run"
        ck_six, _ = train.train_codec(cfg, corpus_dir, run, steps=6, seed=7)
        _, log = train.train_codec(cfg, corpus_dir, run, steps=9, seed=7, resume=ck_six)
        assert train.read_loss_log(log)["step"].tolist() == list(range(9))
        assert open(log, "rb").read() == open(log_full, "rb").read()

    def test_same_seed_bit_identical_checkpoints(self, cfg, corpus_dir, tmp_path):
        ck1, _ = train.train_codec(cfg, corpus_dir, tmp_path / "r1", steps=5, seed=4)
        ck2, _ = train.train_codec(cfg, corpus_dir, tmp_path / "r2", steps=5, seed=4)
        a, _ = fileio.load_checkpoint(ck1)
        b, _ = fileio.load_checkpoint(ck2)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_adversarial_flag_populates_gan_columns(self, cfg, corpus_dir, tmp_path):
        _, log = train.train_codec(cfg, corpus_dir, tmp_path, steps=4, seed=5, adversarial=True)
        data = train.read_loss_log(log)
        assert np.all(data["adv"] > 0)
        assert np.all(data["fm"] > 0)

    def test_resume_follows_the_checkpoint_adversarial_flag(self, cfg, corpus_dir, tmp_path):
        _, log_full = train.train_codec(
            cfg, corpus_dir, tmp_path / "full", steps=6, seed=5, adversarial=True
        )
        ck_half, _ = train.train_codec(
            cfg, corpus_dir, tmp_path / "half", steps=3, seed=5, adversarial=True
        )
        _, _, meta = train.load_codec_checkpoint(ck_half)
        assert meta["adversarial"] is True
        for kwargs in ({}, {"adversarial": True}):
            ck_res, log_res = train.train_codec(
                cfg, corpus_dir, tmp_path / "res", steps=6, resume=ck_half, **kwargs
            )
            res = train.read_loss_log(log_res)
            assert np.all(res["adv"] > 0)
            assert np.array_equal(train.read_loss_log(log_full)["adv"][3:], res["adv"])
            assert train.load_codec_checkpoint(ck_res)[2]["adversarial"] is True

    def test_resume_refuses_adversarial_or_config_that_contradict_the_checkpoint(
        self, cfg, corpus_dir, tmp_path
    ):
        ckpt, _ = train.train_codec(
            cfg, corpus_dir, tmp_path / "a", steps=3, seed=5, adversarial=True
        )
        with pytest.raises(ConfigError, match="adversarial"):
            train.train_codec(cfg, corpus_dir, tmp_path / "b", steps=6, resume=ckpt,
                              adversarial=False)
        with pytest.raises(ConfigError, match="config lr"):
            train.train_codec(config_from_dict(dict(FAST, lr=5e-3)), corpus_dir,
                              tmp_path / "b", steps=6, resume=ckpt)
        with pytest.raises(ConfigError, match="config loss"):
            train.train_codec(config_from_dict(dict(FAST, loss={"recon": 1.0})), corpus_dir,
                              tmp_path / "b", steps=6, resume=ckpt)
        assert not (tmp_path / "b" / "codec.ckpt").exists()
        # the default run length is not part of what a resume must agree on
        longer = config_from_dict(dict(FAST, codec_steps=6))
        resumed, _ = train.train_codec(longer, corpus_dir, tmp_path / "c", resume=ckpt)
        assert train.load_codec_checkpoint(resumed)[2]["step"] == 6

    def test_resume_accepts_config_keys_codec_training_does_not_read(
        self, cfg, corpus_dir, tmp_path
    ):
        _, log_full = train.train_codec(cfg, corpus_dir, tmp_path / "full", steps=6, seed=5)
        ck_half, _ = train.train_codec(cfg, corpus_dir, tmp_path / "half", steps=3, seed=5)
        full = train.read_loss_log(log_full)
        for i, change in enumerate(({"latent_lr": 5e-3}, {"seed": 9, "steps": 7, "tau": 2.0},
                                    {"loss": {"tau_cont": 0.2, "n_neg": 4}})):
            other = config_from_dict(dict(FAST, **change))
            _, log_res = train.train_codec(other, corpus_dir, tmp_path / f"r{i}", steps=6,
                                           resume=ck_half)
            res = train.read_loss_log(log_res)
            for name in train.CODEC_LOG_HEADER:
                assert np.array_equal(full[name][3:], res[name]), (change, name)
        # the seed argument and the config seed are alike on resume
        _, log_seed = train.train_codec(cfg, corpus_dir, tmp_path / "s", steps=6, seed=9,
                                        resume=ck_half)
        assert np.array_equal(full["total"][3:], train.read_loss_log(log_seed)["total"])

    def test_resume_refuses_a_checkpoint_without_the_adversarial_flag(
        self, cfg, corpus_dir, tmp_path
    ):
        ckpt, _ = train.train_codec(cfg, corpus_dir, tmp_path / "a", steps=2, seed=5)
        arrays, meta = fileio.load_checkpoint(ckpt)
        del meta["adversarial"]
        fileio.save_checkpoint(ckpt, arrays, meta)
        with pytest.raises(ConfigError, match="does not record adversarial"):
            train.train_codec(cfg, corpus_dir, tmp_path / "b", steps=4, resume=ckpt)

    def test_divergence_aborts_with_step_number(self, corpus_dir, tmp_path):
        cfg = config_from_dict(dict(FAST, lr=1e8))
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="step"):
            train.train_codec(cfg, corpus_dir, tmp_path, steps=60, seed=6)

    def test_divergence_keeps_the_log_and_writes_no_checkpoint(self, corpus_dir, tmp_path):
        cfg = config_from_dict(dict(FAST, lr=1e8))
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as exc:
            train.train_codec(cfg, corpus_dir, tmp_path, steps=60, seed=6)
        _assert_divergence_left_log_only(str(exc.value), tmp_path, "codec")


def _linear(name, n_in, n_out):
    return [(name + ".w", (n_in, n_out)), (name + ".b", (n_out,))]


def _conv3(name, n_in, n_out):
    return [(name + ".w", (3, n_in, n_out)), (name + ".b", (n_out,))]


def _block(name, width, time_dim=None):
    out = (_conv3(name + ".conv_f", width, width) + _conv3(name + ".conv_g", width, width)
           + _linear(name + ".proj", width, width))
    if time_dim:
        out += _linear(name + ".time_f", time_dim, width) + _linear(name + ".time_g", time_dim, width)
    return out


# RunConfig() with a 14-phoneme alphabet: the order of these lists is the
# order of the checkpoint blob and of the optimizer moments
CODEC_GEN_LAYOUT = (
    _linear("enc.lin_in", 128, 64) + _block("enc.block", 64) + _linear("enc.lin_out", 64, 16)
    + _linear("dec.lin_in", 16, 64) + _block("dec.block", 64) + _linear("dec.lin_out", 64, 128)
    + _linear("lyrics_head", 16, 15) + _linear("note_head", 16, 128)
)
CODEC_DISC_LAYOUT = (
    _conv3("disc.conv1", 128, 32) + _conv3("disc.conv2", 32, 32) + _linear("disc.head", 32, 1)
)
LATENT_LAYOUT = (
    [("cond.phoneme.table", (14, 64)), ("cond.pitch.table", (128, 64)),
     ("cond.dur.table", (513, 64)), ("cond.tempo.table", (257, 64))]
    + _linear("cond.feat_proj", 32, 64) + [("cond.f0.table", (129, 64))]
    + _block("cond.enhanced0", 64) + _block("cond.enhanced1", 64) + _linear("cond.prior", 64, 16)
    + _linear("score.z_in", 16, 64) + _linear("score.mu_in", 16, 64)
    + _linear("score.cond_in", 64, 64)
    + [entry for i in range(4) for entry in _block(f"score.block{i}", 64, 64)]
    + _linear("score.out", 64, 16)
)


def _adam(layout):
    return [(f"adam.{k}.{name}", shape) for name, shape in layout for k in ("m", "v")]


# the whole blob of a RunConfig() checkpoint, in order: model state, then moments
CODEC_MANIFEST = (
    CODEC_GEN_LAYOUT + CODEC_DISC_LAYOUT
    + [(f"rvq.{i}.{field}", shape) for i in range(8)
       for field, shape in (("entries", (64, 16)), ("ema_counts", (64,)), ("ema_sums", (64, 16)))]
    + _adam(CODEC_GEN_LAYOUT) + _adam(CODEC_DISC_LAYOUT)
)
LATENT_MANIFEST = (
    LATENT_LAYOUT + [("latent_stats.mean", (1, 16)), ("latent_stats.std", (1, 16))]
    + _adam(LATENT_LAYOUT)
)
CODEC_META = ["kind", "config", "alphabet_size", "phoneme_table", "adversarial", "step",
              "disc_step", "rng_state"]
LATENT_META = ["kind", "config", "alphabet_size", "phoneme_table", "unlabeled_ratio",
               "prior_mode", "target_kind", "enhanced", "unlabeled_songs", "codec_checkpoint",
               "step", "rng_state"]


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Two-step RunConfig() checkpoints on a one-song corpus: codec, adversarial codec, latent."""
    cfg = config_from_dict({})
    root = tmp_path_factory.mktemp("default")
    corpus.gen_corpus(root / "corpus", 1, seed=0, cfg=cfg)
    codec, _ = train.train_codec(cfg, root / "corpus", root / "codec", steps=2, seed=0)
    adv, _ = train.train_codec(cfg, root / "corpus", root / "adv", steps=2, seed=0,
                               adversarial=True)
    latent, _ = train.train_latent(cfg, root / "corpus", codec, root / "latent", steps=2, seed=0)
    return {"codec": codec, "codec-adversarial": adv, "latent": latent}


class TestCheckpointLayout:
    @pytest.mark.parametrize("part,layout", [
        ("gen", CODEC_GEN_LAYOUT), ("disc", CODEC_DISC_LAYOUT), ("latent", LATENT_LAYOUT),
    ], ids=["codec-gen", "codec-disc", "latent"])
    def test_named_params_in_checkpoint_order(self, part, layout):
        cfg = config_from_dict({})
        codec = train.build_codec_models(cfg, 14, np.random.default_rng(0))
        latent = train.build_latent_models(cfg, 14, np.random.default_rng(0))
        named = {"gen": codec.gen_named_params, "disc": lambda: codec.disc.params("disc"),
                 "latent": latent.params}[part]()
        assert [(name, p.data.shape) for name, p in named] == layout

    @pytest.mark.parametrize("run,manifest,meta", [
        ("codec", CODEC_MANIFEST, CODEC_META),
        ("codec-adversarial", CODEC_MANIFEST, CODEC_META),
        ("latent", LATENT_MANIFEST, LATENT_META),
    ], ids=["codec", "codec-adversarial", "latent"])
    def test_whole_manifest_in_order(self, default_runs, run, manifest, meta):
        payload = json.loads(open(str(default_runs[run]) + ".json").read())
        assert [(e["name"], tuple(e["shape"])) for e in payload["params"]] == manifest
        assert list(payload["meta"]) == meta


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("run", ["codec", "codec-adversarial", "latent"])
    def test_load_then_arrays_gives_back_the_checkpoint(self, default_runs, run):
        arrays, meta = fileio.load_checkpoint(default_runs[run])
        build = {"codec": train.build_codec_models, "latent": train.build_latent_models}
        models = build[run.split("-")[0]](
            config_from_dict(meta["config"]), meta["alphabet_size"], np.random.default_rng(3))
        models.load(arrays)
        out = models.arrays()
        assert list(out) == [name for name in arrays if not name.startswith("adam.")]
        for name, arr in out.items():
            assert np.asarray(arr).astype("<f4").tobytes() == arrays[name].tobytes(), name
            assert np.shape(arr) == arrays[name].shape, name

    @pytest.mark.parametrize("kind", ["codec", "latent"])
    def test_resume_restores_what_the_loader_restores(
        self, monkeypatch, cfg, corpus_dir, codec_ckpt, latent_ckpt, tmp_path, kind
    ):
        seen = []
        loop = train._train_loop

        def capture(*args, **kwargs):
            seen.append(args[5])  # the models the trainer resumed
            return loop(*args, **kwargs)

        monkeypatch.setattr(train, "_train_loop", capture)
        # resumed at its own step, the run trains no step and rewrites the checkpoint
        if kind == "codec":
            ckpt = codec_ckpt
            out, _ = train.train_codec(cfg, corpus_dir, tmp_path, steps=30, resume=ckpt)
            loaded = train.load_codec_checkpoint(ckpt)[0]
        else:
            ckpt = latent_ckpt
            out, _ = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=30,
                                        resume=ckpt)
            loaded, _, _, stats = train.load_latent_checkpoint(ckpt)
            assert all(s.dtype == np.float64 for s in stats)
        (resumed,) = seen
        assert [n for n, _ in resumed.params()] == [n for n, _ in loaded.params()]
        for (name, p), (_, q) in zip(resumed.params(), loaded.params()):
            assert p.data.dtype == q.data.dtype and np.array_equal(p.data, q.data), name
        ours, theirs = resumed.arrays(), loaded.arrays()
        assert list(ours) == list(theirs)
        for name in ours:
            assert np.array_equal(ours[name], theirs[name]), name
        assert open(out, "rb").read() == open(ckpt, "rb").read()
        assert open(str(out) + ".json").read() == open(str(ckpt) + ".json").read()


def _assert_divergence_left_log_only(message, out_dir, kind):
    """The run logged every step before the failing one and wrote no checkpoint."""
    match = re.search(rf"{kind} training diverged at step (\d+): .*in op '\w+'", message)
    assert match, message
    failed = int(match.group(1))
    assert failed > 0
    log = train.read_loss_log(out_dir / f"{kind}_losses.csv")
    assert log["step"].tolist() == list(range(failed))
    assert sorted(p.name for p in out_dir.iterdir()) == [f"{kind}_losses.csv"]


class TestLatentTraining:
    def test_log_schema(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        _, log = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=5, seed=1)
        data = train.read_loss_log(log)
        assert list(data) == train.LATENT_LOG_HEADER
        assert np.all(np.isfinite(data["diff"]))
        assert np.all(data["prior"] != 0)

    def test_supervised_only_has_no_contrastive_terms(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        _, log = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path, steps=6, seed=2, unlabeled_ratio=0.0
        )
        data = train.read_loss_log(log)
        assert np.all(data["cont_lyrics"] == 0.0)
        assert np.all(data["cont_melody"] == 0.0)
        assert np.all(data["grad_norm_unsup"] == 0.0)

    def test_unlabeled_ratio_trains_both_paths(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        _, log = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path, steps=12, seed=3, unlabeled_ratio=0.5
        )
        data = train.read_loss_log(log)
        assert (data["grad_norm_unsup"] > 0).any()
        assert (data["grad_norm_sup"] > 0).any()
        assert (data["cont_lyrics"] != 0.0).any()

    def test_contrastive_training_aligns_paired_representations(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        ckpt, _ = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path, steps=500, seed=0, unlabeled_ratio=0.5
        )
        models, _, meta, _ = train.load_latent_checkpoint(ckpt)
        songs, _ = corpus.load_corpus(corpus_dir, cfg)
        paired = [i for i in range(len(songs)) if i not in set(meta["unlabeled_songs"])]
        song = songs[paired[0]]

        def mean_cos(a, b):
            a, b = a.data, b.data
            num = (a * b).sum(axis=1)
            den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            return float((num / den).mean())

        lyr = mean_cos(models.cond.lyrics_repr(song.grid), models.cond.lyrics_u_repr(song.features))
        mel = mean_cos(models.cond.melody_repr(song.grid), models.cond.melody_u_repr(song.f0_quant))
        assert lyr > 0.8 and mel > 0.8

    def test_standard_prior_drops_prior_loss(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        _, log = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path, steps=5, seed=4, prior_mode="standard"
        )
        data = train.read_loss_log(log)
        assert np.all(data["prior"] == 0.0)

    def test_frozen_codec_bytes_untouched(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        before = open(codec_ckpt, "rb").read()
        before_manifest = open(str(codec_ckpt) + ".json", "rb").read()
        train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=5, seed=5)
        assert open(codec_ckpt, "rb").read() == before
        assert open(str(codec_ckpt) + ".json", "rb").read() == before_manifest

    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_resume_bit_exact(self, cfg, corpus_dir, codec_ckpt, tmp_path, ratio):
        ck_full, log_full = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path / "f", steps=8, seed=6, unlabeled_ratio=ratio
        )
        ck_half, _ = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path / "h", steps=4, seed=6, unlabeled_ratio=ratio
        )
        # the split, the ratio and the contrastive draws all come from the checkpoint
        ck_res, log_res = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path / "r", steps=8, seed=6, resume=ck_half
        )
        full = train.read_loss_log(log_full)
        res = train.read_loss_log(log_res)
        for name in train.LATENT_LOG_HEADER:
            assert np.array_equal(full[name][4:], res[name])
        if ratio > 0:
            assert (res["cont_lyrics"] != 0.0).any() and (res["grad_norm_unsup"] > 0).any()
        a, meta_a = fileio.load_checkpoint(ck_full)
        b, meta_b = fileio.load_checkpoint(ck_res)
        assert meta_a == meta_b
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_resume_into_same_directory_keeps_earlier_log_rows(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        _, log_full = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path / "full", steps=7, seed=7
        )
        run = tmp_path / "run"
        ck_four, _ = train.train_latent(cfg, corpus_dir, codec_ckpt, run, steps=4, seed=7)
        _, log = train.train_latent(
            cfg, corpus_dir, codec_ckpt, run, steps=7, seed=7, resume=ck_four
        )
        assert train.read_loss_log(log)["step"].tolist() == list(range(7))
        assert open(log, "rb").read() == open(log_full, "rb").read()

    def test_resume_refuses_modes_that_contradict_the_checkpoint(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        ckpt, _ = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path / "a", steps=2, seed=8, prior_mode="standard"
        )
        with pytest.raises(ConfigError, match="prior_mode"):
            train.train_latent(
                cfg, corpus_dir, codec_ckpt, tmp_path / "b", steps=3, resume=ckpt, prior_mode="data"
            )
        with pytest.raises(ConfigError, match="target_kind"):
            train.train_latent(
                cfg, corpus_dir, codec_ckpt, tmp_path / "b", steps=3, resume=ckpt, target_kind="zq"
            )
        # modes left out, or given as saved, follow the checkpoint
        for kwargs in ({}, {"prior_mode": "standard", "target_kind": "z0"}):
            resumed, _ = train.train_latent(
                cfg, corpus_dir, codec_ckpt, tmp_path / "c", steps=3, resume=ckpt, **kwargs
            )
            _, _, meta, _ = train.load_latent_checkpoint(resumed)
            assert (meta["prior_mode"], meta["target_kind"]) == ("standard", "z0")

    def test_resume_refuses_enhanced_or_ratio_that_contradict_the_checkpoint(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        ckpt, _ = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path / "a", steps=2, seed=8)
        with pytest.raises(ConfigError, match="enhanced"):
            train.train_latent(
                cfg, corpus_dir, codec_ckpt, tmp_path / "b", steps=3, resume=ckpt, enhanced=False
            )
        with pytest.raises(ConfigError, match="unlabeled_ratio"):
            train.train_latent(
                cfg, corpus_dir, codec_ckpt, tmp_path / "b", steps=3, resume=ckpt,
                unlabeled_ratio=0.5,
            )
        assert not (tmp_path / "b" / "latent.ckpt").exists()
        # left out, or given as saved, they follow the checkpoint
        for kwargs in ({}, {"enhanced": True, "unlabeled_ratio": 0.0}):
            resumed, _ = train.train_latent(
                cfg, corpus_dir, codec_ckpt, tmp_path / "c", steps=3, resume=ckpt, **kwargs
            )
            _, _, meta, _ = train.load_latent_checkpoint(resumed)
            assert (meta["enhanced"], meta["unlabeled_ratio"]) == (True, 0.0)

    def test_unlabeled_ratio_is_kept_even_when_no_song_is_unlabeled(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        # 0.2 of 2 songs rounds to no unlabeled song but turns on the contrastive terms
        ckpt, _ = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path / "a", steps=2, seed=9, unlabeled_ratio=0.2
        )
        _, _, meta, _ = train.load_latent_checkpoint(ckpt)
        assert meta["unlabeled_songs"] == [] and meta["unlabeled_ratio"] == 0.2
        _, log = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path / "a", steps=4,
                                    resume=ckpt)
        assert np.all(train.read_loss_log(log)["cont_lyrics"] != 0.0)

    def test_resume_refuses_a_config_that_contradicts_the_checkpoint(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        ckpt, _ = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path / "a", steps=3, seed=8)
        for change, key in (({"latent_lr": 5e-2}, "config latent_lr"),
                            ({"lambda_prior": 0.0}, "config lambda_prior"),
                            ({"loss": {"tau_cont": 0.2}}, "config loss.tau_cont")):
            with pytest.raises(ConfigError, match=key):
                train.train_latent(config_from_dict(dict(FAST, **change)), corpus_dir,
                                   codec_ckpt, tmp_path / "b", steps=6, resume=ckpt)
        assert not (tmp_path / "b" / "latent.ckpt").exists()

    def test_resume_accepts_config_keys_latent_training_does_not_read(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        ratio = {"unlabeled_ratio": 0.5}
        _, log_full = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path / "full",
                                         steps=6, seed=5, **ratio)
        ck_half, _ = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path / "half",
                                        steps=3, seed=5, **ratio)
        full = train.read_loss_log(log_full)
        for i, change in enumerate(({"lr": 5e-3, "ema_decay": 0.9, "pin_zero_entry": False},
                                    {"seed": 9, "steps": 7, "tau": 2.0, "max_frames": 99},
                                    {"codec_steps": 3, "latent_steps": 6},
                                    {"loss": {"recon": 1.0, "emb": 0.5, "fm": 0.0,
                                              "lyrics": 2.0, "note": 3.0}})):
            other = config_from_dict(dict(FAST, **change))
            _, log_res = train.train_latent(other, corpus_dir, codec_ckpt, tmp_path / f"r{i}",
                                            steps=6, resume=ck_half)
            res = train.read_loss_log(log_res)
            for name in train.LATENT_LOG_HEADER:
                assert np.array_equal(full[name][3:], res[name]), (change, name)

    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_supervised_embeddings_run_once_per_step(
        self, monkeypatch, cfg, corpus_dir, codec_ckpt, tmp_path, ratio
    ):
        calls = {"lyrics_repr": 0, "melody_repr": 0, "score": 0, "diffusion_loss": 0}
        for name in ("lyrics_repr", "melody_repr"):
            original = getattr(condition.ConditionNet, name)

            def counting(self, grid, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, grid)

            monkeypatch.setattr(condition.ConditionNet, name, counting)
        score_call, loss = nn.ScoreNet.__call__, diffusion.diffusion_loss

        def counting_score(self, *args):
            calls["score"] += 1
            return score_call(self, *args)

        def counting_loss(*args):
            calls["diffusion_loss"] += 1
            return loss(*args)

        monkeypatch.setattr(nn.ScoreNet, "__call__", counting_score)
        monkeypatch.setattr(diffusion, "diffusion_loss", counting_loss)
        _, log = train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=4, seed=0,
                                    unlabeled_ratio=ratio)
        # a step has contrastive terms exactly when it has a supervised window
        cont = train.read_loss_log(log)["cont_lyrics"]
        sup_steps = int(np.sum(cont != 0.0)) if ratio else 4
        assert calls == {"lyrics_repr": sup_steps, "melody_repr": sup_steps, "score": 4,
                         "diffusion_loss": 4}

    def test_divergence_keeps_the_log_and_writes_no_checkpoint(
        self, corpus_dir, codec_ckpt, tmp_path
    ):
        cfg = config_from_dict(dict(FAST, latent_lr=1e6))
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as exc:
            train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=20, seed=1)
        _assert_divergence_left_log_only(str(exc.value), tmp_path, "latent")

    def test_incompatible_config_rejected(self, corpus_dir, codec_ckpt, tmp_path):
        bad = config_from_dict(dict(FAST, latent_dim=6))
        with pytest.raises(ConfigError, match="latent_dim"):
            train.train_latent(bad, corpus_dir, codec_ckpt, tmp_path, steps=2, seed=0)

    def test_bad_modes_rejected(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        with pytest.raises(ConfigError):
            train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=2, prior_mode="x")
        with pytest.raises(ConfigError):
            train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=2, target_kind="x")
        with pytest.raises(ConfigError):
            train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=2, unlabeled_ratio=2.0)


class TestCodecFileCommands:
    def test_encode_decode_matches_in_memory_forward(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        wav = str(corpus_dir / "song000.wav")
        bits = tmp_path / "song0.hsc"
        train.encode_wav(codec_ckpt, wav, bits)
        mel_path = tmp_path / "song0.mel.f32"
        decoded = train.decode_bitstream(codec_ckpt, bits, mel_path)
        models, ccfg, _ = train.load_codec_checkpoint(codec_ckpt)
        lm = corpus.log_mel(dsp.load_wav(wav), ccfg)
        z = models.encoder(lm).data.astype(np.float64)
        direct = np.clip(
            np.expm1(models.decoder(rvq.quantize(models.coder, z).astype(np.float32)).data),
            0.0,
            None,
        )
        assert np.abs(direct - decoded).max() < 1e-7
        on_disk, meta = fileio.load_matrix(mel_path)
        assert meta["kind"] == "mel"
        assert on_disk.shape == decoded.shape

    def test_truncated_decode_distortion_monotone_in_latent_space(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        models, ccfg, _ = train.load_codec_checkpoint(codec_ckpt)
        songs, _ = corpus.load_corpus(corpus_dir, ccfg)
        z = models.encoder(songs[0].logmel).data.astype(np.float64)
        codes = rvq.encode(models.coder, z)
        errs = [
            float(((z - rvq.decode(models.coder, codes, c)) ** 2).mean())
            for c in range(1, ccfg.quantizers + 1)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_wrong_sample_rate_rejected(self, cfg, codec_ckpt, tmp_path):
        buf = dsp.synth_tone(440.0, 0.4, 4800, 16000)
        wav = tmp_path / "wrong_sr.wav"
        dsp.save_wav(wav, buf)
        with pytest.raises(ConfigError):
            train.encode_wav(codec_ckpt, wav, tmp_path / "x.hsc")


class TestSampling:
    def test_same_seed_identical_outputs(self, corpus_dir, codec_ckpt, latent_ckpt, tmp_path):
        score = str(corpus_dir / "song000.score.json")
        out = []
        for name in ("a", "b"):
            lat, mel, rep = train.sample_score(
                score, codec_ckpt, latent_ckpt, tmp_path / name, steps=8, tau=1.5, seed=9
            )
            out.append((open(lat, "rb").read(), open(mel, "rb").read()))
        assert out[0] == out[1]

    def test_report_schema_and_frame_count(self, corpus_dir, codec_ckpt, latent_ckpt, tmp_path):
        score_path = str(corpus_dir / "song001.score.json")
        _, mel_path, rep_path = train.sample_score(
            score_path, codec_ckpt, latent_ckpt, tmp_path, steps=8, tau=1.0, seed=0
        )
        report = json.loads(open(rep_path).read())
        models, lcfg, meta, _ = train.load_latent_checkpoint(latent_ckpt)
        from minisvs import condition as cond

        table = {k: int(v) for k, v in meta["phoneme_table"].items()}
        score = cond.load_score(score_path, table)
        grid = cond.expand_score(score, lcfg.hop_size, lcfg.sample_rate)
        assert report["frames"] == grid.frames
        mel, _ = fileio.load_matrix(mel_path)
        assert mel.shape[0] == grid.frames
        assert report["init_noise_variance"] == 1.0
        assert report["notes_scored"] == sum(1 for m in grid.note_midi if m > 0)

    def test_tau_variance_logged_ratio(self, corpus_dir, codec_ckpt, latent_ckpt, tmp_path):
        score = str(corpus_dir / "song000.score.json")
        reports = {}
        for tau in (1.0, 1.5):
            _, _, rep = train.sample_score(
                score, codec_ckpt, latent_ckpt, tmp_path / f"t{tau}", steps=6, tau=tau, seed=1
            )
            reports[tau] = json.loads(open(rep).read())
        ratio = reports[1.0]["init_noise_variance"] / reports[1.5]["init_noise_variance"]
        assert abs(ratio - 1.5) < 1e-12

    def test_zq_projection_target(self, corpus_dir, codec_ckpt, latent_ckpt, tmp_path):
        score = str(corpus_dir / "song000.score.json")
        lat, _, _ = train.sample_score(
            score, codec_ckpt, latent_ckpt, tmp_path, steps=6, tau=1.5, seed=2, target_kind="zq"
        )
        models, ccfg, _ = train.load_codec_checkpoint(codec_ckpt)
        z, _ = fileio.load_matrix(lat)
        # latent file holds the raw sampled z0; decode used its projection
        assert z.shape[1] == ccfg.latent_dim

    def test_target_defaults_to_the_checkpoint_target(
        self, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        zq_ckpt, _ = train.train_latent(
            cfg, corpus_dir, codec_ckpt, tmp_path / "zq", steps=3, seed=9, target_kind="zq"
        )
        score = str(corpus_dir / "song000.score.json")
        _, _, rep = train.sample_score(score, codec_ckpt, zq_ckpt, tmp_path / "s", steps=4)
        assert json.loads(open(rep).read())["target"] == "zq"
        _, _, rep = train.sample_score(
            score, codec_ckpt, zq_ckpt, tmp_path / "t", steps=4, target_kind="z0"
        )
        assert json.loads(open(rep).read())["target"] == "z0"

    def test_unpitched_notes_report_a_null_cents_error(
        self, monkeypatch, corpus_dir, codec_ckpt, latent_ckpt, tmp_path
    ):
        monkeypatch.setattr(train.dsp, "mel_peak_pitch",
                            lambda mel, *args: dsp.PitchTrack(np.zeros(len(mel.data)),
                                                              np.zeros(len(mel.data))))
        _, _, rep = train.sample_score(str(corpus_dir / "song000.score.json"), codec_ckpt,
                                       latent_ckpt, tmp_path, steps=2, seed=0)
        report = json.loads(open(rep).read(), parse_constant=_refuse_constant)
        assert report["notes"] and all(n["cents_error"] is None for n in report["notes"])
        assert report["notes_within_100_cents"] == 0

    def test_infinite_tau_reports_null(self, corpus_dir, codec_ckpt, latent_ckpt, tmp_path):
        _, _, rep = train.sample_score(str(corpus_dir / "song000.score.json"), codec_ckpt,
                                       latent_ckpt, tmp_path, steps=2, tau=float("inf"), seed=0)
        report = json.loads(open(rep).read(), parse_constant=_refuse_constant)
        assert report["tau"] is None and report["init_noise_variance"] == 0.0

    def test_frame_overflow_rejected(self, corpus_dir, codec_ckpt, latent_ckpt, tmp_path):
        table = json.loads(open(corpus_dir / "phonemes.json").read())
        score = {
            "tempo": 120,
            "syllables": [
                {"onset": None, "nucleus": "a", "coda": None, "midi": 69, "dur_s": 60.0}
            ]
            * 20,
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(score))
        with pytest.raises(ConfigError, match="frames"):
            train.sample_score(path, codec_ckpt, latent_ckpt, tmp_path, steps=4, seed=0)


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON value")


def _record_outputs(monkeypatch, owner):
    """Wrap owner.__call__ for the test and collect what each call returns."""
    outputs = []
    original = owner.__call__

    def recording(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        outputs.append(out)
        return out

    monkeypatch.setattr(owner, "__call__", recording)
    return outputs


def _untaped(outputs) -> bool:
    return all(not out.requires_grad and out._parents == () for out in outputs)


class TestInferenceBuildsNoTape:
    def test_loaded_params_do_not_require_grad(self, codec_ckpt, latent_ckpt):
        codec, _, _ = train.load_codec_checkpoint(codec_ckpt)
        latent, _, _, _ = train.load_latent_checkpoint(latent_ckpt)
        named = codec.params() + latent.params()
        assert named and not any(p.requires_grad for _, p in named)

    def test_sampler_score_calls_and_decoder_build_no_tape(
        self, monkeypatch, corpus_dir, codec_ckpt, latent_ckpt, tmp_path
    ):
        scores = _record_outputs(monkeypatch, nn.ScoreNet)
        decoded = _record_outputs(monkeypatch, nn.MelDecoder)
        train.sample_score(str(corpus_dir / "song000.score.json"), codec_ckpt, latent_ckpt,
                           tmp_path, steps=6, seed=0)
        assert len(scores) == 6 and len(decoded) == 1
        assert _untaped(scores) and _untaped(decoded)

    def test_codec_file_commands_build_no_tape(
        self, monkeypatch, corpus_dir, codec_ckpt, tmp_path
    ):
        encoded = _record_outputs(monkeypatch, nn.MelEncoder)
        decoded = _record_outputs(monkeypatch, nn.MelDecoder)
        bits = tmp_path / "s.hsc"
        train.encode_wav(codec_ckpt, str(corpus_dir / "song000.wav"), bits)
        train.decode_bitstream(codec_ckpt, bits, tmp_path / "s.mel.f32")
        assert len(encoded) == 1 and len(decoded) == 1
        assert _untaped(encoded) and _untaped(decoded)

    def test_frozen_codec_in_latent_training_builds_no_tape(
        self, monkeypatch, cfg, corpus_dir, codec_ckpt, tmp_path
    ):
        encoded = _record_outputs(monkeypatch, nn.MelEncoder)
        train.train_latent(cfg, corpus_dir, codec_ckpt, tmp_path, steps=1, seed=0)
        assert len(encoded) == 2  # one per song
        assert _untaped(encoded)


class TestEvaluateFiles:
    def test_wav_self_comparison_is_perfect(self, cfg, corpus_dir, tmp_path):
        wav = str(corpus_dir / "song000.wav")
        report = train.evaluate_files(wav, wav, tmp_path / "r.json", cfg)
        assert report.mae == 0.0
        assert report.pitch_cents_rmse == 0.0
        assert report.periodicity_rmse == 0.0
        assert report.vuv_f1 == 1.0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert set(payload) == {
            "mae",
            "pitch_cents_rmse",
            "periodicity_rmse",
            "vuv_f1",
            "frames_compared",
        }

    def test_octave_shift_is_1200_cents(self, cfg, tmp_path):
        a = dsp.synth_tone(220.0, 0.4, 24000, 24000)
        b = dsp.synth_tone(440.0, 0.4, 24000, 24000)
        pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
        dsp.save_wav(pa, a)
        dsp.save_wav(pb, b)
        report = train.evaluate_files(pa, pb, tmp_path / "r.json", cfg)
        assert abs(report.pitch_cents_rmse - 1200.0) < 10.0

    def test_pitch_json_override(self, cfg, corpus_dir, tmp_path):
        wav = str(corpus_dir / "song000.wav")
        track = dsp.estimate_f0(dsp.load_wav(wav), dsp.StftConfig(cfg.fft_size, cfg.win_size, cfg.hop_size))
        pj = tmp_path / "p.json"
        pj.write_text(json.dumps({"f0": (track.f0 * 2.0).tolist(),
                                  "periodicity": track.periodicity.tolist()}))
        report = train.evaluate_files(wav, wav, tmp_path / "r.json", cfg, pred_pitch=pj)
        assert abs(report.pitch_cents_rmse - 1200.0) < 1e-6

    def test_length_mismatch_cites_policy(self, cfg, tmp_path):
        a = dsp.synth_tone(220.0, 0.4, 24000, 24000)
        b = dsp.synth_tone(220.0, 0.4, 12000, 24000)
        pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
        dsp.save_wav(pa, a)
        dsp.save_wav(pb, b)
        with pytest.raises(ValueError, match="alignment"):
            train.evaluate_files(pa, pb, tmp_path / "r.json", cfg)

    def test_mel_matrix_inputs(self, cfg, corpus_dir, codec_ckpt, tmp_path):
        wav = str(corpus_dir / "song000.wav")
        bits = tmp_path / "b.hsc"
        train.encode_wav(codec_ckpt, wav, bits)
        mel_path = tmp_path / "m.f32"
        train.decode_bitstream(codec_ckpt, bits, mel_path)
        report = train.evaluate_files(mel_path, mel_path, tmp_path / "r.json", cfg)
        assert report.mae == 0.0 and report.vuv_f1 in (0.0, 1.0)
