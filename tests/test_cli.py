import json

import pytest

from minisvs import cli
from minisvs.config import save_config, config_from_dict

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
def workdir(tmp_path_factory):
    """Corpus + tiny checkpoints built once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    save_config(cfg_path, config_from_dict(dict(FAST)))
    assert cli.main(["gen-corpus", "--out", str(root / "corpus"), "--songs", "2",
                     "--seed", "0", "--config", str(cfg_path)]) == 0
    assert cli.main(["train-codec", "--corpus", str(root / "corpus"),
                     "--out", str(root / "codec"), "--steps", "25", "--seed", "0",
                     "--config", str(cfg_path)]) == 0
    assert cli.main(["train-latent", "--corpus", str(root / "corpus"),
                     "--codec", str(root / "codec" / "codec.ckpt"),
                     "--out", str(root / "latent"), "--steps", "25", "--seed", "0",
                     "--config", str(cfg_path)]) == 0
    return root


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["train-codec"])  # missing required args
        assert exc.value.code == 1

    def test_validation_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_key": 5}))
        code = cli.main(["gen-corpus", "--out", str(tmp_path / "c"), "--config", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("loss", [{"recon": -1.0}, {"prior": 1.0}])
    def test_bad_loss_config_is_2(self, tmp_path, loss):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"loss": loss}))
        code = cli.main(["gen-corpus", "--out", str(tmp_path / "c"), "--config", str(bad)])
        assert code == 2

    def test_missing_file_is_2(self, tmp_path):
        code = cli.main(["codec", "encode", "--checkpoint", str(tmp_path / "nope.ckpt"),
                         "--wav", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--prior", "standard"], ["--target", "zq"],
                                      ["--no-enhanced-ce"], ["--unlabeled-ratio", "0.5"]])
    def test_resume_with_contradicting_mode_is_2(self, workdir, tmp_path, flag):
        code = cli.main(["train-latent", "--corpus", str(workdir / "corpus"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--out", str(tmp_path / "r"), "--steps", "30",
                         "--resume", str(workdir / "latent" / "latent.ckpt"),
                         "--config", str(workdir / "cfg.json")] + flag)
        assert code == 2


class TestCodecRoundtrip:
    def test_encode_decode_via_cli(self, workdir, tmp_path):
        bits = tmp_path / "s.hsc"
        assert cli.main(["codec", "encode",
                         "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                         "--wav", str(workdir / "corpus" / "song000.wav"),
                         "--out", str(bits)]) == 0
        assert bits.read_bytes()[:4] == b"HSC1"
        mel = tmp_path / "s.mel.f32"
        assert cli.main(["codec", "decode",
                         "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                         "--bitstream", str(bits), "--out", str(mel)]) == 0
        assert mel.exists() and (tmp_path / "s.mel.f32.json").exists()

    def test_corrupt_bitstream_rejected(self, workdir, tmp_path):
        bits = tmp_path / "bad.hsc"
        bits.write_bytes(b"XXXX" + b"\x00" * 32)
        code = cli.main(["codec", "decode",
                         "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                         "--bitstream", str(bits), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_truncated_decode_via_quantizers_flag(self, workdir, tmp_path):
        bits = tmp_path / "t.hsc"
        cli.main(["codec", "encode", "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                  "--wav", str(workdir / "corpus" / "song001.wav"), "--out", str(bits)])
        full = tmp_path / "full.f32"
        trunc = tmp_path / "trunc.f32"
        assert cli.main(["codec", "decode", "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                         "--bitstream", str(bits), "--out", str(full)]) == 0
        assert cli.main(["codec", "decode", "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                         "--bitstream", str(bits), "--out", str(trunc), "--quantizers", "1"]) == 0
        assert full.read_bytes() != trunc.read_bytes()


class TestSampleAndEvaluate:
    def test_sample_writes_all_outputs(self, workdir, tmp_path):
        out = tmp_path / "samp"
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--latent", str(workdir / "latent" / "latent.ckpt"),
                         "--out", str(out), "--steps", "6", "--tau", "1.5", "--seed", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tau"] == 1.5 and report["steps"] == 6
        assert (out / "latent.f32").exists() and (out / "mel.f32").exists()

    def test_sample_target_defaults_to_the_checkpoint_target(self, workdir, tmp_path):
        assert cli.main(["train-latent", "--corpus", str(workdir / "corpus"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--out", str(tmp_path / "zq"), "--steps", "3", "--seed", "0",
                         "--target", "zq", "--config", str(workdir / "cfg.json")]) == 0
        out = tmp_path / "samp"
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--latent", str(tmp_path / "zq" / "latent.ckpt"),
                         "--out", str(out), "--steps", "4"]) == 0
        assert json.loads((out / "report.json").read_text())["target"] == "zq"

    def test_evaluate_self_is_perfect(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        wav = str(workdir / "corpus" / "song000.wav")
        cfg = workdir / "cfg.json"
        assert cli.main(["evaluate", "--gt", wav, "--pred", wav,
                         "--out", str(out), "--config", str(cfg)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mae"] == 0.0
        assert payload["vuv_f1"] == 1.0

    def test_evaluate_length_mismatch_is_2(self, workdir, tmp_path):
        code = cli.main(["evaluate",
                         "--gt", str(workdir / "corpus" / "song000.wav"),
                         "--pred", str(workdir / "corpus" / "song001.wav"),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")])
        assert code == 2


class TestSelfcheckSuites:
    def test_gaussian_suite_passes_clean(self):
        results = cli.run_selfcheck(only=("gaussian-reverse-sampler",), verbose=False)
        assert results[0][1], results[0][2]

    def test_drift_sign_flip_fails_gaussian_suite(self):
        results = cli.run_selfcheck(
            sabotage="flip-drift", only=("gaussian-reverse-sampler",), verbose=False
        )
        assert not results[0][1]

    def test_fast_suites_pass(self):
        results = cli.run_selfcheck(only=("ctc-brute-force", "rvq-monotonicity"), verbose=False)
        assert all(ok for _, ok, _ in results)
