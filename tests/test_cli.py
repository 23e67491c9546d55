import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from minisvs import cli, diffusion, dsp, fileio, losses, nn
from minisvs.config import config_from_dict
from minisvs.corpus import load_corpus

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
    cfg_path.write_text(json.dumps(FAST))
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

    @pytest.mark.parametrize("change,named", [
        ({"time_dim": 63}, "'time_dim'"), ({"time_dim": 0}, "'time_dim'"),
        ({"width": 0}, "'width'"), ({"feature_dim": 0}, "'feature_dim'"),
    ], ids=["odd-time_dim", "zero-time_dim", "zero-width", "zero-feature_dim"])
    def test_network_size_config_is_2(self, workdir, tmp_path, capsys, change, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(FAST, **change)))
        assert cli.main(["train-latent", "--corpus", str(workdir / "corpus"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--out", str(tmp_path / "run"), "--steps", "2",
                         "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("ratio", ["0", "0.5"])
    @pytest.mark.parametrize("loss,named", [
        ({"n_neg": -3}, "'loss.n_neg'"), ({"n_neg": 0}, "'loss.n_neg'"),
        ({"tau_cont": 0.0}, "'loss.tau_cont'"), ({"tau_cont": -0.5}, "'loss.tau_cont'"),
    ], ids=["negative-n_neg", "zero-n_neg", "zero-tau_cont", "negative-tau_cont"])
    def test_contrastive_config_is_2(self, workdir, tmp_path, capsys, loss, named, ratio):
        # refused at load, before any output, whether or not a contrastive term runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(FAST, loss=loss)))
        assert cli.main(["train-latent", "--corpus", str(workdir / "corpus"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--out", str(tmp_path / "run"), "--steps", "2",
                         "--unlabeled-ratio", ratio, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,flags,named", [
        ("train-codec", ["--steps", "-5"], "steps must be >= 0, got -5"),
        ("train-latent", ["--steps", "-1"], "steps must be >= 0, got -1"),
        ("train-codec", [{"codec_steps": -2}], "'codec_steps' must be >= 0, got -2"),
        ("train-latent", [{"latent_steps": -2}], "'latent_steps' must be >= 0, got -2"),
    ], ids=["codec-flag", "latent-flag", "codec-config", "latent-config"])
    def test_negative_steps_is_2(self, workdir, tmp_path, capsys, command, flags, named):
        cfg = tmp_path / "cfg.json"
        if isinstance(flags[0], dict):
            cfg.write_text(json.dumps(dict(FAST, **flags[0])))
            flags = []
        else:
            cfg.write_text(json.dumps(FAST))
        args = [command, "--corpus", str(workdir / "corpus"), "--out", str(tmp_path / "run"),
                "--config", str(cfg)] + flags
        if command == "train-latent":
            args += ["--codec", str(workdir / "codec" / "codec.ckpt")]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["codec", "latent"])
    def test_resume_below_the_checkpoint_step_is_2(self, workdir, tmp_path, capsys, kind):
        # the workdir checkpoints are at step 25; a 3-step run cannot continue one
        args = [f"train-{kind}", "--corpus", str(workdir / "corpus"),
                "--out", str(tmp_path / "r"), "--steps", "3",
                "--resume", str(workdir / kind / f"{kind}.ckpt"),
                "--config", str(workdir / "cfg.json")]
        if kind == "latent":
            args += ["--codec", str(workdir / "codec" / "codec.ckpt")]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "checkpoint is at step 25, cannot resume to steps=3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_zero_steps_on_a_fresh_run_is_0(self, workdir, tmp_path):
        assert cli.main(["train-codec", "--corpus", str(workdir / "corpus"),
                         "--out", str(tmp_path / "run"), "--steps", "0",
                         "--config", str(workdir / "cfg.json")]) == 0
        manifest = json.loads((tmp_path / "run" / "codec.ckpt.json").read_text())
        assert manifest["meta"]["step"] == 0

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

    @pytest.mark.parametrize("change", [{"latent_lr": 5e-2}, {"loss": {"n_neg": 4}}])
    def test_latent_resume_with_contradicting_config_is_2(self, workdir, tmp_path, change):
        cfg_path = tmp_path / "other.json"
        cfg_path.write_text(json.dumps(dict(FAST, **change)))
        code = cli.main(["train-latent", "--corpus", str(workdir / "corpus"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--out", str(tmp_path / "r"), "--steps", "30",
                         "--resume", str(workdir / "latent" / "latent.ckpt"),
                         "--config", str(cfg_path)])
        assert code == 2
        assert not (tmp_path / "r" / "latent.ckpt").exists()

    @pytest.mark.parametrize("contradicts", ["adversarial", "config"])
    def test_codec_resume_with_contradicting_flag_or_config_is_2(
        self, workdir, tmp_path, contradicts
    ):
        cfg_path, flag = workdir / "cfg.json", ["--adversarial"]
        if contradicts == "config":
            cfg_path, flag = tmp_path / "other.json", []
            cfg_path.write_text(json.dumps(dict(FAST, lr=5e-3)))
        code = cli.main(["train-codec", "--corpus", str(workdir / "corpus"),
                         "--out", str(tmp_path / "r"), "--steps", "30",
                         "--resume", str(workdir / "codec" / "codec.ckpt"),
                         "--config", str(cfg_path)] + flag)
        assert code == 2
        assert not (tmp_path / "r" / "codec.ckpt").exists()


def _garbage(n: int) -> bytes:
    return np.random.default_rng(7).integers(0, 256, n, dtype=np.uint8).tobytes()


def _edited_checkpoint(workdir, tmp_path, edit, kind="codec"):
    """A copy of the workdir checkpoint of kind whose manifest edit(manifest) changed."""
    ckpt = tmp_path / f"{kind}.ckpt"
    shutil.copy(workdir / kind / f"{kind}.ckpt", ckpt)
    manifest = json.loads((workdir / kind / f"{kind}.ckpt.json").read_text())
    edit(manifest)
    (tmp_path / f"{kind}.ckpt.json").write_text(json.dumps(manifest))
    return ckpt


def _overflowing_codec(workdir, tmp_path):
    """A copy of the workdir codec whose decoder output bias is raised by 1000, so
    every decoded log-mel is past expm1's float64 range."""
    arrays, meta = fileio.load_checkpoint(workdir / "codec" / "codec.ckpt")
    arrays["dec.lin_out.b"] = arrays["dec.lin_out.b"] + 1000.0
    ckpt = tmp_path / "overflow" / "codec.ckpt"
    ckpt.parent.mkdir()
    fileio.save_checkpoint(ckpt, arrays, meta)
    return ckpt


def _syllable(**fields):
    return [{"nucleus": "a", "midi": 60, "dur_s": 0.5, **fields}]


# (tempo, syllables, what the error names) of score JSON every score reader refuses
MALFORMED_SCORES = [
    pytest.param(120.0, 5, "'syllables'", id="int"),
    pytest.param(120.0, ["a"], "syllable 0", id="list-of-str"),
    pytest.param([120], _syllable(), "'tempo'", id="list-tempo"),
    pytest.param(120.0, _syllable(dur_s=[0.5]), "syllable 0: 'dur_s'", id="list-dur_s"),
    pytest.param(120.0, _syllable(midi=[60]), "syllable 0: 'midi'", id="list-midi"),
    pytest.param(120.0, _syllable(nucleus=["a"]), "syllable 0: 'nucleus'", id="list-nucleus"),
    pytest.param(120.0, _syllable(dur_s=float("inf")), "syllable 0: 'dur_s'", id="inf-dur_s"),
    pytest.param(120.0, _syllable(dur_s=1e300), "syllable 0: 'dur_s'", id="huge-dur_s"),
    pytest.param(120.0, _syllable(dur_s=float("nan")), "syllable 0: 'dur_s'", id="nan-dur_s"),
    pytest.param(float("nan"), _syllable(), "syllable 0: 'tempo'", id="nan-tempo"),
    pytest.param(120.0, _syllable(midi=60.7), "syllable 0: 'midi'", id="fractional-midi"),
    pytest.param(120.0, [{"midi": 60, "dur_s": 0.5}], "syllable 0: 'nucleus'", id="no-nucleus"),
    pytest.param(120.0, _syllable(onset=""), "syllable 0: 'onset' is an unknown phoneme ''", id="empty-onset"),
    pytest.param(120.0, _syllable(coda=""), "syllable 0: 'coda' is an unknown phoneme ''", id="empty-coda"),
]


class TestStreamedLossLog:
    def test_killed_run_leaves_the_rows_of_its_finished_steps(self, workdir, tmp_path):
        out = tmp_path / "run"
        log = out / "codec_losses.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "minisvs", "train-codec", "--corpus", str(workdir / "corpus"),
             "--out", str(out), "--steps", "100000", "--seed", "0",
             "--config", str(workdir / "cfg.json")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            while proc.poll() is None and time.monotonic() < deadline:
                if log.exists() and len(log.read_text().splitlines()) >= 4:
                    break
                time.sleep(0.02)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        rows = log.read_text().splitlines()
        # the header and at least 3 rows, each as the 25-step run logged it
        assert len(rows) >= 4
        assert rows == (workdir / "codec" / "codec_losses.csv").read_text().splitlines()[:len(rows)]
        assert sorted(p.name for p in out.iterdir()) == ["codec_losses.csv"]


class TestCorruptInputExits2:
    @pytest.mark.parametrize("command,name,content", [
        ("evaluate", "bad.wav", _garbage(64)),
        ("evaluate", "empty.wav", b""),
        ("encode", "bad.wav", _garbage(64)),
        ("decode", "short.hsc", b"HSC1" + _garbage(3)),
    ], ids=["evaluate-garbage-wav", "evaluate-empty-wav", "encode-garbage-wav",
            "decode-short-header"])
    def test_wav_and_bitstream_readers(self, workdir, tmp_path, command, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        ckpt, out = str(workdir / "codec" / "codec.ckpt"), str(tmp_path / "out")
        argv = {
            "evaluate": ["evaluate", "--gt", str(bad), "--pred", str(bad), "--out", out],
            "encode": ["codec", "encode", "--checkpoint", ckpt, "--wav", str(bad), "--out", out],
            "decode": ["codec", "decode", "--checkpoint", ckpt, "--bitstream", str(bad),
                       "--out", out],
        }[command]
        assert cli.main(argv) == 2

    def test_config_with_a_non_object_loss(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"loss": 3}))
        assert cli.main(["gen-corpus", "--out", str(tmp_path / "c"), "--config", str(bad)]) == 2

    @pytest.mark.parametrize("tempo,syllables,named", MALFORMED_SCORES)
    def test_score_with_malformed_syllables(self, workdir, tmp_path, capsys, tempo, syllables,
                                            named):
        score = tmp_path / "bad.score.json"
        score.write_text(json.dumps({"tempo": tempo, "syllables": syllables}))
        assert cli.main(["sample", "--score", str(score),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--latent", str(workdir / "latent" / "latent.ckpt"),
                         "--out", str(tmp_path / "samp"), "--steps", "2"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-codec", "train-latent"])
    @pytest.mark.parametrize("tempo,syllables,named", MALFORMED_SCORES)
    def test_corpus_with_a_malformed_score(self, workdir, tmp_path, capsys, command, tempo,
                                           syllables, named):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("phonemes.json", "song000.wav"):
            shutil.copy(workdir / "corpus" / name, corpus / name)
        (corpus / "song000.score.json").write_text(
            json.dumps({"tempo": tempo, "syllables": syllables}))
        argv = [command, "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                "--steps", "2", "--config", str(workdir / "cfg.json")]
        if command == "train-latent":
            argv += ["--codec", str(workdir / "codec" / "codec.ckpt")]
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err

    def test_checkpoint_manifest_with_a_non_object_param(self, workdir, tmp_path):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda m: m.update(params=[5]))
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(ckpt),
                         "--latent", str(workdir / "latent" / "latent.ckpt"),
                         "--out", str(tmp_path / "samp"), "--steps", "2"]) == 2

    @pytest.mark.parametrize("field,edit", [
        ("shape", lambda m: m["params"][0].update(shape=5)),
        ("offset", lambda m: m["params"][0].update(offset=[0])),
        ("name", lambda m: m["params"][0].update(name=[1])),
        ("alphabet_size", lambda m: m["meta"].update(alphabet_size=[14])),
    ], ids=["param-shape", "param-offset", "param-name", "meta-alphabet_size"])
    def test_checkpoint_field_of_the_wrong_type(self, workdir, tmp_path, capsys, field, edit):
        ckpt = _edited_checkpoint(workdir, tmp_path, edit)
        assert cli.main(["codec", "encode", "--checkpoint", str(ckpt),
                         "--wav", str(workdir / "corpus" / "song000.wav"),
                         "--out", str(tmp_path / "s.hsc")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"'{field}'" in err

    @pytest.mark.parametrize("edit", [
        lambda m: m["meta"].update(rng_state=5),
        lambda m: m["meta"]["rng_state"]["state"].update(state="x"),
        lambda m: m["meta"]["rng_state"].pop("state"),
    ], ids=["int", "inner-state-str", "no-inner-state"])
    def test_checkpoint_meta_rng_state_of_the_wrong_type(self, workdir, tmp_path, capsys, edit):
        ckpt = _edited_checkpoint(workdir, tmp_path, edit)
        assert cli.main(["train-codec", "--corpus", str(workdir / "corpus"),
                         "--out", str(tmp_path / "r"), "--steps", "26", "--resume", str(ckpt),
                         "--config", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'rng_state'" in err

    @pytest.mark.parametrize("kind,name,command", [
        ("codec", "dec.lin_in.w", "encode"),
        ("codec", "rvq.1.ema_sums", "encode"),
        ("latent", "latent_stats.std", "sample"),
        ("latent", "adam.m.cond.phoneme.table", "resume"),
        ("codec", "adam.v.disc.conv1.w", "resume"),
    ], ids=["param", "rvq-state", "latent-stats", "latent-adam-moment", "codec-adam-moment"])
    @pytest.mark.parametrize("defect", ["missing", "mis-shaped"])
    def test_checkpoint_array_missing_or_mis_shaped(self, workdir, tmp_path, capsys, kind, name,
                                                    command, defect):
        def edit(manifest):
            entries = manifest["params"]
            entry = next(e for e in entries if e["name"] == name)
            if defect == "missing":
                entries.remove(entry)
            else:
                entry["shape"] = [1]
        ckpt = _edited_checkpoint(workdir, tmp_path, edit, kind)
        corpus = str(workdir / "corpus")
        codec = str(ckpt if kind == "codec" else workdir / "codec" / "codec.ckpt")
        out = tmp_path / "out"
        argv = {
            "encode": ["codec", "encode", "--checkpoint", codec,
                       "--wav", str(workdir / "corpus" / "song000.wav"), "--out", str(out)],
            "sample": ["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                       "--codec", codec, "--latent", str(ckpt), "--out", str(out), "--steps", "2"],
            "resume": ["train-codec", "--corpus", corpus] if kind == "codec" else
                      ["train-latent", "--corpus", corpus, "--codec", codec],
        }[command]
        if command == "resume":
            argv += ["--out", str(out), "--steps", "26", "--resume", str(ckpt),
                     "--config", str(workdir / "cfg.json")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        if defect == "missing":
            assert f"{ckpt}: checkpoint has no array '{name}'" in err
        else:
            assert f"{ckpt}: checkpoint array '{name}' has shape (1,), the model's is (" in err
        if command == "sample":
            assert not out.exists()
        else:
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("case", ["steps-0", "tau-0.5", "missing-score", "bad-meta"])
    def test_refused_sample_leaves_no_out_dir(self, workdir, tmp_path, capsys, case):
        score = workdir / "corpus" / "song000.score.json"
        latent = workdir / "latent" / "latent.ckpt"
        flags = {"steps-0": ["--steps", "0"], "tau-0.5": ["--steps", "2", "--tau", "0.5"]}.get(
            case, ["--steps", "2"])
        if case == "missing-score":
            score = tmp_path / "absent.score.json"
        elif case == "bad-meta":
            latent = _edited_checkpoint(workdir, tmp_path,
                                        lambda m: m["meta"].update(prior_mode="xyz"), "latent")
        out = tmp_path / "samp"
        assert cli.main(["sample", "--score", str(score),
                         "--codec", str(workdir / "codec" / "codec.ckpt"), "--latent", str(latent),
                         "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("phoneme_table", []),
        ("phoneme_table", {"a": -1}),
        ("enhanced", "yes"),
        ("target_kind", "zz"),
        ("prior_mode", "xyz"),
    ], ids=["phoneme_table-list", "phoneme_table-negative-id", "enhanced-str", "target_kind-zz",
            "prior_mode-xyz"])
    def test_latent_meta_read_by_sample(self, workdir, tmp_path, capsys, field, value):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda m: m["meta"].update({field: value}),
                             kind="latent")
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"), "--latent", str(ckpt),
                         "--out", str(tmp_path / "samp"), "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"'{field}'" in err
        assert not (tmp_path / "samp" / "report.json").exists()

    @pytest.mark.parametrize("field", ["prior_mode", "enhanced", "target_kind"])
    def test_latent_meta_without_a_mode_at_sample(self, workdir, tmp_path, capsys, field):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda m: m["meta"].pop(field),
                                  kind="latent")
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"), "--latent", str(ckpt),
                         "--out", str(tmp_path / "samp"), "--steps", "2"]) == 2
        assert f"{ckpt}: checkpoint does not record {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("unlabeled_songs", 5),
        ("unlabeled_songs", [7]),
        ("unlabeled_songs", [0, 0]),
        ("unlabeled_ratio", "0.34"),
        ("unlabeled_ratio", 1.5),
        ("prior_mode", "xyz"),
        ("enhanced", 1),
        ("config", 5),
        ("step", None),
        ("step", -3),
    ], ids=["unlabeled_songs-int", "unlabeled_songs-past-the-corpus", "unlabeled_songs-repeated",
            "unlabeled_ratio-str", "unlabeled_ratio-1.5", "prior_mode-xyz", "enhanced-int",
            "config-int", "step-null", "step-negative"])
    def test_latent_meta_read_by_resume(self, workdir, tmp_path, capsys, field, value):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda m: m["meta"].update({field: value}),
                             kind="latent")
        assert cli.main(["train-latent", "--corpus", str(workdir / "corpus"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--out", str(tmp_path / "r"), "--steps", "26", "--resume", str(ckpt),
                         "--config", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"'{field}'" in err
        assert not (tmp_path / "r" / "latent.ckpt").exists()

    @pytest.mark.parametrize("value", ["no", 0, None], ids=["str", "int", "null"])
    def test_codec_meta_adversarial_read_by_resume(self, workdir, tmp_path, capsys, value):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda m: m["meta"].update(adversarial=value))
        assert cli.main(["train-codec", "--corpus", str(workdir / "corpus"),
                         "--out", str(tmp_path / "r"), "--steps", "26", "--resume", str(ckpt),
                         "--config", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'adversarial'" in err
        assert not (tmp_path / "r" / "codec.ckpt").exists()

    @pytest.mark.parametrize("field,value", [
        ("config", 5),
        ("step", None),
        ("disc_step", None),
        ("step", -3),
    ], ids=["config-int", "step-null", "disc_step-null", "step-negative"])
    def test_codec_meta_read_by_resume(self, workdir, tmp_path, capsys, field, value):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda m: m["meta"].update({field: value}))
        assert cli.main(["train-codec", "--corpus", str(workdir / "corpus"),
                         "--out", str(tmp_path / "r"), "--steps", "26", "--resume", str(ckpt),
                         "--config", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"'{field}'" in err
        assert not (tmp_path / "r" / "codec.ckpt").exists()

    @pytest.mark.parametrize("payload", [5, {"f0": [1, 2], "periodicity": {"a": 1}}],
                             ids=["int", "dict-periodicity"])
    def test_pitch_json_of_the_wrong_type(self, workdir, tmp_path, payload):
        pitch = tmp_path / "p.json"
        pitch.write_text(json.dumps(payload))
        wav = str(workdir / "corpus" / "song000.wav")
        assert cli.main(["evaluate", "--gt", wav, "--pred", wav, "--gt-pitch", str(pitch),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")]) == 2

    @pytest.mark.parametrize("name,value", [
        ("f0", [440.0, float("inf")]),
        ("periodicity", [1.0, float("nan")]),
    ], ids=["inf-f0", "nan-periodicity"])
    def test_pitch_json_with_a_non_finite_value(self, workdir, tmp_path, capsys, name, value):
        pitch = tmp_path / "p.json"
        pitch.write_text(json.dumps(dict({"f0": [440.0, 0.0], "periodicity": [1.0, 0.0]},
                                         **{name: value})))
        wav = str(workdir / "corpus" / "song000.wav")
        assert cli.main(["evaluate", "--gt", wav, "--pred", wav, "--gt-pitch", str(pitch),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert str(pitch) in err and f"'{name}'" in err

    @pytest.mark.parametrize("change,named", [
        ({"batch": 2.5}, "'batch'"),
        ({"seed": "x"}, "'seed'"),
        ({"codec_steps": True}, "'codec_steps'"),
        ({"lr": float("nan")}, "'lr'"),
        ({"lr": float("inf")}, "'lr'"),
        ({"pin_zero_entry": 1}, "'pin_zero_entry'"),
        ({"loss": {"n_neg": 2.5}}, "'loss.n_neg'"),
    ], ids=["float-batch", "str-seed", "bool-codec_steps", "nan-lr", "inf-lr", "int-pin_zero_entry",
            "float-loss-n_neg"])
    def test_config_value_of_the_wrong_type(self, workdir, tmp_path, capsys, change, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(FAST, **change)))
        assert cli.main(["train-codec", "--corpus", str(workdir / "corpus"),
                         "--out", str(tmp_path / "run"), "--steps", "2",
                         "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["width-20", "nan-column", "nan-in-one-row"])
    def test_corpus_feature_file_is_checked(self, workdir, tmp_path, capsys, defect):
        corpus = tmp_path / "corpus"
        shutil.copytree(workdir / "corpus", corpus)
        songs, _ = load_corpus(corpus, config_from_dict(FAST))
        feats = songs[0].features.astype(np.float64)
        if defect == "width-20":
            feats = np.ones((feats.shape[0], 20))
        elif defect == "nan-column":
            feats[:, 3] = np.nan
        else:
            feats[feats.shape[0] // 2, 5] = np.nan
        fileio.save_matrix(corpus / "song000.feats", feats)
        assert cli.main(["train-latent", "--corpus", str(corpus),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--out", str(tmp_path / "run"), "--steps", "3",
                         "--unlabeled-ratio", "0.5", "--config", str(workdir / "cfg.json")]) == 2
        assert "song000.feats" in capsys.readouterr().err
        assert not (tmp_path / "run" / "latent.ckpt").exists()

    @pytest.mark.parametrize("sidecar", [5, {"frames": [1], "dim": 1}], ids=["int", "list-frames"])
    def test_matrix_sidecar_of_the_wrong_type(self, tmp_path, sidecar):
        mel = tmp_path / "m.f32"
        mel.write_bytes(np.zeros(1, dtype="<f4").tobytes())
        (tmp_path / "m.f32.json").write_text(json.dumps(sidecar))
        assert cli.main(["evaluate", "--gt", str(mel), "--pred", str(mel),
                         "--out", str(tmp_path / "r.json")]) == 2

    def test_evaluate_mel_file_with_no_frames(self, workdir, tmp_path, capsys):
        mel = tmp_path / "m.f32"
        fileio.save_matrix(mel, np.zeros((0, FAST["mel_bins"])), kind="mel")
        assert cli.main(["evaluate", "--gt", str(mel), "--pred", str(mel),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")]) == 2
        assert f"{mel}: mel feature file has no frames" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_evaluate_wav_with_no_samples(self, workdir, tmp_path, capsys):
        wav = tmp_path / "empty.wav"
        dsp.save_wav(wav, dsp.AudioBuffer(np.zeros(0), 24000))
        assert cli.main(["evaluate", "--gt", str(wav), "--pred", str(wav),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")]) == 2
        assert f"{wav}: WAV file has no samples to evaluate" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_codec_encode_wav_with_no_samples(self, workdir, tmp_path, capsys):
        wav = tmp_path / "empty.wav"
        dsp.save_wav(wav, dsp.AudioBuffer(np.zeros(0), 24000))
        bits = tmp_path / "e.hsc"
        assert cli.main(["codec", "encode", "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                         "--wav", str(wav), "--out", str(bits)]) == 2
        assert f"{wav}: WAV file has no samples to encode" in capsys.readouterr().err
        assert not bits.exists()

    @pytest.mark.parametrize("defect,named", [
        ("nan", "holds a non-finite value"),
        ("inf", "holds a non-finite value"),
        ("negative", "holds a negative value"),
        ("80-bins", "has 80 bins, mel_bins is 48"),
    ], ids=["nan", "inf", "negative", "80-bins"])
    def test_evaluate_mel_file_with_bad_values(self, workdir, tmp_path, capsys, defect, named):
        data = np.ones((20, 80 if defect == "80-bins" else FAST["mel_bins"]))
        data[7, 3] = {"nan": np.nan, "inf": np.inf, "negative": -0.5}.get(defect, 1.0)
        mel = tmp_path / "m.f32"
        fileio.save_matrix(mel, data, kind="mel")
        good = tmp_path / "good.f32"
        fileio.save_matrix(good, np.ones((20, FAST["mel_bins"])), kind="mel")
        for gt, pred in ((mel, good), (good, mel)):
            assert cli.main(["evaluate", "--gt", str(gt), "--pred", str(pred),
                             "--out", str(tmp_path / "r.json"),
                             "--config", str(workdir / "cfg.json")]) == 2
            err = capsys.readouterr().err
            assert f"{mel}: mel feature file {named}" in err
            assert "Traceback" not in err
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_evaluate_wav_at_another_sample_rate(self, workdir, tmp_path, capsys, rate):
        wav = tmp_path / f"tone{rate}.wav"
        dsp.save_wav(wav, dsp.synth_tone(220.0, 0.5, rate // 2, rate))
        assert cli.main(["evaluate", "--gt", str(wav), "--pred", str(wav),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert f"{wav}: sample rate {rate} != config's 24000" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key,value,want", [("sample_rate", 16000, 24000), ("hop", 100, 256)])
    def test_evaluate_mel_file_at_another_rate_or_hop(self, workdir, tmp_path, capsys, key,
                                                      value, want):
        mel = tmp_path / "m.f32"
        fileio.save_matrix(mel, np.ones((20, FAST["mel_bins"])), kind="mel", **{key: value})
        assert cli.main(["evaluate", "--gt", str(mel), "--pred", str(mel),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert f"{mel}: mel feature file's {key} {value} != config's {want}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_sample_with_a_nan_tau(self, workdir, tmp_path, capsys):
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--latent", str(workdir / "latent" / "latent.ckpt"),
                         "--out", str(tmp_path / "samp"), "--steps", "2", "--tau", "nan"]) == 2
        assert "tau must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "samp" / "report.json").exists()

    @pytest.mark.parametrize("songs", ["0", "-1"])
    def test_gen_corpus_with_no_songs(self, tmp_path, capsys, songs):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen-corpus", "--out", str(corpus), "--songs", songs,
                         "--seed", "0"]) == 2
        assert f"songs must be >= 1, got {songs}" in capsys.readouterr().err
        assert not corpus.exists()

    @pytest.mark.parametrize("value", [[1], True, "1", -1],
                             ids=["list", "bool", "str", "negative"])
    def test_phoneme_table_with_a_non_id_value(self, workdir, tmp_path, value):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen-corpus", "--out", str(corpus), "--songs", "1", "--seed", "0",
                         "--config", str(workdir / "cfg.json")]) == 0
        table = json.loads((corpus / "phonemes.json").read_text())
        table[next(iter(table))] = value
        (corpus / "phonemes.json").write_text(json.dumps(table))
        assert cli.main(["train-codec", "--corpus", str(corpus), "--out", str(tmp_path / "c"),
                         "--steps", "1", "--config", str(workdir / "cfg.json")]) == 2


class TestDecodedMelOverflowExits3:
    def test_sample_writes_nothing(self, workdir, tmp_path, capsys):
        out = tmp_path / "samp"
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(_overflowing_codec(workdir, tmp_path)),
                         "--latent", str(workdir / "latent" / "latent.ckpt"),
                         "--out", str(out), "--steps", "2"]) == 3
        assert "decoded mel overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_codec_decode_writes_nothing(self, workdir, tmp_path, capsys):
        bits = tmp_path / "s.hsc"
        assert cli.main(["codec", "encode", "--checkpoint", str(workdir / "codec" / "codec.ckpt"),
                         "--wav", str(workdir / "corpus" / "song000.wav"),
                         "--out", str(bits)]) == 0
        mel = tmp_path / "s.mel.f32"
        assert cli.main(["codec", "decode",
                         "--checkpoint", str(_overflowing_codec(workdir, tmp_path)),
                         "--bitstream", str(bits), "--out", str(mel)]) == 3
        assert "decoded mel overflows" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow", "s.hsc"]


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

    def test_sample_report_is_strict_json_for_an_infinite_tau(self, workdir, tmp_path):
        out = tmp_path / "samp"
        assert cli.main(["sample", "--score", str(workdir / "corpus" / "song000.score.json"),
                         "--codec", str(workdir / "codec" / "codec.ckpt"),
                         "--latent", str(workdir / "latent" / "latent.ckpt"),
                         "--out", str(out), "--steps", "2", "--tau", "inf"]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not a JSON value")
        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert report["tau"] is None and report["init_noise_variance"] == 0.0

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

    def test_evaluate_reads_an_upper_case_wav_suffix_as_a_wav(self, workdir, tmp_path):
        wav = tmp_path / "SONG000.WAV"
        shutil.copy(workdir / "corpus" / "song000.wav", wav)
        out = tmp_path / "report.json"
        assert cli.main(["evaluate", "--gt", str(wav), "--pred", str(wav),
                         "--out", str(out), "--config", str(workdir / "cfg.json")]) == 0
        lower = tmp_path / "lower.json"
        assert cli.main(["evaluate", "--gt", str(workdir / "corpus" / "song000.wav"),
                         "--pred", str(workdir / "corpus" / "song000.wav"),
                         "--out", str(lower), "--config", str(workdir / "cfg.json")]) == 0
        assert out.read_bytes() == lower.read_bytes()

    def test_evaluate_length_mismatch_is_2(self, workdir, tmp_path):
        code = cli.main(["evaluate",
                         "--gt", str(workdir / "corpus" / "song000.wav"),
                         "--pred", str(workdir / "corpus" / "song001.wav"),
                         "--out", str(tmp_path / "r.json"),
                         "--config", str(workdir / "cfg.json")])
        assert code == 2


def _run_suites(monkeypatch, names):
    """run_selfcheck over the named suites only."""
    suites = tuple(s for s in cli.SELFCHECK_SUITES if s[0] in names)
    assert len(suites) == len(names)
    monkeypatch.setattr(cli, "SELFCHECK_SUITES", suites)
    return cli.run_selfcheck(verbose=False)


class TestSelfcheckSuites:
    def test_gaussian_suite_passes_clean(self, monkeypatch):
        results = _run_suites(monkeypatch, ("gaussian-reverse-sampler",))
        assert results[0][1], results[0][2]

    def test_drift_sign_flip_fails_gaussian_suite(self, monkeypatch):
        real = diffusion.reverse_sample

        def flipped(score_fn, *args, **kwargs):
            # drift = 1/2 (z - mu) + s; this score negates it exactly
            return real(lambda z, m, h, t: -score_fn(z, m, h, t) - (z - m), *args, **kwargs)

        monkeypatch.setattr(diffusion, "reverse_sample", flipped)
        results = _run_suites(monkeypatch, ("gaussian-reverse-sampler",))
        assert not results[0][1]

    def test_gradient_suite_passes_clean(self, monkeypatch):
        results = _run_suites(monkeypatch, ("gradient-checks",))
        assert results[0][1], results[0][2]

    def test_wrong_contrastive_backward_fails_gradient_suite(self, monkeypatch):
        real = losses.contrastive_loss

        def skewed(*args, **kwargs):
            out = real(*args, **kwargs)
            grad_fn = out._grad_fn
            out._grad_fn = lambda g: tuple(None if x is None else 1.01 * x for x in grad_fn(g))
            return out

        monkeypatch.setattr(losses, "contrastive_loss", skewed)
        results = _run_suites(monkeypatch, ("gradient-checks",))
        assert not results[0][1]

    def test_wrong_gated_block_backward_fails_gradient_suite(self, monkeypatch):
        real = nn.GatedConvBlock.__call__

        def skewed(self, *args, **kwargs):
            out = real(self, *args, **kwargs)
            grad_fn = out._grad_fn
            out._grad_fn = lambda g: tuple(None if x is None else 1.01 * x for x in grad_fn(g))
            return out

        monkeypatch.setattr(nn.GatedConvBlock, "__call__", skewed)
        results = _run_suites(monkeypatch, ("gradient-checks",))
        assert not results[0][1]

    def test_fast_suites_pass(self, monkeypatch):
        results = _run_suites(monkeypatch, ("ctc-brute-force", "rvq-monotonicity"))
        assert all(ok for _, ok, _ in results)
