"""Write a fixed set of program outputs, for a byte-for-byte diff between two trees.

Usage, from the root of each tree:

    python tests/reference_outputs.py OUT_DIR

then `diff -r` the two OUT_DIRs. The script imports minisvs from the `src`
beside it and runs with one BLAS thread. Every path it passes to the program
is relative to OUT_DIR, because a latent checkpoint records the codec path it
was trained on. pytest does not collect this file.

The set: the 3-song seed-0 corpus; the checkpoints, manifests and loss logs
of 20-step codec runs (plain, adversarial, and adversarial resumed from 10)
and of 20-step latent runs (supervised, unlabeled ratio 0.34, the standard
prior with the zq target and no enhanced condition, and the 0.34 run
resumed from 10); seed-1 samples of every song from each of the three
latent checkpoints that were not resumed, with the evaluation of each
against its WAV; and song 0 encoded to a bitstream and decoded at 1, 2 and
4 quantizers.

Every writer of the program runs here, so the script also checks that no
temporary file survives: it exits non-zero if any `*.tmp` file is left
under OUT_DIR.
"""
import glob
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from minisvs import corpus, train  # noqa: E402
from minisvs.config import RunConfig  # noqa: E402

SONGS = 3
STEPS = 20


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    cfg = RunConfig()
    corpus.gen_corpus("corpus", SONGS, 0, cfg)

    codec, _ = train.train_codec(cfg, "corpus", "codec", steps=STEPS, seed=0)
    train.train_codec(cfg, "corpus", "codec_adv", steps=STEPS, seed=0, adversarial=True)
    half, _ = train.train_codec(cfg, "corpus", "codec_adv_resumed", steps=STEPS // 2, seed=0,
                                adversarial=True)
    train.train_codec(cfg, "corpus", "codec_adv_resumed", steps=STEPS, resume=half)

    latents = {
        "latent": {},
        "latent_u": {"unlabeled_ratio": 0.34},
        "latent_std_zq": {"prior_mode": "standard", "target_kind": "zq", "enhanced": False},
    }
    for name, modes in latents.items():
        train.train_latent(cfg, "corpus", codec, name, steps=STEPS, seed=0, **modes)
    half, _ = train.train_latent(cfg, "corpus", codec, "latent_u_resumed", steps=STEPS // 2,
                                 seed=0, unlabeled_ratio=0.34)
    train.train_latent(cfg, "corpus", codec, "latent_u_resumed", steps=STEPS, resume=half)

    for name in latents:
        for i in range(SONGS):
            out = os.path.join("samples", f"{name}-song{i}")
            _, mel, _ = train.sample_score(os.path.join("corpus", f"song{i:03d}.score.json"),
                                           codec, os.path.join(name, "latent.ckpt"), out, seed=1)
            train.evaluate_files(os.path.join("corpus", f"song{i:03d}.wav"), mel,
                                 os.path.join(out, "eval.json"), cfg)

    os.makedirs("codec_files", exist_ok=True)
    bits = os.path.join("codec_files", "song000.hsc")
    train.encode_wav(codec, os.path.join("corpus", "song000.wav"), bits)
    for n in (1, 2, 4):
        train.decode_bitstream(codec, bits, os.path.join("codec_files", f"song000.q{n}.mel"), n)

    left = sorted(glob.glob("**/*.tmp", recursive=True))
    if left:
        sys.exit(f"temporary files left under {out_dir}: {left}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/reference_outputs.py OUT_DIR")
    main(sys.argv[1])
