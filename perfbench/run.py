"""Benchmark for minisvs: codec training, HiddenSinger-U latent training, sampling.

    python3 perfbench/run.py --workload codec_adv|latent_u|sample \
        --seed N --seconds S --trace 0|1

Run from the repository root. Each call sets up its inputs SETUPS times in
child processes (set-up time is their median), then repeats whole rounds of
its operations for about --seconds, checks the outputs, and prints one JSON
object as its last line: the end-to-end metrics with --trace 0, the
per-layer self times with --trace 1. End-to-end times are scaled to a
reference machine speed (speed.py); the unscaled ones go to stderr. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_out")

SETUPS = 5
WARMUP_STEPS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "step_ms": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "final_loss": "loss",
    "sample_mel_mae": "mae",
}
# (metric, span, unit): "step" is a training step, or a reverse-sampler step
# on `sample`; "op" is one operation of a round (one command call)
PER_LAYER = [
    ("autodiff.backward_ms", "autodiff.backward", "ms/step"),
    ("nn.adamw_ms", "nn.adamw", "ms/step"),
    ("nn.encoder_ms", "nn.encoder", "ms/step"),
    ("nn.decoder_ms", "nn.decoder", "ms/step"),
    ("nn.disc_ms", "nn.disc", "ms/step"),
    ("nn.scorenet_ms", "nn.scorenet", "ms/call"),
    ("losses.ctc_ms", "losses.ctc", "ms/step"),
    ("losses.ctc_calls", "losses.ctc", "count/step"),
    ("losses.contrastive_ms", "losses.contrastive", "ms/step"),
    ("losses.contrastive_calls", "losses.contrastive", "count/step"),
    ("rvq.encode_ms", "rvq.encode", "ms/step"),
    ("rvq.ema_ms", "rvq.ema", "ms/step"),
    ("rvq.init_ms", "rvq.init", "ms/op"),
    ("condition.cond_ms", "condition.cond", "ms/step"),
    ("diffusion.loss_ms", "diffusion.loss", "ms/step"),
    ("diffusion.sampler_ms", "diffusion.sampler", "ms/call"),
    ("corpus.load_ms", "corpus.load", "ms/op"),
    ("dsp.eval_ms", "dsp.eval", "ms/call"),
    ("fileio.ckpt_save_ms", "fileio.ckpt_save", "ms/op"),
    ("fileio.ckpt_load_ms", "fileio.ckpt_load", "ms/call"),
    ("fileio.ckpt_loads", "fileio.ckpt_load", "count/op"),
    ("train.other_ms", "bench.op", "ms/step"),
]
TRACE_EXTRAS = {
    "nn.scorenet_taped": "count/call",
    "trace.wall_s": "s",
    "trace.overhead_ms": "ms/op",
    "speed.kernel_ms": "ms",
}


def span_targets(full: bool):
    """(span name, owner, attribute) to wrap; the first three clock the steps."""
    from minisvs import autodiff, condition, corpus, diffusion, losses, nn, rvq, train

    clock = [
        ("nn.adamw", nn.AdamW, "step"),
        ("nn.scorenet", nn.ScoreNet, "__call__"),
        ("diffusion.sampler", diffusion, "reverse_sample"),
    ]
    if not full:
        return clock
    cond_methods = ("condition", "condition_unsupervised", "lyrics_repr", "melody_repr",
                    "lyrics_u_repr", "melody_u_repr")
    return clock + [
        ("autodiff.backward", autodiff.Tensor, "backward"),
        ("nn.encoder", nn.MelEncoder, "__call__"),
        ("nn.decoder", nn.MelDecoder, "__call__"),
        ("nn.disc", nn.MelPatchDiscriminator, "__call__"),
        ("losses.ctc", losses, "ctc_loss_graph"),
        ("losses.contrastive", losses, "contrastive_loss"),
        ("rvq.encode", rvq, "encode_detailed"),
        ("rvq.ema", rvq, "ema_update"),
        ("rvq.init", rvq, "init_codebooks"),
        *[("condition.cond", condition.ConditionNet, m) for m in cond_methods],
        ("diffusion.loss", diffusion, "diffusion_loss"),
        ("corpus.load", corpus, "load_corpus"),
        ("dsp.eval", train, "evaluate_files"),
        ("fileio.ckpt_save", train, "save_checkpoint"),
        ("fileio.ckpt_load", train, "load_checkpoint"),
    ]


def step_times(recorded, workload) -> list[tuple[float, float]]:
    """(start, end) of each inner step, warm-up dropped.

    Training: a step ends when its last AdamW.step returns. Sampling: a
    step runs from one score-network call to the next inside
    reverse_sample, the last one up to the sampler's return.
    """
    from spans import END, NAME, PARENT, START

    groups = {}
    for span in recorded:
        if span[NAME] == workload.step_span and span[PARENT] >= 0:
            groups.setdefault(span[PARENT], []).append(span)
    out = []
    for n, (parent, members) in enumerate(sorted(groups.items())):
        if workload.step_span == "nn.adamw":
            per_step = len(members) // workload.steps_per_op
            marks = [s[END] for s in members[per_step - 1 :: per_step]]
            gaps = list(zip(marks, marks[1:]))[WARMUP_STEPS:]
        else:
            marks = [s[START] for s in members] + [recorded[parent][END]]
            gaps = list(zip(marks, marks[1:])) if n else []
        out.extend(gaps)
    return out


def layer_metrics(rec, ops: int, steps: int, op_wall_s: float, span_cost_s: float) -> dict:
    """Per-layer self times and counts, by the units of PER_LAYER and TRACE_EXTRAS."""
    from spans import NAME, PARENT, TAPED

    self_s, count = {}, {}
    for span, own in zip(rec.spans, rec.self_times()):
        self_s[span[NAME]] = self_s.get(span[NAME], 0.0) + own
        count[span[NAME]] = count.get(span[NAME], 0) + 1
    out = {}
    for metric, name, unit in PER_LAYER:
        total, n = self_s.get(name, 0.0), count.get(name, 0)
        out[metric] = {
            "ms/step": 1e3 * total / steps,
            "count/step": n / steps,
            "ms/call": 1e3 * total / n if n else 0.0,
            "ms/op": 1e3 * total / ops,
            "count/op": n / ops,
        }[unit]
    samplers = {i for i, s in enumerate(rec.spans) if s[NAME] == "diffusion.sampler"}
    taped = sum(1 for s in rec.spans if s[NAME] == "nn.scorenet" and s[TAPED] and s[PARENT] in samplers)
    out["nn.scorenet_taped"] = taped / len(samplers) if samplers else 0.0
    out["trace.wall_s"] = op_wall_s
    out["trace.overhead_ms"] = 1e3 * span_cost_s * len(rec.spans) / ops
    return out


def run_setups(args, work):
    """SETUPS fresh set-ups, one process each; returns (times, digests, last dir)."""
    import checks

    times, digests = [], []
    for i in range(SETUPS):
        d = os.path.join(work, f"setup{i}")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--prepare", d,
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up {i} exited with code {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["setup_s"])
        digests.append(checks.digests([os.path.join(d, f) for f in report["files"]], d))
    return times, digests, d


def prepare(args) -> int:
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    made = WORKLOADS[args.workload].prepare(args.prepare)
    elapsed = time.perf_counter() - t0
    files = [os.path.relpath(f, args.prepare) for f in made]
    print(json.dumps({"setup_s": elapsed, "files": files}))
    return 0


def measure(args, work) -> dict:
    import resource

    import checks
    import spans
    from speed import Speed
    from workloads import WORKLOADS

    clock = time.perf_counter
    speed = Speed()
    # the set-ups run in child processes: scale them by full bursts on both sides
    t_setup = clock()
    speed.burst()
    setup_times, setup_digests, setup_dir = run_setups(args, work)
    speed.burst()
    t_setup = (t_setup, clock())
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    workload = WORKLOADS[args.workload](args.seed, setup_dir, out_dir)
    rec = spans.Recorder(after=speed.maybe_probe)
    # a probe is its own span, so no traced layer counts it in its self time
    speed.probe = rec.wrap("speed.probe", speed.probe)
    results, rounds, attempted, failed = {}, [], 0, 0
    with rec.installed(span_targets(bool(args.trace))):
        ops = [(label, rec.wrap("bench.op", fn)) for label, fn in workload.round_ops()]
        t0 = clock()
        while True:
            done = {}
            for label, op in ops:
                attempted += 1
                try:
                    paths, extra = op()
                except Exception:  # counted, reported, and the run goes on
                    failed += 1
                    traceback.print_exc()
                    continue
                results[label] = (paths, extra)
                done.update(checks.digests(paths, out_dir))
            rounds.append(done)
            if len(rounds) == 1:
                # a second codec_adv round raised the peak from 65 to 72-74 MB,
                # and how many rounds fit depends on the machine's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = clock() - t0
            speed.burst()
            if len(rounds) >= workload.min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break

    problems = [checks.all_identical(setup_digests, "set-up"),
                checks.all_identical(rounds, "round")]
    if len(results) == len(ops):
        found, final_loss, mel_mae = workload.check(results)
        problems += found
    else:
        problems.append("no round completed every operation")
        final_loss = mel_mae = float("nan")
    problems = [p for p in problems if p]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    ops_at = [(s[spans.START], s[spans.END]) for s in rec.spans if s[spans.NAME] == "bench.op"]
    wall_s = statistics.median(speed.scaled(a, b) for a, b in ops_at)
    ok_ops = attempted - failed
    units = {**{m: u for m, _, u in PER_LAYER}, **TRACE_EXTRAS} if args.trace else END_TO_END
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        rec.dump(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json"))
        metrics = layer_metrics(rec, ok_ops, ok_ops * workload.steps_per_op,
                                wall_s, spans.span_cost_s())
        metrics["speed.kernel_ms"] = speed.kernel_ms()
    else:
        intervals = step_times(rec.spans, workload)
        steps = [1e3 * speed.scaled(a, b) for a, b in intervals]
        raw_steps = [1e3 * (b - a) for a, b in intervals]
        print(f"unscaled: setup_s {statistics.median(setup_times):.4f}, "
              f"wall_s {statistics.median(b - a for a, b in ops_at):.4f}, "
              f"step_ms {statistics.median(raw_steps):.4f}; kernel {speed.kernel_ms():.4f} ms",
              file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(setup_times) * speed.scale(*t_setup),
            "wall_s": wall_s,
            "step_ms": statistics.median(steps),
            "step_ms_p90": statistics.quantiles(steps, n=10)[-1],
            "peak_rss_mb": peak_rss_mb,
            "final_loss": final_loss,
            "sample_mel_mae": mel_mae,
        }
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed",
          file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minisvs", "__init__.py")):
        print(f"error: no minisvs sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # set before numpy is first imported. One BLAS thread: steadier timings,
    # and within the 2 cores of the reference machine. No huge pages: numpy
    # asks for them on large arrays, and whether the host grants them is
    # outside the run; peak RSS on `sample` read 110 MB in one set of runs
    # and 115-116 MB in the others
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.prepare:
        return prepare(args)
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
