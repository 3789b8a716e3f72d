#!/usr/bin/env python3
"""End-to-end benchmark of covdec training and decoding.

    python3 bench/run.py --workload train-readme --seed 7 --seconds 18 --trace 0

Run from the root of a covdec checkout; the program is imported from
`src/`. Each run is one fresh process with BLAS pinned to one thread. It
builds its inputs from `--seed` (data seed N, run seed N + 4, so the default
7 gives the README's data seed 7 and run seed 11), sets them up at least
three times and for at least 3 s (`setup_s` is the median), warms up, and
then measures:

* the training workloads time one `covdec train` run;
* every workload then decodes with the trained model for `--seconds`
  seconds: `covdec predict` per trial, single-trial library decodes with the
  weights in memory, and `covdec eval` over a whole trial set.

A speed probe (`speed.py`) samples the machine's speed ten times a second
throughout, and every reported time is rescaled to a fixed machine speed;
the times as measured go to `.bench_out/<workload>-unscaled.json`.

Every output is checked against the numpy reference decoder in
`reference.py` and against properties the method must have. The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With `--trace 1` the run does a fixed amount of work twice, untraced and
then traced (`tracing.py`), and reports per-layer metrics and the tracing
overhead instead of the end-to-end metrics. Scratch files go to
`.bench_work/` and are removed at exit; results and spans go to
`.bench_out/`. See README.md for the workloads and the metric mapping.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, so the numbers do not
# depend on how busy the other cores are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import re
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3        # at least this many set-ups, and
SETUP_MIN_SECONDS = 3.0  # at least this long in total
PREDICT_SHARE, DECODE_SHARE = 0.4, 0.35  # of --seconds; eval gets the rest
DECODE_PASSES_TRACED = 4  # library decodes per pool trial in a traced round


@dataclass(frozen=True)
class Workload:
    name: str
    channels: int
    samples: int
    classes: int
    trials_per_class: int
    # "E1,E2,E3" with patience off, or None for the default config
    epochs: str | None
    # False: the model is trained during setup and only decoding is timed
    timed_training: bool
    # trials per class in the `covdec eval` set: held out, drawn from the
    # same class mixers, or (when heldout is False) the first ones of the
    # training set
    eval_per_class: int
    heldout: bool
    pool_per_class: int  # trials per class that predict and decode cycle over
    class_names: tuple[str, ...] | None = None
    task: str = "synth"


WORKLOADS = {
    w.name: w
    for w in (
        # README walkthrough data and the default config: 3000 Adam steps,
        # stage 1 dominates.
        Workload("train-readme", channels=8, samples=128, classes=3, trials_per_class=40,
                 epochs=None, timed_training=True, eval_per_class=100, heldout=True,
                 pool_per_class=8),
        # recording-shaped trials: 64-step LSTM unroll, 64-wide convolutions,
        # 65 MB of trial files to load and reduce to covariances.
        Workload("train-64ch", channels=64, samples=1280, classes=2, trials_per_class=100,
                 epochs="2,10,10", timed_training=True, eval_per_class=20, heldout=False,
                 pool_per_class=6, class_names=("cooperate", "independent"),
                 task="long_words"),
        # forward-only: a README-shaped model trained during setup.
        Workload("decode-readme", channels=8, samples=128, classes=3, trials_per_class=40,
                 epochs="5,20,10", timed_training=False, eval_per_class=100, heldout=True,
                 pool_per_class=8),
    )
}


if not (ROOT / "src" / "covdec" / "__init__.py").is_file():
    print(f"bench: no covdec sources under {ROOT / 'src'}; run from a covdec checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

# The benchmark calls covdec through module attributes (covdec.cli.main, ...)
# so that the tracer's wrappers are seen.
import covdec.autodiff  # noqa: E402
import covdec.autoenc  # noqa: E402
import covdec.branches  # noqa: E402
import covdec.cli  # noqa: E402
import covdec.covariance  # noqa: E402
import covdec.data  # noqa: E402
import covdec.report  # noqa: E402
import numpy as np  # noqa: E402

from reference import (  # noqa: E402
    ReferenceDecoder, read_eegt, read_eegt_label, read_key_values, read_manifest,
)
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402


class Checks:
    """Collects failed correctness checks; the run reports correct=false if any."""

    def __init__(self):
        self.problems: list[str] = []

    def require(self, ok: bool, msg: str) -> None:
        if not ok:
            self.problems.append(msg)
            print(f"bench: check failed: {msg}", file=sys.stderr)


class OpFailed(Exception):
    """A covdec command exited with a non-zero code."""


def cli(argv: list[str]) -> str:
    """Run `covdec <argv>` in-process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = covdec.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"covdec {' '.join(argv[:1])} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def write_manifest(path: Path, classes, trials, task: str) -> None:
    lines = [f"task = {task}", f"classes = {','.join(classes)}", "subject = synth"]
    lines += [f"trial = {os.path.relpath(t, path.parent)}" for t in trials]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def trials_by_class(manifest: Path) -> dict[int, list[Path]]:
    """Trial paths of a manifest grouped by the label in each file header."""
    _, paths = read_manifest(manifest)
    groups: dict[int, list[Path]] = {}
    for p in paths:
        groups.setdefault(read_eegt_label(p), []).append(p)
    return groups


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class Training:
    run_dir: Path
    start: float        # time.perf_counter() at the start
    seconds: float
    steps: int          # Adam steps, from curves.csv and the partition size
    trial_passes: int   # trials pushed through training steps
    bytes: int


def train(wl: Workload, data: Path, out: Path, run_seed: int, epochs: str | None,
          checks: Checks) -> Training:
    argv = ["train", "--data", str(data / "manifest.txt"), "--out", str(out),
            "--seed", str(run_seed)]
    if epochs is not None:
        argv += ["--epochs", epochs]
    if wl.epochs is not None:
        argv += ["--config", str(data / "bench-config.txt")]
    t0 = time.perf_counter()
    cli(argv)
    seconds = time.perf_counter() - t0

    config = read_key_values(out / "config.txt")
    per_class = int(np.floor(wl.trials_per_class * float(config["split_fraction"]) + 0.5))
    n_train = per_class * wl.classes
    batches = -(-n_train // int(config["batch_size"]))
    rows = (out / "curves.csv").read_text(encoding="utf-8").splitlines()[1:]
    curves: dict[str, list[float]] = {}
    for row in rows:
        _, stage, train_loss = row.split(",")[:3]
        curves.setdefault(stage, []).append(float(train_loss))
    epochs_run = sum(len(v) - 1 for v in curves.values())
    for stage, losses in curves.items():
        checks.require(len(losses) > 1 and losses[-1] < losses[0],
                       f"{out.name}: stage {stage} loss {losses[0]:.4g} -> {losses[-1]:.4g}")
    val_acc = json.loads((out / "report.json").read_text(encoding="utf-8"))["val_accuracy"]
    checks.require(val_acc >= well_above_chance(wl.classes),
                   f"{out.name}: validation accuracy {val_acc}")
    return Training(out, t0, seconds, epochs_run * batches, epochs_run * n_train,
                    dir_bytes(out))


def well_above_chance(classes: int) -> float:
    """Half way from chance to perfect accuracy."""
    return 0.5 * (1.0 + 1.0 / classes)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    data: Path
    eval_manifest: Path
    pool: list[Path]             # trial files that predict and decode cycle over
    model: Training | None       # trained during setup (decode-only workloads)


def setup(wl: Workload, work: Path, seed: int, epochs: str | None, checks: Checks) -> Inputs:
    data = work / "data"
    gen = ["gen-synth", "--channels", str(wl.channels), "--samples", str(wl.samples),
           "--classes", str(wl.classes), "--seed", str(seed)]
    cli(gen + ["--out", str(data), "--trials-per-class", str(wl.trials_per_class)])
    manifest = data / "manifest.txt"
    if wl.class_names is not None:
        _, paths = read_manifest(manifest)
        write_manifest(manifest, wl.class_names, paths, wl.task)
    if wl.epochs is not None:
        (data / "bench-config.txt").write_text("patience = off\n", encoding="utf-8")

    if wl.heldout:
        # Same seed, more trials per class: gen_synth draws the class mixers
        # first, so these trials come from the training classes. The first
        # trials_per_class of each class are dropped (for class 0 they are
        # exactly the training trials).
        source = work / "held"
        per_class = wl.trials_per_class + wl.eval_per_class
        cli(gen + ["--out", str(source), "--trials-per-class", str(per_class)])
        skip = wl.trials_per_class
    else:
        source, skip = data, 0
    groups = trials_by_class(source / "manifest.txt")
    eval_groups = [groups[k][skip : skip + wl.eval_per_class] for k in sorted(groups)]
    classes, _ = read_manifest(manifest)
    eval_manifest = work / "eval.txt"
    write_manifest(eval_manifest, classes, [p for g in eval_groups for p in g], wl.task)
    pool = [p for g in eval_groups for p in g[: wl.pool_per_class]]
    model = None
    if not wl.timed_training:
        model = train(wl, data, work / "model", seed + 4, epochs or wl.epochs, checks)
    return Inputs(data, eval_manifest, pool, model)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


_PROB = re.compile(r"^\s*p\((.*)\) = ([0-9.eE+-]+)$")


def predict(trial: Path, run_dir: Path) -> tuple[str, dict[str, float]]:
    out = cli(["predict", "--trial", str(trial), "--weights", str(run_dir)])
    lines = out.splitlines()
    label = lines[0].split("=", 1)[1].strip()
    probs = {m.group(1): float(m.group(2)) for m in map(_PROB.match, lines[1:]) if m}
    return label, probs


def evaluate(manifest: Path, run_dir: Path) -> tuple[int, float, np.ndarray]:
    out = cli(["eval", "--data", str(manifest), "--weights", str(run_dir)])
    lines = out.splitlines()
    count = int(lines[0].split("=", 1)[1])
    accuracy = float(lines[1].split("=", 1)[1])
    rows = [[int(v) for v in line.split()[1:]] for line in lines[3:] if line.strip()]
    return count, accuracy, np.array(rows)


class Decoder:
    """Single-trial decoding with the weights and trials held in memory,
    through the same library calls `covdec predict` makes."""

    def __init__(self, run_dir: Path, pool: list[Path]):
        self.art = covdec.report.load_artifacts(run_dir)
        self.trials = [covdec.data.load_trial(p)[0] for p in pool]

    def __call__(self, i: int) -> np.ndarray:
        art, cov_mod, ae = self.art, covdec.covariance, covdec.autoenc
        cfg = art.config
        cov = cov_mod.ccv(self.trials[i], cfg.tau)
        cov = cov_mod.CovMatrix((cov.values - art.norm.mean) / art.norm.std, cov.lag)
        features = covdec.branches.extract_features(cov, art.cnn, art.rnn,
                                                    cfg.rnn_order, cfg.rnn_axis)
        latent = ae.dae_encode(features, art.dae)
        return covdec.autodiff.softmax(ae.head_forward(latent, art.head))


@dataclass
class Samples:
    predict_s: list[float] = field(default_factory=list)
    decode_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    # time.perf_counter() at the start of each sample above
    predict_t: list[float] = field(default_factory=list)
    decode_t: list[float] = field(default_factory=list)
    eval_t: list[float] = field(default_factory=list)
    eval_trials: int = 0
    predicted: dict[int, str] = field(default_factory=dict)  # pool index -> class
    attempted: int = 0
    failed: int = 0


@dataclass
class Operation:
    share: float           # of the time budget
    fixed: int             # operations in a fixed (traced) round
    run: Callable[[int], object]
    check: Callable[[int, object], None]
    times: list[float]
    starts: list[float]
    busy: float = 0.0
    count: int = 0


def decode_round(inputs: Inputs, run_dir: Path, budget: float | None, checks: Checks) -> Samples:
    """Predict, decode and eval for `budget` seconds, split by the shares
    above, or a fixed number of each when budget is None. Checks every output."""
    ref = ReferenceDecoder(run_dir)
    pool_probs = ref.probabilities(read_eegt(p)[0] for p in inputs.pool)
    _, eval_paths = read_manifest(inputs.eval_manifest)
    eval_labels: list[int] = []

    def eval_trials():
        for p in eval_paths:
            x, label = read_eegt(p)
            eval_labels.append(label)
            yield x

    ref_pred = np.argmax(ref.probabilities(eval_trials()), axis=1)
    k = len(ref.classes)
    ref_confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(ref_confusion, (np.array(eval_labels), ref_pred), 1)
    decoder = Decoder(run_dir, inputs.pool)
    s = Samples()
    n = len(inputs.pool)

    def check_predict(i, result):
        label, probs = result
        j = i % n
        p = np.array([probs.get(name, np.nan) for name in ref.classes])
        checks.require(np.all(np.abs(p - pool_probs[j]) <= 1e-6),
                       f"predict {inputs.pool[j].name}: {p} vs reference {pool_probs[j]}")
        checks.require(label == ref.classes[int(np.argmax(pool_probs[j]))],
                       f"predict {inputs.pool[j].name}: class {label}")
        checks.require(s.predicted.setdefault(j, label) == label,
                       f"predict {inputs.pool[j].name}: not repeatable")

    def check_decode(i, probs):
        j = i % n
        checks.require(np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12,
                       f"decode {inputs.pool[j].name}: not a distribution {probs}")
        checks.require(np.all(np.abs(probs - pool_probs[j]) <= 1e-9),
                       f"decode {inputs.pool[j].name}: {probs} vs reference {pool_probs[j]}")

    def check_eval(i, result):
        count, accuracy, confusion = result
        s.eval_trials += count
        checks.require(count == len(eval_paths), f"eval counted {count} trials")
        checks.require(np.array_equal(confusion, ref_confusion),
                       f"eval confusion {confusion.tolist()} vs reference {ref_confusion.tolist()}")
        checks.require(accuracy >= well_above_chance(k), f"eval accuracy {accuracy}")

    ops = [
        Operation(PREDICT_SHARE, n, lambda i: predict(inputs.pool[i % n], run_dir),
                  check_predict, s.predict_s, s.predict_t),
        Operation(DECODE_SHARE, n * DECODE_PASSES_TRACED, lambda i: decoder(i % n),
                  check_decode, s.decode_s, s.decode_t),
        Operation(1.0 - PREDICT_SHARE - DECODE_SHARE, 1,
                  lambda i: evaluate(inputs.eval_manifest, run_dir), check_eval, s.eval_s,
                  s.eval_t),
    ]

    def step(op: Operation) -> None:
        s.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run(op.count)
        except Exception as exc:  # a failed operation is counted, not fatal
            s.failed += 1
            op.busy += time.perf_counter() - t0
            print(f"bench: operation failed: {exc!r}", file=sys.stderr)
        else:
            elapsed = time.perf_counter() - t0
            op.busy += elapsed
            op.times.append(elapsed)
            op.starts.append(t0)
            op.check(op.count, result)
        op.count += 1

    if budget is None:
        for op in ops:
            while op.count < op.fixed:
                step(op)
    else:
        # Interleave the three kinds in proportion to their shares, so each
        # samples the whole window rather than one slice of it.
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < budget:
            step(min(ops, key=lambda op: op.busy / op.share))
    checks.require(bool(s.predict_s and s.decode_s and s.eval_s),
                   "no successful predict, decode or eval operation")
    return s


def check_agreement(inputs: Inputs, run_dir: Path, samples: Samples, checks: Checks) -> None:
    """`covdec eval` on each predicted trial alone names the class that
    `covdec predict` printed for it."""
    classes, _ = read_manifest(inputs.eval_manifest)
    agree = run_dir.parent / "agree"
    agree.mkdir(exist_ok=True)
    for j, label in samples.predicted.items():
        manifest = agree / f"t{j}.txt"
        write_manifest(manifest, classes, [inputs.pool[j]], "agree")
        _, _, confusion = evaluate(manifest, run_dir)
        checks.require(classes[int(confusion.sum(axis=0).argmax())] == label,
                       f"eval and predict disagree on {inputs.pool[j].name}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def warm_up(inputs: Inputs, work: Path, seed: int) -> None:
    """Run every timed code path once, on the pool trials, before timing."""
    manifest = work / "warm.txt"
    classes, _ = read_manifest(inputs.eval_manifest)
    write_manifest(manifest, classes, inputs.pool, "warm")
    if inputs.model is not None:
        run_dir = inputs.model.run_dir
    else:
        run_dir = work / "warm"
        cli(["train", "--data", str(manifest), "--out", str(run_dir),
             "--seed", str(seed + 4), "--epochs", "1,1,1"])
    predict(inputs.pool[0], run_dir)
    Decoder(run_dir, inputs.pool[:1])(0)
    evaluate(manifest, run_dir)


def freeze_heap() -> None:
    """Keep the cyclic collector from rescanning the objects that exist before
    a timed section; only what covdec allocates inside it is collected."""
    gc.collect()
    gc.freeze()


def timing_metrics(setup, train, predict, decode, evaluate, passes, eval_trials) -> dict:
    """The timed end-to-end metrics from the seconds of each interval."""
    return {
        "setup_s": (float(np.median(setup)), "s"),
        "train_s": (float(np.median(train)), "s"),
        "train_trials_per_s": (float(np.median(np.asarray(passes) / train)), "1/s"),
        "predict_mean_ms": (float(np.mean(predict)) * 1e3, "ms"),
        "predict_p90_ms": (float(np.percentile(predict, 90)) * 1e3, "ms"),
        "decode_mean_ms": (float(np.mean(decode)) * 1e3, "ms"),
        "decode_p90_ms": (float(np.percentile(decode, 90)) * 1e3, "ms"),
        "eval_trials_per_s": (eval_trials / float(np.sum(evaluate)), "1/s"),
    }


def measure(wl: Workload, args, work: Path, checks: Checks) -> dict:
    with SpeedProbe() as probe:
        setups = []  # (start, seconds, model trained in set-up)
        inputs = None
        while len(setups) < SETUP_REPEATS or sum(t for _, t, _ in setups) < SETUP_MIN_SECONDS:
            previous = inputs
            t0 = time.perf_counter()
            inputs = setup(wl, work / f"in{len(setups)}", args.seed, args.epochs, checks)
            setups.append((t0, time.perf_counter() - t0, inputs.model))
            if previous is not None:  # deleting is not set-up work: keep it untimed
                shutil.rmtree(previous.data.parent)
        warm_up(inputs, work, args.seed)

        attempted = 0
        if wl.timed_training:
            attempted += 1
            freeze_heap()
            trainings = [train(wl, inputs.data, work / "run", args.seed + 4,
                               args.epochs or wl.epochs, checks)]
        else:
            trainings = [model for _, _, model in setups]
        run_dir = trainings[-1].run_dir
        freeze_heap()
        samples = decode_round(inputs, run_dir, args.seconds, checks)
    check_agreement(inputs, run_dir, samples, checks)
    print(f"bench: {wl.name}: {len(samples.predict_s)} predicts, {len(samples.decode_s)} "
          f"decodes, {len(samples.eval_s)} evals, {probe.samples} speed probes "
          f"(median {probe.median_s * 1e3:.3f} ms)", file=sys.stderr)
    if not (samples.predict_s and samples.decode_s and samples.eval_s):
        return {"attempted": attempted + samples.attempted, "failed": samples.failed,
                "metrics": {}}

    intervals = {
        "setup": ([t for t, _, _ in setups], [s for _, s, _ in setups]),
        "train": ([t.start for t in trainings], [t.seconds for t in trainings]),
        "predict": (samples.predict_t, samples.predict_s),
        "decode": (samples.decode_t, samples.decode_s),
        "evaluate": (samples.eval_t, samples.eval_s),
    }
    passes = [t.trial_passes for t in trainings]
    # The times as measured, before scaling, go to files beside the result:
    # the metrics they give, and every interval and probe.
    unscaled = timing_metrics(passes=passes, eval_trials=samples.eval_trials,
                              **{k: np.asarray(v[1]) for k, v in intervals.items()})
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{wl.name}-unscaled.json").write_text(json.dumps(
        {"probe_median_s": probe.median_s, "probe_samples": probe.samples,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()}}) + "\n",
        encoding="utf-8")
    probe_t, probe_s = probe.probes
    np.savez(out / f"{wl.name}-samples.npz", probe_t=probe_t, probe_s=probe_s,
             **{f"{k}_{x}": np.asarray(v[i]) for k, v in intervals.items()
                for i, x in enumerate("ts")})
    metrics = timing_metrics(passes=passes, eval_trials=samples.eval_trials,
                             **{k: probe.scaled(*v) for k, v in intervals.items()})
    metrics["run_dir_mb"] = (trainings[-1].bytes / 1e6, "MB")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                              "MB")
    return {"attempted": attempted + samples.attempted, "failed": samples.failed,
            "metrics": metrics}


def traced(wl: Workload, args, work: Path, checks: Checks) -> dict:
    """A fixed round untraced, then the same round traced. The overhead
    compares the time spent inside covdec calls in the two rounds."""
    tracer = Tracer()
    rounds = {}
    attempted = failed = 0
    for mode in ("untraced", "traced"):
        if mode == "traced":
            tracer.install()
        try:
            inputs = setup(wl, work / mode, args.seed, args.epochs, checks)
            if mode == "untraced":
                warm_up(inputs, work / mode, args.seed)
            trainings = [inputs.model] if inputs.model is not None else []
            if wl.timed_training:
                attempted += 1
                trainings.append(train(wl, inputs.data, work / mode / "run", args.seed + 4,
                                       args.epochs or wl.epochs, checks))
            samples = decode_round(inputs, trainings[-1].run_dir, None, checks)
        finally:
            tracer.uninstall()
        check_agreement(inputs, trainings[-1].run_dir, samples, checks)
        attempted += samples.attempted
        failed += samples.failed
        busy = sum(t.seconds for t in trainings) + sum(samples.predict_s) + \
            sum(samples.decode_s) + sum(samples.eval_s)
        rounds[mode] = (busy, trainings)

    # Tracing must not change a single trained bit.
    for before, after in zip(rounds["untraced"][1], rounds["traced"][1]):
        for f in sorted(before.run_dir.glob("*.cvdp")):
            checks.require(f.read_bytes() == (after.run_dir / f.name).read_bytes(),
                           f"traced run wrote different {f.name}")
    metrics = tracer.layer_metrics()
    steps = sum(t.steps for t in rounds["traced"][1])
    metrics["training.steps"] = (steps, "count")
    checks.require(metrics["params.adam_step_calls"][0] == steps,
                   f"traced {metrics['params.adam_step_calls'][0]} adam steps, "
                   f"curves imply {steps}")
    metrics["trace.overhead_pct"] = (100.0 * (rounds["traced"][0] / rounds["untraced"][0] - 1.0),
                                     "%")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.save(out / f"spans-{wl.name}.npz")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="data seed; the run seed is this plus 4 (default 7, run seed 11)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="decode sampling time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", help="override every training's E1,E2,E3 (smoke tests)")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    checks = Checks()
    try:
        result = (traced if args.trace else measure)(wl, args, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    line = json.dumps({
        "correct": not checks.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{wl.name}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
