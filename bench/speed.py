"""Machine-speed probe: rescales measured times to a fixed machine speed.

The virtual machines this benchmark runs on share physical cores with other
tenants, and their speed changes on its own by up to a factor of two, in
stretches of a few seconds to a few minutes. A timing over a run of under a
minute then says more about the stretch it fell in than about covdec.

`SpeedProbe` samples the machine's speed throughout a run. Every
INTERVAL_S seconds a SIGALRM handler, running in the benchmark's own thread
between two Python bytecodes, decodes one fixed synthetic trial with the
plain-numpy reference decoder, a README-shaped model with fixed random
weights. That takes about REFERENCE_S seconds, and it slows down and speeds
up with the machine as covdec's own decoding and training do. The probe
shares no code with covdec, so a change to covdec cannot move it.

`scaled` takes a measured interval, removes the probes that ran inside it,
and multiplies the rest by REFERENCE_S over the mean probe time within
WINDOW_S of the interval: the time the interval would have taken had the
machine run the probe in exactly REFERENCE_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

from reference import ReferenceDecoder

INTERVAL_S = 0.1    # between two probes
WINDOW_S = 0.5      # probes this close to an interval set its speed
# The probe's median time on the machine of the reference numbers in README.md
REFERENCE_S = 2.0e-3


def _synthetic_decoder(rng: np.random.Generator) -> ReferenceDecoder:
    """The README model's shapes (8 channels, 3 classes), random weights."""

    def dense(params, name, n_in, n_out):
        params[f"{name}.w"] = rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)
        params[f"{name}.b"] = np.zeros(n_out)

    cnn = {"conv1.w": rng.standard_normal((32, 8, 3)) / 5.0, "conv1.b": np.zeros(32),
           "conv2.w": rng.standard_normal((64, 32, 3)) / 10.0, "conv2.b": np.zeros(64)}
    dense(cnn, "fc1", 256, 128)
    dense(cnn, "fc2", 128, 64)
    rnn: dict[str, np.ndarray] = {}
    dense(rnn, "fc1", 8, 128)
    dense(rnn, "fc2", 128, 64)
    for layer in ("lstm1", "lstm2"):
        for gate in "ifgo":
            rnn[f"{layer}.wx_{gate}"] = rng.standard_normal((64, 64)) / 8.0
            rnn[f"{layer}.wh_{gate}"] = rng.standard_normal((64, 64)) / 8.0
            rnn[f"{layer}.b_{gate}"] = np.zeros(64)
    dae: dict[str, np.ndarray] = {}
    dense(dae, "enc1", 128, 64)
    dense(dae, "enc2", 64, 32)
    head: dict[str, np.ndarray] = {}
    dense(head, "fc1", 32, 16)
    dense(head, "out", 16, 3)
    return ReferenceDecoder.from_params(cnn, rnn, dae, head, np.zeros((8, 8)), np.ones((8, 8)))


class SpeedProbe:
    """Use as a context manager around the timed part of a run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._decoder = _synthetic_decoder(rng)
        self._trial = [rng.standard_normal((8, 128))]
        self._starts: list[float] = []
        self._seconds: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self._decoder.probabilities(self._trial)
        self._starts.append(t0)
        self._seconds.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):  # warm-up, not recorded
            self._decoder.probabilities(self._trial)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probes(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of every probe."""
        return np.asarray(self._starts), np.asarray(self._seconds)

    @property
    def samples(self) -> int:
        return len(self._seconds)

    @property
    def median_s(self) -> float:
        return float(np.median(self._seconds))

    def scaled(self, starts, seconds) -> np.ndarray:
        """Intervals given by start (`time.perf_counter()`) and length, less
        the probes inside each, at the reference speed."""
        starts = np.asarray(starts, dtype=float)
        seconds = np.asarray(seconds, dtype=float)
        probe_t = np.asarray(self._starts)
        total = np.concatenate([[0.0], np.cumsum(self._seconds)])
        lo, hi = np.searchsorted(probe_t, starts), np.searchsorted(probe_t, starts + seconds)
        own = seconds - (total[hi] - total[lo])
        lo = np.searchsorted(probe_t, starts - WINDOW_S)
        hi = np.searchsorted(probe_t, starts + seconds + WINDOW_S)
        if np.any(hi == lo):
            raise RuntimeError("an interval has no speed probe near it")
        return own * REFERENCE_S * (hi - lo) / (total[hi] - total[lo])
