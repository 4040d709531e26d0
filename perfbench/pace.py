"""The host's pace, sampled between the benchmark's timed units.

The shared host this benchmark runs on changes its speed for identical work
by 10-30% over seconds to minutes, so a wall time on its own mixes the
program's cost with the host's spell. `reference` is a fixed computation of
the benchmark's own that calls nothing of the program; `Pace` runs it
between timed units and brings a unit's wall time to the host's nominal
pace by the factor REFERENCE_S / (the median reference time around it, or
over the whole run). The factor is the same for every version of the
program, since the reference never calls it; a program that used both
cores would still show its full gain, because the reference runs alone,
between the units.

The reference mixes what the program spends its time on: regular
expressions, string and dict work in the interpreter, JSON encoding with
hashing, and small numpy array work. The garbage collector is paused while
it runs, so the heap the program leaves behind does not change its time.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import re
import statistics
import time

import numpy as np

# the median time of one reference on the host described in README.md
REFERENCE_S = 0.025

_WORDS = [f"{w}{s}" for w in ("support", "comment", "nation", "hope", "stranger",
                              "community", "video", "brother", "courage", "world")
          for s in ("", "s", "ing", "ed", "ly", "ness", "ful", "ation")]
_TEXT = " ".join(f"{w.capitalize() if i % 7 == 0 else w} {i % 13}!?"
                 for i, w in enumerate(_WORDS * 6))
_WORD_RE = re.compile(r"[^\W\d_]+(?:'[^\W\d_]+)*")
_SUFFIX_RE = re.compile(r"(?:ation|ness|ful|ing|ly|ed|s)$")
_MATRIX = np.random.default_rng(0).random((96, 96))
_VECTOR = np.random.default_rng(1).random(20000)


def reference() -> None:
    """One fixed unit of work, about REFERENCE_S on the host."""
    counts: dict[str, int] = {}
    for _ in range(20):
        for m in _WORD_RE.finditer(_TEXT):
            stem = _SUFFIX_RE.sub("", m.group(0).lower())
            counts[stem] = counts.get(stem, 0) + 1
    blob = json.dumps({"counts": counts, "words": _WORDS}, sort_keys=True)
    for _ in range(15):
        hashlib.sha256(blob.encode("utf-8")).hexdigest()
    m = _MATRIX
    for _ in range(20):
        m = np.tanh(m @ _MATRIX * 0.01)
    order = np.argsort(_VECTOR * m[0, 0])
    float(np.add.reduceat(_VECTOR[order], np.arange(0, _VECTOR.size, 100)).sum())


class Pace:
    """Reference samples (start, duration) taken so far in this process,
    and the factor that brings a unit timed between them to the nominal
    pace."""

    AROUND = 5  # samples on each side of a unit that `local` takes the pace from

    def __init__(self) -> None:
        self.at: list[float] = []
        self.samples: list[float] = []

    def sample(self, k: int = 1) -> None:
        """Run the reference k times, with the garbage collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(k):
                t0 = time.perf_counter()
                reference()
                self.at.append(t0)
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def local(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median of the AROUND samples that start last
        before t0 and the AROUND that start first after t1."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        around = self.samples[max(0, i - self.AROUND):i] + self.samples[j:j + self.AROUND]
        return REFERENCE_S / statistics.median(around)

    def whole(self) -> float:
        """REFERENCE_S over the median pace of every sample of the run."""
        return REFERENCE_S / statistics.median(self.samples)
