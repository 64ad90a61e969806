"""Interpreter speed relative to the host the benchmark's bounds were set on.

The benchmark's host shares its CPUs with other tenants. Its speed drifts
by a third within minutes as their load changes, and odeident's
interpreter-bound work drifts with it. Every timed call is therefore
multiplied by the speed sampled during and around it, which states the
time in seconds at the reference host's speed. Raw times are printed
beside the scaled ones.

"""

import signal
import time

# median reference_loop() time on the reference host (a 2-CPU Xeon VM)
REFERENCE_LOOP_S = 0.0025


class _Cell:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def reference_loop():
    """Fixed interpreter-bound work in the style of odeident's: big-integer
    mulmod, float arithmetic, small objects built and hashed into a dict.
    What it keeps alive is bounded, so it adds no work for the garbage
    collector's oldest generation."""
    p, x, f = (1 << 62) + 135, 12345, 0.5
    table = {}
    cells = [_Cell(i, ()) for i in range(16)]
    for i in range(1500):
        x = x * 6364136223846793005 % p
        f = f * 0.999 + (i & 7) * 1e-3
        a, b = cells[i & 15], cells[(i * 7 + 3) & 15]
        key = hash((a.key, b.key, x & 7))
        table[key & 1023] = _Cell(key, (a, b))
        cells[(i * 5) & 15] = _Cell(key & 0xffff, ())
    return x, f


def speed(reps: int = 5) -> float:
    """Reference time over the median time of `reps` reference loops."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return REFERENCE_LOOP_S / sorted(times)[reps // 2]


class Sampler:
    """Samples the speed every `interval` seconds from a SIGALRM handler
    while active, so a long call is scaled by the speed during it.

    `samples` holds (time, speed, seconds the sample took).
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        value = speed(3)
        self.samples.append((start, value, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float, margin: float = 2.0):
        """(time at reference speed, wall time net of sampling) of a call
        that ran from `start` to `end`: its net time times the median of
        the speeds sampled during it and up to `margin` seconds around it."""
        inside = sum(s[2] for s in self.samples if start <= s[0] <= end)
        near = [s[1] for s in self.samples
                if start - margin <= s[0] <= end + margin]
        net = end - start - inside
        return net * sorted(near)[len(near) // 2], net
