"""One repeat of a workload in a fresh process: set up, run the seeded
request list once, check every output against its golden, and print one JSON
line with the measurements.

Started by ``run.py``; ``--t0`` is the parent's ``time.monotonic()`` just
before the process was started, so set-up time includes interpreter start.

While the requests run, an interval timer interrupts the worker every
``PROBE_EVERY_S`` to time a fixed pure-Python loop (the speed probe); the
probe's own time is taken out of the request it interrupted. Each request is
reported with the mean of the probes from the last one before it to the
first one after it, so that ``run.py`` can rescale its latency to a fixed
probe speed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import sys
import time

import workloads

PROBE_EVERY_S = 0.02


def _probe_loop() -> int:
    # tuple building and dict updates, the operations the library spends its time on
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(1000):
        key = (i % 13, i % 7, i % 5)
        seen[key] = seen.get(key, 0) + i
    return len(seen)


class SpeedProbe:
    """Probe samples (end time, best of two loop times) taken on a timer
    signal, and the total time the probes took."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def probe(self, *_signal) -> None:
        started = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            _probe_loop()
            best = min(best, time.perf_counter() - t)
        ended = time.perf_counter()
        self.samples.append((ended, best))
        self.spent += ended - started

    def __enter__(self):
        for _ in range(10):
            _probe_loop()  # let the interpreter specialise the loop before it is timed
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def around(self, started: float, ended: float) -> float:
        """Mean probe time from the last sample before ``started`` to the
        first one after ``ended``."""
        ends = [t for t, _ in self.samples]
        lo = bisect.bisect_right(ends, started) - 1
        hi = bisect.bisect_left(ends, ended)
        window = [p for _, p in self.samples[lo : hi + 1]]
        return sum(window) / len(window)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here as JSON lines")
    args = parser.parse_args()

    sys.path.insert(0, str(workloads.SRC))
    requests = workloads.draw(args.workload, args.seed)
    goldens = workloads.load_goldens(args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = workloads.Context(args.workload, requests)
    setup_s = time.monotonic() - args.t0

    spans, digests, failures, verdicts = [], {}, [], {}
    with SpeedProbe() as speed:
        setup_probe = speed.samples[0][1]
        for i, req in enumerate(requests):
            ctx.prepare(req)
            if tracer is not None:
                tracer.request = i
            spent = speed.spent
            started = time.perf_counter()
            try:
                outcome = ctx.execute(req)
            except Exception as exc:  # a raising request is a failed request; keep going
                outcome = None
                failures.append(f"{req.key}: {type(exc).__name__}: {exc}")
            ended = time.perf_counter()
            spans.append((started, ended, speed.spent - spent))
            if outcome is None:
                continue
            digests[req.key] = outcome.digest
            golden = goldens.get(req.key)
            if golden is None or (golden["sha256"], golden["exit"]) != (outcome.digest, outcome.exit):
                failures.append(f"{req.key}: output or exit code differs from the golden")
            if outcome.verdict is not None:
                verdicts[outcome.verdict] = verdicts.get(outcome.verdict, 0) + 1

    latencies = [e - s - probed for s, e, probed in spans]
    result = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "probes": [speed.around(s, e) for s, e, _ in spans],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(requests),
        "failures": failures,
        "verdicts": verdicts,
        "digests": digests,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
