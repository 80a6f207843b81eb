"""Time bindens commands, each in a process of its own.

Usage:
    python3 worker.py setup DATA RESULT   time set-up in this fresh process
    python3 worker.py serve               run commands for JOB.json paths read from stdin

`setup` imports `bindens.cli` and loads DATA with `cli.load_observations`,
which is what every bindens command pays before its own work, and writes
its time to RESULT. `serve` imports `bindens.cli` once and then, for each
job path on a line of stdin, forks a child that runs the job's command
line through `bindens.cli.main` and writes the job's result file; it
answers each job with a line holding the child's exit code. No command
runs in the serving process, so every child starts as cold as a fresh
`bindens` invocation apart from the import, which `setup` times.

Times are CPU time of the process less the probe's own (see README,
"Clock"). The speed probe times a fixed piece of work every TICK_S seconds,
so the parent can scale each time to the machine's speed while it ran.
"""

import contextlib
import json
import math
import os
import resource
import signal
import sys
import time

import numpy as np

TICK_S = 0.05  # seconds between probe ticks
TICK_STEPS = 100  # about 2 ms of probe work per tick
_T = np.linspace(0.0, 1.0, 1000)
_U = np.linspace(-1.0, 1.0, 1 << 16)
_A = (1 << 999) | 0x5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A


def calibrate(steps):
    """Thread CPU seconds of a fixed piece of work like the program's hot loops:
    big-integer XORs, gathers from small arrays, and dot products over 2^16."""
    acc = 0.0
    t0 = time.thread_time()
    for k in range(steps):
        x = _A ^ (_A >> (k % 97 + 1))
        bits = np.flatnonzero(np.unpackbits(np.frombuffer(x.to_bytes(125, "little"), dtype=np.uint8)))
        acc += math.exp(-1e-3 * float(_T[bits % 1000].sum()))
        if k % 8 == 0:
            acc += float(np.dot(_U, _U[::-1]))
    return time.thread_time() - t0


class SpeedProbe:
    """Runs `calibrate` on an interval timer and keeps a clock that leaves it out.

    The timer is a wall-clock one (ITIMER_REAL): while a CPU-time timer is
    armed, Linux reads the process CPU clock only to the scheduler tick."""

    def __init__(self):
        self.spent = 0.0
        self._busy = False
        self.ticks = []  # probe seconds of each tick

    def clock(self):
        """CPU seconds of this process, less the probe's own."""
        return time.process_time() - self.spent

    def tick(self, *_):
        if self._busy:  # a timer signal during a tick is dropped
            return
        self._busy = True
        t0 = time.process_time()
        self.ticks.append(calibrate(TICK_STEPS))
        self.spent += time.process_time() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def probe_s(self):
        """Mean probe time of the ticks.

        The program runs on one thread and does not wait, so ticks come at
        even steps of its CPU time, and the mean weighs the machine's speed
        as the program's own time does."""
        return sum(self.ticks) / len(self.ticks)


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def setup(data, result_path):
    probe = SpeedProbe()
    calibrate(TICK_STEPS)  # first use of numpy's paths, outside any measured interval
    probe.start()
    import bindens.cli as cli

    counts = cli.load_observations(data)
    setup_s = probe.clock()  # CPU time since the process started
    probe.tick()
    probe.stop()
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    write_json(result_path, {"setup_s": setup_s, "setup_probe_s": probe.probe_s(), "max_rss_kb": max_rss_kb})
    return 0


def run_job(job_path):
    """One command in this (forked) process; writes the job's result file."""
    import bindens.cli as cli

    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    probe = SpeedProbe()
    probe.start()
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(probe.clock)
        tracer.install()
    result = {}
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        t0 = probe.clock()
        if tracer is None:
            rc = cli.main(job["argv"])
        else:
            rc = tracer.span("cli." + job["argv"][0], cli.main, job["argv"])
            result["spans"] = tracer.spans
        t1 = probe.clock()
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe.tick()
    probe.stop()
    result["phase_s"] = t1 - t0
    result["phase_probe_s"] = probe.probe_s()
    result["rc"] = rc
    write_json(job["result"], result)
    return 0


def serve():
    import bindens.cli  # noqa: F401  loaded once; the children share it

    calibrate(TICK_STEPS)  # first use of numpy's paths, before any child
    sys.stdout.flush()
    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = run_job(line.strip())
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)}\n")
        sys.stdout.flush()
    return 0


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        return setup(argv[1], argv[2])
    if argv == ["serve"]:
        return serve()
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
