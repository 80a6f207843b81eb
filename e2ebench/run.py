"""End-to-end benchmark of the bindens command line.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round times set-up (import and ingest) in fresh processes, then runs
every `bindens cv` search of the workload, then `bindens estimate` for the
oracle's best candidate, then `bindens query` on that fit, each in a
process of its own that calls `bindens.cli.main` (worker.py). Times are
scaled to a reference machine speed (README, "Clock"). Rounds repeat
while the next one is expected to end within S seconds. The reports of
every round are checked against an oracle that does not use bindens.
The last line of standard output is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

import argparse
import contextlib
import gzip
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads, for this process and the
# program's: with two, xor_dot's time depends on what else the machine runs
# (README, "Thread pinning").
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 150
REPEATS = 2  # estimate and query commands per round: their runs are short, so they need more samples
SETUPS = 2  # set-up processes per round
# Times are scaled to a machine on which one probe tick (worker.calibrate) takes
# this many CPU seconds; see README, "Clock".
PROBE_REF_S = 0.0025

END_TO_END = (("setup_s", "s"), ("cv_s", "s"), ("estimate_s", "s"), ("query_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_data(path, wl):
    text = {1: "1", -1: "-1"}
    with open(path, "w", encoding="utf-8") as handle:
        for i in wl.order:
            handle.write(",".join(text[int(s)] for s in wl.rows[i]))
            handle.write("\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


class Runner:
    """Launches the program's processes for one run.

    Set-up is timed in fresh processes; commands run in children that one
    serving process forks (worker.py). `close` stops the server and waits
    for it on every path out of a run.
    """

    def __init__(self, work, trace):
        self.work = work
        self.trace = trace
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.jobs = 0
        self.errors = open(work / "serve.err", "w+", encoding="utf-8")
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve"],
            env=self.env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.errors,
            text=True, start_new_session=True,
        )

    def close(self):
        try:
            self.server.stdin.close()
            self.server.wait(timeout=JOB_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        self.errors.close()

    def kill(self):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.server.pid, signal.SIGKILL)
        self.server.wait()

    def _next(self):
        self.jobs += 1
        return self.work / f"result{self.jobs}.json"

    def setup(self, data):
        """Set-up time of one fresh process on `data`."""
        result_path = self._next()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "setup", data, str(result_path)],
            env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=JOB_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return _load(result_path)

    def launch(self, argv):
        """Run one command in a forked child; returns its result dict."""
        result_path = self._next()
        job_path = self.work / f"job{self.jobs}.json"
        write_json(job_path, {"argv": argv, "trace": self.trace, "result": str(result_path)})
        self.server.stdin.write(f"{job_path}\n")
        self.server.stdin.flush()
        ready, _, _ = select.select([self.server.stdout], [], [], JOB_TIMEOUT_S)
        line = self.server.stdout.readline() if ready else ""
        if not line:
            self.kill()
            self.errors.seek(0)
            raise RuntimeError(f"bindens {argv[0]} gave no answer within {JOB_TIMEOUT_S} s: {self.errors.read()[-2000:]}")
        result = _load(result_path)
        if int(line) != 0 or result is None:
            sys.stderr.write(f"worker for {argv[0]} exited {line.strip()}\n")
            return {"rc": -1}
        if result["rc"] != 0:
            sys.stderr.write(f"bindens {argv[0]} exited {result['rc']}\n")
        return result


def run_round(runner, wl, paths, out_dir):
    out_dir.mkdir()
    results = {}
    for rep in range(SETUPS):
        results[f"setup{rep}"] = runner.setup(paths["data"])
    for job in wl.cv_jobs:
        out = str(out_dir / f"cv_{job.name}.json")
        results[job.name] = runner.launch(["cv", "--data", paths["data"], "--config", paths[job.name], "--out", out])
    for rep in range(REPEATS):
        fit = str(out_dir / f"fit{rep}.json")
        argv = ["estimate", "--data", paths["data"], "--config", paths["estimate"], "--out", fit]
        results[f"estimate{rep}"] = runner.launch(argv)
        # "=" keeps argparse from reading a leading "-" of the first pattern as an option
        argv = ["query", "--fit", fit, "--cells=" + paths["cells"], "--out", str(out_dir / f"query{rep}.json")]
        results[f"query{rep}"] = runner.launch(argv)
    return results


def _load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def check_round(wl, exp, results, out_dir):
    """Outcomes of every operation of one round, and its cv element counts."""
    outcomes = []
    evals = [0, 0]
    for job in wl.cv_jobs:
        e = exp["jobs"][job.name]
        size = (len(e["finals"]) if e["kind"] == "descent" else len(e["rows"])) + 1
        report = _load(out_dir / f"cv_{job.name}.json") if results[job.name]["rc"] == 0 else None
        if report is None:
            outcomes += ["wrong"] * size
            continue
        for row in report["evaluations"]:
            evals[0] += row["element_evals"]
            evals[1] += row["squared_element_evals"]
        if e["kind"] == "descent":
            outcomes += checks.check_descent_report(report, job, e, wl.n)
        else:
            outcomes += checks.check_grid_report(report, job, e, wl.n)
    for rep in range(REPEATS):
        size = 1 if wl.estimate_rows is None else len(wl.estimate_rows)
        report = _load(out_dir / f"fit{rep}.json") if results[f"estimate{rep}"]["rc"] == 0 else None
        outcomes += ["wrong"] * size if report is None else checks.check_estimate_report(report, wl, exp)
        size = len(wl.query_rows) + len(wl.conditionals)
        report = _load(out_dir / f"query{rep}.json") if results[f"query{rep}"]["rc"] == 0 else None
        outcomes += ["wrong"] * size if report is None else checks.check_query_report(report, wl, exp)
    return outcomes, evals


def _median(values):
    return statistics.median(values) if values else float("nan")


def scaled(res, key):
    """A time of `res` at the reference speed; NaN for a command that failed."""
    if key not in res:
        return float("nan")
    return res[key] * PROBE_REF_S / res[key.replace("_s", "_probe_s")]


def end_to_end_metrics(wl, rounds):
    """Medians over the run: cv_s per round, the others per process."""
    phases = [(phase, res) for r in rounds for phase, res in r.items()]
    return {
        "setup_s": _median([scaled(res, "setup_s") for phase, res in phases if phase.startswith("setup")]),
        "cv_s": _median([sum(scaled(r[job.name], "phase_s") for job in wl.cv_jobs) for r in rounds]),
        "estimate_s": _median([scaled(res, "phase_s") for phase, res in phases if phase.startswith("estimate")]),
        "query_s": _median([scaled(res, "phase_s") for phase, res in phases if phase.startswith("query")]),
        "peak_rss_mb": max(res.get("max_rss_kb", 0) for _, res in phases) / 1024.0,
    }


def per_layer_metrics(rounds, evals):
    per_round = [
        spans.layer_metrics([(res["spans"], PROBE_REF_S / res["phase_probe_s"]) for res in r.values() if "spans" in res])
        for r in rounds
    ]
    out = {name: _median([m[name] for m in per_round]) for name, _, _, _ in spans.LAYER_METRICS}
    out["cv.element_evals"] = _median([e[0] for e in evals])
    out["cv.squared_element_evals"] = _median([e[1] for e in evals])
    return out


LAYER_UNITS = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
LAYER_UNITS.update({"cv.element_evals": "count", "cv.squared_element_evals": "count"})


def write_trace(path, rounds):
    """All spans of the run, one JSON object per span.

    Times are seconds on the CPU clock of the process that ran the command;
    the id prefix names the round and the command.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for number, r in enumerate(rounds):
            for phase, res in r.items():
                prefix = f"r{number}.{phase}."
                for sid, (name, start, end, parent, nbytes) in enumerate(res.get("spans", [])):
                    record = {
                        "id": prefix + str(sid), "name": name,
                        "start": start, "end": end,
                        "parent": None if parent is None else prefix + str(parent),
                    }
                    if nbytes is not None:
                        record["bytes"] = nbytes
                    handle.write(json.dumps(record) + "\n")


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still stops its server and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "bindens" / "cli.py").is_file():
        print(f"error: no bindens sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    problems = oracle.self_check(args.seed)
    for problem in problems:
        print(f"oracle self-check failed: {problem}", file=sys.stderr)
    wl = workloads.build(args.workload, args.seed)
    exp = checks.expectations(wl)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = {"data": str(work / "data.csv"), "estimate": str(work / "estimate.json"), "cells": checks.query_spec(wl)}
        write_data(paths["data"], wl)
        for job in wl.cv_jobs:
            paths[job.name] = str(work / f"{job.name}.json")
            write_json(paths[job.name], {"cv": {"loss": job.loss, "search": job.search}, "seed": args.seed})
        cells = "all" if wl.estimate_rows is None else [oracle.sign_label(r) for r in wl.estimate_rows]
        write_json(paths["estimate"], {"estimator": exp["fit"], "query": {"cells": cells}, "seed": args.seed})

        runner = Runner(work, bool(args.trace))
        try:
            rounds = []
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                rounds.append(run_round(runner, wl, paths, work / f"round{len(rounds)}"))
                now = time.perf_counter()
                if now + (now - began) - start > args.seconds:
                    break
            measured = time.perf_counter() - start
        finally:
            runner.close()

        outcomes, evals = [], []
        for number, results in enumerate(rounds):
            got, counts = check_round(wl, exp, results, work / f"round{number}")
            outcomes += got
            evals.append(counts)
        if args.trace:
            write_trace(HERE / "_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz", rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(rounds, evals)
        units = LAYER_UNITS
    else:
        metrics = end_to_end_metrics(wl, rounds)
        units = dict(END_TO_END)
    failed = sum(1 for o in outcomes if o != "ok")
    wrong = sum(1 for o in outcomes if o == "wrong")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds in {measured:.1f} s, "
          f"{len(outcomes)} operations, {failed} failed ({wrong} wrong, {failed - wrong} underflow)")
    for number, r in enumerate(rounds):
        times = " ".join(
            f"{phase}={scaled(res, 'setup_s' if phase.startswith('setup') else 'phase_s'):.3f}" for phase, res in r.items()
        )
        print(f"  round {number}: {times}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems and wrong == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
