#!/usr/bin/env python3
"""Benchmark of the halfbubble toolkit, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing.  Workloads (see README.md for why):

  coefficients-sweep           `pipeline --skip-slopes` for n = 11..15 in one
                               process, serial
  coefficients-sweep-threads2  the same inputs with HALFBUBBLE_THREADS=2
  pipeline                     the default `pipeline` at n = 11, with slopes

The curvature inputs are batteries of five unit-norm points per dimension,
generated from --seed and passed to the program with --curvature.  A round
is one fresh worker process running the workload's invocations; a run
makes set-up probes, then starts whole rounds until --seconds have passed,
and checks every artifact (perfbench/check.py).

--trace 0 prints the end-to-end metrics: wall_s and cpu_s (medians over
the run's invocations), peak_rss_mb (median over rounds of the worker's
peak RSS) and setup_s (median over probes and rounds of spawn-to-ready).
The times are in seconds at the reference speed: each measured time is
scaled by the mean time of the kernel (perfbench/speed.py) that the worker
samples while it runs, because the shared host's speed swings by more
than half within tens of seconds.  The raw medians go to stderr.
--trace 1 runs one untraced and one traced round and prints the per-layer
metrics of the traced one (perfbench/spans.py).  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
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
from pathlib import Path

import check
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "work"

DIMS_SWEEP = (11, 12, 13, 14, 15)
WORKLOADS = {
    "coefficients-sweep": {"dims": DIMS_SWEEP, "threads": 1, "slopes": False},
    "coefficients-sweep-threads2": {"dims": DIMS_SWEEP, "threads": 2,
                                    "slopes": False},
    "pipeline": {"dims": (11,), "threads": 1, "slopes": True},
}
CELLS = 96            # grid cells per direction: h = 1/96, Richardson 96/192
MC_SAMPLES = 5000     # per residual rung (the cancellation passes use half)
BATTERY = 5           # curvature points per dimension
CLI_SEED = 1          # the documented default; with --curvature it only
                      # seeds the Monte Carlo ladder
SETUP_PROBES = 5
RUN_CAP_S = 170.0     # hard stop for worker processes


def make_inputs(work: Path, dims, seed: int) -> dict:
    """Curvature files per dimension, generated from the benchmark seed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    from halfbubble.geometry import make_battery, save_curvature_file

    paths = {}
    for n in dims:
        sub = int(np.random.SeedSequence([seed, n]).generate_state(1)[0])
        paths[n] = work / "inputs" / f"n{n}.json"
        paths[n].parent.mkdir(parents=True, exist_ok=True)
        save_curvature_file(paths[n], n, make_battery(n, BATTERY, sub))
    return paths


def invocations(out: Path, inputs: dict, slopes: bool, cells: int) -> list:
    runs = []
    for n, path in inputs.items():
        argv = ["--n", str(n), "--seed", str(CLI_SEED), "--h", repr(1.0 / cells),
                "--curvature", str(path), "--out-dir", str(out / f"n{n}")]
        if slopes:
            argv += ["--mc-samples", str(MC_SAMPLES), "pipeline"]
        else:
            argv += ["pipeline", "--skip-slopes"]
        runs.append(argv)
    return runs


def spawn(work: Path, tag: str, spec: dict, threads: int, cap: float) -> dict:
    """Run one worker process; its result plus set-up time, RSS and CPU."""
    spec_path = work / f"{tag}.spec.json"
    result_path = work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["HALFBUBBLE_THREADS"] = str(threads)
    # BLAS on one thread, so HALFBUBBLE_THREADS is the only parallelism
    env["OPENBLAS_NUM_THREADS"] = "1"
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path),
         str(result_path)],
        env=env, stdout=sys.stderr, cwd=str(work))
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > cap:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"ok": proc.returncode == 0 and result_path.is_file(),
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "invocations": []}
    if record["ok"]:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        record["raw_setup_s"] = result["ready"] - spawned
        record["setup_s"] = speed.scaled(record["raw_setup_s"],
                                         result["ready_kernel_s"])
        record["invocations"] = result["invocations"]
    return record


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, cells: int = CELLS,
                 probes: int = SETUP_PROBES):
        self.spec = WORKLOADS[workload]
        self.cells = cells
        self.probes = probes
        self.start = time.monotonic()
        self.work = WORK_ROOT / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            self.inputs = make_inputs(self.work, self.spec["dims"], seed)
        except BaseException:
            self.close()
            raise
        self.rounds = []
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _worker(self, tag: str, threads: int, setup_only=False,
                trace_path=None) -> dict:
        out = self.work / tag
        spec = {"invocations": invocations(out, self.inputs,
                                           self.spec["slopes"], self.cells),
                "setup_only": setup_only,
                "trace_path": str(trace_path) if trace_path else ""}
        record = spawn(self.work, tag, spec, threads,
                       self.start + RUN_CAP_S)
        record["out"] = out
        return record

    def setup_probes(self) -> list:
        return [self._worker(f"probe{k}", self.spec["threads"],
                             setup_only=True) for k in range(self.probes)]

    def round(self, trace_path=None) -> dict:
        """One measured round; its artifacts are checked right away."""
        record = self._worker(f"round{len(self.rounds)}", self.spec["threads"],
                              trace_path=trace_path)
        self.rounds.append(record)
        self._check(record)
        return record

    def _check(self, record: dict) -> None:
        dims = list(self.inputs)
        self.attempted += len(dims)
        done = record["invocations"]
        for k, n in enumerate(dims):
            if k >= len(done) or done[k]["rc"] != 0:
                self.failed += 1
                continue
            self.failures += check.check_run(
                record["out"] / f"n{n}", self.inputs[n], n,
                self.spec["slopes"])
        if len(self.rounds) > 1 and record["ok"] and self.rounds[0]["ok"]:
            self.failures += [f"round {len(self.rounds) - 1} vs round 0: {f}"
                              for f in check.compare_trees(
                                  self.rounds[0]["out"], record["out"])]

    def check_against_serial(self) -> None:
        """Threaded artifacts must be byte-identical to a serial run's."""
        if self.spec["threads"] == 1 or not self.rounds[0]["ok"]:
            return
        ref = self._worker("serial-reference", 1)
        if not ref["ok"]:
            self.failures.append("serial reference run failed")
            return
        self.failures += [f"threaded vs serial: {f}" for f in
                          check.compare_trees(ref["out"], self.rounds[0]["out"])]

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _scaled(rounds, key: str) -> list:
    """The invocations' times `key`, at the reference speed."""
    return [speed.scaled(inv[key], inv["kernel_s"])
            for r in rounds for inv in r["invocations"]]


def _raw(rounds, key: str) -> list:
    return [inv[key] for r in rounds for inv in r["invocations"]]


def end_to_end(run: Run, seconds: float) -> dict:
    probes = run.setup_probes()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        run.round()
    run.check_against_serial()
    rounds = [r for r in run.rounds if r["ok"]]
    started = [r for r in probes + run.rounds if r["ok"]]
    if not rounds or not started:
        raise RuntimeError("no round of the workload completed")
    med = statistics.median
    print(f"raw medians: wall {med(_raw(rounds, 'wall_s')):.4f} s, "
          f"cpu {med(_raw(rounds, 'cpu_s')):.4f} s, "
          f"set-up {med(r['raw_setup_s'] for r in started):.4f} s, "
          f"kernel {med(_raw(rounds, 'kernel_s')):.4f} s "
          f"(reference {speed.REFERENCE_S} s)", file=sys.stderr)
    return run.result({
        "wall_s": {"value": med(_scaled(rounds, "wall_s")), "unit": "s"},
        "cpu_s": {"value": med(_scaled(rounds, "cpu_s")), "unit": "s"},
        "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
        "setup_s": {"value": med(r["setup_s"] for r in started), "unit": "s"},
    })


def traced(run: Run) -> dict:
    plain = run.round()
    trace_path = run.work / "spans.json"
    tr = run.round(trace_path=trace_path)
    run.check_against_serial()
    if not (plain["ok"] and tr["ok"]):
        raise RuntimeError("the untraced or the traced round did not complete")
    values = spans.summarize(json.loads(trace_path.read_text()))
    values["trace.overhead_s"] = (
        statistics.median(_scaled([tr], "wall_s"))
        - statistics.median(_scaled([plain], "wall_s")))
    units = dict(spans.LAYER_METRICS)
    return run.result({name: {"value": values[name], "unit": units[name]}
                       for name, _ in spans.LAYER_METRICS})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "halfbubble" / "cli.py").is_file():
        print(f"error: no halfbubble sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    try:
        result = traced(run) if args.trace else end_to_end(run, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
