"""One measured process: set up, then run `halfbubble` invocations in order.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the CLI argument lists to run, whether to trace, and whether to
stop after set-up.  Set-up is what a fresh `halfbubble` process does before
its first layer call: interpreter start, imports, building the config from
the arguments and loading the curvature points.  The worker records the
monotonic clock when set-up ends (the parent recorded it at spawn), and the
wall and CPU time of each invocation.  From its first line to its last it
samples the host's speed (speed.py), and it records the mean kernel time
over set-up and over each invocation.  With tracing, the spans and counters
are written to SPEC's trace path when the invocations are done.
"""

import time

import speed

# started before any other import, so that set-up is sampled from its start
sampler = speed.Sampler()
sampler.start()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace_path"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    from halfbubble import cli, geometry

    for argv in spec["invocations"]:
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        geometry.load_curvature_file(cfg.curvature_file)
    ready = time.monotonic()
    sampler.sample()
    result = {"ready": ready,
              "ready_kernel_s": sampler.mean(0.0, time.monotonic()),
              "invocations": []}

    if not spec.get("setup_only"):
        for argv in spec["invocations"]:
            since = time.monotonic()
            sampler.sample()
            wall0, cpu0 = time.perf_counter(), _cpu()
            rc = cli.main(argv)
            wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
            sampler.sample()
            result["invocations"].append({
                "rc": rc, "wall_s": wall, "cpu_s": cpu,
                "kernel_s": sampler.mean(since, time.monotonic())})
    sampler.stop()
    if tracer is not None:
        tracer.write(spec["trace_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
