"""One operation of the benchmark, in a process of its own.

    python3 child.py <experiment> <config> <out_dir> <result.json> <t_spawn> [mode]

Runs `steklov-lab <experiment> --config <config> --out <out_dir>` through
`lab_cli.main`, and writes to <result.json> when the runner was entered
(CLOCK_MONOTONIC, comparable with the parent's <t_spawn>), when `main`
returned, and the process's peak RSS.  `mode` is `run` (default), `trace`
(also records spans and runs the traced checks) or `setup` (stops when the
runner is entered, to time set-up alone).
"""

import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    pass


def main(argv):
    experiment, config, out_dir, result_path, t_spawn = argv[:5]
    mode = argv[5] if len(argv) > 5 else "run"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from steklov_lab import lab_cli

    stamps = {}
    runner = lab_cli.RUNNERS[experiment]
    tracer = recorder = None
    if mode == "trace":
        from checks import TraceRecorder
        from tracer import ROOT, Tracer, layer_metrics
        tracer = Tracer()
        recorder = TraceRecorder(tracer)

    def timed_runner(cfg):
        stamps["enter"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if mode == "setup":
            raise _SetupDone
        if tracer is not None:
            stamps["root"] = tracer.open(ROOT)
        stamps["quad_order"] = cfg.quad_order
        return runner(cfg)

    lab_cli.RUNNERS[experiment] = timed_runner
    if tracer is not None:
        tracer.install()
    try:
        lab_cli.main([experiment, "--config", config, "--out", out_dir])
    except _SetupDone:
        pass
    if tracer is not None:
        tracer.close(stamps["root"])
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"setup_s": stamps["enter"] - float(t_spawn),
              "wall_s": end - stamps["enter"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans)
        result["self_sum_s"] = sum(result["layers"][k] for k in result["layers"]
                                   if k.endswith(".s") or k == "lab_cli.self_s")
        result["spans"] = len(tracer.spans)
        result["traced_checks"] = recorder.check(stamps["quad_order"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
