"""One workload process: set up, run a closed loop of ops, check, report.

Run by run.py as
    python3 perfbench/child.py '<json spec>'
and writes its result as JSON to spec["result"]. Set-up ends, and
spec["ready"] is stamped with time.monotonic(), after imports, input
synthesis and one cold untimed op. Then ops run one at a time for about
spec["budget_s"] seconds and at least one op. A speed probe runs before the
first op and after each op; its times go to result["probe_s"].
"""

import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter

import numpy as np
import scipy

import tracing
import workloads
from octaudio.nn import train as nn_train

MAX_ERRORS = 5
# the speed probe's input: 2**20 float64 values, 8 MiB
PROBE_SIZE = 1 << 20
# training ops whose losses make up the run digest, the cold op included;
# a process times at least the ones after the cold op
TRAIN_DIGEST_OPS = 3


class _StopTraining(Exception):
    pass


class SpeedProbe:
    """A fixed numpy workload, independent of octaudio, run between ops.

    The machine's speed drifts by tens of percent over seconds to minutes;
    run.py divides each op time by the probes around it to take the drift
    out. Calling the probe returns seconds per repetition. A workload's
    probe_reps makes one probe last about a tenth to a fifth of its op.
    """

    def __init__(self, reps):
        self.reps = reps
        self.data = np.random.default_rng(0).normal(size=PROBE_SIZE)

    def __call__(self):
        start = perf_counter()
        for _ in range(self.reps):
            values = np.sin(self.data) * 2.0 + self.data
            values.sort()
        return (perf_counter() - start) / self.reps


def _runtime_info():
    """Library versions and the thread counts actually in effect."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "scipy_fft_workers_minus_1": os.cpu_count(),
    }


def _openblas_threads():
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _spent(loop_start, last_op, spec):
    """True when one more op would end further past the budget than
    stopping now falls short of it."""
    return time.monotonic() - loop_start + last_op / 2 >= spec["budget_s"]


def run_cli_workload(wl, spec, tracer, probe, result):
    wl.prepare()
    reference, errors = wl.check(*wl.op())
    result["ready"] = time.monotonic()
    result["errors"].extend(errors)
    result["digest"] = reference
    times = result["op_times"]
    probes = result["probe_s"]
    loop_start = time.monotonic()
    probes.append(probe())
    while True:
        if tracer:
            tracer.op = len(times)
        start = perf_counter()
        try:
            code, text = wl.op()
        except Exception:   # an escaped exception is a failed op, not a crash
            code, text = None, traceback.format_exc(limit=3)
        times.append(perf_counter() - start)
        if tracer:
            tracer.op = None
        probes.append(probe())
        result["attempted"] += 1
        digest, errors = wl.check(code, text) if code is not None else (None, [text])
        if digest != reference and not errors:
            errors = [f"op {len(times)} output differs from the cold op"]
        if errors or reference is None:
            result["failed"] += 1
            result["errors"].extend(errors)
        if _spent(loop_start, times[-1], spec):
            break
    if spec["index"] == 0:
        attempted, errors = wl.final_checks()
        result["attempted"] += attempted
        result["failed"] += 1 if errors else 0
        result["errors"].extend(errors)
    return None


def run_train_workload(wl, spec, tracer, probe, result):
    wl.prepare()
    n = wl.iters_per_op
    times = result["op_times"]
    bounds = {}
    state = {"mark": None, "loop_start": None}

    def progress(it, loss_d, loss_g):
        now = perf_counter()
        if it % n:
            return
        if state["mark"] is None:               # end of the cold op
            result["ready"] = time.monotonic()
            state["loop_start"] = result["ready"]
            result["probe_s"].append(probe())
        else:
            times.append(now - state["mark"])
            bounds[len(times) - 1] = (state["mark"], now)
            result["attempted"] += 1
            result["probe_s"].append(probe())
            if len(times) >= TRAIN_DIGEST_OPS - 1 and _spent(state["loop_start"], times[-1], spec):
                raise _StopTraining
        if tracer:
            tracer.op = len(times)
        state["mark"] = perf_counter()

    try:
        nn_train.train(wl.dataset, wl.model_cfg, wl.train_cfg, wl.out_dir,
                       progress=progress)
        result["errors"].append("training ended before the run did")
    except _StopTraining:
        pass
    finally:
        if tracer:
            tracer.op = None

    rows = wl.losses()
    cycles = ["\n".join(rows[i:i + n]) for i in range(0, len(rows) - n + 1, n)]
    for index, cycle in enumerate(cycles):
        values = [float(v) for line in cycle.splitlines() for v in line.split(",")[1:]]
        if not np.all(np.isfinite(values)):
            result["errors"].append(f"op {index}: non-finite loss")
            result["failed"] += 1
    result["cycles"] = cycles
    result["digest"] = workloads.digest_files([], "\n".join(cycles[:TRAIN_DIGEST_OPS]))
    return bounds


def main():
    spec = json.loads(sys.argv[1])
    result = {"index": spec["index"], "traced": spec["traced"], "op_times": [],
              "probe_s": [], "attempted": 0, "failed": 0, "errors": [],
              "digest": None}
    tracer = None
    if spec["traced"]:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = spec["workdir"]
    os.makedirs(workdir, exist_ok=True)
    cls = workloads.WORKLOADS[spec["workload"]]
    probe = SpeedProbe(1 if spec["smoke"] else cls.probe_reps)
    if cls is workloads.TrainToy:
        wl = cls(workdir, spec["seed"], spec["smoke"], spec["root"])
        bounds = run_train_workload(wl, spec, tracer, probe, result)
    else:
        wl = cls(workdir, spec["seed"], spec["smoke"])
        bounds = run_cli_workload(wl, spec, tracer, probe, result)
    result["audio_s_per_op"] = wl.audio_s_per_op
    result["iters_per_op"] = wl.iters_per_op
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["errors"] = result["errors"][:MAX_ERRORS]
    if spec["index"] == 0:
        result["runtime"] = _runtime_info()
    if tracer:
        tracer.write(spec["spans"])
        ops = tracer.per_op(bounds)
        result["layers"] = [ops.get(i, {}) for i in range(len(result["op_times"]))]
        result["wrapped"] = sorted(tracer.wrapped)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
