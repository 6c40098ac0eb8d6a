"""octaudio benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload analyze_60s --seed 1 --seconds 20 --trace 0

Runs the workload in CHILDREN fresh processes one after another, each a
closed loop with a single client that measures for seconds / CHILDREN.
With --trace 0 all of them run untraced and the last line of stdout holds
the end-to-end metrics of BENCHMARK.json. With --trace 1 the middle one
runs untraced and the other two traced, and the last line holds the
per-layer metrics. --smoke runs every workload on tiny inputs in both
modes and checks the output schema. README.md defines workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILDREN = 3
# with --trace 1, the process that runs untraced; the traced ones surround
# it so that slow drift in machine speed affects both sides alike
UNTRACED = 1
TAIL_BEYOND = 10
# op times are rescaled to a machine on which one speed-probe repetition
# (child.SpeedProbe) takes this long
REFERENCE_PROBE_S = 0.025
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170
SMOKE_DEADLINE_S = 600


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "octaudio", "cli.py")):
        fail(f"no octaudio sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(ROOT, "examples_config.ini")):
        fail("examples_config.ini is missing")
    with open(path) as fh:
        return json.load(fh)


def provenance(seed):
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src", "octaudio")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    source.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "threads": {var: THREADS for var in THREAD_VARS},
    }


def run_children(workload, seed, seconds, trace, smoke, workdir, deadline):
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env.update(OCTAUDIO_VERBOSE="0", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    results = []
    for index in range(CHILDREN):
        spec = {
            "workload": workload, "seed": seed, "smoke": smoke, "root": ROOT,
            "index": index, "traced": bool(trace and index != UNTRACED),
            "budget_s": seconds / CHILDREN,
            "workdir": os.path.join(workdir, f"child{index}"),
            "result": os.path.join(workdir, f"result{index}.json"),
            "spans": os.path.join(workdir, f"spans{index}.tsv"),
        }
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            fail(f"{workload} child {index} did not finish in time")
        if proc.returncode != 0:
            fail(f"{workload} child {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        results.append(result)
        shutil.rmtree(spec["workdir"], ignore_errors=True)
    return results


def tail(samples):
    """Highest sample with TAIL_BEYOND samples above it, never below the
    median; returns (value, percentile, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    i = max(n - 1 - TAIL_BEYOND, n // 2)
    i = min(i, n - 1)
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def cross_check(results, workload):
    """Outputs must match byte for byte across processes; returns errors."""
    errors = []
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        errors.append(f"output digests differ between processes: {sorted(map(str, digests))}")
    if workload == "train_toy":
        first = results[0]["cycles"]
        for r in results[1:]:
            for i, (a, b) in enumerate(zip(first, r["cycles"])):
                if a != b:
                    errors.append(f"process {r['index']} training op {i} differs")
                    break
    return errors


def scaled_times(result):
    """The op times of one process at reference speed: each op time times
    REFERENCE_PROBE_S over the mean of the speed probes before and after it."""
    probes = result["probe_s"]
    return [t * REFERENCE_PROBE_S / ((probes[i] + probes[i + 1]) / 2.0)
            for i, t in enumerate(result["op_times"])]


def end_to_end(results):
    """Every end-to-end figure of a run, by name: (value, unit).

    The op times of all processes are pooled. The op and set-up figures
    are at reference speed (see scaled_times; set-up is scaled by the probe
    that follows it); the wall_* figures are as measured and are printed,
    not gated.
    """
    times = [t for r in results for t in scaled_times(r)]
    wall = [t for r in results for t in r["op_times"]]
    p50 = statistics.median(times)
    tail_value, tail_pct, beyond = tail(times)
    first = results[0]
    return {
        "setup_s": (statistics.median(r["setup_s"] * REFERENCE_PROBE_S / r["probe_s"][0]
                                      for r in results), "s"),
        "op_p50_s": (p50, "s"),
        "realtime_x": (first["audio_s_per_op"] / p50, "x"),
        "iters_per_s": (first["iters_per_op"] / p50, "1/s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in results) / 1024.0, "MB"),
        "op_tail_s": (tail_value, "s"),
        "wall_op_p50_s": (statistics.median(wall), "s"),
        "wall_op_best_s": (min(wall), "s"),
        "wall_setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "probe_p50_s": (statistics.median(p for r in results for p in r["probe_s"]), "s"),
    }, {"op_samples": len(times), "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond}


def counts_of(layers):
    return {name: row[1] for name, row in layers.items()}


def per_layer(results, names, errors):
    untraced = results[UNTRACED]
    traced = [r for r in results if r["traced"]]
    ops = [layers for r in traced for layers in r["layers"]]
    per = untraced["iters_per_op"]
    reference = counts_of(ops[0])
    for r in traced:
        for i, layers in enumerate(r["layers"]):
            if counts_of(layers) != reference:
                errors.append(f"traced process {r['index']} op {i}: call counts differ")
                r["failed"] += 1
    wrapped = set(traced[0]["wrapped"])
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            value = (statistics.median(t for r in traced for t in scaled_times(r))
                     - statistics.median(scaled_times(untraced)))
        elif name == "nn.autodiff.primitive_calls":
            value = sum(c for span, c in reference.items()
                        if span.startswith("nn.autodiff.") and ".grad" not in span
                        and ".Tensor." not in span) / per
        elif name in ("audio_io.bytes_read", "audio_io.bytes_written"):
            span = "audio_io.read_wav" if name.endswith("read") else "audio_io.write_wav"
            value = ops[0].get(span, [0, 0, 0, 0])[2] / per
        else:
            span, stat = name.rsplit(".", 1)
            if span not in wrapped:
                raise KeyError(f"per-layer metric {name}: no span {span}")
            rows = [layers.get(span, [0.0, 0, 0, 0]) for layers in ops]
            if stat == "self_s":
                value = statistics.median(row[0] for row in rows)
            elif stat == "calls":
                value = rows[0][1] / per
            elif stat == "bytes":
                value = rows[0][2] / per
            elif stat == "gflop":
                value = rows[0][3] / per / 1e9
            else:
                raise KeyError(f"per-layer metric {name}: unknown statistic {stat}")
        metrics[name] = value
    return metrics


def top_spans(results, limit=25):
    ops = [layers for r in results if r["traced"] for layers in r["layers"]]
    names = {name for layers in ops for name in layers}
    rows = []
    for name in names:
        selfs = [layers.get(name, [0.0, 0])[0] for layers in ops]
        rows.append((statistics.median(selfs), ops[0].get(name, [0, 0])[1], name))
    rows.sort(reverse=True)
    return rows[:limit]


def run_once(spec, workload, seed, seconds, trace, smoke):
    deadline = time.monotonic() + (SMOKE_DEADLINE_S if smoke else RUN_DEADLINE_S)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        results = run_children(workload, seed, seconds, trace, smoke, workdir, deadline)
        if trace:
            keep = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(keep, exist_ok=True)
            for r in (r for r in results if r["traced"]):
                shutil.copy(os.path.join(workdir, f"spans{r['index']}.tsv"),
                            os.path.join(keep, f"spans-{workload}-{r['index']}.tsv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = cross_check(results, workload)
    if errors:
        for r in results[1:]:
            r["failed"] = max(r["failed"], 1)
    info = {"workload": workload, "trace": trace, "children": CHILDREN,
            "digest": results[0]["digest"], "runtime": results[0].get("runtime"),
            **provenance(seed)}
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in per_layer(results, names, errors).items()}
    else:
        values, extra = end_to_end(results)
        info.update(extra)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": values[k][0], "unit": units[k]} for k in units}
        info["ungated"] = {k: v[0] for k, v in values.items() if k not in units}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors += [e for r in results for e in r["errors"]]
    info["error_rate"] = failed / attempted if attempted else 1.0

    print(f"{workload}  seed {seed}  trace {trace}  {CHILDREN} processes")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':44s} {info['error_rate']:14.6g} ({failed}/{attempted})")
    if not trace:
        for name, (value, unit) in values.items():
            if name not in metrics:
                print(f"  {name:44s} {value:14.6g} {unit} (printed, not gated)")
        print(f"  op times at reference speed ({REFERENCE_PROBE_S * 1e3:g} ms per probe "
              f"repetition); op_tail_s is p{info['op_tail_percentile']:.0f} of "
              f"{info['op_samples']} ops, {info['op_tail_beyond']} beyond it")
    else:
        print("  largest self times per op (s, calls):")
        for value, calls, name in top_spans(results):
            print(f"    {name:42s} {value:10.4g} {calls:8d}")
    for e in errors:
        print(f"  ERROR {e}")
    print("provenance " + json.dumps(info, sort_keys=True))
    return {"correct": not errors and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def smoke(spec):
    """Every workload, briefly, in both modes; checks the result schema."""
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_once(spec, workload, 1, 0.0, trace, smoke=True)
            section = spec["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in section}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}/{trace}: keys {sorted(result)}")
            if got != want:
                problems.append(f"{workload}/{trace}: metrics do not match BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload}/{trace}: not correct")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{workload}/{trace}: non-numeric value")
    print(json.dumps({"smoke": not problems, "problems": problems}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the schema")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = run_once(spec, args.workload, args.seed, seconds, args.trace, smoke=False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
