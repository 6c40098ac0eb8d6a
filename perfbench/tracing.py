"""Spans around octaudio's public functions, installed from outside.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records one span per call: name, start, end, parent span and
op id. Each wrapper is bound at every name a caller looks the function up
by, so `octaudio.nn.train.discriminator` (imported by name) and
`octaudio.nn.autodiff.scatter_axis1` (resolved at call time by a vjp) are
both covered. No octaudio source changes.

Spans stay in memory; `write()` dumps them once at the end, and
`per_op()` folds them into per-op self times, call counts, bytes and flops.
A span's self time is its duration minus the durations of its direct
children.
"""

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

PACKAGE = "octaudio"

# modules whose public functions are wrapped; config and datasets only run
# during set-up and stay unwrapped
TRACED_MODULES = (
    "audio_io",
    "mdct",
    "psycho",
    "spectral",
    "nn.autodiff",
    "nn.layers",
    "nn.model",
    "nn.train",
)

# functions that are not layers of one op: `train` spans every op of a
# training run, so its ops are cut at the progress callback instead
UNWRAPPED = {"nn.train.train"}

# grad() is reported under two names, split by its create_graph argument
GRAD = "nn.autodiff.grad"
GRAD_CREATE_GRAPH = "nn.autodiff.grad_create_graph"

# the span the benchmark opens around one CLI op
CLI_ROOT = "cli.main"

# per-op root span name for training ops, which have no enclosing call
TRAIN_ROOT = "nn.train.train"


def _nbytes(value):
    data = getattr(value, "data", value)
    return int(getattr(data, "nbytes", 0))


def _bytes_in_out(args, kwargs, result):
    return _nbytes(args[0]) + _nbytes(result), 0


def _matmul_flops(args, kwargs, result):
    a = getattr(args[0], "data", args[0])
    return 0, 2 * a.shape[0] * a.shape[1] * result.shape[1]


def _file_read(args, kwargs, result):
    return os.path.getsize(args[0]), 0


def _file_written(args, kwargs, result):
    return os.path.getsize(args[1]), 0


MEASURES = {
    "nn.autodiff.take_axis1": _bytes_in_out,
    "nn.autodiff.scatter_axis1": _bytes_in_out,
    "nn.autodiff.pad_axis": _bytes_in_out,
    "nn.autodiff.matmul": _matmul_flops,
    "audio_io.read_wav": _file_read,
    "audio_io.write_wav": _file_written,
}


def _grad_name(args, kwargs):
    create = kwargs.get("create_graph", args[3] if len(args) > 3 else False)
    return GRAD_CREATE_GRAPH if create else GRAD


class Tracer:
    def __init__(self):
        # one row per finished span:
        # (span id, parent id or -1, name, start, end, op id, bytes, flops)
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self.wrapped = set()

    def wrap(self, fn, name):
        """A wrapper of fn that records one span per call under `name`."""
        spans, stack = self.spans, self._stack
        measure = MEASURES.get(name)
        name_of = _grad_name if name == GRAD else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            nbytes, flops = measure(args, kwargs, result) if measure else (0, 0)
            spans.append((span, parent, name_of(args, kwargs) if name_of else name,
                          start, end, self.op, nbytes, flops))
            return result

        self.wrapped.add(name)
        return wrapper

    def install(self):
        """Wrap every traced function at every name octaudio binds it to."""
        for rel in TRACED_MODULES + ("cli",):
            importlib.import_module(f"{PACKAGE}.{rel}")
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]

        def rebind(fn, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

        for rel in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{rel}"]
            for attr, value in list(vars(module).items()):
                name = f"{rel}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                if inspect.isfunction(value):
                    rebind(value, self.wrap(value, name))
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(value, meth, self.wrap(fn, f"{name}.{meth}"))
        main = sys.modules[f"{PACKAGE}.cli"].main
        rebind(main, self.wrap(main, CLI_ROOT))
        self.wrapped.update((GRAD_CREATE_GRAPH, TRAIN_ROOT))

    def write(self, path):
        """Write all spans as tab-separated rows, once, at the end."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart\tend\top\tbytes\tflops\n")
            for row in self.spans:
                fh.write("\t".join(map(str, row)) + "\n")

    def per_op(self, op_bounds=None):
        """{op id: {name: [self_s, calls, bytes, flops]}} over ops with an id.

        op_bounds maps op id -> (start, end) for ops with no root span
        (training cycles). Their root self time, reported under TRAIN_ROOT,
        is the op time minus the top-level spans inside it.
        """
        child_time = {}
        for span, parent, _, start, end, *_ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        ops = {}
        for op, (start, end) in (op_bounds or {}).items():
            ops[op] = {TRAIN_ROOT: [end - start, 1, 0, 0]}
        for span, parent, name, start, end, op, nbytes, flops in self.spans:
            if op is None:
                continue
            layers = ops.setdefault(op, {})
            row = layers.setdefault(name, [0.0, 0, 0, 0])
            row[0] += (end - start) - child_time.get(span, 0.0)
            row[1] += 1
            row[2] += nbytes
            row[3] += flops
            if parent < 0 and TRAIN_ROOT in layers:
                layers[TRAIN_ROOT][0] -= end - start
        return ops
