"""In-memory span tracing of qffn's public functions, installed from outside.

A ``Tracer`` replaces each traced function at the module attribute where its
caller looks it up (``qffn.training.model_backward``, not
``qffn.encoder.model_backward``), records one span per call, and puts every
original back when the ``installed()`` block ends, also on error. Nothing
under ``src/`` knows about it.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in ``Tracer.spans`` or -1 for a root. One ``Tracer`` records
one job, and its ``run_id`` labels every span when they are written out.
A span's self time is its duration minus the durations of its children;
calls are sequential, so the children never overlap and the self times of a
tree sum to its root's duration.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (span name, module the caller reads the attribute from, attribute path).
# The span name is the module that defines the function, so it names the
# layer doing the work; the lookup site is where the caller resolves it.
TRACED = (
    ("cli.main", "qffn.cli", "main"),
    ("runconfig.build_task_data", "qffn.cli", "build_task_data"),
    ("training.train", "qffn.cli", "train"),
    ("encoder.save_model", "qffn.cli", "save_model"),
    ("diagnostics.grad_variance_probe", "qffn.cli", "grad_variance_probe"),
    ("data.encode_dataset", "qffn.training", "encode_dataset"),
    ("encoder.model_backward", "qffn.training", "model_backward"),
    ("encoder.model_forward", "qffn.training", "model_forward"),
    ("training.adam_step", "qffn.training", "AdamOptimizer.step"),
    ("feedforward.qffn_forward", "qffn.encoder", "qffn_forward"),
    ("feedforward.qffn_backward", "qffn.encoder", "qffn_backward"),
    ("feedforward.classical_forward", "qffn.feedforward", "ClassicalFeedForward.forward"),
    ("feedforward.classical_backward", "qffn.feedforward", "ClassicalFeedForward.backward"),
    ("circuits.pqc_forward", "qffn.feedforward", "pqc_forward"),
    ("circuits.pqc_value_and_gradients", "qffn.feedforward", "pqc_value_and_gradients"),
    ("circuits.pqc_gradients", "qffn.diagnostics", "pqc_gradients"),
)
SPAN_NAMES = tuple(name for name, _, _ in TRACED)
ROOT_SPAN = "cli.main"


def resolve(module_name: str, attr_path: str):
    """The object that owns the attribute, and the attribute's name on it."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{attr_path} is not defined; the trace map is stale")
    return owner, attr


def _circuit_key(config, theta, x):
    return (config, theta.tobytes(), x.tobytes())


@functools.lru_cache(maxsize=None)
def _gradient_rows(config) -> int:
    """Rows one parameter-shift call simulates: 1 + 2 * (P + E * num_qubits).

    Computed from the paper's encoding scheme (one encoding layer for the
    optimized ansatz, one per layer for vanilla), not counted in the kernel.
    """
    from qffn.circuits import Ansatz, pqc_param_count

    encodings = 1 if config.variant is Ansatz.OPTIMIZED else config.num_layers
    return 1 + 2 * (pqc_param_count(config) + encodings * config.num_qubits)


class Tracer:
    """Spans and circuit row counts of one job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._forward_circuits: set = set()

    def wrap(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                if on_call is not None:  # inside the span: its cost is the callee's
                    on_call(*args)
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def _on_forward(self, config, theta, x):
        self.counters["circuits.rows_simulated"] += 1
        self._forward_circuits.add(_circuit_key(config, theta, x))

    def _on_gradient(self, config, theta, x):
        self.counters["circuits.rows_simulated"] += _gradient_rows(config)
        if _circuit_key(config, theta, x) in self._forward_circuits:
            # The baseline row of this call is a circuit a forward call
            # already simulated with the same angles and inputs.
            self.counters["circuits.rows_recomputed"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute; restore the originals on exit."""
        hooks = {
            "circuits.pqc_forward": self._on_forward,
            "circuits.pqc_value_and_gradients": self._on_gradient,
            "circuits.pqc_gradients": self._on_gradient,
        }
        originals = []
        try:
            for name, module_name, attr_path in TRACED:
                owner, attr = resolve(module_name, attr_path)
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per span name: call count, total self time and inclusive durations."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        durations: defaultdict = defaultdict(list)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
            durations[name].append(end - start)
        return {
            name: {"calls": calls[name], "self_s": self_s[name], "durations": durations[name]}
            for name in SPAN_NAMES
        }

    def write_jsonl(self, stream) -> None:
        for index, (name, start, end, parent) in enumerate(self.spans):
            stream.write(
                json.dumps(
                    {"run": self.run_id, "id": index, "name": name,
                     "start": start, "end": end, "parent": parent}
                )
                + "\n"
            )
