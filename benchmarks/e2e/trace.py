"""Outside-in layer tracer: spans around each layer's public entry points.

The end-to-end metrics are measured with nothing installed.  A separate
traced run calls :meth:`Tracer.install`, which wraps the callables named
in :data:`LAYERS` *from here* — class attributes are replaced on the
class, module-level functions in every loaded ``repro`` module that holds
a reference (``from x import f`` copies the binding, so patching only the
defining module would miss the callers).  Nothing under ``src/`` knows it
is being traced; the repo's own telemetry stays off.

Accounting
----------
Each thread keeps a stack of open spans.  On exit a span adds its
duration to its parent's child time, and ``duration - child time`` to its
target's *self* time, so nested and recursive spans of one layer sum to
the outermost duration and a layer never counts time spent in a layer it
called.  A layer's numbers are the sums over its targets.

Spans are kept in memory as tuples and written as JSON lines by
:meth:`Tracer.write`.  A target stops storing spans once it has been hit
``HOT_CALLS`` times — from then on it only aggregates count and time in
the wrapper, which is what keeps a 35k-decision evaluation pass traceable.

Roots and waiting
-----------------
A span with no parent on its thread is a *root* and also records thread
CPU time.  ``wall - cpu`` of the roots on the thread that started the
unit is time that thread spent off-CPU (``wait_s``): blocked on a socket
for the serve workload, preempted by the host for the others.  Roots on
any other thread (the in-process serve daemon) are summed as ``side_s``.
The serve workload turns those two into the ``serve.server`` layer, which
no wrapper can reach directly.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from pathlib import Path
from threading import get_ident
from time import perf_counter, thread_time

__all__ = [
    "LAYERS",
    "DERIVED_LAYERS",
    "HOT_CALLS",
    "Tracer",
    "layer_metric_names",
]

#: a target stops storing spans after this many hits (it keeps aggregating)
HOT_CALLS = 10_000

#: layer -> wrap targets.  ``module:Class.method`` patches the class,
#: ``module:function`` patches every ``repro`` module holding the function,
#: ``module:DICT.*.method`` patches ``method`` on every class in a registry
#: dict, ``module:DICT.*`` wraps the callables of a ``name -> (fn, flag)``
#: registry.  Layers are the repo's modules; targets are public names only.
LAYERS: dict[str, tuple[str, ...]] = {
    "rl.trainer": ("repro.rl.trainer:Trainer.run_epoch",),
    "workloads": (
        "repro.workloads.archive:load_trace",
        "repro.workloads.sampler:SequenceSampler.sample",
        "repro.workloads.sampler:SequenceSampler.sample_many",
        "repro.scenarios.core:Scenario.build_trace",
    ),
    "sim.vec_env": (
        "repro.sim.vec_env:VecSchedGym.reset",
        "repro.sim.vec_env:VecSchedGym.step",
    ),
    "sim.env": (
        "repro.sim.env:SchedGym.reset",
        "repro.sim.env:SchedGym.step",
        "repro.sim.env:build_observation",
    ),
    "sim.core": (
        "repro.sim.core:EngineCore.advance_until_decision",
        "repro.sim.core:EngineCore.commit",
        "repro.sim.core:OnlineSchedulingEngine.submit",
        "repro.sim.core:OnlineSchedulingEngine.advance",
        "repro.sim.core:OnlineSchedulingEngine.next_decision",
        "repro.sim.core:OnlineSchedulingEngine.commit",
        "repro.sim.core:OnlineSchedulingEngine.drain",
        "repro.sim.core:OnlineSchedulingEngine.take_completed",
    ),
    "sim.simulator": ("repro.sim.simulator:run_scheduler",),
    "sim.metrics": ("repro.sim.metrics:METRICS.*",),
    "api": ("repro.api:scenario_matrix",),
    "rl.ppo.act": (
        "repro.rl.ppo:PPOAgent.act_batch",
        "repro.rl.ppo:PPOAgent.value_batch",
        "repro.rl.ppo:PPOAgent.act_greedy_batch",
        "repro.rl.ppo:PPOAgent.episode_log_probs",
    ),
    "rl.buffer": (
        "repro.rl.buffer:TrajectoryBuffer.store_batch",
        "repro.rl.buffer:TrajectoryBuffer.staged_obs",
        "repro.rl.buffer:TrajectoryBuffer.staged_masks",
        "repro.rl.buffer:TrajectoryBuffer.staged_actions",
        "repro.rl.buffer:TrajectoryBuffer.end_slot",
        "repro.rl.buffer:TrajectoryBuffer.get",
    ),
    "rl.ppo.update": ("repro.rl.ppo:PPOAgent.update",),
    "nn": (
        "repro.nn.tensor:Tensor.backward",
        "repro.nn.optim:Adam.step",
        "repro.nn.optim:clip_grad_norm",
        "repro.nn.networks:KernelPolicy.forward",
        "repro.nn.networks:KernelPolicy.score_rows",
        "repro.nn.networks:KernelPolicy.score_rows_grad",
        "repro.nn.networks:ValueMLP.forward",
    ),
    "runtime.sharded_env": (
        "repro.runtime.sharded_env:ShardedVecSchedGym.reset",
        "repro.runtime.sharded_env:ShardedVecSchedGym.step",
    ),
    "runtime.actor": (
        "repro.runtime.actor:ActorRuntime.submit",
        "repro.runtime.actor:ActorRuntime.drain",
        "repro.runtime.actor:ActorRuntime.push_weights",
    ),
    "schedulers.heuristics": (
        "repro.schedulers.heuristics:ALL_HEURISTICS.*.select",
    ),
    "schedulers.rl_scheduler": (
        "repro.schedulers.rl_scheduler:RLSchedulerPolicy.select",
        "repro.schedulers.rl_scheduler:RLSchedulerPolicy.forget_jobs",
        "repro.schedulers.rl_scheduler:DeployFeatureCache.rows",
    ),
    "serve.client": (
        "repro.serve.client:ServeClient.request",
        "repro.serve.client:ServeClient.submit",
        "repro.serve.client:ServeClient.status",
        "repro.serve.client:ServeClient.stats",
    ),
    "serve.protocol": (
        "repro.serve.protocol:encode",
        "repro.serve.protocol:decode",
        "repro.serve.protocol:job_from_wire",
        "repro.serve.protocol:job_to_wire",
    ),
    "serve.service": (
        "repro.serve.service:SchedulerRouter.dispatch",
        "repro.serve.service:SchedulerService.submit",
        "repro.serve.service:SchedulerService.status",
        "repro.serve.service:SchedulerService.stats",
        "repro.serve.service:SchedulerService.pump",
    ),
}

#: layers no wrapper can reach; a workload's ``derive_layers`` fills them
DERIVED_LAYERS = ("serve.server",)

def layer_metric_names() -> list[str]:
    """Every ``<layer>.self_s|calls|share`` name the tracer reports."""
    return [
        f"{layer}.{field}"
        for layer in (*LAYERS, *DERIVED_LAYERS)
        for field in ("self_s", "calls", "share")
    ]


class _Target:
    """Aggregates of one wrapped callable."""

    __slots__ = ("name", "layer", "calls", "total", "self_s", "stored")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.stored = 0


class Tracer:
    """Installs the wrappers, holds spans and aggregates, writes the trace."""

    def __init__(self, layers: dict[str, tuple[str, ...]] | None = None):
        self.layers = LAYERS if layers is None else layers
        self.targets: dict[str, _Target] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        #: id shared by every span of the current timed unit; < 0 = idle,
        #: wrappers pass straight through
        self.unit = -1
        self.unit_wall = 0.0      # summed wall time of the traced units
        self.n_units = 0
        self.wait_s = 0.0         # main-thread root spans: wall - cpu
        self.side_s = 0.0         # root spans on other threads
        self.decisions = 0
        self.pending_sum = 0
        self.pending_n = 0
        self.pending_max = 0
        self._local = threading.local()
        self._main = get_ident()
        self._main_root = 0       # id of the open root span on the main thread
        self._next_id = 0
        self._patched: list[tuple[object, object, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable target; a missing one is recorded and
        reported on stderr, never raised."""
        for layer, specs in self.layers.items():
            for spec in specs:
                try:
                    self._install(layer, spec)
                except (ImportError, AttributeError, KeyError) as exc:
                    self.missing.append(spec)
                    print(
                        f"warning: trace target {spec} is gone "
                        f"({type(exc).__name__}: {exc}); layer {layer} "
                        "is reported without it",
                        file=sys.stderr,
                    )

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            elif original is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def _install(self, layer: str, spec: str) -> None:
        module_name, _, path = spec.partition(":")
        module = importlib.import_module(module_name)
        parts = path.split(".")
        head = getattr(module, parts[0])
        if len(parts) == 1:                       # module-level function
            wrapped = self._wrap(layer, spec, head)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "repro":
                    continue
                for name, value in list(vars(mod).items()):
                    if value is head:
                        self._set(mod, name, wrapped)
        elif parts[1] != "*":                     # Class.method
            self._set(head, parts[1],
                      self._wrap(layer, spec, getattr(head, parts[1])))
        elif len(parts) == 3:                     # REGISTRY.*.method
            for cls in dict.fromkeys(head.values()):
                name = f"{module_name}:{cls.__name__}.{parts[2]}"
                self._set(cls, parts[2],
                          self._wrap(layer, name, getattr(cls, parts[2])))
        else:                                     # REGISTRY.* of (fn, flag)
            for key, (fn, *rest) in list(head.items()):
                name = f"{module_name}:{parts[0]}[{key}]"
                self._patched.append((head, key, head[key]))
                head[key] = (self._wrap(layer, name, fn), *rest)

    def _set(self, owner, name: str, value) -> None:
        # an inherited attribute is uninstalled by deleting the override
        self._patched.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, value)

    # -- the wrapper ----------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        target = self.targets[name] = _Target(name, layer)
        tracer = self
        local = self._local
        spans = self.spans
        attr = name.rpartition(".")[2]
        # the two counts taken at span boundaries: queue depth at every
        # scheduler select(), decisions at every outermost engine commit()
        probe_pending = attr == "select"
        probe_decision = attr == "commit"

        def traced(*args, **kwargs):
            unit = tracer.unit
            if unit < 0:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            tracer._next_id = span_id = tracer._next_id + 1
            on_main = get_ident() == tracer._main
            is_root = not stack
            if is_root:
                parent_id, parent_layer = 0, None
                cpu0 = thread_time()
                if on_main:
                    tracer._main_root = span_id
            else:
                parent_id, parent_layer = stack[-1][1], stack[-1][2]
            if probe_pending:
                depth = len(args[1] if len(args) > 1 else kwargs["pending"])
                tracer.pending_sum += depth
                tracer.pending_n += 1
                if depth > tracer.pending_max:
                    tracer.pending_max = depth
            elif probe_decision and parent_layer != layer:
                # the override's super().commit and a resumed stall are
                # nested in sim.core spans: one decision, counted once
                tracer.decisions += 1
            frame = [0.0, span_id, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                target.calls += 1
                target.total += duration
                target.self_s += duration - frame[0]
                if not is_root:
                    stack[-1][0] += duration
                elif on_main:
                    tracer.wait_s += max(
                        duration - (thread_time() - cpu0), 0.0
                    )
                else:
                    tracer.side_s += duration
                if target.stored < HOT_CALLS:
                    target.stored += 1
                    spans.append((
                        span_id, name, t0, t1, parent_id,
                        tracer._main_root, unit, on_main,
                    ))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        return traced

    # -- unit bracketing ------------------------------------------------
    def begin_unit(self) -> None:
        self._main = get_ident()
        self.unit = self.n_units

    def end_unit(self, wall: float) -> None:
        self.unit = -1
        self.n_units += 1
        self.unit_wall += wall

    # -- results --------------------------------------------------------
    def layer_table(self) -> dict[str, dict | None]:
        """``layer -> {self_s, calls}`` summed over the traced units; a
        layer none of whose targets could be wrapped is ``None``."""
        table: dict[str, dict | None] = {}
        for layer in self.layers:
            mine = [t for t in self.targets.values() if t.layer == layer]
            table[layer] = (
                {
                    "self_s": sum(t.self_s for t in mine),
                    "calls": sum(t.calls for t in mine),
                }
                if mine else None
            )
        return table

    def inclusive(self, *suffixes: str) -> float:
        """Summed inclusive time of the targets whose name ends with one
        of ``suffixes`` (e.g. ``Tensor.backward``)."""
        return sum(
            t.total for t in self.targets.values()
            if t.name.endswith(suffixes)
        )

    def write(self, path: Path, meta: dict) -> None:
        """One header line, one line per stored span, one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"kind": "header", **meta})]
        lines.extend(
            json.dumps({
                "kind": "span", "id": sid, "name": name, "start": t0,
                "end": t1, "parent": parent, "root": root, "unit": unit,
                "main_thread": main,
            })
            for sid, name, t0, t1, parent, root, unit, main in self.spans
        )
        lines.append(json.dumps({
            "kind": "summary",
            "units": self.n_units,
            "unit_wall_s": self.unit_wall,
            "wait_s": self.wait_s,
            "side_s": self.side_s,
            "missing": self.missing,
            "targets": {
                t.name: {"layer": t.layer, "calls": t.calls,
                         "total_s": t.total, "self_s": t.self_s,
                         "spans_stored": t.stored}
                for t in self.targets.values()
            },
        }))
        path.write_text("\n".join(lines) + "\n")


#: marker: the patched attribute was inherited, so uninstall deletes it
_INHERITED = object()
