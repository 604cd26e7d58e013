"""The layers of a traced run: which public ``repro`` calls are timed, and as what.

:func:`install` replaces each target below with a :class:`~perfbench.spans.Recorder`
wrapper.  A module-level function is rebound in every loaded ``repro``
module that holds it (the names callers resolve at call time), except
``descending_orders``, which is timed only as :mod:`repro.core.vectorized`
resolves it.  Methods are replaced on their class.  The pool's worker
processes fork after installation, so they inherit the wrappers; each
chunk's spans travel back to the parent inside the chunk's metrics
snapshot and are moved into the parent's recorder by the ``map_chunks``
wrapper, which also times the parent's blocked waits.

Layer names are the ``repro`` module a call belongs to; ``perfbench/README.md``
lists what each one should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Iterator, Sequence

from perfbench.spans import Recorder

__all__ = ["LAYERS", "SPANS_KEY", "install"]

#: Snapshot key under which a worker chunk ships its spans to the parent.
SPANS_KEY = "perfbench.spans"


def _mode_of_spec(args: tuple, kwargs: dict) -> str:
    return args[0].mode


def _condense_or_service(open_names: Sequence[str]) -> str:
    """``create_cohort`` called inside ``Matchmaker.join`` is a condensation."""
    return "matchmaking.condense" if "matchmaking.matchmaker" in open_names else "serve.service"


_SERVICE_OPS = (
    "advance_rounds",
    "get_cohort",
    "delete_cohort",
    "join",
    "participant_status",
    "leave_queue",
    "matchmaking_snapshot",
    "healthz",
)

_QUEUE_OPS = (
    "register_spec",
    "depth",
    "pending_count",
    "pending",
    "join",
    "get",
    "describe",
    "resolve_matched",
    "expire_spec",
    "leave",
)

#: ``(module:attribute, layer, options)``; an attribute with a dot is a method.
_TARGETS: tuple[tuple[str, str, dict], ...] = (
    ("repro.experiments.runner:draw_skills", "data", {}),
    ("repro.core.vectorized:descending_orders", "core.batch.sort", {"only_here": True}),
    ("repro.engine.stacked:update_star_many", "engine.stacked.update_star", {}),
    ("repro.engine.stacked:update_clique_many", "engine.stacked.update_clique", {}),
    ("repro.engine.stacked:StackedRoundKernel.step", "engine.stacked.step", {}),
    ("repro.core.vectorized:simulate_many", "core.vectorized.record", {}),
    ("repro.experiments.runner:run_spec", "experiments.runner", {"tag": _mode_of_spec}),
    ("repro.core.batch:SharedMatrix.create", "experiments.parallel.share", {}),
    ("repro.registry:PolicySpec.parse", "registry", {}),
    ("repro.registry:build_policy", "registry", {}),
    ("repro.serve.http:_Handler.do_GET", "serve.http.handler", {}),
    ("repro.serve.http:_Handler.do_POST", "serve.http.handler", {}),
    ("repro.serve.http:_Handler.do_DELETE", "serve.http.handler", {}),
    (
        "repro.serve.service:GroupingService.create_cohort",
        "serve.service",
        {"rename": _condense_or_service},
    ),
    *(
        (f"repro.serve.service:GroupingService.{op}", "serve.service", {})
        for op in _SERVICE_OPS
    ),
    ("repro.serve.sessions:SessionStore.add", "serve.sessions", {}),
    ("repro.serve.sessions:SessionStore.get", "serve.sessions", {}),
    ("repro.serve.sessions:SessionStore.delete", "serve.sessions", {}),
    ("repro.serve.sessions:CohortSession.describe", "serve.sessions", {}),
    ("repro.serve.sessions:CohortSession.advance_round", "serve.sessions.round", {}),
    ("repro.serve.scheduler:BatchScheduler.step_rounds", "serve.scheduler", {}),
    (
        "repro.serve.scheduler:BatchScheduler.submit_step",
        "serve.scheduler",
        {"tag": "submit_step"},
    ),
    ("repro.serve.cache:GroupingCache.propose", "serve.cache", {}),
    ("repro.engine.kernel:RoundKernel.step", "engine.kernel", {}),
    ("repro.core.interactions:Star.update", "core.interactions", {}),
    ("repro.core.interactions:Clique.update", "core.interactions", {}),
    ("repro.matchmaking.matchmaker:Matchmaker.join", "matchmaking.matchmaker", {}),
    ("repro.matchmaking.matchmaker:Matchmaker.status", "matchmaking.matchmaker", {}),
    *(
        (f"repro.matchmaking.queue:JoinQueue.{op}", "matchmaking.queue", {})
        for op in _QUEUE_OPS
    ),
)

#: Every layer a table can report, in path order.  The first group runs in
#: the offline workload's parent, the second in its pool workers, the
#: third on the serving paths; ``registry`` serves all three.
LAYERS: tuple[str, ...] = (
    "loadgen.client",
    "experiments.runner",
    "data",
    "experiments.parallel.share",
    "experiments.parallel.wait",
    "experiments.parallel.idle",
    "core.vectorized.record",
    "engine.stacked.step",
    "core.vectorized.propose",
    "core.batch.sort",
    "engine.stacked.update_star",
    "engine.stacked.update_clique",
    "registry",
    "serve.http.transport",
    "serve.http.handler",
    "serve.service",
    "serve.sessions",
    "serve.sessions.round",
    "serve.scheduler",
    "serve.cache",
    "engine.kernel",
    "core.interactions",
    "matchmaking.matchmaker",
    "matchmaking.queue",
    "matchmaking.condense",
)


def _import_all() -> None:
    for name in (
        "repro.cli",
        "repro.experiments.parallel",
        "repro.experiments.runner",
        "repro.core.vectorized",
        "repro.engine.stacked",
        "repro.engine.kernel",
        "repro.serve.http",
        "repro.serve.service",
        "repro.serve.scheduler",
        "repro.matchmaking.matchmaker",
    ):
        importlib.import_module(name)


def _rebind(original: Any, replacement: Any) -> None:
    """Point every loaded ``repro`` module-level name bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _install_target(recorder: Recorder, where: str, layer: str, options: dict) -> None:
    module_name, attribute = where.split(":")
    module = sys.modules[module_name]
    wrap_options = {key: options[key] for key in ("tag", "rename") if key in options}
    if "." not in attribute:
        original = getattr(module, attribute)
        wrapped = recorder.wrap(original, layer, **wrap_options)
        if options.get("only_here"):
            setattr(module, attribute, wrapped)
        else:
            _rebind(original, wrapped)
        return
    class_name, method = attribute.split(".")
    cls = getattr(module, class_name)
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(recorder.wrap(raw.__func__, layer, **wrap_options)))
    else:
        setattr(cls, method, recorder.wrap(raw, layer, **wrap_options))


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _wrap_map_chunks(recorder: Recorder, original: Callable[..., Iterator[Any]]) -> Callable:
    """Time the parent's blocked waits and collect the workers' chunk spans."""

    @functools.wraps(original)
    def map_chunks(self: Any, fn: Any, payloads: Any) -> Iterator[Any]:
        results = original(self, fn, payloads)
        while True:
            with recorder.span("experiments.parallel.wait"):
                try:
                    item = next(results)
                except StopIteration:
                    return
            snapshot = item[-1]
            if isinstance(snapshot, dict):
                recorder.spans.extend(snapshot.pop(SPANS_KEY, ()))
            yield item

    return map_chunks


def _wrap_chunk(recorder: Recorder, original: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """The worker side: one span per chunk, shipped home with the chunk's result."""

    @functools.wraps(original)
    def run_units_chunk(payload: Any) -> Any:
        recorder.adopt_fork()
        mark = len(recorder.spans)
        specs, units = payload[0], payload[1]
        with recorder.span("experiments.parallel.chunk", tag=specs[units[0][0]].mode):
            pid, results, snapshot = original(payload)
        snapshot[SPANS_KEY] = recorder.take(mark)
        return pid, results, snapshot

    return run_units_chunk


def install(recorder: Recorder) -> None:
    """Wrap every layer target in this process (idempotence is not supported)."""
    _import_all()
    for where, layer, options in _TARGETS:
        _install_target(recorder, where, layer, options)
    vectorized = sys.modules["repro.core.vectorized"]
    for cls in _subclasses(vectorized.VectorizedPolicy):
        if "propose_many" in cls.__dict__:
            cls.propose_many = recorder.wrap(cls.__dict__["propose_many"], "core.vectorized.propose")
    parallel = sys.modules["repro.experiments.parallel"]
    parallel.WorkerPool.map_chunks = _wrap_map_chunks(recorder, parallel.WorkerPool.map_chunks)
    parallel._run_units_chunk = _wrap_chunk(recorder, parallel._run_units_chunk)
