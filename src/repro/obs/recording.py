"""The recording implementation of the instrumentation hooks.

One generic recorder interprets :mod:`repro.obs.catalogue`: each hook
updates the registry instruments its entry names and, where the entry
says so, emits a trace record.  One instance is shared by all parties of
a community, so the registry aggregates across the whole deployment;
per-party attribution lives in the trace records.

When a :class:`~repro.obs.live.flight.FlightRecorder` is attached
(``flight=`` or the ``flight`` attribute), the entries marked ``flight``
are also appended to its ring for post-mortem dumps.  Per-message hot
counters (acks, queue depths, raw sends) are not marked, to keep ring
churn proportional to interesting activity.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.obs.catalogue import CATALOGUE, Event
from repro.obs.hooks import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemoryCollector, Tracer

_UPDATE = {"counter": "inc", "histogram": "observe", "gauge": "set"}


class RecordingInstrumentation(Instrumentation):
    """Hook implementation recording into a registry and a tracer."""

    enabled = True

    def __init__(self, registry: "MetricsRegistry | None" = None,
                 tracer: "Tracer | None" = None,
                 collect: bool = False,
                 flight=None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.flight = flight
        self.collector: "Optional[InMemoryCollector]" = None
        if collect:
            self.collector = InMemoryCollector()
            self.tracer.add_exporter(self.collector)
        # The one bound-instrument cache: (hook, label values) -> the
        # (update method, argument index) pairs that firing performs.
        # Filled on first fire, so an instrument only exists once its
        # hook has fired with the labels and conditions that select it
        # (snapshots stay free of zero-value noise), and a hot hook
        # skips name formatting and registry lookups from then on.
        self._bound: "dict[object, tuple]" = {}

    def _bind(self, event: Event, key, args: tuple) -> tuple:
        values = dict(zip(event.params, args))
        updates = tuple(
            (getattr(getattr(self.registry, metric.kind)(
                metric.name_for(values)), _UPDATE[metric.kind]),
             event.params.index(metric.value) if metric.value else -1)
            for metric in event.metrics if metric.applies(values))
        self._bound[key] = updates
        return updates

    def report(self) -> str:
        from repro.obs.report import render_report

        return render_report(self.registry)


def _recorder(event: Event):
    params, arity, name = event.params, len(event.params), event.hook
    labels = sorted({params.index(label) for metric in event.metrics
                     for label in metric.labels()})
    select = itemgetter(*labels) if labels else None
    trace, flight = event.trace, event.flight
    trace_fields = [(f, params.index(f), event.trace_as.get(f))
                    for f in event.trace_fields]
    gate = params.index(event.trace_when) if event.trace_when else -1
    seconds = params.index("seconds") if event.span else -1

    def hook(self, *args) -> None:
        if len(args) != arity:
            raise TypeError(f"{event.signature} got {len(args)} arguments")
        key = name if select is None else (name, select(args))
        updates = self._bound.get(key)
        if updates is None:
            updates = self._bind(event, key, args)
        for update, index in updates:
            if index < 0:
                update()
            else:
                update(args[index])
        if trace and self.tracer.exporters and (gate < 0 or args[gate]):
            attrs = {field: args[i] if render is None else render(args[i])
                     for field, i, render in trace_fields}
            if seconds < 0:
                self.tracer.event(trace, **attrs)
            else:
                self.tracer.span_end(trace, args[seconds], **attrs)
        if flight and self.flight is not None:
            fields = dict(zip(params, args))
            for field, render in event.flight_as.items():
                fields[field] = render(fields[field])
            self.flight.record(flight, **fields)

    hook.__name__ = name
    return hook


for _entry in CATALOGUE:
    setattr(RecordingInstrumentation, _entry.hook, _recorder(_entry))
