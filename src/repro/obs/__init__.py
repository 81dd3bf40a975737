"""``repro.obs`` — structured tracing and metrics for the middleware.

Importing the package loads only the hook names of :mod:`repro.obs.hooks`
(and :mod:`repro.obs.catalogue`, which they are derived from): every
layer holds an :class:`Instrumentation`.  Each other part loads when a
caller imports it — the CLI commands, :meth:`OrganisationNode.live`,
tests:

* :mod:`repro.obs.catalogue` — every observable event described once
  as data; the hook interface, the recorder, the tables in
  ``docs/OBSERVABILITY.md`` and the report's section order derive from it;
* :mod:`repro.obs.hooks` — the no-op :class:`Instrumentation` hook
  interface and :data:`NULL_INSTRUMENTATION`, the default;
* :mod:`repro.obs.recording` — :class:`RecordingInstrumentation`, the
  generic recorder that interprets the catalogue;
* :mod:`repro.obs.report` — the ``obs-report`` text;
* :mod:`repro.obs.metrics` — counters, gauges and streaming histograms;
* :mod:`repro.obs.trace` — the :class:`Tracer` and the cross-party
  trace context (loaded by every party, which carries one);
* :mod:`repro.obs.merge` — per-party trace files merged into one
  Lamport-ordered timeline;
* :mod:`repro.obs.audit` — evidence forensics behind ``repro audit``;
* :mod:`repro.obs.live` — the live telemetry plane: HTTP export
  endpoint, health watchdogs, flight recorder.  It brings
  ``http.server`` and ``ssl``, so nothing loads it until a node goes
  live.
"""

from repro.obs.hooks import (
    NULL_INSTRUMENTATION,
    PHASE_M1,
    PHASE_M2,
    PHASE_M3,
    Instrumentation,
    approx_size,
    approx_size_cached,
)

__all__ = [
    "NULL_INSTRUMENTATION",
    "PHASE_M1",
    "PHASE_M2",
    "PHASE_M3",
    "Instrumentation",
    "approx_size",
    "approx_size_cached",
]
