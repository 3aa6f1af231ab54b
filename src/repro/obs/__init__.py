"""Unified observability: tracing, metrics, and cross-runtime collection.

The measurement substrate under the paper's §5 phenomena: nested spans
with attributes per participant (:mod:`repro.obs.tracer`), a snapshot-able
:class:`MetricsRegistry` (:mod:`repro.obs.metrics`), per-worker JSONL
trace shards merged into one Perfetto-loadable timeline with RPC spans
stitched caller↔callee (:mod:`repro.obs.merge`), and per-phase breakdown
tables (:mod:`repro.obs.report`, surfaced as ``repro report``).

Tracing is compiled into the pipeline permanently; the disabled path is
the shared :data:`NULL_TRACER` whose spans are no-ops.
"""

from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    fold_statuses,
)
from .journal import (  # noqa: F401
    EVENT_KINDS,
    EventJournal,
    JournalEvent,
    journal_gaps,
    read_journal,
)
from .openmetrics import (  # noqa: F401
    MetricsHTTPServer,
    render_openmetrics,
    validate_openmetrics,
)
from .tracer import (  # noqa: F401
    NULL_SPAN,
    NULL_TRACER,
    SCHEMA_VERSION,
    Span,
    SpanRecord,
    Tracer,
    stopwatch,
)
from .merge import (  # noqa: F401
    chrome_events,
    merge_shards,
    read_shard,
    read_shards,
    validate_chrome_trace,
)
from .report import (  # noqa: F401
    load_spans,
    phase_breakdown,
    render_report,
)
