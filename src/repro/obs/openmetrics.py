"""OpenMetrics/Prometheus text exposition for the metrics registry.

``render_openmetrics`` turns a ``MetricsRegistry.snapshot()`` into the
Prometheus text format (OpenMetrics-flavoured: typed families, counters
with a ``_total`` suffix, histograms as summaries with ``quantile``
labels, terminated by ``# EOF``).  Internal per-worker gauges named
``worker<N>.<stat>`` become one labelled family per stat —
``s2_worker_bdd_nodes{worker="3"}`` — so a fleet of any size scrapes
into a fixed set of series names.

``validate_openmetrics`` is the strict structural check used by tests
and the CI serve-chaos scrape; ``MetricsHTTPServer`` is the tiny
stdlib-only scrape endpoint behind ``--metrics-listen`` (paths:
``/metrics``, ``/eventsz``, ``/statusz``, ``/healthz``).
"""

from __future__ import annotations

import functools
import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

_WORKER_GAUGE = re.compile(r"^worker(\d+)\.(.+)$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_FAMILY_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$"
)
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


def sanitize_metric_name(name: str, namespace: str = "s2") -> str:
    """Map an internal dotted metric name onto a legal family name."""
    cleaned = _BAD_CHARS.sub("_", name)
    if not cleaned or not _FAMILY_NAME.match(cleaned):
        cleaned = "_" + cleaned
    return f"{namespace}_{cleaned}"


def _fmt(value: Any) -> str:
    """Prometheus float formatting (integers stay integral)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "0"
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels(pairs: Dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(pairs.items())
    )
    return "{" + inner + "}"


@functools.lru_cache(maxsize=4096)
def _gauge_series(name: str, namespace: str) -> Tuple[str, str]:
    """A gauge's family and rendered labels: ``worker<N>.<stat>`` becomes
    the ``worker_<stat>`` family labelled ``worker="N"``.  Cached, since
    every scrape renders the same names."""
    match = _WORKER_GAUGE.match(name)
    if match is None:
        return sanitize_metric_name(name, namespace), ""
    return (
        sanitize_metric_name("worker_" + match.group(2), namespace),
        _labels({"worker": match.group(1)}),
    )


def render_openmetrics(
    snapshot: Dict[str, Any], namespace: str = "s2"
) -> str:
    """Render a registry snapshot as Prometheus/OpenMetrics text."""
    # family name -> (type, [(labels, sample-suffix, value), ...])
    families: "Dict[str, Tuple[str, List[Tuple[str, str, Any]]]]"
    families = {}

    def family(name: str, kind: str):
        found = families.get(name)
        if found is not None and found[0] != kind:
            # The registry allows a counter and a gauge to share a name;
            # a Prometheus family cannot, so the later kind gets a
            # disambiguating suffix.
            name = f"{name}_{kind}"
            found = families.get(name)
        if found is None:
            found = (kind, [])
            families[name] = found
        return found[1]

    for name, value in snapshot.get("counters", {}).items():
        fam = sanitize_metric_name(name, namespace)
        family(fam, "counter").append(("", "_total", value))

    for name, payload in snapshot.get("gauges", {}).items():
        value = (
            payload.get("value", 0)
            if isinstance(payload, dict)
            else payload
        )
        fam, labels = _gauge_series(name, namespace)
        family(fam, "gauge").append((labels, "", value))

    for name, summary in snapshot.get("histograms", {}).items():
        fam = sanitize_metric_name(name, namespace)
        samples = family(fam, "summary")
        count = summary.get("count", 0)
        samples.append(("", "_count", count))
        samples.append(("", "_sum", summary.get("sum", 0.0)))
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if key in summary:
                samples.append(
                    (_labels({"quantile": quantile}), "", summary[key])
                )

    lines: List[str] = []
    for fam in sorted(families):
        kind, samples = families[fam]
        lines.append(f"# TYPE {fam} {kind}")
        for labels, suffix, value in samples:
            lines.append(f"{fam}{suffix}{labels} {_fmt(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> List[str]:
    """Structural problems in an exposition payload (empty = valid).

    Checks the properties a Prometheus scraper actually depends on:
    parseable sample lines, every family declared by a ``# TYPE`` before
    its samples, no duplicate declarations, counters suffixed
    ``_total``, a single terminating ``# EOF`` with nothing after it.
    """
    problems: List[str] = []
    if not text.endswith("\n"):
        problems.append("payload does not end with a newline")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    declared: Dict[str, str] = {}
    saw_eof = False
    for lineno, line in enumerate(lines, start=1):
        if saw_eof:
            problems.append(f"line {lineno}: content after # EOF")
            break
        if line == "# EOF":
            saw_eof = True
            continue
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("#"):
            parts = line.split(" ")
            if len(parts) >= 4 and parts[1] == "TYPE":
                fam, kind = parts[2], parts[3]
                if not _FAMILY_NAME.match(fam):
                    problems.append(
                        f"line {lineno}: bad family name {fam!r}"
                    )
                if kind not in _TYPES:
                    problems.append(
                        f"line {lineno}: unknown type {kind!r}"
                    )
                if fam in declared:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {fam}"
                    )
                declared[fam] = kind
            elif len(parts) >= 2 and parts[1] in ("HELP", "UNIT"):
                continue
            else:
                problems.append(f"line {lineno}: malformed comment")
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        value = match.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {lineno}: non-numeric value {value!r}"
                )
        fam = name
        for suffix in ("_total", "_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                fam = name[: -len(suffix)]
                break
        kind = declared.get(fam)
        if kind is None:
            problems.append(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
            continue
        if kind == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {lineno}: counter sample {name!r} lacks _total"
            )
    if not saw_eof:
        problems.append("missing # EOF terminator")
    return problems


class MetricsHTTPServer:
    """Stdlib scrape endpoint for live metrics, events, and status.

    Serves ``/metrics`` (OpenMetrics text), ``/eventsz?since=N&limit=M``
    (JSON journal replay, when a journal is attached), ``/statusz``
    (JSON status payload, when a status callable is given) and
    ``/healthz`` (always ``{"ok": true}``) on a daemon thread.  Binds
    ``host:port`` — port 0 picks an ephemeral port, read back via
    ``self.port``.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], Dict[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
        journal: Optional[Any] = None,
        status_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        namespace: str = "s2",
    ) -> None:
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *_args) -> None:  # silence stderr
                pass

            def _send(
                self, code: int, body: bytes, content_type: str
            ) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                try:
                    parsed = urlparse(self.path)
                    route = parsed.path.rstrip("/") or "/"
                    if route == "/metrics":
                        text = render_openmetrics(
                            outer.snapshot_fn(), namespace=outer.namespace
                        )
                        self._send(
                            200,
                            text.encode("utf-8"),
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    elif route == "/eventsz" and outer.journal is not None:
                        query = parse_qs(parsed.query)
                        since = int(query.get("since", ["0"])[0])
                        raw_limit = query.get("limit", [None])[0]
                        limit = (
                            int(raw_limit) if raw_limit is not None else None
                        )
                        payload = {
                            "journal": outer.journal.describe(),
                            "events": [
                                e.to_dict()
                                for e in outer.journal.events(
                                    since=since, limit=limit
                                )
                            ],
                        }
                        self._send(
                            200,
                            json.dumps(payload).encode("utf-8"),
                            "application/json",
                        )
                    elif route == "/statusz" and outer.status_fn is not None:
                        self._send(
                            200,
                            json.dumps(
                                outer.status_fn(), default=str
                            ).encode("utf-8"),
                            "application/json",
                        )
                    elif route == "/healthz":
                        self._send(
                            200, b'{"ok": true}', "application/json"
                        )
                    else:
                        self._send(404, b"not found\n", "text/plain")
                except (BrokenPipeError, ConnectionResetError):
                    pass
                except Exception as exc:  # never kill the serving thread
                    try:
                        self._send(
                            500,
                            f"error: {exc}\n".encode("utf-8"),
                            "text/plain",
                        )
                    except OSError:
                        pass

        self.snapshot_fn = snapshot_fn
        self.journal = journal
        self.status_fn = status_fn
        self.namespace = namespace
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
