"""Metrics exposition over HTTP: ``/metrics``, ``/healthz``, ``/status``.

A tiny stdlib-only (:mod:`http.server`) endpoint serving the active
telemetry out of a running process:

* ``/metrics`` — the registry rendered as Prometheus text (0.0.4), ready
  for ``curl``, a Prometheus scraper, or the ``repro monitor`` dashboard;
* ``/healthz`` — ``200 ok`` while the process is serving (a liveness
  probe, nothing more);
* ``/status`` — a JSON document from the owner's status callable —
  campaign progress for ``sweep --metrics-port``, the supervisor report
  for ``cluster --metrics-port``.

The server runs on a daemon thread (:class:`~http.server.
ThreadingHTTPServer`), binds ``127.0.0.1`` only, and supports ``port=0``
for an ephemeral port (``server.port`` reports the bound one).  Handlers
only *read* snapshots — the endpoint never perturbs the run it watches.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.obs.telemetry import MetricsRegistry, NullRegistry, get_registry

__all__ = ["MetricsServer", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
#: largest POST body read into memory (a campaign file is a few kB)
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    # The serving MetricsServer injects itself on the handler class the
    # ThreadingHTTPServer instantiates per request.
    owner: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET", b"")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            code, reason = ((400, b"malformed Content-Length\n") if length < 0
                            else (413, b"request body too large\n"))
            self._reply(code, "text/plain; charset=utf-8", reason)
            return
        body = self.rfile.read(length) if length else b""
        self._dispatch("POST", body)

    def _dispatch(self, method: str, body: bytes) -> None:
        path, _, query = self.path.partition("?")
        if self.owner.routes is not None:
            handled = self.owner.routes(method, path, query, body)
            if handled is not None:
                self._reply(*handled)
                return
        if method == "GET" and path == "/metrics":
            text = self.owner.registry.render_prometheus().encode("utf-8")
            self._reply(200, PROMETHEUS_CONTENT_TYPE, text)
        elif method == "GET" and path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", b"ok\n")
        elif method == "GET" and path == "/status":
            text = json.dumps(self.owner.status(), indent=2,
                              sort_keys=True).encode("utf-8")
            self._reply(200, "application/json; charset=utf-8", text)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        # Scrapes must not spam the CLI's stderr.
        return None


class MetricsServer:
    """Serve the telemetry registry on ``127.0.0.1:port`` from a daemon
    thread.

    Parameters
    ----------
    port:
        TCP port to bind; ``0`` picks an ephemeral one (read it back from
        :attr:`port` after :meth:`start`).
    registry:
        Registry to expose; defaults to the active one at start time.
    status:
        Zero-argument callable returning the JSON-serialisable ``/status``
        document.  The owner updates whatever state it closes over (a
        campaign-progress dict, a supervisor's ``report()``).
    routes:
        Optional application router tried *before* the built-in
        endpoints: ``routes(method, path, query_string, body)`` returns
        ``(status_code, content_type, body_bytes)`` to handle the
        request, or ``None`` to fall through to ``/metrics`` / ``/healthz``
        / ``/status`` / 404.  This is how the campaign scheduler daemon
        mounts ``POST /campaigns`` etc. on the same listener as its
        telemetry.
    """

    def __init__(self, port: int = 0, *,
                 registry: Optional[Union[MetricsRegistry,
                                          NullRegistry]] = None,
                 status: Optional[Callable[[], Dict[str, Any]]] = None,
                 routes: Optional[Callable[[str, str, str, bytes],
                                           Optional[Tuple[int, str, bytes]]]]
                 = None) -> None:
        self._requested_port = port
        self.registry = registry if registry is not None else get_registry()
        self.status = status if status is not None else (lambda: {})
        self.routes = routes
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "MetricsServer":
        if self._server is not None:
            raise RuntimeError("metrics server already started")
        handler = type("_BoundHandler", (_Handler,), {"owner": self})
        self._server = ThreadingHTTPServer(
            ("127.0.0.1", self._requested_port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-metrics-httpd",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> bool:
        self.stop()
        return False
