"""The warm template process the cluster's nodes are forked from.

Each calling process owns one long-lived template: ``python -m
repro.runtime.cluster.node`` with the node's whole import graph loaded,
single-threaded, blocked on its request pipe.  Per node the supervisor
sends it ``{config, log path, environment}`` and it ``os.fork()``\\ s, so a
scenario pays for no interpreter start and no import.  (Forking from the
supervising process itself would be unsafe: it runs accept, monitor and
reader threads.)  The template is the nodes' parent, so exit codes are
polled through it; ``SIGKILL`` goes straight to the PID.

Both ends of the pipe live here — :func:`serve` is the template's loop,
:class:`Template` its owner's handle — one JSON object per line each way,
strictly request → reply.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Dict, Optional, Set

from repro.kernels import set_backend

__all__ = ["NodeProcess", "TEMPLATE", "Template", "TemplateError", "serve"]


class TemplateError(RuntimeError):
    """The template process failed to start, died, or refused a request."""


# --------------------------------------------------------------------------- #
# Template side
# --------------------------------------------------------------------------- #
def _become_node(run_node: Callable[[Dict], int], request: Dict) -> None:
    """The forked child: redirect fds 0/1/2, take the caller's environment,
    run the node and ``os._exit`` with its code.  Never returns: unwinding
    would run the template's loop in the child."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        null = os.open(os.devnull, os.O_RDONLY)
        log = os.open(request["log"],
                      os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        for fd, target in ((null, 0), (log, 1), (log, 2)):
            os.dup2(fd, target)  # 0 and 1 were the template's pipes
        os.close(null)
        os.close(log)
        # The caller's environment at spawn time, not the template's at its
        # start; and no in-process backend selection survives the fork.
        os.environ.clear()
        os.environ.update(request["env"])
        set_backend(None)
        code = run_node(request["config"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:  # noqa: BLE001 - this stack ends in os._exit
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def serve(run_node: Callable[[Dict], int]) -> int:
    """The template's loop: fork a node per ``spawn``, reap on ``poll``,
    answer ``ping``.  On EOF — its owner exited or was killed — it SIGKILLs
    and reaps every live child before exiting: no node is ever orphaned."""
    # It lives exactly as long as its owner's pipe: a terminal's Ctrl-C is
    # the owner's to handle.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    live: Set[int] = set()
    try:
        for line in iter(sys.stdin.buffer.readline, b""):
            request, reply = json.loads(line), {}
            if request["op"] == "spawn":
                if threading.active_count() != 1:
                    reply["error"] = ("template process is not single-"
                                      "threaded; refusing to fork")
                else:
                    reply["pid"] = os.fork()
                    if reply["pid"] == 0:
                        _become_node(run_node, request)
                    live.add(reply["pid"])
            elif request["op"] == "poll":
                if request["pid"] not in live:
                    reply["error"] = f"pid {request['pid']} is not a live node"
                else:
                    pid, status = os.waitpid(request["pid"], os.WNOHANG)
                    live.discard(pid)
                    reply["code"] = (os.waitstatus_to_exitcode(status)
                                     if pid else None)
            else:  # ping
                reply.update(pid=os.getpid(), children=sorted(live),
                             threads=threading.active_count())
            sys.stdout.buffer.write(json.dumps(reply).encode("utf-8") + b"\n")
            sys.stdout.buffer.flush()
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return 0


# --------------------------------------------------------------------------- #
# Owner side
# --------------------------------------------------------------------------- #
class NodeProcess:
    """One forked node as its supervisor sees it: a PID to SIGKILL, and an
    exit code polled through the template incarnation that is its parent."""

    def __init__(self, template: "Template", template_pid: int,
                 pid: int) -> None:
        self._template, self._template_pid = template, template_pid
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        """The exit code (negative: killed by that signal), ``None`` while
        running; :class:`TemplateError` once the template is gone."""
        if self.returncode is None:
            self.returncode = self._template.call(
                {"op": "poll", "pid": self.pid}, self._template_pid)["code"]
        return self.returncode

    def wait(self, timeout: float) -> Optional[int]:
        """Poll until the node exits; ``None`` if it outlives ``timeout``."""
        deadline, delay = time.monotonic() + timeout, 0.001
        while self.poll() is None and time.monotonic() < deadline:
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
        return self.returncode

    def kill(self) -> None:
        # Until its exit code is collected the PID is at worst a zombie of
        # the template's, never somebody else's process.
        if self.returncode is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class Template:
    """This process's handle on its template: started on first use,
    restarted when found dead between runs, stopped at interpreter exit."""

    #: the template's command line (a class attribute so that a test can
    #: stand a broken or polluted one in)
    command = (sys.executable, "-m", "repro.runtime.cluster.node")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._process = self._stderr = None  # set by _start()
        atexit.register(self.stop)

    @property
    def pid(self) -> Optional[int]:
        """PID of the running template, ``None`` when there is none."""
        process = self._process
        alive = process is not None and process.poll() is None
        return process.pid if alive else None

    def ping(self) -> Dict:
        """Health check: the template's ``pid``, live ``children`` and
        Python ``threads`` count (starts the template if need be)."""
        return self.call({"op": "ping"})

    def spawn(self, config: Dict, log_path: str,
              env: Dict[str, str]) -> NodeProcess:
        """Fork one node with ``env`` as its whole environment and its
        stdout/stderr appended to ``log_path``."""
        reply = self.call({"op": "spawn", "config": config, "log": log_path,
                           "env": env})
        return NodeProcess(self, reply["template"], reply["pid"])

    def call(self, request: Dict, template_pid: Optional[int] = None) -> Dict:
        """One request → reply round trip, serialised across threads.
        Without ``template_pid`` a missing or dead template is (re)started
        first; with it the request is for that incarnation only."""
        with self._lock:
            if template_pid is None and self.pid is None:
                self._start()
            process = self._process
            if process is None or template_pid not in (None, process.pid):
                raise TemplateError(
                    f"template process (pid {template_pid}) died")
            line = self._exchange(json.dumps(request).encode("utf-8"))
            if not line:
                raise TemplateError(f"template process (pid {process.pid}) "
                                    f"died{self._stderr_tail()}")
        reply = dict(json.loads(line), template=process.pid)
        if "error" in reply:
            raise TemplateError(reply["error"])
        return reply

    def _exchange(self, request: bytes) -> bytes:
        """Write one request line, read one reply line (empty: the template
        is gone — EPIPE and EOF are the same verdict)."""
        try:
            self._process.stdin.write(request + b"\n")
            self._process.stdin.flush()
            return self._process.stdout.readline()
        except OSError:
            return b""

    def stop(self) -> None:
        """Close the request pipe — the template kills and reaps its
        children, then exits — and reap the template."""
        with self._lock:
            process, self._process = self._process, None
            if process is None:
                return
            for pipe in (process.stdin, process.stdout, self._stderr):
                try:
                    pipe.close()
                except OSError:
                    pass
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                process.kill()
                process.wait()

    def _start(self) -> None:
        """Start a template and wait for its first pong.  One attempt: a
        template that cannot start fails this call and is not retried."""
        import repro

        self.stop()  # a dead incarnation's pipes
        env = os.environ.copy()
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._stderr = tempfile.TemporaryFile()
        try:
            self._process = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=self._stderr, env=env)
        except OSError as exc:
            raise TemplateError(
                f"template process failed to start: {exc}") from exc
        if not self._exchange(b'{"op": "ping"}'):
            raise TemplateError(
                f"template process failed to start (exit code "
                f"{self._process.wait()}){self._stderr_tail()}")

    def _stderr_tail(self, lines: int = 15) -> str:
        self._stderr.seek(0)
        text = self._stderr.read().decode("utf-8", errors="replace")
        tail = "\n".join(text.splitlines()[-lines:])
        return f"\n--- template stderr tail ---\n{tail}" if tail else ""

    def _forget(self) -> None:
        """In a forked copy of the owner (a ``multiprocessing`` pool
        worker) the template is the parent's: drop this copy of its pipes
        and of a lock some vanished thread may hold; a template of this
        process's own starts on demand."""
        self._lock = threading.RLock()
        process, self._process = self._process, None
        if process is not None:
            process.stdin.close()
            process.stdout.close()


#: this process's template (no process is started until the first spawn)
TEMPLATE = Template()
if hasattr(os, "register_at_fork"):  # no fork: cluster_available() is False
    os.register_at_fork(after_in_child=TEMPLATE._forget)
