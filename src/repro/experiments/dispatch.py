"""Work-stealing distributed sweep backend (``backend="dispatch"``).

The paper's evaluation is embarrassingly parallel across sweep points,
and PR 5's fault sites were designed as the contract every execution
backend must honor.  This module is the first remote backend built
against that contract: it shards sweep points across **executors** —
worker processes spawned on this machine by default, or
:class:`DispatchWorker` processes joining from other hosts over TCP —
and inherits the engine's :class:`~repro.experiments.engine.RetryPolicy`
semantics end to end, so the chaos tier passes unchanged with the
dispatcher underneath.

Wire protocol (stdlib only, documented in docs/internals.md):

* **Framing** — every message is a big-endian ``uint32`` length prefix
  followed by that many bytes of pickle.  Frames above
  :data:`MAX_FRAME` are rejected as protocol violations.
* **Messages** — plain tuples tagged by their first element:
  ``("hello", name, pid)`` (worker → driver, once after connecting),
  ``("heartbeat",)`` (worker → driver, every
  :data:`HEARTBEAT_INTERVAL` seconds from a background thread),
  ``("task", task_id, index, app, config)`` (driver → worker),
  ``("result", task_id, index, result)`` /
  ``("error", task_id, index, exc)`` (worker → driver), and
  ``("shutdown",)`` (driver → worker).  ``task_id`` is
  ``(generation, index)`` — the generation increments per
  :meth:`DispatchServer.map_points` call so a straggler's result from
  an earlier sweep can never bind to the current one.
* **Security** — frames are pickles: run the rendezvous endpoint on a
  trusted network only (the default is loopback).

Scheduling is **pull-based work stealing**: the driver never
pre-partitions the sweep.  Idle executors are handed the next pending
point, so a fast executor naturally takes more points than a slow one;
a point whose attempt exceeds ``policy.chunk_timeout`` is *stolen* —
re-dispatched to another executor while the straggler keeps running —
and the duplicate delivery is deduplicated by the point's evaluation
cache key (first result wins; results are bit-identical by the
engine's core contract, so either copy is correct).

Failure semantics mirror :meth:`ExecutionContext.map
<repro.experiments.engine.ExecutionContext.map>`:

* a retryable worker error (:class:`~repro.errors.FaultInjected`,
  :class:`~repro.errors.TransportError`,
  :class:`~repro.errors.DispatchError`) re-dispatches the point with
  bounded exponential backoff, up to ``policy.max_retries`` times;
* an executor death (socket EOF, lost heartbeat, injected
  ``worker-dead`` crash) re-dispatches its in-flight point to a
  surviving executor;
* a whole-fleet death respawns local executors at most
  ``policy.max_pool_rebuilds`` times per map call;
* past any budget, the remainder degrades to serial evaluation in the
  driver (``degrade=True``, with a warning) or raises
  :class:`~repro.errors.ParallelError`;
* deterministic worker exceptions (a bug, a ``ConfigError``) fail
  fast, exactly as on the local backend;
* **no executors reachable at all** → :func:`dispatch_points` returns
  ``None`` and the caller falls back to the local fused/pooled path.

Fault sites fired here: the existing ``worker-chunk`` (inside
:func:`~repro.experiments.parallel._evaluate_app_point`, same key —
the point index — as the pool backend) plus the dispatch-specific
``dispatch-send`` / ``dispatch-recv`` (driver side) and ``worker-dead``
(executor side); see :mod:`repro.experiments.faults`.

The driver records per-executor point counts, steal counts and
recovery tallies into the owning context's ``dispatch`` counters,
which sweeps surface as ``series.meta["dispatch"]``.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import struct
import threading
import time
import warnings
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (ConfigError, DispatchError, FaultInjected,
                      ParallelError, TransportError)
from . import faults

__all__ = [
    "DispatchServer", "DispatchWorker", "PointLedger", "FrameBuffer",
    "dispatch_points", "worker_main", "parse_endpoint", "send_frame",
    "recv_frame", "CONNECT_TIMEOUT", "HEARTBEAT_INTERVAL",
    "HEARTBEAT_TIMEOUT", "MAX_FRAME",
]

#: hard ceiling on one frame's payload (a sweep point's app + config or
#: result is kilobytes; anything near this is a protocol violation)
MAX_FRAME = 1 << 30

#: seconds the driver waits for the first executor to say hello before
#: declaring the dispatch backend unreachable (tests shrink this)
CONNECT_TIMEOUT = 5.0

#: seconds between worker heartbeat frames (sent from a background
#: thread, so a worker busy evaluating still proves liveness)
HEARTBEAT_INTERVAL = 0.5

#: seconds of driver-side silence after which an executor counts as
#: dead even without EOF (half-open TCP); local executor death is
#: normally detected much earlier via EOF
HEARTBEAT_TIMEOUT = 30.0

#: driver select loop granularity in seconds
_TICK = 0.02

#: exceptions a worker may report that the driver treats as retryable —
#: the same classification as the local resilient executor
_RETRYABLE = (FaultInjected, TransportError, DispatchError)


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split ``"host:port"`` into a validated ``(host, port)`` pair."""
    host, sep, port_s = str(endpoint).rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"dispatch endpoint must be 'host:port', got {endpoint!r}")
    try:
        port = int(port_s)
    except ValueError:
        raise ConfigError(
            f"dispatch endpoint port must be an integer, got {port_s!r}")
    if not 0 <= port <= 65535:
        raise ConfigError(f"dispatch endpoint port out of range: {port}")
    return host, port


# ---------------------------------------------------------------------------
# framing: uint32 big-endian length prefix + pickle payload
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, obj, lock: Optional[threading.Lock] = None) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame.

    ``lock`` serializes writers sharing one socket (the worker's main
    loop vs its heartbeat thread); the driver's sockets have exactly
    one writer and pass no lock.
    """
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME:
        raise DispatchError(
            f"refusing to send a {len(blob)}-byte frame (max {MAX_FRAME})")
    frame = struct.pack(">I", len(blob)) + blob
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket):
    """Read one frame from a blocking socket; ``None`` on EOF.

    A connection that closes mid-frame (torn write) also reads as EOF —
    the driver treats both as executor death.
    """
    head = _recv_exact(sock, 4)
    if head is None:
        return None
    (length,) = struct.unpack(">I", head)
    if length > MAX_FRAME:
        raise DispatchError(f"oversized frame announced: {length} bytes")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    return pickle.loads(body)


class FrameBuffer:
    """Incremental frame decoder for one non-blocking driver connection."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> List:
        """Append raw bytes; return every now-complete message."""
        self._buf += data
        messages = []
        while True:
            if len(self._buf) < 4:
                return messages
            (length,) = struct.unpack_from(">I", self._buf)
            if length > MAX_FRAME:
                raise DispatchError(
                    f"oversized frame announced: {length} bytes")
            if len(self._buf) < 4 + length:
                return messages
            body = bytes(self._buf[4:4 + length])
            del self._buf[:4 + length]
            messages.append(pickle.loads(body))


# ---------------------------------------------------------------------------
# the executor side
# ---------------------------------------------------------------------------

def _is_shard(app) -> bool:
    """Whether a task payload is a fused-sweep shard, not an app."""
    from .fused import ShardTask
    return isinstance(app, ShardTask)


class DispatchWorker:
    """One executor process: connect, say hello, evaluate tasks forever.

    Spawned locally by :class:`DispatchServer`, or started on another
    machine via ``repro worker --connect host:port`` to join a remote
    driver's fleet.  Each task is evaluated through the same
    ``_evaluate_app_point`` the pool backend uses, so the
    ``worker-chunk`` fault site fires with identical keys; the
    ``worker-dead`` site fires before evaluation begins (its ``crash``
    action kills this process, which the driver sees as EOF).

    With a ``cache_dir``, the executor probes the shared
    content-addressed cache (``.repro-cache/``) **before** computing a
    point and stores fresh results back, so a (re)joining worker —
    and stolen or duplicated points in long-running fleets — skip work
    the fleet already did.  Purely an optimization: cache hits are
    bit-identical to recomputation by the cache's contract.  Fused-sweep
    shards (:class:`~repro.experiments.fused.ShardTask`) bypass the
    probe — a shard is an execution slice, not an addressable
    evaluation point.
    """

    def __init__(self, host: str, port: int, name: Optional[str] = None,
                 fault_plan=None,
                 heartbeat_interval: Optional[float] = None,
                 cache_dir: Optional[str] = None):
        self.host = host
        self.port = int(port)
        self.name = name or f"worker-{os.getpid()}"
        self.fault_plan = fault_plan
        self.heartbeat_interval = (HEARTBEAT_INTERVAL
                                   if heartbeat_interval is None
                                   else heartbeat_interval)
        self.cache_dir = cache_dir
        self._cache = None

    def run(self) -> int:
        """Serve tasks until shutdown/EOF; returns a process exit code."""
        faults.install(self.fault_plan)
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=CONNECT_TIMEOUT)
        except OSError:
            return 1
        sock.settimeout(None)
        lock = threading.Lock()
        stop = threading.Event()
        try:
            send_frame(sock, ("hello", self.name, os.getpid()), lock)
            beat = threading.Thread(
                target=self._heartbeat, args=(sock, lock, stop), daemon=True)
            beat.start()
            while True:
                msg = recv_frame(sock)
                if msg is None or msg[0] == "shutdown":
                    break
                if msg[0] == "task":
                    self._run_task(sock, lock, msg)
        except (OSError, DispatchError, pickle.UnpicklingError, EOFError):
            pass  # driver gone or stream torn: nothing left to serve
        finally:
            stop.set()
            try:
                sock.close()
            except OSError:
                pass
            faults.uninstall()
        return 0

    def _heartbeat(self, sock, lock, stop) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                send_frame(sock, ("heartbeat",), lock)
            except OSError:
                return

    def _open_cache(self):
        if self.cache_dir is None:
            return None
        if self._cache is None:
            from .evalcache import EvaluationCache
            self._cache = EvaluationCache(self.cache_dir)
        return self._cache

    def _evaluate(self, index: int, app, config):
        """One task, probing the shared result cache around the compute."""
        from .parallel import _evaluate_app_point
        cache = self._open_cache()
        if cache is not None and not _is_shard(app):
            from .evalcache import evaluation_key
            key = evaluation_key(app, config)
            hit = cache.get(key, app.name, config)
            if hit is not None:
                return hit
            result = _evaluate_app_point(index, app, config)
            cache.put(key, result)
            return result
        return _evaluate_app_point(index, app, config)

    def _run_task(self, sock, lock, msg) -> None:
        _, task_id, index, app, config = msg
        # worker-dead's crash/hang actions are performed inside fire()
        faults.fire("worker-dead", key=index)
        try:
            result = self._evaluate(index, app, config)
        except BaseException as exc:
            try:
                send_frame(sock, ("error", task_id, index, exc), lock)
            except (TypeError, AttributeError, pickle.PicklingError):
                # the exception itself does not pickle: ship its text
                send_frame(sock, ("error", task_id, index,
                                  RuntimeError(f"{type(exc).__name__}: "
                                               f"{exc}")), lock)
            return
        send_frame(sock, ("result", task_id, index, result), lock)


def worker_main(host: str, port: int, name: Optional[str] = None,
                fault_plan=None, cache_dir: Optional[str] = None) -> int:
    """Process entry point for locally spawned executors."""
    return DispatchWorker(host, port, name=name,
                          fault_plan=fault_plan,
                          cache_dir=cache_dir).run()


# ---------------------------------------------------------------------------
# driver-side bookkeeping
# ---------------------------------------------------------------------------

class PointLedger:
    """Which sweep points are done, delivered and retried.

    Deduplication is by the point's evaluation **cache key**: after a
    steal, both the thief's and the straggler's results arrive for the
    same key, and only the first is accepted (results are bit-identical
    by contract, so first-wins is exact, not approximate).  Without a
    cache the keys default to the point indices, which are unique per
    map call.
    """

    def __init__(self, n: int, keys: Optional[Sequence[str]] = None):
        if keys is not None and len(keys) != n:
            raise ConfigError(f"{len(keys)} keys for {n} points")
        self.keys = list(keys) if keys is not None \
            else [f"point-{i}" for i in range(n)]
        self.done = [False] * n
        self.results: List = [None] * n
        self.attempts = [0] * n
        self.delivered: set = set()
        self.duplicates = 0

    def accept(self, index: int, result) -> bool:
        """Record a delivery; ``False`` (and counted) for a duplicate."""
        if self.done[index] or self.keys[index] in self.delivered:
            self.duplicates += 1
            return False
        self.done[index] = True
        self.results[index] = result
        self.delivered.add(self.keys[index])
        return True

    def all_done(self) -> bool:
        return all(self.done)

    def pending(self) -> List[int]:
        return [i for i, d in enumerate(self.done) if not d]


class _Executor:
    """Driver-side state of one connected executor."""

    __slots__ = ("conn", "buf", "name", "task", "last_seen")

    def __init__(self, conn: socket.socket, name: str):
        self.conn = conn
        self.buf = FrameBuffer()
        self.name = name
        self.task: Optional[Tuple[int, int]] = None  # (generation, index)
        self.last_seen = time.monotonic()


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

class DispatchServer:
    """The driver: rendezvous listener + executor fleet + serve loop.

    Owned lazily by an :class:`~repro.experiments.engine.
    ExecutionContext` (one fleet per context, reused across map calls
    like the persistent pool) and plugged in behind
    :func:`~repro.experiments.parallel.map_evaluations` via
    :func:`dispatch_points`.

    ``connect`` is the listen endpoint (``"host:port"``); ``None``
    binds loopback on an ephemeral port, which only locally spawned
    executors can reach.  Remote :class:`DispatchWorker`\\ s join the
    fleet at any time — even mid-sweep — by connecting to the same
    endpoint.
    """

    def __init__(self, connect: Optional[str] = None, fault_plan=None,
                 cache_dir: Optional[str] = None):
        self.connect = connect
        self.fault_plan = fault_plan
        self.cache_dir = cache_dir
        self._sel: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._executors: Dict[socket.socket, _Executor] = {}
        self._procs: List = []
        self._generation = 0
        self._spawn_seq = 0
        self._accept_seq = 0
        self._local_target = 0
        self._spawn_deadline = 0.0
        self._hellos = 0

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "DispatchServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` executors connect to."""
        if self._listener is None:
            raise DispatchError("dispatch server not started")
        return self._listener.getsockname()[:2]

    def live_executors(self) -> int:
        return len(self._executors)

    def start(self, executors: int = 1,
              timeout: Optional[float] = None) -> "DispatchServer":
        """Bind, spawn local executors, wait for the first hello.

        Raises :class:`~repro.errors.DispatchError` when no executor
        connects within ``timeout`` (module default
        :data:`CONNECT_TIMEOUT`) — the caller degrades to the local
        execution path.
        """
        if self._listener is not None:
            self.ensure_local(executors)
            return self
        timeout = CONNECT_TIMEOUT if timeout is None else timeout
        host, port = (("127.0.0.1", 0) if self.connect is None
                      else parse_endpoint(self.connect))
        self._sel = selectors.DefaultSelector()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
        except OSError as exc:
            listener.close()
            self._sel.close()
            self._sel = None
            raise DispatchError(
                f"cannot bind dispatch endpoint {host}:{port}: "
                f"{exc}") from exc
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._sel.register(listener, selectors.EVENT_READ)
        self.ensure_local(executors)
        deadline = time.monotonic() + timeout
        while self._hellos == 0:
            if time.monotonic() > deadline:
                raise DispatchError(
                    f"no dispatch executors connected within {timeout:.1f}s")
            self._pump(0.05)
        return self

    def ensure_local(self, executors: int) -> None:
        """Top the local fleet up to ``executors`` processes.

        Called per map call with the executor request clamped to the
        number of points, so a 1-point sweep spawns 1 executor and a
        later 10-point sweep on the same fleet grows it.
        """
        want = max(int(executors), 1)
        self._local_target = max(self._local_target, want)
        self._procs = [p for p in self._procs if p.is_alive()]
        have = max(len(self._executors), len(self._procs))
        if want > have:
            self._spawn_local(want - have)

    def _spawn_local(self, k: int) -> None:
        import multiprocessing as mp
        host, port = self.address
        if host in ("", "0.0.0.0"):
            host = "127.0.0.1"
        for _ in range(k):
            name = f"exec-{os.getpid()}-{self._spawn_seq}"
            self._spawn_seq += 1
            proc = mp.Process(target=worker_main, args=(host, port),
                              kwargs={"name": name,
                                      "fault_plan": self.fault_plan,
                                      "cache_dir": self.cache_dir},
                              daemon=True, name=name)
            proc.start()
            self._procs.append(proc)
        self._spawn_deadline = time.monotonic() + CONNECT_TIMEOUT

    def close(self) -> None:
        """Shut the fleet down: polite shutdown frames, then terminate."""
        for executor in list(self._executors.values()):
            try:
                send_frame(executor.conn, ("shutdown",))
            except OSError:
                pass
            self._drop(executor)
        if self._listener is not None:
            try:
                self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
        self._procs = []

    # -- connection handling ------------------------------------------------
    def _accept(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        executor = _Executor(conn, name=f"executor-{self._accept_seq}")
        self._accept_seq += 1
        self._executors[conn] = executor
        self._sel.register(conn, selectors.EVENT_READ)

    def _drop(self, executor: _Executor) -> None:
        self._executors.pop(executor.conn, None)
        try:
            self._sel.unregister(executor.conn)
        except (KeyError, ValueError):
            pass
        try:
            executor.conn.close()
        except OSError:
            pass

    def _pump(self, timeout: float):
        """One IO round: accept joiners, read frames, detect deaths.

        Returns ``(deliveries, deaths)`` — result/error messages paired
        with their executor, and executors that disappeared (EOF, torn
        frames, lost heartbeat) paired with the cause.
        """
        deliveries: List[Tuple[_Executor, tuple]] = []
        deaths: List[Tuple[_Executor, BaseException]] = []
        if self._sel is None:
            return deliveries, deaths
        for key, _mask in self._sel.select(timeout):
            sock = key.fileobj
            if sock is self._listener:
                self._accept()
                continue
            executor = self._executors.get(sock)
            if executor is None:
                continue
            try:
                data = sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                data = b""
            if not data:
                self._drop(executor)
                deaths.append((executor, DispatchError(
                    f"executor {executor.name} disconnected")))
                continue
            executor.last_seen = time.monotonic()
            try:
                messages = executor.buf.feed(data)
            except (DispatchError, pickle.UnpicklingError, EOFError,
                    AttributeError, ValueError) as exc:
                self._drop(executor)
                deaths.append((executor, DispatchError(
                    f"undecodable frame from {executor.name}: {exc!r}")))
                continue
            for msg in messages:
                kind = msg[0]
                if kind == "hello":
                    executor.name = str(msg[1]) or executor.name
                    self._hellos += 1
                elif kind == "heartbeat":
                    pass
                else:
                    deliveries.append((executor, msg))
        now = time.monotonic()
        for executor in list(self._executors.values()):
            if now - executor.last_seen > HEARTBEAT_TIMEOUT:
                self._drop(executor)
                deaths.append((executor, DispatchError(
                    f"executor {executor.name} heartbeat lost")))
        return deliveries, deaths

    # -- the serve loop -----------------------------------------------------
    def map_points(self, apps: Sequence, configs: Sequence,
                   labels: Sequence[str], policy,
                   resilience: Dict[str, int], stats: Dict[str, int],
                   per_executor: Dict[str, int],
                   keys: Optional[Sequence[str]] = None) -> List:
        """Evaluate every ``(app, config)`` point on the fleet, in order.

        ``resilience``/``stats``/``per_executor`` are the owning
        context's counter dicts, mutated in place (sweeps record their
        deltas into ``series.meta``).  Results keep submission order
        and are bit-identical to a serial loop under every recovery
        path.
        """
        n = len(apps)
        if n == 0:
            return []
        ledger = PointLedger(n, keys=keys)
        queue = deque(range(n))
        ready_at = [0.0] * n
        self._generation += 1
        gen = self._generation
        in_flight: Dict[int, Tuple[_Executor, Optional[float]]] = {}
        rebuilds_left = policy.max_pool_rebuilds
        has_timeout = policy.chunk_timeout > 0

        def _evaluate_locally(idx: int):
            # the same entry point executors use, so a fused-sweep
            # shard degrades to an in-driver run_shard exactly like an
            # app point degrades to evaluate_application
            from .parallel import _evaluate_app_point
            try:
                return _evaluate_app_point(idx, apps[idx], configs[idx])
            except Exception as exc:
                raise ParallelError(labels[idx], exc) from exc

        def _fail(idx: int, cause: BaseException):
            raise ParallelError(labels[idx], cause) from cause

        def _degrade_item(idx: int, cause: BaseException) -> None:
            """Retry budget exhausted for one point: compute it here."""
            if not policy.degrade:
                _fail(idx, cause)
            resilience["degradations"] += 1
            stats["degraded_points"] += 1
            warnings.warn(
                f"giving up on dispatching {labels[idx]} after "
                f"{ledger.attempts[idx]} failed attempt(s) "
                f"({type(cause).__name__}: {cause}); evaluating it "
                "locally in the driver", RuntimeWarning, stacklevel=4)
            in_flight.pop(idx, None)
            ledger.accept(idx, _evaluate_locally(idx))

        def _bump(idx: int, cause: BaseException) -> None:
            """One retryable failure: back off and re-queue, or degrade."""
            if ledger.done[idx]:
                return
            ledger.attempts[idx] += 1
            resilience["retries"] += 1
            in_flight.pop(idx, None)
            if ledger.attempts[idx] > policy.max_retries:
                _degrade_item(idx, cause)
                return
            ready_at[idx] = time.monotonic() \
                + policy.backoff(ledger.attempts[idx])
            queue.appendleft(idx)

        def _on_death(executor: _Executor, cause: BaseException) -> None:
            stats["worker_deaths"] += 1
            task = executor.task
            if task is None or task[0] != gen:
                return
            idx = task[1]
            ent = in_flight.get(idx)
            if ent is not None and ent[0] is executor \
                    and not ledger.done[idx]:
                _bump(idx, cause)

        def _handle(executor: _Executor, msg: tuple) -> None:
            kind, task_id, idx = msg[0], msg[1], msg[2]
            if task_id == executor.task:
                executor.task = None  # delivered: executor is idle again
            if kind == "result":
                if task_id[0] != gen or ledger.done[idx]:
                    # post-steal straggler or a previous sweep's
                    # leftover: the cache key was already served
                    stats["duplicates"] += 1
                    return
                if faults.fire("dispatch-recv", key=idx) == "raise":
                    # torn on the wire: drop the frame, re-dispatch
                    _bump(idx, FaultInjected(
                        f"injected recv fault at point {idx}"))
                    return
                if ledger.accept(idx, msg[3]):
                    stats["completed"] += 1
                    per_executor[executor.name] = \
                        per_executor.get(executor.name, 0) + 1
                    in_flight.pop(idx, None)
                else:
                    stats["duplicates"] += 1
            elif kind == "error":
                if task_id[0] != gen or ledger.done[idx]:
                    return
                exc = msg[3]
                if isinstance(exc, _RETRYABLE):
                    _bump(idx, exc)
                else:
                    _fail(idx, exc)  # deterministic: fail fast

        def _send_task(executor: _Executor, idx: int) -> bool:
            try:
                if faults.fire("dispatch-send", key=idx) == "raise":
                    raise DispatchError(
                        f"injected send fault at point {idx}")
                send_frame(executor.conn,
                           ("task", (gen, idx), idx, apps[idx],
                            configs[idx]))
                return True
            except (DispatchError, OSError):
                # the connection is no good: drop the executor; the
                # point goes back on the queue without burning a retry
                self._drop(executor)
                return False

        def _dispatch_ready() -> None:
            idle = [e for e in self._executors.values() if e.task is None]
            if not idle:
                return
            now = time.monotonic()
            for _ in range(len(queue)):
                if not idle:
                    return
                idx = queue.popleft()
                if ledger.done[idx]:
                    continue
                if ready_at[idx] > now:
                    queue.append(idx)  # still backing off
                    continue
                executor = idle.pop()
                if not _send_task(executor, idx):
                    queue.appendleft(idx)
                    continue
                executor.task = (gen, idx)
                deadline = (now + policy.chunk_timeout) if has_timeout \
                    else None
                in_flight[idx] = (executor, deadline)
                stats["dispatched"] += 1

        def _steal_overdue() -> None:
            if not has_timeout:
                return
            now = time.monotonic()
            for idx, (executor, deadline) in list(in_flight.items()):
                if ledger.done[idx] or deadline is None or now < deadline:
                    continue
                # hung past its budget: steal it — re-dispatch to
                # another executor, dedup the straggler's result later
                resilience["timeouts"] += 1
                stats["stolen"] += 1
                _bump(idx, DispatchError(
                    f"point {idx} exceeded its {policy.chunk_timeout}s "
                    f"attempt budget on executor {executor.name}"))

        def _revive_or_degrade() -> None:
            nonlocal rebuilds_left
            if self._executors:
                return
            if any(p.is_alive() for p in self._procs) \
                    and time.monotonic() < self._spawn_deadline:
                return  # spawned executors are still connecting
            remaining = ledger.pending()
            if not remaining:
                return
            cause = DispatchError("no live dispatch executors")
            if rebuilds_left > 0:
                rebuilds_left -= 1
                resilience["rebuilds"] += 1
                stats["respawns"] += 1
                warnings.warn(
                    "every dispatch executor died; respawning the local "
                    "fleet and re-dispatching the unfinished points",
                    RuntimeWarning, stacklevel=3)
                self._spawn_local(
                    max(1, min(self._local_target, len(remaining))))
                return
            if not policy.degrade:
                _fail(remaining[0], cause)
            resilience["degradations"] += 1
            warnings.warn(
                "dispatch fleet died beyond the respawn budget; "
                f"degrading the remaining {len(remaining)} point(s) to "
                "serial evaluation in the driver",
                RuntimeWarning, stacklevel=3)
            for idx in remaining:
                stats["degraded_points"] += 1
                in_flight.pop(idx, None)
                ledger.accept(idx, _evaluate_locally(idx))

        while not ledger.all_done():
            _revive_or_degrade()
            if ledger.all_done():
                break
            _dispatch_ready()
            deliveries, deaths = self._pump(_TICK)
            for executor, cause in deaths:
                _on_death(executor, cause)
            for executor, msg in deliveries:
                _handle(executor, msg)
            _steal_overdue()
        return list(ledger.results)


# ---------------------------------------------------------------------------
# the integration point behind map_evaluations
# ---------------------------------------------------------------------------

def dispatch_points(context, apps: Sequence, configs: Sequence,
                    labels: Optional[Sequence[str]] = None,
                    policy=None,
                    keys: Optional[Sequence[str]] = None) -> Optional[List]:
    """Evaluate sweep points on ``context``'s executor fleet.

    Returns the results in submission order, or ``None`` when the
    dispatch backend is unreachable (no executor connected within the
    timeout) — the caller then falls back to the local fused/pooled
    path, which is the graceful-degradation contract.
    """
    if not apps:
        return []
    if labels is None:
        labels = [f"app={app.name!r}" for app in apps]
    policy = policy if policy is not None else context.policy
    server = context.dispatch_fleet(n_items=len(apps))
    if server is None:
        return None
    return server.map_points(apps, list(configs), list(labels), policy,
                             resilience=context.resilience,
                             stats=context.dispatch,
                             per_executor=context.dispatch_per_executor,
                             keys=keys)
