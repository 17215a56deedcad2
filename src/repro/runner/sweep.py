"""The sweep runner: fan experiment cells across worker processes.

``SweepRunner`` executes a list of :class:`CellSpec` cells with

* an on-disk :class:`ResultCache` consulted first (unchanged cells are
  loaded, not re-simulated),
* a ``multiprocessing`` fan-out when ``workers > 1`` — one OS process
  per in-flight cell, at most ``workers`` alive at once, so a crashing
  or hung cell can never poison its siblings,
* per-cell wall-clock timeouts (the child is terminated) and a bounded
  retry budget for failed/timed-out cells,
* graceful degradation to in-process serial execution when
  ``workers <= 1`` or multiprocessing is unavailable.

Determinism: a cell's result depends only on its spec (per-cell seeding
happens inside :func:`execute_cell`), never on scheduling, worker
identity, or sibling cells — the differential harness in
``tests/runner/`` asserts serial ≡ parallel bit-for-bit.
:func:`shard_cells` deterministically partitions a sweep by cell-key
hash, so distributed invocations (``repro sweep --shard K/N``) cover
disjoint, reproducible subsets regardless of cell order.

Timeouts are enforced only when cells run in child processes (parallel
mode); the serial path cannot kill its own stack and documents that.
"""

import json
import os
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.runner.spec import execute_cell

STATUS_OK = "ok"  # simulated this run
STATUS_CACHED = "cached"  # loaded from the result cache
STATUS_FAILED = "failed"  # raised on every attempt
STATUS_TIMEOUT = "timeout"  # exceeded the per-cell timeout on every attempt

_SUCCESS = (STATUS_OK, STATUS_CACHED)


def _wall_time():
    """Host wall-clock seconds, for timeout/progress accounting only.

    The runner is harness code scheduling real OS processes; nothing it
    times ever feeds back into simulated results (those come solely from
    the simulated Clock inside :func:`execute_cell`).
    """
    return time.monotonic()  # lint: disable=unseeded-random


class SweepFailure(RuntimeError):
    """Raised by :meth:`SweepResult.raise_on_failure` when cells failed."""


@dataclass
class CellResult:
    """Outcome of one cell: status, metrics (on success), error trail."""

    spec: object
    status: str = None
    metrics: object = None
    attempts: int = 0
    error: str = None
    elapsed: float = 0.0
    # Path of the per-cell trace payload written under --trace-dir
    # (None when tracing was off or the cell came from the cache).
    trace_path: str = None

    @property
    def succeeded(self):
        return self.status in _SUCCESS

    def summary(self):
        row = {
            "cell": self.spec.describe(),
            "cell_key": self.spec.cell_key(),
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": round(self.elapsed, 3),
        }
        if self.error:
            row["error"] = self.error
        if self.metrics is not None:
            row["metrics"] = self.metrics.summary()
        if self.trace_path is not None:
            row["trace"] = self.trace_path
        return row


class SweepResult:
    """All cell results of one sweep, in input order."""

    def __init__(self, results, elapsed=0.0, cache_stats=None):
        self.results = results  # OrderedDict: cell_key -> CellResult
        self.elapsed = elapsed
        self.cache_stats = cache_stats

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results.values())

    def __getitem__(self, spec):
        return self.results[spec.cell_key()]

    def count(self, status):
        return sum(1 for r in self if r.status == status)

    @property
    def simulated(self):
        return self.count(STATUS_OK)

    @property
    def cached(self):
        return self.count(STATUS_CACHED)

    def failures(self):
        return [r for r in self if not r.succeeded]

    def metrics_for(self, spec):
        """The RunMetrics of one cell; raises SweepFailure if it failed."""
        result = self[spec]
        if not result.succeeded:
            raise SweepFailure("cell %s %s: %s" % (
                spec.describe(), result.status, result.error))
        return result.metrics

    def raise_on_failure(self):
        bad = self.failures()
        if bad:
            lines = ["%d of %d cells did not complete:" % (len(bad), len(self))]
            for result in bad:
                lines.append("  %s [%s after %d attempt(s)]: %s" % (
                    result.spec.describe(), result.status, result.attempts,
                    (result.error or "").splitlines()[-1] if result.error else ""))
            raise SweepFailure("\n".join(lines))
        return self

    def summary(self):
        """A JSON-safe report of the whole sweep."""
        report = {
            "cells": len(self),
            "simulated": self.simulated,
            "cached": self.cached,
            "failed": self.count(STATUS_FAILED),
            "timeout": self.count(STATUS_TIMEOUT),
            "elapsed": round(self.elapsed, 3),
            "results": [r.summary() for r in self],
        }
        if self.cache_stats is not None:
            report["cache"] = dict(self.cache_stats)
        return report


def shard_cells(cells, shards):
    """Deterministically partition cells into ``shards`` disjoint lists.

    Assignment hashes each cell's content key, so it is stable across
    runs, machines, and input orderings — the same cell always lands in
    the same shard for a given shard count.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    buckets = [[] for _ in range(shards)]
    for cell in cells:
        buckets[int(cell.cell_key()[:16], 16) % shards].append(cell)
    return buckets


def parse_shard(text):
    """Parse ``"K/N"`` (0-based shard K of N) into a (k, n) tuple."""
    try:
        k_text, n_text = text.split("/")
        k, n = int(k_text), int(n_text)
    except (ValueError, AttributeError):
        raise ValueError("shard must look like 'K/N', got %r" % (text,)) from None
    if n <= 0 or not 0 <= k < n:
        raise ValueError("shard %r out of range (need 0 <= K < N)" % (text,))
    return k, n


def _cell_child(spec, conn, trace=False, executor=None):
    """Child-process entry point: run one cell, ship the result back.

    Results travel as their ``to_dict()`` form — the same full-fidelity
    serialization the result cache uses — so the parent rebuilds them
    identically whether a cell was simulated here, serially, or loaded
    from disk. When tracing, the JSON-safe trace payload rides along as
    a third tuple element; the parent writes it to disk, so trace files
    are produced uniformly for serial and parallel sweeps.
    """
    run = executor if executor is not None else execute_cell
    try:
        if trace:
            metrics, payload = run(spec, trace=True)
            conn.send(("ok", metrics.to_dict(), payload))
        else:
            metrics = run(spec)
            conn.send(("ok", metrics.to_dict(), None))
    except BaseException as exc:  # report, never hang the parent
        conn.send(("error", "%s: %s\n%s" % (
            type(exc).__name__, exc, traceback.format_exc())))
    finally:
        conn.close()


def _trace_filename(spec):
    """Deterministic, filesystem-safe trace name for one cell."""
    label = "".join(c if c.isalnum() or c in "._-" else "-"
                    for c in spec.describe())
    return "%s-%s.trace.json" % (label, spec.cell_key()[:8])


@dataclass
class _Attempt:
    process: object
    conn: object
    started: float
    number: int


class SweepRunner:
    """Run cells serially or across a bounded pool of worker processes.

    ``retries`` is the number of *additional* attempts after a failure
    or timeout (so every cell runs at most ``1 + retries`` times).
    ``progress`` is an optional callable receiving one dict per cell
    completion. ``timeout`` is per-attempt wall-clock seconds, enforced
    in parallel mode by killing the child. ``trace_dir``, when set,
    runs every simulated cell under a tracer + interval recorder and
    writes one ``<cell>.trace.json`` payload per cell into that
    directory (cached cells are not re-simulated, so they get no trace).

    The runner is spec-agnostic: any cell object with ``cell_key()`` and
    ``describe()`` works. ``executor`` (default
    :func:`repro.runner.spec.execute_cell`) maps one cell to a result
    object exposing ``to_dict()``; it must be a picklable module-level
    callable so child processes can receive it. ``decode`` (default
    ``RunMetrics.from_dict``) rebuilds the result from that dict in the
    parent. The fuzz campaign (``repro fuzz``) reuses the pool this way
    with differential-oracle cells instead of simulation cells.
    """

    def __init__(self, workers=1, cache=None, timeout=None, retries=1,
                 mp_context=None, progress=None, poll_interval=0.01,
                 trace_dir=None, executor=None, decode=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.mp_context = mp_context
        self.progress = progress
        self.poll_interval = poll_interval
        self.trace_dir = trace_dir
        self.executor = executor if executor is not None else execute_cell
        self.decode = decode
        self._started = None
        self._shard = None

    # -- public ---------------------------------------------------------------

    def run(self, cells, shard=None):
        """Execute the sweep; returns a :class:`SweepResult`.

        ``shard=(k, n)`` restricts the run to the k-th of n deterministic
        shards (see :func:`shard_cells`); other cells are simply absent
        from the result.
        """
        started = _wall_time()
        self._started = started
        self._shard = "%d/%d" % shard if shard is not None else None
        ordered = self._dedupe(cells)
        if shard is not None:
            k, n = shard
            keep = {c.cell_key() for c in shard_cells(ordered, n)[k]}
            ordered = [c for c in ordered if c.cell_key() in keep]

        results = OrderedDict(
            (cell.cell_key(), CellResult(spec=cell)) for cell in ordered)
        pending = []
        for cell in ordered:
            cached = self.cache.get(cell) if self.cache is not None else None
            if cached is not None:
                result = results[cell.cell_key()]
                result.status = STATUS_CACHED
                result.metrics = cached
                result.attempts = 0
                self._report(result, results)
            else:
                pending.append(cell)

        pool = self._make_context() if self.workers > 1 and pending else None
        if pool is not None:
            self._run_parallel(pool, pending, results)
        else:
            self._run_serial(pending, results)

        if self.cache is not None:
            for result in results.values():
                if result.status == STATUS_OK:
                    self.cache.put(result.spec, result.metrics)
        cache_stats = self.cache.stats() if self.cache is not None else None
        return SweepResult(results, elapsed=_wall_time() - started,
                           cache_stats=cache_stats)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _dedupe(cells):
        unique = OrderedDict()
        for cell in cells:
            unique.setdefault(cell.cell_key(), cell)
        return list(unique.values())

    def _report(self, result, results):
        if self.progress is None:
            return
        done = sum(1 for r in results.values() if r.status is not None)
        event = {
            "cell": result.spec.describe(),
            "status": result.status,
            "attempts": result.attempts,
            "elapsed": result.elapsed,
            "done": done,
            "total": len(results),
        }
        wall = _wall_time() - self._started if self._started is not None else 0.0
        if wall > 0:
            rate = done / wall
            event["rate"] = rate
            event["eta"] = (len(results) - done) / rate if rate > 0 else None
        if self._shard is not None:
            event["shard"] = self._shard
        self.progress(event)

    def _decode(self, data):
        """Rebuild a result object from its over-the-pipe dict form."""
        if self.decode is not None:
            return self.decode(data)
        from repro.core.metrics import RunMetrics

        return RunMetrics.from_dict(data)

    def _make_context(self):
        """A usable multiprocessing context, or None to degrade to serial."""
        if self.mp_context is not None:
            return self.mp_context
        try:
            import multiprocessing

            context = multiprocessing.get_context()
            # Probe: some sandboxes ship the module but forbid the
            # primitives; fail here, not mid-sweep.
            recv, send = context.Pipe(duplex=False)
            recv.close()
            send.close()
            return context
        except (ImportError, OSError):
            return None

    def _write_trace(self, spec, payload):
        """Persist one cell's trace payload; returns its path (or None)."""
        if self.trace_dir is None or payload is None:
            return None
        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir, _trace_filename(spec))
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        return path

    def _run_serial(self, cells, results):
        """In-process execution with retries (timeouts not enforceable)."""
        tracing = self.trace_dir is not None
        for cell in cells:
            result = results[cell.cell_key()]
            while True:
                result.attempts += 1
                attempt_start = _wall_time()
                try:
                    if tracing:
                        metrics, payload = self.executor(cell, trace=True)
                    else:
                        metrics, payload = self.executor(cell), None
                except Exception as exc:
                    result.elapsed += _wall_time() - attempt_start
                    result.error = "%s: %s\n%s" % (
                        type(exc).__name__, exc, traceback.format_exc())
                    if result.attempts <= self.retries:
                        continue
                    result.status = STATUS_FAILED
                    break
                result.elapsed += _wall_time() - attempt_start
                result.status = STATUS_OK
                result.metrics = metrics
                result.trace_path = self._write_trace(cell, payload)
                break
            self._report(result, results)

    def _run_parallel(self, context, cells, results):
        """Process-per-cell scheduler with ``workers`` live slots."""
        pending = deque((cell, 1) for cell in cells)
        live = {}
        try:
            while pending or live:
                while pending and len(live) < self.workers:
                    cell, attempt = pending.popleft()
                    recv, send = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_cell_child,
                        args=(cell, send, self.trace_dir is not None,
                              self.executor),
                        daemon=True)
                    process.start()
                    send.close()
                    live[cell.cell_key()] = (cell, _Attempt(
                        process=process, conn=recv,
                        started=_wall_time(), number=attempt))
                self._poll_live(live, pending, results)
                if live:
                    time.sleep(self.poll_interval)
        finally:
            for cell, attempt in live.values():
                self._kill(attempt)

    def _poll_live(self, live, pending, results):
        now = _wall_time()
        for key in list(live):
            cell, attempt = live[key]
            outcome = None
            if attempt.conn.poll():
                try:
                    outcome = attempt.conn.recv()
                except (EOFError, OSError):
                    outcome = ("error", "worker died without reporting "
                                        "(exitcode %r)" % attempt.process.exitcode)
            elif not attempt.process.is_alive():
                outcome = ("error", "worker exited without reporting "
                                    "(exitcode %r)" % attempt.process.exitcode)
            elif (self.timeout is not None
                    and now - attempt.started > self.timeout):
                outcome = ("timeout",
                           "cell exceeded %.3gs timeout; worker killed"
                           % self.timeout)
            if outcome is None:
                continue

            del live[key]
            result = results[key]
            result.attempts = attempt.number
            result.elapsed += _wall_time() - attempt.started
            kind = outcome[0]
            if kind == "timeout":
                self._kill(attempt)
            else:
                attempt.process.join()
                attempt.conn.close()

            if kind == "ok":
                result.status = STATUS_OK
                result.metrics = self._decode(outcome[1])
                payload = outcome[2] if len(outcome) > 2 else None
                result.trace_path = self._write_trace(cell, payload)
            else:
                result.error = outcome[1]
                if attempt.number <= self.retries:
                    pending.append((cell, attempt.number + 1))
                    continue
                result.status = STATUS_TIMEOUT if kind == "timeout" else STATUS_FAILED
            self._report(result, results)

    @staticmethod
    def _kill(attempt):
        process = attempt.process
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(1.0)
        try:
            attempt.conn.close()
        except OSError:  # pragma: no cover
            pass
