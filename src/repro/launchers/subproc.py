"""Subprocess launcher: one ``repro worker-chunk`` process per chunk.

Each chunk attempt becomes a freshly spawned interpreter running
``python -m repro.cli worker-chunk <spec.json>``.  Compared with the
local pool this trades per-chunk startup cost for *real* process
isolation: a chunk can be killed at the wall-clock deadline without
disturbing its siblings (``kill_is_collateral`` stays False), a dying
worker takes down nothing but itself, and the execution path is
byte-for-byte the one the ssh backend runs on a remote host -- which
is what makes the chaos-smoke CI job representative.

Workers write straight into the orchestrator's result store (their own
``seg-<seq>-<writer>`` segments; concurrent append is safe by
construction), so a chunk killed mid-flight leaves its completed
records durable and its retry re-simulates nothing.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from typing import Optional

from repro.launchers.base import (
    Chunk,
    ChunkHandle,
    ChunkOutcome,
    Launcher,
)
from repro.launchers.worker import (
    SPEC_ENV_KEYS,
    ChunkSpecError,
    encode_chunk_spec,
    load_chunk_result,
)

#: Exit code the worker-chunk CLI uses for "the chunk raised" (the
#: worker stayed alive and reported cleanly), as opposed to the
#: process dying.  EX_SOFTWARE from sysexits.
CHUNK_ERROR_EXIT = 70

#: Override the worker command for tests (shlex-split; the spec path
#: is appended).  Default runs this interpreter's repro package.
ENV_WORKER_CMD = "LTRF_WORKER_CMD"


def _stderr_tail(path: str, limit: int = 2000) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return ""
    return text[-limit:].strip()


def spec_environment() -> dict:
    """The env whitelist a chunk spec carries to its worker."""
    return {
        name: os.environ[name]
        for name in SPEC_ENV_KEYS
        if name in os.environ
    }


def worker_command() -> list:
    override = os.environ.get(ENV_WORKER_CMD)
    if override:
        return shlex.split(override)
    return [sys.executable, "-m", "repro.cli", "worker-chunk"]


class _SubprocHandle(ChunkHandle):
    def __init__(self, chunk: Chunk, process, output: str,
                 stderr_path: str, attempt: int, launcher) -> None:
        super().__init__(chunk)
        self.process = process
        self.output = output
        self.stderr_path = stderr_path
        self.attempt = attempt
        self.launcher = launcher

    def poll(self) -> Optional[ChunkOutcome]:
        code = self.process.poll()
        if code is None:
            return None
        self.launcher._release(self)
        if code == 0:
            try:
                entries = load_chunk_result(
                    self.output, self.chunk.id, self.attempt
                )
            except ChunkSpecError as error:
                return ChunkOutcome(status="error", message=str(error))
            return ChunkOutcome(
                status="ok",
                results=self.launcher._align(self.chunk, entries),
            )
        tail = _stderr_tail(self.stderr_path)
        if code == CHUNK_ERROR_EXIT:
            return ChunkOutcome(status="error", message=tail)
        return ChunkOutcome(
            status="died",
            message=f"worker exited with code {code}"
                    + (f": {tail}" if tail else ""),
        )

    def kill(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.kill()
                self.process.wait(timeout=5)
            except Exception:
                pass
        self.launcher._release(self)


def align_results(chunk: Chunk, entries: list) -> list:
    """Map a worker's result entries back onto ``chunk.items`` order.

    Returns ``[(RunRecord, SimTelemetry|None, cached)]`` aligned with
    the chunk; raises :class:`ChunkSpecError` when any request's
    result is missing (a worker that silently dropped work must read
    as a failed delivery, not as silent data loss).
    """
    from repro.experiments.runner import RunRecord, SimTelemetry

    by_key = {entry["key"]: entry for entry in entries}
    aligned = []
    for key, _request in chunk.items:
        entry = by_key.get(key)
        if entry is None:
            raise ChunkSpecError(
                f"worker result is missing request {key!r}"
            )
        try:
            record = RunRecord(**entry["record"])
        except TypeError as error:
            raise ChunkSpecError(
                f"worker result for {key!r} does not decode as a "
                f"RunRecord: {error}"
            ) from None
        telemetry = None
        if entry.get("telemetry") is not None:
            try:
                telemetry = SimTelemetry.from_dict(entry["telemetry"])
            except (KeyError, TypeError, AttributeError):
                telemetry = None
        aligned.append((record, telemetry, bool(entry.get("cached"))))
    return aligned


class SubprocessLauncher(Launcher):
    """``--backend subprocess``: one worker process per chunk."""

    name = "subprocess"

    def __init__(self, store_dir: Optional[str] = None) -> None:
        super().__init__()
        self.store_dir = store_dir
        self._workdir: Optional[str] = None
        self._live: set = set()
        self._free_slots: list = []
        self._next_slot = 0

    def start(self, workers: int) -> None:
        self._workdir = tempfile.mkdtemp(prefix="ltrf-chunks-")
        self._free_slots = [f"w{i + 1}" for i in range(max(1, workers))]
        self._next_slot = max(1, workers)

    def _take_slot(self) -> str:
        if self._free_slots:
            return self._free_slots.pop(0)
        self._next_slot += 1
        return f"w{self._next_slot}"

    def _release(self, handle: "_SubprocHandle") -> None:
        if handle in self._live:
            self._live.discard(handle)
            self._free_slots.append(handle.worker_slot)
            self._free_slots.sort(key=lambda slot: int(slot[1:]))

    def _align(self, chunk: Chunk, entries: list) -> list:
        return align_results(chunk, entries)

    def submit(self, chunk: Chunk) -> ChunkHandle:
        import json

        worker = self._take_slot()
        stem = os.path.join(
            self._workdir, f"chunk-{chunk.id}-a{chunk.failures}"
        )
        spec_path = f"{stem}.json"
        output = f"{stem}.result.json"
        stderr_path = f"{stem}.stderr"
        spec = encode_chunk_spec(
            chunk.id, chunk.failures, worker, chunk.items,
            output=output, store_dir=self.store_dir,
            env=spec_environment(),
        )
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle, sort_keys=True)
        env = dict(os.environ)
        env["LTRF_WORKER_ID"] = worker
        with open(stderr_path, "w", encoding="utf-8") as errs:
            process = subprocess.Popen(
                worker_command() + [spec_path],
                stdout=errs, stderr=errs, env=env,
            )
        handle = _SubprocHandle(chunk, process, output, stderr_path,
                                chunk.failures, self)
        handle.worker_slot = worker
        self._live.add(handle)
        return handle

    def shutdown(self, kill: bool = False) -> None:
        for handle in list(self._live):
            if kill:
                handle.kill()
            else:
                try:
                    handle.process.wait(timeout=10)
                except Exception:
                    handle.kill()
        self._live.clear()
        if self._workdir is not None:
            import shutil

            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None
