"""Processes and threads.

A :class:`OsProcess` is an address space plus bookkeeping; a
:class:`OsThread` is a schedulable entity whose *body* is a generator
over :mod:`repro.os.ops` operations.  The kernel interprets bodies on
cores; thread objects here only hold state and statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

__all__ = ["ThreadState", "OsThread", "OsProcess"]


class ThreadState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class ThreadStats:
    """Per-thread scheduling statistics."""

    scheduled_count: int = 0
    preempted_count: int = 0
    voluntary_yields: int = 0
    blocked_count: int = 0
    cpu_ns: float = 0.0


class OsThread:
    """A kernel-schedulable thread."""

    def __init__(
        self,
        tid: int,
        process: "OsProcess",
        body: Generator,
        name: str = "",
        pinned_core: Optional[int] = None,
        priority: int = 0,
    ):
        self.tid = tid
        self.process = process
        self.body = body
        self.name = name or f"{process.name}/t{tid}"
        self.pinned_core = pinned_core
        self.priority = priority
        self.state = ThreadState.READY
        #: core the thread is currently running on (None when not running)
        self.core_id: Optional[int] = None
        #: value to send into the body generator at next resume
        self.resume_value: Any = None
        self.stats = ThreadStats()
        #: event that fires when the thread exits
        self.exit_event = None  # set by the kernel at spawn
        self.exit_value: Any = None

    @property
    def is_kernel_thread(self) -> bool:
        return self.process.is_kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OsThread {self.name} {self.state.value}>"


class OsProcess:
    """An address space: the unit of context-switch cost and of RPC
    demultiplexing (one service end-point maps to one process)."""

    _KERNEL_PID = 0

    def __init__(self, pid: int, name: str, is_kernel: bool = False):
        self.pid = pid
        self.name = name
        self.is_kernel = is_kernel
        self.threads: list[OsThread] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OsProcess {self.pid} {self.name!r}>"
