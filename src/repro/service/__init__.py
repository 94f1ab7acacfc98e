"""The supervised measurement service (PR 9).

The screen as a long-lived daemon: ``repro.cli serve`` runs
:class:`~repro.service.supervisor.MeasurementService`, clients submit
measure/lot/retest jobs over a Unix/TCP JSON-line protocol
(:mod:`~repro.service.protocol`), and the daemon multiplexes them onto
one shared worker pool and result store.  Accepted jobs are journaled
before they are acknowledged (:mod:`~repro.service.journal`), bounded
and prioritized at admission (:mod:`~repro.service.queue`), executed
with checkpointed drain/deadline/preemption boundaries, and recovered
bit-identically after a crash.  See docs/SERVICE.md.
"""

from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    wait_for_server,
)
from repro.service.journal import JobJournal, JournalEntry, JournalState
from repro.service.lifecycle import (
    EXIT_INTERRUPTED,
    EXIT_JOBS_DROPPED,
    ServiceInterrupt,
    drain_engine,
    trap_signals,
)
from repro.service.protocol import JobSpec, ProtocolError
from repro.service.queue import Job, JobQueue
from repro.service.supervisor import (
    JobDeadlineExceeded,
    MeasurementService,
    ServiceConfig,
    ServiceDrain,
    ServiceReport,
)

__all__ = [
    "EXIT_INTERRUPTED",
    "EXIT_JOBS_DROPPED",
    "Job",
    "JobDeadlineExceeded",
    "JobJournal",
    "JobQueue",
    "JobSpec",
    "JournalEntry",
    "JournalState",
    "MeasurementService",
    "ProtocolError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceConnectionError",
    "ServiceDrain",
    "ServiceInterrupt",
    "ServiceReport",
    "drain_engine",
    "trap_signals",
    "wait_for_server",
]
