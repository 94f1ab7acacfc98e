"""Fault plans: which failures to inject, where, and how often.

A :class:`FaultPlan` names a *distribution* of failures over the
injection sites the execution stack exposes — worker processes that
die or hang, tasks that raise transiently, store payloads that land
truncated or bit-flipped, lock races, torn appends, dropped clients
and forced deadlines — with one probability per site and a single
seed.  Every injection decision is a pure function of ``(seed, site,
invocation coordinates)``, so a plan replays the same fault sequence
run after run (see :class:`~repro.faults.injector.FaultInjector`).

:data:`FAULT_PLANS` registers the named plans the CLI ``chaos``
subcommand and the CI chaos smoke accept.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from repro.errors import ConfigurationError

__all__ = ["FaultPlan", "FAULT_PLANS", "SITES", "resolve_plan"]

#: Injection sites, in the order the harness consults them, with their
#: seed-stream keys.  The key is part of the deterministic contract: a
#: new site takes the next unused key and a retired site's key is never
#: reused (5 is retired), so a plan and seed keep drawing the same
#: faults at the same places across versions.
SITE_IDS: Dict[str, int] = {
    "worker_crash": 0,      # a worker process dies mid-task (SIGKILL)
    "worker_hang": 1,       # a task blocks far beyond its deadline
    "task_exception": 2,    # a task raises a transient (retryable) error
    "store_truncate": 3,    # a store payload lands cut short, as a crash
                            # mid-write (without the atomic rename) would
    "store_corrupt": 4,     # a store payload lands with flipped bits
    "store_lock": 6,        # a shard/index lock attempt loses a race and
                            # must back off and retry
    "index_torn_write": 7,  # a store-index append is cut mid-record, as
                            # a crash between write() and the record
                            # boundary
    "journal_torn_write": 8,  # a service-journal append is cut
                            # mid-record, as a daemon SIGKILLed between
                            # write() and the record boundary would leave it
    "client_disconnect": 9,  # a service client connection drops before
                            # the response is written (network blip,
                            # client crash); the accepted job must survive
    "job_deadline": 10,     # a service job's wall-clock budget is forced
                            # to expire at its next checkpoint
}

SITES = tuple(SITE_IDS)


@dataclass(frozen=True)
class FaultPlan:
    """Per-site injection probabilities plus the seed that keys them.

    ``max_per_site`` caps how many times each site may fire over the
    injector's lifetime (``None`` = unbounded); ``hang_seconds`` is how
    long an injected hang blocks — longer than any sane task timeout,
    short enough that a *policy-less* run (no hung-worker detection)
    still finishes instead of deadlocking.
    """

    seed: int = 0
    worker_crash: float = 0.0
    worker_hang: float = 0.0
    task_exception: float = 0.0
    store_truncate: float = 0.0
    store_corrupt: float = 0.0
    store_lock: float = 0.0
    index_torn_write: float = 0.0
    journal_torn_write: float = 0.0
    client_disconnect: float = 0.0
    job_deadline: float = 0.0
    max_per_site: Optional[int] = None
    hang_seconds: float = 30.0

    def __post_init__(self):
        for site in SITES:
            p = getattr(self, site)
            if not 0.0 <= float(p) <= 1.0:
                raise ConfigurationError(
                    f"{site} probability must be in [0, 1], got {p!r}"
                )
        if self.max_per_site is not None and self.max_per_site < 0:
            raise ConfigurationError(
                f"max_per_site must be >= 0, got {self.max_per_site}"
            )
        if self.hang_seconds <= 0:
            raise ConfigurationError(
                f"hang_seconds must be > 0, got {self.hang_seconds}"
            )

    @property
    def probabilities(self) -> Dict[str, float]:
        """Site -> probability, in site order."""
        return {site: float(getattr(self, site)) for site in SITES}

    @property
    def active_sites(self) -> tuple:
        """The sites this plan can actually fire."""
        return tuple(s for s, p in self.probabilities.items() if p > 0)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same distribution keyed by a different seed."""
        return replace(self, seed=int(seed))

    def describe(self) -> dict:
        """JSON-ready view (the chaos CLI report embeds it)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Named plans for the CLI / CI.  ``transient`` exercises every
#: retryable path at once (the chaos-identity workload); ``crashes`` /
#: ``hangs`` / ``store`` / ``locks`` isolate one failure family;
#: ``storm`` is the kitchen sink for soak testing.
FAULT_PLANS: Dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "transient": FaultPlan(
        worker_crash=0.10,
        task_exception=0.20,
        store_truncate=0.25,
        store_corrupt=0.25,
    ),
    "crashes": FaultPlan(worker_crash=0.25),
    "hangs": FaultPlan(worker_hang=0.20, hang_seconds=20.0),
    "store": FaultPlan(store_truncate=0.4, store_corrupt=0.4),
    "locks": FaultPlan(store_lock=0.5, index_torn_write=0.4),
    "service": FaultPlan(
        journal_torn_write=0.30,
        client_disconnect=0.25,
        task_exception=0.15,
    ),
    "storm": FaultPlan(
        worker_crash=0.15,
        worker_hang=0.05,
        task_exception=0.25,
        store_truncate=0.30,
        store_corrupt=0.30,
        store_lock=0.20,
        index_torn_write=0.15,
        journal_torn_write=0.15,
        client_disconnect=0.10,
        hang_seconds=20.0,
    ),
}


def resolve_plan(name_or_plan, seed: Optional[int] = None) -> FaultPlan:
    """A plan from its registry name (or pass a plan through), optionally
    re-keyed by ``seed``."""
    if isinstance(name_or_plan, FaultPlan):
        plan = name_or_plan
    else:
        try:
            plan = FAULT_PLANS[name_or_plan]
        except KeyError:
            raise ConfigurationError(
                f"unknown fault plan {name_or_plan!r}; expected one of "
                f"{sorted(FAULT_PLANS)} or a FaultPlan"
            ) from None
    if seed is not None:
        plan = plan.with_seed(seed)
    return plan
