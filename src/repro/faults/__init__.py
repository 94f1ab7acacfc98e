"""Deterministic fault injection for the measurement execution stack.

``repro.faults`` is the chaos harness the robustness guarantees are
tested against: a :class:`FaultPlan` names per-site failure
probabilities under one seed, a :class:`FaultInjector` draws
reproducible injection decisions and logs every fault it fires, and
:func:`inject` installs the injector for a ``with`` block so the
scheduler, the result store and the service consult it at their
fault sites.  See ``docs/ROBUSTNESS.md`` for the fault model
and the guarantees (chaos identity, crash-consistent resume) asserted
in the test suite.
"""

from repro.faults.injector import (
    FaultDirective,
    FaultInjector,
    InjectedTaskError,
    InjectionRecord,
    active_injector,
    client_disconnect_fault,
    inject,
    job_deadline_fault,
    journal_torn_fault,
)
from repro.faults.plan import FAULT_PLANS, SITES, FaultPlan, resolve_plan

__all__ = [
    "FAULT_PLANS",
    "SITES",
    "FaultDirective",
    "FaultInjector",
    "FaultPlan",
    "InjectedTaskError",
    "InjectionRecord",
    "active_injector",
    "client_disconnect_fault",
    "inject",
    "job_deadline_fault",
    "journal_torn_fault",
    "resolve_plan",
]
