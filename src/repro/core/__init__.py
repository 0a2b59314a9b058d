"""LiFTinG — the paper's primary contribution (§5).

Components:

* :mod:`repro.core.blames` — the blame values of Table 1.
* :mod:`repro.core.reputation` — the Alliatrust-like decentralised
  score store: ``M`` managers per node, blame fan-out, min-vote reads,
  loss compensation and quorum-based expulsion (§5.1, §6.2).
* :mod:`repro.core.verification` — direct verification and direct
  cross-checking (ack / confirm / confirm-response, §5.2).
* :mod:`repro.core.audit` — local history auditing: entropy checks on
  fanout and fanin plus the a-posteriori cross-check (§5.3).
* :mod:`repro.core.detector` — the cluster-side expulsion controller.
* :mod:`repro.core.auditlog` — the tamper-evident HMAC-chained record
  of blame votes and expulsion decisions (deployment hardening).
"""

from repro.core.audit import AuditResult, Auditor, AuditScheduler
from repro.core.auditlog import AuditLog, AuditRecord, ChainReport, RollbackReport
from repro.core.blames import (
    REASON_AUDIT_COMPENSATION,
    REASON_FANOUT_DECREASE,
    REASON_INVALID_PROPOSAL,
    REASON_NO_ACK,
    REASON_PARTIAL_SERVE,
    REASON_UNACKNOWLEDGED_HISTORY,
    REASON_WITNESS_CONTRADICTION,
    fanout_decrease_blame,
    no_ack_blame,
    partial_serve_blame,
    witness_contradiction_blame,
)
from repro.core.detector import ExpulsionController, ExpulsionRecord
from repro.core.reputation import (
    ManagerAssignment,
    ManagerRecord,
    ReputationManager,
    ScoreBoard,
)
from repro.core.verification import VerificationEngine

__all__ = [
    "AuditLog",
    "AuditRecord",
    "AuditResult",
    "ChainReport",
    "RollbackReport",
    "AuditScheduler",
    "Auditor",
    "ExpulsionController",
    "ExpulsionRecord",
    "ManagerAssignment",
    "ManagerRecord",
    "REASON_AUDIT_COMPENSATION",
    "REASON_FANOUT_DECREASE",
    "REASON_INVALID_PROPOSAL",
    "REASON_NO_ACK",
    "REASON_PARTIAL_SERVE",
    "REASON_UNACKNOWLEDGED_HISTORY",
    "REASON_WITNESS_CONTRADICTION",
    "ReputationManager",
    "ScoreBoard",
    "VerificationEngine",
    "fanout_decrease_blame",
    "no_ack_blame",
    "partial_serve_blame",
    "witness_contradiction_blame",
]
