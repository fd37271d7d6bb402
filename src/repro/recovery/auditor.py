"""Runtime invariant auditor for RVMA placement and recovery.

Opt-in shadow checker wired into the hot paths of
:class:`~repro.nic.rvma.RvmaNic` and
:class:`~repro.reliability.transport.ReliableTransport` via the
``nic.auditor`` attribute (None by default — disabled costs one
attribute check per placement).  It maintains an independent shadow of
what correct hardware would do and reports divergence as structured
:class:`Violation` records instead of letting a buggy recovery silently
corrupt application results.

Invariants checked:

* **no-double-placement** — one (mailbox, epoch, offset-range) is
  written at most once; after a crash-restart the replay window may
  legally re-place, but only with *byte-identical* data;
* **byte conservation** — under ``EPOCH_BYTES`` the threshold counter
  equals the shadow sum of placed bytes, exactly;
* **monotone counters** — a threshold counter never decreases within
  an epoch;
* **epoch consistency** — completions advance the epoch by exactly one;
  a replayed completion must reproduce the recorded (length, digest);
* **no transport double-dispatch** — the reliability layer never hands
  the same (peer, flow, seq) to the NIC twice (modulo sanctioned
  post-restore replay).
"""

from __future__ import annotations

from _blake2 import blake2s
from dataclasses import dataclass, field
from typing import Optional


def _digest(data: bytes) -> str:
    return blake2s(data, digest_size=8).hexdigest()


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach (structured, test-friendly)."""

    kind: str
    node: int
    mailbox: int
    epoch: int
    time: float
    detail: str

    def describe(self) -> str:
        return (
            f"[{self.kind}] node {self.node} mailbox {self.mailbox:#x} "
            f"epoch {self.epoch} @ {self.time:.0f}ns: {self.detail}"
        )


class AuditError(RuntimeError):
    """Raised on the first violation when the auditor is fail-fast."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.describe())
        self.violation = violation


@dataclass
class _MailboxShadow:
    """Independent shadow of one mailbox's active-epoch accounting."""

    epoch: int = 0  # active epoch being shadowed
    last_counter: int = 0
    placed_bytes: int = 0  # shadow byte sum for the active epoch
    #: counter value at the start of shadowing this epoch (None until
    #: the first placement is observed; nonzero on mid-epoch attach).
    baseline: Optional[int] = None
    last_completed: int = -1  # newest epoch seen completing
    #: sanctioned replay ceiling: epochs < this may legally re-complete
    #: and re-place after a crash-restart (byte-identical only).
    replay_below: int = 0
    #: (epoch, place_off, nbytes) -> digest of the placed bytes.
    placements: dict = field(default_factory=dict)
    #: epoch -> (length, digest) recorded at first completion.
    completions: dict = field(default_factory=dict)


class InvariantAuditor:
    """Cluster-wide shadow checker; attach with :meth:`attach`.

    ``fail_fast=True`` raises :class:`AuditError` on the first breach
    (unit tests); the default collects every violation for the chaos
    harness's post-run audit.
    """

    def __init__(self, fail_fast: bool = False) -> None:
        self.fail_fast = fail_fast
        self.violations: list[Violation] = []
        self.places_checked = 0
        self.completions_checked = 0
        self.dispatches_checked = 0
        self._mail: dict[tuple[int, int], _MailboxShadow] = {}
        #: transport dedup shadow: (node, peer, flow) -> set of seqs.
        self._dispatched: dict[tuple[int, int, int], set] = {}

    # ------------------------------------------------------------------ attach

    def attach(self, cluster) -> "InvariantAuditor":
        for node in cluster.nodes:
            node.nic.auditor = self
        return self

    # ------------------------------------------------------------------ verdicts

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> dict:
        """Structured violation report (chaos harness / CI output)."""
        return {
            "ok": self.ok,
            "violations": [v.describe() for v in self.violations],
            "checked": {
                "placements": self.places_checked,
                "completions": self.completions_checked,
                "dispatches": self.dispatches_checked,
            },
        }

    def _flag(self, kind: str, nic, mailbox: int, epoch: int, detail: str) -> None:
        v = Violation(
            kind=kind, node=nic.node_id, mailbox=mailbox, epoch=epoch,
            time=nic.sim.now, detail=detail,
        )
        self.violations.append(v)
        nic.stat("recovery.audit_violations").add()
        if self.fail_fast:
            raise AuditError(v)

    # ------------------------------------------------------------------ NIC hooks

    def _shadow(self, nic, entry) -> _MailboxShadow:
        sh = self._mail.get((nic.node_id, entry.mailbox))
        if sh is None:
            sh = self._mail[(nic.node_id, entry.mailbox)] = _MailboxShadow(
                epoch=entry.epoch, last_completed=entry.epoch - 1
            )
        return sh

    def on_place(self, nic, entry, buf, place_off: int, nbytes: int, data: bytes) -> None:
        """RvmaNic hook: *nbytes* were just placed at *place_off* of the
        active buffer and the threshold counter updated."""
        from ..nic.lut import EpochType

        self.places_checked += 1
        sh = self._shadow(nic, entry)
        mailbox, epoch = entry.mailbox, entry.epoch
        if epoch != sh.epoch:
            # New active epoch observed without a completion hook (e.g.
            # the auditor was attached mid-run): reset the accumulators.
            sh.epoch = epoch
            sh.baseline = None
            sh.last_counter = 0
            sh.placed_bytes = 0
        key = (epoch, place_off, nbytes)
        dig = _digest(data)
        prev = sh.placements.get(key)
        if prev is not None:
            if epoch < sh.replay_below:
                if prev != dig:
                    self._flag(
                        "replay-divergence", nic, mailbox, epoch,
                        f"replayed placement [{place_off}, +{nbytes}) digest {dig} "
                        f"!= original {prev}",
                    )
            else:
                self._flag(
                    "double-placement", nic, mailbox, epoch,
                    f"[{place_off}, +{nbytes}) placed twice "
                    + ("with identical bytes" if prev == dig else
                       f"with divergent bytes ({prev} then {dig})"),
                )
        else:
            sh.placements[key] = dig
        if buf.counter < sh.last_counter:
            self._flag(
                "counter-regression", nic, mailbox, epoch,
                f"threshold counter went {sh.last_counter} -> {buf.counter}",
            )
        sh.last_counter = buf.counter
        if entry.threshold_type is EpochType.EPOCH_BYTES:
            if sh.baseline is None:
                # First observed placement of this epoch: the counter
                # already includes it.  A nonzero remainder means the
                # shadow attached mid-epoch and adopts it as baseline.
                sh.baseline = buf.counter - nbytes
            sh.placed_bytes += nbytes
            if epoch >= sh.replay_below and buf.counter != sh.baseline + sh.placed_bytes:
                self._flag(
                    "byte-conservation", nic, mailbox, epoch,
                    f"counter {buf.counter} != baseline {sh.baseline} "
                    f"+ shadow byte sum {sh.placed_bytes}",
                )

    def on_epoch_complete(self, nic, entry, record) -> None:
        """RvmaNic hook: the active buffer just retired as *record*
        (``entry.epoch`` has already advanced past ``record.epoch``)."""
        self.completions_checked += 1
        sh = self._shadow(nic, entry)
        mailbox, epoch = entry.mailbox, record.epoch
        length = record.length
        dig = _digest(record.buffer.buffer.read(0, length)) if length else _digest(b"")
        recorded = sh.completions.get(epoch)
        if recorded is not None:
            if epoch >= sh.replay_below:
                self._flag(
                    "epoch-consistency", nic, mailbox, epoch,
                    "epoch completed twice outside a sanctioned replay window",
                )
            elif recorded != (length, dig):
                self._flag(
                    "replay-divergence", nic, mailbox, epoch,
                    f"re-completion produced (len {length}, {dig}), originally "
                    f"(len {recorded[0]}, {recorded[1]})",
                )
        else:
            if sh.last_completed >= 0 and epoch > sh.last_completed + 1:
                self._flag(
                    "epoch-consistency", nic, mailbox, epoch,
                    f"completion jumped {sh.last_completed} -> {epoch}",
                )
            sh.completions[epoch] = (length, dig)
        sh.last_completed = max(sh.last_completed, epoch)
        # The next epoch starts a fresh shadow accumulation.
        sh.epoch = entry.epoch
        sh.baseline = 0
        sh.last_counter = 0
        sh.placed_bytes = 0

    # ------------------------------------------------------------------ transport hook

    def on_transport_dispatch(self, node: int, peer: int, flow: int, seq: int) -> None:
        """ReliableTransport hook: message (peer, flow, seq) was handed
        to the NIC (exactly-once modulo sanctioned restore replay)."""
        self.dispatches_checked += 1
        seen = self._dispatched.setdefault((node, peer, flow), set())
        if seq in seen:
            v = Violation(
                kind="double-dispatch", node=node, mailbox=flow, epoch=-1,
                time=-1.0, detail=f"transport dispatched seq {seq} from node {peer} twice",
            )
            self.violations.append(v)
            if self.fail_fast:
                raise AuditError(v)
        seen.add(seq)

    # ------------------------------------------------------------------ restore sanction

    def note_restore(self, nic, mailbox_epochs: dict, rx_cums: dict) -> None:
        """Recovery hook: *nic*'s node restored to the given per-mailbox
        epochs; peers will replay, so re-placement/re-completion up to
        the epoch that was active at the crash is sanctioned — but must
        be byte-identical (checked against the recorded digests)."""
        for mailbox, restored_epoch in mailbox_epochs.items():
            sh = self._mail.get((nic.node_id, mailbox))
            if sh is None:
                continue
            # sh.epoch is the epoch active at crash time: it saw partial
            # placements, so replay may legally re-place through it.
            sh.replay_below = max(sh.replay_below, sh.epoch + 1)
            sh.epoch = restored_epoch
            sh.baseline = None
            sh.last_counter = 0
            sh.placed_bytes = 0
        for (peer, flow), cum in rx_cums.items():
            seen = self._dispatched.get((nic.node_id, peer, flow))
            if seen is not None:
                # Sequences beyond the restored edge may legally be
                # re-dispatched by peer replay.
                seen.difference_update({s for s in seen if s > cum})
