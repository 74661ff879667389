"""Flow-record data model for the Section 7 trace study.

The paper analyzed 23 days of anonymized IP/transport headers (plus full
DNS payloads) from a departmental edge router.  Our records carry exactly
the fields that analysis needs: timestamps, endpoints, protocol, ports,
TCP SYN / ICMP echo flags (to recognize initiated contacts and worm
scanning), and — for DNS answer packets — the resolved address, standing
in for the recorded DNS payloads.

Addresses are IPv4 integers; :func:`ip_to_str` / :func:`str_to_ip` convert
for display and serialization.  A :class:`Trace` bundles time-sorted
records with the set of internal hosts and optional ground-truth labels
(the synthetic generator fills those in so classifier accuracy can be
measured).
"""

from __future__ import annotations

import csv
import io
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Protocol",
    "HostClass",
    "FlowRecord",
    "FailedContact",
    "Trace",
    "TraceError",
    "ip_to_str",
    "str_to_ip",
    "DNS_PORT",
    "DEFAULT_FAILURE_TIMEOUT",
]

#: Well-known DNS port.
DNS_PORT = 53

#: Seconds an initiated TCP contact may go unanswered before it counts
#: as a connection failure (SYN-timeout scale, not the 75 s full TCP
#: give-up: failure detectors act on the first unanswered retransmit).
DEFAULT_FAILURE_TIMEOUT = 3.0


class TraceError(ValueError):
    """Raised for malformed traces or records."""


class Protocol(Enum):
    """Transport / network protocol of a record."""

    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"


class HostClass(Enum):
    """The paper's four behavioural host categories (Section 7)."""

    NORMAL = "normal"
    SERVER = "server"
    P2P = "p2p"
    WORM_BLASTER = "worm_blaster"
    WORM_WELCHIA = "worm_welchia"

    @property
    def is_worm(self) -> bool:
        """Whether this class is one of the two worm infections."""
        return self in (HostClass.WORM_BLASTER, HostClass.WORM_WELCHIA)


def ip_to_str(ip: int) -> str:
    """Render a 32-bit address as dotted quad."""
    if not 0 <= ip <= 0xFFFFFFFF:
        raise TraceError(f"not a 32-bit address: {ip}")
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def str_to_ip(text: str) -> int:
    """Parse a dotted quad into a 32-bit address."""
    parts = text.split(".")
    if len(parts) != 4:
        raise TraceError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError:
            raise TraceError(f"bad octet {part!r} in {text!r}") from None
        if not 0 <= octet <= 255:
            raise TraceError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@dataclass(slots=True, frozen=True)
class FlowRecord:
    """One captured packet/flow event.

    Attributes
    ----------
    time:
        Seconds since trace start.
    src, dst:
        32-bit addresses.
    protocol:
        :class:`Protocol`.
    src_port, dst_port:
        Transport ports (0 for ICMP).
    tcp_syn:
        True for a TCP connection-initiation packet.
    icmp_echo:
        True for an ICMP echo request (Welchia's scan probe).
    dns_answer:
        For a DNS response packet: the address the name resolved to
        (stands in for the recorded DNS payload).  ``None`` otherwise.
    """

    time: float
    src: int
    dst: int
    protocol: Protocol
    src_port: int = 0
    dst_port: int = 0
    tcp_syn: bool = False
    icmp_echo: bool = False
    dns_answer: int | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise TraceError(f"negative timestamp: {self.time}")
        for label, ip in (("src", self.src), ("dst", self.dst)):
            if not 0 <= ip <= 0xFFFFFFFF:
                raise TraceError(f"{label} is not a 32-bit address: {ip}")
        for label, port in (("src_port", self.src_port),
                            ("dst_port", self.dst_port)):
            if not 0 <= port <= 65535:
                raise TraceError(f"{label} out of range: {port}")
        if self.dns_answer is not None and self.protocol is not Protocol.UDP:
            raise TraceError("dns_answer only valid on UDP records")

    @property
    def is_dns_answer(self) -> bool:
        """Whether this is a DNS response carrying a resolution."""
        return self.dns_answer is not None

    @property
    def icmp_unreachable(self) -> bool:
        """Whether this is an ICMP error (destination unreachable).

        The trace model carries no echo *replies* — every non-echo ICMP
        record is an error bounce (the synthetic generator only emits
        unreachables there, and the paper's failure signal is exactly
        the unreachable class).  An unreachable from ``src`` answers a
        contact that ``dst`` previously initiated toward ``src``.
        """
        return self.protocol is Protocol.ICMP and not self.icmp_echo

    @property
    def initiates_contact(self) -> bool:
        """Whether this record *initiates* a contact with ``dst``.

        TCP SYNs, ICMP echo requests, and non-DNS UDP packets count;
        DNS queries/answers and non-SYN TCP segments do not (they are
        part of established or infrastructure exchanges).
        """
        if self.protocol is Protocol.TCP:
            return self.tcp_syn
        if self.protocol is Protocol.ICMP:
            return self.icmp_echo
        # UDP: anything that is not DNS infrastructure traffic.
        return self.dst_port != DNS_PORT and self.dns_answer is None


@dataclass(slots=True, frozen=True)
class FailedContact:
    """A contact initiation that drew a failure signal.

    Attributes
    ----------
    time:
        When the failed contact was *initiated* (the SYN/echo time).
    detected_at:
        When the failure became observable: the ICMP unreachable's
        arrival, or ``time + timeout`` for an unanswered SYN.
    src, dst:
        Initiator and target of the failed contact.
    dst_port:
        Target port of the initiation (0 for ICMP echoes).
    reason:
        ``"timeout"`` (SYN never answered) or ``"unreachable"``
        (explicit ICMP error bounce).
    """

    time: float
    detected_at: float
    src: int
    dst: int
    dst_port: int
    reason: str


_CSV_FIELDS = [
    "time",
    "src",
    "dst",
    "protocol",
    "src_port",
    "dst_port",
    "tcp_syn",
    "icmp_echo",
    "dns_answer",
]


class Trace:
    """A time-sorted sequence of flow records plus host metadata.

    Parameters
    ----------
    records:
        Flow records; sorted by time on construction.
    internal_hosts:
        Addresses on the inside of the monitored edge router.
    labels:
        Optional ground-truth ``address -> HostClass`` map (synthetic
        traces carry one; real traces would not).
    """

    def __init__(
        self,
        records: Iterable[FlowRecord],
        internal_hosts: Iterable[int],
        *,
        labels: dict[int, HostClass] | None = None,
    ) -> None:
        self._records: list[FlowRecord] = sorted(records, key=lambda r: r.time)
        self._internal: frozenset[int] = frozenset(internal_hosts)
        if not self._internal:
            raise TraceError("a trace needs at least one internal host")
        self.labels: dict[int, HostClass] = dict(labels or {})
        unknown = set(self.labels) - self._internal
        if unknown:
            raise TraceError(
                f"labels reference non-internal hosts: {sorted(unknown)[:5]}"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def records(self) -> Sequence[FlowRecord]:
        """All records, time-sorted."""
        return self._records

    @property
    def internal_hosts(self) -> frozenset[int]:
        """Addresses inside the monitored network."""
        return self._internal

    @property
    def duration(self) -> float:
        """Time span covered by the records (0 for an empty trace)."""
        if not self._records:
            return 0.0
        return self._records[-1].time - self._records[0].time

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._records)

    def is_internal(self, ip: int) -> bool:
        """Whether ``ip`` belongs to the monitored network."""
        return ip in self._internal

    def inbound_records(self) -> Iterator[FlowRecord]:
        """Records entering the network (external src, internal dst)."""
        for record in self._records:
            if record.src not in self._internal and record.dst in self._internal:
                yield record

    def records_from(self, host: int) -> list[FlowRecord]:
        """All records originated by ``host``."""
        return [r for r in self._records if r.src == host]

    def hosts_of_class(self, host_class: HostClass) -> list[int]:
        """Internal hosts labeled with ``host_class`` (ground truth)."""
        return sorted(
            host for host, label in self.labels.items() if label is host_class
        )

    def failed_contacts(
        self, timeout: float = DEFAULT_FAILURE_TIMEOUT
    ) -> list[FailedContact]:
        """Contact initiations that drew a failure signal, time-ordered.

        Two failure classes, matching the connection-failure containment
        literature:

        * ``"timeout"`` — a TCP SYN with no answering segment (non-SYN
          TCP from the target back to the initiator) within ``timeout``
          seconds.  An answer clears *every* outstanding SYN for that
          (initiator, target) pair.  SYNs still unanswered when the
          trace ends count as timeouts (their ``detected_at`` may fall
          past the last record) — the same flush semantics the
          streaming detector's ``finish()`` applies, so batch and
          stream agree exactly.
        * ``"unreachable"`` — an ICMP unreachable from the target fails
          every outstanding contact (SYN or echo) the initiator had
          toward it.  Unanswered ICMP echoes alone are *not* failures:
          the trace carries no echo replies, so silence is
          uninformative there.

        Returns failures sorted by ``(detected_at, time, src, dst)``.
        """
        if timeout <= 0:
            raise TraceError(f"timeout must be positive, got {timeout}")
        failures: list[FailedContact] = []
        # Entry: [time, src, dst, dst_port, is_tcp, alive]
        queue: deque[list] = deque()
        by_pair: dict[tuple[int, int], deque[list]] = {}

        def expire(now: float | None) -> None:
            while queue and (now is None or queue[0][0] + timeout < now):
                t, src, dst, port, is_tcp, alive = entry = queue.popleft()
                if alive and is_tcp:
                    failures.append(
                        FailedContact(
                            time=t,
                            detected_at=t + timeout,
                            src=src,
                            dst=dst,
                            dst_port=port,
                            reason="timeout",
                        )
                    )
                entry[5] = False
                # Global FIFO == per-pair FIFO, so the expired entry is
                # at the front of its pair bucket; prune to bound memory.
                bucket = by_pair.get((src, dst))
                if bucket and bucket[0] is entry:
                    bucket.popleft()
                    if not bucket:
                        del by_pair[(src, dst)]

        for r in self._records:
            expire(r.time)
            if r.protocol is Protocol.TCP and not r.tcp_syn:
                # Response traffic: answers contacts dst made toward src.
                for entry in by_pair.pop((r.dst, r.src), ()):
                    entry[5] = False
            elif r.icmp_unreachable:
                for entry in by_pair.pop((r.dst, r.src), ()):
                    if entry[5]:
                        failures.append(
                            FailedContact(
                                time=entry[0],
                                detected_at=r.time,
                                src=entry[1],
                                dst=entry[2],
                                dst_port=entry[3],
                                reason="unreachable",
                            )
                        )
                        entry[5] = False
            elif r.initiates_contact and r.protocol is not Protocol.UDP:
                entry = [
                    r.time,
                    r.src,
                    r.dst,
                    r.dst_port,
                    r.protocol is Protocol.TCP,
                    True,
                ]
                queue.append(entry)
                by_pair.setdefault((r.src, r.dst), deque()).append(entry)
        expire(None)
        failures.sort(key=lambda f: (f.detected_at, f.time, f.src, f.dst))
        return failures

    # ------------------------------------------------------------------
    # Serialization (CSV — the traces are header-only, CSV is faithful)
    # ------------------------------------------------------------------

    def to_csv(self) -> str:
        """Serialize the records (not metadata) as CSV text."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for r in self._records:
            writer.writerow(
                {
                    "time": repr(r.time),
                    "src": ip_to_str(r.src),
                    "dst": ip_to_str(r.dst),
                    "protocol": r.protocol.value,
                    "src_port": r.src_port,
                    "dst_port": r.dst_port,
                    "tcp_syn": int(r.tcp_syn),
                    "icmp_echo": int(r.icmp_echo),
                    "dns_answer": (
                        ip_to_str(r.dns_answer)
                        if r.dns_answer is not None
                        else ""
                    ),
                }
            )
        return buffer.getvalue()

    @classmethod
    def from_csv(
        cls,
        text: str,
        internal_hosts: Iterable[int],
        *,
        labels: dict[int, HostClass] | None = None,
    ) -> "Trace":
        """Parse records from :meth:`to_csv` output.

        Any malformed input — bad framing, missing or truncated fields,
        unparseable values — raises :class:`TraceError`; no lower-level
        exception type escapes.
        """
        reader = csv.DictReader(io.StringIO(text))
        records: list[FlowRecord] = []
        try:
            for row in reader:
                try:
                    records.append(
                        FlowRecord(
                            time=float(row["time"]),
                            src=str_to_ip(row["src"]),
                            dst=str_to_ip(row["dst"]),
                            protocol=Protocol(row["protocol"]),
                            src_port=int(row["src_port"]),
                            dst_port=int(row["dst_port"]),
                            tcp_syn=bool(int(row["tcp_syn"])),
                            icmp_echo=bool(int(row["icmp_echo"])),
                            dns_answer=(
                                str_to_ip(row["dns_answer"])
                                if row["dns_answer"]
                                else None
                            ),
                        )
                    )
                except (KeyError, ValueError, TypeError) as exc:
                    raise TraceError(
                        f"malformed CSV row {row!r}: {exc}"
                    ) from exc
        except csv.Error as exc:
            raise TraceError(f"malformed CSV framing: {exc}") from exc
        return cls(records, internal_hosts, labels=labels)
