"""DNS-translation cache model and the contact classification built on it.

The DNS-based rate-limiting refinement counts only contacts to addresses
*without* a valid DNS translation: worms pick pseudo-random 32-bit targets
and never resolve a name first, while almost all legitimate client traffic
follows a lookup.  The cache here replays DNS answer records from a trace
and answers the one question the analysis needs: *did this client hold a
valid translation for that address at that moment?*

:class:`ContactClassifier` is the one place that decides whether a
record is an outbound contact and how the Section 7 refinements treat
it; the window counters, throttle replay and online detectors all ask
it.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from enum import Enum

from .records import DNS_PORT, FlowRecord

__all__ = [
    "ContactClassifier",
    "DnsCache",
    "DEFAULT_DNS_TTL",
    "Refinement",
]

#: Default translation lifetime, seconds.  Generous on purpose: the scheme
#: errs toward not penalizing legitimate traffic.
DEFAULT_DNS_TTL = 1800.0


class DnsCache:
    """Per-client cache of (resolved address, expiry) pairs.

    Feed it DNS answer records in time order (:meth:`observe`); query with
    :meth:`has_valid_translation`.
    """

    def __init__(self, ttl: float = DEFAULT_DNS_TTL) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self._ttl = ttl
        # client -> {resolved address -> expiry time}
        self._entries: dict[int, dict[int, float]] = defaultdict(dict)

    @property
    def ttl(self) -> float:
        """Translation lifetime in seconds."""
        return self._ttl

    def observe(self, record: FlowRecord) -> bool:
        """Ingest one record; returns True if it carried a DNS answer.

        A DNS answer from a resolver (src port 53) to a client installs
        the resolved address in that client's cache.
        """
        if record.dns_answer is None or record.src_port != DNS_PORT:
            return False
        client = record.dst
        self._entries[client][record.dns_answer] = record.time + self._ttl
        return True

    def has_valid_translation(self, client: int, address: int, now: float) -> bool:
        """Whether ``client`` held a live translation for ``address``."""
        expiry = self._entries.get(client, {}).get(address)
        return expiry is not None and now <= expiry


class Refinement(Enum):
    """Contact-classification refinement (Figure 9's three lines)."""

    ALL = "distinct_ips"
    NO_PRIOR = "no_prior_contact"
    NO_DNS = "no_prior_no_dns"


class ContactClassifier:
    """Decides which records are outbound contacts, under each refinement.

    Feed every record of a time-ordered stream to :meth:`observe`: DNS
    answers go to :attr:`dns` and inbound initiations are remembered as
    prior contacts of their internal target.  :meth:`counted` then
    applies a refinement to the record just observed.
    """

    def __init__(
        self,
        internal: Callable[[int], bool],
        *,
        dns_ttl: float = DEFAULT_DNS_TTL,
    ) -> None:
        self.internal = internal
        self.dns = DnsCache(ttl=dns_ttl)
        #: internal host -> external addresses that contacted it first.
        self.prior_contacts: dict[int, set[int]] = defaultdict(set)

    def observe(self, record: FlowRecord) -> bool:
        """Ingest the stream's next record; True for an inbound initiation."""
        if record.dns_answer is not None:
            self.dns.observe(record)
        if (
            self.internal(record.src)
            or not self.internal(record.dst)
            or not record.initiates_contact
        ):
            return False
        self.prior_contacts[record.dst].add(record.src)
        return True

    def outbound(self, record: FlowRecord) -> bool:
        """Whether an internal host initiated contact with an external one.

        Needs no state: this is the ``Refinement.ALL`` decision.
        """
        return (
            record.initiates_contact
            and self.internal(record.src)
            and not self.internal(record.dst)
        )

    def counted(self, record: FlowRecord, refinement: Refinement) -> bool:
        """Whether ``refinement`` counts the record just observed."""
        if not self.outbound(record):
            return False
        if refinement is Refinement.ALL:
            return True
        if record.dst in self.prior_contacts[record.src]:
            return False
        return refinement is Refinement.NO_PRIOR or not (
            self.dns.has_valid_translation(record.src, record.dst, record.time)
        )
