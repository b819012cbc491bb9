"""Memory request types shared by the controller, caches, and PageForge."""

import enum
from dataclasses import dataclass


class RequestKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class AccessSource(enum.Enum):
    """Who generated a memory request.

    The distinction drives both accounting (Figure 11 splits bandwidth by
    configuration) and behaviour: PageForge requests are issued from the
    memory controller, never allocate into caches, and coalesce with
    pending core requests (Section 3.2.2).
    """

    CORE = "core"
    KSM = "ksm"
    PAGEFORGE = "pageforge"
    HYPERVISOR = "hypervisor"


@dataclass
class MemRequest:
    """One line-sized (64 B) request."""

    kind: RequestKind
    ppn: int
    line_index: int
    source: AccessSource
    issue_cycle: int = 0
    complete_cycle: int = 0
    coalesced: bool = False
    serviced_from_network: bool = False

    @property
    def line_address(self):
        """Globally unique line identifier (PPN, line) packed to an int."""
        return (self.ppn << 6) | self.line_index

    @property
    def latency(self):
        return self.complete_cycle - self.issue_cycle
