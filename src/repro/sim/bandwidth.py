"""Upload-bandwidth modelling.

Freeriding matters because upload bandwidth is the scarce resource
(§1).  Each node owns an :class:`UploadLink`: a serialising queue with a
capacity in bytes/second.  Sending a message occupies the link for
``size / rate`` seconds; concurrent sends queue behind each other.  A
node with a small capacity therefore ships chunks late — exactly the
"poor capabilities" honest nodes that show up as false positives in the
paper's PlanetLab runs (§7.3).

An infinite-capacity link (the default) degenerates to zero
serialisation delay, which keeps unit tests simple.
"""

from __future__ import annotations

import math

from repro.util.validation import require, require_positive


class UploadLink:
    """Serialising upload link with a byte/second capacity.

    The link tracks the time at which it becomes free; a transmission
    enqueued at ``now`` starts at ``max(now, free_at)`` and completes
    ``size / rate`` later.

    >>> link = UploadLink(rate_bytes_per_s=1000.0)
    >>> link.transmit(now=0.0, size_bytes=500)   # 0.5 s serialisation
    0.5
    >>> link.transmit(now=0.0, size_bytes=500)   # queues behind the first
    1.0
    """

    __slots__ = ("rate", "free_at", "bytes_sent")

    def __init__(self, rate_bytes_per_s: float = math.inf) -> None:
        if not math.isinf(rate_bytes_per_s):
            require_positive(rate_bytes_per_s, "rate_bytes_per_s")
        self.rate = rate_bytes_per_s
        self.free_at = 0.0
        self.bytes_sent = 0

    def transmit(self, now: float, size_bytes: int) -> float:
        """Account a transmission of ``size_bytes`` starting at ``now``.

        Returns the absolute time at which the last byte leaves the
        link (i.e. when the message enters the network).
        """
        if not size_bytes >= 0:  # negated form also rejects NaN
            require(size_bytes >= 0, "size_bytes must be >= 0, got %r", size_bytes)
        self.bytes_sent += size_bytes
        rate = self.rate
        if rate == math.inf:
            return now
        start = self.free_at
        if now > start:
            start = now
        finish = start + size_bytes / rate
        self.free_at = finish
        return finish
