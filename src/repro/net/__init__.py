"""Routed, contended cross-host transport (the DCN as a subsystem).

The network layer the single-controller design rides on: a
:class:`~repro.net.fabric.Fabric` of per-link bandwidth resources (host
NIC tx/rx, per-island uplinks, spine) with static two-tier routes, and a
:class:`~repro.net.transport.Transport` whose first-class
:class:`~repro.net.transport.Message` objects are tracked while in
flight — so a host crash invalidates routes through the dead NIC and
fails in-flight messages into the ``retry_on_failure`` recovery path.

``SystemConfig.net_contention`` selects the cost model: off (default)
reproduces the historical uncontended point-to-point DCN byte-for-byte;
on carries every message as one fluid flow across its contended route,
each link's bandwidth split fairly among the flows crossing it.
"""

from repro.net.fabric import Fabric, Link
from repro.net.transport import Message, MessageLost, Transport, TransportStats

__all__ = [
    "Fabric",
    "Link",
    "Message",
    "MessageLost",
    "Transport",
    "TransportStats",
]
