"""Service-information records (Fig. 5).

Each agent advertises one record describing the local grid resource it
fronts: the agent's and scheduler's (address, port) identities, the
hardware model and processor count, supported execution environments, and
``freetime`` — "the latest GA scheduling makespan ω ... the earliest
(approximate) time that corresponding processors become available for more
tasks" (§3.2).

The record class itself lives in :mod:`repro.net.payloads` with the other
protocol payloads; this module is its paper-facing home within the agent
layer.
"""

from repro.net.payloads import ServiceInfo

__all__ = ["ServiceInfo"]
