"""Resource models ρ — the processing nodes of a local grid (eqs. 1–2).

A *local grid resource* in the paper is a multiprocessor or a cluster of
workstations with ``n`` processing nodes; within each resource the nodes are
configured homogeneous (§3.2: "To simplify the problem, the processors
within each grid node are configured to be homogenous").  We still model
per-node platforms so heterogeneous resources can be expressed — the
evaluation engine then charges the set at the pace of its slowest member
(tightly coupled tasks start and run "in unison", §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ModelError
from repro.pace.hardware import PlatformSpec
from repro.utils.validation import check_non_empty, check_unique

__all__ = ["Node", "ResourceModel"]


@dataclass(frozen=True)
class Node:
    """One processing node P_i of a grid resource.

    ``node_id`` is unique within its resource; ``platform`` carries the
    static PACE resource-model information (eq. 2's ρ_i).
    """

    node_id: int
    platform: PlatformSpec

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ModelError(f"node_id must be >= 0, got {self.node_id}")


class ResourceModel:
    """A grid resource P — an ordered collection of processing nodes (eq. 1).

    Parameters
    ----------
    name:
        Resource identifier, e.g. ``"S1"`` in the case study.
    nodes:
        The processing nodes.  Node ids must be unique.

    Examples
    --------
    >>> from repro.pace.hardware import SGI_ORIGIN_2000
    >>> res = ResourceModel.homogeneous("S1", SGI_ORIGIN_2000, 16)
    >>> res.size
    16
    """

    def __init__(self, name: str, nodes: Sequence[Node]) -> None:
        if not name:
            raise ModelError("resource name must be non-empty")
        check_non_empty(nodes, "nodes")
        check_unique((n.node_id for n in nodes), "node ids")
        self._name = name
        self._nodes: Tuple[Node, ...] = tuple(nodes)
        self._by_id = {n.node_id: n for n in self._nodes}
        self._slowest = max(
            (n.platform for n in self._nodes), key=lambda p: p.speed_factor
        )

    # ------------------------------------------------------------ constructors

    @classmethod
    def homogeneous(cls, name: str, platform: PlatformSpec, count: int) -> "ResourceModel":
        """Build a resource of *count* identical nodes on *platform*."""
        if count <= 0:
            raise ModelError(f"count must be > 0, got {count}")
        return cls(name, [Node(i, platform) for i in range(count)])

    def renamed(self, name: str) -> "ResourceModel":
        """The same nodes under another *name*.

        The twin shares this resource's node tuple, id map and slowest
        platform, which never change once validated, so a grid of many
        identical resources builds and checks each node table once.
        """
        if not name:
            raise ModelError("resource name must be non-empty")
        twin = ResourceModel.__new__(ResourceModel)
        twin._name = name
        twin._nodes = self._nodes
        twin._by_id = self._by_id
        twin._slowest = self._slowest
        return twin

    # ------------------------------------------------------------------ access

    @property
    def name(self) -> str:
        """The resource identifier (e.g. ``"S1"``)."""
        return self._name

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All processing nodes, in id order as constructed."""
        return self._nodes

    @property
    def size(self) -> int:
        """Number of processing nodes ``n``."""
        return len(self._nodes)

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ModelError(
                f"resource {self._name!r} has no node {node_id}"
            ) from None

    def subset(self, node_ids: Sequence[int]) -> Tuple[Node, ...]:
        """Return the nodes for *node_ids* (the allocation ρ_j of a task)."""
        check_non_empty(node_ids, "node_ids")
        check_unique(node_ids, "node_ids")
        return tuple(self.node(i) for i in node_ids)

    def slowest_platform(self, node_ids: Sequence[int] | None = None) -> PlatformSpec:
        """The slowest platform among *node_ids* (default: all nodes).

        Tightly coupled parallel tasks progress at the pace of their slowest
        member, so the evaluation engine charges the whole allocation at
        this platform's speed.
        """
        if node_ids is None:
            return self._slowest
        return max(
            (n.platform for n in self.subset(node_ids)), key=lambda p: p.speed_factor
        )
