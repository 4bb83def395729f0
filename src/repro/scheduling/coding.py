"""The two-part solution-string coding scheme (§2.1, Fig. 2).

"The coding scheme we have developed for this problem consists of two parts:
an ordering part, which specifies the order in which the tasks are to be
executed and a mapping part, which specifies the allocation of processing
nodes to each task.  The ordering of the task-allocation sections in the
mapping part of the string is commensurate with the task order."

A :class:`SolutionString` is immutable; operators produce new instances.
The ordering is a tuple of task ids; the mapping stores, per task id, a
boolean node mask of length ``n`` with at least one bit set.  Keeping the
mapping keyed by task id (rather than by position) is what lets crossover
"preserve the node mapping associated with a particular task from one
generation to the next" and lets the GA absorb task additions/removals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import CodingError

__all__ = ["SolutionString"]


class SolutionString:
    """One legitimate schedule encoding: task order + per-task node masks.

    Parameters
    ----------
    ordering:
        Task ids in execution order.
    mapping:
        Per-task boolean node masks, all of one common length ``n``; every
        mask must select at least one node.  Keys must be exactly the ids
        in *ordering*.
    """

    __slots__ = ("_ordering", "_mapping", "_n_nodes")

    def __init__(
        self, ordering: Sequence[int], mapping: Mapping[int, np.ndarray]
    ) -> None:
        ordering_t = tuple(int(t) for t in ordering)
        if len(set(ordering_t)) != len(ordering_t):
            raise CodingError(f"ordering contains duplicates: {ordering_t}")
        if set(ordering_t) != set(mapping.keys()):
            raise CodingError(
                "ordering and mapping must cover the same task ids: "
                f"{sorted(ordering_t)} vs {sorted(mapping.keys())}"
            )
        fixed: Dict[int, np.ndarray] = {}
        n_nodes = None
        for tid, mask in mapping.items():
            arr = np.asarray(mask, dtype=bool)
            if arr.ndim != 1:
                raise CodingError(f"mask for task {tid} must be 1-D")
            if n_nodes is None:
                n_nodes = arr.size
            elif arr.size != n_nodes:
                raise CodingError(
                    f"mask for task {tid} has length {arr.size}, expected {n_nodes}"
                )
            if not arr.any():
                raise CodingError(f"mask for task {tid} selects no nodes")
            arr.setflags(write=False)
            fixed[tid] = arr
        if ordering_t and n_nodes == 0:
            raise CodingError("node masks must have at least one position")
        self._ordering = ordering_t
        self._mapping = fixed
        self._n_nodes = int(n_nodes) if n_nodes is not None else 0

    # ------------------------------------------------------------------ access

    @property
    def ordering(self) -> Tuple[int, ...]:
        """Task ids in execution order."""
        return self._ordering

    @property
    def n_tasks(self) -> int:
        """Number of tasks encoded."""
        return len(self._ordering)

    @property
    def n_nodes(self) -> int:
        """Node-mask length ``n``."""
        return self._n_nodes

    def mask(self, task_id: int) -> np.ndarray:
        """The (read-only) node mask for *task_id*."""
        try:
            return self._mapping[task_id]
        except KeyError:
            raise CodingError(f"solution does not encode task {task_id}") from None

    def node_ids(self, task_id: int) -> Tuple[int, ...]:
        """Selected node ids for *task_id*, ascending."""
        return tuple(int(i) for i in np.flatnonzero(self.mask(task_id)))

    def count(self, task_id: int) -> int:
        """Number of nodes allocated to *task_id*."""
        return int(self.mask(task_id).sum())

    def items(self) -> Iterable[Tuple[int, np.ndarray]]:
        """``(task_id, mask)`` pairs in execution order."""
        return ((tid, self._mapping[tid]) for tid in self._ordering)

    # -------------------------------------------------------------- rebuilding

    def with_ordering(self, ordering: Sequence[int]) -> "SolutionString":
        """A copy with a new task order over the same mapping."""
        return SolutionString(ordering, self._mapping)

    def with_mask(self, task_id: int, mask: np.ndarray) -> "SolutionString":
        """A copy with *task_id*'s mask replaced."""
        if task_id not in self._mapping:
            raise CodingError(f"solution does not encode task {task_id}")
        new_mapping = dict(self._mapping)
        new_mapping[task_id] = np.asarray(mask, dtype=bool)
        return SolutionString(self._ordering, new_mapping)

    # ------------------------------------------------------------ presentation

    def to_figure2_string(self) -> str:
        """Render in the flat format of Fig. 2: order row + bitstring row.

        >>> import numpy as np
        >>> s = SolutionString([2, 0], {0: np.array([1, 0, 1], bool),
        ...                              2: np.array([0, 1, 0], bool)})
        >>> s.to_figure2_string()
        '2 0 | 010 101'
        """
        order = " ".join(str(t) for t in self._ordering)
        maps = " ".join(
            "".join("1" if b else "0" for b in self._mapping[tid])
            for tid in self._ordering
        )
        return f"{order} | {maps}"

    # ---------------------------------------------------------------- equality

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionString):
            return NotImplemented
        return self._ordering == other._ordering and all(
            np.array_equal(self._mapping[t], other._mapping[t])
            for t in self._ordering
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._ordering,
                tuple(self._mapping[t].tobytes() for t in self._ordering),
            )
        )
