"""Grouping data structures.

A *grouping* (Section II) partitions the ``n`` participants into ``k``
non-overlapping, equi-sized groups.  Participants are identified by their
integer index ``0 … n−1`` into the skill array; a :class:`Group` is an
immutable tuple of member indices and a :class:`Grouping` is an immutable
sequence of groups that is validated to be a proper equi-sized partition.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro._validation import require_divisible_groups

__all__ = ["Group", "Grouping"]


class Group(tuple):
    """An immutable group of participant indices.

    ``Group`` is a thin ``tuple`` subclass: cheap, hashable, and directly
    usable for numpy fancy indexing via :meth:`indices`.
    """

    __slots__ = ()

    def __new__(cls, members: Iterable[int]) -> "Group":
        if isinstance(members, np.ndarray) and np.issubdtype(members.dtype, np.integer):
            # tolist() converts to Python ints at C speed — this path is
            # hot when building groupings for millions of participants.
            members = tuple(members.tolist())
        else:
            members = tuple(int(m) for m in members)
        if len(members) == 0:
            raise ValueError("a group must have at least one member")
        if min(members) < 0:
            raise ValueError("member indices must be non-negative")
        if len(set(members)) != len(members):
            raise ValueError(f"group contains duplicate members: {members}")
        return super().__new__(cls, members)

    def indices(self) -> np.ndarray:
        """Member indices as an integer numpy array (for fancy indexing)."""
        return np.array(self, dtype=np.intp)

    def __repr__(self) -> str:
        return f"Group({list(self)})"


class Grouping:
    """A validated partition of ``n`` participants into ``k`` equi-sized groups.

    Args:
        groups: an iterable of groups (each an iterable of member indices).
        n: optional expected number of participants; inferred from the
            groups when omitted.

    Raises:
        ValueError: if the groups are not disjoint, do not cover exactly
            ``0 … n−1``, or are not all the same size.

    Example:
        >>> g = Grouping([[0, 3], [1, 2]])
        >>> g.k, g.group_size, g.n
        (2, 2, 4)
    """

    __slots__ = ("_groups", "_n", "_assignment")

    def __init__(self, groups: Iterable[Iterable[int]], *, n: int | None = None) -> None:
        self._groups: tuple[Group, ...] = tuple(
            member if isinstance(member, Group) else Group(member) for member in groups
        )
        if not self._groups:
            raise ValueError("a grouping must contain at least one group")
        sizes = {len(g) for g in self._groups}
        if len(sizes) != 1:
            raise ValueError(f"all groups must be equi-sized, got sizes {sorted(sizes)}")
        members = [m for g in self._groups for m in g]
        total = len(members)
        if n is not None and n != total:
            raise ValueError(f"grouping covers {total} members, expected n={n}")
        covered = set(members)
        if len(covered) != total:
            raise ValueError("groups must be disjoint")
        if covered != set(range(total)):
            raise ValueError(f"groups must cover exactly the indices 0..{total - 1}")
        self._n = total
        assignment = np.empty(total, dtype=np.intp)
        for gi, group in enumerate(self._groups):
            assignment[list(group)] = gi
        self._assignment = assignment

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_assignment(cls, assignment: Sequence[int] | np.ndarray) -> "Grouping":
        """Build a grouping from a length-``n`` group-label array.

        ``assignment[i]`` is the group index of participant ``i``.  Labels
        must be ``0 … k−1`` and yield equi-sized groups.
        """
        labels = np.asarray(assignment, dtype=np.intp)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("assignment must be a non-empty 1-D sequence")
        k = int(labels.max()) + 1
        groups: list[list[int]] = [[] for _ in range(k)]
        for member, label in enumerate(labels):
            if label < 0:
                raise ValueError("group labels must be non-negative")
            groups[label].append(member)
        if any(not g for g in groups):
            raise ValueError("group labels must be contiguous 0..k-1 (found an empty group)")
        return cls(groups)

    @classmethod
    def blocks_of_sorted(cls, order: np.ndarray, k: int) -> "Grouping":
        """Partition an ordering of participants into ``k`` contiguous blocks."""
        n = len(order)
        size = require_divisible_groups(n, k)
        return cls(order[i * size : (i + 1) * size] for i in range(k))

    @classmethod
    def from_members(cls, members: np.ndarray) -> "Grouping":
        """Build a grouping from a ``(k, size)`` member-index matrix.

        Trusted fast path for the grouping kernels: the caller guarantees
        ``members`` is an integer matrix whose entries are a permutation
        of ``0 … n−1`` (rank listings indexed through a sort order are
        permutations by construction), so the partition checks of the
        validating constructor are skipped.  Hot in the scalar DyGroups
        groupers and the serve-layer grouping memo, where constructor
        validation used to dominate the per-proposal cost.
        """
        k, size = members.shape
        n = k * size
        groups = tuple(
            tuple.__new__(Group, row) for row in members.tolist()
        )
        grouping = object.__new__(cls)
        grouping._groups = groups
        grouping._n = n
        assignment = np.empty(n, dtype=np.intp)
        assignment[members.ravel()] = np.repeat(np.arange(k, dtype=np.intp), size)
        grouping._assignment = assignment
        return grouping

    # -- accessors ---------------------------------------------------------

    @property
    def groups(self) -> tuple[Group, ...]:
        """The groups, in formation order."""
        return self._groups

    @property
    def n(self) -> int:
        """Total number of participants."""
        return self._n

    @property
    def k(self) -> int:
        """Number of groups."""
        return len(self._groups)

    @property
    def group_size(self) -> int:
        """Members per group (``n // k``)."""
        return self._n // len(self._groups)

    @property
    def assignment(self) -> np.ndarray:
        """Length-``n`` array mapping each participant to its group index."""
        return self._assignment.copy()

    def group_of(self, member: int) -> int:
        """Group index of ``member``."""
        if not 0 <= member < self._n:
            raise IndexError(f"member index {member} out of range 0..{self._n - 1}")
        return int(self._assignment[member])

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Order-independent canonical form (sorted members, sorted groups).

        Two groupings are the *same partition* iff their canonical forms
        are equal; used for equality, hashing, and brute-force dedup.
        """
        return tuple(sorted(tuple(sorted(g)) for g in self._groups))

    # -- dunder ------------------------------------------------------------

    def __iter__(self) -> Iterator[Group]:
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __getitem__(self, index: int) -> Group:
        return self._groups[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grouping):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        inner = ", ".join(repr(list(g)) for g in self._groups)
        return f"Grouping([{inner}])"
