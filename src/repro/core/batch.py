"""Batched DyGroups proposals.

Both ``DYGROUPS-MODE-LOCAL`` groupers are pure functions of the
*descending order* of the skill array (Algorithms 2 and 3), so proposing
for ``m`` same-shaped skill vectors reduces to a single ``(m, n)`` stable
descending order — one vectorized numpy sort instead of ``m`` Python
round trips — followed by an index gather per row.

The pieces, used by the stacked-trial simulation engine
(:mod:`repro.core.vectorized`), the scalar groupers
(:mod:`repro.core.local`) and the serving layer's grouping memo
(:mod:`repro.serve.cache`):

* :func:`rank_structure` — the grouper's output expressed over *ranks*
  (position in the descending order) rather than member indices.  For a
  fixed ``(n, k, mode)`` this structure is constant: Algorithm 2 places
  rank ``i`` as teacher ``i`` and deals the rest in contiguous blocks;
  Algorithm 3 deals rank ``j`` to group ``j mod k``.
* :func:`flat_rank_listing` — the same structure flattened to one
  ``(n,)`` index array (group ``g`` occupies the contiguous slice
  ``[g·t, (g+1)·t)``), the layout the batched update kernels consume;
  the grouping memo groups its misses through it.
* :func:`descending_orders` — the single stable ``(m, n)`` descending
  order every batched grouper reduces to (a SIMD sort plus an exact
  repair of tie order).
* :func:`listing_members` — apply a rank listing to those orders,
  giving the C-ordered ``(m, n)`` members matrix.
* :func:`as_skills_matrix` — validate/coerce a batch of skill vectors to
  a fresh ``(m, n)`` float64 matrix.

Bit-identity with the scalar groupers is guaranteed (and pinned by
tests): row ``i`` of ``listing_members(descending_orders(S),
flat_rank_listing(n, k, mode))``, cut into ``k`` consecutive groups,
lists exactly the same members in exactly the same order as
``dygroups_star_local(S[i], k)`` / ``dygroups_clique_local(S[i], k)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro._validation import require_divisible_groups

__all__ = [
    "BATCH_MODES",
    "SharedMatrix",
    "as_skills_matrix",
    "descending_orders",
    "flat_rank_listing",
    "listing_members",
    "rank_structure",
]

#: Modes with a vectorizable rank-space grouper.
BATCH_MODES: tuple[str, ...] = ("star", "clique")


@lru_cache(maxsize=256)
def rank_structure(n: int, k: int, mode: str) -> tuple[tuple[int, ...], ...]:
    """The DyGroups-Local grouping of ``n`` members over ranks 0..n-1.

    Entry ``[i][j]`` is the descending-order *rank* of the ``j``-th member
    of group ``i``; applying a concrete order ``o`` via ``o[ranks]``
    reproduces the scalar grouper's output exactly.

    Args:
        n: number of participants.
        k: number of groups; must divide ``n``.
        mode: ``"star"`` (Algorithm 2) or ``"clique"`` (Algorithm 3).

    Raises:
        ValueError: for an unknown mode or an invalid ``(n, k)`` pair.
    """
    size = require_divisible_groups(n, k)
    if mode == "star":
        members_per_group = size - 1
        return tuple(
            (i, *range(k + i * members_per_group, k + (i + 1) * members_per_group))
            for i in range(k)
        )
    if mode == "clique":
        return tuple(tuple(range(i, n, k)) for i in range(k))
    raise ValueError(f"no batchable rank structure for mode {mode!r}; expected one of {BATCH_MODES}")


@lru_cache(maxsize=256)
def _flat_rank_listing_cached(n: int, k: int, mode: str) -> np.ndarray:
    flat = np.concatenate([np.asarray(ranks, dtype=np.intp) for ranks in rank_structure(n, k, mode)])
    flat.setflags(write=False)
    return flat


def flat_rank_listing(n: int, k: int, mode: str) -> np.ndarray:
    """:func:`rank_structure` flattened to one read-only ``(n,)`` array.

    Group ``g`` of the grouping occupies the contiguous slice
    ``[g·t, (g+1)·t)`` where ``t = n // k``; indexing a descending order
    with this array therefore yields the member listing of every group at
    once.  The result is cached and marked read-only — copy before
    mutating.

    Raises:
        ValueError: for an unknown mode or an invalid ``(n, k)`` pair.
    """
    return _flat_rank_listing_cached(n, k, mode)


def descending_orders(matrix: np.ndarray) -> np.ndarray:
    """Stable descending argsort of each row of a ``(m, n)`` skill matrix.

    This is the one vectorized call every batched DyGroups grouper reduces
    to; ties keep ascending column-index order, matching the scalar
    :func:`repro.core.skills.descending_order` exactly.

    For strictly positive rows (the validated skill domain) the sort runs
    on the IEEE-754 bit patterns instead of the floats: positive doubles
    order identically to their ``int64`` views, and equal values share one
    bit pattern (no signed zeros in the domain).  Those keys take numpy's
    unstable argsort, which is a SIMD sort on CPUs that have one; numpy's
    stable sort of ``int64`` keys is timsort, several times slower.  The
    unstable sort may list equal keys out of index order, so an ``O(n)``
    scan of adjacent sorted keys finds the rows with ties, and only those
    rows are re-sorted stably — same permutation, bit for bit.
    Non-positive or non-finite input takes the stable float sort.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if not (matrix.size and np.all(matrix > 0.0)):
        return np.argsort(-matrix, axis=1, kind="stable")
    keys = -matrix.view(np.int64)
    orders = np.argsort(keys, axis=1)
    for row, order in enumerate(orders):
        sorted_keys = np.take(keys[row], order)
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            orders[row] = np.argsort(keys[row], kind="stable")
    return orders


def listing_members(orders: np.ndarray, listing: np.ndarray) -> np.ndarray:
    """The C-ordered ``(m, n)`` members matrix of a rank listing.

    Row ``i`` is ``orders[i][listing]``: the members of every group, group
    by group, for trial ``i``.  ``np.take`` keeps the result C-ordered,
    whereas ``orders[:, listing]`` comes back Fortran-ordered for more
    than one row, which makes the update kernels' per-row gathers,
    scatters and group maxima run strided.
    """
    return np.take(orders, listing, axis=1)


def as_skills_matrix(skills: np.ndarray, *, name: str = "skills") -> np.ndarray:
    """Coerce to a fresh 2-D float64 matrix of positive finite rows.

    A single 1-D vector is accepted and reshaped to a batch of one.

    Raises:
        TypeError: if ``skills`` is not numeric.
        ValueError: on empty/higher-rank shapes or non-positive values.
    """
    try:
        matrix = np.array(skills, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a 2-D numeric array, got {type(skills).__name__}") from exc
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {matrix.shape}")
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(matrix <= 0.0):
        raise ValueError(f"{name} must be strictly positive (the model assumes positive skill levels)")
    return matrix


# Nothing in the package uses this class: pool workers draw their own
# skills.  It stays because perfbench's ``layers.install`` wraps
# ``SharedMatrix.create`` (its ``experiments.parallel.share`` layer) and
# fails without it; it goes with the benchmark change that drops that layer.
class SharedMatrix:
    """A 2-D ``float64`` matrix backed by a named shared-memory segment.

    The zero-pickle transport for stacked trial matrices: the process
    that owns the data copies it **once** into a
    :class:`multiprocessing.shared_memory.SharedMemory` segment
    (:meth:`create`), ships only the ``(name, shape)`` descriptor
    (:attr:`meta`) to other processes, and each of them maps the same
    physical pages read-only with :meth:`attach` — no per-chunk pickling
    of the skill arrays, regardless of how many chunks revisit the same
    grid point.

    Lifecycle contract: exactly one process — the creator — calls
    :meth:`unlink` (after every reader is done with the rows it sliced);
    every process, creator and readers alike, calls :meth:`close` on its
    own handle.  Attached views are marked read-only, so a reader that
    needs a private working buffer must copy (``simulate`` /
    ``simulate_many`` already copy their inputs).

    On Python < 3.13 an attached segment would be re-registered with the
    ``multiprocessing`` resource tracker and double-unlinked at reader
    exit; :meth:`attach` deregisters it so ownership stays with the
    creator.
    """

    __slots__ = ("_shm", "shape", "owner")

    def __init__(self, shm: object, shape: "tuple[int, int]", *, owner: bool) -> None:
        self._shm = shm
        self.shape = shape
        self.owner = owner

    @classmethod
    def create(cls, matrix: np.ndarray) -> "SharedMatrix":
        """Copy ``matrix`` into a fresh shared segment owned by the caller.

        Raises:
            ValueError: for a non-2-D matrix.
            OSError: when the platform cannot allocate shared memory.
        """
        from multiprocessing import shared_memory

        source = np.ascontiguousarray(matrix, dtype=np.float64)
        if source.ndim != 2:
            raise ValueError(f"matrix must be two-dimensional, got shape {source.shape}")
        shm = shared_memory.SharedMemory(create=True, size=max(1, source.nbytes))
        view = np.ndarray(source.shape, dtype=np.float64, buffer=shm.buf)
        view[...] = source
        return cls(shm, (int(source.shape[0]), int(source.shape[1])), owner=True)

    @property
    def meta(self) -> "tuple[str, tuple[int, int]]":
        """The picklable ``(segment name, shape)`` descriptor readers attach with."""
        return (self._shm.name, self.shape)  # type: ignore[attr-defined]

    @classmethod
    def attach(cls, meta: "tuple[str, tuple[int, int]]") -> "SharedMatrix":
        """Map an existing segment (by descriptor) as a non-owning reader."""
        from multiprocessing import shared_memory

        name, shape = meta
        try:
            # Python >= 3.13: never hand the segment to this process's
            # resource tracker — the creator owns unlinking.
            shm = shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
        except TypeError:
            # Python < 3.13 registers even plain attaches with the
            # resource tracker, which would double-unlink at reader exit
            # (and, with several readers of one segment, spam tracker
            # KeyErrors).  Suppress the registration for the duration of
            # the attach; readers are single-threaded at attach time.
            from multiprocessing import resource_tracker

            original = resource_tracker.register

            def _skip(path: str, rtype: str) -> None:  # pragma: no cover - trivial shim
                if rtype != "shared_memory":
                    original(path, rtype)

            resource_tracker.register = _skip  # type: ignore[assignment]
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original  # type: ignore[assignment]
        return cls(shm, (int(shape[0]), int(shape[1])), owner=False)

    def array(self) -> np.ndarray:
        """A read-only ``(rows, cols)`` float64 view over the shared pages."""
        view = np.ndarray(self.shape, dtype=np.float64, buffer=self._shm.buf)  # type: ignore[attr-defined]
        view.setflags(write=False)
        return view

    def close(self) -> None:
        """Unmap this process's view (idempotent; does not free the segment)."""
        try:
            self._shm.close()  # type: ignore[attr-defined]
        except BufferError:  # pragma: no cover - a live numpy view pins the buffer
            pass

    def unlink(self) -> None:
        """Free the segment (owner only; idempotent)."""
        if not self.owner:
            return
        try:
            self._shm.unlink()  # type: ignore[attr-defined]
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedMatrix":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:
        role = "owner" if self.owner else "reader"
        return f"SharedMatrix(name={self._shm.name!r}, shape={self.shape}, {role})"  # type: ignore[attr-defined]
