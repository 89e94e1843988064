"""Answer checks made apart from the program.

Every check works on the benchmark's own mirror of a tenant's window
(the plain list of queries it sent, or a ``uint64`` array of them) and
recounts from scratch; none consults the program's index, kernels or
solvers, and none compares against stored output.
"""

from __future__ import annotations

import numpy as np

from measure import CheckFailure


def recount(rows, keep_mask: int) -> int:
    """Queries of ``rows`` whose attributes all lie in ``keep_mask``."""
    if isinstance(rows, np.ndarray):
        outside = np.uint64(~keep_mask & 0xFFFF_FFFF_FFFF_FFFF)
        return int(np.count_nonzero((rows & outside) == 0))
    outside = ~keep_mask
    return sum(1 for query in rows if not query & outside)


def check_answer(answer: dict, new_tuple: int, budget: int, rows) -> int:
    """Check one solve response against the mirror; returns ``satisfied``.

    The mask must lie within the tuple and the budget, and ``satisfied``
    must equal a recount over ``rows``.
    """
    mask = answer.get("keep_mask")
    if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0:
        raise CheckFailure(f"no keep_mask in answer {answer!r}")
    if mask & ~new_tuple:
        raise CheckFailure(f"mask {mask:#x} keeps attributes outside {new_tuple:#x}")
    if bin(mask).count("1") > budget:
        raise CheckFailure(f"mask {mask:#x} exceeds budget {budget}")
    expected = recount(rows, mask)
    if answer.get("satisfied") != expected:
        raise CheckFailure(
            f"satisfied={answer.get('satisfied')} but the mirror recounts {expected}"
        )
    return expected


def optimum(rows, new_tuple: int, budget: int) -> int:
    """The best satisfied count over every mask within tuple and budget.

    Enumerates all subsets of the relevant attributes (those of queries
    the tuple can satisfy within the budget) with a subset-sum transform:
    ``counts[S]`` becomes the number of queries contained in ``S``.
    """
    relevant = 0
    small = []
    for query in rows:
        if not query & ~new_tuple and bin(query).count("1") <= budget:
            relevant |= query
            small.append(query)
    positions = [bit for bit in range(relevant.bit_length()) if relevant >> bit & 1]
    if len(positions) <= budget:
        return len(small)
    if len(positions) > 24:
        raise CheckFailure(f"{len(positions)} relevant attributes: too many to enumerate")
    compact = {bit: 1 << i for i, bit in enumerate(positions)}
    counts = np.zeros(1 << len(positions), dtype=np.int32)
    sizes = np.zeros(1 << len(positions), dtype=np.int8)
    for query in small:
        index = 0
        for bit, flag in compact.items():
            if query >> bit & 1:
                index |= flag
        counts[index] += 1
    for i in range(len(positions)):
        view = counts.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
        size_view = sizes.reshape(-1, 2, 1 << i)
        size_view[:, 1, :] = size_view[:, 0, :] + 1
    return int(counts[sizes == budget].max())


def check_window(recovered: list[int], mirror: list[int], tenant: str) -> None:
    """A recovered window must equal the queries the benchmark sent."""
    if recovered != mirror:
        raise CheckFailure(
            f"tenant {tenant}: recovered window of {len(recovered)} rows differs"
            f" from the mirror of {len(mirror)}"
        )
