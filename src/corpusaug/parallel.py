"""Deterministic worker-pool helper.

The per-item work of the augmentation pipeline (alignment, sentence
embeddings, the gate loop) goes through :func:`ordered_map` so that results
are always merged in input order. Worker count then affects only
scheduling, never output bytes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T], workers: int = 1) -> List[R]:
    """Apply ``fn`` to every item, returning results in input order.

    With ``workers`` <= 1 this is a plain sequential map. With more workers
    the items are evaluated on a thread pool; ``fn`` must not mutate shared
    state. Either way the returned list is ordered like the input, so any
    downstream reduction is bit-identical across worker counts.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
