"""Prefix-sharing radix cache over prompt KV extents.

Serving traffic is full of shared prompt prefixes — system prompts,
few-shot scaffolds, multi-turn histories — and every byte of a shared
prefix's KV that is ingested twice is wasted cold-tier transfer and
capacity.  :class:`RadixKVCache` is the dedupe structure: a radix tree
whose edges are runs of prompt tokens, each edge owning one **refcounted
cold-tier extent** of the raw prompt KV rows it covers.  N requests whose
prompts agree on a prefix map onto the same extent chain; a prompt that
diverges mid-edge splits the edge at the fork point (copy-on-divergence:
the shared prefix keeps one extent, the suffixes get their own).

Tokens are identified by **their raw rows**: the tree keeps each edge's
prompt K and V as ``(H, t, d)`` uint64 views of the float64 bytes, so a
walk matches bytes, not floats (``-0.0`` differs from ``0.0``, and a NaN
matches only its own payload) and needs no collision argument.  A child
edge is addressed by the bytes of its first token's rows (siblings always
differ there), and one vectorised compare of the edge's rows against the
prompt's finds the fork point: one dict lookup per edge, not per token.

Sharing never changes outputs: the serving engine still calibrates and
encodes each sequence from its *own* prompt tensors (per-sequence frozen
scales), so a cache hit only removes the modelled ingest transfer and the
duplicate cold-tier copy, bit-identical to an unshared run (property
tested in ``tests/test_kvstore.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


def _row_key(k: np.ndarray, v: np.ndarray, i: int) -> bytes:
    """Token ``i``'s K then V row bytes: the key of an edge starting there."""
    return k[:, i].tobytes() + v[:, i].tobytes()


class _Extent:
    """One radix edge: a token run with its raw KV rows and a refcount.

    ``refs`` counts the *handles ending at this node*; a node is live
    while its own refs or any descendant's refs are nonzero (a deeper
    sharer holds every prefix extent on its path).
    """

    __slots__ = ("k", "v", "children", "parent", "refs", "last_use")

    def __init__(
        self, k: np.ndarray, v: np.ndarray, parent: Optional["_Extent"]
    ) -> None:
        self.k = k  # (H, t, d) uint64 view of the prompt keys' bytes
        self.v = v
        self.children: Dict[bytes, "_Extent"] = {}
        self.parent = parent
        self.refs = 0
        self.last_use = 0

    @property
    def n_tokens(self) -> int:
        return self.k.shape[1]

    @property
    def key(self) -> bytes:
        return _row_key(self.k, self.v, 0)


@dataclass
class PrefixHandle:
    """One request's acquired path through the cache.

    ``hit_tokens`` of the prompt were already resident (their ingest is a
    cache hit); the remaining ``prompt_tokens - hit_tokens`` were inserted
    as new extents.  Release exactly once when the request finishes.
    """

    hit_tokens: int
    prompt_tokens: int
    _leaf: Optional[_Extent] = field(default=None, repr=False)
    _released: bool = field(default=False, repr=False)

    def hits_in(self, start: int, stop: int) -> int:
        """Cache-hit tokens inside the prompt slice ``[start, stop)``.

        The resident prefix covers positions ``[0, hit_tokens)``, so a
        chunked prefill can charge each chunk's ingest with exactly its
        share of the hit — the chunk-at-a-time counterpart of charging
        ``hit_tokens`` once for a monolithic ingest.
        """
        if not 0 <= start <= stop <= self.prompt_tokens:
            raise ValueError(
                f"chunk [{start}, {stop}) outside prompt of "
                f"{self.prompt_tokens} tokens"
            )
        return max(0, min(stop, self.hit_tokens) - start)


class RadixKVCache:
    """Refcounted radix tree of raw prompt-KV extents (the cold tier's
    prefix dedupe directory).

    ``retain_unreferenced`` keeps extents resident after their last sharer
    releases (the cache behaviour — later identical prompts still hit),
    reclaimable via :meth:`evict_unreferenced`; with ``False`` an extent
    chain is freed *exactly* when its last sharer releases.

    ``capacity_tokens`` bounds the retained cache: whenever residency
    exceeds it, unreferenced extents are evicted oldest-use-first at the
    end of the acquire (referenced extents are never evicted, so a burst
    of live sharers may transiently exceed the budget).  0 = unbounded.
    """

    def __init__(
        self,
        retain_unreferenced: bool = True,
        capacity_tokens: int = 0,
    ) -> None:
        if capacity_tokens < 0:
            raise ValueError("capacity_tokens must be >= 0")
        self.retain_unreferenced = retain_unreferenced
        self.capacity_tokens = capacity_tokens
        empty = np.zeros((0, 0, 0), np.uint64)
        self._root = _Extent(empty, empty, None)
        self._clock = 0
        # accounting
        self.lookups = 0
        self.lookup_tokens = 0
        self.hit_tokens_total = 0
        self.inserted_tokens_total = 0
        self.freed_tokens_total = 0
        self.splits_total = 0

    # -------------------------------------------------------------- queries
    @property
    def total_tokens(self) -> int:
        """Tokens resident in cold-tier extents (dedupe capacity metric):
        inserts add them, :meth:`_reap` frees them, a split moves none."""
        return self.inserted_tokens_total - self.freed_tokens_total

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from the cache."""
        if self.lookup_tokens == 0:
            return 0.0
        return self.hit_tokens_total / self.lookup_tokens

    # ---------------------------------------------------------------- walk
    def _walk(self, k: np.ndarray, v: np.ndarray):
        """Longest-prefix walk; returns ``(node, matched)``.

        A divergence *inside* an edge splits it at the fork point
        (copy-on-divergence), so the returned node's extents cover
        exactly the matched tokens.  Every node on the path is stamped
        with the current clock.
        """
        node = self._root
        i, t = 0, k.shape[1]
        while i < t:
            child = node.children.get(_row_key(k, v, i))
            if child is None:
                break
            # the key matched token i; the first differing row ends the run
            n = min(child.n_tokens, t - i)
            differs = (child.k[:, :n] != k[:, i:i + n]).any(axis=0)
            differs |= (child.v[:, :n] != v[:, i:i + n]).any(axis=0)
            differs = differs.any(axis=1)
            m = int(differs.argmax()) if differs.any() else n
            if m < child.n_tokens:
                child = self._split(child, m)
            node = child
            i += m
            node.last_use = self._clock
        return node, i

    def _split(self, child: _Extent, m: int) -> _Extent:
        """Split an edge after ``m`` tokens; returns the new prefix node.

        The shared prefix keeps one extent (the fork point's new node);
        the original node keeps the suffix rows, so live handles that end
        at it remain valid — their path simply gains one ancestor.  Both
        halves stay views of the edge's buffer; :meth:`_reap` gives the
        survivor its own copy once the half below it is freed.
        """
        parent = child.parent
        prefix = _Extent(child.k[:, :m], child.v[:, :m], parent)
        parent.children[prefix.key] = prefix
        child.k, child.v = child.k[:, m:], child.v[:, m:]
        child.parent = prefix
        prefix.children[child.key] = child
        self.splits_total += 1
        return prefix

    # ------------------------------------------------------- acquire/release
    def acquire(self, keys: np.ndarray, values: np.ndarray) -> PrefixHandle:
        """Map a prompt onto the tree: match the longest resident prefix,
        insert the remainder as a new extent, and take one reference."""
        k = np.asarray(keys, dtype=np.float64).view(np.uint64)
        v = np.asarray(values, dtype=np.float64).view(np.uint64)
        if k.ndim != 3 or k.shape != v.shape:
            raise ValueError("keys and values must both be (H, t, d)")
        t = k.shape[1]
        self._clock += 1
        self.lookups += 1
        self.lookup_tokens += t
        node, matched = self._walk(k, v)
        if matched < t:
            # the tree keeps its own copy: the caller may reuse its arrays
            leaf = _Extent(k[:, matched:].copy(), v[:, matched:].copy(), node)
            leaf.last_use = self._clock
            node.children[leaf.key] = leaf
            node = leaf
            self.inserted_tokens_total += t - matched
        node.refs += 1
        self.hit_tokens_total += matched
        if self.capacity_tokens:
            self.evict_unreferenced(self.capacity_tokens)
        return PrefixHandle(hit_tokens=matched, prompt_tokens=t, _leaf=node)

    def release(self, handle: PrefixHandle) -> int:
        """Drop one sharer's reference; returns tokens freed (0 when the
        cache retains unreferenced extents)."""
        if handle._released:
            raise ValueError("prefix handle already released")
        handle._released = True
        node = handle._leaf
        if node is None or node is self._root:
            return 0
        if node.refs < 1:
            raise RuntimeError("extent refcount underflow")
        node.refs -= 1
        if self.retain_unreferenced:
            return 0
        return self._reap(node)

    def _reap(self, node: _Extent) -> int:
        """Free the chain of now-unreferenced leaf extents ending here."""
        freed, gone = 0, None
        while (
            node is not None
            and node is not self._root
            and node.refs == 0
            and not node.children
        ):
            parent = node.parent
            del parent.children[node.key]
            freed += node.n_tokens
            node.parent = None
            gone, node = node, parent
        # the split-off ancestors still viewing the freed rows' buffer
        # copy their own rows, so the buffer goes with its last extent
        owner = None if gone is None else gone.k.base
        while owner is not None and node.k.base is owner:
            node.k, node.v = node.k.copy(), node.v.copy()
            node = node.parent
        self.freed_tokens_total += freed
        return freed

    def evict_unreferenced(self, keep_tokens: int = 0) -> int:
        """Reclaim retained extents (oldest-use first) down to a budget.

        Only subtrees with zero active references are eligible; returns
        tokens freed.  This is the retained cache's pressure valve — run
        automatically after acquires when ``capacity_tokens`` is set.

        Single pass: each freed leaf's :meth:`_reap` cascade also frees
        any ancestors it leaves childless and unreferenced, so the
        candidate list never needs re-enumeration.
        """
        resident = self.total_tokens
        if resident <= keep_tokens:
            return 0
        # no two candidates share a stamp: the nodes one acquire stamps
        # lie on one root path, which has at most one childless node
        victims = sorted(
            (node for node in self._leaves() if node.refs == 0),
            key=lambda n: n.last_use,
        )
        freed = 0
        for victim in victims:
            if resident - freed <= keep_tokens:
                break
            freed += self._reap(victim)
        return freed

    def _leaves(self) -> List[_Extent]:
        out: List[_Extent] = []

        def walk(node: _Extent) -> None:
            if not node.children and node is not self._root:
                out.append(node)
            for child in node.children.values():
                walk(child)

        walk(self._root)
        return out

    def snapshot(self) -> dict:
        return {
            "lookups": self.lookups,
            "lookup_tokens": self.lookup_tokens,
            "hit_tokens": self.hit_tokens_total,
            "hit_rate": round(self.hit_rate, 4),
            "inserted_tokens": self.inserted_tokens_total,
            "freed_tokens": self.freed_tokens_total,
            "resident_tokens": self.total_tokens,
            "splits": self.splits_total,
        }
