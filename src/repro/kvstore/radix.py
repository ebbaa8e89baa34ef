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

Tokens are identified by **chained digests**: token ``i``'s digest hashes
its raw K/V rows together with token ``i-1``'s digest, so two prompts
share the first ``L`` digests iff their first ``L`` (position, K, V)
triples are byte-identical — prefix identity needs no float comparisons
during the walk, and a child edge is addressed by its first digest alone.

Sharing never changes outputs: the serving engine still calibrates and
encodes each sequence from its *own* prompt tensors (per-sequence frozen
scales), so a cache hit only removes the modelled ingest transfer and the
duplicate cold-tier copy, bit-identical to an unshared run (property
tested in ``tests/test_kvstore.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


def token_digests(keys: np.ndarray, values: np.ndarray) -> List[bytes]:
    """Chained per-token digests of (H, t, d) prompt K/V tensors.

    ``digest[i] = H(digest[i-1] || K_rows[i] || V_rows[i])`` over the raw
    float64 bytes, so equality of ``digest[:L]`` is equality of the whole
    prefix, not just of token ``L-1``.
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 3 or keys.shape != values.shape:
        raise ValueError("keys and values must both be (H, t, d)")
    keys = np.ascontiguousarray(keys.transpose(1, 0, 2))
    values = np.ascontiguousarray(values.transpose(1, 0, 2))
    out: List[bytes] = []
    prev = b""
    for i in range(keys.shape[0]):
        h = hashlib.blake2b(prev, digest_size=16)
        h.update(keys[i].tobytes())
        h.update(values[i].tobytes())
        prev = h.digest()
        out.append(prev)
    return out


class _Extent:
    """One radix edge: a token run with its raw KV rows and a refcount.

    ``refs`` counts the *handles ending at this node*; a node is live
    while its own refs or any descendant's refs are nonzero (a deeper
    sharer holds every prefix extent on its path).
    """

    __slots__ = (
        "digests", "k_rows", "v_rows", "children", "parent", "refs",
        "last_use",
    )

    def __init__(
        self,
        digests: List[bytes],
        k_rows: np.ndarray,
        v_rows: np.ndarray,
        parent: Optional["_Extent"],
    ) -> None:
        self.digests = digests
        self.k_rows = k_rows  # (t, H, d) token-major raw prompt keys
        self.v_rows = v_rows
        self.children: Dict[bytes, "_Extent"] = {}
        self.parent = parent
        self.refs = 0
        self.last_use = 0

    @property
    def n_tokens(self) -> int:
        return len(self.digests)


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
        self._root = _Extent([], np.zeros((0, 1, 1)), np.zeros((0, 1, 1)), None)
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
        """Tokens resident in cold-tier extents (dedupe capacity metric)."""

        def walk(node: _Extent) -> int:
            return node.n_tokens + sum(walk(c) for c in node.children.values())

        return walk(self._root)

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from the cache."""
        if self.lookup_tokens == 0:
            return 0.0
        return self.hit_tokens_total / self.lookup_tokens

    # ---------------------------------------------------------------- walk
    def _walk(self, digests: List[bytes], split: bool, touch: bool = True):
        """Longest-prefix walk; returns ``(node, matched, exact_edge_end)``.

        With ``split=True`` a divergence *inside* an edge splits it at the
        fork point (copy-on-divergence), so the returned node's extents
        cover exactly the matched tokens.  ``touch=False`` leaves every
        node's LRU stamp alone (read-only probes).
        """
        node = self._root
        i = 0
        while i < len(digests):
            child = node.children.get(digests[i])
            if child is None:
                break
            # chained digests: the first digest matching pins the whole
            # prefix so far; extend the match token by token along the edge
            m = 1
            limit = min(len(child.digests), len(digests) - i)
            while m < limit and child.digests[m] == digests[i + m]:
                m += 1
            if m < len(child.digests):
                if not split:
                    return child, i + m, False
                child = self._split(child, m)
            node = child
            i += m
            if touch:
                node.last_use = self._clock
        return node, i, True

    def _split(self, child: _Extent, m: int) -> _Extent:
        """Split an edge after ``m`` tokens; returns the new prefix node.

        The shared prefix keeps one extent (the fork point's new node);
        the original node keeps the suffix rows, so live handles that end
        at it remain valid — their path simply gains one ancestor.
        """
        parent = child.parent
        prefix = _Extent(
            child.digests[:m],
            child.k_rows[:m].copy(),
            child.v_rows[:m].copy(),
            parent,
        )
        prefix.last_use = child.last_use
        parent.children[prefix.digests[0]] = prefix
        child.digests = child.digests[m:]
        child.k_rows = child.k_rows[m:].copy()
        child.v_rows = child.v_rows[m:].copy()
        child.parent = prefix
        prefix.children[child.digests[0]] = child
        self.splits_total += 1
        return prefix

    # ------------------------------------------------------- acquire/release
    def acquire(self, keys: np.ndarray, values: np.ndarray) -> PrefixHandle:
        """Map a prompt onto the tree: match the longest resident prefix,
        insert the remainder as a new extent, and take one reference."""
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        digests = token_digests(keys, values)
        self._clock += 1
        self.lookups += 1
        self.lookup_tokens += len(digests)
        node, matched, _ = self._walk(digests, split=True)
        if matched < len(digests):
            rows_k = np.ascontiguousarray(
                keys.transpose(1, 0, 2)[matched:]
            ).copy()
            rows_v = np.ascontiguousarray(
                values.transpose(1, 0, 2)[matched:]
            ).copy()
            leaf = _Extent(digests[matched:], rows_k, rows_v, node)
            leaf.last_use = self._clock
            node.children[leaf.digests[0]] = leaf
            node = leaf
            self.inserted_tokens_total += len(digests) - matched
        node.refs += 1
        self.hit_tokens_total += matched
        if self.capacity_tokens:
            self.evict_unreferenced(self.capacity_tokens)
        return PrefixHandle(
            hit_tokens=matched, prompt_tokens=len(digests), _leaf=node
        )

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
        freed = 0
        while (
            node is not None
            and node is not self._root
            and node.refs == 0
            and not node.children
        ):
            parent = node.parent
            del parent.children[node.digests[0]]
            freed += node.n_tokens
            node.parent = None
            node = parent
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
        victims = sorted(
            (
                node
                for node in self._leaves()
                if node.refs == 0 and not node.children
            ),
            key=lambda n: (n.last_use, n.digests[0]),
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
