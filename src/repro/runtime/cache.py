"""Content-addressed on-disk cache for experiment design points.

Cache key schema
----------------

A design point's *identity* (:func:`request_identity`) is the SHA-256
of the canonical JSON of::

    ["module.qualname", canonicalize(kwargs with the function's defaults)]

and its key (:func:`cache_key`) is ``sha256(code_fingerprint + ":" +
identity)``:

* the function identity pins which computation produced the value, and
  filling in its defaults lets a call that spells them out share the
  identity of one that does not;
* :func:`canonicalize` maps kwargs to a deterministic JSON-able
  structure — dataclasses keep their class name and field values, numpy
  arrays contribute shape/dtype plus a digest of their bytes, enums
  their class and value.  Unknown object kinds raise ``TypeError``
  rather than silently aliasing distinct points;
* ``code_fingerprint`` hashes every ``*.py`` and ``*.c`` file of the
  installed ``repro`` package (the C file being the engine's scan
  kernel), so any source change invalidates the whole cache
  (conservative but always sound), while the identity — what the serve
  layer routes and coalesces on — stays put.

Values are stored pickled, sharded by key prefix
(``<root>/<key[:2]>/<key>.pkl``) and written atomically, so concurrent
sweeps sharing one cache directory never observe torn entries.  Each
entry wraps its value in a :class:`CacheEntry` carrying the producing
function's ``module.qualname`` and the work item's label, which powers
the per-experiment breakdown of ``repro cache info``.

Invalidation rules
------------------

* any ``repro`` source change rotates :func:`code_fingerprint`, so every
  previously written key becomes unreachable (stale entries linger on
  disk until :meth:`ResultCache.clear` or eviction removes them);
* entries are immutable once written — a key is never overwritten with a
  different value, only re-written with the same one after a corrupt
  read;
* with a byte budget (``max_bytes``), least-recently-*used* entries are
  evicted first: :meth:`ResultCache.get` refreshes an entry's mtime on
  every hit, and :meth:`ResultCache.evict` drops the stalest entries
  until the cache fits the budget.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import inspect
import itertools
import json
import os
import pickle
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate cached value).
MISS = object()

#: Age beyond which an orphaned ``.tmp*`` file is considered abandoned
#: (a live writer holds its temp file for milliseconds).
STALE_TMP_SECONDS = 300.0

#: Per-process serial for temp-file names (see :meth:`ResultCache.put`).
_tmp_serial = itertools.count()


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ucnn``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-ucnn"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (the cache's code version).

    Covers the Python modules and the C source of the engine's scan
    kernel, so editing either invalidates every cached result.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.py"), *root.rglob("*.c")]):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def canonicalize(obj: object) -> object:
    """Deterministic JSON-able structure for a kwargs value.

    Raises:
        TypeError: for object kinds without a canonical form (so two
            distinct design points can never share a key by accident).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, enum.Enum):
        return {"__enum__": _type_name(type(obj)), "value": canonicalize(obj.value)}
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": hashlib.sha256(data.tobytes()).hexdigest(),
            "shape": list(obj.shape),
            "dtype": str(obj.dtype),
        }
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return canonicalize(obj.item())
    if is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, object] = {"__dataclass__": _type_name(type(obj))}
        for f in fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, Mapping):
        # Keys canonicalize like values (type included), so e.g. {1: v}
        # and {"1": v} cannot alias; pairs are sorted by the keys' JSON
        # text for determinism.  ASCII identifiers need no escaping and
        # all sort above '"', so for them the key itself is that order.
        pairs = [[canonicalize(k), canonicalize(v)] for k, v in obj.items()]
        if all(type(k) is str and k.isascii() and k.isidentifier() for k, _ in pairs):
            pairs.sort(key=lambda kv: kv[0])
        else:
            pairs.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__mapping__": pairs}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonicalize(v), sort_keys=True) for v in obj)}
    if callable(obj):
        return {"__callable__": _type_name(obj)}
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a cache key")


@lru_cache(maxsize=None)
def keyword_signature(fn: Callable) -> tuple[dict, frozenset]:
    """``fn``'s keyword parameters, read once per function.

    Returns ``(defaults, required)``: each parameter that has a default,
    mapped to it, and the names of those that have none.
    """
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
    return ({p.name: p.default for p in params if p.default is not p.empty},
            frozenset(p.name for p in params if p.default is p.empty))


def request_identity(fn: Callable, kwargs: Mapping) -> str:
    """What one call computes, whatever the code version.

    The SHA-256 of ``[fn_identity(fn), canonicalize(kwargs)]`` with the
    defaults of ``fn`` filled in, so a call that spells a default out
    and one that leaves it out share an identity: what the serve layer
    routes, catalogs and coalesces on, and what :func:`cache_key` keys.
    """
    defaults, _ = keyword_signature(fn)
    bound = {**defaults, **kwargs}
    payload = [_type_name(fn), canonicalize(bound)]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def identity_key(identity: str, fingerprint: str | None = None) -> str:
    """The cache key of a :func:`request_identity` under a code version."""
    version = fingerprint if fingerprint is not None else code_fingerprint()
    return hashlib.sha256(f"{version}:{identity}".encode()).hexdigest()


def cache_key(fn: Callable, kwargs: Mapping, fingerprint: str | None = None) -> str:
    """Content-addressed key of one design point."""
    return identity_key(request_identity(fn, kwargs), fingerprint)


def _type_name(obj: object) -> str:
    module = getattr(obj, "__module__", "?")
    qualname = getattr(obj, "__qualname__", type(obj).__qualname__)
    return f"{module}.{qualname}"


def fn_identity(fn: Callable) -> str:
    """``module.qualname`` of a point function.

    The one formatter for function identity everywhere it appears — in
    cache keys, in :class:`CacheEntry` metadata, and in the serve
    layer — so the per-experiment breakdown groups consistently.
    """
    return _type_name(fn)


@dataclass(frozen=True)
class CacheEntry:
    """On-disk wrapper around one cached value.

    Attributes:
        value: the design point's result, exactly as the function
            returned it.
        fn: producing function's ``module.qualname`` (groups the
            per-experiment breakdown; empty for anonymous puts).
        label: the work item's human-readable label, if any.
    """

    value: object
    fn: str = ""
    label: str = ""


@dataclass(frozen=True)
class CacheStats:
    """Size summary of one cache directory."""

    root: str
    entries: int
    bytes: int


@dataclass(frozen=True)
class GroupStats:
    """Per-function slice of the cache (one ``repro cache info`` row)."""

    fn: str
    entries: int
    bytes: int


class ResultCache:
    """Pickled design-point results, addressed by :func:`cache_key`.

    Args:
        root: cache directory (default: :func:`default_cache_dir`).
        fingerprint: code-version override; tests bump this to force
            misses without editing source files.
        max_bytes: optional byte budget.  When set, every
            ``sweep_every``-th :meth:`put` triggers an eviction sweep,
            dropping least-recently-used entries until the budget holds
            (the cache may transiently exceed the budget between sweeps
            by at most ``sweep_every`` entries).  ``None`` disables
            eviction.
        sweep_every: writes between automatic eviction sweeps.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        fingerprint: str | None = None,
        max_bytes: int | None = None,
        sweep_every: int = 32,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.fingerprint = fingerprint
        self.max_bytes = max_bytes
        self.sweep_every = max(1, sweep_every)
        # itertools.count.__next__ is atomic, so concurrent put() calls
        # (the serve write-back executor is multi-threaded) keep an
        # exact cadence and exactly one thread lands each sweep tick.
        self._put_serial = itertools.count(1)

    def key_for(self, fn: Callable, kwargs: Mapping) -> str:
        """Key of one design point under this cache's code version."""
        return cache_key(fn, kwargs, fingerprint=self.fingerprint)

    def key_for_identity(self, identity: str) -> str:
        """Key of a :func:`request_identity` under this cache's code version."""
        return identity_key(identity, fingerprint=self.fingerprint)

    def path_for(self, key: str) -> Path:
        """On-disk location of a key's entry."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> object:
        """The stored value, or :data:`MISS`.

        A hit refreshes the entry's mtime so byte-budget eviction is
        least-recently-*used*, not least-recently-written.  Unreadable
        entries (torn writes, pickle-format drift) count as misses and
        will be overwritten by the next :meth:`put`.
        """
        entry = self.get_entry(key)
        return entry.value if isinstance(entry, CacheEntry) else entry

    def get_entry(self, key: str) -> object:
        """The stored :class:`CacheEntry` (value + metadata), or :data:`MISS`."""
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                loaded = pickle.load(fh)
        except Exception:
            # pickle.load on corrupt bytes raises far more than
            # UnpicklingError (ValueError, KeyError, ImportError, ...);
            # any unreadable entry is simply a miss.
            return MISS
        with contextlib.suppress(OSError):
            os.utime(path)
        if isinstance(loaded, CacheEntry):
            return loaded
        # Entry written before the CacheEntry wrapper existed.
        return CacheEntry(value=loaded)

    def put(self, key: str, value: object, fn: str = "", label: str = "") -> None:
        """Store a value atomically (write to a temp file, then rename).

        Args:
            key: content-addressed key from :meth:`key_for`.
            value: the design point's result (any picklable object).
            fn: producing function's ``module.qualname``, kept as entry
                metadata for the per-experiment breakdown.
            label: the work item's label, kept for the same reason.
        """
        # Serialize before any file is created: an unpicklable value
        # raises here, with nothing on disk to clean up.
        blob = pickle.dumps(CacheEntry(value=value, fn=fn, label=label),
                            protocol=pickle.HIGHEST_PROTOCOL)
        self.put_blob(key, blob)

    def get_blob(self, key: str, touch: bool = True) -> bytes | None:
        """The entry's raw on-disk bytes (the pickled :class:`CacheEntry`).

        This is the unit of cross-machine transfer: tiers and the cache
        peer ship entries as opaque blobs and never unpickle them, so a
        peer can store results from functions it cannot import.  A read
        refreshes the entry's mtime (LRU recency) like :meth:`get` —
        except with ``touch=False``, which bulk sync uses so walking
        every entry doesn't flatten the LRU ordering.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if touch:
            with contextlib.suppress(OSError):
                os.utime(path)
        return blob

    def put_blob(self, key: str, blob: bytes) -> None:
        """Store an entry's raw bytes atomically (temp file + rename).

        The write path shared by :meth:`put`, tier promotion, and the
        cache peer.  A failed write never leaves its temp file behind —
        concurrent :meth:`evict` sweeps must only ever see either a
        live in-progress temp file or none at all.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # pid alone is not unique enough: two threads of one process
        # (e.g. the serve write-back executor) may put the same key
        # concurrently, and a shared temp name would interleave bytes.
        tmp = path.with_suffix(f".tmp{os.getpid()}-{next(_tmp_serial)}")
        try:
            with tmp.open("wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        if self.max_bytes is not None and next(self._put_serial) % self.sweep_every == 0:
            self.evict()

    def contains(self, key: str) -> bool:
        """Whether an entry for ``key`` is on disk (no read, no recency touch)."""
        return self.path_for(key).is_file()

    def iter_keys(self):
        """Yield every stored key (sorted, for deterministic bulk sync).

        Walks only the shard layout this cache owns (like
        :meth:`clear`), so unrelated ``*.pkl`` files in a user-supplied
        cache directory are never mistaken for entries.
        """
        if not self.root.is_dir():
            return
        shards = sorted(p for p in self.root.iterdir()
                        if p.is_dir() and len(p.name) == 2)
        for shard in shards:
            for path in sorted(shard.glob("*.pkl")):
                if len(path.stem) == 64:
                    yield path.stem

    def evict(self, max_bytes: int | None = None) -> int:
        """Drop least-recently-used entries until the cache fits a budget.

        Args:
            max_bytes: byte budget; defaults to the cache's
                ``max_bytes``.  A ``None`` budget evicts nothing.

        Returns:
            the number of entries removed.  Orphaned ``.tmp*`` files
            older than :data:`STALE_TMP_SECONDS` are swept too (younger
            ones may be a concurrent writer's in-progress put).
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None or not self.root.is_dir():
            return 0
        # Sweep only *stale* temp files: a fresh one may be a concurrent
        # writer's in-progress put() (other process, shared cache dir),
        # whose os.replace would crash if we unlinked it underneath.
        now = time.time()
        for leftover in self.root.rglob("*.tmp*"):
            with contextlib.suppress(OSError):
                if now - leftover.stat().st_mtime > STALE_TMP_SECONDS:
                    leftover.unlink()
        entries = []
        total = 0
        for path in self.root.rglob("*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        entries.sort(key=lambda e: e[0])
        removed = 0
        for _mtime, size, path in entries:
            if total <= budget:
                break
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
                total -= size
        return removed

    def stats(self) -> CacheStats:
        """Entry count and total bytes under the cache root.

        Bytes include orphaned ``.tmp*`` files from interrupted writes,
        so the reported size matches what :meth:`clear` reclaims.
        """
        entries = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue  # concurrently evicted (e.g. under the peer)
                entries += 1
                total += size
            for path in self.root.rglob("*.tmp*"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue  # a concurrent writer just renamed it
        return CacheStats(root=str(self.root), entries=entries, bytes=total)

    def breakdown(self) -> list[GroupStats]:
        """Per-experiment slices: entry count and bytes grouped by the
        producing function's ``module.qualname``.

        Entries written before metadata existed (or unreadable ones)
        group under ``"(unknown)"``.  Compiled-program artifact blobs
        (``repro.engine.artifacts`` — recognized by magic prefix, never
        unpickled) group under ``"(program-artifact)"``.  Rows come back
        sorted by bytes, largest first — the order ``repro cache info``
        prints.

        This unpickles every result entry to read its metadata, so it
        costs a full cache read — fine for CLI inspection, not for hot
        paths (use :meth:`stats` for the cheap stat-only totals).
        """
        # Same literal as repro.engine.artifacts.MAGIC; duplicated here
        # so the storage layer never imports the engine (a test pins the
        # two in sync).
        artifact_magic = b"RPROGART"
        groups: dict[str, list[int]] = {}
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue  # concurrently evicted
                fn = "(unknown)"
                try:
                    with path.open("rb") as fh:
                        if fh.read(len(artifact_magic)) == artifact_magic:
                            fn = "(program-artifact)"
                        else:
                            fh.seek(0)
                            loaded = pickle.load(fh)
                            if isinstance(loaded, CacheEntry) and loaded.fn:
                                fn = loaded.fn
                except Exception:
                    pass  # unreadable: its bytes still count
                bucket = groups.setdefault(fn, [0, 0])
                bucket[0] += 1
                bucket[1] += size
        rows = [GroupStats(fn=fn, entries=n, bytes=b) for fn, (n, b) in groups.items()]
        rows.sort(key=lambda g: (-g.bytes, g.fn))
        return rows

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Removes only the entries and shard directories this cache owns —
        a user-supplied ``--cache-dir`` may contain unrelated files, and
        those survive.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for shard in self.root.iterdir():
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for entry in shard.glob("*.pkl"):
                entry.unlink()
                removed += 1
            # Orphaned temp files from interrupted put() calls.
            for leftover in shard.glob("*.tmp*"):
                leftover.unlink()
            with contextlib.suppress(OSError):
                shard.rmdir()
        return removed
