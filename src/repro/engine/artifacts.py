"""Compiled programs as first-class cached artifacts.

The engine memoizes :class:`~repro.engine.program.CompiledLayer` /
:class:`~repro.engine.fusion.NetworkProgram` objects per process; this
module makes them durable and shareable.  Lowering a layer costs
factorization (canonical ordering, table construction) — seconds at
fused scale — while loading a serialized program costs one disk read
and a few ``np.frombuffer`` views.  One node compiles, the fleet
executes.

Envelope format (``docs/api.md`` has the wire-level table)::

    b"RPROGART"                      8-byte magic
    u32 big-endian header length
    header JSON                      schema_version, engine fingerprint,
                                     program key, kind, payload sha256,
                                     payload length, meta tree
    payload                          concatenated raw array bytes
    sha256(everything above)         32-byte trailer

Arrays appear in the ``meta`` tree as ``{"__nd__": [offset, nbytes],
"dtype": ..., "shape": ...}`` placeholders into the payload — raw
dtype + shape + bytes, **no pickle anywhere**, so a hostile or corrupt
artifact can fail only one way: a clean :class:`ArtifactError`.  Every
rejection path — bad magic, truncation, bit flips (the trailer digest
covers header *and* payload), a ``schema_version`` bump, or an engine
code fingerprint mismatch — raises :class:`ArtifactError` before any
program object exists; a stale artifact is rejected, never silently
executed.

Artifacts are addressed by the existing ``layer:``/``net:``
program-cache key schema.  Because the blob stores
(:class:`~repro.runtime.cache.ResultCache`, the cache peer, the tiers)
only accept 64-hex SHA-256 names, a program key is mapped to its
*store key* — ``sha256("repro-program-artifact:" + key)``.  That makes
program blobs indistinguishable from result blobs on the wire: the peer
federates them opaquely, HMAC auth applies unchanged, and ``repro cache
push/pull`` moves them for free.  Nothing indexes them: each blob's
header records its key, kind and engine fingerprint, and
:meth:`ProgramStore.artifacts` lists a store by reading those headers.

:class:`ProgramStore` is the durable store (local blob root + optional
remote tier); :class:`ProgramArtifactTier` is the read-through hook the
process program cache calls on a miss (see
:func:`repro.engine.program.set_artifact_tier`), and the only way a
program reaches a node: from its own blobs, else from the peer.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.hierarchical import FilterGroupTables
from repro.engine.fusion import (
    ConvStep,
    FallbackStep,
    FlattenStep,
    NetworkProgram,
    PoolStep,
    ReluStep,
)
from repro.engine.program import (
    KERNEL_ARRAYS,
    CompiledLayer,
    TableProgram,
    cached_programs,
)
from repro.obs import Counters
from repro.runtime.cache import ResultCache
from repro.runtime.tiers import CacheTier, HTTPPeerTier

#: Artifact envelope magic.  ``ResultCache.breakdown`` recognizes this
#: prefix (same literal, see ``runtime/cache.py``) to group artifact
#: blobs without importing this module.
MAGIC = b"RPROGART"

#: Envelope layout version.  Bump on any layout change; a mismatch is a
#: clean :class:`ArtifactError`, never a misparse.
SCHEMA_VERSION = 6

#: Serialized kind tags, one per top-level program class.  A
#: ``TableProgram`` is stored only inside a network's conv steps.
KIND_LAYER = "compiled_layer"
KIND_NETWORK = "network_program"

#: dtype kinds an artifact array may carry (signed/unsigned ints and
#: bools — everything the engine's programs are made of).  ``object``
#: or other exotic dtypes are rejected on both ends.
_ALLOWED_DTYPE_KINDS = "iub"

_TRAILER_BYTES = 32
_HEADER_PREFIX = len(MAGIC) + 4


class ArtifactError(ValueError):
    """A program artifact was rejected (corrupt, stale, or unserializable).

    The *only* exception the codec raises: tampering, truncation, a
    ``schema_version`` bump, an engine fingerprint mismatch, a key
    mismatch, and a program that cannot be serialized (e.g. a fused
    network with a live-object fallback step) all land here, so callers
    degrade to a recompile with one ``except`` clause.
    """


#: Process-lifetime memo for :func:`engine_fingerprint` — sources cannot
#: change under a running process, and re-hashing ~50 files per artifact
#: load is measurable on the read-through path.
_FINGERPRINT_MEMO: str | None = None


def engine_fingerprint() -> str:
    """Digest of the engine + lowering sources (the artifact code version).

    Narrower than :func:`repro.runtime.cache.code_fingerprint` (which
    hashes the whole package): only the sources that define program
    *structure and execution* rotate it — the ``*.py`` and ``*.c``
    files directly in ``repro.engine`` (the scan kernel's C source
    included) plus the core factorization modules the lowering reads.
    Build products under ``__pycache__`` are not hashed.  A serve-layer
    edit keeps every artifact valid; an engine edit invalidates them all.

    Computed once per process (sources are immutable while running).
    """
    global _FINGERPRINT_MEMO
    if _FINGERPRINT_MEMO is not None:
        return _FINGERPRINT_MEMO
    import repro.core as core_pkg
    import repro.engine as engine_pkg

    digest = hashlib.sha256()
    roots = (Path(engine_pkg.__file__).resolve().parent,
             Path(core_pkg.__file__).resolve().parent)
    for root in roots:
        for path in sorted([*root.glob("*.py"), *root.glob("*.c")]):
            digest.update(path.name.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    _FINGERPRINT_MEMO = digest.hexdigest()[:16]
    return _FINGERPRINT_MEMO


# ----------------------------------------------------------------------
# Array codec
# ----------------------------------------------------------------------


#: Narrowing ladder for lossless integer packing, widest-first per kind.
_NARROW_CANDIDATES = {
    "i": (np.int8, np.int16, np.int32),
    "u": (np.uint8, np.uint16, np.uint32),
}


def _narrowed(arr: np.ndarray) -> np.ndarray:
    """The smallest same-kind integer dtype that holds ``arr`` exactly.

    Engine tables are int64 end to end, but the *values* are tiny
    (quantized weights, per-group indices), so most arrays pack 4-8x
    smaller.  The node records the wide dtype and the reader widens
    back with ``astype`` — bit-identical values, original dtype — while
    hashing, disk, and network all move a fraction of the bytes.
    """
    candidates = _NARROW_CANDIDATES.get(arr.dtype.kind)
    if candidates is None or arr.size == 0:
        return arr
    lo, hi = int(arr.min()), int(arr.max())
    for cand in candidates:
        info = np.iinfo(cand)
        if info.bits >= arr.dtype.itemsize * 8:
            break
        if info.min <= lo and hi <= info.max:
            return arr.astype(cand)
    return arr


class _ArrayWriter:
    """Accumulates raw array bytes; hands back ``__nd__`` meta nodes."""

    def __init__(self):
        self.chunks: list[bytes] = []
        self.offset = 0

    def add(self, arr: np.ndarray) -> dict:
        """Append one array's bytes; return its meta placeholder."""
        arr = np.ascontiguousarray(arr)
        if arr.dtype.kind not in _ALLOWED_DTYPE_KINDS:
            raise ArtifactError(
                f"cannot serialize dtype {arr.dtype} (allowed kinds: "
                f"{_ALLOWED_DTYPE_KINDS!r})")
        packed = _narrowed(arr)
        raw = packed.tobytes()
        node = {"__nd__": [self.offset, len(raw)],
                "dtype": str(packed.dtype), "shape": list(arr.shape)}
        if packed.dtype != arr.dtype:
            node["wide"] = str(arr.dtype)
        self.chunks.append(raw)
        self.offset += len(raw)
        return node

    def payload(self) -> bytes:
        """The concatenated payload."""
        return b"".join(self.chunks)


class _ArrayReader:
    """Resolves ``__nd__`` meta nodes against a validated payload.

    The payload is one ``bytearray`` copy of the blob's payload region,
    so every decoded array is *writable*: arrays stored at their native
    width are zero-copy views into it, and narrowed arrays (``wide``
    nodes) are widened back via one ``astype`` copy.
    """

    def __init__(self, payload: bytearray):
        self.payload = payload
        self._nbytes = len(payload)
        # np.dtype construction is measurable at thousands of nodes per
        # blob; a blob reuses a handful of dtype strings, so memoize.
        self._dtypes: dict[str, np.dtype] = {}

    def _dtype(self, name: object) -> np.dtype:
        """Validated, memoized dtype lookup for one dtype string."""
        try:
            dtype = np.dtype(str(name))
        except TypeError as exc:
            raise ArtifactError(f"artifact carries unknown dtype {name!r}") from exc
        if dtype.kind not in _ALLOWED_DTYPE_KINDS:
            raise ArtifactError(f"artifact carries forbidden dtype {dtype}")
        self._dtypes[str(name)] = dtype
        return dtype

    def get(self, node: object) -> np.ndarray:
        """Decode one placeholder into an ndarray (bounds-checked)."""
        if not (isinstance(node, dict) and "__nd__" in node):
            raise ArtifactError(f"expected an array node, got {type(node).__name__}")
        offset, nbytes = node["__nd__"]
        dtype = self._dtypes.get(node["dtype"]) or self._dtype(node["dtype"])
        shape = node["shape"]
        count = 1
        for d in shape:
            # json.loads only yields int here for integer literals; an
            # exact type check rejects floats/strings without coercion.
            if type(d) is not int or d < 0:
                raise ArtifactError(f"bad dimension in shape {shape}")
            count *= d
        if (type(offset) is not int or type(nbytes) is not int
                or count * dtype.itemsize != nbytes):
            raise ArtifactError(
                f"array byte count mismatch: shape {shape} x {dtype} != {nbytes}")
        if offset < 0 or offset + nbytes > self._nbytes:
            raise ArtifactError("array offsets run past the payload")
        arr = np.frombuffer(self.payload, dtype=dtype, count=count, offset=offset)
        wide = node.get("wide")
        if wide is not None:
            # Narrowed at write time (see _narrowed); widen back to the
            # original dtype.  astype copies, so the result stays
            # writable just like the zero-copy views.
            arr = arr.astype(self._dtypes.get(wide) or self._dtype(wide))
        return arr.reshape(shape)


# ----------------------------------------------------------------------
# Per-dataclass encoders / decoders (explicit, no reflection, no pickle)
# ----------------------------------------------------------------------


def _enc_table_program(p: TableProgram, w: _ArrayWriter) -> dict:
    node = {name: w.add(getattr(p, name)) for name in KERNEL_ARRAYS}
    node.update(num_filters=int(p.num_filters), filter_size=int(p.filter_size),
                num_groups=int(p.num_groups), key=p.key)
    return node


def _dec_table_program(node: dict, r: _ArrayReader) -> TableProgram:
    return TableProgram(
        **{name: r.get(node[name]) for name in KERNEL_ARRAYS},
        num_filters=int(node["num_filters"]),
        filter_size=int(node["filter_size"]),
        num_groups=int(node["num_groups"]),
        key=node.get("key"),
    )


def _enc_groups(groups: tuple[FilterGroupTables, ...], w: _ArrayWriter) -> dict:
    """A layer's group tables field-wise: one array per field for the layer.

    The header keeps each group's filter, entry and unique-weight counts;
    the ``(G, L)`` fields are stored flattened, group after group.
    """
    sizes = {t.max_group_size for t in groups}
    if len(sizes) != 1:
        raise ArtifactError(
            f"cannot serialize a layer whose groups have max_group_size {sorted(sizes)}")
    return {
        "num_filters": [t.num_filters for t in groups],
        "num_entries": [t.num_entries for t in groups],
        "num_unique": [t.num_unique for t in groups],
        "max_group_size": sizes.pop(),
        "filters": w.add(np.concatenate([t.filters for t in groups])),
        "canonical": w.add(np.concatenate([t.canonical for t in groups])),
        "iit": w.add(np.concatenate([t.iit for t in groups])),
        "transitions": w.add(np.concatenate([t.transitions.reshape(-1) for t in groups])),
    }


def _counts(node: dict, field: str) -> list[int]:
    """One per-group count list from the header, validated."""
    counts = node[field]
    if not isinstance(counts, list) or any(type(c) is not int or c < 0 for c in counts):
        raise ArtifactError(f"group table {field} must be a list of non-negative ints")
    return counts


def _dec_groups(node: dict, r: _ArrayReader) -> tuple[FilterGroupTables, ...]:
    """Split the layer-wide field arrays back into per-group tables.

    Every count is checked against the stored arrays before any slice,
    so a header that disagrees with its payload is an
    :class:`ArtifactError`, never a misaligned table.
    """
    gs, ls, us = (_counts(node, f) for f in ("num_filters", "num_entries", "num_unique"))
    filters = r.get(node["filters"])
    canonical = r.get(node["canonical"])
    iit = r.get(node["iit"])
    transitions = r.get(node["transitions"])
    if (not len(gs) == len(ls) == len(us)
            or filters.ndim != 2 or filters.shape[0] != sum(gs)
            or canonical.shape != (sum(us),) or iit.shape != (sum(ls),)
            or transitions.shape != (sum(g * n for g, n in zip(gs, ls)),)):
        raise ArtifactError("group table counts do not match the stored arrays")
    max_group_size = int(node["max_group_size"])
    groups = []
    f = u = e = c = 0
    for g, n, k in zip(gs, ls, us):
        groups.append(FilterGroupTables(
            filters=filters[f : f + g], canonical=canonical[u : u + k], iit=iit[e : e + n],
            transitions=transitions[c : c + g * n].reshape(g, n),
            max_group_size=max_group_size))
        f, u, e, c = f + g, u + k, e + n, c + g * n
    return tuple(groups)


def _enc_compiled_layer(cl: CompiledLayer, w: _ArrayWriter) -> dict:
    return {
        "groups": _enc_groups(cl.groups, w),
        "canonical": None if cl.canonical is None else w.add(cl.canonical),
        "key": cl.key,
    }


def _dec_compiled_layer(node: dict, r: _ArrayReader) -> CompiledLayer:
    canonical = node["canonical"]
    return CompiledLayer(
        groups=_dec_groups(node["groups"], r),
        canonical=None if canonical is None else r.get(canonical),
        key=str(node["key"]),
    )


def _shape3(node: object) -> tuple[int, int, int]:
    a, b, c = (int(v) for v in node)
    return (a, b, c)


def _enc_step(step: object, w: _ArrayWriter) -> dict:
    if isinstance(step, ConvStep):
        return {
            "step": "conv", "name": step.name,
            "in_shape": list(step.in_shape), "out_shape": list(step.out_shape),
            "r": step.r, "s": step.s, "stride": step.stride, "padding": step.padding,
            "program": _enc_table_program(step.program, w),
        }
    if isinstance(step, ReluStep):
        return {"step": "relu", "name": step.name,
                "in_shape": list(step.in_shape), "out_shape": list(step.out_shape)}
    if isinstance(step, PoolStep):
        return {"step": "pool", "name": step.name, "kind": step.kind,
                "size": step.size, "stride": step.stride,
                "in_shape": list(step.in_shape), "out_shape": list(step.out_shape)}
    if isinstance(step, FlattenStep):
        return {"step": "flatten", "name": step.name,
                "in_shape": list(step.in_shape), "out_shape": list(step.out_shape)}
    if isinstance(step, FallbackStep):
        raise ArtifactError(
            f"network step {step.name!r} is a live-object fallback "
            f"({type(step.layer).__name__}) and cannot be serialized")
    raise ArtifactError(f"unknown network step type {type(step).__name__}")


def _dec_step(node: dict, r: _ArrayReader) -> object:
    tag = node["step"]
    name = str(node["name"])
    in_shape = _shape3(node["in_shape"])
    out_shape = _shape3(node["out_shape"])
    if tag == "conv":
        return ConvStep(
            name=name, in_shape=in_shape, out_shape=out_shape,
            r=int(node["r"]), s=int(node["s"]),
            stride=int(node["stride"]), padding=int(node["padding"]),
            program=_dec_table_program(node["program"], r),
        )
    if tag == "relu":
        return ReluStep(name=name, in_shape=in_shape, out_shape=out_shape)
    if tag == "pool":
        return PoolStep(name=name, kind=str(node["kind"]), size=int(node["size"]),
                        stride=int(node["stride"]), in_shape=in_shape,
                        out_shape=out_shape)
    if tag == "flatten":
        return FlattenStep(name=name, in_shape=in_shape, out_shape=out_shape)
    raise ArtifactError(f"unknown serialized step tag {tag!r}")


def _enc_network_program(p: NetworkProgram, w: _ArrayWriter) -> dict:
    return {
        "name": p.name,
        "input_shape": list(p.input_shape),
        "output_shape": list(p.output_shape),
        "steps": [_enc_step(s, w) for s in p.steps],
        "key": p.key,
    }


def _dec_network_program(node: dict, r: _ArrayReader) -> NetworkProgram:
    return NetworkProgram(
        name=str(node["name"]),
        input_shape=_shape3(node["input_shape"]),
        output_shape=_shape3(node["output_shape"]),
        steps=tuple(_dec_step(s, r) for s in node["steps"]),
        key=node.get("key"),
    )


_ENCODERS = (
    (NetworkProgram, KIND_NETWORK, _enc_network_program),
    (CompiledLayer, KIND_LAYER, _enc_compiled_layer),
)

_DECODERS = {
    KIND_NETWORK: _dec_network_program,
    KIND_LAYER: _dec_compiled_layer,
}


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------


def serialize_program(program: object, key: str | None = None,
                      fingerprint: str | None = None) -> bytes:
    """Serialize a compiled program into a self-validating artifact blob.

    Args:
        program: a :class:`CompiledLayer` or :class:`NetworkProgram`.
        key: program-cache key recorded in the envelope; defaults to
            ``program.key``.
        fingerprint: engine code fingerprint override (tests); defaults
            to :func:`engine_fingerprint`.

    Returns:
        the envelope bytes (see the module docstring for the layout).

    Raises:
        ArtifactError: for unserializable programs — unknown types,
            live-object fallback steps, forbidden dtypes — or a missing
            key.
    """
    for cls, kind, encoder in _ENCODERS:
        if isinstance(program, cls):
            break
    else:
        raise ArtifactError(
            f"cannot serialize {type(program).__name__}; expected "
            f"CompiledLayer or NetworkProgram")
    key = key if key is not None else getattr(program, "key", None)
    if not key:
        raise ArtifactError(f"{kind} has no program-cache key to address it by")
    writer = _ArrayWriter()
    meta = encoder(program, writer)
    payload = writer.payload()
    header = {
        "schema_version": SCHEMA_VERSION,
        "engine": fingerprint if fingerprint is not None else engine_fingerprint(),
        "key": key,
        "kind": kind,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_nbytes": len(payload),
        "meta": meta,
    }
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    body = MAGIC + struct.pack(">I", len(header_bytes)) + header_bytes + payload
    return body + hashlib.sha256(body).digest()


def inspect_artifact(blob: bytes) -> dict:
    """Validate an artifact's envelope and return its header.

    Checks structure only — magic, trailer digest (covering header and
    payload, so *any* bit flip or truncation is caught), header JSON,
    schema version, and the recorded payload length.  It does **not**
    compare the engine fingerprint; :func:`deserialize_program` owns
    that policy.

    Raises:
        ArtifactError: on any structural problem.
    """
    if len(blob) < _HEADER_PREFIX + _TRAILER_BYTES:
        raise ArtifactError("artifact truncated (shorter than the fixed envelope)")
    if not blob.startswith(MAGIC):
        raise ArtifactError("bad artifact magic")
    body, trailer = blob[:-_TRAILER_BYTES], blob[-_TRAILER_BYTES:]
    if hashlib.sha256(body).digest() != trailer:
        raise ArtifactError("artifact integrity digest mismatch (corrupt or truncated)")
    (header_len,) = struct.unpack(">I", blob[len(MAGIC):_HEADER_PREFIX])
    header_end = _HEADER_PREFIX + header_len
    if header_end > len(body):
        raise ArtifactError("artifact header runs past the blob")
    try:
        header = json.loads(body[_HEADER_PREFIX:header_end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"artifact header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ArtifactError("artifact header is not an object")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact schema_version {version!r} != supported {SCHEMA_VERSION}")
    if header.get("kind") not in _DECODERS:
        raise ArtifactError(f"unknown artifact kind {header.get('kind')!r}")
    if len(body) - header_end != header.get("payload_nbytes"):
        raise ArtifactError("artifact payload length mismatch")
    # No separate payload re-hash: the trailer digest above already
    # covers every payload byte (header and payload are hashed as one
    # body), so a second sha256 pass would double the verify cost of
    # large blobs for zero added integrity.  ``payload_sha256`` stays in
    # the header as standalone provenance for tooling.
    return header


def deserialize_program(blob: bytes, expected_key: str | None = None,
                        fingerprint: str | None = None) -> object:
    """Reconstruct a program from an artifact blob, rejecting stale ones.

    Args:
        blob: the envelope bytes.
        expected_key: when given, the envelope's recorded program key
            must match exactly (defends against a blob filed under the
            wrong store key).
        fingerprint: expected engine fingerprint; defaults to the live
            :func:`engine_fingerprint`.  A mismatch means the engine
            code changed since the artifact was compiled — rejected,
            never silently executed.

    Returns:
        the reconstructed program object (same class that was
        serialized), bit-identical in execution to the original.

    Raises:
        ArtifactError: on *every* failure mode — structural corruption,
            staleness, key mismatch, or malformed meta.  No other
            exception type escapes.
    """
    header = inspect_artifact(blob)
    expected_fp = fingerprint if fingerprint is not None else engine_fingerprint()
    if header["engine"] != expected_fp:
        raise ArtifactError(
            f"stale artifact: engine fingerprint {header['engine']} != "
            f"current {expected_fp} (recompile required)")
    if expected_key is not None and header["key"] != expected_key:
        raise ArtifactError(
            f"artifact key mismatch: envelope says {header['key']!r}, "
            f"expected {expected_key!r}")
    # The payload sits between the header and the trailer; slicing it by
    # its (checksummed) recorded length avoids re-deriving header bounds.
    payload_nbytes = int(header["payload_nbytes"])
    payload_start = len(blob) - _TRAILER_BYTES - payload_nbytes
    # memoryview slicing keeps this at exactly one payload copy (the
    # bytearray), which every decoded array then views zero-copy.
    view = memoryview(blob)[payload_start:len(blob) - _TRAILER_BYTES]
    reader = _ArrayReader(bytearray(view))
    try:
        return _DECODERS[header["kind"]](header["meta"], reader)
    except ArtifactError:
        raise
    except Exception as exc:  # malformed meta: clean rejection, not a crash
        raise ArtifactError(f"artifact meta is malformed: {exc}") from exc


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


class ProgramStore:
    """Durable store of compiled-program artifacts, local + remote.

    Artifacts live in the same blob layout as design-point results
    (``<root>/<store_key[:2]>/<store_key>.pkl``) under store keys
    derived from the program key, so the cache peer, the tiers, and
    ``repro cache push/pull`` federate them without knowing what they
    are.  The blobs are the only record of what is stored:
    :meth:`artifacts` lists them from their own headers.

    Args:
        root: blob directory (default: the result cache's
            :func:`~repro.runtime.cache.default_cache_dir` resolution,
            so one ``--cache-dir`` serves both results and programs).
        remote: a :class:`~repro.runtime.tiers.CacheTier` (a server
            passes its own peer client), or a cache peer URL, which
            constructs a serving-tuned :class:`HTTPPeerTier`: after 3
            consecutive failures its breaker opens and loads skip the
            peer instead of each waiting out ``remote_timeout``.
        fingerprint: engine fingerprint override (tests).
        remote_timeout: per-operation timeout when ``remote`` is a URL.
    """

    def __init__(self, root: str | Path | None = None,
                 remote: CacheTier | str | None = None,
                 fingerprint: str | None = None,
                 remote_timeout: float = 2.0):
        """Open the local blob root and, when one is given, the remote tier."""
        self.cache = ResultCache(root=root)
        self.remote: CacheTier | None = (
            HTTPPeerTier(remote, timeout=remote_timeout)
            if isinstance(remote, str) else remote)
        self.fingerprint = fingerprint
        self._counters = Counters("saves", "save_rejected", "loads", "load_failures",
                                  "remote_loads")

    @staticmethod
    def store_key(key: str) -> str:
        """The 64-hex blob name a program key is filed under."""
        return hashlib.sha256(b"repro-program-artifact:" + key.encode()).hexdigest()

    def _fp(self) -> str:
        return self.fingerprint if self.fingerprint is not None else engine_fingerprint()

    def save(self, key: str, program: object) -> bool:
        """Serialize and store one program locally.

        Returns ``False`` (never raises) when the program cannot be
        serialized — e.g. a network with a live-object fallback step —
        so opportunistic write-back callers skip it silently.
        """
        try:
            blob = serialize_program(program, key=key, fingerprint=self._fp())
        except ArtifactError:
            self._counters.inc("save_rejected")
            return False
        self.cache.put_blob(self.store_key(key), blob)
        self._counters.inc("saves")
        return True

    def load(self, key: str) -> object | None:
        """Load one program: local blob first, then the remote tier.

        A remote hit is validated, written back locally, and returned.
        Every failure mode — absent, corrupt, stale, peer down — returns
        ``None``; the caller recompiles.
        """
        self._counters.inc("loads")
        store_key = self.store_key(key)
        blob = self.cache.get_blob(store_key)
        if blob is not None:
            try:
                return deserialize_program(blob, expected_key=key,
                                           fingerprint=self._fp())
            except ArtifactError:
                self._counters.inc("load_failures")
                # Fall through: the remote copy may be fresh where the
                # local one is stale or torn.
        if self.remote is None:
            return None
        try:
            blob = self.remote.get_blob(store_key)
        except Exception:
            return None
        if blob is None:
            return None
        try:
            program = deserialize_program(blob, expected_key=key,
                                          fingerprint=self._fp())
        except ArtifactError:
            self._counters.inc("load_failures")
            return None
        with contextlib.suppress(OSError):
            self.cache.put_blob(store_key, blob)
        self._counters.inc("remote_loads")
        return program

    def save_cached(self) -> int:
        """Persist every program in the process cache; returns saves."""
        saved = 0
        for key, program in sorted(cached_programs().items()):
            if self.save(key, program):
                saved += 1
        return saved

    def artifacts(self) -> dict:
        """The local artifacts, read from the blobs: ``{program_key: {kind, bytes, engine}}``.

        A blob whose first 8 bytes are not :data:`MAGIC` is a result
        entry and is skipped after that read; an artifact blob that
        fails :func:`inspect_artifact` (torn, corrupt, another schema)
        is skipped too.  Stale artifacts are listed, with an ``engine``
        that differs from the live fingerprint.  Reading leaves LRU
        recency untouched.
        """
        found = {}
        for store_key in self.cache.iter_keys():
            try:
                with self.cache.path_for(store_key).open("rb") as fh:
                    if fh.read(len(MAGIC)) != MAGIC:
                        continue
                    blob = MAGIC + fh.read()
                header = inspect_artifact(blob)
            except (OSError, ArtifactError):
                continue  # evicted mid-walk, or not a valid artifact
            found[header["key"]] = {"kind": header["kind"], "bytes": len(blob),
                                    "engine": header["engine"]}
        return found

    def stats(self) -> dict:
        """Store counters plus artifact totals (for ``repro programs info``)."""
        artifacts = self.artifacts().values()
        fp = self._fp()
        out = self._counters.snapshot()
        out["root"] = str(self.cache.root)
        out["programs"] = len(artifacts)
        out["bytes"] = sum(entry["bytes"] for entry in artifacts)
        out["engine_fingerprint"] = fp
        out["stale"] = sum(1 for entry in artifacts if entry["engine"] != fp)
        return out


class ProgramArtifactTier:
    """The read-through/write-back hook between the process cache and a store.

    Installed via :func:`repro.engine.program.set_artifact_tier`: on a
    program-cache miss the single-flight owner calls :meth:`fetch`
    first, which loads the program from the store's local blobs, then
    from its remote tier; a hit skips the compile entirely and counts
    as an ``artifact_hit``, not a miss.  After a genuine compile it
    calls :meth:`offer`, which serializes and stores the fresh program
    on a background thread — and pushes its blob to the store's remote
    tier when one is configured — so the compile path never blocks on
    disk or HTTP.

    Neither method ever raises: artifact trouble degrades to a compile.

    Args:
        store: the :class:`ProgramStore` to read and write.
    """

    def __init__(self, store: ProgramStore):
        """Wrap ``store`` and start the one background write-back thread."""
        self.store = store
        self._counters = Counters("fetch_hits", "fetch_misses", "offers", "stored",
                                  "store_failures")
        self._writeback = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-program-wb")

    def fetch(self, key: str) -> object | None:
        """Load ``key`` from the store; ``None`` on any miss or failure."""
        try:
            program = self.store.load(key)
        except Exception:
            program = None
        self._counters.inc("fetch_hits" if program is not None else "fetch_misses")
        return program

    def offer(self, key: str, program: object) -> None:
        """Queue a freshly compiled program for background persistence."""
        self._counters.inc("offers")
        try:
            self._writeback.submit(self._store_one, key, program)
        except RuntimeError:
            pass  # closed: write-back is best-effort

    def _store_one(self, key: str, program: object) -> None:
        """Save one program, then push its blob to the remote (best-effort)."""
        try:
            ok = self.store.save(key, program)
            remote = self.store.remote
            if ok and remote is not None:
                store_key = self.store.store_key(key)
                blob = self.store.cache.get_blob(store_key, touch=False)
                if blob is not None:
                    remote.put_blob(store_key, blob)
        except Exception:
            ok = False
        self._counters.inc("stored" if ok else "store_failures")

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every queued offer has been persisted."""
        try:
            barrier = self._writeback.submit(lambda: None)
        except RuntimeError:
            return
        barrier.result(timeout=timeout)

    def close(self) -> None:
        """Flush pending offers and stop the background worker."""
        self._writeback.shutdown(wait=True)

    def stats(self) -> dict:
        """Tier counters plus the wrapped store's stats."""
        out = self._counters.snapshot()
        out["store"] = self.store.stats()
        return out
