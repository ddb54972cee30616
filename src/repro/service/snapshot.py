"""The compact binary snapshot format for compiled kernels.

A :class:`~repro.core.kernel.CompiledDAG` is the expensive artifact of
the whole pipeline — lowering (especially from a symbolic plan) costs
polynomial work while every query on the finished kernel is near-free.
Snapshots make that work durable: ``kernel.to_bytes()`` serializes the
complete execution state and ``CompiledDAG.from_bytes`` restores a
kernel that answers count / sample / enumerate / spectrum queries
without touching the original automaton.

Layout::

    magic  b"RPROKRN1"
    u32    header length
    bytes  header — JSON (UTF-8) with the structural metadata:
           n, trimmed, symbols, per-layer states (tagged-atom codec),
           the initial index, per-layer final indices, LoweringStats,
           and the section directory for the binary payload
    bytes  payload — the CSR edge arrays and any *packed* run-count
           rows, each dumped as a little-endian ``array('q')``

Count rows that spilled to bignums (entries beyond 64 bits) are encoded
as JSON integer lists inside the header — JSON integers are arbitrary
precision, so exactness survives the round-trip.  State and symbol
objects go through the same tagged-atom codec as the NFA serializer, so
tuples, frozensets (spanner marker sets) and plan product states
round-trip by value.

A restored kernel carries a :class:`_SnapshotSource` in place of its
automaton: initial state, accepting-state membership and alphabet are
answered from the snapshot itself; only
:meth:`~repro.core.kernel.CompiledDAG.extend_to` — the one operation
needing transitions beyond the recorded layers — requires the original
source, which callers may supply lazily via ``source_resolver``.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from array import array
from typing import TYPE_CHECKING, Any, Callable, Container, Iterable

from repro.automata.serialization import _decode_atom, _encode_atom
from repro.errors import InvalidAutomatonError, ReproError

if TYPE_CHECKING:
    from repro.automata.nfa import State, Symbol
    from repro.core.kernel import AutomatonSource, CompiledDAG, CountRow

MAGIC = b"RPROKRN1"

#: Version 2 pads the payload to an 8-byte file offset so every ``'q'``
#: section is naturally aligned — what lets :func:`kernel_from_mmap`
#: hand out int64 views straight over the mapped file.  Version-1
#: snapshots still load (with a copying restore).
SNAPSHOT_VERSION = 2

#: Payload sections are little-endian int64 rows; version ≥ 2 aligns
#: their start (and hence, all of them) to this boundary.
_ALIGN = 8

#: Buffer borrowing assumes ``array('l')`` is 8 bytes (LP64): a
#: materializing copy-on-extend moves borrowed edge bytes into ``'l'``
#: arrays verbatim.  Elsewhere the borrow mode quietly degrades to a
#: full-copy restore.
_LP64 = array("l").itemsize == array("q").itemsize

#: Largest count representable in a packed ``array('q')`` row.
_INT64_MAX = 2**63 - 1


class SnapshotError(ReproError):
    """The bytes are not a valid kernel snapshot (or the kernel is not
    snapshot-serializable)."""


class _SnapshotSource:
    """The automaton stand-in a restored kernel carries.

    Serves the queries a finished kernel still makes against its source
    (initial state, accepting membership, alphabet) from snapshot data.
    Transition queries (``out_edges``, needed only by ``extend_to``)
    delegate to the lazily resolved original source when a resolver was
    supplied, and fail with a clear error otherwise.
    """

    __slots__ = ("initial", "_finals", "_alphabet", "_resolver", "_resolved")

    initial: State
    _finals: frozenset[State]
    _alphabet: frozenset[Symbol]
    _resolver: Callable[[], AutomatonSource] | None
    _resolved: AutomatonSource | None

    has_epsilon = False

    def __init__(
        self,
        initial: State,
        finals: frozenset[State],
        alphabet: frozenset[Symbol],
        resolver: Callable[[], AutomatonSource] | None = None,
    ) -> None:
        self.initial = initial
        self._finals = finals
        self._alphabet = alphabet
        self._resolver = resolver
        self._resolved = None

    def _resolve(self) -> AutomatonSource:
        if self._resolved is None:
            if self._resolver is None:
                raise InvalidAutomatonError(
                    "this kernel was restored from a snapshot without its "
                    "source automaton; extending it requires from_bytes("
                    "..., source_resolver=...)"
                )
            self._resolved = self._resolver()
        return self._resolved

    @property
    def finals(self) -> Container[State]:
        if self._resolved is not None:
            return self._resolved.finals
        return self._finals

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self._alphabet

    def out_edges(self, state: State) -> Iterable[tuple[Symbol, State]]:
        return self._resolve().out_edges(state)

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        return frozenset(t for s, t in self.out_edges(state) if s == symbol)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<SnapshotSource resolved={self._resolved is not None}>"


def _encode_atoms(values: Iterable[object]) -> list[Any]:
    """A sequence of states/symbols → its header encoding.

    Plain scalar sequences (strings/numbers — the overwhelmingly common
    state shape) are stored raw under a ``["plain", ...]`` marker so the
    restore path is a single C-level JSON parse; anything structured
    (tuples, frozensets, ε) falls back to the tagged-atom codec.
    """
    items = list(values)
    if all(
        isinstance(item, (str, int, float)) and not isinstance(item, bool)
        for item in items
    ):
        return ["plain", items]
    return ["tagged", [_encode_atom(item) for item in items]]


def _decode_atoms(encoded: list[Any]) -> tuple[Any, ...]:
    marker, items = encoded
    if marker == "plain":
        return tuple(items)
    return tuple(_decode_atom(item) for item in items)


def _encode_count_row(row: CountRow) -> tuple[dict[str, Any], bytes | None]:
    """One run-count row → (directory entry, packed payload or None)."""
    if isinstance(row, list):
        # Bignum spill: JSON integers are arbitrary precision.
        return {"spill": row}, None
    # array('q') or a borrowed int64 memoryview — both are packed.
    return {"packed": len(row)}, row.tobytes()


def _decode_count_row(
    entry: dict[str, Any], payload: memoryview, offset: int, borrow: bool = False
) -> tuple[CountRow, int]:
    if "spill" in entry:
        return list(entry["spill"]), offset
    count = entry["packed"]
    row = array("q")
    end = offset + count * row.itemsize
    if end > len(payload):
        raise SnapshotError("truncated snapshot payload")
    if borrow:
        return payload[offset:end].cast("q"), end
    row.frombytes(bytes(payload[offset:end]))
    return row, end


def kernel_to_bytes(kernel: CompiledDAG, version: int = SNAPSHOT_VERSION) -> bytes:
    """Serialize ``kernel`` into the snapshot format (see module docs).

    ``version`` selects the on-disk layout: 2 (the default) pads the
    payload start to an 8-byte offset for mmap borrowing; 1 writes the
    legacy unpadded layout (kept for compatibility tests).
    """
    if version not in (1, 2):
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    try:
        symbols = _encode_atoms(kernel.symbols)
        states = [
            _encode_atoms(kernel.layer_states(t)) for t in range(kernel.n + 1)
        ]
    except InvalidAutomatonError as error:
        raise SnapshotError(f"kernel is not snapshot-serializable: {error}") from error

    initial_index = kernel.index_of(0, kernel.nfa.initial)
    finals_idx = [list(kernel.final_indices(t)) for t in range(kernel.n + 1)]

    sections: list[bytes] = []
    edges = []
    for t in range(kernel.n):
        start_row = array("q", kernel._edge_start[t])
        symbol_row = array("q", kernel._edge_symbol[t])
        dst_row = array("q", kernel._edge_dst[t])
        sections.extend((start_row.tobytes(), symbol_row.tobytes(), dst_row.tobytes()))
        edges.append(
            {"start": len(start_row), "symbol": len(symbol_row), "dst": len(dst_row)}
        )

    def encode_table(table: list[CountRow] | None) -> list[dict[str, Any]] | None:
        if table is None:
            return None
        entries: list[dict[str, Any]] = []
        for row in table:
            entry, payload = _encode_count_row(row)
            entries.append(entry)
            if payload is not None:
                sections.append(payload)
        return entries

    forward = encode_table(kernel._forward)
    backward = encode_table(kernel._backward)

    header = {
        "version": version,
        "n": kernel.n,
        "trimmed": kernel.trimmed,
        "symbols": symbols,
        "states": states,
        "initial_index": initial_index,
        "finals_idx": finals_idx,
        "edges": edges,
        "forward": forward,
        "backward": backward,
        "lowering": kernel.lowering.as_dict() if kernel.lowering else None,
    }
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    prefix = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    if version >= 2:
        # Align the payload start; every section is a whole number of
        # int64s, so this one pad aligns them all.  The reader derives
        # the pad width from the header length — it is not stored.
        pad = (-(len(MAGIC) + 4 + len(header_bytes))) % _ALIGN
        if pad:
            prefix.append(b"\x00" * pad)
    return b"".join(prefix + sections)


def kernel_from_bytes(
    data: bytes | bytearray | memoryview | mmap.mmap,
    source_resolver: Callable[[], AutomatonSource] | None = None,
    *,
    borrow: bool = False,
) -> CompiledDAG:
    """Restore a :class:`~repro.core.kernel.CompiledDAG` from snapshot
    bytes (inverse of :func:`kernel_to_bytes`).

    With ``borrow=True`` the restored kernel *borrows* its CSR edge
    blocks and packed count rows as int64 memoryviews over ``data``
    instead of copying them out — the caller keeps ``data`` (typically
    an mmap) alive; the kernel records it in ``_borrow_owner`` and
    copies-on-extend.  Borrowing needs the aligned version-2 layout and
    an LP64 platform; otherwise this silently falls back to the
    copying restore (``_borrow_owner`` stays None).
    """
    from repro.core.kernel import CompiledDAG
    from repro.core.plan import LoweringStats

    view = memoryview(data)
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise SnapshotError("not a repro kernel snapshot (bad magic)")
    try:
        (header_len,) = struct.unpack_from("<I", view, len(MAGIC))
        header_start = len(MAGIC) + 4
        header = json.loads(bytes(view[header_start : header_start + header_len]))
    except (struct.error, ValueError) as error:
        raise SnapshotError(f"corrupt snapshot header: {error}") from error
    version = header.get("version")
    if version not in (1, SNAPSHOT_VERSION):
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    borrow = borrow and version >= 2 and _LP64
    borrowed_any = False

    try:
        n = header["n"]
        symbols = _decode_atoms(header["symbols"])
        states = [_decode_atoms(layer) for layer in header["states"]]
        offset = header_start + header_len
        if version >= 2:
            offset += (-offset) % _ALIGN
        itemsize = array("q").itemsize

        long_matches_q = _LP64

        def read_long_row(count: int) -> "array[int] | memoryview[int]":
            nonlocal offset, borrowed_any
            end = offset + count * itemsize
            if end > len(view):
                raise SnapshotError("truncated snapshot payload")
            if borrow:
                chunk = view[offset:end].cast("q")
                offset = end
                borrowed_any = True
                return chunk
            payload = bytes(view[offset:end])
            offset = end
            # Snapshots store 'q' (8-byte) rows; on LP64 platforms 'l'
            # has the same layout, so the bytes load directly.
            row = array("l" if long_matches_q else "q")
            row.frombytes(payload)
            return row if long_matches_q else array("l", row)

        edge_start: list[array[int] | memoryview[int]] = []
        edge_symbol: list[array[int] | memoryview[int]] = []
        edge_dst: list[array[int] | memoryview[int]] = []
        for entry in header["edges"]:
            edge_start.append(read_long_row(entry["start"]))
            edge_symbol.append(read_long_row(entry["symbol"]))
            edge_dst.append(read_long_row(entry["dst"]))

        def read_table(entries: list[dict[str, Any]] | None) -> list[CountRow] | None:
            nonlocal offset, borrowed_any
            if entries is None:
                return None
            table: list[CountRow] = []
            for entry in entries:
                if offset > len(view):
                    raise SnapshotError("truncated snapshot payload")
                row, offset = _decode_count_row(entry, view, offset, borrow=borrow)
                if borrow and isinstance(row, memoryview):
                    borrowed_any = True
                table.append(row)
            return table

        forward = read_table(header["forward"])
        backward = read_table(header["backward"])
        if offset != len(view):
            # Trailing or missing bytes: the payload must be consumed
            # exactly, or a tail-truncated/padded file would restore
            # "successfully" and crash later instead of being
            # quarantined by the store.
            raise SnapshotError("snapshot payload size mismatch")
        finals_idx = {t: tuple(row) for t, row in enumerate(header["finals_idx"])}
        initial_index = header["initial_index"]
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as error:
        raise SnapshotError(f"corrupt snapshot body: {error}") from error

    if len(states) != n + 1 or len(header["edges"]) != n:
        raise SnapshotError("snapshot layer structure does not match n")

    initial = states[0][initial_index] if initial_index is not None else None
    finals_union = frozenset(
        states[t][i] for t, row in finals_idx.items() for i in row
    )
    source = _SnapshotSource(
        initial, finals_union, frozenset(symbols), resolver=source_resolver
    )

    kernel = CompiledDAG.__new__(CompiledDAG)
    kernel.nfa = source
    kernel.n = n
    kernel.trimmed = header["trimmed"]
    kernel.symbols = symbols
    kernel._symbol_index = {s: i for i, s in enumerate(symbols)}
    kernel._states = states
    kernel._index = [
        {state: i for i, state in enumerate(layer)} for layer in states
    ]
    kernel._edge_start = edge_start
    kernel._edge_symbol = edge_symbol
    kernel._edge_dst = edge_dst
    kernel._redge = {}
    kernel._forward = forward
    kernel._backward = backward
    kernel._cum = {}
    kernel._layer_sets = {}
    kernel._finals_idx = finals_idx
    lowering = header.get("lowering")
    kernel.lowering = LoweringStats(**lowering) if lowering else None
    kernel.fingerprint = None  # the store stamps its key after restore
    kernel._backend = None  # settled by the owner or on first use
    kernel._backend_settled = False
    kernel._accel_state = {}
    kernel._borrow_owner = data if borrowed_any else None
    return kernel


def kernel_from_mmap(
    path: str | os.PathLike[str],
    source_resolver: Callable[[], AutomatonSource] | None = None,
) -> CompiledDAG:
    """Restore a kernel over a read-only memory map of the snapshot file.

    The kernel's CSR arrays and packed count rows become int64 views
    straight into the mapping, so a warm start pages data lazily on
    first touch instead of copying the whole payload up front.  The
    mapping stays open for the kernel's lifetime (it is the kernel's
    ``_borrow_owner``); on Linux the file may be unlinked (store
    eviction) while the kernel keeps using it.  A version-1 snapshot —
    or a non-LP64 platform — restores by copy and the mapping is closed
    immediately.
    """
    try:
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError as error:
        # Zero-length file (classic truncation corruption).
        raise SnapshotError(f"cannot map snapshot: {error}") from error
    try:
        kernel = kernel_from_bytes(mapped, source_resolver=source_resolver, borrow=True)
    except SnapshotError:
        try:
            mapped.close()
        except BufferError:
            # The exception traceback pins partially-decoded views into
            # the map; it closes when the last of them is collected.
            pass
        raise
    if kernel._borrow_owner is None:
        mapped.close()
    return kernel


__all__ = [
    "SnapshotError",
    "kernel_to_bytes",
    "kernel_from_bytes",
    "kernel_from_mmap",
    "MAGIC",
    "SNAPSHOT_VERSION",
]
