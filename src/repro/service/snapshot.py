"""The compact binary snapshot format for compiled kernels.

A :class:`~repro.core.kernel.CompiledDAG` is the expensive artifact of
the whole pipeline — lowering (especially from a symbolic plan) costs
polynomial work while every query on the finished kernel is near-free.
Snapshots make that work durable: ``kernel.to_bytes()`` serializes the
complete execution state and ``CompiledDAG.from_bytes`` restores a
kernel that answers count / sample / enumerate / spectrum queries
without touching the original automaton.

Layout (version 3)::

    magic  b"RPROKRN1"
    u32    header length
    bytes  header — JSON (UTF-8) with the structural metadata:
           n, trimmed, symbols, the label table (each distinct state
           once, tagged-atom codec), the per-layer label-id row lengths,
           the initial index, per-layer final indices, LoweringStats,
           and the section directory for the binary payload
    pad    zero bytes up to an 8-byte file offset
    bytes  payload — one label-id row per layer (layer ``t``'s states
           as indices into the label table, in the layer's index
           order, each a little-endian ``array('Q')``), then the CSR
           edge arrays and any *packed* run-count rows, each dumped as a
           little-endian ``array('q')``

Count rows that spilled to bignums (entries beyond 64 bits) are encoded
as JSON integer lists inside the header — JSON integers are arbitrary
precision, so exactness survives the round-trip.  State and symbol
objects go through the same tagged-atom codec as the NFA serializer, so
tuples, frozensets (spanner marker sets) and plan product states
round-trip by value, each with its exact type.

A kernel repeats a few states over many layers (a product kernel of
57,475 vertices has 785 distinct states), so the label table holds
each distinct state once.  The table shares an entry between equal labels
only where equality implies the same encoding: in layers of exact ints
and strings, or of tuples of them.  A layer holding any other label,
such as ``True``, ``1.0``, ``-0.0`` or a tuple holding one, gets an
entry per label, so ``(1, 2)`` and ``(True, 2)`` never merge.  A
restore maps each layer's ids through the
table; an id out of range, a layer whose length does not match its
edge block, or a layer holding one state twice is a
:class:`SnapshotError`.

The table encoding has fast paths, byte-identical to the codec: a table
of plain strings and numbers is stored raw, and tuples of ints and
strings skip the recursive codec.  On restore, every tagged tuple of
scalars (strings, numbers, booleans, None) becomes its tuple without the
codec.  Nested tuples, frozensets and ε take the codec both ways.

A snapshot of any other version is a :class:`SnapshotError`, so a
:class:`~repro.service.store.KernelStore` quarantines it and the kernel
is lowered again.

The layout writes each layer and each CSR block in full, so a kernel
whose equal layers share their objects (see :mod:`repro.core.kernel`)
encodes to the same bytes as one that does not; the encoder packs each
shared label-id row and block once, and a restore shares them again.

A restored kernel carries a :class:`_SnapshotSource` in place of its
automaton: initial state, accepting-state membership and alphabet are
answered from the snapshot itself, which is all a built kernel reads of
its source.  A kernel is never extended past its length, so a restore
never needs the automaton's transitions.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from array import array
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

from repro.automata.serialization import _TUPLE_TAG, _decode_atom, _encode_atom
from repro.core.kernel import _exact_layer, _index_map
from repro.errors import InvalidAutomatonError, ReproError

if TYPE_CHECKING:
    from repro.automata.nfa import State, Symbol
    from repro.core.kernel import CompiledDAG, CountRow

MAGIC = b"RPROKRN1"

#: The one layout written and read: one label table, per-layer label-id
#: rows, and a payload padded to an 8-byte file offset.
SNAPSHOT_VERSION = 3

#: Payload sections are little-endian int64 rows; the payload's start
#: (and hence, every section's) is aligned to this boundary, which lets
#: :func:`kernel_from_mmap` hand out int64 views straight over the
#: mapped file.
_ALIGN = 8

#: Buffer borrowing assumes ``array('l')`` is 8 bytes (LP64): borrowed
#: edge blocks are int64 views where a lowered kernel holds ``'l'``
#: arrays.  Elsewhere the borrow mode quietly degrades to a full-copy
#: restore.
_LP64 = array("l").itemsize == array("q").itemsize

#: Largest count representable in a packed ``array('q')`` row.
_INT64_MAX = 2**63 - 1

#: Bytes per payload item (``'q'`` counts and CSR rows, ``'Q'`` label ids).
_ITEMSIZE = array("q").itemsize


class SnapshotError(ReproError):
    """The bytes are not a valid kernel snapshot (or the kernel is not
    snapshot-serializable)."""


class _SnapshotSource(NamedTuple):
    """The automaton stand-in a restored kernel carries: what a built
    kernel still reads of its source (initial state, accepting
    membership, alphabet), answered from snapshot data."""

    initial: State
    finals: frozenset[State]
    alphabet: frozenset[Symbol]


#: Item types of a tuple label that the decoder's fast path reads as
#: themselves: the tagged-atom codec maps each of them to its JSON scalar.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _decode_label(item: Any) -> Any:
    """A tagged label → its state: a tuple of scalars directly, anything
    else through :func:`_decode_atom`."""
    if type(item) is dict and len(item) == 1:
        items = item.get(_TUPLE_TAG)
        if type(items) is list and _SCALARS.issuperset(map(type, items)):
            return tuple(items)
    return _decode_atom(item)


def _encode_atoms(values: Iterable[object], memo: dict[Any, Any]) -> list[Any]:
    """A sequence of states/symbols → its header encoding.

    Plain scalar sequences (strings/numbers — the overwhelmingly common
    state shape) are stored raw under a ``["plain", ...]`` marker so the
    restore path is a single C-level JSON parse; anything structured
    (tuples, frozensets, ε) is stored under ``["tagged", ...]``.  A
    sequence of tuples of ints and strings (product states) skips the
    recursive codec: each distinct tuple is encoded once per snapshot,
    through ``memo``, to the tagged form the codec would give it.
    """
    items = list(values)
    if all(
        isinstance(item, (str, int, float)) and not isinstance(item, bool)
        for item in items
    ):
        return ["plain", items]
    # Not plain, so under the exact-type rule these are tuples of ints
    # and strings: equal tuples have items of the same types.
    if _exact_layer(items):
        encoded = []
        for item in items:
            label = memo.get(item)
            if label is None:
                label = memo[item] = {_TUPLE_TAG: list(item)}
            encoded.append(label)
        return ["tagged", encoded]
    return ["tagged", [_encode_atom(item) for item in items]]


def _label_table(kernel: CompiledDAG) -> tuple[list[Any], list[bytes]]:
    """The label table and every layer's label-id row (packed).

    Labels are numbered in order of first appearance, layer by layer.
    A layer under the kernel's exact-type rule (exact ints and strings,
    or tuples of them) shares one entry per distinct label.  Any other
    layer gets an entry per label: equal labels of other types may
    encode differently.  A layer that shares its twin's state tuple has
    its twin's ids, so its row is packed once.
    """
    ids: dict[Any, int] = {}
    labels: list[Any] = []
    rows: list[bytes] = []
    exact: list[bool] = []
    for t in range(kernel.n + 1):
        layer = kernel.layer_states(t)
        twin = kernel._twin[t]
        shared = twin != t and kernel.layer_states(twin) is layer
        exact.append(exact[twin] if shared else _exact_layer(layer))
        if shared and exact[t]:
            rows.append(rows[twin])
        elif exact[t]:
            for label in layer:
                if label not in ids:
                    ids[label] = len(labels)
                    labels.append(label)
            rows.append(array("Q", map(ids.__getitem__, layer)).tobytes())
        else:
            rows.append(array("Q", range(len(labels), len(labels) + len(layer))).tobytes())
            labels.extend(layer)
    return labels, rows


def _decode_atoms(encoded: list[Any]) -> tuple[Any, ...]:
    marker, items = encoded
    if marker == "plain":
        return tuple(items)
    return tuple(map(_decode_label, items))


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
    row.frombytes(payload[offset:end])
    return row, end


def kernel_to_bytes(kernel: CompiledDAG) -> bytes:
    """Serialize ``kernel`` into the snapshot format (see module docs)."""
    header: dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "n": kernel.n,
        "trimmed": kernel.trimmed,
    }
    sections: list[bytes] = []
    try:
        memo: dict[Any, Any] = {}
        header["symbols"] = _encode_atoms(kernel.symbols, memo)
        labels, rows = _label_table(kernel)
        header["labels"] = _encode_atoms(labels, memo)
        header["layers"] = [len(row) // _ITEMSIZE for row in rows]
        sections.extend(rows)
    except InvalidAutomatonError as error:
        raise SnapshotError(f"kernel is not snapshot-serializable: {error}") from error

    initial_index = kernel.index_of(0, kernel.nfa.initial)
    finals_idx = [kernel.final_indices(t) for t in range(kernel.n + 1)]

    # A block shared by equal layer pairs is packed once: its candidate
    # is the first block with the same twins, confirmed by identity.
    arrays = (kernel._edge_start, kernel._edge_symbol, kernel._edge_dst)
    firsts: dict[tuple[int, int], int] = {}
    packed: list[tuple[bytes, ...]] = []
    edges = []
    for t in range(kernel.n):
        first = firsts.setdefault((kernel._twin[t], kernel._twin[t + 1]), t)
        if first != t and all(part[first] is part[t] for part in arrays):
            packed.append(packed[first])
            edges.append(edges[first])
        else:
            block = tuple(array("q", part[t]).tobytes() for part in arrays)
            packed.append(block)
            start, symbol, dst = (len(row) // _ITEMSIZE for row in block)
            edges.append({"start": start, "symbol": symbol, "dst": dst})
        sections.extend(packed[t])

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

    header.update(
        initial_index=initial_index,
        finals_idx=finals_idx,
        edges=edges,
        forward=forward,
        backward=backward,
        lowering=kernel.lowering.as_dict() if kernel.lowering else None,
    )
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    # Align the payload start; every section is a whole number of
    # int64s, so this one pad aligns them all.  The reader derives the
    # pad width from the header length — it is not stored.
    pad = (-(len(MAGIC) + 4 + len(header_bytes))) % _ALIGN
    prefix = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, b"\x00" * pad]
    return b"".join(prefix + sections)


def _check_layers(
    n: int,
    states: list[tuple[Any, ...]],
    index: list[dict[Any, int]],
    edge_start: list[Any],
    tables: tuple[list[CountRow] | None, ...],
) -> None:
    """Raise :class:`SnapshotError` unless every per-layer structure has
    its layer's size: one index entry per state (no state twice), one
    edge offset per state plus one, one count per state."""
    sizes = [len(layer) for layer in states]
    if len(sizes) != n + 1 or len(edge_start) != n:
        raise SnapshotError("snapshot layer structure does not match n")
    if list(map(len, index)) != sizes or [len(row) - 1 for row in edge_start] != sizes[:n]:
        raise SnapshotError("snapshot layers do not match their edge blocks")
    for table in tables:
        if table is not None and list(map(len, table)) != sizes:
            raise SnapshotError("snapshot count rows do not match their layers")


def kernel_from_bytes(
    data: bytes | bytearray | memoryview | mmap.mmap, *, borrow: bool = False
) -> CompiledDAG:
    """Restore a :class:`~repro.core.kernel.CompiledDAG` from snapshot
    bytes (inverse of :func:`kernel_to_bytes`).

    With ``borrow=True`` the restored kernel *borrows* its CSR edge
    blocks and packed count rows as int64 memoryviews over ``data``
    instead of copying them out — the caller keeps ``data`` (typically
    an mmap) alive; the kernel records it in ``_borrow_owner``.
    Borrowing needs an LP64 platform; elsewhere this silently falls
    back to the copying restore (``_borrow_owner`` stays None).  A
    snapshot of another version than :data:`SNAPSHOT_VERSION` is a
    :class:`SnapshotError`.

    The format does not record which layers the kernel shared; a
    restore finds them again.  Layers with the same label-id
    row get one state tuple and one index map, decoded once.  In a
    copying restore, a CSR block whose layer pair repeats an earlier
    one takes that block's arrays if its bytes are the same, so no
    payload is hashed.
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
    version = header.get("version") if isinstance(header, dict) else None
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    borrow = borrow and _LP64
    borrowed_any = False

    try:
        n = header["n"]
        symbols = _decode_atoms(header["symbols"])
        offset = header_start + header_len
        offset += (-offset) % _ALIGN
        labels = _decode_atoms(header["labels"])
        # twin[t]: the first layer with layer t's label-id row, whose
        # state tuple and index map layer t shares.
        twin: list[int] = []
        states: list[tuple[Any, ...]] = []
        firsts: dict[bytes, int] = {}
        for t, size in enumerate(header["layers"]):
            end = offset + size * _ITEMSIZE
            if end > len(view):
                raise SnapshotError("truncated snapshot payload")
            ids = view[offset:end]
            offset = end
            first = firsts.setdefault(ids.tobytes(), t)
            twin.append(first)
            if first != t:
                states.append(states[first])
                continue
            # Unsigned: an id past the table, whatever its sign bit,
            # raises IndexError (a corrupt body).
            states.append(tuple(map(labels.__getitem__, ids.cast("Q"))))

        def long_row(payload: memoryview) -> array[int]:
            # Snapshots store 'q' (8-byte) rows; on LP64 platforms 'l'
            # has the same layout, so the bytes load directly.
            row = array("l" if _LP64 else "q")
            row.frombytes(payload)
            return row if _LP64 else array("l", row)

        edge_start: list[array[int] | memoryview[int]] = []
        edge_symbol: list[array[int] | memoryview[int]] = []
        edge_dst: list[array[int] | memoryview[int]] = []
        arrays = (edge_start, edge_symbol, edge_dst)
        # In a copying restore, a block whose layer pair repeats an
        # earlier block's takes that block's arrays if the bytes are
        # equal.  A borrowing restore keeps one view per row.
        blocks: dict[tuple[int, int], int] = {}
        for t, entry in enumerate(header["edges"]):
            start_end = offset + entry["start"] * _ITEMSIZE
            symbol_end = start_end + entry["symbol"] * _ITEMSIZE
            end = symbol_end + entry["dst"] * _ITEMSIZE
            if not offset <= start_end <= symbol_end <= end <= len(view):
                raise SnapshotError("truncated snapshot payload")
            spans = ((offset, start_end), (start_end, symbol_end), (symbol_end, end))
            if borrow:
                for part, (a, b) in zip(arrays, spans):
                    part.append(view[a:b].cast("q"))
                borrowed_any = True
            else:
                first = blocks.setdefault((twin[t], twin[t + 1]), t)
                if first != t and view[offset:end].tobytes() == b"".join(
                    part[first].tobytes() for part in arrays
                ):
                    for part in arrays:
                        part.append(part[first])
                else:
                    for part, (a, b) in zip(arrays, spans):
                        part.append(long_row(view[a:b]))
            offset = end

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
        index: list[dict[Any, int]] = []
        for t, layer in enumerate(states):
            index.append(index[twin[t]] if twin[t] != t else _index_map(layer))
        _check_layers(n, states, index, edge_start, (forward, backward))
        # A layer sharing its twin's states and final indices adds no
        # final states of its own.
        finals_rows = header["finals_idx"]
        finals_idx: dict[int, tuple[int, ...]] = {}
        finals: set[Any] = set()
        for t, row in enumerate(finals_rows):
            if twin[t] != t and row == finals_rows[twin[t]]:
                finals_idx[t] = finals_idx[twin[t]]
            else:
                finals_idx[t] = tuple(row)
                finals.update(map(states[t].__getitem__, row))
        initial_index = header["initial_index"]
        initial = states[0][initial_index] if initial_index is not None else None
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as error:
        raise SnapshotError(f"corrupt snapshot body: {error}") from error

    source = _SnapshotSource(initial, frozenset(finals), frozenset(symbols))

    kernel = CompiledDAG.__new__(CompiledDAG)
    kernel.nfa = source
    kernel.n = n
    kernel.trimmed = header["trimmed"]
    kernel.symbols = symbols
    kernel._symbol_index = {s: i for i, s in enumerate(symbols)}
    kernel._states = states
    kernel._index = index
    kernel._twin = twin
    kernel._edge_start = edge_start
    kernel._edge_symbol = edge_symbol
    kernel._edge_dst = edge_dst
    kernel._redge = {}
    kernel._forward = forward
    kernel._backward = backward
    kernel._layer_sets = {}
    kernel._finals_idx = finals_idx
    lowering = header.get("lowering")
    kernel.lowering = LoweringStats(**lowering) if lowering else None
    kernel._backend = None  # settled by the owner or on first use
    kernel._backend_settled = False
    kernel._accel_state = {}
    kernel._borrow_owner = data if borrowed_any else None
    return kernel


def kernel_from_mmap(
    path: str | os.PathLike[str], *, borrow: bool = True
) -> CompiledDAG:
    """Restore a kernel over a read-only memory map of the snapshot file.

    The kernel's CSR arrays and packed count rows become int64 views
    straight into the mapping, so a warm start pages data lazily on
    first touch instead of copying the whole payload up front.  The
    mapping stays open for the kernel's lifetime (it is the kernel's
    ``_borrow_owner``); on Linux the file may be unlinked (store
    eviction) while the kernel keeps using it.  ``borrow=False`` or a
    non-LP64 platform restore by copy, and the mapping is closed at
    once: the copy is then read from the page cache without a copy of
    the whole file first.
    """
    try:
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError as error:
        # Zero-length file (classic truncation corruption).
        raise SnapshotError(f"cannot map snapshot: {error}") from error
    try:
        kernel = kernel_from_bytes(mapped, borrow=borrow)
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
