"""Binary trace serialisation.

Functional execution of the bigger kernels takes longer than replaying
them; saving the dynamic uop trace lets experiment sweeps (and other
tools) reuse one functional run, the way trace-driven simulators ship
trace files.

Version 2 is *columnar*: fixed-width per-uop fields are stored as whole
arrays rather than interleaved records, so a decoder can lift each
column in one bulk operation (``struct.unpack`` of the whole array, or
``numpy.frombuffer`` when the numpy engine variant is active — see
:mod:`repro.engine_select`) instead of walking a byte offset through
millions of heterogeneous records.  Layout, little-endian throughout::

    header:   magic 'CDFT', version u16, uop count u64,
              srcs total u64, mem count u64, deps total u64,
              load count u64
    columns:  pc u32[n], op u8[n], flags u8[n], dst u8[n] (0xFF=none),
              n_srcs u8[n], next_pc u32[n], n_deps u8[n]
    blobs:    srcs u8[srcs_total]        (concatenated, row order)
              mem_addr u64[mem_count]    (rows with MEM flag, row order)
              deps u64[deps_total]       (concatenated, row order)
              store_dep i64[load_count]  (rows with LOAD flag, row order)

Version 1 (interleaved records) is still decoded for old trace files;
new traces are always written as version 2.  ``exec_lat`` and
``exec_class`` are recomputed from the opcode on load, so traces stay
valid if latency tables are retuned.

Decoding pauses Python's cyclic garbage collector: each decoded uop is
a GC-tracked object, so building a FULL-scale trace otherwise triggers
repeated collections that rescan the growing list.  The uops hold only
ints, bools and tuples of ints, so they form no cycles to collect.
"""

from __future__ import annotations

import gc
import struct
from typing import List

from ..engine_select import get_numpy, use_numpy
from .dynuop import DynUop
from .opcodes import EXEC_CLASS, EXEC_LATENCY, Opcode

MAGIC = b"CDFT"
VERSION = 2

_FLAG_LOAD = 1
_FLAG_STORE = 2
_FLAG_BRANCH = 4
_FLAG_COND = 8
_FLAG_TAKEN = 16
_FLAG_MEM = 32

#: Int-keyed copies of the latency/class tables. ``loads_trace`` runs
#: once per uop; indexing these avoids an ``Opcode(op)`` enum
#: construction per uop (unknown opcodes raise KeyError, which the
#: deserializer's error handler turns into a TraceFormatError).
_EXEC_LAT_BY_OP = {int(op): EXEC_LATENCY[op] for op in Opcode}
_EXEC_CLASS_BY_OP = {int(op): EXEC_CLASS[op] for op in Opcode}

#: Precompiled struct readers for the v1 per-uop records.
_S_HEAD = struct.Struct("<IBBBB")
_S_U64 = struct.Struct("<Q")
_S_NEXT = struct.Struct("<IB")
_S_I64 = struct.Struct("<q")
_S_DEPS = tuple(struct.Struct(f"<{n}Q") for n in range(1, 9))

_V2_HEADER = struct.Struct("<HQQQQQ")  # version + the five counts

#: flags byte -> (is_load, is_store, is_branch, is_cond_branch, taken,
#: has_mem); decoding runs once per uop, so the six bit tests are paid
#: once per distinct flag byte here instead of once per uop.
_FLAG_DECODE = tuple(
    (bool(f & _FLAG_LOAD), bool(f & _FLAG_STORE), bool(f & _FLAG_BRANCH),
     bool(f & _FLAG_COND), bool(f & _FLAG_TAKEN), bool(f & _FLAG_MEM))
    for f in range(64))


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or version-incompatible."""


def dumps_trace(trace: List[DynUop]) -> bytes:
    """Serialize *trace* to the binary trace format (in memory).

    ``save_trace`` is ``dumps_trace`` plus a file write; the harness's
    persistent trace store uses the byte form directly so it can write
    entries atomically (temp file + ``os.replace``).
    """
    n = len(trace)
    pcs: List[int] = []
    ops: List[int] = []
    flags_col: List[int] = []
    dsts: List[int] = []
    n_srcs: List[int] = []
    next_pcs: List[int] = []
    n_deps: List[int] = []
    srcs_blob = bytearray()
    mem_addrs: List[int] = []
    deps_blob: List[int] = []
    store_deps: List[int] = []
    for uop in trace:
        flags = ((_FLAG_LOAD if uop.is_load else 0)
                 | (_FLAG_STORE if uop.is_store else 0)
                 | (_FLAG_BRANCH if uop.is_branch else 0)
                 | (_FLAG_COND if uop.is_cond_branch else 0)
                 | (_FLAG_TAKEN if uop.taken else 0)
                 | (_FLAG_MEM if uop.mem_addr is not None else 0))
        pcs.append(uop.pc)
        ops.append(uop.op)
        flags_col.append(flags)
        dsts.append(0xFF if uop.dst is None else uop.dst)
        n_srcs.append(len(uop.srcs))
        next_pcs.append(uop.next_pc)
        n_deps.append(len(uop.src_deps))
        srcs_blob += bytes(uop.srcs)
        if uop.mem_addr is not None:
            mem_addrs.append(uop.mem_addr)
        deps_blob.extend(uop.src_deps)
        if uop.is_load:
            store_deps.append(uop.store_dep)
    out = bytearray()
    out += MAGIC
    out += _V2_HEADER.pack(VERSION, n, len(srcs_blob), len(mem_addrs),
                           len(deps_blob), len(store_deps))
    out += struct.pack(f"<{n}I", *pcs)
    out += bytes(ops)
    out += bytes(flags_col)
    out += bytes(dsts)
    out += bytes(n_srcs)
    out += struct.pack(f"<{n}I", *next_pcs)
    out += bytes(n_deps)
    out += bytes(srcs_blob)
    out += struct.pack(f"<{len(mem_addrs)}Q", *mem_addrs)
    out += struct.pack(f"<{len(deps_blob)}Q", *deps_blob)
    out += struct.pack(f"<{len(store_deps)}q", *store_deps)
    return bytes(out)


def save_trace(trace: List[DynUop], path: str) -> None:
    """Write *trace* to *path* in the binary trace format."""
    with open(path, "wb") as handle:
        handle.write(dumps_trace(trace))


def _v2_columns_python(data: bytes, offset: int, n: int, n_srcs_total: int,
                       n_mem: int, n_deps_total: int, n_loads: int):
    """Lift the v2 columns with bulk ``struct.unpack_from`` calls."""
    pcs = struct.unpack_from(f"<{n}I", data, offset)
    offset += 4 * n
    ops = data[offset:offset + n]
    offset += n
    flags = data[offset:offset + n]
    offset += n
    dsts = data[offset:offset + n]
    offset += n
    n_srcs = data[offset:offset + n]
    offset += n
    next_pcs = struct.unpack_from(f"<{n}I", data, offset)
    offset += 4 * n
    n_deps = data[offset:offset + n]
    offset += n
    srcs_blob = data[offset:offset + n_srcs_total]
    offset += n_srcs_total
    mem_addrs = struct.unpack_from(f"<{n_mem}Q", data, offset)
    offset += 8 * n_mem
    deps_blob = struct.unpack_from(f"<{n_deps_total}Q", data, offset)
    offset += 8 * n_deps_total
    store_deps = struct.unpack_from(f"<{n_loads}q", data, offset)
    offset += 8 * n_loads
    return (pcs, ops, flags, dsts, n_srcs, next_pcs, n_deps, srcs_blob,
            mem_addrs, deps_blob, store_deps, offset)


def _v2_columns_numpy(data: bytes, offset: int, n: int, n_srcs_total: int,
                      n_mem: int, n_deps_total: int, n_loads: int):
    """Lift the v2 columns via ``numpy.frombuffer`` + one ``tolist``.

    Bit-identical to :func:`_v2_columns_python`: both produce the same
    sequences of Python ints/bytes; only the bulk-conversion machinery
    differs (pinned by tests/isa/test_traceio.py and the suite
    fingerprints under both ``REPRO_ENGINE`` variants).
    """
    np = get_numpy()
    pcs = np.frombuffer(data, "<u4", n, offset).tolist()
    offset += 4 * n
    ops = data[offset:offset + n]
    offset += n
    flags = data[offset:offset + n]
    offset += n
    dsts = data[offset:offset + n]
    offset += n
    n_srcs = data[offset:offset + n]
    offset += n
    next_pcs = np.frombuffer(data, "<u4", n, offset).tolist()
    offset += 4 * n
    n_deps = data[offset:offset + n]
    offset += n
    srcs_blob = data[offset:offset + n_srcs_total]
    offset += n_srcs_total
    mem_addrs = np.frombuffer(data, "<u8", n_mem, offset).tolist()
    offset += 8 * n_mem
    deps_blob = np.frombuffer(data, "<u8", n_deps_total, offset).tolist()
    offset += 8 * n_deps_total
    store_deps = np.frombuffer(data, "<i8", n_loads, offset).tolist()
    offset += 8 * n_loads
    return (pcs, ops, flags, dsts, n_srcs, next_pcs, n_deps, srcs_blob,
            mem_addrs, deps_blob, store_deps, offset)


def _loads_v2(data: bytes, context: str) -> List[DynUop]:
    (_version, count, n_srcs_total, n_mem, n_deps_total,
     n_loads) = _V2_HEADER.unpack_from(data, 4)
    need = (4 + _V2_HEADER.size + 13 * count + n_srcs_total
            + 8 * (n_mem + n_deps_total + n_loads))
    if len(data) < need:
        raise TraceFormatError(
            f"{context}: truncated v2 trace ({len(data)} bytes, "
            f"header implies {need})")
    columns = _v2_columns_numpy if use_numpy() else _v2_columns_python
    (pcs, ops, flags_col, dsts, n_srcs, next_pcs, n_deps, srcs_blob,
     mem_addrs, deps_blob, store_deps, offset) = columns(
        data, 4 + _V2_HEADER.size, count, n_srcs_total, n_mem,
        n_deps_total, n_loads)
    if offset != len(data):
        raise TraceFormatError(
            f"{context}: {len(data) - offset} trailing bytes")
    trace: List[DynUop] = []
    append = trace.append
    lat_by_op = _EXEC_LAT_BY_OP
    class_by_op = _EXEC_CLASS_BY_OP
    flag_decode = _FLAG_DECODE
    dynuop = DynUop
    src_off = 0
    dep_off = 0
    mem_i = 0
    load_i = 0
    try:
        for seq in range(count):
            op = ops[seq]
            (is_load, is_store, is_branch, is_cond, taken,
             has_mem) = flag_decode[flags_col[seq]]
            k = n_srcs[seq]
            srcs = tuple(srcs_blob[src_off:src_off + k])
            src_off += k
            k = n_deps[seq]
            deps = tuple(deps_blob[dep_off:dep_off + k])
            dep_off += k
            mem_addr = None
            if has_mem:
                mem_addr = mem_addrs[mem_i]
                mem_i += 1
            store_dep = -1
            if is_load:
                store_dep = store_deps[load_i]
                load_i += 1
            dst = dsts[seq]
            append(dynuop(
                seq=seq, pc=pcs[seq], op=op,
                dst=None if dst == 0xFF else dst, srcs=srcs,
                exec_lat=lat_by_op[op],
                is_load=is_load, is_store=is_store,
                is_branch=is_branch,
                is_cond_branch=is_cond,
                mem_addr=mem_addr, taken=taken,
                next_pc=next_pcs[seq], src_deps=deps,
                store_dep=store_dep,
                exec_class=class_by_op[op]))
    except (KeyError, IndexError, struct.error) as exc:
        raise TraceFormatError(f"{context}: truncated or corrupt "
                               f"at uop {len(trace)}: {exc}") from exc
    if src_off != n_srcs_total or dep_off != n_deps_total \
            or mem_i != n_mem or load_i != n_loads:
        raise TraceFormatError(
            f"{context}: column totals disagree with per-uop counts")
    return trace


def _loads_v1(data: bytes, context: str) -> List[DynUop]:
    """Decode the version-1 interleaved-record format (old trace files)."""
    (count,) = struct.unpack_from("<Q", data, 6)
    offset = 4 + 10
    trace: List[DynUop] = []
    append = trace.append
    lat_by_op = _EXEC_LAT_BY_OP
    class_by_op = _EXEC_CLASS_BY_OP
    dynuop = DynUop
    head = _S_HEAD.unpack_from
    u64 = _S_U64.unpack_from
    nxt = _S_NEXT.unpack_from
    i64 = _S_I64.unpack_from
    dep_structs = _S_DEPS
    try:
        for seq in range(count):
            pc, op, flags, dst, n_srcs = head(data, offset)
            offset += 8
            srcs = tuple(data[offset:offset + n_srcs])
            offset += n_srcs
            mem_addr = None
            if flags & _FLAG_MEM:
                (mem_addr,) = u64(data, offset)
                offset += 8
            next_pc, n_deps = nxt(data, offset)
            offset += 5
            if n_deps:
                deps = (dep_structs[n_deps - 1].unpack_from(data, offset)
                        if n_deps <= 8 else
                        struct.unpack_from(f"<{n_deps}Q", data, offset))
                offset += 8 * n_deps
            else:
                deps = ()
            is_load = bool(flags & _FLAG_LOAD)
            store_dep = -1
            if is_load:
                (store_dep,) = i64(data, offset)
                offset += 8
            append(dynuop(
                seq=seq, pc=pc, op=op,
                dst=None if dst == 0xFF else dst, srcs=srcs,
                exec_lat=lat_by_op[op],
                is_load=is_load, is_store=bool(flags & _FLAG_STORE),
                is_branch=bool(flags & _FLAG_BRANCH),
                is_cond_branch=bool(flags & _FLAG_COND),
                mem_addr=mem_addr, taken=bool(flags & _FLAG_TAKEN),
                next_pc=next_pc, src_deps=deps,
                store_dep=store_dep,
                exec_class=class_by_op[op]))
    except (KeyError, struct.error, ValueError) as exc:
        raise TraceFormatError(f"{context}: truncated or corrupt "
                               f"at uop {len(trace)}: {exc}") from exc
    if offset != len(data):
        raise TraceFormatError(
            f"{context}: {len(data) - offset} trailing bytes")
    return trace


def loads_trace(data: bytes, context: str = "<bytes>") -> List[DynUop]:
    """Deserialize a trace from its binary byte form.

    *context* names the source in error messages (``load_trace`` passes
    the file path).
    """
    if data[:4] != MAGIC:
        raise TraceFormatError(f"{context}: not a CDFT trace file")
    (version,) = struct.unpack_from("<H", data, 4)
    if version not in (1, 2):
        raise TraceFormatError(
            f"{context}: trace version {version}, expected <= {VERSION}")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if version == 2:
            return _loads_v2(data, context)
        return _loads_v1(data, context)
    finally:
        if gc_was_enabled:
            gc.enable()


def load_trace(path: str) -> List[DynUop]:
    """Read a trace written by :func:`save_trace`."""
    with open(path, "rb") as handle:
        data = handle.read()
    return loads_trace(data, context=str(path))
