"""Unit tests for binary trace serialisation."""

import gc
import struct

import pytest

from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.engine_select import use_numpy
from repro.isa import assemble, execute
from repro.isa import traceio
from repro.isa.traceio import (TraceFormatError, dumps_trace, load_trace,
                               save_trace)


def sample_trace():
    program = assemble("""
        movi r1, 40
        movi r2, 4096
    loop:
        and  r3, r1, 7
        load r4, [r2 + r3*8]
        store r4, [r2 + r3*8 + 512]
        fadd r5, r5, r4
        call fn
        sub r1, r1, 1
        bnez r1, loop
        halt
    fn:
        add r6, r6, 1
        ret
    """)
    memory = {4096 + i * 8: i * 3 for i in range(8)}
    return program, execute(program, memory)


def test_roundtrip_preserves_every_field(tmp_path):
    _, trace = sample_trace()
    path = str(tmp_path / "t.cdft")
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    for a, b in zip(trace, loaded):
        assert a.seq == b.seq
        assert a.pc == b.pc
        assert a.op == b.op
        assert a.dst == b.dst
        assert a.srcs == b.srcs
        assert a.exec_lat == b.exec_lat
        assert a.exec_class == b.exec_class
        assert a.is_load == b.is_load
        assert a.is_store == b.is_store
        assert a.is_branch == b.is_branch
        assert a.is_cond_branch == b.is_cond_branch
        assert a.mem_addr == b.mem_addr
        assert a.taken == b.taken
        assert a.next_pc == b.next_pc
        assert a.src_deps == b.src_deps
        assert a.store_dep == b.store_dep


def test_write_read_write_is_bit_identical(tmp_path):
    """Serialisation is canonical: saving a loaded trace reproduces the
    original file byte for byte (so cached trace files are stable keys)."""
    _, trace = sample_trace()
    first = tmp_path / "a.cdft"
    second = tmp_path / "b.cdft"
    save_trace(trace, str(first))
    save_trace(load_trace(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_loaded_trace_simulates_identically(tmp_path):
    _, trace = sample_trace()
    path = str(tmp_path / "t.cdft")
    save_trace(trace, path)
    loaded = load_trace(path)
    a = BaselinePipeline(trace, SimConfig.baseline()).run()
    b = BaselinePipeline(loaded, SimConfig.baseline()).run()
    assert a.cycles == b.cycles
    assert dict(a.counters) == dict(b.counters)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.cdft"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TraceFormatError, match="not a CDFT"):
        load_trace(str(path))


def test_bad_version_rejected(tmp_path):
    _, trace = sample_trace()
    path = tmp_path / "t.cdft"
    save_trace(trace, str(path))
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="version"):
        load_trace(str(path))


def test_truncated_file_rejected(tmp_path):
    _, trace = sample_trace()
    path = tmp_path / "t.cdft"
    save_trace(trace, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(TraceFormatError):
        load_trace(str(path))


def test_trailing_bytes_rejected(tmp_path):
    _, trace = sample_trace()
    path = tmp_path / "t.cdft"
    save_trace(trace, str(path))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(TraceFormatError, match="trailing"):
        load_trace(str(path))


def test_empty_trace_roundtrip(tmp_path):
    path = str(tmp_path / "empty.cdft")
    save_trace([], path)
    assert load_trace(path) == []


def _fields(uop):
    return tuple(getattr(uop, name) for name in type(uop).__slots__)


@pytest.mark.parametrize("gc_enabled", [True, False],
                         ids=["gc-on", "gc-off"])
def test_decode_pauses_gc_and_restores_the_callers_state(monkeypatch,
                                                         gc_enabled):
    """Uops are built with the cyclic GC paused; the caller's GC state
    comes back after a valid decode and after a corrupt one."""
    _, trace = sample_trace()
    data = dumps_trace(trace)
    real_dynuop = traceio.DynUop
    gc_during_build = []
    fail_at = [None]

    def spy(**fields):
        gc_during_build.append(gc.isenabled())
        if fields["seq"] == fail_at[0]:
            raise KeyError("corrupt opcode")
        return real_dynuop(**fields)

    monkeypatch.setattr(traceio, "DynUop", spy)
    (gc.enable if gc_enabled else gc.disable)()
    try:
        loaded = traceio.loads_trace(data)
        assert gc.isenabled() is gc_enabled
        fail_at[0] = 3                    # corrupt midway through
        with pytest.raises(TraceFormatError, match="at uop 3"):
            traceio.loads_trace(data)
        assert gc.isenabled() is gc_enabled
        with pytest.raises(TraceFormatError):
            traceio.loads_trace(data[:len(data) // 2])
        assert gc.isenabled() is gc_enabled
    finally:
        gc.enable()
    assert gc_during_build and not any(gc_during_build)
    assert [_fields(uop) for uop in loaded] == \
        [_fields(uop) for uop in trace]


def test_current_format_is_v2_columnar():
    _, trace = sample_trace()
    data = dumps_trace(trace)
    version = struct.unpack_from("<H", data, 4)[0]
    assert version == traceio.VERSION == 2


@pytest.mark.skipif(not use_numpy(),
                    reason="numpy engine variant not active")
def test_v2_column_decoders_are_bit_identical():
    """The numpy and pure-python column lifters must produce the same
    Python values — the REPRO_ENGINE switch is performance-only."""
    _, trace = sample_trace()
    data = dumps_trace(trace)
    (_version, n, n_srcs_total, n_mem, n_deps_total,
     n_loads) = traceio._V2_HEADER.unpack_from(data, 4)
    args = (data, 4 + traceio._V2_HEADER.size, n, n_srcs_total,
            n_mem, n_deps_total, n_loads)
    py_cols = traceio._v2_columns_python(*args)
    np_cols = traceio._v2_columns_numpy(*args)
    assert py_cols[-1] == np_cols[-1]          # consumed offset
    for a, b in zip(py_cols[:-1], np_cols[:-1]):
        if isinstance(a, bytes):
            assert a == b
        else:
            assert list(a) == list(b)
