"""The result plane: one typed frame per worker result, one digest over the
header text that travels.

Covers the message layout of ``repro/driver/integrity.py`` end to end —
``encode_table`` → ``post_result`` → queue (or spill object) →
``open_message`` / ``fetch_spilled_result`` → ``decode_table`` — its
integrity guarantees, what each side spends (one ``dumps``, one ``loads``,
one crc pass per result byte), and that query answers are the parent
commit's in every execution mode.
"""

from __future__ import annotations

import base64
import json
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.driver.integrity as plane
from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import FaultPlan
from repro.config import IntegrityConfig
from repro.driver.integrity import (
    RESULT_BUCKET,
    IntegrityStats,
    fetch_spilled_result,
    open_message,
    post_result,
)
from repro.engine.payload import decode_table, encode_table
from repro.errors import CorruptFileError, IntegrityError
from repro.exchange import codec
from repro.workload import queries as q

from tests.test_exchange_wire_format import PARENT_DIGESTS as JOIN_DIGESTS
from tests.test_exchange_wire_format import _table_digest, assert_bit_identical
from tests.test_join_wave_fusion import _session, _stack
from tests.test_mode_parity import leaked_segments

QUEUE = "results"
SPILL_KEY = "q/worker-3.a0"
HEADER = {"query_id": "q", "worker_id": 3, "attempt": 0, "status": "ok"}


@pytest.fixture(scope="module")
def env():
    env = CloudEnvironment.create()
    env.sqs.create_queue(QUEUE)
    return env


def _post(env, table, spill=False, generate=True, header=HEADER) -> str:
    """Post ``table`` as a worker would; returns the text on the queue."""
    with pytest.MonkeyPatch.context() as patch:
        if spill:
            patch.setattr(plane, "RESULT_SPILL_BYTES", 0)
        post_result(
            env, QUEUE, IntegrityConfig(generate=generate), header,
            encode_table(table, checksum=generate), SPILL_KEY,
        )
    (message,) = env.sqs.receive_messages(QUEUE)
    return message.body


def _fuzz_table():
    rng = np.random.default_rng(91)
    n = 256
    return {
        "k": rng.integers(-(2 ** 40), 2 ** 40, n, dtype=np.int64),
        "v": rng.random(n),
        "n": rng.integers(0, 100, n).astype(np.int32),
    }


def _small_table():
    return {"k": np.arange(6, dtype=np.int64) * 3, "v": np.arange(6) / 7}


# -- round trips --------------------------------------------------------------------------

NUMERIC_DTYPES = [
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
    np.bool_, np.float32, np.float64,
]
SPECIAL_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.1, 1e30, -2.5])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 40), 2 ** 40), st.text(max_size=5),
    st.lists(st.integers(0, 9), max_size=3),
)


@st.composite
def columns(draw, rows: int):
    kind = draw(st.sampled_from(["numeric", "special", "text", "object"]))
    if kind == "numeric":
        dtype = np.dtype(draw(st.sampled_from(NUMERIC_DTYPES)))
        elements = {"allow_nan": True, "allow_infinity": True} if dtype.kind == "f" else {}
        return draw(hnp.arrays(dtype, rows, elements=hnp.from_dtype(dtype, **elements)))
    if kind == "special":
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        return np.array(draw(st.lists(SPECIAL_FLOATS, min_size=rows, max_size=rows)), dtype=dtype)
    if kind == "text":
        width = draw(st.integers(1, 6))
        values = draw(st.lists(st.text(max_size=width), min_size=rows, max_size=rows))
        return np.array(values, dtype=f"<U{width}")
    column = np.empty(rows, dtype=object)
    for index, value in enumerate(draw(st.lists(JSON_VALUES, min_size=rows, max_size=rows))):
        column[index] = value
    return column


@st.composite
def tables(draw):
    rows = draw(st.sampled_from([0, 1, 5, 40]))
    names = draw(st.lists(st.text("abcxyz_é", min_size=1, max_size=4), max_size=4, unique=True))
    return {name: draw(columns(rows)) for name in names}


@settings(max_examples=120, deadline=None)
@given(table=tables(), spill=st.booleans(), generate=st.booleans())
def test_round_trip_is_bit_identical_inline_and_spilled(env, table, spill, generate):
    """Values *and* dtypes, through everything a result passes on its way."""
    body = _post(env, table, spill=spill, generate=generate)
    stats = IntegrityStats()
    message = open_message(body, True, stats)
    assert {name: message[name] for name in HEADER} == HEADER
    assert ("\n" in body) != spill and ("result_s3" in message) == spill
    assert body.startswith("{") != generate
    frame = fetch_spilled_result(env.s3, message, True, stats) if spill else message["frame"]
    assert isinstance(frame, bytes) and stats.clean
    assert frame[0] == (codec.CHECKED_PARTITION_TAG if generate else codec.UNCHECKED_PARTITION_TAG)
    assert_bit_identical(table, decode_table(frame, verify=False))


def test_copy_false_leaves_raw_columns_as_read_only_views_of_the_frame():
    table = {"v": np.random.default_rng(2).random(64), "k": np.arange(64, dtype=np.int64)}
    frame = encode_table(table)
    views = decode_table(frame, copy=False)
    assert not views["v"].flags.writeable
    assert np.shares_memory(views["v"], np.frombuffer(frame, dtype=np.uint8))
    copies = decode_table(frame)
    assert all(column.flags.writeable for column in copies.values())
    assert not np.shares_memory(copies["v"], np.frombuffer(frame, dtype=np.uint8))
    assert_bit_identical(table, copies)


def test_message_layout(env):
    """``[digest] header [LF base64(frame)]``, the header naming the frame."""
    frame = encode_table(_small_table())
    body = _post(env, _small_table())
    text, _, tail = body.partition("\n")
    assert text[:8] == f"{zlib.crc32(text[8:].encode()):08x}"
    assert base64.b64decode(tail) == frame
    header = json.loads(text[8:])
    embedded = int.from_bytes(frame[1:5], "little")
    assert header == {
        **HEADER, "frame": [len(frame), embedded], "result_s3": f"s3://{RESULT_BUCKET}/{SPILL_KEY}",
    }
    # A message without a table is the signed header alone.
    post_result(env, QUEUE, IntegrityConfig(), {**HEADER, "status": "error", "error": "boom"})
    (message,) = env.sqs.receive_messages(QUEUE)
    assert "\n" not in message.body
    assert open_message(message.body) == {**HEADER, "status": "error", "error": "boom"}


def test_spill_rule_is_the_size_of_the_message_that_would_go_on_the_queue(env, monkeypatch):
    table = _fuzz_table()
    inline = _post(env, table)
    assert "\n" in inline
    puts = env.ledger.total("s3", "put_requests")
    monkeypatch.setattr(plane, "RESULT_SPILL_BYTES", len(inline))
    assert _post(env, table) == inline  # fits exactly: stays on the queue
    assert env.ledger.total("s3", "put_requests") == puts
    monkeypatch.setattr(plane, "RESULT_SPILL_BYTES", len(inline) - 1)
    pointer = _post(env, table)
    assert pointer == inline.partition("\n")[0]  # the same header, frame spilled
    assert env.ledger.total("s3", "put_requests") == puts + 1
    assert env.s3.get_object(RESULT_BUCKET, SPILL_KEY).data == encode_table(table)


# -- corruption on the queue --------------------------------------------------------------

PRINTABLE = [chr(code) for code in range(33, 127)]


def _assert_dropped(corrupted: str, count: int = 1):
    stats = IntegrityStats()
    assert open_message(corrupted, True, stats) is None
    assert set(stats.mismatches) <= {"sqs.parse", "sqs.digest"}
    assert sum(stats.mismatches.values()) == stats.re_executions == count


@pytest.mark.parametrize("spill", [False, True])
def test_every_single_character_rewrite_of_a_sealed_message_is_caught(env, spill):
    """Exhaustively: every position of a small message, every replacement
    ``FaultPlan.corrupt_text`` can draw — never a message, never rows."""
    body = _post(env, _small_table(), spill=spill)
    assert open_message(body) is not None
    for position, original in enumerate(body):
        for replacement in PRINTABLE:
            if replacement != original:
                _assert_dropped(body[:position] + replacement + body[position + 1:])


def test_corrupt_text_rewrites_of_a_large_message_are_caught(env):
    body = _post(env, _fuzz_table())
    plan = FaultPlan([], seed=5)
    sites = set()
    for _ in range(3000):
        stats = IntegrityStats()
        assert open_message(plan.corrupt_text(body), True, stats) is None
        sites |= set(stats.mismatches)
    assert sites == {"sqs.parse", "sqs.digest"}


def test_signed_message_flips_always_detected(env):
    """Byte flips of the serialised message never yield a different table.

    The defence is layered the way the consumer is: the header digest, the
    JSON parse, strict base64, then the frame's announced length and crc and
    its one hash pass.  A flip may be caught at any layer; it must be caught
    somewhere.
    """
    table = _fuzz_table()
    data = _post(env, table).encode("utf-8")
    raised = 0
    for position in range(0, len(data), max(1, len(data) // 2048)):
        for mask in (0x01, 0xFF):
            corrupted = bytearray(data)
            corrupted[position] ^= mask
            try:
                message = open_message(bytes(corrupted).decode("utf-8"))
                result = decode_table(message["frame"])
            except Exception:  # noqa: BLE001 - any raise is a detection
                raised += 1
                continue
            assert_bit_identical(table, result)
    assert raised > 0


def test_unsigned_message_and_unchecked_frame_pass_a_verifying_receiver(env):
    table = _small_table()
    body = _post(env, table, generate=False)
    assert body.startswith("{")
    stats = IntegrityStats()
    message = open_message(body, True, stats)
    assert stats.clean and message["frame"][0] == codec.UNCHECKED_PARTITION_TAG
    assert_bit_identical(table, decode_table(message["frame"]))
    # So does any plain JSON object a test or an older sender puts on the queue.
    assert open_message('{"worker_id": 1, "status": "ok"}') == {"worker_id": 1, "status": "ok"}
    for junk in ("", "[]", "12345678[]", "{", "0000000"):
        _assert_dropped(junk)
    # A non-verifying receiver reads a message whose digest is wrong.
    signed = _post(env, table)
    wrong = "0" * 8 + signed[8:] if signed[:8] != "0" * 8 else "1" * 8 + signed[8:]
    _assert_dropped(wrong)
    assert_bit_identical(table, decode_table(open_message(wrong, verify=False)["frame"]))


def test_payload_digest_covers_structure(env):
    """A renamed column, a swapped dtype, a changed row count: intact buffers
    under a tampered head are caught — by the frame's crc when the head was
    edited in place, by the header's crc when the whole frame was replaced
    with a self-consistent one."""
    table = _fuzz_table()
    frame = encode_table(table)
    rows_at = frame.index((256).to_bytes(4, "little"), 5)
    tampered = {
        "renamed": frame.replace(b"\x01\x00k\x03<i8", b"\x01\x00K\x03<i8", 1),
        "retyped": frame.replace(b"\x01\x00k\x03<i8", b"\x01\x00k\x03<u8", 1),
        "rerowed": frame[:rows_at] + (257).to_bytes(4, "little") + frame[rows_at + 4:],
    }
    for label, edited in tampered.items():
        assert edited != frame and len(edited) == len(frame), label
        with pytest.raises(IntegrityError) as caught:
            decode_table(edited, key="fuzz")
        assert caught.value.layer == "codec.crc", label
    text = _post(env, table).partition("\n")[0]
    replaced = {
        "renamed": {("K" if name == "k" else name): column for name, column in table.items()},
        "retyped": {**table, "k": table["k"].view(np.uint64)},
        "rerowed": {name: column[:-1] for name, column in table.items()},
    }
    for label, other in replaced.items():
        swapped = f"{text}\n{base64.b64encode(encode_table(other)).decode('ascii')}"
        stats = IntegrityStats()
        assert open_message(swapped, True, stats) is None, label
        assert stats.mismatches == {"sqs.digest": 1}, label


# -- corruption of a spilled frame --------------------------------------------------------


class _Served:
    """An object store that serves the given bodies in turn."""

    def __init__(self, *bodies: bytes):
        self.bodies = list(bodies)

    def get_object(self, bucket, key):
        return SimpleNamespace(data=self.bodies.pop(0))


def _assert_caught_and_cured(pointer, frame: bytes, corrupted: bytes):
    path = pointer["result_s3"]
    stats = IntegrityStats()
    with pytest.raises(CorruptFileError) as caught:
        fetch_spilled_result(_Served(corrupted, corrupted), pointer, True, stats)
    assert caught.value.key == path
    assert caught.value.layer in {"slice.length", "slice.crc", "codec.crc", "codec.prefix"}
    assert stats.mismatches == {"spill.digest": 2} and stats.re_reads == 0
    # In-flight corruption: the one re-read serves the object as it is stored.
    stats = IntegrityStats()
    assert fetch_spilled_result(_Served(corrupted, frame), pointer, True, stats) == frame
    assert (stats.mismatches, stats.re_reads) == ({"spill.digest": 1}, 1)
    assert stats.verified_bytes == len(frame)
    return caught.value.layer


def test_every_bit_flip_and_truncation_of_a_spilled_frame_is_caught_and_cured(env):
    frame = encode_table(_small_table())
    pointer = open_message(_post(env, _small_table(), spill=True))
    assert pointer["frame"][0] == len(frame)
    layers = set()
    for position in range(len(frame)):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[position] ^= 1 << bit
            layers.add(_assert_caught_and_cured(pointer, frame, bytes(flipped)))
    assert layers == {"codec.prefix", "slice.crc", "codec.crc"}
    for cut in range(len(frame)):
        assert _assert_caught_and_cured(pointer, frame, frame[:cut]) == "slice.length"
    # An unverifying reader takes what it is served.
    assert fetch_spilled_result(_Served(frame[:9]), pointer, False) == frame[:9]


def test_stale_or_swapped_spill_object_is_caught_by_the_pointer_crc(env):
    """A self-consistent frame that is not the one the message announced."""
    table = _small_table()
    frame = encode_table(table)
    other = encode_table({**table, "v": table["v"][::-1].copy()})
    assert len(other) == len(frame) and decode_table(other)  # intact on its own
    pointer = open_message(_post(env, table, spill=True))
    assert _assert_caught_and_cured(pointer, frame, other) == "slice.crc"


# -- what each side spends ----------------------------------------------------------------


class _Spy:
    """Counts calls of ``module.name`` and the bytes/characters they were given."""

    def __init__(self, monkeypatch, module, name):
        self.sizes = []
        real = getattr(module, name)

        def counting(data, *args, **kwargs):
            buffer = not isinstance(data, (str, dict))
            self.sizes.append(memoryview(data).nbytes if buffer else len(data))
            return real(data, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("spill", [False, True])
def test_one_dumps_one_loads_and_no_text_codec_over_spilled_result_bytes(env, monkeypatch, spill):
    table = _fuzz_table()
    frame_bytes = len(encode_table(table))
    monkeypatch.setattr(plane, "RESULT_SPILL_BYTES", 0 if spill else plane.RESULT_SPILL_BYTES)
    dumps, loads = _Spy(monkeypatch, json, "dumps"), _Spy(monkeypatch, json, "loads")
    encodes = _Spy(monkeypatch, base64, "b64encode")
    decodes = _Spy(monkeypatch, base64, "b64decode")
    post_result(env, QUEUE, IntegrityConfig(), HEADER, encode_table(table), SPILL_KEY)
    # The sender: one dumps, of the header (a dict of a handful of fields).
    assert dumps.sizes == [len(HEADER) + 2] and not loads.sizes
    assert encodes.sizes == ([] if spill else [frame_bytes])
    (delivered,) = env.sqs.receive_messages(QUEUE)
    message = open_message(delivered.body)
    frame = fetch_spilled_result(env.s3, message, True) if spill else message["frame"]
    # The receiver: one loads, of the header text — never of result bytes.
    assert len(dumps.sizes) == 1 and len(loads.sizes) == 1 and loads.sizes[0] < 300
    if spill:
        assert not encodes.sizes and not decodes.sizes
    else:
        # Inline: the frame's base64, and the canonical check of its last quantum.
        assert decodes.sizes == [4 * ((frame_bytes + 2) // 3)]
        assert encodes.sizes[1:] in ([], [frame_bytes % 3])
    assert_bit_identical(table, decode_table(frame, copy=False, verify=False))


@pytest.mark.parametrize("spill", [False, True])
def test_one_crc_pass_per_result_byte_per_side(env, monkeypatch, spill):
    table = _fuzz_table()
    monkeypatch.setattr(plane, "RESULT_SPILL_BYTES", 0 if spill else plane.RESULT_SPILL_BYTES)
    hashed = _Spy(monkeypatch, zlib, "crc32")
    frame = encode_table(table)
    post_result(env, QUEUE, IntegrityConfig(), HEADER, frame, SPILL_KEY)
    (delivered,) = env.sqs.receive_messages(QUEUE)
    header_bytes = len(delivered.body.partition("\n")[0]) - 8
    # Sender: the frame's bytes after its prefix, once, and the header text.
    assert sum(hashed.sizes) == (len(frame) - 5) + header_bytes
    hashed.sizes.clear()
    message = open_message(delivered.body)
    received = fetch_spilled_result(env.s3, message, True) if spill else message["frame"]
    # The merge decodes what the collector verified: no second pass.
    decode_table(received, copy=False, verify=False)
    assert sum(hashed.sizes) == (len(frame) - 5) + header_bytes


# -- answers are the parent commit's ------------------------------------------------------

#: sha256 prefixes of the result tables (column names, dtypes and bytes) at
#: SF 0.002 / seed 7, recorded at the parent commit (6cde867: ``{name: list}``
#: and base64-in-JSON payloads), identical there in all three modes.  The
#: join queries' digests are the ones ``test_exchange_wire_format.py`` pins
#: (unchanged since PR 15); that file and ``test_zero_join_dag.py`` also hold
#: both ``groupby_shuffle`` queries to their parent digests.
PARENT_DIGESTS = {**JOIN_DIGESTS, "q1": "1c03cd00163c3c8a", "q6": "1a8ce50b7853b21f"}
QUERIES = {"q1": q.q1_sql, "q6": q.q6_sql, "q3": q.q3_sql, "q5": q.q5_sql, "q18": q.q18_sql}


@pytest.fixture(scope="module")
def stack():
    return _stack()


@pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
def test_queries_return_the_parents_tables_in_every_mode(stack, mode):
    kwargs = {"execution_mode": mode}
    if mode == "processes":
        kwargs["max_parallel_invocations"] = 2
    session = _session(*stack, **kwargs)
    try:
        for name, sql in QUERIES.items():
            result = session.sql(sql())
            assert _table_digest(result.table) == PARENT_DIGESTS[name], f"{name}/{mode}"
            assert all(
                worker.partial is None or isinstance(worker.partial, bytes)
                for worker in result.worker_results
            )
    finally:
        session.close()
    assert leaked_segments() == []


def test_pooled_partials_are_the_serial_frames_and_the_parent_encodes_nothing(stack, monkeypatch):
    """The process pool's results are detached by copying the frame out of
    its segment: the exposed partials are the bytes a serial worker ships,
    and the driver process never runs an encoder for them."""
    serial = _session(*stack)
    pooled = _session(*stack, execution_mode="processes", max_parallel_invocations=2)
    try:
        expected = serial.sql(q.q1_sql())

        def refuse(*args, **kwargs):
            raise AssertionError("the driver process encoded a result table")

        monkeypatch.setattr(codec, "encode_frame", refuse)
        result = pooled.sql(q.q1_sql())
    finally:
        serial.close()
        pooled.close()
    assert [worker.partial for worker in result.worker_results] == [
        worker.partial for worker in expected.worker_results
    ]
    assert_bit_identical(expected.table, result.table)
    assert leaked_segments() == []
