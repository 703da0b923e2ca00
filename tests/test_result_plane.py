"""The result plane: one typed frame per worker result, one digest over the
header text that travels.

Covers the message layout of ``repro/driver/integrity.py`` end to end —
``encode_table`` → ``post_result`` → queue (or spill object) →
``open_message`` / ``fetch_spilled_result`` → ``decode_table`` — its
integrity guarantees, what each side spends (one ``dumps``, one ``loads``,
one crc pass per result byte), and that query answers are the parent
commit's in every execution mode (conformance-matrix cells).
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
from repro.cloud.faults import FaultPlan, FaultRule
from repro.driver.integrity import (
    RESULT_BUCKET,
    fetch_spilled_result,
    open_message,
    post_result,
)
from repro.counters import Counts, LayerView
from repro.engine.payload import decode_table, encode_table
from repro.errors import CorruptFileError, IntegrityError
from repro.exchange import codec
from repro.workload import queries as q

from tests.conformance import Cell, assert_bit_identical, check, stack
from tests.conftest import leaked_segments

QUEUE = "results"
SPILL_KEY = "q/worker-3.a0"
HEADER = {"query_id": "q", "worker_id": 3, "attempt": 0, "status": "ok"}


def _integrity():
    """A fresh counter record and its integrity block."""
    counts = Counts()
    return counts, LayerView(counts, "integrity")


@pytest.fixture(scope="module")
def env():
    env = CloudEnvironment.create()
    env.sqs.create_queue(QUEUE)
    return env


def _post(env, table, spill=False, header=HEADER) -> str:
    """Post ``table`` as a worker would; returns the text on the queue."""
    with pytest.MonkeyPatch.context() as patch:
        if spill:
            patch.setattr(plane, "RESULT_SPILL_BYTES", 0)
        post_result(env, QUEUE, header, encode_table(table), SPILL_KEY)
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
@given(table=tables(), spill=st.booleans())
def test_round_trip_is_bit_identical_inline_and_spilled(env, table, spill):
    """Values *and* dtypes, through everything a result passes on its way."""
    body = _post(env, table, spill=spill)
    counts, stats = _integrity()
    message = open_message(body, counts)
    assert {name: message[name] for name in HEADER} == HEADER
    assert ("\n" in body) != spill and ("result_s3" in message) == spill
    assert not body.startswith("{")
    frame = fetch_spilled_result(env.s3, message, counts) if spill else message["frame"]
    assert isinstance(frame, bytes) and stats.clean
    assert frame[0] == codec.CHECKED_PARTITION_TAG
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
    post_result(env, QUEUE, {**HEADER, "status": "error", "error": "boom"})
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
    counts, stats = _integrity()
    assert open_message(corrupted, counts) is None
    assert set(stats.mismatches) <= {"sqs.parse", "sqs.digest"}
    assert sum(stats.mismatches.values()) == stats.re_executions == count


@pytest.mark.parametrize("spill", [False, True])
def test_every_single_character_rewrite_of_a_sealed_message_is_caught(env, spill):
    """Exhaustively: every position of a small message, every replacement
    an injected ``sqs.corrupt_payload`` can draw — never a message, never rows."""
    body = _post(env, _small_table(), spill=spill)
    assert open_message(body) is not None
    for position, original in enumerate(body):
        for replacement in PRINTABLE:
            if replacement != original:
                _assert_dropped(body[:position] + replacement + body[position + 1:])


def test_corrupt_text_rewrites_of_a_large_message_are_caught(env):
    body = _post(env, _fuzz_table())
    env.install_fault_plan(FaultPlan([FaultRule("sqs", "corrupt_payload", 1.0)], seed=5))
    sites = set()
    try:
        for _ in range(3000):
            env.sqs.send_message(QUEUE, body)
            (message,) = env.sqs.receive_messages(QUEUE)
            assert message.body != body
            counts, stats = _integrity()
            assert open_message(message.body, counts) is None
            sites |= set(stats.mismatches)
    finally:
        env.install_fault_plan(None)
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


def test_unsigned_junk_and_misdigested_messages_are_dropped(env):
    """Every message is signed, so one that is not — a plain JSON object, an
    older sender's unsigned result — is corrupt, like junk and a wrong
    digest."""
    signed = _post(env, _small_table())
    _assert_dropped(signed[8:])
    _assert_dropped('{"worker_id": 1, "status": "ok"}')
    for junk in ("", "[]", "12345678[]", "{", "0000000"):
        _assert_dropped(junk)
    wrong = "0" * 8 + signed[8:] if signed[:8] != "0" * 8 else "1" * 8 + signed[8:]
    _assert_dropped(wrong)


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
        counts, stats = _integrity()
        assert open_message(swapped, counts) is None, label
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
    counts, stats = _integrity()
    with pytest.raises(CorruptFileError) as caught:
        fetch_spilled_result(_Served(corrupted, corrupted), pointer, counts)
    assert caught.value.key == path
    assert caught.value.layer in {"slice.length", "slice.crc", "codec.crc", "codec.prefix"}
    assert stats.mismatches == {"spill.digest": 2} and stats.re_reads == 0
    # In-flight corruption: the one re-read serves the object as it is stored.
    counts, stats = _integrity()
    assert fetch_spilled_result(_Served(corrupted, frame), pointer, counts) == frame
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
    post_result(env, QUEUE, HEADER, encode_table(table), SPILL_KEY)
    # The sender: one dumps, of the header (a dict of a handful of fields).
    assert dumps.sizes == [len(HEADER) + 2] and not loads.sizes
    assert encodes.sizes == ([] if spill else [frame_bytes])
    (delivered,) = env.sqs.receive_messages(QUEUE)
    message = open_message(delivered.body)
    frame = fetch_spilled_result(env.s3, message) if spill else message["frame"]
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
    post_result(env, QUEUE, HEADER, frame, SPILL_KEY)
    (delivered,) = env.sqs.receive_messages(QUEUE)
    header_bytes = len(delivered.body.partition("\n")[0]) - 8
    # Sender: the frame's bytes after its prefix, once, and the header text.
    assert sum(hashed.sizes) == (len(frame) - 5) + header_bytes
    hashed.sizes.clear()
    message = open_message(delivered.body)
    received = fetch_spilled_result(env.s3, message) if spill else message["frame"]
    # The merge decodes what the collector verified: no second pass.
    decode_table(received, copy=False, verify=False)
    assert sum(hashed.sizes) == (len(frame) - 5) + header_bytes


# -- answers are the parent commit's ------------------------------------------------------


@pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
def test_queries_return_the_parents_tables_in_every_mode(mode):
    """Conformance-matrix cells (``tests/conformance.py``): bit-identical to
    the serial run, whose digest is the parent commit's, and every partial
    travelled as a frame."""
    for query in ("q1", "q6", "q3", "q5", "q18"):
        check(Cell(query, mode=mode, front_end="sql"))


def test_pooled_partials_are_the_serial_frames_and_the_parent_encodes_nothing(monkeypatch):
    """The process pool's results are detached by copying the frame out of
    its segment: the exposed partials are the bytes a serial worker ships,
    and the driver process never runs an encoder for them."""
    shared = stack(7)
    expected = shared.session().sql(q.q1_sql())

    def refuse(*args, **kwargs):
        raise AssertionError("the driver process encoded a result table")

    monkeypatch.setattr(codec, "encode_frame", refuse)
    result = shared.session("processes").sql(q.q1_sql())
    assert [worker.partial for worker in result.worker_results] == [
        worker.partial for worker in expected.worker_results
    ]
    assert_bit_identical(expected.table, result.table)
    assert leaked_segments() == []
