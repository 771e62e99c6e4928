import dataclasses
import random

import pytest

from fountain_lab.graph import CodedSymbol, SourceBlock
from fountain_lab.schemes import OFC, OFCNB, SOFC, FeedbackKind, FeedbackMsg
from fountain_lab.sim import run_session
from fountain_lab.wire import (
    DataFrame,
    FeedbackFrame,
    FrameError,
    SessionHeader,
    TransferFailed,
    _FramedLink,
    decode_frame,
    encode_data,
    encode_feedback,
    encode_header,
    transfer,
)

# degree-1 symbol, index 0, payload AA BB CC DD, session 1, seq 0 -- assembled
# by hand from the field layout and frozen
GOLDEN_DATA_HEX = (
    "4f460100"                  # magic, version, type=0
    "0000000000000001"          # session_id
    "0000000000000000"          # seq_no
    "0001"                      # degree
    "00000000"                  # index 0
    "0004" "aabbccdd"           # payload_len, payload
    "fde245c1"                  # crc32 over everything above
)


def test_golden_data_frame():
    sym = CodedSymbol((0,), bytes.fromhex("aabbccdd"))
    assert encode_data(sym, 1, 0).hex() == GOLDEN_DATA_HEX
    frame = decode_frame(bytes.fromhex(GOLDEN_DATA_HEX))
    assert frame == DataFrame(1, 0, (0,), bytes.fromhex("aabbccdd"))


def test_data_round_trip_random():
    rng = random.Random(21)
    for _ in range(1000):
        k = rng.randint(2, 600)
        degree = rng.randint(1, min(k, 40))
        indices = tuple(sorted(rng.sample(range(k), degree)))
        payload = rng.randbytes(rng.randint(0, 64))
        sym = CodedSymbol(indices, payload)
        frame = decode_frame(encode_data(sym, 7, 99))
        assert frame.indices == indices
        assert frame.payload == payload
        assert (frame.session_id, frame.seq_no) == (7, 99)


def test_feedback_and_header_round_trip():
    buf = encode_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 300), 1)
    assert decode_frame(buf) == FeedbackFrame(1, FeedbackKind.BETA_UPDATE, 300)
    buf = encode_header(SessionHeader(5, 64, 1024, 65000))
    assert decode_frame(buf) == SessionHeader(5, 64, 1024, 65000)


def corrupt(buf: bytes, pos: int, mask: int = 0x01) -> bytes:
    out = bytearray(buf)
    out[pos] ^= mask
    return bytes(out)


def test_decode_error_codes():
    good = bytes.fromhex(GOLDEN_DATA_HEX)
    with pytest.raises(FrameError) as e:
        decode_frame(corrupt(good, 30))     # payload bit flip
    assert e.value.code == "crc-mismatch"
    with pytest.raises(FrameError) as e:
        decode_frame(good[:10])
    assert e.value.code == "truncated"
    with pytest.raises(FrameError) as e:
        decode_frame(corrupt(good, 0))
    assert e.value.code == "bad-magic"
    with pytest.raises(FrameError) as e:
        decode_frame(corrupt(good, 2))
    assert e.value.code == "bad-version"
    with pytest.raises(FrameError) as e:
        decode_frame(corrupt(good, 3, 0x40))
    assert e.value.code == "bad-frame-type"
    with pytest.raises(FrameError) as e:
        decode_frame(good + b"\x00")
    assert e.value.code == "length-mismatch"


def test_data_frame_decode_errors_pin_code_and_message():
    good = bytes.fromhex(GOLDEN_DATA_HEX)      # 36 bytes: 22 fixed, 4 index, 2 length, 4 payload, 4 CRC
    cases = [
        (good[:0], "truncated: need 4 bytes, have 0"),
        (good[:3], "truncated: need 4 bytes, have 3"),
        (good[:10], "truncated: need 22 bytes, have 10"),     # fixed fields
        (good[:25], "truncated: need 28 bytes, have 25"),     # indices and payload length
        (good[:30], "truncated: need 36 bytes, have 30"),     # payload and CRC
        (good + b"\x00", "length-mismatch: 37 != 36"),
        (corrupt(good, 0), "bad-magic: 4e46"),
        (corrupt(good, 1, 0x80), "bad-magic: 4fc6"),
        (corrupt(good, 2), "bad-version: 0"),
        (corrupt(good, 3, 0x40), "bad-frame-type: 64"),
        # payload length 4 -> 5 with one byte more: the right length, the wrong CRC
        (corrupt(good, 27) + b"\x00", "crc-mismatch"),
        # payload length 4 -> 0 without the payload
        (corrupt(good, 27, 0x04)[:28] + good[-4:], "crc-mismatch"),
    ]
    import struct
    import zlib

    body = bytes.fromhex("4f460100") + struct.pack(">QQH", 1, 0, 0) + struct.pack(">H", 0)
    cases.append((body + struct.pack(">I", zlib.crc32(body)),
                  "malformed-frame: indices not strictly increasing"))
    for buf, message in cases:
        with pytest.raises(FrameError) as e:
            decode_frame(buf)
        assert str(e.value) == message
        assert e.value.code == message.split(":")[0]


# sha256 over the concatenated data frames of test_golden_frames_beyond_degree_one,
# then one feedback frame of each kind and one header frame
GOLDEN_FRAMES_SHA256 = "035ee0a246f685f37834ee32bccde50a67188032e8d5eacd305c224319262995"


def test_golden_frames_beyond_degree_one():
    import hashlib

    rng = random.Random(7)
    digest = hashlib.sha256()
    for degree in (1, 2, 3, 30, 300, 4096):
        for size in (0, 1, 64, 255, 256, 1024):
            for session_id, seq_no in ((0, 0), (2**64 - 1, 2**64 - 1)):
                indices = tuple(sorted(rng.sample(range(10_000), degree)))
                payload = rng.randbytes(size)
                buf = encode_data(CodedSymbol(indices, payload), session_id, seq_no)
                assert decode_frame(buf) == DataFrame(session_id, seq_no, indices, payload)
                digest.update(buf)
    for kind in FeedbackKind:
        digest.update(encode_feedback(FeedbackMsg(kind, 300), 2**64 - 1))
    digest.update(encode_header(SessionHeader(5, 64, 1024, 65000)))
    assert digest.hexdigest() == GOLDEN_FRAMES_SHA256


def test_every_truncation_of_a_multi_index_frame_names_the_bytes_it_needs():
    buf = encode_data(CodedSymbol((2, 5, 9), b"abcde"), 1, 0)
    assert len(buf) == 45      # 22 fixed, 12 index, 2 length, 5 payload, 4 CRC
    for n in range(len(buf)):
        # the start, the fixed fields, the indices and payload length, the rest
        need = 4 if n < 4 else 22 if n < 22 else 36 if n < 36 else 45
        with pytest.raises(FrameError) as e:
            decode_frame(buf[:n])
        assert str(e.value) == f"truncated: need {need} bytes, have {n}"


def test_decoded_data_frame_is_a_plain_dataclass():
    frame = decode_frame(encode_data(CodedSymbol((1, 4, 9), b"\x00\x07" * 300), 5, 11))
    assert type(frame) is DataFrame
    assert frame == DataFrame(session_id=5, seq_no=11, indices=(1, 4, 9), payload=b"\x00\x07" * 300)
    assert hash(frame) == hash(DataFrame(5, 11, (1, 4, 9), b"\x00\x07" * 300))
    assert type(frame.payload) is bytes and type(frame.indices) is tuple
    moved = dataclasses.replace(frame, seq_no=12)
    assert moved == DataFrame(5, 12, (1, 4, 9), b"\x00\x07" * 300)
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.seq_no = 3


def test_decode_rejects_unsorted_indices():
    # handcraft a crc-valid frame with decreasing indices
    import struct
    import zlib

    body = bytes.fromhex("4f460100") + struct.pack(">QQH", 1, 0, 2)
    body += struct.pack(">II", 5, 3) + struct.pack(">H", 0)
    buf = body + struct.pack(">I", zlib.crc32(body))
    with pytest.raises(FrameError) as e:
        decode_frame(buf)
    assert e.value.code == "malformed-frame"


def test_frame_error_rejects_unknown_code():
    with pytest.raises(ValueError):
        FrameError("no-such-code")


def test_framed_link_rejects_wrong_frame_type():
    link = _FramedLink(1)
    sym, seq = link.receive(bytes.fromhex(GOLDEN_DATA_HEX))
    assert (sym.indices, sym.payload, seq) == ((0,), bytes.fromhex("aabbccdd"), 0)
    with pytest.raises(FrameError) as e:
        link.receive(encode_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 3), 1))
    assert e.value.code == "malformed-frame"


def test_decode_totality_fuzz():
    rng = random.Random(33)
    good = bytes.fromhex(GOLDEN_DATA_HEX)
    for _ in range(500):
        n = rng.randint(0, 60)
        buf = rng.randbytes(n) if rng.random() < 0.5 else corrupt(
            good, rng.randrange(len(good)), 1 << rng.randrange(8)
        )
        try:
            decode_frame(buf)
        except FrameError:
            pass


def test_crc_valid_mutation_fuzz_decodes_or_raises_frame_error():
    # test_decode_totality_fuzz keeps the old CRC, so most of its cases stop
    # at crc-mismatch; here every mutated frame is resealed with a valid CRC.
    import struct
    import zlib

    from fountain_lab.graph import MalformedSymbol
    from fountain_lab.schemes import Receiver

    session = 3
    bodies = [
        buf[:-4] for buf in (
            encode_data(CodedSymbol((2, 7), bytes(range(8))), session, 4),
            encode_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 5), session),
            encode_header(SessionHeader(session, 10, 8, 80)),
        )
    ]
    rng = random.Random(34)
    link = _FramedLink(session)
    decoded = dict.fromkeys((DataFrame, FeedbackFrame, SessionHeader), 0)
    processed = 0
    for _ in range(20_000):
        body = bytearray(rng.choice(bodies))
        op = rng.randrange(3)
        if op == 0:
            body[rng.randrange(len(body))] = rng.randrange(256)
        elif op == 1:
            del body[rng.randrange(len(body)):]
        else:
            body += rng.randbytes(rng.randint(1, 8))
        buf = bytes(body) + struct.pack(">I", zlib.crc32(body))
        try:
            decoded[type(decode_frame(buf))] += 1
            sym, seq = link.receive(buf)
        except FrameError:
            continue
        try:
            Receiver(10, SOFC()).receive(sym, seq)
        except MalformedSymbol:
            continue
        processed += 1
    # every frame type decodes in some cases, and the receiver takes some frames
    assert min(decoded.values()) > 0
    assert processed > 0


def test_receiver_kept_across_frames_rejects_a_one_byte_longer_payload_as_malformed():
    from fountain_lab.graph import MalformedSymbol
    from fountain_lab.schemes import Receiver

    session = 3
    link = _FramedLink(session)
    rx = Receiver(10, SOFC())
    stored = bytes(range(8))
    assert rx.receive(*link.receive(encode_data(CodedSymbol((2,), stored), session, 0))) is None
    assert rx.graph.values[2] == stored
    # with a recovered constituent, over one unknown node, over two
    for indices, message in (((2, 7), "payload length mismatch: 9 vs 8"),
                             ((7,), "payload length 9, not the stored 8"),
                             ((5, 7), "payload length 9, not the stored 8")):
        frame = encode_data(CodedSymbol(indices, stored + b"\x00"), session, 1)
        with pytest.raises(ValueError) as info:
            rx.receive(*link.receive(frame))
        assert type(info.value) is MalformedSymbol and str(info.value) == message
    assert rx.graph.recovered_count == 1 and not any(rx.graph.adj)
    # the receiver takes the next valid frame
    rx.receive(*link.receive(encode_data(CodedSymbol((2, 7), bytes(8)), session, 2)))
    assert rx.graph.values[7] == stored


def test_transfer_lossless_systematic():
    data = random.Random(1).randbytes(64 * 1024)
    out, report = transfer(data, SOFC(), 0.0, seed=2, symbol_size=1024)
    assert out == data
    assert report.k == 64
    assert report.frames_sent == report.k + 1      # header handshake slack
    assert report.overhead == pytest.approx(1 + 1 / report.k)


def test_transfer_megabyte_with_erasures():
    data = random.Random(2).randbytes(1024 * 1024)
    out, report = transfer(data, SOFC(), 0.1, seed=3, symbol_size=1024)
    assert out == data
    assert report.k == 1024
    assert abs(report.overhead - 1.18) <= 0.05 * 1.18 + 1 / report.k


def test_transfer_input_validation_and_tiny_files():
    with pytest.raises(ValueError):
        transfer(b"", SOFC(), 0.0)
    out, report = transfer(b"hello", SOFC(), 0.0, seed=1, symbol_size=1024)
    assert out == b"hello"
    assert report.k == 2 and report.symbol_size == 3


def test_transfer_budget_failure_carries_partial_stats():
    data = random.Random(3).randbytes(4096)
    with pytest.raises(TransferFailed) as e:
        transfer(data, SOFC(), 0.8, seed=4, symbol_size=64, budget=70)
    assert not e.value.report.complete
    assert e.value.report.frames_sent >= 70


def test_transfer_rejects_budget_below_k():
    data = random.Random(3).randbytes(4096)
    k = 4096 // 64
    with pytest.raises(ValueError, match="budget"):
        transfer(data, SOFC(), 0.1, symbol_size=64, budget=k - 1)


def test_transfer_never_returns_wrong_bytes(monkeypatch):
    # a payload corrupted after the frame checks must raise, not leak out
    flipped = []

    def flip_seq3(buf):
        frame = decode_frame(buf)
        if isinstance(frame, DataFrame) and frame.seq_no == 3:
            flipped.append(frame.seq_no)
            payload = bytes([frame.payload[0] ^ 0xFF]) + frame.payload[1:]
            return dataclasses.replace(frame, payload=payload)
        return frame

    monkeypatch.setattr("fountain_lab.wire.decode_frame", flip_seq3)
    data = random.Random(4).randbytes(4096)
    with pytest.raises(AssertionError, match="recovered payload mismatch"):
        transfer(data, SOFC(), 0.1, seed=2, symbol_size=64)   # slot 3 is delivered
    assert flipped == [3]


@pytest.mark.parametrize(
    "config,eps",
    [
        (SOFC(), 0.1),
        (OFC(), 0.1),
        (OFCNB(0.05), 0.1),
        # heavy erasure: the systematic tail is almost surely erased, which
        # exercises the stale-degree fallback before the recovery update lands
        (SOFC(), 0.7),
    ],
)
def test_transport_matches_in_memory_simulator(config, eps):
    # frames must add no protocol behavior: identical seeds -> identical run
    symbol_size, k = 16, 256
    data = random.Random(9).randbytes(symbol_size * k)
    out, report = transfer(data, config, eps, seed=11, symbol_size=symbol_size)
    assert out == data
    blocks = tuple(data[i * symbol_size:(i + 1) * symbol_size] for i in range(k))
    sim = run_session(
        config, k, eps, seed=11, trial_id=0,
        payload_mode="full", source=SourceBlock(k, blocks),
    )
    offset = report.header_attempts
    assert report.frames_sent - offset == sim.full_recovery_sent
    assert report.feedback_frames == sim.feedback_total
    wire_recoveries = [(p.sent - offset, p.recovered) for p in report.trace if p.event is None]
    sim_recoveries = [(p.sent, p.recovered) for p in sim.trace if p.event is None]
    assert wire_recoveries == sim_recoveries


@pytest.mark.parametrize("good", [
    encode_feedback(FeedbackMsg(FeedbackKind.COMPONENT_BLACK, 9), 3),
    encode_header(SessionHeader(3, 64, 1024, 65000)),
], ids=["feedback", "header"])
def test_fixed_size_frames_check_length_then_crc(good):
    for buf, code in [
        (good[:-1], "truncated"),
        (corrupt(good, len(good) - 1), "crc-mismatch"),
        (corrupt(good, 5), "crc-mismatch"),
    ]:
        with pytest.raises(FrameError) as e:
            decode_frame(buf)
        assert e.value.code == code
    with pytest.raises(FrameError, match=f"^truncated: need {len(good)} bytes, have 4$"):
        decode_frame(good[:4])
    with pytest.raises(FrameError, match=f"^length-mismatch: {len(good) + 1} != {len(good)}$"):
        decode_frame(good + b"\x00")


@pytest.mark.parametrize("good, size", [
    (encode_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 300), 7), 21),   # 4 start, 13 fields, 4 CRC
    (encode_header(SessionHeader(7, 64, 1024, 65000)), 30),                 # 4 start, 22 fields, 4 CRC
], ids=["feedback", "header"])
def test_every_truncation_of_a_fixed_size_frame_names_the_bytes_it_needs(good, size):
    assert len(good) == size
    for n in range(len(good)):
        need = 4 if n < 4 else len(good)     # the start, then the sealed length
        with pytest.raises(FrameError) as e:
            decode_frame(good[:n])
        assert str(e.value) == f"truncated: need {need} bytes, have {n}"
        assert e.value.code == "truncated"
    with pytest.raises(FrameError) as e:
        decode_frame(good + b"\x00")
    assert str(e.value) == f"length-mismatch: {len(good) + 1} != {len(good)}"


def test_crc_valid_feedback_with_unknown_kind_is_malformed():
    import struct
    import zlib

    good = encode_feedback(FeedbackMsg(FeedbackKind.COMPLETE, 9), 3)
    body = bytearray(good[:-4])
    body[12] = 4                        # fb_kind, after the 4-byte start and session_id
    buf = bytes(body) + struct.pack(">I", zlib.crc32(body))
    with pytest.raises(FrameError, match="^malformed-frame: feedback kind 4$") as e:
        decode_frame(buf)
    assert e.value.code == "malformed-frame"


@pytest.mark.parametrize("k,symbol_size", [(1, 1024), (64, 0)])
def test_crc_valid_header_with_bad_geometry_is_malformed(k, symbol_size):
    buf = encode_header(SessionHeader(3, k, symbol_size, 100))
    with pytest.raises(FrameError, match=f"^malformed-frame: k={k}, symbol_size={symbol_size}$") as e:
        decode_frame(buf)
    assert e.value.code == "malformed-frame"


def test_encode_data_rejects_fields_too_wide():
    with pytest.raises(ValueError, match="payload too large"):
        encode_data(CodedSymbol((0,), bytes(65536)), 1, 0)
    with pytest.raises(ValueError, match="degree too large"):
        encode_data(CodedSymbol(tuple(range(65536)), b""), 1, 0)


def test_transfer_rejects_symbol_size_above_header_field():
    with pytest.raises(ValueError, match="symbol_size 70000"):
        transfer(random.Random(5).randbytes(200_000), SOFC(), 0.0, symbol_size=70000)
    # one block of input is split into two, each still too wide
    with pytest.raises(ValueError, match="symbol_size 75000"):
        transfer(random.Random(5).randbytes(150_000), SOFC(), 0.0, symbol_size=200_000)
    data = random.Random(5).randbytes(2 * 65535)
    out, report = transfer(data, SOFC(), 0.0, seed=1, symbol_size=65535)
    assert out == data and (report.k, report.symbol_size) == (2, 65535)


def test_framed_link_rejects_data_frame_from_another_session():
    link = _FramedLink(1)
    with pytest.raises(FrameError) as e:
        link.receive(encode_data(CodedSymbol((0,), b"ab"), 2, 0))
    assert e.value.code == "wrong-session"
    assert str(e.value) == "wrong-session: 2 != 1"


def test_framed_link_rejects_feedback_frame_from_another_session(monkeypatch):
    import fountain_lab.wire as wire

    real = wire.encode_feedback
    monkeypatch.setattr(wire, "encode_feedback", lambda msg, session_id: real(msg, session_id + 1))
    with pytest.raises(FrameError) as e:
        _FramedLink(7).feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 3))
    assert e.value.code == "wrong-session"
    assert str(e.value) == "wrong-session: 8 != 7"


def test_transfer_rejects_a_header_from_another_session(monkeypatch):
    import fountain_lab.wire as wire

    real = wire.encode_header
    monkeypatch.setattr(
        wire, "encode_header",
        lambda header: real(dataclasses.replace(header, session_id=header.session_id + 1)),
    )
    with pytest.raises(FrameError) as e:
        transfer(random.Random(1).randbytes(4096), SOFC(), 0.1, seed=3, symbol_size=64)
    assert e.value.code == "wrong-session"
    assert str(e.value) == "wrong-session: 4 != 3"


# sha256 of each golden input: 64 blocks less 5 bytes, random.Random(symbol_size)
GOLDEN_INPUT_SHA256 = {
    64: "66f02252a1071a4a6cddbe247b118a44b9e3df4562babe7d8db78288f2fd5a3b",
    1024: "1390fe577a1e4838327809fd15fcb1c1e6a727249568066741e8871ccdd47c82",
}
# (frames_sent, frames_delivered, header_attempts, feedback_frames, per_phase_sent,
# complete) at seed 3; payload bytes never steer the protocol, so both symbol
# sizes share one row
GOLDEN_TRANSFER_REPORTS = {
    ("ofc", 0.0): (71, 70, 1, 8, {"build-up": 41, "degree1-seeding": 1, "completion": 28}, True),
    ("ofc", 0.2): (102, 81, 1, 11, {"build-up": 55, "degree1-seeding": 1, "completion": 45}, True),
    ("ofcnb", 0.0): (69, 68, 1, 11, {"degree1-seeding": 1, "completion": 67}, True),
    ("ofcnb", 0.2): (94, 75, 1, 11, {"degree1-seeding": 1, "completion": 92}, True),
    ("sofc", 0.0): (65, 64, 1, 1, {"systematic": 64}, True),
    ("sofc", 0.2): (92, 73, 1, 8, {"systematic": 64, "completion": 27}, True),
}
GOLDEN_CONFIGS = {"ofc": OFC(), "ofcnb": OFCNB(0.01), "sofc": SOFC()}


@pytest.mark.parametrize("symbol_size", [64, 1024])
@pytest.mark.parametrize("scheme,eps", list(GOLDEN_TRANSFER_REPORTS))
def test_golden_transfer(scheme, eps, symbol_size):
    import hashlib

    data = random.Random(symbol_size).randbytes(64 * symbol_size - 5)
    out, r = transfer(data, GOLDEN_CONFIGS[scheme], eps, seed=3, symbol_size=symbol_size)
    assert hashlib.sha256(out).hexdigest() == GOLDEN_INPUT_SHA256[symbol_size]
    got = (r.frames_sent, r.frames_delivered, r.header_attempts, r.feedback_frames,
           r.per_phase_sent, r.complete)
    assert got == GOLDEN_TRANSFER_REPORTS[scheme, eps]


B, D, S, C = "build-up", "degree1-seeding", "systematic", "completion"
PHASE_SENT_CONFIGS = {"ofc": OFC(), "ofcnb-0.01": OFCNB(0.01), "ofcnb-0.5": OFCNB(0.5), "sofc": SOFC()}
# (frames_sent, per_phase_sent items in order) at seed 3 for k blocks of 16
# bytes, keyed (scheme, k, eps); the header frame counts in frames_sent only.
GOLDEN_TRANSFER_PHASE_SENT = {
    ("ofc", 5, 0.0): (8, ((B, 4), (D, 3))),
    ("ofc", 5, 0.5): (15, ((B, 8), (D, 1), (C, 5))),
    ("ofc", 22, 0.0): (30, ((B, 15), (D, 1), (C, 13))),
    ("ofc", 22, 0.5): (73, ((B, 46), (D, 4), (C, 22))),
    ("ofc", 400, 0.0): (468, ((B, 271), (D, 4), (C, 192))),
    ("ofc", 400, 0.5): (964, ((B, 599), (D, 13), (C, 351))),
    ("ofcnb-0.01", 5, 0.0): (8, ((D, 1), (C, 6))),
    ("ofcnb-0.01", 5, 0.5): (13, ((D, 2), (C, 10))),
    ("ofcnb-0.01", 22, 0.0): (27, ((D, 1), (C, 25))),
    ("ofcnb-0.01", 22, 0.5): (64, ((D, 2), (C, 61))),
    ("ofcnb-0.01", 400, 0.0): (463, ((D, 4), (C, 458))),
    ("ofcnb-0.01", 400, 0.5): (960, ((D, 11), (C, 948))),
    ("ofcnb-0.5", 5, 0.0): (9, ((D, 6), (C, 2))),
    ("ofcnb-0.5", 5, 0.5): (15, ((D, 11), (C, 3))),
    ("ofcnb-0.5", 22, 0.0): (29, ((D, 15), (C, 13))),
    ("ofcnb-0.5", 22, 0.5): (70, ((D, 40), (C, 29))),
    ("ofcnb-0.5", 400, 0.0): (557, ((D, 272), (C, 284))),
    ("ofcnb-0.5", 400, 0.5): (1179, ((D, 583), (C, 595))),
    ("sofc", 5, 0.0): (6, ((S, 5),)),
    ("sofc", 5, 0.5): (26, ((S, 5), (C, 20))),
    ("sofc", 22, 0.0): (23, ((S, 22),)),
    ("sofc", 22, 0.5): (66, ((S, 22), (C, 43))),
    ("sofc", 400, 0.0): (401, ((S, 400),)),
    ("sofc", 400, 0.5): (1043, ((S, 400), (C, 642))),
}


@pytest.mark.parametrize("scheme,k,eps", list(GOLDEN_TRANSFER_PHASE_SENT))
def test_golden_transfer_phase_sent(scheme, k, eps):
    data = random.Random(k).randbytes(16 * k)
    out, r = transfer(data, PHASE_SENT_CONFIGS[scheme], eps, seed=3, symbol_size=16)
    assert out == data
    assert (r.frames_sent, tuple(r.per_phase_sent.items())) == GOLDEN_TRANSFER_PHASE_SENT[scheme, k, eps]


def test_transfer_rejects_zero_symbol_size():
    with pytest.raises(ValueError, match="symbol_size must be >= 1"):
        transfer(b"abc", OFC(), 0.0, symbol_size=0)


def test_transfer_rejects_more_source_symbols_than_the_degree_field_holds():
    # the completion degree reaches k, so k is refused before any frame is
    # sent; at eps 0 SOFC sends no completion symbol and would finish
    with pytest.raises(ValueError, match="at most 65535"):
        transfer(bytes(0x10000), SOFC(), 0.0, symbol_size=1)
    out, report = transfer(bytes(0xFFFF), SOFC(), 0.0, symbol_size=1)
    assert report.k == 0xFFFF and out == bytes(0xFFFF)


@pytest.mark.parametrize("buf, got", [
    (encode_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 3), 1), "FeedbackFrame"),
    (encode_header(SessionHeader(1, 64, 1024, 65000)), "SessionHeader"),
    # another session's frame of the wrong type fails the type check first
    (encode_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 3), 2), "FeedbackFrame"),
    (encode_header(SessionHeader(2, 64, 1024, 65000)), "SessionHeader"),
])
def test_link_type_check_names_the_frame_it_got_before_the_session(buf, got):
    with pytest.raises(FrameError) as e:
        _FramedLink(1).receive(buf)
    assert e.value.code == "malformed-frame"
    assert str(e.value) == f"malformed-frame: expected DataFrame, got {got}"


def _reference_data_frame(indices, payload, session_id, seq_no):
    import struct
    import zlib

    degree = len(indices)
    body = struct.pack(
        f">2sBBQQH{degree}IH", b"OF", 1, 0, session_id, seq_no, degree, *indices, len(payload),
    ) + payload
    return body + struct.pack(">I", zlib.crc32(body))


def test_compiled_layouts_match_struct_pack_at_every_degree():
    import fountain_lab.wire as wire

    cap = wire._LAYOUT_CAP
    degrees = [*range(1, cap + 11), 65535]
    for degree in degrees:
        indices = tuple(range(3, 3 + 2 * degree, 2))
        payload = bytes([degree % 256]) * (degree % 7)
        session_id, seq_no = 2**64 - degree, 3 * degree
        buf = encode_data(CodedSymbol(indices, payload), session_id, seq_no)
        assert buf == _reference_data_frame(indices, payload, session_id, seq_no), degree
        frame = decode_frame(buf)
        built = DataFrame(session_id, seq_no, indices, payload)
        assert frame == built and hash(frame) == hash(built) and repr(frame) == repr(built)
    assert 0 < len(wire._DATA_HEADS) <= cap and 0 < len(wire._INDICES) <= cap
    # more degrees than the cap went through, so some were evicted
    evicted = min(d for d in degrees if d not in wire._DATA_HEADS and d not in wire._INDICES)
    indices = tuple(range(evicted))
    buf = encode_data(CodedSymbol(indices, b"\x5a"), 9, 1)
    assert buf == _reference_data_frame(indices, b"\x5a", 9, 1)
    assert decode_frame(buf) == DataFrame(9, 1, indices, b"\x5a")


@pytest.mark.parametrize("degree", [1, 2, 300])
def test_trusted_data_frame_matches_a_constructor_built_one(degree):
    import copy
    import pickle

    indices = tuple(range(0, 5 * degree, 5))
    payload = bytes(range(degree % 200))
    frame = decode_frame(encode_data(CodedSymbol(indices, payload), 4, 17))
    built = DataFrame(4, 17, indices, payload)
    assert type(frame) is DataFrame
    assert list(vars(frame)) == list(vars(built)) == ["session_id", "seq_no", "indices", "payload"]
    assert vars(frame) == vars(built)
    assert dataclasses.replace(frame, seq_no=18) == dataclasses.replace(built, seq_no=18)
    assert dataclasses.asdict(frame) == dataclasses.asdict(built)
    restored = pickle.loads(pickle.dumps(frame))
    assert type(restored) is DataFrame and restored == built and hash(restored) == hash(built)
    assert copy.copy(frame) == built
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.payload = b""
