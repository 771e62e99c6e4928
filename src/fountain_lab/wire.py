"""Bit-exact frame formats and an in-process lossy file-transfer pipeline.

All frames open with magic ``4F 46``, a version byte (1), and a frame-type
byte, and close with a big-endian CRC-32 over every preceding byte.

Data frame (type 0)::

    magic(2) version(1) type(1) session_id(8) seq_no(8)
    degree(2) indices(4 * degree) payload_len(2) payload crc32(4)

Feedback frame (type 1)::

    magic(2) version(1) type(1) session_id(8) fb_kind(1) recovered(4) crc32(4)

Session header frame (type 2), sent once at setup::

    magic(2) version(1) type(1) session_id(8) k(4) symbol_size(2)
    original_len(8) crc32(4)

Indices are explicit (not a shared-seed schedule) because feedback makes the
encoder's choices state-dependent; the receiver could not re-derive them.
``seq_no`` is the transmission slot, which lets the systematic scheme's
receiver notice the end of the index pass even when tail frames are erased;
a receiver fed without it reads the pass end from the symbol instead.

:func:`transfer` runs the simulator's session loop over a framed link: each
data symbol is encoded into a frame before the erasure channel decides its
delivery, each delivered frame is decoded back into a symbol, and each
feedback message makes the round trip through a feedback frame.  Feedback
frames and the session header travel on the control path, which is lossless
per the channel model.  The recovered blocks are checked against the input
before any bytes are returned, so a transfer either returns the exact input
or raises.
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from dataclasses import astuple, dataclass, field

from .graph import CodedSymbol, SourceBlock
from .schemes import EveryDegreeChange, FeedbackKind, FeedbackMsg, FeedbackPolicy, SchemeConfig
from .sim import TracePoint, _drive

__all__ = [
    "MAGIC",
    "VERSION",
    "FrameError",
    "TransferFailed",
    "DataFrame",
    "FeedbackFrame",
    "SessionHeader",
    "encode_data",
    "encode_feedback",
    "encode_header",
    "decode_frame",
    "TransferReport",
    "transfer",
]

MAGIC = b"\x4f\x46"
VERSION = 1
TYPE_DATA = 0
TYPE_FEEDBACK = 1
TYPE_HEADER = 2

#: Every decode failure carries exactly one of these codes.
ERROR_CODES = (
    "truncated",
    "bad-magic",
    "bad-version",
    "bad-frame-type",
    "length-mismatch",
    "crc-mismatch",
    "malformed-frame",
    "wrong-session",
)


class FrameError(ValueError):
    def __init__(self, code: str, detail: str = ""):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown frame error code {code!r}")
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


class TransferFailed(RuntimeError):
    """Transfer gave up (budget exceeded); carries the partial report."""

    def __init__(self, report: "TransferReport"):
        self.report = report
        super().__init__(f"budget exceeded after {report.frames_sent} data frames")


@dataclass(frozen=True)
class DataFrame:
    session_id: int
    seq_no: int
    indices: tuple[int, ...]
    payload: bytes


@dataclass(frozen=True)
class FeedbackFrame:
    session_id: int
    kind: FeedbackKind
    recovered: int


@dataclass(frozen=True)
class SessionHeader:
    session_id: int
    k: int
    symbol_size: int
    original_len: int


# Each frame type's fixed fields: the common start, then the type's own
# fields up to its indices (data) or its CRC.
_START = struct.Struct(">2sBB")                         # magic version type
_DATA = struct.Struct(_START.format + "QQH")            # session_id seq_no degree
_FEEDBACK = struct.Struct(_START.format + "QBI")        # session_id fb_kind recovered
_HEADER = struct.Struct(_START.format + "QIHQ")         # session_id k symbol_size original_len
_PAYLOAD_LEN = struct.Struct(">H")
_CRC = struct.Struct(">I")
_new = object.__new__


def _seal(body: bytes) -> bytes:
    return body + _CRC.pack(zlib.crc32(body))


def encode_data(sym: CodedSymbol, session_id: int, seq_no: int) -> bytes:
    """Serialize a coded symbol; a None payload encodes as zero length."""
    payload = sym.payload or b""
    payload_len = len(payload)
    if payload_len > 0xFFFF:
        raise ValueError("payload too large for the 2-byte length field")
    indices = sym.indices
    degree = len(indices)
    if degree > 0xFFFF:
        raise ValueError("degree too large for the 2-byte degree field")
    return _seal(b"".join((
        _DATA.pack(MAGIC, VERSION, TYPE_DATA, session_id, seq_no, degree),
        struct.pack(f">{degree}I", *indices),
        _PAYLOAD_LEN.pack(payload_len),
        payload,
    )))


def encode_feedback(msg: FeedbackMsg, session_id: int) -> bytes:
    return _seal(_FEEDBACK.pack(MAGIC, VERSION, TYPE_FEEDBACK, session_id, int(msg.kind), msg.recovered))


def encode_header(header: SessionHeader) -> bytes:
    return _seal(_HEADER.pack(MAGIC, VERSION, TYPE_HEADER, *astuple(header)))


def _need(buf: bytes, n: int) -> None:
    if len(buf) < n:
        raise FrameError("truncated", f"need {n} bytes, have {len(buf)}")


def _sealed(buf: bytes, n: int) -> None:
    """Check that ``buf`` is exactly ``n`` bytes plus their CRC-32."""
    end = n + _CRC.size
    _need(buf, end)
    if len(buf) != end:
        raise FrameError("length-mismatch", f"{len(buf)} != {end}")
    if zlib.crc32(buf[:n]) != _CRC.unpack_from(buf, n)[0]:
        raise FrameError("crc-mismatch")


def decode_frame(buf: bytes) -> DataFrame | FeedbackFrame | SessionHeader:
    """Parse exactly one frame; anything else raises FrameError with a code."""
    _need(buf, _START.size)
    if buf[:2] != MAGIC:
        raise FrameError("bad-magic", buf[:2].hex())
    version, ftype = buf[2], buf[3]
    if version != VERSION:
        raise FrameError("bad-version", str(version))
    if ftype == TYPE_DATA:
        _need(buf, _DATA.size)
        _, _, _, session_id, seq_no, degree = _DATA.unpack_from(buf)
        total = _DATA.size + 4 * degree + _PAYLOAD_LEN.size
        _need(buf, total)
        end = total + (buf[total - 2] << 8 | buf[total - 1])
        _sealed(buf, end)
        indices = struct.unpack_from(f">{degree}I", buf, _DATA.size)
        if degree < 1 or not all(map(operator.lt, indices, indices[1:])):
            raise FrameError("malformed-frame", "indices not strictly increasing")
        # Built like CodedSymbol._trusted: every field is checked above, so
        # the frozen __init__ and its four object.__setattr__ calls are skipped.
        frame = _new(DataFrame)
        attrs = frame.__dict__
        attrs["session_id"] = session_id
        attrs["seq_no"] = seq_no
        attrs["indices"] = indices
        attrs["payload"] = buf[total:end]
        return frame
    if ftype == TYPE_FEEDBACK:
        _sealed(buf, _FEEDBACK.size)
        _, _, _, session_id, kind, recovered = _FEEDBACK.unpack_from(buf)
        if kind >= len(FeedbackKind):
            raise FrameError("malformed-frame", f"feedback kind {kind}")
        return FeedbackFrame(session_id, FeedbackKind(kind), recovered)
    if ftype == TYPE_HEADER:
        _sealed(buf, _HEADER.size)
        _, _, _, session_id, k, symbol_size, original_len = _HEADER.unpack_from(buf)
        if k < 2 or symbol_size < 1:
            raise FrameError("malformed-frame", f"k={k}, symbol_size={symbol_size}")
        return SessionHeader(session_id, k, symbol_size, original_len)
    raise FrameError("bad-frame-type", str(ftype))


# -- file transfer over the framed link -------------------------------------


def _expect(frame, frame_type):
    if not isinstance(frame, frame_type):
        got = type(frame).__name__
        raise FrameError("malformed-frame", f"expected {frame_type.__name__}, got {got}")
    return frame


class _FramedLink:
    """Carries symbols and feedback as frames through encode and decode."""

    def __init__(self, session_id: int):
        self.session_id = session_id

    def send(self, sym: CodedSymbol, slot: int) -> bytes:
        return encode_data(sym, self.session_id, slot)

    def _decode(self, buf: bytes, frame_type):
        frame = _expect(decode_frame(buf), frame_type)
        if frame.session_id != self.session_id:
            raise FrameError("wrong-session", f"{frame.session_id} != {self.session_id}")
        return frame

    def receive(self, frame: bytes) -> tuple[CodedSymbol, int]:
        parsed = self._decode(frame, DataFrame)
        return CodedSymbol._trusted(parsed.indices, parsed.payload), parsed.seq_no

    def feedback(self, msg: FeedbackMsg) -> FeedbackMsg:
        fb = self._decode(encode_feedback(msg, self.session_id), FeedbackFrame)
        return FeedbackMsg(fb.kind, fb.recovered)


@dataclass
class TransferReport:
    scheme: str
    k: int
    symbol_size: int
    eps: float
    original_len: int
    frames_sent: int          # data frames, incl. the header handshake
    frames_delivered: int
    header_attempts: int
    feedback_frames: int
    per_phase_sent: dict[str, int]
    complete: bool
    trace: list[TracePoint] = field(default_factory=list)

    @property
    def overhead(self) -> float:
        return self.frames_sent / self.k


def _split_blocks(data: bytes, symbol_size: int) -> tuple[SourceBlock, int]:
    if not data:
        raise ValueError("input must be non-empty")
    if symbol_size < 1:
        raise ValueError("symbol_size must be >= 1")
    k = math.ceil(len(data) / symbol_size)
    if k < 2:
        # The decoding graph needs at least two nodes; shrink the symbol so
        # the input spans two of them.
        symbol_size = math.ceil(len(data) / 2)
        k = 2
    if symbol_size > 0xFFFF:
        raise ValueError(f"symbol_size {symbol_size} too large for the 2-byte header field")
    if k > 0xFFFF:
        # a completion symbol's degree reaches k near the end of a session
        raise ValueError(f"k = {k} too large for the 2-byte degree field (at most 65535)")
    padded = data.ljust(k * symbol_size, b"\x00")
    blocks = tuple(padded[i * symbol_size:(i + 1) * symbol_size] for i in range(k))
    return SourceBlock(k, blocks), symbol_size


def transfer(
    data: bytes,
    config: SchemeConfig,
    eps: float,
    seed: int = 0,
    symbol_size: int = 1024,
    policy: FeedbackPolicy = EveryDegreeChange(),
    trial_id: int = 0,
    budget: int | None = None,
) -> tuple[bytes, TransferReport]:
    """Move ``data`` through the framed erasure link; returns (output, report).

    ``budget`` counts frames including the header and defaults to 50 * k; a
    budget below k raises ValueError.  The input splits into
    k = ceil(len(data) / symbol_size) source symbols; a k above 65535, the
    most a frame's 2-byte degree field holds, raises ValueError before any
    frame is sent, as does a symbol_size above 65535.  Raises
    :class:`TransferFailed` (with partial stats) when the budget runs out
    before full recovery.  Every recovered block is checked against the
    input, so a corrupted symbol that got past the frame checks raises
    PayloadMismatch "recovered payload mismatch" instead of returning wrong
    bytes.
    """
    source, symbol_size = _split_blocks(data, symbol_size)
    session_id = seed & 0xFFFFFFFFFFFFFFFF

    # Handshake: the header rides the lossless control path but still counts
    # as one transmitted frame.
    header = SessionHeader(session_id, source.k, symbol_size, len(data))
    _expect(decode_frame(encode_header(header)), SessionHeader)
    header_attempts = 1
    result, enc, rcv = _drive(
        config, source, eps, policy, seed, trial_id, budget, _FramedLink(session_id),
        sent=header_attempts,
    )

    report = TransferReport(
        scheme=result.scheme,
        k=result.k,
        symbol_size=symbol_size,
        eps=eps,
        original_len=len(data),
        frames_sent=result.sent_total,
        frames_delivered=result.received_total,
        header_attempts=header_attempts,
        feedback_frames=result.feedback_total,
        per_phase_sent=enc.phase_sent,
        complete=not result.budget_exceeded,
        trace=result.trace,
    )
    if not report.complete:
        raise TransferFailed(report)
    out = b"".join(rcv.graph.values)[: len(data)]  # type: ignore[arg-type]
    return out, report
