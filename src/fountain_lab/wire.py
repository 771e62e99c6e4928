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
delivery, and the :class:`DataFrame` decoded from each delivered frame is
the symbol the receiver processes (it reads only ``indices`` and
``payload``).  Each feedback message makes the round trip through a feedback
frame, and the decoded :class:`FeedbackFrame` is what the encoder reads
(``kind`` and ``recovered``).  Feedback frames and the session header travel
on the control path, which is lossless per the channel model.  The link
checks every frame it decodes, the header included: a frame of another type
raises ``malformed-frame`` and one from another session ``wrong-session``.
The recovered blocks are checked against the input before any bytes are
returned, so a transfer either returns the exact input or raises.
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
_DATA_FIELDS = struct.Struct(">QQH")                    # session_id seq_no degree
_DATA = struct.Struct(_START.format + _DATA_FIELDS.format[1:])   # the start, then those
_FEEDBACK = struct.Struct(_START.format + "QBI")        # session_id fb_kind recovered
_HEADER = struct.Struct(_START.format + "QIHQ")         # session_id k symbol_size original_len
_CRC = struct.Struct(">I")

# A data frame's variable layouts, compiled per degree on first use: the head
# through payload_len (encode_data) and the indices (decode_frame).  Degrees
# reach k, up to 65535, so each dict is cleared when it reaches the cap, as
# struct's own cache is; a Struct and its format take about 0.4 KB at any degree.
_LAYOUT_CAP = 256
_DATA_HEADS: dict[int, struct.Struct] = {}
_INDICES: dict[int, struct.Struct] = {}


def _compile(layouts: dict[int, struct.Struct], fmt: str, degree: int) -> struct.Struct:
    if len(layouts) >= _LAYOUT_CAP:
        layouts.clear()
    layout = layouts[degree] = struct.Struct(fmt.format(degree))
    return layout


def _seal(head: bytes, payload: bytes) -> bytes:
    return b"".join((head, payload, _CRC.pack(zlib.crc32(payload, zlib.crc32(head)))))


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
    try:
        layout = _DATA_HEADS[degree]
    except KeyError:                        # the fixed fields, the indices, payload_len
        layout = _compile(_DATA_HEADS, _DATA.format + "{}IH", degree)
    head = layout.pack(MAGIC, VERSION, TYPE_DATA, session_id, seq_no, degree, *indices, payload_len)
    return _seal(head, payload)


def encode_feedback(msg: FeedbackMsg, session_id: int) -> bytes:
    return _seal(_FEEDBACK.pack(MAGIC, VERSION, TYPE_FEEDBACK, session_id, int(msg.kind), msg.recovered), b"")


def encode_header(header: SessionHeader) -> bytes:
    return _seal(_HEADER.pack(MAGIC, VERSION, TYPE_HEADER, *astuple(header)), b"")


def decode_frame(buf: bytes) -> DataFrame | FeedbackFrame | SessionHeader:
    """Parse exactly one frame; anything else raises FrameError with a code.

    The checks run in one pass, in this order: the 4-byte start, magic,
    version and frame type; a data frame's fixed fields, then its indices
    and payload length; the sealed length (truncated below it,
    length-mismatch above it); the CRC-32; then the field checks.
    """
    have = len(buf)
    if have < _START.size:
        raise FrameError("truncated", f"need {_START.size} bytes, have {have}")
    if buf[:2] != MAGIC:
        raise FrameError("bad-magic", buf[:2].hex())
    version, ftype = buf[2], buf[3]
    if version != VERSION:
        raise FrameError("bad-version", str(version))
    if ftype == TYPE_DATA:
        if have < _DATA.size:
            raise FrameError("truncated", f"need {_DATA.size} bytes, have {have}")
        session_id, seq_no, degree = _DATA_FIELDS.unpack_from(buf, _START.size)
        total = _DATA.size + 4 * degree + 2               # indices, payload_len
        if have < total:
            raise FrameError("truncated", f"need {total} bytes, have {have}")
        end = total + (buf[total - 2] << 8 | buf[total - 1])
    elif ftype == TYPE_FEEDBACK:
        end = _FEEDBACK.size
    elif ftype == TYPE_HEADER:
        end = _HEADER.size
    else:
        raise FrameError("bad-frame-type", str(ftype))
    sealed = end + _CRC.size
    if have != sealed:
        if have < sealed:
            raise FrameError("truncated", f"need {sealed} bytes, have {have}")
        raise FrameError("length-mismatch", f"{have} != {sealed}")
    if zlib.crc32(buf[:end]) != _CRC.unpack_from(buf, end)[0]:
        raise FrameError("crc-mismatch")
    if ftype == TYPE_DATA:
        try:
            layout = _INDICES[degree]
        except KeyError:
            layout = _compile(_INDICES, ">{}I", degree)
        indices = layout.unpack_from(buf, _DATA.size)
        if degree < 1 or degree > 1 and not all(map(operator.lt, indices, indices[1:])):
            raise FrameError("malformed-frame", "indices not strictly increasing")
        # every field is checked: build the frame as DataFrame(...) would,
        # without the four object.__setattr__ calls of its frozen __init__
        frame = object.__new__(DataFrame)
        attrs = frame.__dict__
        attrs["session_id"] = session_id
        attrs["seq_no"] = seq_no
        attrs["indices"] = indices
        attrs["payload"] = buf[total:end]
        return frame
    if ftype == TYPE_FEEDBACK:
        _, _, _, session_id, kind, recovered = _FEEDBACK.unpack_from(buf)
        if kind >= len(FeedbackKind):
            raise FrameError("malformed-frame", f"feedback kind {kind}")
        return FeedbackFrame(session_id, FeedbackKind(kind), recovered)
    _, _, _, session_id, k, symbol_size, original_len = _HEADER.unpack_from(buf)
    if k < 2 or symbol_size < 1:
        raise FrameError("malformed-frame", f"k={k}, symbol_size={symbol_size}")
    return SessionHeader(session_id, k, symbol_size, original_len)


# -- file transfer over the framed link -------------------------------------


class _FramedLink:
    """Carries symbols and feedback as frames through encode and decode."""

    def __init__(self, session_id: int):
        self.session_id = session_id

    def send(self, sym: CodedSymbol, slot: int) -> bytes:
        return encode_data(sym, self.session_id, slot)

    def _check(self, frame, frame_type):
        if not isinstance(frame, frame_type):
            got = type(frame).__name__
            raise FrameError("malformed-frame", f"expected {frame_type.__name__}, got {got}")
        if frame.session_id != self.session_id:
            raise FrameError("wrong-session", f"{frame.session_id} != {self.session_id}")
        return frame

    def receive(self, buf: bytes) -> tuple[DataFrame, int]:
        frame = decode_frame(buf)
        if type(frame) is not DataFrame or frame.session_id != self.session_id:
            self._check(frame, DataFrame)               # raises with the code and message
        return frame, frame.seq_no

    def feedback(self, msg: FeedbackMsg) -> FeedbackFrame:
        return self._check(decode_frame(encode_feedback(msg, self.session_id)), FeedbackFrame)


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

    link = _FramedLink(session_id)
    # Handshake: the header rides the lossless control path but still counts
    # as one transmitted frame.
    header = encode_header(SessionHeader(session_id, source.k, symbol_size, len(data)))
    link._check(decode_frame(header), SessionHeader)
    header_attempts = 1
    result, enc, rcv = _drive(config, source, eps, policy, seed, trial_id, budget, link, sent=header_attempts)

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
