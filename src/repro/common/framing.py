"""Length-prefixed, CRC-guarded frames: the journal's and replication's codec.

One frame on disk or on the wire::

    [4-byte BE payload length][payload][4-byte BE CRC32(payload)]

:func:`encode` builds a frame; :func:`read_frame` reads one back from a
file, refusing implausible lengths *before* reading the body, so a damaged
length header can never make a reader allocate more than the file holds.
Stream readers that cannot use :func:`read_frame` (asyncio) apply the same
:func:`check_length` and :func:`check_crc` around their own reads.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, Optional

LENGTH = struct.Struct(">I")
#: Bytes a frame adds around its payload: length header plus CRC trailer.
OVERHEAD = 2 * LENGTH.size


class FrameError(ValueError):
    """A frame is torn, or failed its length bound or its CRC."""


def encode(payload: bytes) -> bytes:
    """One frame around ``payload``."""
    return LENGTH.pack(len(payload)) + payload + LENGTH.pack(zlib.crc32(payload))


def check_length(length: int, limit: int, what: str, minimum: int = 0) -> None:
    """Raise FrameError unless ``minimum <= length <= limit``."""
    if length < minimum or length > limit:
        raise FrameError(f"implausible {what} length {length}")


def check_crc(payload: bytes, trailer: bytes, what: str) -> None:
    """Raise FrameError unless ``trailer`` holds ``payload``'s CRC32."""
    (stored,) = LENGTH.unpack(trailer)
    actual = zlib.crc32(payload)
    if stored != actual:
        raise FrameError(
            f"{what} CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )


def read_frame(stream: BinaryIO, limit: int, end: int) -> Optional[bytes]:
    """The payload of the frame at ``stream``'s position, or None at EOF.

    ``end`` is the stream's size: a length that runs past it is a torn
    frame, reported without reading (or allocating) the body.  Raises
    :class:`FrameError` when the stream ends inside the frame, for a
    length over ``limit`` and for a CRC mismatch.
    """
    start = stream.tell()
    header = stream.read(LENGTH.size)
    if not header:
        return None
    if len(header) != LENGTH.size:
        raise FrameError("torn record length header")
    (length,) = LENGTH.unpack(header)
    check_length(length, limit, "payload")
    if start + OVERHEAD + length > end:
        raise FrameError("torn record body")
    payload = stream.read(length)
    trailer = stream.read(LENGTH.size)
    if len(payload) != length or len(trailer) != LENGTH.size:
        raise FrameError("torn record body")
    check_crc(payload, trailer, "record")
    return payload
