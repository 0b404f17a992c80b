"""Machine-side message construction and bit-exact communication accounting.

A machine's state is its rows of the replication's stacked arrays: round
one reads its standardized estimate xi (or, for the dense baseline, its
debiased estimate theta_hat), round two its design X_m and responses y_m.
Every maker takes the machine id first and builds that one machine's
message. Under the ``average`` rule a machine sends its least-squares fit
on the broadcast support S, (X_S'X_S)^-1 X_S'y; the inverse Gram depends
only on the design and S, so a caller that already holds it passes it in
and the message costs two small mat-vecs.

Each payload's format is one entry of a table keyed by payload type: its
wire tag and its fields in wire order, each an array of index, sign or
real elements, ``count`` or ``count**2`` of them, where ``count`` is the
first field's length. Each kind of element is listed once with its model
bits and its wire encoding:

    kind    model bits      wire
    index   ceil(log2 d)    uint32
    sign    1               one bit, packed LSB-first (set bit = +1),
                            the field padded to a byte
    real    64              IEEE-754 float64

``bit_cost``, ``encode_message`` and ``decode_message`` all read that
table. A message's model bits sum its elements' bits; set-cardinality
headers are excluded, so a dense estimate of d values costs 64 d. On the
wire (little-endian) a message is a 1-byte tag, a 4-byte machine id and a
4-byte count, then the fields; its wire bytes are
``len(encode_message(msg))``. The encoder refuses (ValueError) any message
the decoder could not give back: a machine id outside uint32, a field
whose shape is not (count,) or (count, count) as the table says, an index
outside [0, 2**32) or a sign other than +-1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lasso import restricted_ols


@dataclass
class IndexSet:
    indices: np.ndarray  # sorted, strictly increasing, in [0, d)


@dataclass
class SignedIndexSet:
    indices: np.ndarray
    signs: np.ndarray  # entries in {-1, +1}, aligned with indices


@dataclass
class DenseEstimate:
    values: np.ndarray  # length d


@dataclass
class RestrictedEstimate:
    support: np.ndarray
    values: np.ndarray  # length |support|


@dataclass
class GramSummary:
    support: np.ndarray
    gram: np.ndarray  # |support| x |support|, symmetric
    xty: np.ndarray  # length |support|


Payload = IndexSet | SignedIndexSet | DenseEstimate | RestrictedEstimate | GramSummary


@dataclass
class Message:
    machine_id: int
    payload: Payload


def index_bits(d: int) -> int:
    """ceil(log2 d), computed in integer arithmetic."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return (d - 1).bit_length()


def default_tau(d: int) -> float:
    """sqrt(2 ln d), the scale of the max of d standard Gaussians."""
    return float(np.sqrt(2.0 * np.log(d)))


def snr_tau(d: int, r: float) -> float:
    """sqrt(2 r ln d), the low-machine-count threshold variant."""
    return float(np.sqrt(2.0 * r * np.log(d)))


def _as_index_array(idx) -> np.ndarray:
    return np.asarray(idx, dtype=np.int64)


def round1_thresh_votes(machine_id: int, xi: np.ndarray, tau: float) -> Message:
    """Indices whose standardized estimate strictly exceeds tau in magnitude."""
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    idx = np.flatnonzero(np.abs(xi) > tau).astype(np.int64)
    return Message(machine_id, IndexSet(idx))


def round1_thresh_signs(machine_id: int, xi: np.ndarray, tau: float) -> Message:
    """Thresholded indices with their signs attached."""
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    idx = np.flatnonzero(np.abs(xi) > tau).astype(np.int64)
    signs = np.sign(xi[idx]).astype(np.int64)
    return Message(machine_id, SignedIndexSet(idx, signs))


def round1_top_L(machine_id: int, xi: np.ndarray, L: int, signed: bool = False) -> Message:
    """Indices of the L largest |xi| entries; ties break to lower index."""
    d = xi.shape[0]
    if not 1 <= L <= d:
        raise ValueError("L must lie in [1, d]")
    order = np.argsort(-np.abs(xi), kind="stable")[:L]
    idx = np.sort(order).astype(np.int64)
    if not signed:
        return Message(machine_id, IndexSet(idx))
    signs = np.sign(xi[idx]).astype(np.int64)
    signs[signs == 0] = 1
    return Message(machine_id, SignedIndexSet(idx, signs))


def round1_dense(machine_id: int, theta_hat: np.ndarray) -> Message:
    """The full debiased estimate (the O(d)-bits baseline payload)."""
    return Message(machine_id, DenseEstimate(theta_hat.copy()))


def round2_restricted(
    machine_id: int, X_m: np.ndarray, y_m: np.ndarray, support, gram_inv: np.ndarray | None = None
) -> Message:
    """Per-machine least squares restricted to the broadcast support.

    ``gram_inv`` is the machine's (X_S'X_S)^-1 on the support
    (``lasso.restricted_gram_inverse``); without it the machine factors its
    restricted design itself. ValueError for a rank-deficient one.
    """
    support = _as_index_array(support)
    if support.size < 1:
        raise ValueError("support must be nonempty")
    beta = restricted_ols(X_m[:, support], y_m, gram_inv)
    return Message(machine_id, RestrictedEstimate(support, beta))


def round2_gram(machine_id: int, X_m: np.ndarray, y_m: np.ndarray, support) -> Message:
    """Exact restricted Gram matrix and cross moments for centralized LS."""
    support = _as_index_array(support)
    if support.size < 1:
        raise ValueError("support must be nonempty")
    Xs = X_m[:, support]
    return Message(machine_id, GramSummary(support, Xs.T @ Xs, Xs.T @ y_m))


# ---------------------------------------------------------------------------
# Payload formats: one table read by the bit model and the wire codec


class _Kind(NamedTuple):
    """One kind of payload element: its model bits, scaled_bits *
    ceil(log2 d) + fixed_bits, and its wire encoding, a little-endian dtype
    or None for one bit per element, packed LSB-first (set bit = +1) and
    padded to a byte."""

    scaled_bits: int
    fixed_bits: int
    wire: np.dtype | None
    host: type  # dtype of the decoded array
    domain: str | None  # what the wire can carry, checked by the encoder


_INDEX = _Kind(1, 0, np.dtype("<u4"), np.int64, "integers in [0, 2**32)")
_SIGN = _Kind(0, 1, None, np.int64, "-1 or +1")
_REAL = _Kind(0, 64, np.dtype("<f8"), np.float64, None)  # float64 carries every real, NaN too

# Each payload type's wire tag and its fields in wire order: (name, kind, p)
# is a field of count**p elements, count being the first field's length.
_FORMATS = {
    IndexSet: (1, [("indices", _INDEX, 1)]),
    SignedIndexSet: (2, [("indices", _INDEX, 1), ("signs", _SIGN, 1)]),
    DenseEstimate: (3, [("values", _REAL, 1)]),
    RestrictedEstimate: (4, [("support", _INDEX, 1), ("values", _REAL, 1)]),
    GramSummary: (5, [("support", _INDEX, 1), ("gram", _REAL, 2), ("xty", _REAL, 1)]),
}
_BY_TAG = {tag: (cls, fields) for cls, (tag, fields) in _FORMATS.items()}
# bit_cost's per-type constants, read off the table once: the count field,
# then the scaled and fixed bits of all count-long fields, then of all
# count**2-long fields.
_BIT_COEFS = {
    cls: (fields[0][0], *(sum(getattr(kind, c) for _, kind, p in fields if p == power)
                          for power in (1, 2) for c in ("scaled_bits", "fixed_bits")))
    for cls, (_, fields) in _FORMATS.items()
}
_HEADER = struct.Struct("<BII")


def bit_cost(msg: Message, d: int) -> int:
    """Model bits of one message (cardinality headers excluded)."""
    b = index_bits(d)
    try:
        count_field, s1, f1, s2, f2 = _BIT_COEFS[type(msg.payload)]
    except KeyError:
        raise TypeError(f"unknown payload type {type(msg.payload)!r}") from None
    k = getattr(msg.payload, count_field).size
    return k * (s1 * b + f1) + k * k * (s2 * b + f2)


def _pack(kind: _Kind, values: np.ndarray) -> bytes:
    if kind.wire is None:
        return np.packbits(values > 0, bitorder="little").tobytes()
    return values.astype(kind.wire).tobytes()


def _unpack(kind: _Kind, buf: bytes, offset: int, n: int) -> np.ndarray:
    if kind.wire is None:
        packed = np.frombuffer(buf, dtype=np.uint8, count=(n + 7) // 8, offset=offset)
        return 2 * np.unpackbits(packed, count=n, bitorder="little").astype(kind.host) - 1
    return np.frombuffer(buf, dtype=kind.wire, count=n, offset=offset).astype(kind.host)


def _nbytes(kind: _Kind, n: int) -> int:
    return (n + 7) // 8 if kind.wire is None else n * kind.wire.itemsize


def encode_message(msg: Message) -> bytes:
    """The message's wire bytes.

    Raises ValueError for a message ``decode_message`` could not give back:
    a machine id outside uint32, a field whose shape disagrees with the
    count, or entries its kind cannot carry (an index outside [0, 2**32), a
    sign other than +-1); TypeError for an unknown payload type.
    """
    try:
        tag, fields = _FORMATS[type(msg.payload)]
    except KeyError:
        raise TypeError(f"unknown payload type {type(msg.payload)!r}") from None
    if not 0 <= msg.machine_id < 2**32:
        raise ValueError(f"machine id {msg.machine_id} is outside uint32")
    arrays = [np.asarray(getattr(msg.payload, name)) for name, _, _ in fields]
    count = arrays[0].size
    body = []
    for (name, kind, power), values in zip(fields, arrays):
        if values.shape != (count,) * power:
            raise ValueError(f"{name} has shape {values.shape}, count {count} needs {(count,) * power}")
        raw = _pack(kind, values)
        if kind.domain and not (_unpack(kind, raw, 0, values.size) == values.ravel()).all():
            raise ValueError(f"{name} must hold {kind.domain}")
        body.append(raw)
    return _HEADER.pack(tag, msg.machine_id, count) + b"".join(body)


def decode_message(buf: bytes) -> Message:
    """Inverse of ``encode_message``.

    Raises ValueError for an unknown tag, or when the buffer is shorter or
    longer than its header and count field imply.
    """
    if len(buf) < _HEADER.size:
        raise ValueError(f"message of {len(buf)} bytes is shorter than the {_HEADER.size}-byte header")
    tag, machine_id, count = _HEADER.unpack_from(buf, 0)
    if tag not in _BY_TAG:
        raise ValueError(f"unknown wire tag {tag}")
    cls, fields = _BY_TAG[tag]
    sizes = [_nbytes(kind, count**power) for _, kind, power in fields]
    expected = _HEADER.size + sum(sizes)
    if len(buf) < expected:
        raise ValueError(f"truncated message: {len(buf)} bytes, count {count} needs {expected}")
    if len(buf) > expected:
        raise ValueError(f"{len(buf) - expected} trailing bytes after the payload")
    values, offset = {}, _HEADER.size
    for (name, kind, power), size in zip(fields, sizes):
        values[name] = _unpack(kind, buf, offset, count**power).reshape((count,) * power)
        offset += size
    return Message(machine_id, cls(**values))
