"""Machine-side message construction and bit-exact communication accounting.

Bit model: an index in [d] costs ceil(log2 d) bits, a sign 1 bit, a real 64
bits. Set-cardinality headers are excluded from the model count; the wire
format below does carry an explicit count field, and a message's wire bytes
are ``len(encode_message(msg))``.

A machine's state is its rows of the replication's stacked arrays: round
one reads its standardized estimate xi (or, for the dense baseline, its
debiased estimate theta_hat), round two its design X_m and responses y_m.
Every maker takes the machine id first and builds that one machine's
message. Under the ``average`` rule a machine sends its least-squares fit
on the broadcast support S, (X_S'X_S)^-1 X_S'y; the inverse Gram depends
only on the design and S, so a caller that already holds it passes it in
and the message costs two small mat-vecs.

Wire format (little-endian): 1-byte payload tag, 4-byte machine id, 4-byte
count, then the payload: indices as uint32, signs packed one bit each
(LSB-first, set bit = +1) padded to a byte, reals as IEEE-754 float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .lasso import restricted_ols

TAG_INDEX_SET = 1
TAG_SIGNED_INDEX_SET = 2
TAG_DENSE = 3
TAG_RESTRICTED = 4
TAG_GRAM = 5


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
    if tau <= 0:
        raise ValueError("tau must be positive")
    idx = np.flatnonzero(np.abs(xi) > tau).astype(np.int64)
    return Message(machine_id, IndexSet(idx))


def round1_thresh_signs(machine_id: int, xi: np.ndarray, tau: float) -> Message:
    """Thresholded indices with their signs attached."""
    if tau <= 0:
        raise ValueError("tau must be positive")
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


def bit_cost(msg: Message, d: int) -> int:
    """Model bits of one message (cardinality headers excluded)."""
    b = index_bits(d)
    p = msg.payload
    if isinstance(p, IndexSet):
        return p.indices.size * b
    if isinstance(p, SignedIndexSet):
        return p.indices.size * (b + 1)
    if isinstance(p, DenseEstimate):
        return 64 * d
    if isinstance(p, RestrictedEstimate):
        return p.support.size * (b + 64)
    if isinstance(p, GramSummary):
        k = p.support.size
        return k * b + 64 * (k * k + k)
    raise TypeError(f"unknown payload type {type(p)!r}")


# ---------------------------------------------------------------------------
# Wire encoding


_HEADER = struct.Struct("<BII")
# Payload bytes of each tag as a function of its count field.
_BODY_BYTES = {
    TAG_INDEX_SET: lambda c: 4 * c,
    TAG_SIGNED_INDEX_SET: lambda c: 4 * c + (c + 7) // 8,
    TAG_DENSE: lambda c: 8 * c,
    TAG_RESTRICTED: lambda c: 12 * c,
    TAG_GRAM: lambda c: 12 * c + 8 * c * c,
}


def _pack_signs(signs: np.ndarray) -> bytes:
    bits = (np.asarray(signs) > 0).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack_signs(buf: bytes, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")[:count]
    return np.where(bits == 1, 1, -1).astype(np.int64)


def encode_message(msg: Message) -> bytes:
    p = msg.payload
    if isinstance(p, IndexSet):
        tag, count = TAG_INDEX_SET, p.indices.size
        body = p.indices.astype("<u4").tobytes()
    elif isinstance(p, SignedIndexSet):
        tag, count = TAG_SIGNED_INDEX_SET, p.indices.size
        body = p.indices.astype("<u4").tobytes() + _pack_signs(p.signs)
    elif isinstance(p, DenseEstimate):
        tag, count = TAG_DENSE, p.values.size
        body = p.values.astype("<f8").tobytes()
    elif isinstance(p, RestrictedEstimate):
        tag, count = TAG_RESTRICTED, p.support.size
        body = p.support.astype("<u4").tobytes() + p.values.astype("<f8").tobytes()
    elif isinstance(p, GramSummary):
        tag, count = TAG_GRAM, p.support.size
        body = (
            p.support.astype("<u4").tobytes()
            + np.ascontiguousarray(p.gram, dtype="<f8").tobytes()
            + p.xty.astype("<f8").tobytes()
        )
    else:
        raise TypeError(f"unknown payload type {type(p)!r}")
    return _HEADER.pack(tag, msg.machine_id, count) + body


def decode_message(buf: bytes) -> Message:
    """Inverse of ``encode_message``.

    Raises ValueError for an unknown tag, or when the buffer is shorter or
    longer than its header and count field imply.
    """
    if len(buf) < _HEADER.size:
        raise ValueError(f"message of {len(buf)} bytes is shorter than the {_HEADER.size}-byte header")
    tag, machine_id, count = _HEADER.unpack_from(buf, 0)
    if tag not in _BODY_BYTES:
        raise ValueError(f"unknown wire tag {tag}")
    off = _HEADER.size
    expected = off + _BODY_BYTES[tag](count)
    if len(buf) < expected:
        raise ValueError(f"truncated message: {len(buf)} bytes, count {count} needs {expected}")
    if len(buf) > expected:
        raise ValueError(f"{len(buf) - expected} trailing bytes after the payload")
    if tag == TAG_INDEX_SET:
        idx = np.frombuffer(buf, dtype="<u4", count=count, offset=off).astype(np.int64)
        return Message(machine_id, IndexSet(idx))
    if tag == TAG_SIGNED_INDEX_SET:
        idx = np.frombuffer(buf, dtype="<u4", count=count, offset=off).astype(np.int64)
        off += 4 * count
        signs = _unpack_signs(buf[off:], count)
        return Message(machine_id, SignedIndexSet(idx, signs))
    if tag == TAG_DENSE:
        vals = np.frombuffer(buf, dtype="<f8", count=count, offset=off).copy()
        return Message(machine_id, DenseEstimate(vals))
    if tag == TAG_RESTRICTED:
        idx = np.frombuffer(buf, dtype="<u4", count=count, offset=off).astype(np.int64)
        off += 4 * count
        vals = np.frombuffer(buf, dtype="<f8", count=count, offset=off).copy()
        return Message(machine_id, RestrictedEstimate(idx, vals))
    # TAG_GRAM
    idx = np.frombuffer(buf, dtype="<u4", count=count, offset=off).astype(np.int64)
    off += 4 * count
    gram = np.frombuffer(buf, dtype="<f8", count=count * count, offset=off)
    gram = gram.reshape(count, count).copy()
    off += 8 * count * count
    xty = np.frombuffer(buf, dtype="<f8", count=count, offset=off).copy()
    return Message(machine_id, GramSummary(idx, gram, xty))
