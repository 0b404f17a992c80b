"""Machine-side message construction and bit-exact communication accounting.

The round-one selection rules live only in ``select_threshold`` and
``select_top_k``, with ``selected_signs`` for a signed top-L, each on a
stack of machines, one row each. The caller (the harness, once per
replication) runs a rule once over every machine's standardized estimate xi.

A maker takes the machine id and the payload that machine sends, and only
wraps it in a message: its row of the rule's selection (indices, and signs
for a signed payload), its debiased estimate theta_hat for the dense
baseline, or, in round two, the broadcast support S with its row of the
stacked payload. Under the ``average`` rule a machine sends its
least-squares fit on S, (X_S'X_S)^-1 X_S'y
(``lasso.restricted_gram_inverse`` times X_S'y), and under ``gram_exact``
its X_S'X_S and X_S'y. X_S'y is column S of the X'y its round-one lasso fit
formed (``lasso.LassoFit.xty``). The makers run no rule and solve nothing;
the caller vouches that each payload is the machine's own.

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

``bit_cost`` (one message), ``bit_costs`` (a list of messages of one
payload type), ``encode_message`` and ``decode_message`` all read that
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


def _stack(scores) -> np.ndarray:
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError("a stacked selection takes a 2-D array, one row per machine")
    return scores


def _signs(values: np.ndarray) -> np.ndarray:
    """-1 for a negative value, +1 otherwise (a zero sends +1), as int64;
    the values are not NaN."""
    signs = np.sign(values).astype(np.int64)
    signs[signs == 0] = 1
    return signs


def select_threshold(xi: np.ndarray, tau: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The threshold rule on a stack: row m of the (M, d) ``xi`` selects
    the indices whose entry strictly exceeds tau in magnitude (a NaN never
    does).

    Returns (indices, signs), two lists of M read-only int64 arrays:
    machine m's selected indices, increasing, and their signs (+-1). Each
    list's rows are views of one flat array, found by one mask over the
    stack. ValueError unless tau is finite and positive and ``xi`` is 2-D.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    xi = _stack(xi)
    M, d = xi.shape
    flat = (np.abs(xi) > tau).ravel().nonzero()[0]
    indices = flat % d
    signs = _signs(xi.ravel()[flat])
    indices.setflags(write=False)
    signs.setflags(write=False)
    ends = np.searchsorted(flat, np.arange(1, M + 1) * d).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    return [indices[a:b] for a, b in bounds], [signs[a:b] for a, b in bounds]


def _rank_key(scores: np.ndarray) -> np.ndarray:
    """The top-k rank key of each entry: -|score|, and 1 for a NaN."""
    return -np.fmax(np.abs(scores), -1.0)


def _check_k(k, d: int) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, not {k!r}")
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")


def select_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The top-k rule on a stack: row m of the read-only (M, k) int64
    result holds the indices of the k largest |scores[m]|, increasing.

    Ties at the k-th largest magnitude break toward the lower index, and NaN
    ranks below every number: each row is the first k of a stable argsort of
    -|scores[m]|. Each entry's rank key is -|score|, and 1 for a NaN, above
    every other key. One ``np.partition`` finds every row's k-th key and one
    comparison selects the entries at or below it, at least k per row. Where
    a row has more (a tie at its k-th key), it keeps the entries strictly
    below and then the first tied entries in index order, which is what the
    stable argsort keeps. Raises ValueError unless ``scores`` is 2-D and k
    is an integer in [1, d].
    """
    key = _rank_key(_stack(scores))
    M, d = key.shape
    _check_k(k, d)
    kth = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
    mask = key <= kth
    flat = mask.ravel().nonzero()[0]
    if flat.size != M * k:
        tied = key == kth
        room = k - (key < kth).sum(axis=1, keepdims=True)
        mask &= ~tied | (tied.cumsum(axis=1) <= room)
        flat = mask.ravel().nonzero()[0]
    idx = (flat.reshape(M, k) % d).astype(np.int64, copy=False)
    idx.setflags(write=False)
    return idx


def selected_signs(scores: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The signs of a stack's selected entries: row m of the read-only
    int64 result is -1 where scores[m] is negative at indices[m] and +1
    elsewhere (a zero sends +1).

    A NaN has no sign: ValueError naming the first machine that selected
    one, machine m being row m.
    """
    scores = _stack(scores)
    values = scores[np.arange(len(scores))[:, None], indices]
    nan = np.isnan(values)
    if nan.any():
        m = int(nan.any(axis=1).argmax())
        raise ValueError(f"machine {m}: a NaN among the selected entries has no sign")
    signs = _signs(values)
    signs.setflags(write=False)
    return signs


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k largest |scores| of a 1-D array, increasing, as
    read-only int64, by ``select_top_k``'s rule and rank key on one row.

    One ``np.partition`` finds the k-th key and one comparison selects the
    entries at or below it. On a tie at the k-th key it keeps the entries
    strictly below and then the first tied indices, and sorts them. Raises
    ValueError unless ``scores`` is 1-D and k is an integer in
    [1, len(scores)]."""
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D")
    key = _rank_key(scores)
    _check_k(k, key.size)
    kth = np.partition(key, k - 1)[k - 1]
    idx = (key <= kth).nonzero()[0]
    if idx.size != k:
        tied = (key == kth).nonzero()[0]
        idx = np.concatenate(((key < kth).nonzero()[0], tied[: k - (idx.size - tied.size)]))
        idx.sort()
    idx = idx.astype(np.int64, copy=False)
    idx.setflags(write=False)
    return idx


def round1_thresh_votes(machine_id: int, indices: np.ndarray) -> Message:
    """The indices whose standardized estimate strictly exceeds tau in
    magnitude: the machine's row of ``select_threshold``."""
    return Message(machine_id, IndexSet(indices))


def round1_thresh_signs(machine_id: int, indices: np.ndarray, signs: np.ndarray) -> Message:
    """Thresholded indices with their signs attached (``select_threshold``)."""
    return Message(machine_id, SignedIndexSet(indices, signs))


def round1_top_L(machine_id: int, indices: np.ndarray, signs: np.ndarray | None = None) -> Message:
    """The indices of the L largest |xi| entries, the machine's row of
    ``select_top_k``, signed when ``signs`` (its row of ``selected_signs``)
    is given."""
    if signs is None:
        return Message(machine_id, IndexSet(indices))
    return Message(machine_id, SignedIndexSet(indices, signs))


def round1_dense(machine_id: int, theta_hat: np.ndarray) -> Message:
    """A copy of the full debiased estimate (the O(d)-bits baseline payload)."""
    return Message(machine_id, DenseEstimate(theta_hat.copy()))


def _support(support) -> np.ndarray:
    support = np.asarray(support, dtype=np.int64)
    if support.size < 1:
        raise ValueError("support must be nonempty")
    return support


def round2_restricted(machine_id: int, support, beta: np.ndarray) -> Message:
    """The machine's least-squares fit ``beta`` on the broadcast support
    (its row of the stacked least-squares fits). ValueError for an
    empty support."""
    return Message(machine_id, RestrictedEstimate(_support(support), beta))


def round2_gram(machine_id: int, support, gram: np.ndarray, xty: np.ndarray) -> Message:
    """The machine's exact restricted Gram X_S'X_S and cross moments X_S'y
    on the broadcast support, for centralized least squares. ValueError for
    an empty support."""
    return Message(machine_id, GramSummary(_support(support), gram, xty))


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
# Each payload type's real fields, which a receiver checks for NaN and inf.
REAL_FIELDS = {
    cls: tuple(name for name, kind, _ in fields if kind is _REAL) for cls, (_, fields) in _FORMATS.items()
}
# bit_cost's and bit_costs' per-type constants, read off the table once:
# the count field, then the scaled and fixed bits of all count-long fields,
# then of all count**2-long fields.
_BIT_COEFS = {
    cls: (fields[0][0], *(sum(getattr(kind, c) for _, kind, p in fields if p == power)
                          for power in (1, 2) for c in ("scaled_bits", "fixed_bits")))
    for cls, (_, fields) in _FORMATS.items()
}
_HEADER = struct.Struct("<BII")


def bit_cost(msg: Message, d: int) -> int:
    """Model bits of one message (cardinality headers excluded)."""
    return bit_costs([msg], d)[0]


def bit_costs(msgs: list[Message], d: int) -> list[int]:
    """``bit_cost`` of each message of a list whose payloads share one type
    (one round-one rule's, or one round two's): the type's constants are
    read once and applied to every payload size. TypeError for an unknown
    payload type or for a list of mixed types."""
    if not msgs:
        return []
    kind = type(msgs[0].payload)
    try:
        count_field, s1, f1, s2, f2 = _BIT_COEFS[kind]
    except KeyError:
        raise TypeError(f"unknown payload type {kind!r}") from None
    sizes = [getattr(m.payload, count_field).size for m in msgs if type(m.payload) is kind]
    if len(sizes) != len(msgs):
        raise TypeError("bit_costs takes messages of one payload type")
    b = index_bits(d)
    per_entry, per_pair = s1 * b + f1, s2 * b + f2
    return [k * per_entry + k * k * per_pair for k in sizes]


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
