"""Zero-copy binary wire format for service requests and responses.

The JSON request form ships operand arrays as decimal number lists.
Its decoder walks a compact document with the stdlib JSON scanner and
parses each canonical code list (ASCII digits and commas) in one
``np.fromstring`` call, leaving anything else to ``json.loads``: a
median ~0.38 ms per request of ~5,000 codes (~28 KB) on a 2-vCPU host,
half of what ``json.loads`` and ``array("q")`` take, and still about
4.5 times a binary decode.  The binary format here ships the operand
arenas as raw array frames instead:

``````
offset 0   magic  b"RPRW"
offset 4   u8     wire version (1)
offset 5   u32le  header length H
offset 9   utf-8  JSON header (H bytes)
align 64   frames: raw little-endian array bytes, each 64-byte aligned
``````

The JSON header carries everything *about* the payload — method,
config, workspace, request id, and per-operand field tables (field
name → frame, frame → dtype/shape/offset, the fields of
:meth:`~repro.kernels.arena.OperandArena.wire_fields`) — while the
arrays themselves are appended verbatim.  Decoding is
:func:`np.frombuffer` per frame: no parsing, no copy — the resulting
``NodeSet`` views alias the payload buffer (the sorted-end frame is
shipped too, so the receiver never re-sorts).

JSON remains the compatibility default: :func:`decode_request` sniffs
the payload (magic bytes → binary, else JSON) so a service endpoint
accepts both on one code path, and :func:`negotiate_format` picks the
best format both sides accept, preferring binary.  Both formats
round-trip every :class:`EstimateRequest` and :class:`EstimateResponse`
exactly — the qa wire oracle asserts it.
"""

from __future__ import annotations

import json
from array import array
from json.decoder import scanstring
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.errors import ReproError, ServiceError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.kernels.arena import OperandArena, operand_arena
from repro.service.request import EstimateRequest, EstimateResponse

MAGIC = b"RPRW"
WIRE_VERSION = 1

FORMAT_BINARY = "binary"
FORMAT_JSON = "json"

#: Formats this codec can produce and parse, in preference order.
KNOWN_FORMATS = (FORMAT_BINARY, FORMAT_JSON)

_ALIGNMENT = 64
_HEADER_FIXED = len(MAGIC) + 1 + 4  # magic + version byte + u32 length

#: The one frame type: operand arrays are region codes, int64 on the wire.
_FRAME_DTYPE = np.dtype("<i8")

#: What a structurally invalid payload raises inside decode, re-raised
#: at the boundary as :class:`ServiceError` (``ServiceError`` itself
#: passes through; every other :class:`ReproError` is converted).
_STRUCTURAL_ERRORS = (
    ReproError,
    LookupError,
    TypeError,
    ValueError,
    AttributeError,
    OverflowError,
    RecursionError,
)


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


def negotiate_format(accepted: Iterable[str] | None) -> str:
    """The preferred wire format both sides speak.

    ``accepted`` is the peer's accept list (e.g. from a request header);
    ``None`` or an empty list means the peer stated no preference and
    gets the JSON compatibility default.  Unknown entries are ignored;
    an accept list with no known entry raises :class:`ServiceError`.
    """
    if accepted is None:
        return FORMAT_JSON
    offered = [item for item in accepted if item in KNOWN_FORMATS]
    if not offered and list(accepted):
        raise ServiceError(
            f"no mutually supported wire format in {list(accepted)!r} "
            f"(supported: {KNOWN_FORMATS})"
        )
    if not offered:
        return FORMAT_JSON
    return FORMAT_BINARY if FORMAT_BINARY in offered else FORMAT_JSON


def sniff_format(payload: bytes | bytearray | memoryview) -> str:
    """Which wire format ``payload`` is in (by leading magic bytes)."""
    head = bytes(memoryview(payload)[: len(MAGIC)])
    return FORMAT_BINARY if head == MAGIC else FORMAT_JSON


# ----------------------------------------------------------------------
# Header building blocks
# ----------------------------------------------------------------------


def _request_meta(request: EstimateRequest) -> dict[str, Any]:
    """The request's scalar fields, JSON-ready."""
    try:
        config = json.loads(json.dumps(request.config))
    except (TypeError, ValueError) as error:
        raise ServiceError(
            f"request config is not wire-serializable: {error}"
        ) from error
    return {
        "method": request.method,
        "workspace": (
            [int(request.workspace.lo), int(request.workspace.hi)]
            if request.workspace is not None
            else None
        ),
        "config": config,
        "deadline_s": request.deadline_s,
        "max_staleness_s": request.max_staleness_s,
        "request_id": request.request_id,
    }


def _request_from_meta(
    meta: dict[str, Any], ancestors: NodeSet, descendants: NodeSet
) -> EstimateRequest:
    workspace = meta.get("workspace")
    config = meta.get("config") or {}
    if not isinstance(config, dict):
        raise ServiceError(
            f"request config must be a JSON object, got "
            f"{type(config).__name__}"
        )
    return EstimateRequest(
        ancestors=ancestors,
        descendants=descendants,
        method=meta["method"],
        workspace=(
            Workspace(int(workspace[0]), int(workspace[1]))
            if workspace is not None
            else None
        ),
        config=dict(config),
        deadline_s=meta.get("deadline_s"),
        # Older peers predate bounded staleness; absent means no bound.
        max_staleness_s=meta.get("max_staleness_s"),
        request_id=meta.get("request_id"),
    )


def _response_to_dict(response: EstimateResponse) -> dict[str, Any]:
    return response.to_dict()


def _response_from_dict(payload: dict[str, Any]) -> EstimateResponse:
    if payload.get("schema_version") != 1:
        raise ServiceError(
            f"unsupported response schema_version "
            f"{payload.get('schema_version')!r}"
        )
    return EstimateResponse(
        estimate=Estimate.from_dict(payload["estimate"]),
        status=str(payload["status"]),
        ladder_level=int(payload["ladder_level"]),
        ladder_name=str(payload["ladder_name"]),
        deadline_missed=bool(payload["deadline_missed"]),
        degraded_reason=payload.get("degraded_reason"),
        wait_s=float(payload["wait_s"]),
        service_s=float(payload["service_s"]),
        batch_size=int(payload["batch_size"]),
        request_id=str(payload["request_id"]),
        # Older peers predate routing; absent means "not routed".
        routed_method=payload.get("routed_method"),
        # Older peers predate live workspaces; absent means "not live".
        staleness_s=payload.get("staleness_s"),
        applied_seq=payload.get("applied_seq"),
    )


# ----------------------------------------------------------------------
# Binary envelope
# ----------------------------------------------------------------------


def _pack(header: dict[str, Any], frames: Sequence[np.ndarray]) -> bytes:
    """Assemble magic + version + JSON header + aligned raw frames.

    Frame offsets (relative to the aligned frame base) are appended to
    the header as it is packed, so callers list arrays and nothing else.
    """
    frame_meta = []
    offset = 0
    for array in frames:
        offset = _align(offset)
        frame_meta.append(
            {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    header = dict(header)
    header["frames"] = frame_meta
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    base = _align(_HEADER_FIXED + len(header_bytes))
    payload = bytearray(base + offset)
    payload[: len(MAGIC)] = MAGIC
    payload[len(MAGIC)] = WIRE_VERSION
    payload[len(MAGIC) + 1 : _HEADER_FIXED] = len(header_bytes).to_bytes(
        4, "little"
    )
    payload[_HEADER_FIXED : _HEADER_FIXED + len(header_bytes)] = header_bytes
    for meta, array in zip(frame_meta, frames):
        start = base + meta["offset"]
        payload[start : start + array.nbytes] = np.ascontiguousarray(
            array
        ).tobytes()
    return bytes(payload)


def _unpack(
    payload: bytes | bytearray | memoryview,
) -> tuple[dict[str, Any], list[np.ndarray]]:
    """Parse the envelope; frames are zero-copy views into ``payload``.

    Every frame must be laid out as :func:`_pack` writes it: a 1-D
    ``<i8`` array whose one-element shape gives its element count,
    64-byte aligned, after the previous frame and inside the payload.
    The checks are scalar comparisons per frame; a payload that fails
    one raises :class:`ServiceError` instead of decoding a wrong view.
    """
    view = memoryview(payload)
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise ServiceError("not a binary wire payload (bad magic)")
    if len(view) < _HEADER_FIXED:
        raise ServiceError(
            f"truncated wire payload: {len(view)} bytes, the fixed "
            f"header alone is {_HEADER_FIXED}"
        )
    version = view[len(MAGIC)]
    if version != WIRE_VERSION:
        raise ServiceError(
            f"unsupported wire version {version} "
            f"(this version reads {WIRE_VERSION})"
        )
    header_len = int.from_bytes(
        bytes(view[len(MAGIC) + 1 : _HEADER_FIXED]), "little"
    )
    base = _align(_HEADER_FIXED + header_len)
    if base > len(view):
        raise ServiceError(
            f"truncated wire payload: {len(view)} bytes, the header "
            f"claims {header_len} (frames start at {base})"
        )
    try:
        header = json.loads(
            bytes(view[_HEADER_FIXED : _HEADER_FIXED + header_len])
        )
    except (ValueError, RecursionError) as error:
        raise ServiceError(f"malformed wire header: {error}") from error
    if not isinstance(header, dict):
        raise ServiceError(
            f"wire header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    frames = header.get("frames", [])
    if not isinstance(frames, list):
        raise ServiceError("wire header 'frames' must be a list")
    room = len(view) - base
    end = 0
    arrays = []
    for index, meta in enumerate(frames):
        if not isinstance(meta, dict) or meta.get("dtype") != _FRAME_DTYPE.str:
            raise ServiceError(
                f"frame {index}: dtype must be {_FRAME_DTYPE.str!r}"
            )
        shape, offset = meta.get("shape"), meta.get("offset")
        if not (
            type(shape) is list
            and len(shape) == 1
            and type(shape[0]) is int
            and shape[0] >= 0
        ):
            raise ServiceError(
                f"frame {index}: shape must be [n] with integer n >= 0, "
                f"got {shape!r}"
            )
        if type(offset) is not int or offset < end or offset % _ALIGNMENT:
            raise ServiceError(
                f"frame {index}: offset must be a {_ALIGNMENT}-byte "
                f"aligned integer >= {end} (the previous frame's end), "
                f"got {offset!r}"
            )
        count = shape[0]
        end = offset + count * _FRAME_DTYPE.itemsize
        if end > room:
            raise ServiceError(
                f"frame {index}: bytes [{offset}, {end}) lie past the "
                f"payload's {room} frame bytes"
            )
        arrays.append(
            np.frombuffer(
                view, dtype=_FRAME_DTYPE, count=count, offset=base + offset
            )
        )
    return header, arrays


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def _operand_header(
    arena: OperandArena, frames: list[np.ndarray]
) -> dict[str, Any]:
    """One operand's field table; appends its arrays to ``frames``."""
    fields = {}
    for name, array in arena.wire_fields().items():
        fields[name] = len(frames)
        frames.append(array)
    node_set = arena.node_set
    return {
        "name": node_set._name,
        "fingerprint": node_set.fingerprint,
        "length": len(node_set),
        "fields": fields,
    }


def _operand_labels(meta: dict[str, Any]) -> tuple[str | None, str | None]:
    """An operand's optional ``name`` and ``fingerprint``, type-checked.

    The fingerprint is the sender's word: it is not re-hashed here (see
    the trust boundary in docs/API.md).
    """
    labels = meta.get("name"), meta.get("fingerprint")
    for key, value in zip(("name", "fingerprint"), labels):
        if value is not None and not isinstance(value, str):
            raise ServiceError(
                f"operand {key} must be a string, got "
                f"{type(value).__name__}"
            )
    return labels


def _operand_from_header(
    meta: dict[str, Any], arrays: Sequence[np.ndarray]
) -> NodeSet:
    views = {}
    for field, index in meta["fields"].items():
        if type(index) is not int or not 0 <= index < len(arrays):
            raise ServiceError(
                f"operand field {field!r} names frame {index!r}; the "
                f"payload has {len(arrays)}"
            )
        views[field] = arrays[index]
    length = len(views["starts"])
    for field, view in views.items():
        if len(view) != length:
            raise ServiceError(
                f"operand field {field!r} has {len(view)} codes, "
                f"'starts' has {length}"
            )
    name, fingerprint = _operand_labels(meta)
    arena = OperandArena.from_wire_views(
        views, name=name, fingerprint=fingerprint
    )
    return arena.node_set


def _json_codes(values: Any, field: str) -> np.ndarray:
    """A JSON code list as a 1-D int64 array; an empty list is empty.

    A list :func:`_parse_json_request` parsed from canonical text
    arrives as its array and passes through.  Any other list goes
    through ``array("q", ...)``, which accepts integers only, where
    numpy's typed conversion (as fast) truncates floats and parses
    strings: floats, strings, nulls, nested lists and integers beyond
    int64 are rejected, not truncated or wrapped.  JSON booleans are
    integers to Python's JSON reader and read as 0 and 1.
    """
    if isinstance(values, np.ndarray):
        return values
    if not isinstance(values, list):
        raise ServiceError(
            f"operand {field} must be a list, got {type(values).__name__}"
        )
    try:
        codes = array("q", values)
    except (TypeError, OverflowError) as error:
        raise ServiceError(
            f"operand {field} must be a flat list of int64 codes: {error}"
        ) from error
    return np.frombuffer(codes, dtype=np.int64)


def encode_request(
    request: EstimateRequest, wire_format: str = FORMAT_BINARY
) -> bytes:
    """Serialize a request in ``wire_format`` (binary by default)."""
    if wire_format == FORMAT_JSON:
        return encode_request_json(request)
    if wire_format != FORMAT_BINARY:
        raise ServiceError(f"unknown wire format {wire_format!r}")
    frames: list[np.ndarray] = []
    header = {
        "kind": "estimate_request",
        "request": _request_meta(request),
        "operands": {
            "ancestors": _operand_header(
                operand_arena(request.ancestors), frames
            ),
            "descendants": _operand_header(
                operand_arena(request.descendants), frames
            ),
        },
    }
    return _pack(header, frames)


def encode_request_json(request: EstimateRequest) -> bytes:
    """The JSON compatibility form: operand arrays as number lists."""
    document = {
        "kind": "estimate_request",
        "schema_version": WIRE_VERSION,
        "request": _request_meta(request),
        "operands": {
            role: {
                "name": operand._name,
                "fingerprint": operand.fingerprint,
                "starts": operand.starts.tolist(),
                "ends": operand.ends.tolist(),
            }
            for role, operand in (
                ("ancestors", request.ancestors),
                ("descendants", request.descendants),
            )
        },
    }
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def _parse_json(payload: bytes | bytearray | memoryview, what: str) -> Any:
    try:
        return json.loads(bytes(memoryview(payload)))
    except (ValueError, RecursionError) as error:
        raise ServiceError(f"malformed JSON {what}: {error}") from error


def _expect_kind(document: Any, kind: str) -> None:
    if not isinstance(document, dict):
        raise ServiceError(
            f"expected an {kind} object, got a JSON "
            f"{type(document).__name__}"
        )
    if document.get("kind") != kind:
        raise ServiceError(
            f"expected an {kind} payload, got {document.get('kind')!r}"
        )


def _decode_binary_request(
    payload: bytes | bytearray | memoryview,
) -> EstimateRequest:
    header, arrays = _unpack(payload)
    _expect_kind(header, "estimate_request")
    operands = header["operands"]
    ancestors = _operand_from_header(operands["ancestors"], arrays)
    descendants = _operand_from_header(operands["descendants"], arrays)
    return _request_from_meta(header["request"], ancestors, descendants)


#: The stdlib JSON decoder's scanner (its C accelerator where built):
#: ``_scan_value(text, i)`` parses the JSON value that starts at
#: ``text[i]`` exactly as :func:`json.loads` parses it inside a
#: document, and raises ``StopIteration`` when none starts there.
_scan_value = json.JSONDecoder().scan_once

#: Where :func:`_decode_json_request` reads operand code lists, as the
#: key table :func:`_scan_object` takes: a nested table is an object,
#: ``None`` a code list.
_REQUEST_CODE_LISTS = {
    "operands": {
        role: {"starts": None, "ends": None}
        for role in ("ancestors", "descendants")
    }
}

#: ``10**k`` for k in 1..17: a code below ``10**18`` has one digit more
#: than the number of these it reaches, and a larger one counts 18.
_POWERS_OF_TEN = 10 ** np.arange(1, 18, dtype=np.int64)


#: What the compact walk raises on text it leaves to ``json.loads``:
#: the end of the text, the scanner's errors (``StopIteration`` where
#: no value starts) and its own ``ValueError`` on text that is not
#: compact JSON.
_WALK_ERRORS = (IndexError, StopIteration, ValueError, RecursionError)


def _canonical_codes(body: bytes) -> np.ndarray | None:
    """The text between a code list's brackets as int64 codes, or
    ``None`` unless it is canonical: ASCII digits and commas, no empty
    field, no leading zero, and every code below ``10**18``.

    Canonical text parses in one ``np.fromstring`` call to the codes
    ``json.loads`` reads.  The byte checks come first, because
    ``fromstring`` fails on an empty field and accepts ``+``, whitespace
    and a trailing comma.  The digit count comes after, because it
    saturates on overflow and reads ``007`` as 7: a field of at most 18
    digits without a leading zero parses to a code with as many digits,
    and any other field to one with fewer (counted against
    ``_POWERS_OF_TEN``), so one sum over the codes checks every field.
    """
    if not body:
        return np.empty(0, dtype=np.int64)
    if (
        body.translate(None, b"0123456789,")
        or body.startswith(b",")
        or body.endswith(b",")
        or b",," in body
    ):
        return None
    codes = np.fromstring(body, dtype=np.int64, sep=",")
    reached = np.searchsorted(_POWERS_OF_TEN, codes, side="right")
    if len(codes) + int(reached.sum()) != len(body) - len(codes) + 1:
        return None
    return codes


def _scan_code_list(text: str, data: bytes, at: int) -> tuple[Any, int]:
    """The JSON value at ``text[at]`` and the index after it; a
    canonical code list comes back as its int64 array."""
    if text[at] == "[":
        close = data.find(b"]", at)
        if close > at:
            codes = _canonical_codes(data[at + 1 : close])
            if codes is not None:
                return codes, close + 1
    return _scan_value(text, at)


def _scan_object(
    text: str, data: bytes, at: int, code_lists: dict[str, Any]
) -> tuple[Any, int]:
    """The JSON value at ``text[at]`` and the index after it.

    An object written compactly (no whitespace between its tokens) is
    read here key by key, each key by the scanner's own string reader.
    The value under a key that ``code_lists`` maps to ``None`` goes to
    :func:`_scan_code_list`, under a key mapped to a nested table to
    this function with that table, and under any other key to the
    scanner.  A repeated key keeps its last value, as in
    :func:`json.loads`.  A value that is not an object goes to the
    scanner whole; an object that is not compact raises ``ValueError``.
    """
    if text[at] != "{":
        return _scan_value(text, at)
    document: dict[str, Any] = {}
    at += 1
    if text[at] == "}":
        return document, at + 1
    while True:
        if text[at] != '"':
            raise ValueError("not compact JSON")
        key, at = scanstring(text, at + 1)
        if text[at] != ":":
            raise ValueError("not compact JSON")
        if key not in code_lists:
            value, at = _scan_value(text, at + 1)
        elif code_lists[key] is None:
            value, at = _scan_code_list(text, data, at + 1)
        else:
            value, at = _scan_object(text, data, at + 1, code_lists[key])
        document[key] = value
        if text[at] == "}":
            return document, at + 1
        if text[at] != ",":
            raise ValueError("not compact JSON")
        at += 1


def _parse_json_request(payload: bytes | bytearray | memoryview) -> Any:
    """The JSON request document, canonical operand code lists as int64
    arrays.

    A compact ASCII document, as :func:`encode_request_json` writes
    one, is walked by :func:`_scan_object`.  Any other payload, and any
    the walk refuses, goes to :func:`json.loads` whole, so every
    document and every error is the one ``json.loads`` gives.  Text
    opening with ``{"`` has no byte-order mark and no NUL byte among its
    first two, so ``json.loads`` reads it as UTF-8: an ASCII payload is
    read as its bytes, and a character index is a byte index.
    """
    data = bytes(memoryview(payload))
    if data.startswith(b'{"') and data.isascii():
        text = data.decode("ascii")
        try:
            document, end = _scan_object(text, data, 0, _REQUEST_CODE_LISTS)
        except _WALK_ERRORS:
            pass
        else:
            if end == len(text):
                return document
    return _parse_json(data, "request")


def _decode_json_request(
    payload: bytes | bytearray | memoryview,
) -> EstimateRequest:
    document = _parse_json_request(payload)
    _expect_kind(document, "estimate_request")
    operands = {}
    for role in ("ancestors", "descendants"):
        meta = document["operands"][role]
        name, fingerprint = _operand_labels(meta)
        operands[role] = NodeSet.from_arrays(
            _json_codes(meta["starts"], f"{role} starts"),
            _json_codes(meta["ends"], f"{role} ends"),
            name=name,
            fingerprint=fingerprint,
        )
    return _request_from_meta(
        document["request"], operands["ancestors"], operands["descendants"]
    )


def decode_request(
    payload: bytes | bytearray | memoryview,
) -> tuple[EstimateRequest, str]:
    """Parse a request payload in either format.

    Returns ``(request, format)`` — the detected format lets an endpoint
    answer in kind.  Binary operand arrays are zero-copy views into
    ``payload``; keep the buffer alive as long as the request.  Any
    structurally invalid payload raises :class:`ServiceError`.
    """
    detected = sniff_format(payload)
    decode = (
        _decode_binary_request
        if detected == FORMAT_BINARY
        else _decode_json_request
    )
    try:
        return decode(payload), detected
    except ServiceError:
        raise
    except _STRUCTURAL_ERRORS as error:
        raise ServiceError(
            f"malformed {detected} request: "
            f"{type(error).__name__}: {error}"
        ) from error


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


def encode_response(
    response: EstimateResponse, wire_format: str = FORMAT_BINARY
) -> bytes:
    """Serialize a response in ``wire_format``.

    Responses carry no operand arrays, so the binary form is the same
    JSON document inside the framed envelope — the caller still gets a
    single self-describing format for both directions.
    """
    if wire_format == FORMAT_JSON:
        document = {
            "kind": "estimate_response",
            "schema_version": WIRE_VERSION,
            "response": _response_to_dict(response),
        }
        return json.dumps(document, separators=(",", ":")).encode("utf-8")
    if wire_format != FORMAT_BINARY:
        raise ServiceError(f"unknown wire format {wire_format!r}")
    header = {
        "kind": "estimate_response",
        "response": _response_to_dict(response),
    }
    return _pack(header, [])


def decode_response(
    payload: bytes | bytearray | memoryview,
) -> EstimateResponse:
    """Parse a response payload in either format.

    Any structurally invalid payload raises :class:`ServiceError`.
    """
    detected = sniff_format(payload)
    try:
        if detected == FORMAT_BINARY:
            document, __ = _unpack(payload)
        else:
            document = _parse_json(payload, "response")
        _expect_kind(document, "estimate_response")
        return _response_from_dict(document["response"])
    except ServiceError:
        raise
    except _STRUCTURAL_ERRORS as error:
        raise ServiceError(
            f"malformed {detected} response: "
            f"{type(error).__name__}: {error}"
        ) from error
