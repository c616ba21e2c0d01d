"""The service wire formats: binary zero-copy envelope and JSON.

Contracts pinned here:

* both formats round-trip every :class:`EstimateRequest` and
  :class:`EstimateResponse` exactly — operand arrays, names,
  fingerprints, config, workspace, deadlines, and the response's
  non-finite floats (``inf`` mre travels as the string ``"Infinity"``);
* binary decode is zero-copy — decoded operand arrays alias the payload
  buffer, including the shipped sorted-end frame;
* format negotiation prefers binary, defaults to JSON when the peer
  states no preference, and rejects accept lists with no known entry;
* :meth:`EstimationService.estimate_wire` answers in the arrival format
  and the two formats produce bit-identical estimates for seeded
  requests; ``stats()["wire"]`` accounts encode/decode separately;
* malformed payloads (bad version, wrong kind, unserializable config)
  raise :class:`ServiceError` instead of crashing the worker, and so do
  structural lies — frame dtype/shape/offset, field indices, missing
  keys, non-integer JSON code lists — that would otherwise decode a
  wrong view or escape as an untyped error;
* the JSON decoder's compact walk agrees with the plain ``json.loads``
  + ``array("q")`` decoder on every payload of a seeded corpus: same
  outcome, same ``ServiceError`` text, identical decoded fields.

Every test here fails on a ``DeprecationWarning``, so a numpy release
that deprecates a call on the decode path (``np.fromstring``'s text
mode) fails the suite instead of warning on every request.
"""

from __future__ import annotations

import json
import math
import re
from array import array

import numpy as np
import pytest

from repro.core.element import Element
from repro.core.errors import ServiceError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.qa.oracles import rewrite_wire_header
from repro.service import wire
from repro.service.engine import EstimationService
from repro.service.request import EstimateRequest, EstimateResponse

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


@pytest.fixture
def operands(xmark_small):
    tree = xmark_small.tree
    return tree.node_set("desp"), tree.node_set("text")


def _request(a, d, **overrides):
    fields = {
        "ancestors": a,
        "descendants": d,
        "method": "IM",
        "workspace": Workspace(0, 50_000),
        "config": {"num_samples": 16, "seed": 7},
        "deadline_s": None,
        "request_id": "req-wire-1",
    }
    fields.update(overrides)
    return EstimateRequest(**fields)


def _response(**overrides):
    fields = {
        "estimate": Estimate(
            value=1234.5,
            estimator="IM",
            mre=math.inf,
            details={"samples": 16, "backend": "rank"},
        ),
        "status": "ok",
        "ladder_level": 0,
        "ladder_name": "full",
        "deadline_missed": False,
        "degraded_reason": None,
        "wait_s": 0.001,
        "service_s": 0.002,
        "batch_size": 3,
        "request_id": "req-wire-1",
    }
    fields.update(overrides)
    return EstimateResponse(**fields)


def _assert_requests_equal(got: EstimateRequest, want: EstimateRequest):
    for role in ("ancestors", "descendants"):
        mine, theirs = getattr(got, role), getattr(want, role)
        assert np.array_equal(mine.starts, theirs.starts)
        assert np.array_equal(mine.ends, theirs.ends)
        assert mine._name == theirs._name
        assert mine.fingerprint == theirs.fingerprint
    assert got.method == want.method
    assert got.workspace == want.workspace
    assert got.config == want.config
    assert got.deadline_s == want.deadline_s
    assert got.request_id == want.request_id


class TestNegotiation:
    def test_no_preference_defaults_to_json(self):
        assert wire.negotiate_format(None) == wire.FORMAT_JSON
        assert wire.negotiate_format([]) == wire.FORMAT_JSON

    def test_binary_preferred_when_offered(self):
        assert wire.negotiate_format(["json", "binary"]) == wire.FORMAT_BINARY
        assert wire.negotiate_format(["binary"]) == wire.FORMAT_BINARY
        assert wire.negotiate_format(["json"]) == wire.FORMAT_JSON

    def test_unknown_entries_ignored(self):
        assert (
            wire.negotiate_format(["msgpack", "json"]) == wire.FORMAT_JSON
        )

    def test_no_common_format_raises(self):
        with pytest.raises(ServiceError, match="no mutually supported"):
            wire.negotiate_format(["msgpack", "protobuf"])

    def test_sniff(self, operands):
        a, d = operands
        request = _request(a, d)
        binary = wire.encode_request(request, wire.FORMAT_BINARY)
        as_json = wire.encode_request(request, wire.FORMAT_JSON)
        assert wire.sniff_format(binary) == wire.FORMAT_BINARY
        assert wire.sniff_format(as_json) == wire.FORMAT_JSON
        assert wire.sniff_format(b"") == wire.FORMAT_JSON


class TestRequestRoundTrip:
    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_exact(self, wire_format, operands):
        a, d = operands
        request = _request(a, d)
        payload = wire.encode_request(request, wire_format)
        decoded, detected = wire.decode_request(payload)
        assert detected == wire_format
        _assert_requests_equal(decoded, request)

    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_defaults(self, wire_format, operands):
        a, d = operands
        request = _request(a, d, workspace=None, config={}, deadline_s=0.25)
        decoded, __ = wire.decode_request(
            wire.encode_request(request, wire_format)
        )
        _assert_requests_equal(decoded, request)

    def test_binary_is_zero_copy(self, operands):
        a, d = operands
        payload = wire.encode_request(_request(a, d), wire.FORMAT_BINARY)
        decoded, __ = wire.decode_request(payload)
        # np.shares_memory coerces a raw bytes operand through a copy;
        # compare against a view of the payload buffer instead.
        buffer = np.frombuffer(payload, dtype=np.uint8)
        for operand in (decoded.ancestors, decoded.descendants):
            assert np.shares_memory(operand.starts, buffer)
            assert np.shares_memory(operand.ends, buffer)
            # the sorted-end frame ships too: no re-sort on arrival
            assert np.shares_memory(operand.sorted_ends, buffer)

    def test_frames_are_aligned(self, operands):
        a, d = operands
        payload = wire.encode_request(_request(a, d), wire.FORMAT_BINARY)
        header, arrays = wire._unpack(payload)
        for meta in header["frames"]:
            assert meta["offset"] % 64 == 0
        for array, meta in zip(arrays, header["frames"]):
            assert array.dtype == np.dtype(meta["dtype"])

    def test_unserializable_config_raises(self, operands):
        a, d = operands
        request = _request(a, d, config={"rng": object()})
        for wire_format in wire.KNOWN_FORMATS:
            with pytest.raises(ServiceError, match="not wire-serializable"):
                wire.encode_request(request, wire_format)

    def test_unknown_format_raises(self, operands):
        a, d = operands
        with pytest.raises(ServiceError, match="unknown wire format"):
            wire.encode_request(_request(a, d), "msgpack")


class TestResponseRoundTrip:
    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_exact(self, wire_format):
        response = _response()
        decoded = wire.decode_response(
            wire.encode_response(response, wire_format)
        )
        assert decoded == response

    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_non_finite_floats(self, wire_format):
        response = _response(
            estimate=Estimate(
                value=0.0,
                estimator="PL",
                mre=math.inf,
                details={"bad": float("nan"), "neg": -math.inf},
            ),
            status="degraded",
            degraded_reason="deadline",
            deadline_missed=True,
        )
        decoded = wire.decode_response(
            wire.encode_response(response, wire_format)
        )
        assert decoded.estimate.mre == math.inf
        # Estimate's schema converts value/mre back to floats; details
        # keep the JSON sentinel strings (the documented to_dict form).
        assert decoded.estimate.details["bad"] == "NaN"
        assert decoded.estimate.details["neg"] == "-Infinity"
        assert decoded.degraded_reason == "deadline"

    def test_binary_response_has_no_frames(self):
        payload = wire.encode_response(_response(), wire.FORMAT_BINARY)
        header, arrays = wire._unpack(payload)
        assert header["frames"] == []
        assert arrays == []


class TestEmptyOperands:
    @pytest.fixture
    def request_with_empty(self, operands):
        a, __ = operands
        return _request(a, NodeSet([], name="none"))

    def test_unpack_empty_frames(self, request_with_empty):
        payload = wire.encode_request(request_with_empty, wire.FORMAT_BINARY)
        header, arrays = wire._unpack(payload)
        empty = header["operands"]["descendants"]["fields"]
        for index in empty.values():
            assert header["frames"][index]["shape"] == [0]
            assert arrays[index].shape == (0,)
            assert arrays[index].dtype == np.int64
        # The payload ends with the empty operand's frames, at their offset.
        assert header["frames"][-1]["shape"] == [0]

    def test_unpack_no_frames(self, request_with_empty):
        payload = rewrite_wire_header(
            wire.encode_request(request_with_empty, wire.FORMAT_BINARY),
            lambda header: header.update(frames=[]),
        )
        assert wire._unpack(payload)[1] == []
        with pytest.raises(ServiceError, match="names frame"):
            wire.decode_request(payload)

    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_empty_operand_round_trips(self, wire_format, request_with_empty):
        decoded, __ = wire.decode_request(
            wire.encode_request(request_with_empty, wire_format)
        )
        assert len(decoded.descendants) == 0
        assert decoded.descendants.starts.dtype == np.int64
        _assert_requests_equal(decoded, request_with_empty)


class TestMalformedPayloads:
    def test_bad_version(self, operands):
        a, d = operands
        payload = bytearray(
            wire.encode_request(_request(a, d), wire.FORMAT_BINARY)
        )
        payload[len(wire.MAGIC)] = 99
        with pytest.raises(ServiceError, match="unsupported wire version"):
            wire.decode_request(bytes(payload))

    def test_wrong_kind(self, operands):
        a, d = operands
        request_payload = wire.encode_request(
            _request(a, d), wire.FORMAT_BINARY
        )
        with pytest.raises(ServiceError, match="estimate_response"):
            wire.decode_response(request_payload)
        response_payload = wire.encode_response(
            _response(), wire.FORMAT_BINARY
        )
        with pytest.raises(ServiceError, match="estimate_request"):
            wire.decode_request(response_payload)

    @pytest.mark.parametrize("payload", [None, 123, "{}", 1.5], ids=repr)
    def test_payload_must_be_bytes_like(self, payload):
        with pytest.raises(ServiceError, match="must be bytes-like"):
            wire.decode_request(payload)

    def test_garbage_is_sniffed_as_json_and_rejected(self):
        with pytest.raises(ServiceError, match="malformed JSON"):
            wire.decode_request(b"\x00\x01\x02 not json")
        with pytest.raises(ServiceError, match="malformed JSON"):
            wire.decode_response(b"{truncated")

    def test_bad_response_schema_version(self):
        document = json.loads(
            wire.encode_response(_response(), wire.FORMAT_JSON)
        )
        document["response"]["schema_version"] = 42
        with pytest.raises(ServiceError, match="schema_version"):
            wire.decode_response(json.dumps(document).encode())

    # Structural lies.  Small operands whose ancestor starts are
    # [0, 2, 10], so a wrong view is visible at a glance.

    @pytest.fixture
    def tiny(self):
        a = NodeSet(
            [Element("a", 0, 20), Element("a", 2, 9), Element("a", 10, 19)],
            name="a",
        )
        d = NodeSet([Element("d", 3, 4), Element("d", 11, 12)], name="d")
        return _request(a, d, workspace=Workspace(0, 20))

    @staticmethod
    def _frame(tiny, role="ancestors", field="starts"):
        payload = wire.encode_request(tiny, wire.FORMAT_BINARY)
        header, __ = wire._unpack(payload)
        return payload, header, header["operands"][role]["fields"][field]

    @staticmethod
    def _rewrite_frame(payload, index, key, value):
        def mutate(header):
            header["frames"][index][key] = value

        return rewrite_wire_header(payload, mutate)

    @staticmethod
    def _json(tiny, mutate):
        document = json.loads(wire.encode_request(tiny, wire.FORMAT_JSON))
        mutate(document)
        return json.dumps(document).encode()

    @pytest.mark.parametrize("dtype", ["<f8", "<i4"])
    def test_frame_dtype_lie(self, tiny, dtype):
        # Viewed as <f8 the starts [0, 2, 10] read [0, 0, 0]; as <i4
        # the frame halves and the ends go wrong.
        payload, __, index = self._frame(tiny)
        with pytest.raises(ServiceError, match="dtype"):
            wire.decode_request(
                self._rewrite_frame(payload, index, "dtype", dtype)
            )

    def test_negative_frame_offset(self, tiny):
        # Unchecked, it reads header bytes as region codes.
        payload, __, index = self._frame(tiny)
        with pytest.raises(ServiceError, match="offset"):
            wire.decode_request(
                self._rewrite_frame(payload, index, "offset", -64)
            )

    def test_misaligned_frame_offset(self, tiny):
        payload, header, index = self._frame(tiny)
        offset = header["frames"][index]["offset"] + 8
        with pytest.raises(ServiceError, match="offset"):
            wire.decode_request(
                self._rewrite_frame(payload, index, "offset", offset)
            )

    def test_json_float_codes(self, tiny):
        # A typed numpy conversion truncates them to [0, 2, 10].
        def mutate(document):
            document["operands"]["ancestors"]["starts"] = [0.5, 2.7, 10.2]

        with pytest.raises(ServiceError, match="int64 codes"):
            wire.decode_request(self._json(tiny, mutate))

    @pytest.mark.parametrize(
        "codes", [["0", "2", "10"], [[0], [2], [10]], [0, None, 10]]
    )
    def test_json_non_integer_codes(self, tiny, codes):
        def mutate(document):
            document["operands"]["ancestors"]["starts"] = codes

        with pytest.raises(ServiceError, match="int64 codes"):
            wire.decode_request(self._json(tiny, mutate))

    def test_oversized_shape(self, tiny):
        # Unchecked, np.frombuffer raises ValueError.
        payload, __, index = self._frame(tiny)
        with pytest.raises(ServiceError, match="past the"):
            wire.decode_request(
                self._rewrite_frame(payload, index, "shape", [1 << 40])
            )

    @pytest.mark.parametrize("shape", [[3, 1], [], [-1], [3.0], "3"])
    def test_shape_not_one_dimensional_count(self, tiny, shape):
        payload, __, index = self._frame(tiny)
        with pytest.raises(ServiceError, match="shape"):
            wire.decode_request(
                self._rewrite_frame(payload, index, "shape", shape)
            )

    def test_object_dtype(self, tiny):
        # Unchecked, np.frombuffer raises ValueError.
        payload, __, index = self._frame(tiny)
        with pytest.raises(ServiceError, match="dtype"):
            wire.decode_request(
                self._rewrite_frame(payload, index, "dtype", "|O")
            )

    def test_offset_past_the_end(self, tiny):
        # Unchecked, np.frombuffer raises ValueError.
        payload, __, index = self._frame(tiny)
        with pytest.raises(ServiceError, match="past the"):
            wire.decode_request(
                self._rewrite_frame(
                    payload, index, "offset", wire._align(len(payload))
                )
            )

    @pytest.mark.parametrize("target", [6, 99, -1, 1.0, None])
    def test_field_index_out_of_range(self, tiny, target):
        # Unchecked, 6 and 99 raise IndexError and -1 reads the last
        # frame.
        def mutate(header):
            header["operands"]["ancestors"]["fields"]["starts"] = target

        payload = wire.encode_request(tiny, wire.FORMAT_BINARY)
        with pytest.raises(ServiceError, match="names frame"):
            wire.decode_request(rewrite_wire_header(payload, mutate))

    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_operands_missing(self, tiny, wire_format):
        # Unchecked, the lookup raises KeyError.
        payload = wire.encode_request(tiny, wire_format)
        if wire_format == wire.FORMAT_BINARY:
            payload = rewrite_wire_header(
                payload, lambda header: header.pop("operands")
            )
        else:
            payload = self._json(tiny, lambda doc: doc.pop("operands"))
        with pytest.raises(ServiceError, match="KeyError"):
            wire.decode_request(payload)

    def test_json_starts_ends_length_mismatch(self, tiny):
        # Unchecked, NodeSet.from_arrays raises InvalidRegionCodeError.
        def mutate(document):
            document["operands"]["ancestors"]["ends"].pop()

        with pytest.raises(ServiceError, match="aligned"):
            wire.decode_request(self._json(tiny, mutate))

    @pytest.mark.parametrize("field", ["ends", "sorted_ends"])
    def test_binary_frame_length_mismatch(self, tiny, field):
        # Unchecked, a short sorted_ends frame decodes silently.
        payload, __, index = self._frame(tiny, field=field)
        with pytest.raises(ServiceError, match="codes"):
            wire.decode_request(
                self._rewrite_frame(payload, index, "shape", [2])
            )

    def test_json_integer_beyond_int64(self, tiny):
        # Unchecked, the int64 conversion raises OverflowError.
        def mutate(document):
            document["operands"]["descendants"]["ends"][0] = 2**63

        with pytest.raises(ServiceError, match="int64 codes"):
            wire.decode_request(self._json(tiny, mutate))

    def test_json_top_level_array(self, tiny):
        # Unchecked, the header lookup raises AttributeError.
        payload = json.dumps(
            [json.loads(wire.encode_request(tiny, wire.FORMAT_JSON))]
        ).encode()
        with pytest.raises(ServiceError, match="object"):
            wire.decode_request(payload)

    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_every_truncation(self, tiny, wire_format):
        payload = wire.encode_request(tiny, wire_format)
        for cut in range(len(payload)):
            with pytest.raises(ServiceError):
                wire.decode_request(payload[:cut])

    def test_response_structure_errors_are_typed(self):
        document = json.loads(
            wire.encode_response(_response(), wire.FORMAT_JSON)
        )
        del document["response"]["status"]
        with pytest.raises(ServiceError, match="KeyError"):
            wire.decode_response(json.dumps(document).encode())
        with pytest.raises(ServiceError, match="object"):
            wire.decode_response(b"[1, 2]")


class TestServiceWire:
    @pytest.mark.parametrize("wire_format", wire.KNOWN_FORMATS)
    def test_answers_in_arrival_format(self, wire_format, operands):
        a, d = operands
        request = _request(a, d)
        with EstimationService(workers=0) as service:
            reply = service.estimate_wire(
                wire.encode_request(request, wire_format)
            )
        assert wire.sniff_format(reply) == wire_format
        response = wire.decode_response(reply)
        assert response.status == "ok"
        assert response.request_id == request.request_id
        assert response.estimate.value >= 0

    def test_formats_bit_identical_for_seeded_requests(self, operands):
        a, d = operands
        values = {}
        for wire_format in wire.KNOWN_FORMATS:
            with EstimationService(workers=0) as service:
                reply = service.estimate_wire(
                    wire.encode_request(_request(a, d), wire_format)
                )
            response = wire.decode_response(reply)
            values[wire_format] = (
                response.estimate.value,
                response.estimate.details,
            )
        assert values["binary"] == values["json"]

    def test_matches_direct_estimate(self, operands):
        a, d = operands
        request = _request(a, d)
        with EstimationService(workers=0) as service:
            direct = service.estimate(
                a, d, "IM", workspace=request.workspace, **request.config
            )
            reply = service.estimate_wire(
                wire.encode_request(request, wire.FORMAT_BINARY)
            )
        response = wire.decode_response(reply)
        assert response.estimate.value == direct.estimate.value
        assert response.estimate.details == direct.estimate.details

    def test_stats_report_wire_timers(self, operands):
        a, d = operands
        with EstimationService(workers=0) as service:
            for wire_format in wire.KNOWN_FORMATS:
                service.estimate_wire(
                    wire.encode_request(_request(a, d), wire_format)
                )
            stats = service.stats()
        assert stats["wire"]["requests"] == 2
        assert stats["wire"]["decode_mean_s"] > 0
        assert stats["wire"]["encode_mean_s"] > 0
        assert stats["wire"]["decode_p99_s"] >= stats["wire"]["decode_mean_s"]

    def test_decoded_operands_estimate_like_originals(self, operands):
        # The zero-copy node sets coming off the wire must behave as
        # first-class operands: same fingerprint, same seeded estimate.
        a, d = operands
        decoded, __ = wire.decode_request(
            wire.encode_request(_request(a, d), wire.FORMAT_BINARY)
        )
        from repro.estimators.im_sampling import IMSamplingEstimator

        want = IMSamplingEstimator(num_samples=16, seed=7).estimate(a, d)
        got = IMSamplingEstimator(num_samples=16, seed=7).estimate(
            decoded.ancestors, decoded.descendants
        )
        assert got.value == want.value
        assert got.details == want.details


# ----------------------------------------------------------------------
# The JSON decoder against its reference
# ----------------------------------------------------------------------


def _reference_json_decode(payload: bytes) -> EstimateRequest:
    """The JSON request decoder the compact walk must agree with: the
    whole payload through ``json.loads``, each code list through
    ``array("q")``, and errors wrapped as :func:`wire.decode_request`
    wraps them."""

    def codes(values, field):
        if not isinstance(values, list):
            raise ServiceError(
                f"operand {field} must be a list, got "
                f"{type(values).__name__}"
            )
        try:
            typed = array("q", values)
        except (TypeError, OverflowError) as error:
            raise ServiceError(
                f"operand {field} must be a flat list of int64 codes: "
                f"{error}"
            ) from error
        return np.frombuffer(typed, dtype=np.int64)

    def decode():
        document = wire._parse_json(payload, "request")
        wire._expect_kind(document, "estimate_request")
        operands = {}
        for role in ("ancestors", "descendants"):
            meta = document["operands"][role]
            name, fingerprint = wire._operand_labels(meta)
            operands[role] = NodeSet.from_arrays(
                codes(meta["starts"], f"{role} starts"),
                codes(meta["ends"], f"{role} ends"),
                name=name,
                fingerprint=fingerprint,
            )
        return wire._request_from_meta(
            document["request"], operands["ancestors"], operands["descendants"]
        )

    try:
        return decode()
    except ServiceError:
        raise
    except wire._STRUCTURAL_ERRORS as error:
        raise ServiceError(
            f"malformed json request: {type(error).__name__}: {error}"
        ) from error


def _decode_outcome(decode, payload: bytes) -> str:
    """What ``decode`` makes of ``payload``, as comparable text: the
    error's type and message, or every decoded field.  An auto-minted
    ``req-N`` id (the payload names none) reads ``req-N``."""
    try:
        request = decode(payload)
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    fields = {
        role: (
            operand.starts.dtype.str,
            operand.starts.tolist(),
            operand.ends.dtype.str,
            operand.ends.tolist(),
            operand._name,
            operand.fingerprint,
        )
        for role, operand in (
            ("ancestors", request.ancestors),
            ("descendants", request.descendants),
        )
    }
    request_id = request.request_id
    if isinstance(request_id, str):
        request_id = re.sub(r"^req-\d+$", "req-N", request_id)
    fields.update(
        method=request.method,
        workspace=request.workspace,
        config=request.config,
        deadline_s=request.deadline_s,
        max_staleness_s=request.max_staleness_s,
        request_id=request_id,
    )
    # repr, not ==: a NaN a mutation writes into config equals itself
    # only as text.
    return "ok: " + repr(fields)


def _json_decode(payload: bytes) -> EstimateRequest:
    request, detected = wire.decode_request(payload)
    assert detected == wire.FORMAT_JSON
    return request


#: Codes either side of every digit-count boundary the fast parse
#: checks, and int64's own end.
_BOUNDARY_CODES = [
    0, 9, 10, 99, 100, 10**17 - 1, 10**17, 10**18 - 1, 10**18, 2**63 - 1
]


def _random_codes(rng, count: int) -> np.ndarray:
    kind = int(rng.integers(5))
    if kind == 0:
        return rng.integers(0, 1000, count)
    if kind == 1:
        return rng.integers(0, 10**7, count)
    if kind == 2:
        return rng.choice(np.array(_BOUNDARY_CODES, dtype=np.int64), count)
    if kind == 3:
        return rng.integers(0, 2**63 - 1, count, dtype=np.int64)
    return rng.integers(-1000, 1000, count)


def _random_request(rng) -> EstimateRequest:
    operands = []
    for name in ("a", "d"):
        count = int(rng.choice([0, 1, 2, 5, 40]))
        operands.append(
            NodeSet.from_arrays(
                _random_codes(rng, count),
                _random_codes(rng, count),
                name=[name, None, "é", 'x"starts'][int(rng.integers(4))],
            )
        )
    config = {"num_samples": int(rng.integers(1, 200)), "seed": 7}
    if rng.random() < 0.3:
        config["starts"] = [1, 2, 3]
    return EstimateRequest(
        ancestors=operands[0],
        descendants=operands[1],
        method="IM",
        workspace=None if rng.random() < 0.2 else Workspace(0, 10**6),
        config=config,
        deadline_s=None if rng.random() < 0.5 else 0.25,
        request_id=f"req-{int(rng.integers(100))}",
    )


#: What the byte-level mutations write: JSON structure, number syntax,
#: whitespace and letters.
_MUTATION_BYTES = b'0123456789,[]{}":\\ -+.eE' + b" \t\n\r" + b"aeflnrstux"


def _mutated(rng, payload: bytes) -> bytes:
    text = bytearray(payload)
    for __ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(text) + 1))
        byte = _MUTATION_BYTES[int(rng.integers(len(_MUTATION_BYTES)))]
        edit = int(rng.integers(3)) if at < len(text) else 1
        if edit == 0:
            text[at] = byte
        elif edit == 1:
            text.insert(at, byte)
        else:
            del text[at]
    return bytes(text)


def _spaced(payload: bytes) -> bytes:
    return json.dumps(json.loads(payload)).encode("utf-8")


def _hostile_payloads() -> list[tuple[str, bytes]]:
    """Named payloads for the cases a compact walk could get wrong."""
    a = NodeSet.from_arrays([0, 2, 10], [20, 9, 19], name="a")
    d = NodeSet.from_arrays([3, 11], [4, 12], name="d")
    request = _request(a, d, workspace=Workspace(0, 20))
    text = wire.encode_request(request, wire.FORMAT_JSON).decode()
    starts = '"starts":[0,2,10]'
    assert text.count(starts) == 1

    def with_starts(replacement: str) -> bytes:
        return text.replace(starts, replacement).encode()

    cases = [
        ("canonical", text.encode()),
        ("spaced", _spaced(text.encode())),
        ('key x"starts', with_starts('"x\\"starts":[5,6],' + starts)),
        ("escaped starts key", with_starts('"st\\u0061rts":[0,2,10]')),
        ("starts in config", wire.encode_request(
            _request(a, d, config={"seed": 7, "starts": [5, 6]}),
            wire.FORMAT_JSON,
        )),
        ("duplicate starts", with_starts('"starts":[7,8],' + starts)),
        ("duplicate starts, first float",
         with_starts('"starts":[1.5],' + starts)),
        ("duplicate starts, last float",
         with_starts(starts + ',"starts":[1.5]')),
        ("duplicate operands", text.replace(
            '{"kind"', '{"operands":[],"kind"', 1).encode()),
        ("operands a list", text.replace(
            '"operands":{', '"operands":[{', 1)[:-1].encode() + b"]}"),
        ("starts a string", with_starts('"starts":"0,2,10"')),
        ("starts null", with_starts('"starts":null')),
        ("starts nested", with_starts('"starts":[[0],[2],[10]]')),
        ("starts empty", with_starts('"starts":[]')),
        ("-0", with_starts('"starts":[-0,2,10]')),
        ("true", with_starts('"starts":[true,2,10]')),
        ("NaN", with_starts('"starts":[NaN,2,10]')),
        ("exponent", with_starts('"starts":[0,2,1e1]')),
        ("space after [", with_starts('"starts":[ 0,2,10]')),
        ("space before ]", with_starts('"starts":[0,2,10 ]')),
        ("space after comma", with_starts('"starts":[0, 2,10]')),
        ("leading zero, first", with_starts('"starts":[00,2,10]')),
        ("leading zero, inner", with_starts('"starts":[0,02,10]')),
        ("zero inner", with_starts('"starts":[5,0,10]')),
        ("trailing comma", with_starts('"starts":[0,2,10,]')),
        ("leading plus", with_starts('"starts":[+0,2,10]')),
        ("empty field", with_starts('"starts":[0,,2,10]')),
        ("leading comma", with_starts('"starts":[,0,2,10]')),
        ("leading whitespace", b" " + text.encode()),
        ("trailing newline", text.encode() + b"\n"),
        ("extra data", text.encode() + b"x"),
        ("UTF-8 BOM", b"\xef\xbb\xbf" + text.encode()),
        ("raw UTF-8 name",
         text.replace('"name":"a"', '"name":"é"').encode("utf-8")),
    ]
    for code in (
        10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63,
        9999999999999999999, 10**19, 99999999999999999999,
    ):
        cases.append(
            (f"{len(str(code))}-digit code {code}",
             with_starts(f'"starts":[0,{code},10]'))
        )
    for encoding in ("utf-16", "utf-16-le", "utf-16-be", "utf-32",
                     "utf-32-le", "utf-32-be"):
        cases.append((encoding, text.encode(encoding)))
    return cases


class TestJsonDecodeDifferential:
    """The compact walk and its fast code-list parse change no outcome:
    on every payload the decoder and the reference agree on the outcome,
    the ``ServiceError`` text and every decoded field, and every error
    is a ``ServiceError``."""

    @staticmethod
    def _corpus() -> list[tuple[str, bytes]]:
        rng = np.random.default_rng(20030609)
        hostile = _hostile_payloads()
        corpus = list(hostile)
        for index in range(40):
            canonical = wire.encode_request(
                _random_request(rng), wire.FORMAT_JSON
            )
            for form, payload in (
                ("canonical", canonical),
                ("spaced", _spaced(canonical)),
            ):
                corpus.append((f"request {index} {form}", payload))
                for mutation in range(25):
                    corpus.append(
                        (
                            f"request {index} {form} mutation {mutation}",
                            _mutated(rng, payload),
                        )
                    )
        # Every truncation of the small request, compact and spaced.
        for label, payload in hostile[:2]:
            corpus.extend(
                (f"{label} truncated to {cut}", payload[:cut])
                for cut in range(len(payload))
            )
        return corpus

    def test_no_mismatch(self, monkeypatch):
        fast = []
        canonical_codes = wire._canonical_codes

        def counted(body):
            codes = canonical_codes(body)
            if body:
                fast.append(codes is not None)
            return codes

        monkeypatch.setattr(wire, "_canonical_codes", counted)
        mismatches, untyped, accepted = [], [], 0
        for label, payload in self._corpus():
            want = _decode_outcome(_reference_json_decode, payload)
            got = _decode_outcome(_json_decode, payload)
            if got != want:
                mismatches.append(f"{label}: {got!r} != {want!r}")
            if not got.startswith(("ok: ", "ServiceError: ")):
                untyped.append(f"{label}: {got!r}")
            accepted += want.startswith("ok: ")
        assert mismatches == [], "\n".join(mismatches[:5])
        assert untyped == [], "\n".join(untyped[:5])
        # The corpus reaches both paths with non-empty lists, and both
        # outcomes.
        assert fast.count(True) > 500 and fast.count(False) > 100
        assert accepted > 100
