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
  wrong view or escape as an untyped error.
"""

from __future__ import annotations

import json
import math

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
