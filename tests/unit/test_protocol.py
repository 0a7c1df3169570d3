"""The service protocol: golden schemas, error codes, versioning, id echo."""

import io
import json
import re

import pytest

from repro.service import daemon, serve
from repro.service.protocol import (
    DEFAULT_SIZE,
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_ERROR_CODES,
    ServiceError,
    check_response,
    coerce_size,
    encode_size,
    error_envelope,
    handle_payload,
    make_request,
    parse_request,
    success_envelope,
)
from repro.service.session import AnalysisSession

SRC = """
int main(int argc, char** argv) {
  char* a = (char*)malloc(8);
  char* b = a + 1;
  *a = 0;
  *b = 1;
  return 0;
}
"""


def _pointers(session, module="m"):
    values = session.values(module, "main")["values"]
    base = next(v["name"] for v in values if v["op"] == "malloc")
    offset = [v["name"] for v in values if v["op"] == "ptradd"][-1]
    return base, offset


class TestGoldenSchemas:
    """Every op's canonical wire shape, frozen.

    These payloads are the protocol contract: changing any of them in a
    wire-incompatible way must come with a PROTOCOL_VERSION bump.
    """

    #: op -> canonical request payload (minus op/v, which the tests add).
    GOLDEN = {
        "ping": {},
        "load": {"name": "m", "source": "int main() { return 0; }"},
        "load_program": {"name": "allroots"},
        "edit": {"name": "m", "source": "int main() { return 1; }"},
        "query": {"module": "m", "analysis": "rbaa", "function": "main",
                  "a": "p1", "b": "p2"},
        "query_many": {"module": "m", "analysis": "rbaa", "function": "main",
                       "pairs": [["p1", "p2"],
                                 ["p1", "p2", "unknown", 4]]},
        "query_function": {"module": "m", "analysis": "rbaa",
                           "function": "main", "max_pairs": 10},
        "values": {"module": "m", "function": "main"},
        "check_bounds": {"module": "m", "function": "main"},
        "parallel_loops": {"module": "m", "function": "main"},
        "range": {"module": "m", "function": "main", "value": "n"},
        "stats": {"module": "m"},
        "modules": {},
        "unload": {"name": "m"},
        "shutdown": {},
    }

    def test_registry_covers_exactly_the_protocol_ops(self):
        assert set(OPS) == set(self.GOLDEN)

    def test_requests_round_trip_through_parse_and_encode(self):
        for op, fields in self.GOLDEN.items():
            payload = {"op": op, "v": PROTOCOL_VERSION, "id": f"rt-{op}",
                       **fields}
            request = parse_request(payload)
            assert request.op == op
            assert request.id == f"rt-{op}"

    def test_routing_module_matches_the_sharding_contract(self):
        routed = {"load": "m", "load_program": "allroots", "edit": "m",
                  "query": "m", "query_many": "m", "query_function": "m",
                  "values": "m", "check_bounds": "m", "parallel_loops": "m",
                  "range": "m", "stats": "m", "unload": "m"}
        for op, fields in self.GOLDEN.items():
            request = parse_request({"op": op, "v": PROTOCOL_VERSION,
                                     **fields})
            assert request.routing_module() == routed.get(op)

    def test_missing_required_field_is_bad_request(self):
        with pytest.raises(ServiceError) as caught:
            parse_request({"op": "query", "v": PROTOCOL_VERSION,
                           "module": "m"})
        assert caught.value.code == "bad_request"


class TestErrorCodes:
    def test_error_code_set_is_stable(self):
        # Renaming or removing a code is wire-incompatible; this golden
        # test forces a PROTOCOL_VERSION bump alongside any such change.
        assert ERROR_CODES == {
            "protocol_mismatch", "bad_request", "unknown_op",
            "unknown_module", "unknown_function", "unknown_value",
            "unknown_analysis", "edit_rejected", "internal_error",
            "worker_unavailable", "deadline_exceeded", "overloaded"}

    def test_retryable_subset_is_stable(self):
        # The retry contract is wire-visible behaviour: clients blindly
        # resend exactly these.  deadline_exceeded is deliberately absent
        # (a backstopped mutating request may still have applied).
        assert RETRYABLE_ERROR_CODES == {"worker_unavailable", "overloaded"}
        assert RETRYABLE_ERROR_CODES < ERROR_CODES
        assert "deadline_exceeded" not in RETRYABLE_ERROR_CODES

    def test_session_errors_carry_stable_codes(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _pointers(session)
        v = PROTOCOL_VERSION
        cases = [
            ({"op": "warp", "v": v}, "unknown_op"),
            ({"op": "query", "v": v, "module": "ghost", "analysis": "rbaa",
              "function": "main", "a": base, "b": offset}, "unknown_module"),
            ({"op": "query", "v": v, "module": "m", "analysis": "voodoo",
              "function": "main", "a": base, "b": offset},
             "unknown_analysis"),
            ({"op": "query", "v": v, "module": "m", "analysis": "rbaa",
              "function": "nowhere", "a": base, "b": offset},
             "unknown_function"),
            ({"op": "query", "v": v, "module": "m", "analysis": "rbaa",
              "function": "main", "a": base, "b": "nothing"},
             "unknown_value"),
            ({"op": "query", "v": v, "module": "m", "analysis": "rbaa",
              "function": "main", "a": base, "b": offset, "size_a": -1},
             "bad_request"),
            ({"op": "edit", "v": v, "name": "m", "source": "int main( {"},
             "edit_rejected"),
            ({"op": "load", "v": v, "name": "bad", "source": "int main( {"},
             "bad_request"),
            ({"op": "ping", "v": v + 1}, "protocol_mismatch"),
            ({"op": "ping"}, "protocol_mismatch"),
            ("not an object", "bad_request"),
        ]
        for payload, code in cases:
            envelope = handle_payload(session, payload)
            assert envelope["ok"] is False, payload
            assert envelope["error_code"] == code, payload
            # The pre-v1 free-form "error" string is gone from the wire.
            assert "error" not in envelope, payload
            assert isinstance(envelope["message"], str) and envelope["message"]
            assert envelope["v"] == PROTOCOL_VERSION

    def test_exceptions_inside_apply_are_internal_errors(self, monkeypatch):
        # A bug in the session is never reported as the client's fault.
        session = AnalysisSession()
        session.load_source("m", SRC)

        def broken(module, function):
            return {}["boom"]

        monkeypatch.setattr(session, "values", broken)
        envelope = handle_payload(session, make_request(
            "values", id="bug", module="m", function="main"))
        assert envelope["ok"] is False
        assert envelope["error_code"] == "internal_error"
        assert envelope["id"] == "bug"
        assert "KeyError" in envelope["message"]

    def test_unknown_suite_program_is_an_explicit_bad_request(self):
        session = AnalysisSession()
        with pytest.raises(ServiceError) as caught:
            session.load_program("no-such-program")
        assert caught.value.code == "bad_request"
        envelope = handle_payload(session, make_request(
            "load_program", name="no-such-program"))
        assert envelope["error_code"] == "bad_request"
        assert envelope["message"].startswith(
            "unknown suite program 'no-such-program'")

    def test_envelope_helpers(self):
        ok = success_envelope("id-1", {"pong": True})
        assert ok == {"ok": True, "v": PROTOCOL_VERSION, "id": "id-1",
                      "pong": True}
        bad = error_envelope("unknown_op", "nope", "id-2")
        assert bad["error_code"] == "unknown_op" and bad["id"] == "id-2"
        assert bad["message"] == "nope"
        assert "error" not in bad  # the deprecated field is gone
        # Unlisted codes degrade to internal_error, never leak through.
        assert error_envelope("made_up", "x")["error_code"] == "internal_error"

    def test_check_response_raises_with_the_structured_code(self):
        with pytest.raises(ServiceError) as caught:
            check_response(error_envelope("unknown_module", "gone", None))
        assert caught.value.code == "unknown_module"
        assert check_response(success_envelope(None, {"pong": True}))["pong"]


class TestVersioning:
    def test_version_mismatch_is_rejected_with_id_echo(self):
        session = AnalysisSession()
        envelope = handle_payload(session, {"op": "ping", "v": 99, "id": 5})
        assert envelope["ok"] is False
        assert envelope["error_code"] == "protocol_mismatch"
        assert envelope["id"] == 5

    def test_unversioned_requests_are_rejected(self):
        # The unversioned grace period (PR 6's deprecation window) is over:
        # a request without "v" is a protocol mismatch, with the id echoed.
        session = AnalysisSession()
        envelope = handle_payload(session, {"op": "ping", "id": "old"})
        assert envelope["ok"] is False
        assert envelope["error_code"] == "protocol_mismatch"
        assert envelope["id"] == "old"
        assert "'v'" in envelope["message"]

    def test_make_request_stamps_the_version(self):
        payload = make_request("ping", id=3)
        assert payload == {"op": "ping", "v": PROTOCOL_VERSION, "id": 3}


class TestSizeSchema:
    def test_coerce_size_spellings(self):
        assert coerce_size(DEFAULT_SIZE) is DEFAULT_SIZE
        assert coerce_size("default") is DEFAULT_SIZE
        assert coerce_size(None) is None
        assert coerce_size("unknown") is None
        assert coerce_size(0) == 0
        assert coerce_size(8) == 8
        for bad in (-1, True, 1.5, "8", [4]):
            with pytest.raises(ServiceError):
                coerce_size(bad)

    def test_encode_size_round_trips(self):
        for size in (DEFAULT_SIZE, None, 0, 16):
            assert coerce_size(encode_size(size)) == size or \
                coerce_size(encode_size(size)) is size

    def test_sizes_round_trip_identically_through_both_entry_points(self):
        # The same size spelling must mean the same thing whether it comes
        # through the typed session API or a decoded wire payload.
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _pointers(session)
        direct_default = session.query("m", "rbaa", "main", base, offset)
        direct_unknown = session.query("m", "rbaa", "main", base, offset,
                                       size_a=None, size_b=None)
        assert direct_default["result"] == "no-alias"
        assert direct_unknown["result"] == "may-alias"
        for spelling in ({}, {"size_a": "default", "size_b": "default"}):
            wire = handle_payload(session, make_request(
                "query", module="m", analysis="rbaa", function="main",
                a=base, b=offset, **spelling))
            assert wire["result"] == direct_default["result"]
        for spelling in ({"size_a": None, "size_b": None},
                         {"size_a": "unknown", "size_b": "unknown"}):
            wire = handle_payload(session, make_request(
                "query", module="m", analysis="rbaa", function="main",
                a=base, b=offset, **spelling))
            assert wire["result"] == direct_unknown["result"]
        batch = handle_payload(session, make_request(
            "query_many", module="m", analysis="rbaa", function="main",
            pairs=[[base, offset], [base, offset, "default", "default"],
                   [base, offset, "unknown", None]]))
        assert batch["results"] == ["no-alias", "no-alias", "may-alias"]


class TestDeadlines:
    """The additive ``timeout_ms`` field and its cooperative enforcement."""

    def test_timeout_ms_round_trips_additively(self):
        # Additive: present when set, absent when not — no version bump.
        plain = parse_request(make_request("query", module="m",
                                           analysis="rbaa", function="main",
                                           a="p", b="q"))
        assert plain.timeout_ms is None
        bounded = parse_request(make_request(
            "query", module="m", analysis="rbaa", function="main",
            a="p", b="q", timeout_ms=250))
        assert bounded.timeout_ms == 250

    def test_timeout_ms_validation(self):
        for bad in (-1, True, 1.5, "250", [250]):
            with pytest.raises(ServiceError) as caught:
                parse_request(make_request("ping", timeout_ms=bad))
            assert caught.value.code == "bad_request"
        assert parse_request(make_request("ping", timeout_ms=0)).timeout_ms == 0

    def test_mutating_classification(self):
        # The supervisor's journal/retry split rides on this flag: exactly
        # the state-changing ops are mutating (never transparently retried,
        # journaled for crash replay when acknowledged).
        mutating = {op for op, cls in OPS.items() if cls.mutating}
        assert mutating == {"load", "load_program", "edit", "unload"}

    def test_expired_deadline_short_circuits_deterministically(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _pointers(session)
        envelope = handle_payload(session, make_request(
            "query", id="dl", module="m", analysis="rbaa", function="main",
            a=base, b=offset, timeout_ms=0))
        assert envelope["ok"] is False
        assert envelope["error_code"] == "deadline_exceeded"
        assert envelope["id"] == "dl"
        # The same request without the deadline still answers — an
        # abandoned evaluation must not poison session state.
        again = handle_payload(session, make_request(
            "query", id="dl2", module="m", analysis="rbaa", function="main",
            a=base, b=offset))
        assert again["ok"] is True and again["result"] == "no-alias"

    def test_mutating_requests_ignore_the_cooperative_budget(self):
        # A deadline must never abandon a half-applied edit: mutating ops
        # run to completion; only the front-end backstop can answer early.
        session = AnalysisSession()
        envelope = handle_payload(session, make_request(
            "load", id="ld", name="m", source=SRC, timeout_ms=0))
        assert envelope["ok"] is True
        assert "main" in envelope["functions"]


class TestPipelinedIdEcho:
    def test_daemon_echoes_ids_on_every_response(self):
        requests = [
            make_request("ping", id="a"),
            make_request("load", id="b", name="m", source=SRC),
            make_request("warp", id="c"),
            make_request("query", id="d", module="ghost", analysis="rbaa",
                         function="main", a="x", b="y"),
            make_request("stats", id="e", module="m"),
            make_request("shutdown", id="f"),
        ]
        stdin = io.StringIO(
            "".join(json.dumps(r) + "\n" for r in requests))
        stdout = io.StringIO()
        assert serve(stdin, stdout) == 0
        responses = [json.loads(line)
                     for line in stdout.getvalue().strip().splitlines()]
        assert [r["id"] for r in responses] == ["a", "b", "c", "d", "e", "f"]
        assert [r["ok"] for r in responses] == [True, True, False, False,
                                                True, True]
        assert responses[2]["error_code"] == "unknown_op"
        assert responses[3]["error_code"] == "unknown_module"

    def test_invalid_json_line_gets_a_structured_envelope(self):
        stdin = io.StringIO("this is not json\n" +
                            json.dumps(make_request("shutdown", id=9)) + "\n")
        stdout = io.StringIO()
        assert serve(stdin, stdout) == 0
        first, second = [json.loads(line) for line in
                         stdout.getvalue().strip().splitlines()]
        assert first["ok"] is False
        assert first["error_code"] == "bad_request"
        assert second["id"] == 9 and second["shutdown"] is True


class TestTypedResponses:
    def test_query_response_from_envelope(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _pointers(session)
        envelope = handle_payload(session, make_request(
            "query", id=1, module="m", analysis="rbaa", function="main",
            a=base, b=offset))
        checked = check_response(envelope, "query")
        assert checked["result"] == "no-alias"
        assert checked["module"] == "m"
        with pytest.raises(ServiceError):
            check_response(error_envelope("unknown_op", "x", 1), "query")
        # A success missing a declared response field is a server bug.
        del envelope["result"]
        with pytest.raises(ServiceError) as caught:
            check_response(envelope, "query")
        assert caught.value.code == "internal_error"

    def test_every_op_answers_its_declared_response_fields(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _pointers(session)
        fields = {
            "ping": {}, "load": {"name": "m", "source": SRC},
            "load_program": {"name": "allroots"},
            "edit": {"name": "m", "source": SRC.replace("8", "16")},
            "query": {"module": "m", "analysis": "rbaa", "function": "main",
                      "a": base, "b": offset},
            "query_many": {"module": "m", "analysis": "rbaa",
                           "function": "main", "pairs": [[base, offset]]},
            "query_function": {"module": "m", "analysis": "rbaa"},
            "values": {"module": "m", "function": "main"},
            "check_bounds": {"module": "m"},
            "parallel_loops": {"module": "m"},
            "range": {"module": "m", "function": "main", "value": "argc"},
            "stats": {"module": "m"}, "modules": {},
            "unload": {"name": "allroots"}, "shutdown": {},
        }
        assert set(fields) == set(OPS)
        for op, op_fields in fields.items():
            envelope = handle_payload(session, make_request(op, **op_fields))
            check_response(envelope, op)


class TestHelpOpTable:
    """``python -m repro.service --help`` lists every op of ``OPS`` with its
    fields and doc."""

    @staticmethod
    def _rows(capsys):
        with pytest.raises(SystemExit) as exit_info:
            daemon.main(["--help"])
        assert exit_info.value.code == 0
        lines = capsys.readouterr().out.split("\nops:\n")[1].splitlines()
        return dict(line.split(maxsplit=1) for line in lines if line.strip())

    def test_help_lists_every_op_with_its_fields_and_doc(self, capsys):
        rows = self._rows(capsys)
        assert list(rows) == list(OPS)
        for op, text in rows.items():
            spec = OPS[op]
            match = re.fullmatch(r"\{([^}]*)\} — (.*)", text)
            if spec.fields:
                assert match, text
                listed = match.group(1).split(", ")
                assert listed == [name if kind in ("str", "pairs")
                                  else f"[{name}]"
                                  for name, kind in spec.fields], op
                doc = match.group(2)
            else:
                assert match is None, text
                doc = text
            assert doc == spec.doc, op
