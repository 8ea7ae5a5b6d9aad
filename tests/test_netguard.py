import base64

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidcage.netguard import (
    BLOCKED_PROTOCOLS,
    DEFAULT_CUSTOM_ROOT,
    PUBLIC_ROOT,
    GuardOutcome,
    HttpTransaction,
    Keystore,
    LogDecodeError,
    LoopbackTransport,
    NetGuard,
    ReputationProvider,
    RequestParseError,
    ServerIdentity,
    Signature,
    SignatureDb,
    decide,
    intercept_tls,
    parse_capture_log,
    parse_log_entry,
    parse_request,
    simulate_response,
    strip_payload,
    write_log_entry,
)

SIGS = SignatureDb((
    Signature("sig-dropper-01", b"MAL-DROP-001"),
    Signature("sig-keylog-02", b"KEYLOG-XFIL"),
))
REP = ReputationProvider({"telemetry.trusted.example": 92,
                          "cfg.adsmogo.com": 30})

KEYSTORE = Keystore(frozenset({DEFAULT_CUSTOM_ROOT, PUBLIC_ROOT}))


def _raw(method="GET", path="/", host="example.com", port=None, version="HTTP/1.1",
         headers=(), body=b""):
    host_value = host if port is None else f"{host}:{port}"
    lines = [f"{method} {path} {version}", f"Host: {host_value}"]
    lines += [f"{n}: {v}" for n, v in headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_get_with_explicit_port():
    tx = parse_request(_raw(method="GET", path="/GetInfo.ashx?appid=7ffc7be9",
                            host="115.182.30.68", port=80))
    assert tx.method == "GET"
    assert tx.host == "115.182.30.68"
    assert tx.port == "80"
    assert tx.scheme == "http"
    assert tx.path == "/GetInfo.ashx?appid=7ffc7be9"


def test_parse_defaults_port_from_scheme():
    assert parse_request(_raw(), "http").port == "80"
    assert parse_request(_raw(), "https").port == "443"


def test_parse_reads_body_per_content_length():
    tx = parse_request(_raw(method="POST", body=b"a=1&b=2"))
    assert tx.content == b"a=1&b=2"


def test_parse_without_content_length_has_empty_body():
    raw = b"POST / HTTP/1.1\r\nHost: x.example\r\n\r\ntrailing-noise"
    assert parse_request(raw).content == b""


def test_ftp_is_blocked_protocol():
    outcome = NetGuard().handle(b"USER anonymous\r\n", "ftp")
    assert outcome.disposition == "blocked_protocol"
    assert outcome.verdict.kind == "block"
    assert outcome.verdict.reason == "unsupported_protocol"
    with pytest.raises(RequestParseError):
        parse_request(b"USER anonymous\r\n", "ftp")


@pytest.mark.parametrize("protocol", ["pop", "pop3", "imap", "ftp"])
def test_all_unparseable_protocols_blocked(protocol):
    outcome = NetGuard().handle(b"whatever", protocol)
    assert outcome.disposition == "blocked_protocol" and outcome.verdict.kind == "block"
    with pytest.raises(RequestParseError):
        parse_request(b"whatever", protocol)


def test_missing_version_is_parse_error():
    with pytest.raises(RequestParseError):
        parse_request(b"GET /path\r\nHost: x\r\n\r\n")


def test_truncated_body_is_parse_error():
    with pytest.raises(RequestParseError):
        parse_request(b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nabc")


def test_non_numeric_host_header_port_is_parse_error():
    with pytest.raises(RequestParseError):
        parse_request(b"GET / HTTP/1.1\r\nHost: a:xx\r\n\r\n")


def test_non_numeric_absolute_target_port_is_parse_error():
    with pytest.raises(RequestParseError):
        parse_request(b"GET http://a:xx/p HTTP/1.1\r\n\r\n")


def test_negative_content_length_is_parse_error():
    with pytest.raises(RequestParseError):
        parse_request(b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: -3\r\n\r\nabcdef")


def test_transaction_invariants():
    with pytest.raises(ValueError):
        HttpTransaction("GET", "ftp", "h", "80", "/", "HTTP/1.1")
    with pytest.raises(ValueError):
        HttpTransaction("GET", "http", "h", "eighty", "/", "HTTP/1.1")
    with pytest.raises(ValueError):
        HttpTransaction("", "http", "h", "80", "/", "HTTP/1.1")


# ---------------------------------------------------------------------------
# TLS interception
# ---------------------------------------------------------------------------

def test_non_pinned_identity_is_intercepted():
    server = ServerIdentity("cfg.adsmogo.com", PUBLIC_ROOT, pinned=False)
    outcome = intercept_tls(KEYSTORE, server, DEFAULT_CUSTOM_ROOT)
    assert outcome.outcome == "intercepted_plaintext"
    assert outcome.plaintext_available
    assert outcome.leaf.domain == "cfg.adsmogo.com"
    assert outcome.leaf.signed_by == DEFAULT_CUSTOM_ROOT


def test_pinned_identity_rejects_interception():
    server = ServerIdentity("secure.bank.example", "bank-embedded-root", pinned=True)
    outcome = intercept_tls(KEYSTORE, server, DEFAULT_CUSTOM_ROOT)
    assert outcome.outcome == "rejected_by_pinning"
    assert not outcome.plaintext_available


def test_unprovisioned_keystore_rejects_handshake():
    bare = Keystore(frozenset({PUBLIC_ROOT}))
    server = ServerIdentity("cfg.adsmogo.com", PUBLIC_ROOT, pinned=False)
    outcome = intercept_tls(bare, server, DEFAULT_CUSTOM_ROOT)
    assert outcome.outcome == "rejected_unprovisioned"
    assert not outcome.plaintext_available


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def test_signature_in_content_strips_and_redirects():
    tx = parse_request(_raw(method="POST", body=b"x=MAL-DROP-001&y=2"))
    verdict = decide(tx, SIGS, REP)
    assert verdict.kind == "strip_and_redirect"
    assert verdict.signature_id == "sig-dropper-01"


def test_signature_in_path_matches_too():
    tx = parse_request(_raw(path="/drop?payload=KEYLOG-XFIL"))
    assert decide(tx, SIGS, REP).signature_id == "sig-keylog-02"


def test_good_reputation_redirects_to_simulator():
    tx = parse_request(_raw(host="telemetry.trusted.example"))
    verdict = decide(tx, SIGS, REP, threshold=60)
    assert verdict.kind == "redirect_sim"
    assert verdict.reason == "good_reputation"


def test_low_reputation_forwards():
    tx = parse_request(_raw(host="cfg.adsmogo.com"))
    assert decide(tx, SIGS, REP, threshold=60).kind == "forward"


def test_unknown_host_forwards():
    tx = parse_request(_raw(host="nowhere.example"))
    assert decide(tx, SIGS, REP).kind == "forward"


def test_signature_beats_reputation():
    tx = parse_request(_raw(host="telemetry.trusted.example",
                            method="POST", body=b"MAL-DROP-001"))
    assert decide(tx, SIGS, REP).kind == "strip_and_redirect"


def test_strip_removes_every_pattern_occurrence():
    tx = parse_request(_raw(method="POST",
                            body=b"MAL-DROP-001abcMAL-DROP-001KEYLOG-XFIL"))
    stripped = strip_payload(tx, SIGS)
    for sig in SIGS.signatures:
        assert sig.pattern not in stripped.content
        assert sig.pattern.decode("latin-1") not in stripped.path
    assert b"abc" in stripped.content


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=60), st.binary(max_size=60), st.binary(max_size=60))
def test_strip_completeness_property(prefix, middle, suffix):
    content = prefix + b"MAL-DROP-001" + middle + b"KEYLOG-XFIL" + suffix
    tx = HttpTransaction("POST", "http", "h.example", "80", "/", "HTTP/1.1",
                         (), content)
    stripped = strip_payload(tx, SIGS)
    for sig in SIGS.signatures:
        assert sig.pattern not in stripped.content


# ---------------------------------------------------------------------------
# Services simulator
# ---------------------------------------------------------------------------

def test_simulator_is_deterministic():
    tx = parse_request(_raw(host="telemetry.trusted.example", path="/a"))
    assert simulate_response(tx) == simulate_response(tx)


def test_simulator_post_frozen_bytes():
    # expected bytes computed once from the documented derivation rule
    tx = HttpTransaction("POST", "http", "api.unknown.example", "80",
                         "/submit", "HTTP/1.1")
    expected = (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
        b"Content-Length: 74\r\nServer: simsrv\r\n\r\n"
        b"status: ok\necho: POST api.unknown.example /submit\n"
        b"token: 54f3aadbff6c475f\n"
    )
    assert simulate_response(tx) == expected


def test_simulator_response_is_valid_http_200():
    tx = parse_request(_raw())
    response = simulate_response(tx)
    assert response.startswith(b"HTTP/1.1 200 OK\r\n")
    head, body = response.split(b"\r\n\r\n", 1)
    length = [int(l.split(b":")[1]) for l in head.split(b"\r\n")
              if l.lower().startswith(b"content-length")]
    assert length == [len(body)]


def test_blocked_protocol_transactions_cannot_be_constructed():
    # the simulator precondition is structural: no transaction with an
    # unparseable scheme can exist to be simulated
    with pytest.raises(ValueError):
        HttpTransaction("GET", "ftp", "h", "21", "/", "HTTP/1.1")


# ---------------------------------------------------------------------------
# Capture log
# ---------------------------------------------------------------------------

def test_annex_base64_vectors():
    assert base64.b64encode(b"GET") == b"R0VU"
    assert base64.b64encode(b"http") == b"aHR0cA=="
    assert base64.b64encode(b"80") == b"ODA="
    assert base64.b64decode("MTE1LjE4Mi4zMC42OA==") == b"115.182.30.68"
    assert base64.b64decode("Y2ZnLmFkc21vZ28uY29t") == b"cfg.adsmogo.com"


def test_log_entry_tags_and_values():
    tx = parse_request(_raw(method="GET", host="115.182.30.68", port=80,
                            headers=(("Connection", "Keep-Alive"),)))
    entry = write_log_entry(tx)
    assert "<method>R0VU</method>" in entry
    assert "<scheme>aHR0cA==</scheme>" in entry
    assert "<port>ODA=</port>" in entry
    assert "<host>MTE1LjE4Mi4zMC42OA==</host>" in entry
    assert "<Connection>S2VlcC1BbGl2ZQ==</Connection>" in entry
    assert entry.startswith("<header>\n")


def test_empty_body_is_self_closing_content():
    tx = parse_request(_raw())
    assert "<content />" in write_log_entry(tx)
    tx_with_body = parse_request(_raw(method="POST", body=b"x"))
    assert "<content>eA==</content>" in write_log_entry(tx_with_body)


def test_round_trip_annex_like_entry():
    tx = parse_request(_raw(method="GET", path="/GetInfo.ashx?appid=7ffc7be9",
                            host="cfg.adsmogo.com",
                            headers=(("Connection", "Keep-Alive"),
                                     ("User-Agent", "Apache-HttpClient/UNAVAILABLE (java 1.4)"))))
    assert parse_log_entry(write_log_entry(tx)) == tx


_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
                 min_size=1, max_size=16)


@st.composite
def transactions(draw):
    headers = draw(st.lists(st.tuples(_token, st.text(max_size=40)), max_size=6))
    return HttpTransaction(
        method=draw(st.sampled_from(["GET", "POST", "PUT", "HEAD", "DELETE"])),
        scheme=draw(st.sampled_from(["http", "https"])),
        host=draw(st.text(max_size=30)),
        port=draw(st.sampled_from(["80", "443", "8080", "0", "65535"])),
        path=draw(st.text(max_size=60)),
        http_version=draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"])),
        headers=tuple(headers),
        content=draw(st.binary(max_size=80)),
    )


@settings(max_examples=150, deadline=None)
@given(transactions())
def test_log_round_trip_property(tx):
    assert parse_log_entry(write_log_entry(tx)) == tx


def test_capture_log_multi_entry_parse():
    txs = [parse_request(_raw(path=f"/r{i}")) for i in range(3)]
    text = "".join(write_log_entry(t) for t in txs)
    assert parse_capture_log(text) == txs


@pytest.mark.parametrize("tag, value", [("host", b"\xff\xfe"), ("port", b"x")],
                         ids=["non_utf8_host", "non_numeric_port"])
def test_capture_record_with_a_bad_field_value_is_a_log_decode_error(tag, value):
    tx = parse_request(_raw(host="h.example", port=80))
    entry = write_log_entry(tx)
    field = f"<{tag}>{base64.b64encode(getattr(tx, tag).encode()).decode()}</{tag}>"
    assert field in entry
    bad = entry.replace(field, f"<{tag}>{base64.b64encode(value).decode()}</{tag}>")
    with pytest.raises(LogDecodeError):
        parse_log_entry(bad)
    with pytest.raises(LogDecodeError):
        parse_capture_log(entry + bad)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _guard(**kw):
    kw.setdefault("signatures", SIGS)
    kw.setdefault("reputation", REP)
    kw.setdefault("transport", LoopbackTransport())
    return NetGuard(kw.pop("signatures"), kw.pop("reputation"), **kw)


def test_pipeline_never_forwards_gated_traffic():
    guard = _guard()
    guard.handle(_raw(method="POST", body=b"MAL-DROP-001"))
    guard.handle(_raw(host="telemetry.trusted.example"))
    guard.handle(_raw(host="plain.example"))
    forwarded_hosts = [tx.host for tx in guard.transport.sent]
    assert forwarded_hosts == ["plain.example"]
    assert ("strip_and_redirect", "simulator") in guard.routing_log
    assert ("redirect_sim", "simulator") in guard.routing_log


def test_pipeline_strips_before_simulating():
    guard = _guard()
    outcome = guard.handle(_raw(method="POST", body=b"MAL-DROP-001"))
    assert outcome.verdict.kind == "strip_and_redirect"
    assert outcome.response.startswith(b"HTTP/1.1 200 OK")


def test_pipeline_logs_every_parsed_transaction():
    guard = _guard()
    guard.handle(_raw(path="/one"))
    guard.handle(_raw(path="/two"))
    decoded = parse_capture_log(guard.capture_text())
    assert [tx.path for tx in decoded] == ["/one", "/two"]


def test_pipeline_drops_and_logs_malformed():
    guard = _guard()
    outcome = guard.handle(b"not-http at all")
    assert outcome.disposition == "malformed"
    assert guard.capture_log == []
    assert len(guard.malformed_log) == 1
    assert base64.b64decode(guard.malformed_log[0]) == b"not-http at all"


@pytest.mark.parametrize("raw", [
    b"GET / HTTP/1.1\r\nHost: a:xx\r\n\r\n",
    b"GET http://a:xx/p HTTP/1.1\r\n\r\n",
    b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: -3\r\n\r\nabcdef",
])
def test_pipeline_logs_bad_port_and_length_as_malformed(raw):
    guard = _guard()
    assert guard.handle(raw).disposition == "malformed"
    assert guard.capture_log == []
    assert [base64.b64decode(e) for e in guard.malformed_log] == [raw]


@pytest.mark.parametrize("raw", [
    b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 1_0\r\n\r\n0123456789",
    b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: +3\r\n\r\nabc",
    b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n",
    "GET / HTTP/1.1\r\nHost: a:\xb2\r\n\r\n".encode("latin-1"),
    "GET http://a:\xb2/p HTTP/1.1\r\n\r\n".encode("latin-1"),
    b"GET / HTTP/1.1\r\nHost: a:99999999\r\n\r\n",
    b"GET / HTTP/1.1\r\nHost: a:65536\r\n\r\n",
    b"GET / HTTP/1.1\r\nHost: a\r\nX Y<z: v\r\n\r\n",
])
def test_pipeline_logs_loose_numbers_and_non_token_names_as_malformed(raw):
    with pytest.raises(RequestParseError):
        parse_request(raw)
    guard = _guard()
    assert guard.handle(raw).disposition == "malformed"
    assert guard.capture_log == []


def test_parse_accepts_the_highest_port():
    assert parse_request(_raw(port=65535)).port == "65535"


@pytest.mark.parametrize("name", ["header", "content", "method"])
def test_header_named_like_a_log_tag_round_trips(name):
    guard = _guard()
    guard.handle(_raw(path="/one"))
    outcome = guard.handle(_raw(path="/two", headers=((name, "v"),)))
    guard.handle(_raw(path="/three"))
    decoded = parse_capture_log(guard.capture_text())
    assert decoded[1] == outcome.transaction
    assert [tx.path for tx in decoded] == ["/one", "/two", "/three"]


_header_names = st.one_of(st.sampled_from([b"header", b"content", b"Host", b"X Y<z", b"a:b"]),
                          st.binary(max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_header_names, st.binary(max_size=40)), max_size=4))
def test_handled_requests_round_trip_through_the_capture_log(headers):
    raw = b"GET /p HTTP/1.1\r\nHost: h.example\r\n"
    raw += b"".join(name + b": " + value + b"\r\n" for name, value in headers) + b"\r\n"
    guard = _guard()
    outcome = guard.handle(raw)
    if outcome.disposition == "malformed":
        return
    assert outcome.disposition == "handled"
    assert parse_capture_log(guard.capture_text()) == [outcome.transaction]


def test_pipeline_blocks_ftp_without_logging():
    guard = _guard()
    outcome = guard.handle(b"USER anonymous\r\n", "ftp")
    assert outcome.disposition == "blocked_protocol"
    assert outcome.verdict.kind == "block"
    assert guard.capture_log == []


def test_pinned_https_leaves_no_plaintext_log():
    guard = _guard(identities={"secure.bank.example":
                               ServerIdentity("secure.bank.example",
                                              "bank-embedded-root", pinned=True)})
    outcome = guard.handle(_raw(host="secure.bank.example"), "https",
                           server="secure.bank.example")
    assert outcome.disposition == "tls_rejected"
    assert outcome.tls.outcome == "rejected_by_pinning"
    assert guard.capture_log == []
    assert guard.transport.sent == []


def test_non_pinned_https_is_intercepted_and_logged():
    guard = _guard()
    outcome = guard.handle(_raw(host="cfg.adsmogo.com"), "https",
                           server="cfg.adsmogo.com")
    assert outcome.disposition == "handled"
    assert outcome.tls.outcome == "intercepted_plaintext"
    decoded = parse_capture_log(guard.capture_text())
    assert decoded[0].host == "cfg.adsmogo.com"
    assert decoded[0].scheme == "https"


_request_starts = st.sampled_from([
    b"GET / HTTP/1.1\r\nHost: a\r\n",
    b"POST http://h.example:80/p HTTP/1.0\r\nContent-Length: 5\r\n\r\n",
    b"GET /",
])


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=200),
                     st.builds(bytes.__add__, _request_starts, st.binary(max_size=100))),
       protocol=st.one_of(st.sampled_from(("http", "https", "HTTPS") + BLOCKED_PROTOCOLS),
                          st.text(max_size=8)),
       server=st.sampled_from([None, "secure.bank.example", "cfg.adsmogo.com"]))
def test_handle_returns_an_outcome_for_any_bytes_and_protocol(raw, protocol, server):
    guard = _guard(identities={"secure.bank.example":
                               ServerIdentity("secure.bank.example",
                                              "bank-embedded-root", pinned=True)})
    outcome = guard.handle(raw, protocol, server)
    assert isinstance(outcome, GuardOutcome)
    assert outcome.disposition in ("handled", "blocked_protocol", "malformed", "tls_rejected")
