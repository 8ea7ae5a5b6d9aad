import base64
import binascii
import contextlib
import itertools
import re
import string
import sys
import textwrap
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droidcage import netguard
from droidcage.data_tables import ConfigError
from droidcage.harness import default_signatures
from droidcage.netguard import (
    BLOCK,
    BLOCKED_OUTCOME,
    BLOCKED_PROTOCOLS,
    DEFAULT_CUSTOM_ROOT,
    FIELD_TAGS,
    FORWARD,
    MALFORMED_OUTCOME,
    TLS_REJECTED_OUTCOME,
    GuardOutcome,
    HttpTransaction,
    LogDecodeError,
    NetGuard,
    ReputationProvider,
    RequestParseError,
    Signature,
    SignatureDb,
    Verdict,
    check_threshold,
    decide,
    parse_capture_log,
    parse_request,
    simulate_response,
    strip_payload,
    write_log_entry,
)

from conftest import LINE_MEMOS, clear_line_memos

SIGS = SignatureDb((
    Signature("sig-dropper-01", b"MAL-DROP-001"),
    Signature("sig-keylog-02", b"KEYLOG-XFIL"),
))
REP = ReputationProvider({"telemetry.trusted.example": 92,
                          "cfg.adsmogo.com": 30})


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


@pytest.mark.parametrize("protocol, scheme, port", [("HTTP", "http", "80"),
                                                    ("Https", "https", "443")])
def test_declared_protocol_is_matched_in_any_case(protocol, scheme, port):
    tx = parse_request(_raw(), protocol)
    assert (tx.scheme, tx.port) == (scheme, port)


@pytest.mark.parametrize("protocol", ["ftp", "gopher", "FTP", ""])
def test_an_unknown_declared_protocol_is_a_parse_error(protocol):
    with pytest.raises(RequestParseError) as raised:
        parse_request(_raw(), protocol)
    assert str(raised.value) == f"unknown protocol {protocol!r}"


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
    with pytest.raises(ValueError, match=r"^bad method: 'G\(T'$"):
        HttpTransaction("G(T", "http", "h", "80", "/", "HTTP/1.1")
    for port in ("\u00b2", "70000", "9" * 5000):  # parse_request rejects them too
        with pytest.raises(ValueError, match="bad port"):
            HttpTransaction("GET", "http", "h", port, "/", "HTTP/1.1")


def test_transaction_copies_keep_the_constructor_rules():
    tx = HttpTransaction("GET", "http", "h", "80", "/", "HTTP/1.1")
    assert tx._replace(path="/x") == HttpTransaction("GET", "http", "h", "80", "/x", "HTTP/1.1")
    assert type(tx._replace(path="/x")) is HttpTransaction
    with pytest.raises(ValueError, match="bad port"):
        tx._replace(port="70000")
    with pytest.raises(ValueError, match="unsupported scheme"):
        HttpTransaction._make(["GET", "ftp", "h", "21", "/", "HTTP/1.1"])


# (record, its field names, its repr): the reprs are those the records had as
# frozen dataclasses.
_NET_RECORDS = [
    (HttpTransaction("GET", "http", "h.example", "80", "/", "HTTP/1.1",
                     (("Host", "h.example"),), b"x"),
     ("method", "scheme", "host", "port", "path", "http_version", "headers", "content"),
     "HttpTransaction(method='GET', scheme='http', host='h.example', port='80', path='/', "
     "http_version='HTTP/1.1', headers=(('Host', 'h.example'),), content=b'x')"),
    (Verdict("strip_and_redirect", signature_id="sig-a"), ("kind", "signature_id", "reason"),
     "Verdict(kind='strip_and_redirect', signature_id='sig-a', reason='')"),
    (GuardOutcome("blocked_protocol", verdict=BLOCK),
     ("disposition", "verdict", "transaction", "response"),
     "GuardOutcome(disposition='blocked_protocol', verdict=Verdict(kind='block', "
     "signature_id='', reason='unsupported_protocol'), transaction=None, response=None)"),
]


@pytest.mark.parametrize("record, names, text", _NET_RECORDS, ids=lambda r: type(r).__name__)
def test_network_record_repr_names_every_field(record, names, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, names, text", _NET_RECORDS, ids=lambda r: type(r).__name__)
def test_network_record_hashes_as_the_tuple_of_its_fields(record, names, text):
    assert hash(record) == hash(tuple(getattr(record, n) for n in names))


@pytest.mark.parametrize("record, names, text", _NET_RECORDS, ids=lambda r: type(r).__name__)
def test_network_record_fields_cannot_be_assigned(record, names, text):
    with pytest.raises(AttributeError):
        setattr(record, names[0], None)


def test_every_blocked_request_shares_one_outcome():
    guard = NetGuard()
    assert guard.handle(b"x", "ftp") is guard.handle(b"y", "IMAP") is BLOCKED_OUTCOME
    assert BLOCKED_OUTCOME == GuardOutcome("blocked_protocol", verdict=BLOCK)


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


@pytest.mark.parametrize("value", [True, 2.5, "5"])
def test_threshold_is_an_int(value):
    message = f"^reputation threshold must be an int, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        check_threshold(value)
    with pytest.raises(ConfigError, match=message):
        NetGuard(SIGS, REP, threshold=value)


def test_unknown_host_forwards():
    tx = parse_request(_raw(host="nowhere.example"))
    assert decide(tx, SIGS, REP).kind == "forward"


def test_requests_stripped_by_one_signature_share_its_verdict():
    in_content = parse_request(_raw(method="POST", body=b"x=MAL-DROP-001"))
    in_path = parse_request(_raw(path="/drop/MAL-DROP-001"))
    other = parse_request(_raw(path="/drop?payload=KEYLOG-XFIL"))
    verdict = decide(in_content, SIGS, REP)
    assert decide(in_path, SIGS, REP) is verdict
    assert verdict == Verdict("strip_and_redirect", signature_id="sig-dropper-01")
    assert decide(other, SIGS, REP) == Verdict("strip_and_redirect", signature_id="sig-keylog-02")
    guard = _guard()
    outcomes = [guard.handle(_raw(method="POST", body=b"MAL-DROP-001")),
                guard.handle(_raw(path="/x/MAL-DROP-001"))]
    assert outcomes[0].verdict is outcomes[1].verdict is verdict


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
    assert parse_capture_log(write_log_entry(tx)) == [tx]


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
    assert parse_capture_log(write_log_entry(tx)) == [tx]


def test_capture_log_multi_entry_parse():
    txs = [parse_request(_raw(path=f"/r{i}")) for i in range(3)]
    text = "".join(write_log_entry(t) for t in txs)
    assert parse_capture_log(text) == txs


@pytest.mark.parametrize("tag, value", [
    ("host", b"\xff\xfe"),
    ("port", b"x"),
    # The ports parse_request rejects: one rule for both.
    ("port", "\u00b2".encode()),
    ("port", b"70000"),
    ("port", b"9" * 5000),
    # A method that is not a token, which parse_request rejects too.
    ("method", b"G(T"),
], ids=["non_utf8_host", "non_numeric_port", "superscript_port", "port_over_65535",
        "port_over_int_digit_limit", "non_token_method"])
def test_capture_record_with_a_bad_field_value_is_a_log_decode_error(tag, value):
    tx = parse_request(_raw(host="h.example", port=80))
    entry = write_log_entry(tx)
    field = f"<{tag}>{base64.b64encode(getattr(tx, tag).encode()).decode()}</{tag}>"
    assert field in entry
    bad = entry.replace(field, f"<{tag}>{base64.b64encode(value).decode()}</{tag}>")
    with pytest.raises(LogDecodeError):
        parse_capture_log(bad)
    with pytest.raises(LogDecodeError):
        parse_capture_log(entry + bad)


_B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _reference_unbase64(value: str) -> bytes | None:
    """RFC 4648 base64 decoded by hand; None when ``value`` breaks a rule.

    The rules: a length that is a multiple of 4, alphabet characters only,
    then at most two "=". Bits left over after the last full byte are dropped.
    """
    body = value.rstrip("=")
    if len(value) % 4 or len(value) - len(body) > 2 or any(c not in _B64_ALPHABET for c in body):
        return None
    bits = "".join(format(_B64_ALPHABET.index(c), "06b") for c in body)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits) - 7, 8))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="AQg=", max_size=12),
                 st.text(alphabet=_B64_ALPHABET + "=", max_size=16)))
@example("aGk==")  # b64decode(validate=True) takes it on CPython 3.10, not on 3.11-3.13
@example("AAAA====")  # and takes this on 3.11 and 3.12, not on 3.10 or 3.13
@example("aGk=")
def test_capture_field_base64_follows_a_pure_python_reference(value):
    entry = write_log_entry(_log_tx(headers=(("X-V", "v"),), body=b"b"))
    expected = _reference_unbase64(value)
    try:
        text = None if expected is None else expected.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    for tag, old, got, want in [("X-V", "dg==", lambda tx: dict(tx.headers)["X-V"], text),
                                ("content", "Yg==", lambda tx: tx.content, expected)]:
        field = f"<{tag}>{old}</{tag}>"
        assert field in entry
        bad = entry.replace(field, f"<{tag}>{value}</{tag}>")
        if want is None:
            with pytest.raises(LogDecodeError):
                parse_capture_log(bad)
        else:
            assert [got(tx) for tx in parse_capture_log(bad)] == [want]


def test_reader_base64_decode_equals_b64decode_validate_under_its_pre_checks():
    """The reader decodes with binascii.a2b_base64, which on its own stops at
    the first complete pad and drops stray "=", and b64decode(validate=True)
    differs across CPython 3.10-3.13. Under the reader's pre-checks the two
    agree; this checks it on the running version for every value of length 4
    and 8 over an alphabet with both pad-bit patterns ("Q", "g") and "="."""
    def validating(v):
        return base64.b64decode(v, validate=True)

    def _decoded(decode, value):
        try:
            return decode(value)
        except binascii.Error:
            return "rejected"

    checked, differ = {"header": 0, "content": 0}, []
    for size in (4, 8):
        for v in map("".join, itertools.product("ABQg/=", repeat=size)):
            # _read_entry's pre-checks besides the length, a multiple of 4
            # here: a header value's, run on its <header> block, and the
            # content's.
            header = not netguard._INNER_PAD_RE.search(f"<v>{v}</v>")
            content = "=" not in v[:-2]
            if header or content:
                if _decoded(binascii.a2b_base64, v) != _decoded(validating, v):
                    differ.append(v)
                checked["header"] += header
                checked["content"] += content
    assert differ == []
    assert checked == {"header": 485_150, "content": 563_400}


def _log_tx(headers=(("Connection", "Keep-Alive"),), body=b""):
    return parse_request(_raw(method="POST" if body else "GET", path="/p?q=1",
                              host="cfg.adsmogo.com", headers=headers, body=body))


_BODY = bytes(range(256)) * 2


@pytest.mark.parametrize("edit", [
    pytest.param(lambda e: e.replace("\n  ", "\n\t \r\n"), id="re_indented"),
    pytest.param(lambda e: "".join(e.split()), id="no_whitespace"),
    pytest.param(lambda e: "\n\n  " + e.replace("\n", "\n\x0b\u3000"), id="unicode_whitespace"),
    pytest.param(lambda e: re.sub(r">([A-Za-z0-9+/=]{9,})<", lambda m: ">\n    " + "\n    ".join(
        textwrap.wrap(m.group(1), 8)) + "\n  <", e), id="base64_wrapped"),
])
def test_capture_record_whitespace_is_free_around_elements_and_in_values(edit):
    for tx in (_log_tx(), _log_tx(body=_BODY)):
        entry = write_log_entry(tx)
        assert edit(entry) != entry
        assert parse_capture_log(edit(entry)) == [tx]
        assert parse_capture_log(edit(entry) + edit(entry)) == [tx, tx]


@pytest.mark.parametrize("spelling", ["<content />", "<content/>", "<content  />",
                                      "<content\n/>"])
def test_empty_content_element_takes_any_inner_whitespace(spelling):
    tx = _log_tx()
    assert parse_capture_log(write_log_entry(tx).replace("<content />", spelling)) == [tx]


def _swap(a, b):
    return lambda text: text.replace(a, "\0").replace(b, a).replace("\0", b)


_DECODE_REJECTS = {
    "tags_out_of_order": _swap("<method>R0VU</method>", "<scheme>aHR0cA==</scheme>"),
    "host_and_path_swapped": _swap("<host>Y2ZnLmFkc21vZ28uY29t</host>", "<path>L3A/cT0x</path>"),
    "field_missing": lambda e: e.replace("  <port>ODA=</port>\n", ""),
    "http_version_missing": lambda e: e.replace("  <http_version>SFRUUC8xLjE=</http_version>\n",
                                                ""),
    "no_close_header": lambda e: e.replace("</header>", ""),
    "no_content": lambda e: e.replace("<content />", ""),
    "bad_padding": lambda e: e.replace("<port>ODA=</port>", "<port>ODA</port>"),
    "excess_padding": lambda e: e.replace("<port>ODA=</port>", "<port>ODA==</port>"),
    "padding_inside": lambda e: e.replace("<method>R0VU</method>", "<method>R0==VU</method>"),
    "non_base64": lambda e: e.replace("<method>R0VU</method>", "<method>R0V-</method>"),
    "wrong_close_tag": lambda e: e.replace("</method>", "</scheme>", 1),
    "space_in_tag": lambda e: e.replace("<method>", "< method>"),
    "space_in_close_header": lambda e: e.replace("</header>", "</ header>"),
    "non_token_tag": lambda e: e.replace("Connection", "Conn ection"),
    "content_not_closed": lambda e: e.replace("<content />", "<content>eA=="),
    "leading_garbage": lambda e: "x" + e,
    "empty_method": lambda e: e.replace("<method>R0VU</method>", "<method></method>"),
}


@pytest.mark.parametrize("edit", _DECODE_REJECTS.values(), ids=_DECODE_REJECTS.keys())
def test_malformed_capture_record_is_a_log_decode_error(edit):
    entry = write_log_entry(_log_tx())
    bad = edit(entry)
    assert bad != entry
    with pytest.raises(LogDecodeError):
        parse_capture_log(bad)
    with pytest.raises(LogDecodeError):
        parse_capture_log(entry + bad + entry)


@pytest.mark.parametrize("tail", ["x", "<header>", "<content />"])
def test_data_after_a_single_record_is_a_log_decode_error(tail):
    entry = write_log_entry(_log_tx())
    assert parse_capture_log(entry + "\n \t") == [_log_tx()]
    with pytest.raises(LogDecodeError):
        parse_capture_log(entry + tail)


@pytest.mark.parametrize("text, records", [
    ("", []),
    (" \n\x1c\x85\xa0\u2028\u3000", []),
    (write_log_entry(_log_tx()) + "\x1c\x85\xa0\u2028\u3000", [_log_tx()]),
], ids=["empty", "whitespace_only", "record_then_unicode_whitespace"])
def test_trailing_whitespace_of_every_kind_ends_the_log(text, records):
    # The str.isspace set: what str.rstrip() removes and \s matches.
    assert parse_capture_log(text) == records


def test_text_after_leading_unicode_whitespace_is_rejected_at_offset_0():
    with pytest.raises(LogDecodeError, match="offset 0"):
        parse_capture_log("\u3000x")


def test_decoder_reads_the_log_in_place():
    """A decode allocates far less than the log it reads: nothing copies,
    slices or strips the whole text, even when most of it is whitespace."""
    tx = _log_tx()
    text = (write_log_entry(tx) + " " * 20_000) * 50
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        records = parse_capture_log(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert records == [tx] * 50
    assert peak < len(text) // 4


@pytest.mark.parametrize("text", [
    "<header>" + "<a>QQ==</a>\n" * 20_000,
    "<header><method>" + "A" * 200_000 + "</x>",
    # In the layout write_log_entry writes, up to the missing </header>.
    write_log_entry(_log_tx(headers=())).split("</header>")[0] + "  <a>QQ==</a>\n" * 20_000,
], ids=["20k_fields_no_close_header", "200kB_value_wrong_close_tag",
        "written_20k_headers_no_close_header"])
def test_hostile_capture_log_is_rejected_quickly(text):
    t0 = time.perf_counter()
    with pytest.raises(LogDecodeError):
        parse_capture_log(text)
    assert time.perf_counter() - t0 < 1.0


_LOG_CHARS = "<>/= \n\t\x0b\u3000AQR0Vab+headrcontmsp_"
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"
_LOG_TEXT = "".join(write_log_entry(tx) for tx in (
    _log_tx(), _log_tx(headers=(("header", "x"), ("content", "")), body=b"body")))


def _decodes_or_log_decode_error(text):
    try:
        records = parse_capture_log(text)
    except LogDecodeError:
        return
    assert all(isinstance(tx, HttpTransaction) for tx in records)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=300), st.text(alphabet=_LOG_CHARS, max_size=300)))
def test_arbitrary_text_decodes_or_is_a_log_decode_error(text):
    _decodes_or_log_decode_error(text)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_LOG_TEXT)), st.sampled_from(["insert", "delete", "replace"]),
       st.one_of(st.sampled_from(_LOG_CHARS), st.characters()))
def test_one_character_mutation_decodes_or_is_a_log_decode_error(at, op, char):
    if op == "insert":
        text = _LOG_TEXT[:at] + char + _LOG_TEXT[at:]
    else:
        text = _LOG_TEXT[:at] + (char if op == "replace" else "") + _LOG_TEXT[at + 1:]
    _decodes_or_log_decode_error(text)


_fills = st.lists(st.text(alphabet=_WHITESPACE, max_size=3), min_size=1, max_size=6)


def _reformatted(text, fills, width):
    """``text`` with the whitespace between elements and inside <content />
    replaced from ``fills``, which also go after every ``width`` characters
    of a base64 value."""
    fill = itertools.cycle(fills)
    out = []
    for piece in re.split(r"(<[^>]*>)", text):
        if piece.startswith("<"):
            out.append(piece.replace(" ", next(fill)))  # only <content />
        elif piece.isspace() or not piece:
            out.append(next(fill))
        else:
            out.append("".join(piece[i:i + width] + next(fill)
                               for i in range(0, len(piece), width)))
    return "".join(out)


@settings(max_examples=200, deadline=None)
@given(_fills, st.integers(1, 9))
def test_whitespace_reformatted_log_decodes_to_the_same_records(fills, width):
    assert parse_capture_log(_reformatted(_LOG_TEXT, fills, width)) == parse_capture_log(_LOG_TEXT)


# ---------------------------------------------------------------------------
# The reader of the written layout against the general reader
# ---------------------------------------------------------------------------

def _general_reader(text):
    """parse_capture_log with _read_entry alone, the reference reader."""
    records, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        tx, pos = netguard._read_entry(text, pos)
        records.append(tx)
    return records


def _decode_result(decode, text):
    try:
        return decode(text), None
    except LogDecodeError as e:
        return None, str(e)


def _mutated(text, at, op, char):
    return text[:at] + ("" if op == "delete" else char) + text[at + (op != "insert"):]


@st.composite
def capture_logs(draw):
    """Records written from generated transactions, each left as written,
    with one character inserted, deleted or replaced, or reformatted."""
    entries = []
    for tx in draw(st.lists(transactions(), min_size=1, max_size=3)):
        entry = write_log_entry(tx)
        edit = draw(st.sampled_from(["written", "mutated", "reformatted"]))
        if edit == "mutated":
            entry = _mutated(entry, draw(st.integers(0, len(entry))),
                             draw(st.sampled_from(["insert", "delete", "replace"])),
                             draw(st.one_of(st.sampled_from(_LOG_CHARS), st.characters())))
        elif edit == "reformatted":
            entry = _reformatted(entry, draw(_fills), draw(st.integers(1, 9)))
        entries.append(entry)
    return "".join(entries)


@pytest.mark.reseeded
@settings(max_examples=300, deadline=None)
@given(st.one_of(capture_logs(),
                 st.builds(_mutated, st.just(_LOG_TEXT), st.integers(0, len(_LOG_TEXT)),
                           st.sampled_from(["insert", "delete", "replace"]),
                           st.one_of(st.sampled_from(_LOG_CHARS), st.characters()))))
@example(write_log_entry(_log_tx(body=_BODY)))
@example(_LOG_TEXT + _reformatted(_LOG_TEXT, ["\t"], 4) + _LOG_TEXT)
@example(_LOG_TEXT.replace("<host>Y2ZnLmFkc21vZ28uY29t<", "<host>Y2ZnLmFkc21vZ28uY29t=<", 1))
@example(_LOG_TEXT.replace("</Connection>", "</Connectio>", 1))
def test_written_layout_reader_agrees_with_the_general_reader(text):
    assert _decode_result(parse_capture_log, text) == _decode_result(_general_reader, text)


# Records in the written layout whose values then fail a check. An "=" after
# a full quantum is one binascii.a2b_base64 would take.
_WRITTEN_BUT_UNDECODABLE = {
    "header_close_tag": ("</X-A>", "</X-B>"),
    "header_extra_pad": ("<X-A>YWJj<", "<X-A>YWJj=<"),
    "host_extra_pad": ("<host>Y2ZnLmFkc21vZ28uY29t<", "<host>Y2ZnLmFkc21vZ28uY29t=<"),
    "path_extra_pad": ("<path>L3A/cT0x<", "<path>L3A/cT0x==<"),
    "content_extra_pad": ("<content>eHl6<", "<content>eHl6=<"),
    "method_extra_pad": ("<method>UE9TVA==<", "<method>UE9T=<"),
    "host_not_utf8": ("<host>Y2ZnLmFkc21vZ28uY29t<", "<host>//4=<"),
    "header_not_utf8": ("<X-A>YWJj<", "<X-A>//4=<"),
    "empty_method": ("<method>UE9TVA==<", "<method><"),
    "unknown_scheme": ("<scheme>aHR0cA==<", "<scheme>ZnRw<"),
    "port_over_65535": ("<port>ODA=<", "<port>NzAwMDA=<"),
}


@pytest.mark.parametrize("old, new", _WRITTEN_BUT_UNDECODABLE.values(),
                         ids=_WRITTEN_BUT_UNDECODABLE.keys())
def test_written_record_failing_a_check_goes_to_the_general_reader(old, new):
    entry = write_log_entry(_log_tx(headers=(("X-A", "abc"),), body=b"xyz"))
    assert entry.count(old) == 1
    bad = entry.replace(old, new)
    assert netguard._WRITTEN_RE.match(bad) and netguard._read_written(bad, 0) is None
    with pytest.raises(LogDecodeError) as raised:
        parse_capture_log(entry + bad)
    assert _decode_result(_general_reader, entry + bad) == (None, str(raised.value))


@pytest.mark.parametrize("field, value", [("method", "PATCH"), ("port", "8080"),
                                          ("http_version", "HTTP/2")])
def test_written_record_outside_the_tables_goes_to_the_general_reader(field, value):
    tx = _log_tx()._replace(**{field: value})
    entry = write_log_entry(tx)
    assert netguard._WRITTEN_RE.match(entry) and netguard._read_written(entry, 0) is None
    assert parse_capture_log(entry) == [netguard._read_entry(entry, 0)[0]] == [tx]


def test_written_records_share_the_table_strings():
    first, second = parse_capture_log(write_log_entry(_log_tx()) * 2)
    assert first.method is second.method is netguard._METHOD_TEXT["R0VU"]
    assert first.scheme is second.scheme is netguard._SCHEME_TEXT["aHR0cA=="]
    assert first.port is second.port is netguard._PORT_TEXT["ODA="]
    assert first.http_version is second.http_version is netguard._VERSION_TEXT["SFRUUC8xLjE="]


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _guard(**kw):
    kw.setdefault("signatures", SIGS)
    kw.setdefault("reputation", REP)
    return NetGuard(kw.pop("signatures"), kw.pop("reputation"), **kw)


def test_pipeline_never_forwards_gated_traffic():
    guard = _guard()
    stripped = guard.handle(_raw(method="POST", body=b"MAL-DROP-001"))
    redirected = guard.handle(_raw(host="telemetry.trusted.example"))
    guard.handle(_raw(host="plain.example"))
    forwarded_hosts = [tx.host for tx in guard.forwarded]
    assert forwarded_hosts == ["plain.example"]
    # The gated requests got the simulator's reply, built from what they sent.
    assert stripped.verdict.kind == "strip_and_redirect"
    assert stripped.response == simulate_response(strip_payload(stripped.transaction, SIGS))
    assert redirected.verdict.kind == "redirect_sim"
    assert redirected.response == simulate_response(redirected.transaction)


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
    assert outcome is MALFORMED_OUTCOME
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


@pytest.mark.parametrize("name", ["header", "content", "method", "http_version"])
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
    guard = _guard(identities={"secure.bank.example": "bank-embedded-root"})
    outcome = guard.handle(_raw(host="secure.bank.example"), "https",
                           server="secure.bank.example")
    assert outcome is TLS_REJECTED_OUTCOME
    assert guard.capture_log == []
    assert guard.forwarded == []


def test_non_pinned_https_is_intercepted_and_logged():
    guard = _guard()
    outcome = guard.handle(_raw(host="cfg.adsmogo.com"), "https",
                           server="cfg.adsmogo.com")
    assert outcome.disposition == "handled"
    decoded = parse_capture_log(guard.capture_text())
    assert decoded[0].host == "cfg.adsmogo.com"
    assert decoded[0].scheme == "https"


def test_non_pinned_identity_is_intercepted():
    # A server the app pins to the guard's own root is intercepted like an
    # unpinned one: its plaintext reaches the capture log.
    guard = _guard(identities={"cfg.adsmogo.com": DEFAULT_CUSTOM_ROOT})
    for server in ("cfg.adsmogo.com", "api.unknown.example"):
        outcome = guard.handle(_raw(host=server), "https", server=server)
        assert outcome.disposition == "handled"
        assert outcome.transaction.host == server
        assert parse_capture_log(guard.capture_log[-1]) == [outcome.transaction]
    assert len(guard.capture_log) == 2


def test_pinned_identity_rejects_interception():
    guard = _guard(identities={"secure.bank.example": "bank-embedded-root"})
    outcome = guard.handle(_raw(host="secure.bank.example"), "https",
                           server="secure.bank.example")
    assert outcome.disposition == "tls_rejected"
    assert outcome.transaction is None
    assert guard.capture_log == [] and guard.malformed_log == []
    # The pin binds HTTPS only: plain HTTP to the same server is still seen.
    assert guard.handle(_raw(host="secure.bank.example"), "http",
                        server="secure.bank.example").disposition == "handled"


_PIN_DOMAINS = ("a.example", "b.example", "c.example")
_ROOTS = (DEFAULT_CUSTOM_ROOT, "bank-embedded-root", "")


@settings(max_examples=300, deadline=None)
@given(pins=st.dictionaries(st.sampled_from(_PIN_DOMAINS), st.sampled_from(_ROOTS)),
       custom_root=st.sampled_from(_ROOTS),
       server=st.none() | st.sampled_from(_PIN_DOMAINS),
       protocol=st.sampled_from(("http", "https", "HTTPS")),
       path=st.sampled_from(("/", "/a?b=1", "/MAL-DROP-001")))
def test_https_is_rejected_exactly_when_its_server_is_pinned_to_another_root(
        pins, custom_root, server, protocol, path):
    guard = _guard(custom_root=custom_root, identities=pins)
    guard.handle(_raw(path="/earlier"))
    guard.handle(b"not-http at all")
    before = (list(guard.capture_log), list(guard.malformed_log), list(guard.forwarded))
    outcome = guard.handle(_raw(path=path, host=server or "h.example"), protocol, server)
    if protocol.lower() == "https" and server in pins and pins[server] != custom_root:
        assert outcome is TLS_REJECTED_OUTCOME
        assert (guard.capture_log, guard.malformed_log, guard.forwarded) == before
    else:
        assert outcome.disposition == "handled"
        assert outcome.transaction.scheme == protocol.lower()
        assert guard.capture_log[:-1] == before[0]
        assert parse_capture_log(guard.capture_log[-1]) == [outcome.transaction]


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
    guard = _guard(identities={"secure.bank.example": "bank-embedded-root"})
    outcome = guard.handle(raw, protocol, server)
    assert isinstance(outcome, GuardOutcome)
    assert outcome.disposition in ("handled", "blocked_protocol", "malformed", "tls_rejected")


# ---------------------------------------------------------------------------
# Signature scan: the path is matched as the latin-1 bytes it was parsed from
# ---------------------------------------------------------------------------

def test_non_ascii_pattern_in_raw_path_bytes_is_found():
    sigs = SignatureDb((Signature("sig-e-acute", b"\xc3\xa9"),))
    raw = b"GET /caf\xc3\xa9 HTTP/1.1\r\nHost: h.example\r\n\r\n"
    tx = parse_request(raw)
    assert decide(tx, sigs, REP).kind == "strip_and_redirect"
    assert strip_payload(tx, sigs).path == "/caf"
    outcome = _guard(signatures=sigs).handle(raw)
    assert outcome.verdict.kind == "strip_and_redirect"


def test_pattern_byte_absent_from_raw_path_bytes_does_not_match():
    # \xe9 is one byte in the request; its UTF-8 form would hold \xc3
    sigs = SignatureDb((Signature("sig-c3", b"\xc3"),))
    raw = b"GET /caf\xe9 HTTP/1.1\r\nHost: h.example\r\n\r\n"
    tx = parse_request(raw)
    assert decide(tx, sigs, REP).kind == "forward"
    assert _guard(signatures=sigs).handle(raw).verdict.kind == "forward"


def test_packaged_shell_signature_in_a_path_is_stripped():
    sigs = default_signatures()
    pattern = next(s.pattern for s in sigs.signatures if s.id == "sig-shell-03")
    text = pattern.decode("latin-1")
    tx = HttpTransaction("GET", "http", "h.example", "80", f"/run?c={text}&x=1", "HTTP/1.1")
    verdict = decide(tx, sigs, REP)
    assert (verdict.kind, verdict.signature_id) == ("strip_and_redirect", "sig-shell-03")
    stripped = strip_payload(tx, sigs)
    assert text not in stripped.path
    assert stripped.path == "/run?c=&x=1"


def test_signature_db_compares_and_hashes_by_its_signatures():
    again = SignatureDb(tuple(SIGS.signatures))
    assert again == SIGS and hash(again) == hash(SIGS)
    assert "_scan" not in repr(SIGS)


# ---------------------------------------------------------------------------
# Ambiguous framing is malformed
# ---------------------------------------------------------------------------

_AMBIGUOUS = {
    "two_content_lengths": (
        b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\n"
        b"abcMAL-DROP-001",
        "more than one Content-Length header"),
    "two_hosts": (
        b"GET / HTTP/1.1\r\nHost: a.example\r\nhost: b.example\r\n\r\n",
        "more than one Host header"),
    "two_hosts_absolute_target": (
        b"GET http://a.example/p HTTP/1.1\r\nHost: a.example\r\nHOST: a.example\r\n\r\n",
        "more than one Host header"),
    "chunked": (
        b"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"c\r\nMAL-DROP-001\r\n0\r\n\r\n",
        "unsupported Transfer-Encoding: 'chunked'"),
    "transfer_encoding_and_length": (
        b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\ntransfer-encoding: gzip\r\n\r\nabc",
        "unsupported Transfer-Encoding: 'gzip'"),
}


@pytest.mark.parametrize("raw, message", _AMBIGUOUS.values(), ids=_AMBIGUOUS.keys())
def test_ambiguous_framing_is_a_parse_error(raw, message):
    with pytest.raises(RequestParseError) as e:
        parse_request(raw)
    assert str(e.value) == message


@pytest.mark.parametrize("raw", [raw for raw, _ in _AMBIGUOUS.values()], ids=_AMBIGUOUS.keys())
def test_pipeline_logs_ambiguous_framing_as_malformed(raw):
    guard = _guard()
    outcome = guard.handle(raw)
    assert outcome.disposition == "malformed"
    assert outcome.verdict is None and outcome.response is None
    assert guard.capture_log == [] and guard.forwarded == []
    assert [base64.b64decode(e) for e in guard.malformed_log] == [raw]


def test_one_host_and_one_content_length_still_parse():
    tx = parse_request(b"POST / HTTP/1.1\r\nHOST: a.example:81\r\ncontent-length: 3\r\n\r\nabc")
    assert (tx.host, tx.port, tx.content) == ("a.example", "81", b"abc")


# ---------------------------------------------------------------------------
# A host or version that cannot be routed is malformed
# ---------------------------------------------------------------------------

_UNROUTABLE = {
    "empty_host_header": (b"GET / HTTP/1.1\r\nHost:\r\n\r\n", "bad host: ''"),
    "port_without_host": (b"GET / HTTP/1.1\r\nHost: :80\r\n\r\n", "bad host: ''"),
    "empty_absolute_authority": (b"GET http:///p HTTP/1.1\r\n\r\n", "bad host: ''"),
    "space_in_host": (b"GET / HTTP/1.1\r\nHost: a b\r\n\r\n", "bad host: 'a b'"),
    "non_ascii_host": ("GET / HTTP/1.1\r\nHost: caf\xe9.example\r\n\r\n".encode("latin-1"),
                       "bad host: 'caf\xe9.example'"),
    "slash_in_host": (b"GET / HTTP/1.1\r\nHost: a/b\r\n\r\n", "bad host: 'a/b'"),
    "bare_percent": (b"GET / HTTP/1.1\r\nHost: %\r\n\r\n", "bad host: '%'"),
    "percent_not_hex": (b"GET / HTTP/1.1\r\nHost: a%zz\r\n\r\n", "bad host: 'a%zz'"),
    "percent_one_digit": (b"GET / HTTP/1.1\r\nHost: a%4\r\n\r\n", "bad host: 'a%4'"),
    "trailing_percent": (b"GET / HTTP/1.1\r\nHost: a%41%\r\n\r\n", "bad host: 'a%41%'"),
    "future_version": (b"GET / HTTP/9.9\r\nHost: a.example\r\n\r\n",
                       "unsupported HTTP version: 'HTTP/9.9'"),
    "bare_version_prefix": (b"GET / HTTP/\r\nHost: a.example\r\n\r\n",
                            "unsupported HTTP version: 'HTTP/'"),
    "http2": (b"GET / HTTP/2.0\r\nHost: a.example\r\n\r\n",
              "unsupported HTTP version: 'HTTP/2.0'"),
}


@pytest.mark.parametrize("raw, message", _UNROUTABLE.values(), ids=_UNROUTABLE.keys())
def test_unroutable_host_or_version_is_a_parse_error(raw, message):
    with pytest.raises(RequestParseError) as e:
        parse_request(raw)
    assert str(e.value) == message


@pytest.mark.parametrize("raw", [raw for raw, _ in _UNROUTABLE.values()], ids=_UNROUTABLE.keys())
def test_pipeline_logs_unroutable_host_or_version_as_malformed(raw):
    guard = _guard()
    outcome = guard.handle(raw)
    assert outcome.disposition == "malformed"
    assert outcome.verdict is None and outcome.response is None
    assert guard.capture_log == [] and guard.forwarded == []
    assert [base64.b64decode(e) for e in guard.malformed_log] == [raw]


@pytest.mark.parametrize("host", [b"a" * 50_000 + b"%", b"a%41" * 12_500 + b"%"],
                         ids=["plain", "escaped"])
def test_long_host_with_a_stray_percent_is_rejected_in_linear_time(host):
    raw = b"GET / HTTP/1.1\r\nHost: " + host + b"\r\n\r\n"
    start = time.perf_counter()
    with pytest.raises(RequestParseError, match="bad host"):
        parse_request(raw)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("raw, host, version", [
    (b"GET / HTTP/1.0\r\nHost: a.example\r\n\r\n", "a.example", "HTTP/1.0"),
    (b"GET / HTTP/1.1\r\nHost: A-z0.9_~!$&'()*+,;=%41:8080\r\n\r\n",
     "A-z0.9_~!$&'()*+,;=%41", "HTTP/1.1"),
    (b"GET http://10.0.0.1:81/p HTTP/1.1\r\n\r\n", "10.0.0.1", "HTTP/1.1"),
])
def test_every_reg_name_character_and_both_versions_still_parse(raw, host, version):
    tx = parse_request(raw)
    assert (tx.host, tx.http_version) == (host, version)


# ---------------------------------------------------------------------------
# A header line is parsed by its grammar
# ---------------------------------------------------------------------------

# A parser that strips a header name, or strips more than SP and HTAB from
# a value, routes or frames each of these.
_BAD_HEADER_LINES = {
    "nel_before_colon": b"GET / HTTP/1.1\r\nHost\x85: evil.example\r\n\r\n",
    "separator_before_name": b"GET / HTTP/1.1\r\n\x1cHost: evil.example\r\n\r\n",
    "space_before_colon": b"GET / HTTP/1.1\r\nHost : a.example\r\n\r\n",
    "obs_fold": b"GET / HTTP/1.1\r\nX-A: 1\r\n Host: evil.example\r\n\r\n",
    "nel_after_length": b"POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 3\x85\r\n\r\nabc",
    # RFC 9110 5.5: a field value holding CR or NUL is rejected.
    "bare_cr_in_value": b"GET / HTTP/1.1\r\nHost: a\r\nX: 1\r\r\n\r\n",
    "nul_in_value": b"GET / HTTP/1.1\r\nHost: a\r\nY: a\x00b\r\n\r\n",
}


@pytest.mark.parametrize("raw", _BAD_HEADER_LINES.values(), ids=_BAD_HEADER_LINES.keys())
def test_a_header_line_outside_its_grammar_is_malformed(raw):
    with pytest.raises(RequestParseError):
        parse_request(raw)
    guard = _guard()
    assert guard.handle(raw).disposition == "malformed"
    assert guard.capture_log == [] and guard.forwarded == []
    assert [base64.b64decode(e) for e in guard.malformed_log] == [raw]


@pytest.mark.parametrize("tail", ["\x85", "\xa0", "\x1c", "\x01", "\x7f"])
def test_a_header_value_loses_only_sp_and_htab(tail):
    raw = f"GET / HTTP/1.1\r\nHost: a\r\nX-A: \t v{tail} \t\r\n\r\n".encode("latin-1")
    assert parse_request(raw).headers == (("Host", "a"), ("X-A", f"v{tail}"))


def test_a_cr_before_a_bare_lf_ends_the_last_header_line():
    tx = parse_request(b"GET / HTTP/1.1\r\nHost: a\r\n\n")
    assert (tx.host, tx.headers) == ("a", (("Host", "a"),))


@pytest.mark.parametrize("scheme", ["http", "HTTP", "Http", "hTtP"])
def test_an_absolute_form_target_is_routed_by_its_own_host_in_either_case(scheme):
    # RFC 3986 3.1: a scheme is case-insensitive; RFC 9112 3.2.2: with an
    # absolute-form target the Host header is ignored.
    raw = (f"GET {scheme}://c2.evil.example/x HTTP/1.1\r\n"
           f"Host: telemetry.trusted.example\r\n\r\n").encode()
    tx = parse_request(raw)
    assert (tx.scheme, tx.host, tx.port, tx.path) == ("http", "c2.evil.example", "80", "/x")
    out = NetGuard(SIGS, REP).handle(raw)
    assert (out.verdict, out.transaction) == (FORWARD, tx)


@pytest.mark.parametrize("scheme", ["https", "HTTPS", "hTTps"])
def test_an_absolute_form_https_target_takes_its_port_in_either_case(scheme):
    tx = parse_request(f"GET {scheme}://h.example:8443 HTTP/1.1\r\n\r\n".encode(), "https")
    assert (tx.scheme, tx.host, tx.port, tx.path) == ("https", "h.example", "8443", "/")


@pytest.mark.parametrize("target, port, path", [
    ("http://h.example?q=1", "80", "/?q=1"),
    ("http://h.example:8080?q=/a/b", "8080", "/?q=/a/b"),
    ("http://h.example/p?q=1", "80", "/p?q=1"),
    ("http://h.example", "80", "/"),
])
def test_an_absolute_form_authority_ends_at_a_slash_or_a_question_mark(target, port, path):
    # RFC 3986 3.2: the authority ends at the next "/", "?" or "#".
    tx = parse_request(f"GET {target} HTTP/1.1\r\nHost: other.example\r\n\r\n".encode())
    assert (tx.host, tx.port, tx.path) == ("h.example", port, path)


def test_a_fragment_mark_in_an_absolute_form_authority_is_malformed():
    raw = b"GET http://h.example#f HTTP/1.1\r\nHost: other.example\r\n\r\n"
    with pytest.raises(RequestParseError, match="bad host"):
        parse_request(raw)
    assert NetGuard(SIGS, REP).handle(raw) is MALFORMED_OUTCOME


@pytest.mark.parametrize("target", ["/HTTP://c2.evil.example/x", "HTTPX://c2.evil.example/x",
                                    "HTTP:/c2.evil.example/x", "*"])
def test_a_target_that_is_not_absolute_form_is_routed_by_the_host_header(target):
    tx = parse_request(f"GET {target} HTTP/1.1\r\nHost: a.example\r\n\r\n".encode())
    assert (tx.host, tx.path) == ("a.example", target)


# ---------------------------------------------------------------------------
# The one-pass parser against the two-pass parser it replaced
# ---------------------------------------------------------------------------

def _reference_parse_request(raw: bytes, declared_protocol: str = "http") -> HttpTransaction:
    """parse_request as it was before it read the request in one pass, with
    the rules it gained since: a method is a token, a header value holds no
    CR or NUL, and an absolute-form target's scheme is matched
    case-insensitively and its authority ends at "?" as well as at "/"."""
    protocol = declared_protocol.lower()
    if protocol not in ("http", "https"):
        raise RequestParseError(f"unknown protocol {declared_protocol!r}")

    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        head, sep, rest = raw.partition(b"\n\n")
        head = head.removesuffix(b"\r")
    lines = head.replace(b"\r\n", b"\n").split(b"\n")
    if not lines or not lines[0].strip():
        raise RequestParseError("empty request")
    parts = lines[0].split()
    if len(parts) != 3:
        raise RequestParseError(f"bad request line: {lines[0]!r}")
    method, target, version = (p.decode("latin-1") for p in parts)
    if not version.startswith("HTTP/"):
        raise RequestParseError(f"bad HTTP version: {version!r}")
    if not _REFERENCE_TOKEN_RE.fullmatch(method):
        raise RequestParseError(f"bad method: {method!r}")

    headers = []
    for line in lines[1:]:
        if not line.strip():
            continue
        name, colon, value = line.partition(b":")
        name = name.decode("latin-1")
        if not colon or not _REFERENCE_TOKEN_RE.fullmatch(name):
            raise RequestParseError(f"bad header line: {line!r}")
        if b"\r" in value or b"\x00" in value:
            raise RequestParseError(f"bad header value: {line!r}")
        headers.append((name, value.decode("latin-1").strip(" \t")))

    host, port, path = _reference_split_target(target, headers, protocol)

    content = b""
    length = next((v for n, v in headers if n.lower() == "content-length"), None)
    if length is not None:
        n = _reference_decimal(length, "Content-Length")
        if len(rest) < n:
            raise RequestParseError(f"truncated body: expected {n} bytes, got {len(rest)}")
        content = rest[:n]

    return HttpTransaction(method, protocol, host, port, path, version,
                           tuple(headers), content)


_REFERENCE_TOKEN_RE = re.compile(r"[A-Za-z0-9!#$%&'*+.^_`|~-]+")


def _reference_split_target(target: str, headers, protocol: str) -> tuple[str, str, str]:
    if target.lower().startswith(("http://", "https://")):
        rest = target.split("://", 1)[1]
        authority, path = re.fullmatch(r"([^/?]*)(.*)", rest, re.DOTALL).groups()
        if not path.startswith("/"):
            path = "/" + path
    else:
        authority = next((v for n, v in headers if n.lower() == "host"), None)
        if authority is None:
            raise RequestParseError("no Host header and no absolute request target")
        path = target
    host, _, port = authority.partition(":")
    port = port or ("443" if protocol == "https" else "80")
    if _reference_decimal(port, "port") > 65535:
        raise RequestParseError(f"bad port: {port!r}")
    return host, port, path


def _reference_decimal(text: str, what: str) -> int:
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    raise RequestParseError(f"bad {what}: {text!r}")


_FRAMING_MESSAGES = ("more than one Host header", "more than one Content-Length header",
                     "unsupported Transfer-Encoding: ")
_ROUTING_MESSAGES = ("unsupported HTTP version: ", "bad host: ")
_WELL_FORMED = [
    _raw(method="GET", path="/GetInfo.ashx?appid=7ffc7be9", host="cfg.adsmogo.com",
         headers=(("Connection", "Keep-Alive"), ("User-Agent", "Apache-HttpClient (java 1.4)"))),
    _raw(method="POST", host="h.example", port=8080, body=b"a=1&b=MAL-DROP-001"),
    b"GET http://h.example:80/p?q=1 HTTP/1.0\r\nAccept: */*\r\n\r\n",
    b"GET http://h.example:8080?q=/a HTTP/1.1\r\n\r\n",
    b"GET HTTPS://h.example/p HTTP/1.1\r\nHost: other.example\r\n\r\n",
    b"POST /up HTTP/1.1\nHost: h.example\nContent-Length: 4\n\nbody",
    b"PUT /x HTTP/1.1\r\nHost: a\r\nX-A: \xe9\xa0\r\n \r\nX-B:v\r\n\t\n\r\n\r\n",
    b"GET / HTTP/1.1\r\nHost: a\r\n\r\n",
]
_EDIT_BYTES = [b" ", b"\t", b"\r", b"\n", b":", b"\x0b", b"\x1c", b"\x85", b"\xa0"]


@st.composite
def one_byte_edits(draw):
    """A well-formed request with one byte inserted, deleted or replaced,
    most often at or next to a separator byte."""
    base = draw(st.sampled_from(_WELL_FORMED))
    separators = [i + d for i, b in enumerate(base) if b in b" \t\r\n:" for d in (0, 1)]
    at = draw(st.one_of(st.sampled_from(separators), st.integers(0, len(base))))
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    byte = draw(st.one_of(st.sampled_from(_EDIT_BYTES), st.binary(min_size=1, max_size=1)))
    return base[:at] + (b"" if op == "delete" else byte) + base[at + (op != "insert"):]


def _parse_result(parse, raw, protocol):
    try:
        return parse(raw, protocol), None
    except RequestParseError as e:
        return None, str(e)


@settings(max_examples=500, deadline=None)
@given(raw=one_byte_edits(), protocol=st.sampled_from(["http", "https"]))
def test_one_byte_edit_parses_as_the_two_pass_parser_did(raw, protocol):
    tx, error = _parse_result(parse_request, raw, protocol)
    if error is not None and error.startswith(_FRAMING_MESSAGES):
        return  # rejected on purpose; the reference takes the first value
    if error is not None and error.startswith(_ROUTING_MESSAGES):
        # Rejected on purpose, and only where the reference accepted the
        # request with a version or host outside the rules.
        ref = _reference_parse_request(raw, protocol)
        if ref.http_version not in ("HTTP/1.0", "HTTP/1.1"):
            assert error == f"unsupported HTTP version: {ref.http_version!r}"
        else:
            assert error == f"bad host: {ref.host!r}"
            assert not re.fullmatch(r"(?=.)[A-Za-z0-9._~!$&'()*+,;=-]*"
                                    r"(?:%[0-9A-Fa-f]{2}[A-Za-z0-9._~!$&'()*+,;=-]*)*", ref.host)
        return
    assert (tx, error) == _parse_result(_reference_parse_request, raw, protocol)


# ---------------------------------------------------------------------------
# A method is a token (RFC 9110 9.1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", [b"G(T", b"G\xffT"])
def test_a_method_that_is_not_a_token_is_malformed(method):
    raw = method + b" / HTTP/1.1\r\nHost: a.example\r\n\r\n"
    with pytest.raises(RequestParseError, match="^bad method: "):
        parse_request(raw)
    guard = _guard()
    assert guard.handle(raw).disposition == "malformed"
    assert guard.capture_log == [] and guard.forwarded == []
    assert [base64.b64decode(e) for e in guard.malformed_log] == [raw]


@pytest.mark.parametrize("method", ["PATCH", "M-SEARCH"])
def test_a_token_method_outside_the_rfc_9110_set_is_handled(method):
    guard = _guard()
    outcome = guard.handle(f"{method} / HTTP/1.1\r\nHost: a.example\r\n\r\n".encode())
    assert outcome.disposition == "handled"
    assert outcome.transaction.method == method
    assert parse_capture_log(guard.capture_text()) == [outcome.transaction]


# What bytes.split() splits the request line at; every other latin-1
# character may stand in a method.
_LINE_SPACE = " \t\n\r\x0b\x0c"
_methods = st.text(st.one_of(
    st.sampled_from("!#$%&'*+-.^_`|~" + string.ascii_letters + string.digits),
    st.characters(max_codepoint=0xFF, exclude_characters=_LINE_SPACE)), min_size=1, max_size=10)


@pytest.mark.reseeded
@settings(max_examples=300, deadline=None)
@given(method=_methods)
def test_a_request_parses_exactly_when_its_method_is_a_token(method):
    raw = method.encode("latin-1") + b" / HTTP/1.1\r\nHost: a.example\r\n\r\n"
    tx, error = _parse_result(parse_request, raw, "http")
    if _REFERENCE_TOKEN_RE.fullmatch(method):
        assert error is None and tx.method == method
    else:
        assert tx is None and error == f"bad method: {method!r}"


# ---------------------------------------------------------------------------
# Records built without their constructor, and the log writer's table
# ---------------------------------------------------------------------------

def _check_transaction(tx):
    # parse_request and strip_payload build with tuple.__new__: what they
    # build must be what the constructor, with its rules, builds.
    assert type(tx) is HttpTransaction and len(tx) == len(HttpTransaction._fields)
    assert HttpTransaction(*tx) == tx


def _check_handled_outcome(out):
    assert type(out) is GuardOutcome and len(out) == len(GuardOutcome._fields) == 4
    assert GuardOutcome(*out) == out
    assert out.disposition == "handled"
    assert type(out.verdict) is Verdict and type(out.response) is bytes
    _check_transaction(out.transaction)


@pytest.mark.reseeded
@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.sampled_from(_WELL_FORMED), one_byte_edits()),
       protocol=st.sampled_from(["http", "https"]))
def test_parsed_records_built_without_a_constructor_pass_it(raw, protocol):
    tx, _ = _parse_result(parse_request, raw, protocol)
    if tx is not None:
        _check_transaction(tx)
        _check_transaction(strip_payload(tx, SIGS))
    guard = NetGuard(SIGS, REP)
    out = guard.handle(raw, protocol)
    assert (out.disposition == "handled") == (tx is not None)
    if tx is not None:
        _check_handled_outcome(out)
        assert out.transaction == tx
        [decoded] = parse_capture_log(guard.capture_text())
        _check_transaction(decoded)
        assert decoded == tx


@pytest.mark.reseeded
@settings(max_examples=150, deadline=None)
@given(tx=transactions(), pattern=st.sampled_from([s.pattern for s in SIGS.signatures]),
       where=st.sampled_from(["path", "content", "both"]))
def test_stripped_records_built_without_a_constructor_pass_it(tx, pattern, where):
    if where != "content":
        tx = tx._replace(path=tx.path + pattern.decode("latin-1"))
    if where != "path":
        tx = tx._replace(content=pattern + tx.content)
    stripped = strip_payload(tx, SIGS)
    _check_transaction(stripped)
    assert stripped[:4] == tx[:4] and stripped[5:7] == tx[5:7]


@pytest.mark.reseeded
@settings(max_examples=150, deadline=None)
@given(capture_logs())
def test_decoded_records_built_without_a_constructor_pass_it(text):
    # _read_written builds a record whose four fixed fields all come from
    # its tables with tuple.__new__.
    records, _ = _decode_result(parse_capture_log, text)
    for tx in records or ():
        _check_transaction(tx)


def _reference_log_entry(tx: HttpTransaction) -> str:
    """A capture record as the module docstring lays it out, every value
    encoded on its own."""
    def b64(data: bytes) -> str:
        return binascii.b2a_base64(data).decode().removesuffix("\n")

    lines = ["<header>"]
    lines += [f"  <{tag}>{b64(getattr(tx, tag).encode())}</{tag}>" for tag in FIELD_TAGS]
    lines += [f"  <{name}>{b64(value.encode())}</{name}>" for name, value in tx.headers]
    lines.append("</header>")
    lines.append(f"<content>{b64(tx.content)}</content>" if tx.content else "<content />")
    return "\n".join(lines) + "\n"


@pytest.mark.reseeded
@settings(max_examples=200, deadline=None)
@given(transactions())
def test_log_entry_equals_the_reference_encoder(tx):
    assert write_log_entry(tx) == _reference_log_entry(tx)


# The values the writer takes from its table: the RFC 9110 methods, both
# schemes, their default ports and both versions.
_TABLE_VALUES = {"GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS", "TRACE",
                 "http", "https", "80", "443", "HTTP/1.0", "HTTP/1.1"}
_NEAR_MISSES = ["get", "Get", "GET ", "PATCH", "HTTP", "Http", "HTTPS", "http ",
                "080", "8080", "0", "4430", "HTTP/2", "HTTP/1.2", "http/1.1", "HTTP/1.1 ", ""]


@pytest.mark.reseeded
@pytest.mark.parametrize("value", sorted(_TABLE_VALUES) + _NEAR_MISSES)
def test_log_entry_equals_the_reference_encoder_for_table_values_and_near_misses(value):
    base = HttpTransaction("OPTIONS", "https", "h.example", "443", "/", "HTTP/1.0")
    for tag in ("method", "scheme", "port", "http_version"):
        try:
            tx = base._replace(**{tag: value})
        except ValueError:
            continue  # a value this field cannot hold
        assert write_log_entry(tx) == _reference_log_entry(tx)
    assert netguard._B64_TEXT.keys() == _TABLE_VALUES  # never grows at run time


# ---------------------------------------------------------------------------
# The per-header-line memos
# ---------------------------------------------------------------------------

# One full memo for each, of keys no request or record line equals.
_FULL_MEMOS = ({f"\x00{i}": (("X", "x"), "x") for i in range(netguard._LINE_MEMO_SIZE)},
               {("\x00", str(i)): "x" for i in range(netguard._LINE_MEMO_SIZE)},
               {f"\x00{i}": ("X", "x") for i in range(netguard._LINE_MEMO_SIZE)})


def _outcome(step, arg):
    try:
        return step(arg), None
    except ValueError as e:
        return None, (type(e), str(e))


@pytest.mark.reseeded
@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.sampled_from(_WELL_FORMED), one_byte_edits()),
       protocol=st.sampled_from(["http", "https"]), tx=transactions(), text=capture_logs())
def test_line_memos_change_no_result(raw, protocol, tx, text):
    steps = ((lambda r: parse_request(r, protocol), raw), (write_log_entry, tx),
             (parse_capture_log, text))
    first = [_outcome(step, arg) for step, arg in steps]
    # Every line the first call memoised is now a hit.
    assert [_outcome(step, arg) for step, arg in steps] == first
    clear_line_memos()
    assert [_outcome(step, arg) for step, arg in steps] == first
    # Full memos take no line, so every line is read afresh.
    with contextlib.ExitStack() as stack:
        for name, full in zip(LINE_MEMOS, _FULL_MEMOS):
            stack.enter_context(mock.patch.object(netguard, name, full))
        assert [_outcome(step, arg) for step, arg in steps] == first
    assert [len(full) for full in _FULL_MEMOS] == [netguard._LINE_MEMO_SIZE] * 3


def test_equal_header_lines_share_one_tuple(empty_line_memos):
    accept = (("Accept", "*/*"),)
    a = parse_request(_raw(path="/a", headers=accept))
    b = parse_request(_raw(path="/b", host="other.example", headers=accept))
    assert a.headers[1] == b.headers[1] == accept[0] and a.headers[1] is b.headers[1]
    assert a.headers[0] != b.headers[0]
    first, second = parse_capture_log(write_log_entry(a) + write_log_entry(b))
    assert (first, second) == (a, b) and first.headers[1] is second.headers[1]


@pytest.mark.parametrize("line", ["X Y: z", "no colon", " X-A: folded", "X-A: a\rb", "X-A: \x00"])
def test_a_bad_header_line_is_never_memoised(line, empty_line_memos):
    for _ in range(2):
        with pytest.raises(RequestParseError, match="bad header"):
            netguard._header_line(line)
    assert netguard._HEADER_LINES == {}


def test_line_memos_keep_their_first_lines_and_then_stay_as_they_are(empty_line_memos):
    size = netguard._LINE_MEMO_SIZE
    txs = [parse_request(_raw(host=f"h{i}.example")) for i in range(size + 10)]
    assert parse_capture_log("".join(map(write_log_entry, txs))) == txs
    assert [len(memo) for memo in empty_line_memos] == [size] * 3
    lines = netguard._HEADER_LINES
    assert "Host: h0.example" in lines and f"Host: h{size - 1}.example" in lines
    assert f"Host: h{size}.example" not in lines
    # A full memo never rebuilds its table: the memory it holds stays put.
    tables = [sys.getsizeof(memo) for memo in empty_line_memos]
    more = [parse_request(_raw(host=f"more{i}.example")) for i in range(size)]
    assert parse_capture_log("".join(map(write_log_entry, more))) == more
    assert [sys.getsizeof(memo) for memo in empty_line_memos] == tables
