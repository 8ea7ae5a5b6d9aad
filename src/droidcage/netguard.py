"""Network control pipeline.

Every app request passes through here: HTTPS is intercepted with a leaf
signed by the sandbox's own root, which only an app that pins its server
to another root rejects, the plaintext request is parsed and logged as
base64-tagged capture records, known-malicious payloads are stripped,
well-reputed destinations are diverted to a consistent services
simulator, and only the remainder is forwarded: recorded on the guard and
answered with a fixed reply, never sent to the network.

A capture record is ``<header>``, the six fields of ``FIELD_TAGS`` and then
one element per request header, each ``<name>base64</name>``, then
``</header>`` and ``<content>base64</content>`` (or ``<content />``).
``write_log_entry`` writes one element per line; the reader also takes any
whitespace before and between elements, inside a base64 value, and
between ``content`` and ``/>``, but none inside a tag. With its whitespace
removed, a value is decoded only when its length is a multiple of 4 and
every "=" is among its last two characters (in a header value, every "="
is also followed only by "="). It is decoded with ``binascii.a2b_base64``,
which on such values gives what ``base64.b64decode(validate=True)`` gives on
every CPython from 3.10 to 3.13: the same bytes, or an error for both. Any
other value makes the record undecodable, and so does a method that is not a
token: an ``HttpTransaction``'s method is one, as ``parse_request``'s is.

A record in exactly the layout ``write_log_entry`` writes, with no other
whitespace, is read through one exact pattern, which takes the method, scheme,
port and version strings from the inverse of the writer's table. Every other
layout, a record with a value outside that table, and every record that
pattern matches but cannot decode, goes to the general reader, which alone
reports a ``LogDecodeError``; both give the same records.

Three per-header steps run once per distinct line, not once per line: reading
a request header line (``_header_line``), writing a header's record line
(``_header_text``) and reading one back in the written layout
(``_written_header``). Each is a pure function of that one line, memoised in
a module-level dict (``_HEADER_LINES``, ``_HEADER_TEXTS``,
``_WRITTEN_HEADERS``) that keeps the first ``_LINE_MEMO_SIZE`` distinct lines
it meets and evicts none. So a hit gives what a first call gives, equal lines
share one immutable tuple, and a full memo allocates nothing. A line that
raises is never memoised. The rules on a whole request (one ``Host``, one
``Content-Length``, no ``Transfer-Encoding``) run on every request.

``parse_request`` takes a request with at most one ``Host`` header and at
most one ``Content-Length`` header, and none with a ``Transfer-Encoding``
header: each of those frames the request ambiguously (RFC 9112 3.2, 6.1,
6.3), so it is malformed. So is a request whose method is not a token (RFC
9110 9.1), whose version is not HTTP/1.0 or HTTP/1.1 (RFC 9112 2.3), or whose
host is empty, holds a character outside an RFC 3986 reg-name or a "%" that
does not open a %HH escape (RFC 9112 3.2): it has nowhere valid to go. A header line is a name, a colon and a value: the
name must be a token, so whitespace before its colon (RFC 9112 5.1) or before
the name, as on an obs-fold continuation line (RFC 9112 5.2), makes the
request malformed, and the value loses only its leading and trailing SP and
HTAB (RFC 9110 5.6.3), no other byte. A target in absolute form, whose scheme
``http`` or ``https`` is matched in any case (RFC 3986 3.1), names the host,
port and path, and the Host header is not read for them (RFC 9112 3.2.2). Its
authority ends at the first "/" or "?" (RFC 3986 3.2), so
``http://h.example?q=1`` names the path ``/?q=1``.
Signatures are matched against the body bytes and against the path's latin-1
bytes, the bytes it was parsed from.
"""

from __future__ import annotations

import binascii
import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from .data_tables import ConfigError, DataTableError, check_int
from .gcpause import gc_paused

BLOCKED_PROTOCOLS = ("pop", "pop3", "imap", "ftp")

FIELD_TAGS = ("method", "scheme", "host", "port", "path", "http_version")

DEFAULT_CUSTOM_ROOT = "cage-custom-root"
DEFAULT_REPUTATION_THRESHOLD = 60

# An HTTP token (RFC 9110): what a header name, and so a capture-log tag, may be.
_TOKEN = r"[A-Za-z0-9!#$%&'*+.^_`|~-]+"
_TOKEN_RE = re.compile(_TOKEN)
# Any token is a method (RFC 9110 9.1); the 9.3 methods skip the pattern.
_RFC9110_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS", "TRACE")
_KNOWN_METHODS = frozenset(_RFC9110_METHODS)
# A host parse_request routes: a non-empty RFC 3986 reg-name, where "%" only
# opens a %HH escape. Each run of other characters stops at a "%", so a
# failed match backtracks in linear time.
_REG_NAME_RE = re.compile(r"(?=.)[A-Za-z0-9._~!$&'()*+,;=-]*"
                          r"(?:%[0-9A-Fa-f]{2}[A-Za-z0-9._~!$&'()*+,;=-]*)*")
_HTTP_VERSIONS = ("HTTP/1.0", "HTTP/1.1")
# The lines each per-header-line memo keeps (see the module docstring). A memo
# that evicted lines to take new ones would rebuild its table again and again
# wherever the heap had room, and a long run's peak memory would depend on
# where those blocks fell; a memo that only fills builds its table once.
_LINE_MEMO_SIZE = 4096


class RequestParseError(ValueError):
    """Raw request bytes do not form a valid HTTP/1.x request."""


class LogDecodeError(ValueError):
    """A capture-log record is not decodable, or does not round-trip."""


# ---------------------------------------------------------------------------
# Transactions and verdicts
# ---------------------------------------------------------------------------

class _HttpFields(NamedTuple):
    method: str
    scheme: str
    host: str
    port: str
    path: str
    http_version: str
    headers: tuple[tuple[str, str], ...] = ()
    content: bytes = b""


class HttpTransaction(_HttpFields):
    """One request: a method that is a token (RFC 9110 9.1), scheme http or
    https, a valid port."""

    __slots__ = ()

    def __new__(cls, method: str, scheme: str, host: str, port: str, path: str,
                http_version: str, headers: tuple[tuple[str, str], ...] = (),
                content: bytes = b""):
        if not method:
            raise ValueError("method must be non-empty")
        if method not in _KNOWN_METHODS and not _TOKEN_RE.fullmatch(method):
            raise ValueError(f"bad method: {method!r}")
        if scheme not in ("http", "https"):
            raise ValueError(f"unsupported scheme {scheme!r}")
        _check_port(port)
        return tuple.__new__(cls, (method, scheme, host, port, path, http_version,
                                   headers, content))

    @classmethod
    def _make(cls, iterable):
        # tuple.__new__ in the inherited _make (and so _replace) would skip the rules.
        return cls(*iterable)


class Verdict(NamedTuple):
    kind: str  # forward | strip_and_redirect | redirect_sim | block
    signature_id: str = ""
    reason: str = ""


# Verdict is immutable, so every request can share these.
FORWARD = Verdict("forward")
REDIRECT_SIM = Verdict("redirect_sim", reason="good_reputation")
BLOCK = Verdict("block", reason="unsupported_protocol")

# ``_make(Record, fields)`` is ``Record._make(fields)`` without its arity
# check: parse_request and strip_payload build their transactions with it
# once their own checks have run (so HttpTransaction's are skipped), and
# handle its handled outcome; tests check that each passes its constructor.
_make = tuple.__new__


# ---------------------------------------------------------------------------
# Signature and reputation providers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    id: str
    pattern: bytes

    def __post_init__(self):
        if not self.pattern:
            raise ValueError(f"signature {self.id} has an empty pattern")


@dataclass(frozen=True)
class SignatureDb:
    signatures: tuple[Signature, ...] = ()
    # (pattern, pattern as the latin-1 text a parsed path holds, the verdict
    # for a request it matches, shared like FORWARD)
    _scan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_scan", tuple(
            (sig.pattern, sig.pattern.decode("latin-1"),
             Verdict("strip_and_redirect", signature_id=sig.id))
            for sig in self.signatures))

    def strip_verdict(self, tx: HttpTransaction) -> Optional[Verdict]:
        """The verdict of the first signature found in the content or path."""
        content, path = tx.content, tx.path
        for pattern, text, verdict in self._scan:
            if pattern in content or text in path:
                return verdict
        return None


def _read_tab_file(path: str | Path, what: str, parse) -> list:
    """``parse(key, value)`` for each ``key<TAB>value`` line of a data file.

    Blank lines and lines starting with ``#`` are skipped. A line that does
    not split in two, that repeats an earlier line's key, or that ``parse``
    rejects with a ``ValueError``, raises :class:`DataTableError` naming the
    file and the line number.
    """
    out, seen_on = [], {}
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            key, value = line.split("\t")
            if seen_on.setdefault(key, n) != n:
                raise ValueError(f"{key!r} already listed on line {seen_on[key]}")
            out.append(parse(key, value))
        except ValueError as e:
            raise DataTableError(f"{path}:{n}: bad {what} line: {e}") from e
    return out


def load_signature_db(path: str | Path) -> SignatureDb:
    """Signature file: one ``id<TAB>hex-pattern`` per line."""
    return SignatureDb(tuple(_read_tab_file(
        path, "signature", lambda sid, hexpat: Signature(sid, bytes.fromhex(hexpat)))))


@dataclass(frozen=True)
class ReputationProvider:
    scores: dict = field(default_factory=dict)

    def score(self, host: str) -> Optional[int]:
        return self.scores.get(host)


def _host_score(host: str, text: str) -> tuple[str, int]:
    score = _decimal(text, "score")
    if score > 100:
        raise ValueError(f"score out of range 0..100: {score}")
    return host, score


def load_reputation(path: str | Path) -> ReputationProvider:
    """Reputation file: one ``host<TAB>score`` per line, scores 0..100."""
    return ReputationProvider(dict(_read_tab_file(path, "reputation", _host_score)))


def default_signatures() -> SignatureDb:
    with resources.as_file(resources.files("droidcage.data") / "signatures.txt") as p:
        return load_signature_db(p)


def default_reputation() -> ReputationProvider:
    with resources.as_file(resources.files("droidcage.data") / "reputation.txt") as p:
        return load_reputation(p)


# The pinned servers of the TLS fixture set, each with the root its app
# embeds: banking-style apps that reject the sandbox's leaf.
DEFAULT_IDENTITIES = {
    "secure.bank.example": "bank-embedded-root",
    "pay.wallet.example": "wallet-embedded-root",
}


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------

# What bytes.strip() removes. str.strip() also removes \x1c-\x1f, \x85 and
# \xa0, which a latin-1 header line may hold.
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def parse_request(raw: bytes, declared_protocol: str = "http") -> HttpTransaction:
    """Parse raw HTTP/1.x request bytes into a transaction.

    Malformed HTTP (a non-token method, a CR or NUL in a header value too),
    ambiguous framing (a second ``Host`` or ``Content-Length`` header, any
    ``Transfer-Encoding``), a version other than HTTP/1.0 or HTTP/1.1, an
    empty host or one that is not a reg-name, and any protocol but
    http/https (``NetGuard.handle`` blocks POP/IMAP/FTP before parsing)
    raise :class:`RequestParseError`.
    """
    protocol = declared_protocol
    # NetGuard.handle passes it lowercased already; any other caller may not.
    if protocol not in ("http", "https"):
        protocol = protocol.lower()
        if protocol not in ("http", "https"):
            raise RequestParseError(f"unknown protocol {declared_protocol!r}")

    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        head, sep, rest = raw.partition(b"\n\n")
        # A CR before a bare LF ends the line with it (RFC 9112 2.2).
        head = head.removesuffix(b"\r")
    request_line, newline, block = head.partition(b"\n")
    if newline and request_line.endswith(b"\r"):
        request_line = request_line[:-1]
    parts = request_line.split()
    if len(parts) != 3:
        raise RequestParseError(f"bad request line: {request_line!r}" if parts
                                else "empty request")
    # Decoded one by one: a comprehension here costs as much as the decoding.
    method, target, version = parts
    method, target, version = (method.decode("latin-1"), target.decode("latin-1"),
                               version.decode("latin-1"))
    if not version.startswith("HTTP/"):
        raise RequestParseError(f"bad HTTP version: {version!r}")
    if method not in _KNOWN_METHODS and not _TOKEN_RE.fullmatch(method):
        raise RequestParseError(f"bad method: {method!r}")

    # Latin-1 maps each byte to one character, so these are the byte lines.
    headers = []
    authority = length = None
    # Here and in the other two memos' readers, a memoised result is never
    # empty, so a line goes past the memo's get only when it is not there.
    memo = _HEADER_LINES.get
    for line in block.decode("latin-1").replace("\r\n", "\n").split("\n"):
        parsed = memo(line) or _header_line(line)
        if parsed is None:  # a blank line
            continue
        # The rules on the whole request run on every request, memo or not.
        header, key = parsed
        headers.append(header)
        if key == "host":
            if authority is not None:
                raise RequestParseError("more than one Host header")
            authority = header[1]
        elif key == "content-length":
            if length is not None:
                raise RequestParseError("more than one Content-Length header")
            length = header[1]
        elif key == "transfer-encoding":
            raise RequestParseError(f"unsupported Transfer-Encoding: {header[1]!r}")

    # An origin-form target starts with "/"; an absolute-form scheme is
    # case-insensitive (RFC 3986 3.1).
    if target[0] != "/" and target[:8].lower().startswith(("http://", "https://")):
        # The authority ends at the first "/" or "?" (RFC 3986 3.2).
        authority, slash, tail = target.split("://", 1)[1].partition("/")
        authority, query, search = authority.partition("?")
        path = "/" + query + search + slash + tail if query else (slash + tail or "/")
    elif authority is None:
        raise RequestParseError("no Host header and no absolute request target")
    else:
        path = target
    host, _, port = authority.partition(":")
    if port:
        _check_port(port)
    else:
        port = "443" if protocol == "https" else "80"

    content = b""
    if length is not None:
        n = _decimal(length, "Content-Length")
        if len(rest) < n:
            raise RequestParseError(f"truncated body: expected {n} bytes, got {len(rest)}")
        content = rest[:n]

    # Checked last, so a request that also breaks a rule above reports that.
    if version not in _HTTP_VERSIONS:
        raise RequestParseError(f"unsupported HTTP version: {version!r}")
    if not _REG_NAME_RE.fullmatch(host):
        raise RequestParseError(f"bad host: {host!r}")
    # method, protocol and port are checked above.
    return _make(HttpTransaction, (method, protocol, host, port, path, version,
                                   tuple(headers), content))


# Request header line -> ((name, value), lowered name), by _header_line.
_HEADER_LINES: dict[str, tuple[tuple[str, str], str]] = {}


def _header_line(line: str) -> Optional[tuple[tuple[str, str], str]]:
    """``((name, value), lowered name)`` of one request header line, kept in
    _HEADER_LINES while it has room, or None for a blank line; a line outside
    the grammar raises RequestParseError."""
    name, colon, value = line.partition(":")
    # A line with a colon is not blank, so only one without is stripped.
    if not colon and not line.strip(_ASCII_WHITESPACE):
        return None
    if not colon or not _TOKEN_RE.fullmatch(name):
        raise RequestParseError(f"bad header line: {line.encode('latin-1')!r}")
    value = value.strip(" \t")
    # RFC 9110 5.5: a field value holds no CR or NUL (an LF ends its line).
    if "\r" in value or "\x00" in value:
        raise RequestParseError(f"bad header value: {line.encode('latin-1')!r}")
    parsed = (name, value), name.lower()
    if len(_HEADER_LINES) < _LINE_MEMO_SIZE:
        _HEADER_LINES[line] = parsed
    return parsed


def _decimal(text: str, what: str) -> int:
    # ASCII digits only: int() alone also takes signs, spaces, "_" and
    # other scripts' digits.
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise RequestParseError(f"bad {what}: {text!r}")


def _check_port(port: str) -> None:
    # The one port rule, for parsed requests and decoded capture records.
    if _decimal(port, "port") > 65535:
        raise RequestParseError(f"bad port: {port!r}")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def check_threshold(threshold: int) -> int:
    """A reputation threshold, on the 0..100 scale of the scores."""
    if not 0 <= check_int(threshold, "reputation threshold") <= 100:
        raise ConfigError(f"reputation threshold must be in [0, 100], got {threshold}")
    return threshold


def decide(tx: HttpTransaction, sigs: SignatureDb, rep: ReputationProvider,
           threshold: int = DEFAULT_REPUTATION_THRESHOLD) -> Verdict:
    """Pipeline decision for one parsed transaction.

    Signature scanning runs first (malicious payloads are stripped and
    diverted), then reputation gating protects well-reputed hosts by
    diverting to the simulator. Unknown hosts are forwarded.
    """
    verdict = sigs.strip_verdict(tx)
    if verdict is not None:
        return verdict
    score = rep.score(tx.host)
    if score is not None and score >= threshold:
        return REDIRECT_SIM
    return FORWARD


def strip_payload(tx: HttpTransaction, sigs: SignatureDb) -> HttpTransaction:
    """Remove every signature pattern from the content and path."""
    content, path = tx.content, tx.path
    changed = True
    while changed:
        changed = False
        for pattern, text, _ in sigs._scan:
            if pattern in content:
                content = content.replace(pattern, b"")
                changed = True
            if text in path:
                path = path.replace(text, "")
                changed = True
    method, scheme, host, port, _, version, headers, _ = tx
    return _make(HttpTransaction, (method, scheme, host, port, path, version, headers, content))


# ---------------------------------------------------------------------------
# Services simulator
# ---------------------------------------------------------------------------

def simulate_response(tx: HttpTransaction) -> bytes:
    """Deterministic 200 response derived from (method, host, path).

    Identical transactions always get byte-identical replies, so apps
    diverted here see a consistent fake service instead of an error.
    """
    token = hashlib.sha256(f"{tx.method}|{tx.host}|{tx.path}".encode("utf-8")).hexdigest()[:16]
    body = (
        f"status: ok\n"
        f"echo: {tx.method} {tx.host} {tx.path}\n"
        f"token: {token}\n"
    ).encode("utf-8")
    head = (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Server: simsrv\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


# ---------------------------------------------------------------------------
# Capture log
# ---------------------------------------------------------------------------

def _b64(data: bytes) -> str:
    return binascii.b2a_base64(data, newline=False).decode("ascii")


# The values method, scheme, port and http_version nearly always hold: the
# RFC 9110 methods, both schemes, their default ports and both versions.
_FIXED_VALUES = {
    "method": _RFC9110_METHODS,
    "scheme": ("http", "https"),
    "port": ("80", "443"),
    "http_version": _HTTP_VERSIONS,
}
# Their base64 text, built once: write_log_entry encodes any other value.
_B64_TEXT = {value: _b64(value.encode())
             for values in _FIXED_VALUES.values() for value in values}
# Per field, the inverse: _read_written leaves any other value to _read_entry.
_METHOD_TEXT, _SCHEME_TEXT, _PORT_TEXT, _VERSION_TEXT = (
    {_B64_TEXT[value]: value for value in values} for values in _FIXED_VALUES.values())


# (name, value) request header -> its capture-record line, by _header_text.
_HEADER_TEXTS: dict[tuple[str, str], str] = {}


def _header_text(header: tuple[str, str]) -> str:
    """The capture-record line of one ``(name, value)`` request header, kept
    in _HEADER_TEXTS while it has room."""
    name, value = header
    text = f"  <{name}>{_b64(value.encode())}</{name}>\n"
    if len(_HEADER_TEXTS) < _LINE_MEMO_SIZE:
        _HEADER_TEXTS[header] = text
    return text


def write_log_entry(tx: HttpTransaction) -> str:
    """Tagged capture record with every field value base64-encoded."""
    b64, fixed = binascii.b2a_base64, _B64_TEXT.get
    method, scheme, host, port, path, version, headers, content = tx
    memo = _HEADER_TEXTS.get
    headers = "".join([memo(header) or _header_text(header) for header in headers])
    content = (f"<content>{b64(content, newline=False).decode()}</content>"
               if content else "<content />")
    return (f"<header>\n"
            f"  <method>{fixed(method) or b64(method.encode(), newline=False).decode()}"
            f"</method>\n"
            f"  <scheme>{fixed(scheme) or b64(scheme.encode(), newline=False).decode()}"
            f"</scheme>\n"
            f"  <host>{b64(host.encode(), newline=False).decode()}</host>\n"
            f"  <port>{fixed(port) or b64(port.encode(), newline=False).decode()}</port>\n"
            f"  <path>{b64(path.encode(), newline=False).decode()}</path>\n"
            f"  <http_version>{fixed(version) or b64(version.encode(), newline=False).decode()}"
            f"</http_version>\n"
            f"{headers}</header>\n{content}\n")


# A record is one match: the <header> block's fields, each closed by its own
# tag (so a header named ``header`` or ``content`` is just one more field),
# then </header> and the content. A value cannot hold "<", so it ends at the
# next tag and a failed match costs time linear in the text it covers.
_VALUE = r"[A-Za-z0-9+/=\s]*"
_HEAD = r"\s*<header>((?:\s*<(" + _TOKEN + r")>" + _VALUE + r"</\2>)*)"
_HEAD_RE = re.compile(_HEAD)
_RECORD_RE = re.compile(
    _HEAD + r"\s*</header>\s*(?:<content>(" + _VALUE + r")</content>|<content\s*/>)")
# In a header block with its whitespace removed, an "=" that is not in a run
# of at most two that ends its value.
_INNER_PAD_RE = re.compile(r"=(?!=?</)")


def _read_entry(text: str, pos: int) -> tuple[HttpTransaction, int]:
    """Decode the record starting at ``pos``; also return where it ends."""
    m = _RECORD_RE.match(text, pos)
    if m is None:
        head = _HEAD_RE.match(text, pos)
        if head is None:
            raise LogDecodeError(f"no <header> element at offset {pos}")
        raise LogDecodeError(f"no </header> and <content> element at offset {head.end()}")
    # The match has checked the block, so with its whitespace removed
    # (str.split() drops the same str.isspace characters that \s matches) it
    # is "<name>value</name>" repeated, and no name or value holds "<" or ">".
    head = "".join(m.group(1).split())
    fields = head.replace(">", "<").split("<")  # "", name, value, "/name" per field, then ""
    names, raw = fields[1::4], fields[2::4]
    n = len(FIELD_TAGS)
    if tuple(names[:n]) != FIELD_TAGS:
        raise LogDecodeError(f"unexpected field tags {names[:n]} at offset {pos}")
    content = m.group(3) and "".join(m.group(3).split())
    a2b = binascii.a2b_base64
    try:
        # The pre-checks the module docstring states. Without them a2b_base64
        # would stop at the first complete pad and skip a stray "=", and
        # b64decode(validate=True) takes a different set on each of CPython
        # 3.10-3.13 (3.10 alone takes "aGk==", 3.11 and 3.12 "AAAA====").
        if _INNER_PAD_RE.search(head) or content and (len(content) % 4 or "=" in content[:-2]):
            raise ValueError("base64 padding")
        values = [a2b(v).decode() for v in raw if not len(v) % 4]
        if len(values) < len(raw):
            raise ValueError("base64 length")
        headers = tuple(zip(names[n:], values[n:]))
        content = a2b(content) if content else b""
        tx = HttpTransaction(*values[:n], headers, content)
    except ValueError as e:  # bad base64, not UTF-8, or a value HttpTransaction rejects
        raise LogDecodeError(f"bad record at offset {pos}: {e}") from e
    return tx, m.end()


# Exactly the layout write_log_entry writes: the six field tags, one header
# per line, then the content. A value is base64 with at most two "=", at its
# end, so only its length is left to check after a match.
_WRITTEN_VALUE = r"[A-Za-z0-9+/]*={0,2}"
_WRITTEN_RE = re.compile(
    r"\s*<header>\n"
    + "".join(f"  <{tag}>({_WRITTEN_VALUE})</{tag}>\n" for tag in FIELD_TAGS)
    + f"((?:  <{_TOKEN}>{_WRITTEN_VALUE}</{_TOKEN}>\n)*)"
    + f"</header>\n(?:<content>({_WRITTEN_VALUE})</content>|<content />)")


def _read_written(text: str, pos: int) -> Optional[tuple[HttpTransaction, int]]:
    """What ``_read_entry(text, pos)`` returns, when the record there is in
    exactly the layout write_log_entry writes, its method, scheme, port and
    version are in the writer's table, and it decodes; otherwise None, and
    _read_entry, the reference, reads it."""
    m = _WRITTEN_RE.match(text, pos)
    if m is None:
        return None
    method, scheme, host, port, path, version, block, content = m.groups()
    # The strings of the tables, shared by every record that holds them. Each
    # table holds only values its field may hold, so the record is valid as
    # built; a value outside its table is left to _read_entry.
    method, scheme = _METHOD_TEXT.get(method), _SCHEME_TEXT.get(scheme)
    port, version = _PORT_TEXT.get(port), _VERSION_TEXT.get(version)
    if method is None or scheme is None or port is None or version is None:
        return None
    headers = []
    memo = _WRITTEN_HEADERS.get
    # The block holds no other line boundary than "\n".
    for line in block.splitlines():
        header = memo(line) or _written_header(line)
        if header is None:
            return None
        headers.append(header)
    a2b = binascii.a2b_base64
    try:
        if len(host) % 4 or len(path) % 4 or content and len(content) % 4:
            return None
        host, path = a2b(host).decode(), a2b(path).decode()
        content = a2b(content) if content else b""
    except ValueError:  # not UTF-8
        return None
    return _make(HttpTransaction, (method, scheme, host, port, path, version,
                                   tuple(headers), content)), m.end()


# Record header line -> (name, value), by _written_header.
_WRITTEN_HEADERS: dict[str, tuple[str, str]] = {}


def _written_header(line: str) -> Optional[tuple[str, str]]:
    """``(name, value)`` of one ``  <name>value</name>`` line of a block
    ``_WRITTEN_RE`` matched, kept in _WRITTEN_HEADERS while it has room, or
    None when its close tag names another header or its value does not
    decode."""
    # No name holds ">" and no value "<", so these find the tags.
    name, _, rest = line[3:].partition(">")
    value, _, close = rest.partition("</")
    if close[:-1] != name or len(value) % 4:
        return None
    try:
        header = name, binascii.a2b_base64(value).decode()
    except ValueError:  # not UTF-8
        return None
    if len(_WRITTEN_HEADERS) < _LINE_MEMO_SIZE:
        _WRITTEN_HEADERS[line] = header
    return header


def parse_capture_log(text: str) -> list[HttpTransaction]:
    """Decode every record of a capture log, in order.

    The text is read in place: nothing slices or strips it whole.
    """
    # The records end where the trailing whitespace starts: what str.rstrip()
    # would remove, the str.isspace characters that \s matches.
    records, pos, end = [], 0, len(text)
    while end and text[end - 1].isspace():
        end -= 1
    with gc_paused():
        while pos < end:
            tx, pos = _read_written(text, pos) or _read_entry(text, pos)
            records.append(tx)
    return records


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

# The reply to every forwarded request.
FORWARDED_RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nforwarded\n"


class GuardOutcome(NamedTuple):
    disposition: str  # handled | blocked_protocol | malformed | tls_rejected
    verdict: Optional[Verdict] = None
    transaction: Optional[HttpTransaction] = None
    response: Optional[bytes] = None


# Only a handled request carries data of its own, so the rest share these.
BLOCKED_OUTCOME = GuardOutcome("blocked_protocol", BLOCK)
MALFORMED_OUTCOME = GuardOutcome("malformed")
TLS_REJECTED_OUTCOME = GuardOutcome("tls_rejected")


class NetGuard:
    """The full interception-and-filtering pipeline for one capture log.

    ``identities`` maps each pinned server domain to the root its app
    embeds. HTTPS to a server pinned to a root other than ``custom_root``
    is rejected; every other HTTPS request is intercepted as plaintext.
    """

    def __init__(self, signatures: SignatureDb | None = None,
                 reputation: ReputationProvider | None = None, *,
                 threshold: int = DEFAULT_REPUTATION_THRESHOLD,
                 custom_root: str = DEFAULT_CUSTOM_ROOT,
                 identities: dict[str, str] | None = None):
        self.signatures = signatures or SignatureDb()
        self.reputation = reputation or ReputationProvider()
        self.threshold = check_threshold(threshold)
        self.custom_root = custom_root
        self.identities = dict(identities or {})
        self.forwarded: list[HttpTransaction] = []
        self.capture_log: list[str] = []
        self.malformed_log: list[str] = []

    def copy(self) -> "NetGuard":
        """A guard that continues from this one's logs without changing them.

        The logs and the forwarded requests are duplicated; the read-only
        inputs (signatures, reputation, custom root, pins) are shared.
        """
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        dup.forwarded = list(self.forwarded)
        dup.capture_log = list(self.capture_log)
        dup.malformed_log = list(self.malformed_log)
        return dup

    def capture_text(self) -> str:
        return "".join(self.capture_log)

    def handle(self, raw: bytes, declared_protocol: str = "http",
               server: str | None = None) -> GuardOutcome:
        protocol = declared_protocol.lower()
        if protocol in BLOCKED_PROTOCOLS:
            return BLOCKED_OUTCOME
        root = self.custom_root
        if protocol == "https" and self.identities.get(server, root) != root:
            # the app rejects the sandbox's leaf: no plaintext, nothing to log
            return TLS_REJECTED_OUTCOME

        try:
            tx = parse_request(raw, protocol)
        except RequestParseError:
            self.malformed_log.append(_b64(raw))
            return MALFORMED_OUTCOME

        self.capture_log.append(write_log_entry(tx))
        verdict = decide(tx, self.signatures, self.reputation, self.threshold)
        if verdict.kind == "forward":
            self.forwarded.append(tx)
            response = FORWARDED_RESPONSE
        elif verdict.kind == "strip_and_redirect":
            response = simulate_response(strip_payload(tx, self.signatures))
        else:  # redirect_sim
            response = simulate_response(tx)
        return _make(GuardOutcome, ("handled", verdict, tx, response))
