"""Network control pipeline.

Every app request passes through here: HTTPS is intercepted by minting a
leaf certificate signed by the sandbox's own root (defeated only by
certificate pinning), the plaintext request is parsed and logged as
base64-tagged capture records, known-malicious payloads are stripped,
well-reputed destinations are diverted to a consistent services
simulator, and only the remainder is forwarded to the (pluggable, by
default loopback) live transport.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BLOCKED_PROTOCOLS = ("pop", "pop3", "imap", "ftp")

FIELD_TAGS = ("method", "scheme", "host", "port", "path", "http_version")

PUBLIC_ROOT = "public-web-root"
DEFAULT_CUSTOM_ROOT = "cage-custom-root"
DEFAULT_REPUTATION_THRESHOLD = 60

# An HTTP token (RFC 9110): what a header name, and so a capture-log tag, may be.
_TOKEN = r"[A-Za-z0-9!#$%&'*+.^_`|~-]+"
_TOKEN_RE = re.compile(_TOKEN)


class RequestParseError(ValueError):
    """Raw request bytes do not form a valid HTTP/1.x request."""


class LogDecodeError(ValueError):
    """A capture-log record is not decodable."""


# ---------------------------------------------------------------------------
# Transactions and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HttpTransaction:
    method: str
    scheme: str
    host: str
    port: str
    path: str
    http_version: str
    headers: tuple[tuple[str, str], ...] = ()
    content: bytes = b""

    def __post_init__(self):
        if not self.method:
            raise ValueError("method must be non-empty")
        if self.scheme not in ("http", "https"):
            raise ValueError(f"unsupported scheme {self.scheme!r}")
        if not self.port.isdigit():
            raise ValueError(f"port must be numeric, got {self.port!r}")


@dataclass(frozen=True)
class Verdict:
    kind: str  # forward | strip_and_redirect | redirect_sim | block
    signature_id: str = ""
    reason: str = ""

    @classmethod
    def forward(cls):
        return cls("forward")

    @classmethod
    def strip_and_redirect(cls, signature_id: str):
        return cls("strip_and_redirect", signature_id=signature_id)

    @classmethod
    def redirect_sim(cls):
        return cls("redirect_sim", reason="good_reputation")

    @classmethod
    def block(cls):
        return cls("block", reason="unsupported_protocol")


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

    def first_match(self, tx: HttpTransaction) -> Optional[Signature]:
        haystacks = (tx.content, tx.path.encode("utf-8", "surrogateescape"))
        for sig in self.signatures:
            if any(sig.pattern in h for h in haystacks):
                return sig
        return None


def load_signature_db(path: str | Path) -> SignatureDb:
    """Signature file: one ``id<TAB>hex-pattern`` per line."""
    sigs = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            sid, hexpat = line.split("\t")
            sigs.append(Signature(sid, bytes.fromhex(hexpat)))
        except ValueError as e:
            raise ValueError(f"{path}:{n}: bad signature line: {e}") from e
    return SignatureDb(tuple(sigs))


@dataclass(frozen=True)
class ReputationProvider:
    scores: dict = field(default_factory=dict)

    def __post_init__(self):
        for host, score in self.scores.items():
            if not 0 <= score <= 100:
                raise ValueError(f"reputation score for {host} out of range: {score}")

    def score(self, host: str) -> Optional[int]:
        return self.scores.get(host)


def load_reputation(path: str | Path) -> ReputationProvider:
    """Reputation file: one ``host<TAB>score`` per line, scores 0..100."""
    scores = {}
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            host, score = line.split("\t")
            scores[host] = int(score)
        except ValueError as e:
            raise ValueError(f"{path}:{n}: bad reputation line: {e}") from e
    return ReputationProvider(scores)


# ---------------------------------------------------------------------------
# TLS interception
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Keystore:
    trusted_roots: frozenset[str]


@dataclass(frozen=True)
class ServerIdentity:
    domain: str
    root_id: str          # root of the server's legitimate chain
    pinned: bool = False  # pinned apps validate only against root_id

    def __post_init__(self):
        if self.pinned and not self.root_id:
            raise ValueError(f"pinned identity {self.domain!r} must embed its root id")


@dataclass(frozen=True)
class MintedCert:
    domain: str
    signed_by: str


@dataclass(frozen=True)
class TlsInterception:
    outcome: str  # intercepted_plaintext | rejected_by_pinning | rejected_unprovisioned
    leaf: Optional[MintedCert] = None

    @property
    def plaintext_available(self) -> bool:
        return self.outcome == "intercepted_plaintext"


def intercept_tls(keystore: Keystore, server: ServerIdentity,
                  custom_root: str = DEFAULT_CUSTOM_ROOT) -> TlsInterception:
    """Attempt man-in-the-middle interception of one TLS connection.

    A leaf certificate for the server's domain is minted on the fly and
    signed by the sandbox root. Clients trusting the device keystore
    accept it (the root was provisioned there); pinning apps validate
    only against their embedded root and reject the connection, leaving
    no plaintext.
    """
    if custom_root not in keystore.trusted_roots:
        return TlsInterception("rejected_unprovisioned")
    leaf = MintedCert(domain=server.domain, signed_by=custom_root)
    if server.pinned and server.root_id != custom_root:
        return TlsInterception("rejected_by_pinning", leaf=leaf)
    return TlsInterception("intercepted_plaintext", leaf=leaf)


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------

def parse_request(raw: bytes, declared_protocol: str = "http") -> HttpTransaction:
    """Parse raw HTTP/1.x request bytes into a transaction.

    Malformed HTTP and any protocol but http/https (``NetGuard.handle``
    blocks POP/IMAP/FTP before parsing) raise :class:`RequestParseError`.
    """
    protocol = declared_protocol.lower()
    if protocol not in ("http", "https"):
        raise RequestParseError(f"unknown protocol {declared_protocol!r}")

    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        head, sep, rest = raw.partition(b"\n\n")
    lines = head.replace(b"\r\n", b"\n").split(b"\n")
    if not lines or not lines[0].strip():
        raise RequestParseError("empty request")
    parts = lines[0].split()
    if len(parts) != 3:
        raise RequestParseError(f"bad request line: {lines[0]!r}")
    method, target, version = (p.decode("latin-1") for p in parts)
    if not version.startswith("HTTP/"):
        raise RequestParseError(f"bad HTTP version: {version!r}")

    headers = []
    for line in lines[1:]:
        if not line.strip():
            continue
        name, colon, value = line.partition(b":")
        name = name.decode("latin-1").strip()
        if not colon or not _TOKEN_RE.fullmatch(name):
            raise RequestParseError(f"bad header line: {line!r}")
        headers.append((name, value.decode("latin-1").strip()))

    host, port, path = _split_target(target, headers, protocol)

    content = b""
    length = next((v for n, v in headers if n.lower() == "content-length"), None)
    if length is not None:
        n = _decimal(length, "Content-Length")
        if len(rest) < n:
            raise RequestParseError(f"truncated body: expected {n} bytes, got {len(rest)}")
        content = rest[:n]

    return HttpTransaction(method, protocol, host, port, path, version,
                           tuple(headers), content)


def _split_target(target: str, headers, protocol: str) -> tuple[str, str, str]:
    if target.startswith("http://") or target.startswith("https://"):
        rest = target.split("://", 1)[1]
        authority, slash, tail = rest.partition("/")
        path = slash + tail if slash else "/"
    else:
        authority = next((v for n, v in headers if n.lower() == "host"), None)
        if authority is None:
            raise RequestParseError("no Host header and no absolute request target")
        path = target
    host, _, port = authority.partition(":")
    port = port or ("443" if protocol == "https" else "80")
    if _decimal(port, "port") > 65535:
        raise RequestParseError(f"bad port: {port!r}")
    return host, port, path


def _decimal(text: str, what: str) -> int:
    # ASCII digits only: int() alone also takes signs, spaces, "_" and
    # other scripts' digits.
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise RequestParseError(f"bad {what}: {text!r}")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def decide(tx: HttpTransaction, sigs: SignatureDb, rep: ReputationProvider,
           threshold: int = DEFAULT_REPUTATION_THRESHOLD) -> Verdict:
    """Pipeline decision for one parsed transaction.

    Signature scanning runs first (malicious payloads are stripped and
    diverted), then reputation gating protects well-reputed hosts by
    diverting to the simulator. Unknown hosts are forwarded.
    """
    sig = sigs.first_match(tx)
    if sig is not None:
        return Verdict.strip_and_redirect(sig.id)
    score = rep.score(tx.host)
    if score is not None and score >= threshold:
        return Verdict.redirect_sim()
    return Verdict.forward()


def strip_payload(tx: HttpTransaction, sigs: SignatureDb) -> HttpTransaction:
    """Remove every signature pattern from the content and path."""
    content, path = tx.content, tx.path
    changed = True
    while changed:
        changed = False
        for sig in sigs.signatures:
            if sig.pattern in content:
                content = content.replace(sig.pattern, b"")
                changed = True
            pat_str = sig.pattern.decode("latin-1")
            if pat_str in path:
                path = path.replace(pat_str, "")
                changed = True
    return HttpTransaction(tx.method, tx.scheme, tx.host, tx.port, path,
                           tx.http_version, tx.headers, content)


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

def _b64(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return base64.b64encode(data).decode("ascii")


def write_log_entry(tx: HttpTransaction) -> str:
    """Tagged capture record with every field value base64-encoded."""
    lines = ["<header>"]
    lines.append(f"  <method>{_b64(tx.method)}</method>")
    lines.append(f"  <scheme>{_b64(tx.scheme)}</scheme>")
    lines.append(f"  <host>{_b64(tx.host)}</host>")
    lines.append(f"  <port>{_b64(tx.port)}</port>")
    lines.append(f"  <path>{_b64(tx.path)}</path>")
    lines.append(f"  <http_version>{_b64(tx.http_version)}</http_version>")
    for name, value in tx.headers:
        lines.append(f"  <{name}>{_b64(value)}</{name}>")
    lines.append("</header>")
    if tx.content:
        lines.append(f"<content>{_b64(tx.content)}</content>")
    else:
        lines.append("<content />")
    return "\n".join(lines) + "\n"


# A record is read tag by tag, so a header named like a record tag
# (``header``, ``content``) is just one more field.
_OPEN_RE = re.compile(r"\s*<header>")
_FIELD_RE = re.compile(r"\s*<(" + _TOKEN + r")>\s*([A-Za-z0-9+/=\s]*?)\s*</\1>")
_END_RE = re.compile(
    r"\s*</header>\s*(?:<content>\s*([A-Za-z0-9+/=\s]*?)\s*</content>|<content\s*/>)")


def _read_entry(text: str, pos: int) -> tuple[HttpTransaction, int]:
    """Decode the record starting at ``pos``; also return where it ends."""
    m = _OPEN_RE.match(text, pos)
    if m is None:
        raise LogDecodeError(f"no <header> element at offset {pos}")
    tags = []
    while (field := _FIELD_RE.match(text, m.end())) is not None:
        tags.append((field.group(1), _debase64(field.group(2))))
        m = field
    end = _END_RE.match(text, m.end())
    if end is None:
        raise LogDecodeError(f"no </header> and <content> element at offset {m.end()}")
    names = tuple(name for name, _ in tags[: len(FIELD_TAGS)])
    if names != FIELD_TAGS:
        raise LogDecodeError(f"unexpected field tags {list(names)}")
    content = b"" if end.group(1) is None else _debase64(end.group(1))
    try:
        fields = {name: value.decode("utf-8") for name, value in tags[: len(FIELD_TAGS)]}
        headers = tuple((name, value.decode("utf-8")) for name, value in tags[len(FIELD_TAGS):])
        tx = HttpTransaction(
            method=fields["method"], scheme=fields["scheme"], host=fields["host"],
            port=fields["port"], path=fields["path"], http_version=fields["http_version"],
            headers=headers, content=content,
        )
    except ValueError as e:  # a value that is not UTF-8, or one HttpTransaction rejects
        raise LogDecodeError(f"bad record at offset {pos}: {e}") from e
    return tx, end.end()


def _debase64(text: str) -> bytes:
    compact = re.sub(r"\s+", "", text)
    try:
        return base64.b64decode(compact, validate=True)
    except Exception as e:
        raise LogDecodeError(f"bad base64 value: {e}") from e


def parse_capture_log(text: str) -> list[HttpTransaction]:
    """Decode every record of a capture log, in order."""
    records, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        tx, pos = _read_entry(text, pos)
        records.append(tx)
    return records


def parse_log_entry(text: str) -> HttpTransaction:
    """Decode one capture record back into the exact transaction."""
    tx, end = _read_entry(text, 0)
    if text[end:].strip():
        raise LogDecodeError(f"data after the record at offset {end}")
    return tx


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class LoopbackTransport:
    """Records would-be live traffic instead of touching the network."""

    def __init__(self):
        self.sent: list[HttpTransaction] = []

    def copy(self) -> "LoopbackTransport":
        dup = LoopbackTransport()
        dup.sent = list(self.sent)
        return dup

    def send(self, tx: HttpTransaction) -> bytes:
        self.sent.append(tx)
        body = b"forwarded\n"
        head = ("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)).encode("latin-1")
        return head + body


@dataclass(frozen=True)
class GuardOutcome:
    disposition: str  # handled | blocked_protocol | malformed | tls_rejected
    verdict: Optional[Verdict] = None
    transaction: Optional[HttpTransaction] = None
    response: Optional[bytes] = None
    tls: Optional[TlsInterception] = None


class NetGuard:
    """The full interception-and-filtering pipeline for one capture log."""

    def __init__(self, signatures: SignatureDb | None = None,
                 reputation: ReputationProvider | None = None, *,
                 threshold: int = DEFAULT_REPUTATION_THRESHOLD,
                 keystore: Keystore | None = None,
                 custom_root: str = DEFAULT_CUSTOM_ROOT,
                 identities: dict[str, ServerIdentity] | None = None,
                 transport=None):
        self.signatures = signatures or SignatureDb()
        self.reputation = reputation or ReputationProvider()
        self.threshold = threshold
        self.keystore = keystore or Keystore(frozenset({custom_root, PUBLIC_ROOT}))
        self.custom_root = custom_root
        self.identities = dict(identities or {})
        self.transport = transport if transport is not None else LoopbackTransport()
        self.capture_log: list[str] = []
        self.malformed_log: list[str] = []
        self.routing_log: list[tuple[str, str]] = []

    def copy(self) -> "NetGuard":
        """A guard that continues from this one's logs without changing them.

        The logs and the transport's record are duplicated; the read-only
        inputs (signatures, reputation, keystore, identities) are shared.
        The transport must have a ``copy`` method.
        """
        dup = copy.copy(self)
        dup.transport = self.transport.copy()
        dup.capture_log = list(self.capture_log)
        dup.malformed_log = list(self.malformed_log)
        dup.routing_log = list(self.routing_log)
        return dup

    def capture_text(self) -> str:
        return "".join(self.capture_log)

    def _identity(self, server) -> ServerIdentity:
        if isinstance(server, ServerIdentity):
            return server
        if isinstance(server, str) and server in self.identities:
            return self.identities[server]
        domain = server if isinstance(server, str) else ""
        return ServerIdentity(domain=domain, root_id=PUBLIC_ROOT, pinned=False)

    def handle(self, raw: bytes, declared_protocol: str = "http",
               server=None) -> GuardOutcome:
        protocol = declared_protocol.lower()
        if protocol in BLOCKED_PROTOCOLS:
            verdict = Verdict.block()
            self.routing_log.append((verdict.kind, "none"))
            return GuardOutcome("blocked_protocol", verdict=verdict)

        tls = None
        if protocol == "https":
            tls = intercept_tls(self.keystore, self._identity(server), self.custom_root)
            if not tls.plaintext_available:
                # no plaintext: nothing to parse, nothing to log
                return GuardOutcome("tls_rejected", tls=tls)

        try:
            tx = parse_request(raw, protocol)
        except RequestParseError:
            self.malformed_log.append(_b64(raw))
            return GuardOutcome("malformed", tls=tls)

        self.capture_log.append(write_log_entry(tx))
        verdict = decide(tx, self.signatures, self.reputation, self.threshold)
        if verdict.kind == "forward":
            response = self.transport.send(tx)
            self.routing_log.append((verdict.kind, "live"))
        elif verdict.kind == "strip_and_redirect":
            response = simulate_response(strip_payload(tx, self.signatures))
            self.routing_log.append((verdict.kind, "simulator"))
        else:  # redirect_sim
            response = simulate_response(tx)
            self.routing_log.append((verdict.kind, "simulator"))
        return GuardOutcome("handled", verdict=verdict, transaction=tx,
                            response=response, tls=tls)
