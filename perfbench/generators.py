"""Seeded inputs for the ``bigapp`` and ``netcapture`` workloads.

Both are built in code from the workload seed. The seed changes names,
sizes and order, never the amount of structure, so every seed drives the
same number of screens, buttons and requests of each class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# --- bigapp ----------------------------------------------------------------

BIGAPP_SCREENS = 2000
BIGAPP_BUTTONS = 10  # per screen; the last one navigates to the next screen
BIGAPP_PACKAGE = "com.bench.bigapp"
BIGAPP_ACTIVITY = "Chain"


def bigapp_doc(seed: int, screens: int = BIGAPP_SCREENS,
               buttons: int = BIGAPP_BUTTONS) -> dict:
    """App-model document for a chain of ``screens`` screens in one activity.

    Every button owns one block. The navigating button comes last on each
    screen, so a systematic walk clicks all of a screen's buttons before
    it moves on and reaches every block; IDs are unique per screen, so no
    element key is shared between screens.
    """
    rng = random.Random(seed)
    token = f"{rng.getrandbits(32):08x}"
    states, transitions, blocks = [], [], []
    for i in range(screens):
        sid = f"screen_{token}_{i}"
        elements = []
        for j in range(buttons):
            height = 120 + rng.randrange(60)
            elements.append({
                "kind": "button",
                "id": f"btn_{token}_{i}_{j}",
                "text": f"Item {rng.randrange(10_000)}",
                "bounds": [40, 100 + 170 * j, 1000, height],
                "actions": ["click"],
            })
            bid = f"b{i * buttons + j}"
            blocks.append({"id": bid, "class": f"{BIGAPP_PACKAGE}.Screen{i // 100}",
                           "method": f"onClick{j}"})
            nav = j == buttons - 1 and i + 1 < screens
            transitions.append({
                "from": {"activity": BIGAPP_ACTIVITY, "state": sid, "element": j},
                "trigger": {"action": "click"},
                "to": ({"activity": BIGAPP_ACTIVITY, "state": f"screen_{token}_{i + 1}"}
                       if nav else None),
                "blocks": [bid],
                "side_effects": [],
            })
        states.append({"id": sid, "elements": elements})
    return {
        "package": BIGAPP_PACKAGE,
        "main_activity": BIGAPP_ACTIVITY,
        "own_number": "5550199999",
        "activities": [{"name": BIGAPP_ACTIVITY, "initial_state": states[0]["id"],
                        "states": states}],
        "transitions": transitions,
        "blocks": blocks,
        "receivers": {"declared": [], "dynamic": []},
        "alphabet": ["filler"],
    }


# --- netcapture ------------------------------------------------------------

NETCAPTURE_REQUESTS = 20_000
MAX_BODY = 2048

# The request classes of the capture traffic ``droidcage run`` produces on
# its own corpus. Every netchatty app of ``corpus.write_corpus`` has one button
# per class, so the classes come in equal shares: over corpus200 seeds 0-7
# (11344 requests) each class was 13.8-14.7% of the requests that reached
# NetGuard. The stream keeps those equal shares for what the hostile classes
# leave.
CORPUS_CLASSES = ("forward", "strip_and_redirect", "redirect_sim", "tls_rejected",
                  "https_intercepted", "blocked_protocol", "malformed")
# Inputs the request parser is known to mishandle (a Host port that is not a
# number, a negative Content-Length, a header name that is not an HTTP
# token), 1% of the stream each; they stay in the stream so their failures
# show in the benchmark's failed count.
HOSTILE_PER_MILLE = 10
HOSTILE_CLASSES = ("hostile_port", "hostile_length", "hostile_header")

# Pinned identities in the harness's identity table reject interception;
# the unpinned ones are intercepted.
PINNED_SERVERS = ("secure.bank.example", "pay.wallet.example")
INTERCEPTED_SERVERS = ("cfg.adsmogo.com", "telemetry.trusted.example", "api.unknown.example")


@dataclass(frozen=True)
class RawRequest:
    kind: str            # one of CORPUS_CLASSES or HOSTILE_CLASSES
    data: bytes
    protocol: str
    server: str | None
    disposition: str     # expected GuardOutcome.disposition ("" for hostile classes)
    verdict: str         # expected Verdict.kind when handled, else ""


def _body(rng: random.Random) -> bytes:
    return rng.randbytes(rng.randrange(MAX_BODY + 1))


def _http(method: str, target: str, headers: list[tuple[str, str]], body: bytes = b"") -> bytes:
    if body:
        headers = headers + [("Content-Length", str(len(body)))]
    head = "".join(f"{n}: {v}\r\n" for n, v in headers)
    return f"{method} {target} HTTP/1.1\r\n{head}\r\n".encode("latin-1") + body


def _plain_request(rng: random.Random, host: str, body: bytes | None = None) -> bytes:
    path = f"/api/v{rng.randrange(1, 4)}/item{rng.randrange(100_000)}"
    headers = [("Host", host), ("User-Agent", f"cage-app/{rng.randrange(10)}.0"),
               ("Accept", "*/*")]
    if body is None and rng.randrange(2):
        body = _body(rng)
    if body:
        return _http("POST", path, headers, body)
    return _http("GET", path, headers)


def _malformed(rng: random.Random, i: int) -> bytes:
    variant = i % 5
    if variant == 0:
        return rng.randbytes(rng.randrange(1, 64))
    if variant == 1:
        return b"GET /no-version\r\nHost: x.example\r\n\r\n"
    if variant == 2:
        return _http("GET", "/rel", [("User-Agent", "nohost")])
    if variant == 3:
        return b"GET / HTTP/1.1\r\nHost: x.example\r\nContent-Length: 999\r\n\r\nshort"
    return b"GET / HTTP/1.1\r\nHost: x.example\r\nContent-Length: many\r\n\r\n"


def netcapture_stream(seed: int, signatures: list[bytes], reputation: dict[str, int],
                      threshold: int, count: int = NETCAPTURE_REQUESTS) -> list[RawRequest]:
    """``count`` raw requests, 1% of each hostile class and equal shares of
    the corpus classes, in seeded order.

    ``signatures`` are the payload patterns that trigger stripping and
    ``reputation`` the host scores, both as the guard will load them, so
    each request carries the disposition and verdict it must get.
    """
    rng = random.Random(seed)
    kinds = []
    for kind in HOSTILE_CLASSES:
        kinds.extend([kind] * (count * HOSTILE_PER_MILLE // 1000))
    share, extra = divmod(count - len(kinds), len(CORPUS_CLASSES))
    for i, kind in enumerate(CORPUS_CLASSES):
        kinds.extend([kind] * (share + (i < extra)))
    rng.shuffle(kinds)
    reputable = sorted(h for h, s in reputation.items() if s >= threshold)

    def unknown_host() -> str:
        return f"api{rng.randrange(1000)}.unknown{rng.randrange(50)}.example"

    out = []
    for i, kind in enumerate(kinds):
        if kind == "forward":
            req = RawRequest(kind, _plain_request(rng, unknown_host()), "http", None,
                             "handled", "forward")
        elif kind == "strip_and_redirect":
            body = _body(rng)
            cut = rng.randrange(len(body) + 1)
            body = body[:cut] + rng.choice(signatures) + body[cut:]
            req = RawRequest(kind, _plain_request(rng, unknown_host(), body), "http", None,
                             "handled", "strip_and_redirect")
        elif kind == "redirect_sim":
            req = RawRequest(kind, _plain_request(rng, rng.choice(reputable)), "http", None,
                             "handled", "redirect_sim")
        elif kind == "tls_rejected":
            server = rng.choice(PINNED_SERVERS)
            req = RawRequest(kind, _plain_request(rng, server), "https", server,
                             "tls_rejected", "")
        elif kind == "https_intercepted":
            server = rng.choice(INTERCEPTED_SERVERS)
            score = reputation.get(server)
            verdict = "redirect_sim" if score is not None and score >= threshold else "forward"
            req = RawRequest(kind, _plain_request(rng, server), "https", server,
                             "handled", verdict)
        elif kind == "blocked_protocol":
            protocol = rng.choice(("pop", "pop3", "imap", "ftp"))
            req = RawRequest(kind, f"USER user{rng.randrange(1000)}\r\n".encode(), protocol,
                             None, "blocked_protocol", "")
        elif kind == "malformed":
            req = RawRequest(kind, _malformed(rng, i), "http", None, "malformed", "")
        elif kind == "hostile_port":
            data = _http("GET", "/p", [("Host", f"h{rng.randrange(100)}.example:xx")])
            req = RawRequest(kind, data, "http", None, "", "")
        elif kind == "hostile_length":
            data = _http("POST", "/l", [("Host", unknown_host()), ("Content-Length", "-3")])
            req = RawRequest(kind, data + _body(rng)[:64] + b"tail", "http", None, "", "")
        else:  # hostile_header
            data = _http("GET", "/h", [("Host", unknown_host()), ("X Y<z", "v")])
            req = RawRequest(kind, data, "http", None, "", "")
        out.append(req)
    return out
