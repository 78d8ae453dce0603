"""Discrete-event simulation of the trusted authority and its nodes.

One authority periodically broadcasts key frames; a node that accepts one
derives its hidden key from it once and keeps both until the next frame.
Frames expire when their nonce runs out, and with auto-rekey enabled the
authority reissues a frame whenever the current one comes within
`rekey_margin` time units of expiry, so honest traffic never hits an
expired frame.  Transport is abstract and lossless; the object of study is
the key lifecycle.

All randomness flows from the master seed, so a whole run -- including its
event log -- is a pure function of (profile, node_count, master_seed,
script of calls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .codec import get_alphabet, symbols_to_text, text_to_symbols, decrypt, encrypt
from .errors import NegativeTime, TimeNotInteger, TooFewNodes, UnknownNode
from .keying import HiddenKey, KeyFrame, derive_hidden_key, generate_frame
from .qgdb import NetworkProfile, _conforms
from .seeds import SplitMix64


@dataclass
class NodeState:
    node_id: str
    frame: Optional[KeyFrame] = None
    key: Optional[HiddenKey] = None


@dataclass(frozen=True)
class LogEntry:
    time: int
    kind: str
    details: str

    def line(self) -> str:
        return f"{self.time}\t{self.kind}\t{self.details}"


@dataclass(frozen=True)
class SendResult:
    delivered: bool
    plaintext: Optional[str] = None
    reason: Optional[str] = None


@dataclass
class SimState:
    profile: NetworkProfile
    nodes: dict
    rekey_margin: int
    auto_rekey: bool
    _stream: SplitMix64
    clock: int = 0
    current_frame: Optional[KeyFrame] = None
    log: list = field(default_factory=list)

    def record(self, kind: str, details: str) -> None:
        self.log.append(LogEntry(self.clock, kind, details))


def sim_init(profile: NetworkProfile, node_count: int, master_seed: int,
             rekey_margin: Optional[int] = None,
             auto_rekey: bool = True) -> SimState:
    """Fresh simulation: clock 0, no frame, nodes registered.

    The default rekey margin is half the minimum nonce, which guarantees a
    reissue strictly before any valid frame can expire.  A margin must not
    be negative: with margin 0, advance still reissues at the expiry
    instant, before the next send.
    """
    if node_count < 2:
        raise TooFewNodes(f"need at least 2 nodes, got {node_count}")
    if rekey_margin is None:
        rekey_margin = profile.nonce_lower // 2
    if rekey_margin < 0:
        raise NegativeTime(f"rekey margin must be >= 0, got {rekey_margin}")
    nodes = {f"node{i}": NodeState(f"node{i}") for i in range(1, node_count + 1)}
    sim = SimState(profile=profile, nodes=nodes, rekey_margin=rekey_margin,
                   auto_rekey=auto_rekey, _stream=SplitMix64(master_seed))
    sim.record("init", f"nodes={node_count} margin={rekey_margin} "
                       f"auto_rekey={auto_rekey}")
    return sim


def issue_frame(sim: SimState) -> SimState:
    """Authority draws a fresh frame from its seed stream and broadcasts it.

    The frame derives from the stream, not from operator choice, so not
    even the authority knows the next one in advance.  It is drawn inside
    the profile's bounds and nonce window and issued at the current clock,
    so it is valid by construction; its hidden key is derived once (every
    node holds the same profile) and every node stores the frame with it.
    """
    frame = generate_frame(sim.profile, sim._stream.next_raw(),
                           issued_at=sim.clock)
    sim.current_frame = frame
    sim.record("issue", f"r={frame.r} s={frame.s} nonce={frame.nonce} "
                        f"indices={','.join(map(str, frame.indices))}")
    key = derive_hidden_key(sim.profile, frame)
    for node in sim.nodes.values():
        node.frame, node.key = frame, key
        sim.record("accept", node.node_id)
    return sim


def advance(sim: SimState, dt: int) -> SimState:
    """Move the clock forward; reissue if the frame is close to expiry.
    Frames are issued at the clock, so it moves by whole steps only."""
    if not _conforms(dt, int):
        raise TimeNotInteger(f"dt must be an integer, got {dt!r}")
    if dt < 0:
        raise NegativeTime(f"dt must be >= 0, got {dt}")
    sim.clock += dt
    sim.record("advance", f"dt={dt}")
    if sim.auto_rekey and sim.current_frame is not None:
        expiry = sim.current_frame.expires_at
        if sim.clock >= expiry - sim.rekey_margin:
            sim.record("rekey", f"margin={sim.rekey_margin} expiry={expiry}")
            issue_frame(sim)
    return sim


def node_send(sim: SimState, from_node: str, to_node: str,
              text: str) -> SendResult:
    """End-to-end message: encrypt at the sender, decrypt at the receiver.

    Each side uses the hidden key it derived on accepting its frame.  Frames
    are valid when issued, so a send checks only that the receiver's frame
    has not expired.  Deriving the key judged the frame's structure, and
    encrypt and decrypt do not judge it again for that key, profile and
    frame.  A send that cannot be delivered is logged and does no cipher
    work.
    Delivered plaintext is the folded input text.
    """
    for node_id in (from_node, to_node):
        if node_id not in sim.nodes:
            raise UnknownNode(f"unknown node {node_id!r}")
    sender = sim.nodes[from_node]
    receiver = sim.nodes[to_node]
    if sender.frame is None or receiver.frame is None:
        sim.record("send-rejected", f"{from_node}->{to_node}: no frame")
        return SendResult(delivered=False, reason="no-frame")
    if sim.clock >= receiver.frame.expires_at:
        sim.record("send-rejected", f"{from_node}->{to_node}: expired")
        return SendResult(delivered=False, reason="expired")
    alphabet = get_alphabet(sim.profile.alphabet_id)
    cipher = encrypt(sim.profile, sender.frame, sender.key,
                     text_to_symbols(text, alphabet))
    plain = symbols_to_text(
        decrypt(sim.profile, receiver.frame, receiver.key, cipher), alphabet)
    sim.record("delivered", f"{from_node}->{to_node} len={len(plain)}")
    return SendResult(delivered=True, plaintext=plain)


def format_log(sim: SimState) -> str:
    """The event log as line-oriented text: time<TAB>event<TAB>details."""
    return "\n".join(entry.line() for entry in sim.log) + ("\n" if sim.log else "")
