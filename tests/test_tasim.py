import pytest

import qgcipher as qg
from qgcipher import tasim
from qgcipher.cli import main
from qgcipher.errors import (
    NegativeTime,
    TooFewNodes,
    UnknownNode,
    UnmappableCharacter,
)


def _run_script(seed):
    sim = qg.sim_init(qg.default_profile(), 3, seed)
    qg.issue_frame(sim)
    qg.node_send(sim, "node1", "node2", "FIRST")
    qg.advance(sim, 120)
    qg.node_send(sim, "node2", "node3", "SECOND MESSAGE")
    qg.advance(sim, 700)
    qg.node_send(sim, "node3", "node1", "THIRD")
    return sim


def test_init_registers_nodes(profile):
    sim = qg.sim_init(profile, 2, 1)
    assert sorted(sim.nodes) == ["node1", "node2"]
    assert sim.clock == 0
    assert sim.current_frame is None
    assert [e.kind for e in sim.log] == ["init"]


def test_too_few_nodes(profile):
    with pytest.raises(TooFewNodes):
        qg.sim_init(profile, 1, 1)


def test_whole_run_is_deterministic():
    assert qg.format_log(_run_script(77)) == qg.format_log(_run_script(77))
    assert qg.format_log(_run_script(77)) != qg.format_log(_run_script(78))


def test_issue_broadcasts_to_all_nodes(profile):
    sim = qg.sim_init(profile, 4, 5)
    qg.issue_frame(sim)
    frames = {node.frame for node in sim.nodes.values()}
    assert frames == {sim.current_frame}
    assert profile.nonce_lower < sim.current_frame.nonce < profile.nonce_upper


def test_successive_issues_rotate_the_nonce(profile):
    sim = qg.sim_init(profile, 2, 5)
    nonces = []
    for _ in range(100):
        qg.issue_frame(sim)
        nonces.append(sim.current_frame.nonce)
    assert len(set(nonces)) > 1
    repeats = sum(1 for a, b in zip(nonces, nonces[1:]) if a == b)
    assert repeats <= 2


def test_advance_zero_only_logs(profile):
    sim = qg.sim_init(profile, 2, 5)
    qg.issue_frame(sim)
    before = (sim.clock, sim.current_frame)
    entries = len(sim.log)
    qg.advance(sim, 0)
    assert (sim.clock, sim.current_frame) == before
    assert len(sim.log) == entries + 1


def test_advance_rejects_negative(profile):
    sim = qg.sim_init(profile, 2, 5)
    with pytest.raises(NegativeTime):
        qg.advance(sim, -1)


def test_send_round_trips_folded_text(profile):
    sim = qg.sim_init(profile, 2, 5)
    qg.issue_frame(sim)
    result = qg.node_send(sim, "node1", "node2", "hello world")
    assert result.delivered
    assert result.plaintext == "HELLO WORLD"


def test_send_without_frame(profile):
    sim = qg.sim_init(profile, 2, 5)
    result = qg.node_send(sim, "node1", "node2", "HI")
    assert not result.delivered
    assert result.reason == "no-frame"


def test_unknown_node(profile):
    sim = qg.sim_init(profile, 2, 5)
    with pytest.raises(UnknownNode):
        qg.node_send(sim, "node1", "node9", "HI")


def test_expiry_without_rekey(profile):
    sim = qg.sim_init(profile, 2, 5, auto_rekey=False)
    qg.issue_frame(sim)
    frame = sim.current_frame
    qg.advance(sim, frame.nonce)  # exactly at expiry: already expired
    verdict = qg.validate_frame(profile, sim.nodes["node1"].frame, sim.clock)
    assert verdict.status is qg.FrameStatus.EXPIRED
    result = qg.node_send(sim, "node1", "node2", "LATE")
    assert not result.delivered
    assert result.reason == "expired"
    assert sim.current_frame == frame  # no reissue happened


def test_auto_rekey_keeps_messages_flowing(profile):
    sim = qg.sim_init(profile, 2, 13)
    qg.issue_frame(sim)
    step = profile.nonce_lower // 2
    horizon = 10 * profile.nonce_upper
    issued = {sim.current_frame}
    while sim.clock < horizon:
        qg.advance(sim, step)
        result = qg.node_send(sim, "node1", "node2", "TICK")
        assert result.delivered, f"failed at clock {sim.clock}"
        issued.add(sim.current_frame)
    assert len(issued) > 1  # rekeying actually happened


def test_rekey_happens_before_expiry(profile):
    sim = qg.sim_init(profile, 2, 21)
    qg.issue_frame(sim)
    first = sim.current_frame
    expiry = first.issued_at + first.nonce
    qg.advance(sim, expiry - sim.rekey_margin)
    assert sim.current_frame != first
    assert sim.current_frame.issued_at == sim.clock


def test_delivered_events_use_matching_keys(profile):
    sim = qg.sim_init(profile, 2, 5)
    qg.issue_frame(sim)
    result = qg.node_send(sim, "node1", "node2", "CHECK KEYS")
    assert result.delivered
    sender_key = qg.derive_hidden_key(profile, sim.nodes["node1"].frame)
    receiver_key = qg.derive_hidden_key(profile, sim.nodes["node2"].frame)
    assert sender_key == receiver_key


def test_log_line_format(profile):
    sim = qg.sim_init(profile, 2, 5)
    qg.issue_frame(sim)
    lines = qg.format_log(sim).splitlines()
    for line in lines:
        time, kind, details = line.split("\t")
        assert time.isdigit()
        assert kind
    assert any(line.split("\t")[1] == "issue" for line in lines)
    assert sum(1 for line in lines if line.split("\t")[1] == "accept") == 2


def _spy(monkeypatch, name):
    """Replace tasim's `name` with a wrapper that records its calls."""
    real = getattr(tasim, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tasim, name, spy)
    return calls


def test_a_key_is_derived_once_per_issued_frame(monkeypatch, capsys):
    derived = _spy(monkeypatch, "derive_hidden_key")
    argv = ["simulate", "--nodes", "4", "--duration", "50", "--seed", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\tdelivered\t") == 1000
    assert len(derived) == out.count("\tissue\t") == 100


def test_undeliverable_sends_do_no_cipher_work(profile, monkeypatch):
    sim = qg.sim_init(profile, 3, 5, auto_rekey=False)
    qg.issue_frame(sim)
    sim.nodes["node3"] = tasim.NodeState("node3")  # joined after the issue
    derived = _spy(monkeypatch, "derive_hidden_key")
    encrypted = _spy(monkeypatch, "encrypt")
    assert qg.node_send(sim, "node1", "node3", "HI").reason == "no-frame"
    qg.advance(sim, sim.current_frame.nonce)
    assert qg.node_send(sim, "node1", "node2", "HI").reason == "expired"
    assert derived == [] and encrypted == []
    assert [e.details for e in sim.log if e.kind == "send-rejected"] == [
        "node1->node3: no frame", "node1->node2: expired"]


def test_each_node_keeps_the_key_of_its_frame(profile):
    sim = qg.sim_init(profile, 3, 13)

    def check():
        for node in sim.nodes.values():
            assert node.key == qg.derive_hidden_key(profile, node.frame)

    qg.issue_frame(sim)
    check()
    frames = {sim.current_frame}
    while len(frames) < 5:
        qg.advance(sim, profile.nonce_lower // 2)
        check()
        frames.add(sim.current_frame)


def test_deliverable_unmappable_send_raises_and_logs_nothing(profile):
    sim = qg.sim_init(profile, 2, 5)
    qg.issue_frame(sim)
    entries = len(sim.log)
    with pytest.raises(UnmappableCharacter):
        qg.node_send(sim, "node1", "node2", "HI~")
    assert len(sim.log) == entries
