"""The three workloads: bulk-file, authority-sim and scramble-report.

Each is a closed loop with one caller and no added threads: the next op
starts when the previous one has returned.  Inputs come from the workload
seed alone (numpy's PCG64, seeded with [seed, stream, op]), and qgcipher
only ever sees the generated texts, frames and seeds.  Every op's output is
checked; an op that raises or fails a check counts as failed.

Each workload function runs ops from `first_op`: `floor` of them whatever
the time, then more until the deadline.  The determinism digest covers the
first MIN_OPS ops of a pass (the tally's `hashed` op ids), which every pass
completes, so two runs with one seed print one digest.

With a Tracer, composite calls are split into their public parts so that
each layer gets its own spans: tables and inverses are fetched before the
codec calls that would build them, and analyze_text is replaced by the calls
it makes.  Without one, the ops call qgcipher exactly as the CLI does.
"""

import hashlib
import string
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

from qgcipher import analysis, codec, keying, latin, qgdb, seeds, tasim

from tracing import nearest_rank

BULK_CHARS = 10**6          # one file of about 1 MB, as in the CLI baseline
SIM_NODES = 4
SIM_DURATION = 50           # horizon in units of nonce_upper, `simulate --duration 50`
MESSAGE = "STATUS OK"       # already folded, so delivery must return it unchanged
REPORT_SYMBOLS = 10**5
MAX_LAG = 5000

# Ops every pass completes and hashes into the digest: file pairs, sim
# episodes (1,000 sends each, enough for a p99), and reports (one per kind).
MIN_OPS = {"bulk-file": 2, "authority-sim": 1, "scramble-report": 4}

# Ops the untraced pass completes before peak RSS is read, so that the
# reading does not depend on how fast the run went.  22 file pairs key 132
# tables, more than the 128 the table cache holds; one sim episode rekeys
# about 90 times; four reports cover every text kind.
RSS_OPS = {"bulk-file": 22, "authority-sim": 1, "scramble-report": 4}

# Ops at the start of each pass that are checked and hashed but not timed,
# because they also pay one-time costs (OpenBLAS starting its threads, the
# first tables and allocations).  An authority-sim episode starts cold after
# every rekey anyway, so no send is left out there.
WARMUP_OPS = {"bulk-file": 1, "authority-sim": 0, "scramble-report": 1}

# Seed streams, so that no two inputs share random draws.
_TEXT, _EPISODE, _LETTERS, _PROBE, _FRAME, _LAGS = range(1, 7)


def _rng(seed, stream, op=0):
    return np.random.default_rng([seed, stream, op])


def _seed64(rng):
    return int(rng.integers(0, 2**63))


class Tally:
    """What one phase of a run did: op times, failures, counters and digest."""

    def __init__(self, hashed):
        self.hashed = hashed    # op ids whose outputs go into the digest
        self.attempted = 0
        self.failed = 0
        self.times = defaultdict(list)
        self.digest = hashlib.sha256()
        self.tables = {}        # (order, index, nonce) -> [table bytes, inverse bytes]
        self.loop_s = 0.0
        self.delivered = 0
        self.sim = {"rekeys": 0, "rejected": Counter(), "log_entries": 0}

    def settle(self, op, *args):
        """Run one checked op; it fails if it raises or reports a problem."""
        try:
            problems = op(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"op {self.attempted - 1} failed: {'; '.join(problems)}",
                      file=sys.stderr)


def fetch_tables(t, tables, profile, frame, inverse):
    """Traced runs: build the frame's tables (and inverses) in spans of their
    own, so that the codec call after them runs on warm tables."""
    for order, index in zip(keying.level_orders(profile, frame), frame.indices):
        tag = (order, index, frame.nonce)
        square = t.call("qgdb.get_quasigroup", qgdb.get_quasigroup,
                        profile, order, index, frame.nonce, tag=tag)
        sizes = tables.setdefault(tag, [square.table.nbytes, 0])
        if inverse:
            sizes[1] = t.call("latin.left_inverse", latin.left_inverse, square,
                              tag=tag).table.nbytes


def probe_permutations(t, seed, op, orders):
    """Traced runs: one seeded permutation at each order the frame uses."""
    rng = _rng(seed, _PROBE, op)
    for order in orders:
        t.call("seeds.permutation_from_seed", seeds.permutation_from_seed,
               _seed64(rng), order, work=order)


# --- bulk-file ----------------------------------------------------------------

# Mixed case and tabs/newlines, so fold_text has work to do; every character
# folds into latin27.
_RAW_CHARS = string.ascii_uppercase + string.ascii_lowercase + " " * 12 + "\n\t"
_FOLDED_CHARS = string.ascii_uppercase * 2 + " " * 14
_RAW = np.frombuffer(_RAW_CHARS.encode("ascii"), dtype=np.uint8)
_FOLDED = np.frombuffer(_FOLDED_CHARS.encode("ascii"), dtype=np.uint8)


def bulk_input(seed, op):
    """Op `op`'s frame seed, its text, and that text folded."""
    rng = _rng(seed, _TEXT, op)
    frame_seed = _seed64(rng)
    pick = rng.integers(0, len(_RAW), BULK_CHARS)
    return (frame_seed, _RAW[pick].tobytes().decode("ascii"),
            _FOLDED[pick].tobytes().decode("ascii"))


def encrypt_file(t, tables, profile, fingerprint, frame, text):
    """The `qgcipher encrypt` path: text in, container bytes out."""
    key = t.call("keying.derive_hidden_key", keying.derive_hidden_key, profile, frame)
    plain = t.call("codec.text_to_symbols", codec.text_to_symbols, text, work=len(text))
    if t.enabled:
        fetch_tables(t, tables, profile, frame, inverse=False)
    cipher = t.call("codec.encrypt", codec.encrypt, profile, frame, key, plain,
                    work=len(plain) * profile.level_count)
    return t.call("codec.pack_container", codec.pack_container, fingerprint,
                  frame, cipher, work=len(cipher))


def decrypt_file(t, tables, profile, blob, n):
    """The `qgcipher decrypt` path: container bytes in, (container, text) out."""
    box = t.call("codec.unpack_container", codec.unpack_container, blob, work=n)
    frame = box.frame()
    cipher = t.call("codec.symbol_stream", codec.SymbolStream, frame.s,
                    box.symbols, work=n)
    key = t.call("keying.derive_hidden_key", keying.derive_hidden_key, profile, frame)
    if t.enabled:
        fetch_tables(t, tables, profile, frame, inverse=True)
    plain = t.call("codec.decrypt", codec.decrypt, profile, frame, key, cipher,
                   work=n * profile.level_count)
    return box, t.call("codec.symbols_to_text", codec.symbols_to_text, plain, work=n)


def check_file(fingerprint, frame, folded, blob, box, text):
    """Problems with one round trip; an empty list means it is correct."""
    problems = []
    if text != folded:
        problems.append("decrypted text differs from fold_text(input)")
    n = len(folded)
    payload = np.frombuffer(blob, dtype="<u2", count=n, offset=len(blob) - 2 * n)
    if payload.min() < 1 or payload.max() > frame.s:
        problems.append(f"ciphertext symbol outside 1..{frame.s}")
    if ((box.r, box.s, tuple(box.indices), box.nonce)
            != (frame.r, frame.s, tuple(frame.indices), frame.nonce)):
        problems.append("unpacked frame differs from the op's frame")
    if box.fingerprint != fingerprint:
        problems.append("container fingerprint differs from the profile's")
    return problems


def _file_pair(b, tally, t, op):
    frame_seed, text, folded = bulk_input(b.seed, op)
    problems = []
    if op == 0 and codec.fold_text(text) != folded:
        problems.append("fold_text disagrees with the benchmark's folded input")
    frame = t.call("keying.generate_frame", keying.generate_frame, b.profile, frame_seed)
    if t.enabled:
        probe_permutations(t, b.seed, op, (frame.r, frame.s))
    with t.op("bench.encrypt_file", op):
        started = time.perf_counter()
        blob = encrypt_file(t, tally.tables, b.profile, b.fingerprint, frame, text)
        encrypted = time.perf_counter()
    with t.op("bench.decrypt_file", op):
        restarted = time.perf_counter()
        box, out = decrypt_file(t, tally.tables, b.profile, blob, len(text))
        decrypted = time.perf_counter()
    tally.times["encrypt"].append(encrypted - started)
    tally.times["decrypt"].append(decrypted - restarted)
    tally.times["op"].append(encrypted - started + decrypted - restarted)
    if op in tally.hashed:
        tally.digest.update(blob)
    return problems + check_file(b.fingerprint, frame, folded, blob, box, out)


def bulk_file(b, tally, t, first_op, deadline, floor):
    op = first_op
    while op - first_op < floor or time.perf_counter() < deadline:
        tally.settle(_file_pair, b, tally, t, op)
        op += 1
    return op


# --- authority-sim --------------------------------------------------------------

def _new_frame(b, tally, t, sim, probe):
    """Traced runs: what each node does with a fresh frame, in its own spans,
    plus the seeds and keying probes; the next send then finds warm tables."""
    frame = sim.current_frame
    t.call("keying.validate_frame", keying.validate_frame, b.profile, frame, sim.clock)
    t.call("keying.derive_hidden_key", keying.derive_hidden_key, b.profile, frame)
    t.call("keying.generate_frame", keying.generate_frame, b.profile,
           _seed64(_rng(b.seed, _FRAME, probe)))
    probe_permutations(t, b.seed, probe, (frame.r, frame.s))
    fetch_tables(t, tally.tables, b.profile, frame, inverse=True)


def _send(tally, t, sim, frm, to):
    started = time.perf_counter()
    result = t.call("tasim.node_send", tasim.node_send, sim, frm, to, MESSAGE)
    tally.times["op"].append(time.perf_counter() - started)
    if not result.delivered:
        tally.sim["rejected"][result.reason] += 1
        return [f"send {frm}->{to} not delivered: {result.reason}"]
    tally.delivered += 1
    if result.plaintext != MESSAGE:
        return [f"send {frm}->{to} delivered {result.plaintext!r}"]
    return []


def sim_episode(b, tally, t, episode, deadline, finish):
    """One `simulate` run, rotating senders like cli.cmd_simulate; stops at
    the deadline unless `finish` is set."""
    profile = b.profile
    horizon = SIM_DURATION * profile.nonce_upper
    step = max(1, profile.nonce_lower // 2)
    started = time.perf_counter()
    sim = t.call("tasim.sim_init", tasim.sim_init, profile, SIM_NODES,
                 _seed64(_rng(b.seed, _EPISODE, episode)))
    t.call("tasim.issue_frame", tasim.issue_frame, sim)
    if t.enabled:
        _new_frame(b, tally, t, sim, tally.attempted)
    node_ids = sorted(sim.nodes, key=lambda node_id: int(node_id[4:]))
    sender = 0
    while sim.clock < horizon and (finish or time.perf_counter() < deadline):
        with t.op("bench.send", tally.attempted):
            seen = len(sim.log)
            t.call("tasim.advance", tasim.advance, sim, min(step, horizon - sim.clock))
            if t.enabled and any(e.kind == "issue" for e in sim.log[seen:]):
                _new_frame(b, tally, t, sim, tally.attempted)
            tally.settle(_send, tally, t, sim, node_ids[sender % len(node_ids)],
                         node_ids[(sender + 1) % len(node_ids)])
        sender += 1
    tally.loop_s += time.perf_counter() - started
    tally.sim["rekeys"] += sum(e.kind == "rekey" for e in sim.log)
    tally.sim["log_entries"] += len(sim.log)
    if episode in tally.hashed:
        tally.digest.update(tasim.format_log(sim).encode("utf-8"))


def authority_sim(b, tally, t, first_op, deadline, floor):
    episode = first_op
    while episode - first_op < floor or time.perf_counter() < deadline:
        sim_episode(b, tally, t, episode, deadline, finish=episode - first_op < floor)
        episode += 1
    return episode


# --- scramble-report ------------------------------------------------------------

_UPPER = np.frombuffer(string.ascii_uppercase.encode("ascii"), dtype=np.uint8)
REPORT_KINDS = ("random", "fable", "constant", "two-valued")


def report_text(seed, op):
    """Op `op`'s text; the four kinds take turns."""
    kind = REPORT_KINDS[op % len(REPORT_KINDS)]
    if kind == "random":
        pick = _rng(seed, _LETTERS, op).integers(0, 26, REPORT_SYMBOLS)
        return _UPPER[pick].tobytes().decode("ascii")
    if kind == "fable":
        fable = analysis.CASE_INPUTS[5]
        return (fable * (REPORT_SYMBOLS // len(fable) + 1))[:REPORT_SYMBOLS]
    if kind == "constant":
        return "E" * REPORT_SYMBOLS
    return "K " * (REPORT_SYMBOLS // 2)


def report_lags(seed, op):
    """Lags checked against the oracle: the ends, the first lags and one drawn."""
    drawn = int(_rng(seed, _LAGS, op).integers(3, MAX_LAG))
    return (0, 1, 2, drawn, MAX_LAG)


def scramble(t, profile, frame, key, text):
    """One report: (input stream, output stream, input acf, output acf)."""
    if not t.enabled:
        rep = analysis.analyze_text(text, profile, frame, key,
                                    alphabet=codec.LATIN41, max_lag=MAX_LAG)
        return (rep.input_stream, rep.output_stream,
                rep.input_autocorrelation, rep.output_autocorrelation)
    n = len(text)
    plain = t.call("codec.text_to_symbols", codec.text_to_symbols, text,
                   codec.LATIN41, work=n)
    cipher = t.call("codec.encrypt", codec.encrypt, profile, frame, key, plain,
                    work=n * profile.level_count)
    acfs = [t.call("analysis.autocorrelation", analysis.autocorrelation, s, MAX_LAG)
            for s in (plain, cipher)]
    for s in (plain, cipher):
        t.call("analysis.entropy", analysis.entropy, s)
        len(set(s.symbols))     # analyze_text's distinct-symbol counts
    return plain, cipher, acfs[0], acfs[1]


def exact_autocorrelation(symbols, lags):
    """R(k) from exact integer sums: n^2 R(k) = n^2 P - n S (A + B) + (n - k) S^2,
    where P = sum x_i x_{i+k}, S = sum x, A and B the sums of the overlaps."""
    x = np.asarray(symbols, dtype=np.int64)
    n = len(x)
    total = int(x.sum())
    out = []
    for k in lags:
        head, tail = x[:n - k], x[k:]
        num = (n * n * int(np.dot(head, tail))
               - n * total * (int(head.sum()) + int(tail.sum()))
               + (n - k) * total * total)
        out.append(num / (n * n))
    return out


def check_report(acfs, oracle, lags):
    """Problems with one report's autocorrelations against the exact oracle."""
    problems = []
    for side, acf, want in zip(("input", "output"), acfs, oracle):
        if len(acf.values) != MAX_LAG + 1:
            problems.append(f"{side}: {len(acf.values)} lags, expected {MAX_LAG + 1}")
            continue
        for k, w in zip(lags, want):
            got = float(acf.values[k])
            if not abs(got - w) <= 1e-9 * max(1.0, abs(got), abs(w)):
                problems.append(f"{side} R({k}) = {got!r}, oracle {w!r}")
        if want[0] > 0 and acf.normalized[0] != 1.0:
            problems.append(f"{side} normalized[0] = {acf.normalized[0]!r}")
    return problems


def _report(b, tally, t, op, frame, key):
    text = report_text(b.seed, op)
    if t.enabled:
        probe_permutations(t, b.seed, op, (frame.r, frame.s))
    with t.op("bench.report", op):
        started = time.perf_counter()
        plain, cipher, acf_in, acf_out = scramble(t, b.profile, frame, key, text)
        tally.times["op"].append(time.perf_counter() - started)
    lags = report_lags(b.seed, op)
    oracle = [exact_autocorrelation(s.symbols, lags) for s in (plain, cipher)]
    if op in tally.hashed:
        tally.digest.update(np.asarray(cipher.symbols, dtype="<u2").tobytes())
        tally.digest.update(repr(oracle).encode("ascii"))
    return check_report((acf_in, acf_out), oracle, lags)


def scramble_report(b, tally, t, first_op, deadline, floor):
    frame = t.call("keying.generate_frame", keying.generate_frame, b.profile,
                   _seed64(_rng(b.seed, _FRAME)))
    key = t.call("keying.derive_hidden_key", keying.derive_hidden_key, b.profile, frame)
    if t.enabled:
        fetch_tables(t, tally.tables, b.profile, frame, inverse=False)
    op = first_op
    while op - first_op < floor or time.perf_counter() < deadline:
        tally.settle(_report, b, tally, t, op, frame, key)
        op += 1
    return op


# --- end-to-end metrics ------------------------------------------------------------

def end_to_end(workload, tally):
    """(metrics named per workload, gate metrics shared by all workloads),
    each {name: (value, unit)}, over the ops after the warm-up."""
    warm = WARMUP_OPS[workload]
    ops = tally.times["op"][warm:]
    named = {"fail_ratio": (tally.failed / tally.attempted, "failed/attempted")}
    if workload == "bulk-file":
        named["encrypt_sym_per_s"] = (
            BULK_CHARS / np.median(tally.times["encrypt"][warm:]), "symbols/s")
        named["decrypt_sym_per_s"] = (
            BULK_CHARS / np.median(tally.times["decrypt"][warm:]), "symbols/s")
        per_s = len(ops) / sum(ops)
    elif workload == "authority-sim":
        named["send_p50_ms"] = (np.median(ops) * 1e3, "ms")
        named["send_p99_ms"] = (nearest_rank(ops, 0.99) * 1e3, "ms")
        named["sim_sends_per_s"] = (tally.delivered / tally.loop_s, "sends/s")
        per_s = named["sim_sends_per_s"][0]
    else:
        named["report_p50_s"] = (np.median(ops), "s")
        named["report_p90_s"] = (nearest_rank(ops, 0.9), "s")
        per_s = len(ops) / sum(ops)
    gate = {"op_p50_ms": (float(np.median(ops)) * 1e3, "ms"),
            "ops_per_s": (per_s, "1/s")}
    return {k: (float(v), u) for k, (v, u) in named.items()}, gate
