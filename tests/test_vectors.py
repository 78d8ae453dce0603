"""Ciphertext vectors from an independent oracle.

The oracle below is written from the definitions alone, over plain Python
integers, and imports nothing from qgcipher but the dataclasses it fills
(KeyFrame, HiddenKey):

- SplitMix64: state += golden, output = the three-round finalizer of the
  state; a draw below m rejects outputs at or above the largest multiple
  of m that fits 64 bits;
- Fisher-Yates: for i from n-1 down to 1, swap items i and j, j drawn
  below i+1;
- the v1 fold of parts p_1..p_c: finalizer((sum of p + c * golden) mod 2**64);
- a frame from a seed: r in r_min..r_max, s in r+1..s_max, the indices in
  1..index_max, then the nonce strictly between T1 and T, drawn in order;
- the multiplier of level j, of order n_j: 1 + fold(db_seed, nonce, r, s,
  I_j, j) mod n_j;
- table (order, index, nonce): alpha, beta and gamma are the shuffles of
  fold(db_seed, order, index, nonce, tag) for tags 1, 2 and 3, and entry
  (x, y) is gamma(((alpha(x) + beta(y) - 2) mod n) + 1);
- a level: out[1] = q * in[1], out[i] = out[i-1] * in[i], level 1 first,
  the first m levels of order r and the rest of order s;
- the container: magic, version, fingerprint, nonce, r, s, k, the indices,
  the length and the symbols, little-endian; the fingerprint folds the
  profile file's byte length and its zero-padded 64-bit words.

It computes only the table entries a message reaches, so a frame at the
order cap costs three shuffles a level.  tests/data/cipher_vectors_v1.json
was generated once by running this file as a script
(PYTHONPATH=src python tests/test_vectors.py); the tests check that the
library and the CLI reproduce every vector and that the oracle still
reproduces the file.
"""

import hashlib
import json
import random
import struct
from pathlib import Path

import pytest

import qgcipher as qg
from qgcipher import cli
from qgcipher.keying import HiddenKey, KeyFrame

VECTORS_PATH = Path(__file__).parent / "data" / "cipher_vectors_v1.json"

_MASK = 2**64 - 1
_GOLDEN = 11400714819323198485      # 0x9E3779B97F4A7C15, in decimal
_M1 = 13787848793156543929
_M2 = 10723151780598845931

_ALPHABETS = {
    "latin27": "ABCDEFGHIJKLMNOPQRSTUVWXYZ ",
    "latin41": "ABCDEFGHIJKLMNOPQRSTUVWXYZ .,0123456789'\n",
}


# --- oracle -----------------------------------------------------------------------

def _finalize(z):
    z = (z ^ (z >> 30)) * _M1 & _MASK
    z = (z ^ (z >> 27)) * _M2 & _MASK
    return z ^ (z >> 31)


def fold(parts):
    """v1 seed derivation: the parts are summed, not placed."""
    return _finalize((sum(parts) + len(parts) * _GOLDEN) & _MASK)


class Stream:
    def __init__(self, seed):
        self.state = seed & _MASK

    def below(self, m):
        cutoff = 2**64 - 2**64 % m
        while True:
            self.state = (self.state + _GOLDEN) & _MASK
            z = _finalize(self.state)
            if z < cutoff:
                return z % m

    def between(self, lo, hi):
        return lo + self.below(hi - lo + 1)


def shuffle(seed, n):
    items = list(range(1, n + 1))
    stream = Stream(seed)
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


class Table:
    """One indexed table, of which only the entries asked for are computed."""

    def __init__(self, db_seed, order, index, nonce):
        self.n = order
        self.alpha, self.beta, self.gamma = (
            shuffle(fold([db_seed, order, index, nonce, tag]), order)
            for tag in (1, 2, 3))

    def entry(self, x, y):
        n = self.n
        return self.gamma[(self.alpha[x - 1] + self.beta[y - 1] - 2) % n]


def read_profile(text):
    """The profile file's fields, under the file's own keys."""
    fields = json.loads(text)
    fields["db_seed"] = int(fields["db_seed"])
    return fields


def frame_from_seed(p, seed):
    stream = Stream(seed)
    r = stream.between(p["r_min"], p["r_max"])
    s = stream.between(r + 1, p["s_max"])
    indices = tuple(stream.between(1, p["index_max"]) for _ in range(p["k"]))
    nonce = stream.between(p["T1"] + 1, p["T"] - 1)
    return KeyFrame(r=r, s=s, indices=indices, nonce=nonce)


def hidden_key(p, frame):
    orders = (frame.r,) * p["m"] + (frame.s,) * (p["k"] - p["m"])
    multipliers = tuple(
        1 + fold([p["db_seed"], frame.nonce, frame.r, frame.s, index, j]) % n
        for j, (index, n) in enumerate(zip(frame.indices, orders), 1))
    return HiddenKey(multipliers=multipliers, level_orders=orders)


def encrypt(p, frame, key, symbols):
    for index, q, n in zip(frame.indices, key.multipliers, key.level_orders):
        table = Table(p["db_seed"], n, index, frame.nonce)
        out, state = [], q
        for x in symbols:
            state = table.entry(state, x)
            out.append(state)
        symbols = out
    return symbols


def fingerprint(raw):
    padded = raw + b"\0" * (-len(raw) % 8)
    words = [int.from_bytes(padded[i:i + 8], "little")
             for i in range(0, len(padded), 8)]
    return fold([len(raw)] + words)


def container(raw_profile, frame, symbols):
    k, n = len(frame.indices), len(symbols)
    return (b"QGE1" + struct.pack("<BQQHHH", 1, fingerprint(raw_profile),
                                  frame.nonce, frame.r, frame.s, k)
            + struct.pack(f"<{k}H", *frame.indices)
            + struct.pack(f"<Q{n}H", n, *symbols))


def profile_text(**fields):
    """A profile file: the default profile's fields, these replacing them,
    in file order."""
    obj = {"profile_id": "default", "db_seed": "2611923443488327891",
           "r_min": 32, "r_max": 128, "s_max": 256, "k": 6, "m": 3,
           "index_max": 1000, "T": 1000, "T1": 100, "alphabet_id": "latin27"}
    obj.update(fields)
    obj["version"] = 1
    return json.dumps(obj, indent=2) + "\n"


def vector(name, profile, plaintext, frame_seed=None, key=None):
    """One vector: a frame drawn from frame_seed, or the inline key
    "r, s, i1, ..." with nonce 0."""
    p = read_profile(profile)
    if key is None:
        frame = frame_from_seed(p, frame_seed)
    else:
        r, s, *indices = map(int, key.split(","))
        frame = KeyFrame(r=r, s=s, indices=tuple(indices), nonce=0)
    hidden = hidden_key(p, frame)
    alphabet = _ALPHABETS[p["alphabet_id"]]
    cipher = encrypt(p, frame, hidden, [alphabet.index(ch) + 1 for ch in plaintext])
    return {
        "name": name,
        "profile": profile,
        "frame_seed": frame_seed,
        "key": key,
        "frame": {"r": frame.r, "s": frame.s, "indices": list(frame.indices),
                  "nonce": frame.nonce},
        "plaintext": plaintext,
        "multipliers": list(hidden.multipliers),
        "level_orders": list(hidden.level_orders),
        "symbols_sha256": hashlib.sha256(
            struct.pack(f"<{len(cipher)}H", *cipher)).hexdigest(),
        "container_sha256": hashlib.sha256(
            container(profile.encode("utf-8"), frame, cipher)).hexdigest(),
        "text": " ".join(map(str, cipher)) + "\n",
    }


def build_vectors():
    return {
        "about": "Ciphertext vectors of seed derivation v1, generated by the "
                 "oracle in tests/test_vectors.py. profile is the profile "
                 "file; the frame is drawn from frame_seed, or is the inline "
                 "key with nonce 0. symbols_sha256 is the SHA-256 of the "
                 "ciphertext symbols as little-endian 16-bit words, "
                 "container_sha256 that of the container bytes, and text the "
                 "symbol-text line.",
        "vectors": [
            vector("default-seed-7", profile_text(), "ATTACK AT DAWN",
                   frame_seed=7),
            vector("orders-255-257", profile_text(r_min=255, r_max=255,
                                                  s_max=257),
                   "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG",
                   frame_seed=1),
            vector("levels-5", profile_text(k=5), "ATTACK AT DAWN",
                   frame_seed=7),
            vector("levels-16", profile_text(k=16, m=8),
                   "SIXTEEN LEVELS OVER TWO ORDERS", frame_seed=7),
            vector("orders-4095-4096", profile_text(r_min=4095, r_max=4095,
                                                    s_max=4096, k=2, m=1),
                   "ATTACK AT DAWN", frame_seed=7),
            vector("latin41", profile_text(r_min=41, alphabet_id="latin41"),
                   "MEET AT 10.30, GATE 4'S NORTH.", frame_seed=7),
            vector("inline-key", profile_text(alphabet_id="latin41"),
                   "ATTACK AT 0500, GATE 2.", key="35, 41, 5, 4, 2, 1, 6, 3"),
        ],
    }


if __name__ == "__main__":
    VECTORS_PATH.write_text(json.dumps(build_vectors(), indent=1) + "\n",
                            encoding="utf-8")


# --- tests --------------------------------------------------------------------------

VECTORS = json.loads(VECTORS_PATH.read_text(encoding="utf-8"))["vectors"]
_IDS = [v["name"] for v in VECTORS]


def test_oracle_still_reproduces_the_vectors():
    assert build_vectors() == json.loads(VECTORS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("v", VECTORS, ids=_IDS)
def test_library_reproduces_the_vector(v):
    profile = qg.profile_from_json(v["profile"])
    assert qg.profile_to_json(profile) == v["profile"]
    frame = qg.KeyFrame(**{**v["frame"], "indices": tuple(v["frame"]["indices"])})
    if v["frame_seed"] is not None:
        assert qg.generate_frame(profile, v["frame_seed"]) == frame
    key = qg.derive_hidden_key(profile, frame)
    assert key == qg.HiddenKey(tuple(v["multipliers"]), tuple(v["level_orders"]))
    alphabet = qg.get_alphabet(profile.alphabet_id)
    cipher = qg.encrypt(profile, frame, key,
                        qg.text_to_symbols(v["plaintext"], alphabet))
    assert hashlib.sha256(struct.pack(f"<{len(cipher)}H", *cipher.symbols)
                          ).hexdigest() == v["symbols_sha256"]
    assert qg.format_symbols(cipher) == v["text"]
    blob = qg.pack_container(
        qg.profile_fingerprint(v["profile"].encode("utf-8")), frame, cipher)
    assert hashlib.sha256(blob).hexdigest() == v["container_sha256"]
    plain = qg.decrypt(profile, frame, key, cipher)
    assert qg.symbols_to_text(plain, alphabet) == v["plaintext"]


def _cli(capsys, *argv):
    assert cli.main(list(argv)) == 0, capsys.readouterr().err
    return capsys.readouterr().out


@pytest.mark.parametrize("v", VECTORS, ids=_IDS)
def test_cli_reproduces_the_vector(v, tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text(v["plaintext"], encoding="utf-8")
    sym = tmp_path / "cipher.sym"
    sym.write_text(v["text"], encoding="utf-8")
    if v["key"] is not None:
        # inline keys go through the built-in profile, adapted to the key
        out = _cli(capsys, "legacy-encrypt", "--key", v["key"], "--in", str(msg))
        assert out.splitlines(keepends=True)[-1] == v["text"]
        assert _cli(capsys, "decrypt", "--text", "--key", v["key"],
                    "--in", str(sym)) == v["plaintext"]
        return
    profile = tmp_path / "profile.json"
    profile.write_bytes(v["profile"].encode("utf-8"))
    frame = tmp_path / "frame.json"
    box = tmp_path / "cipher.qge"
    common = ["--profile", str(profile)]
    _cli(capsys, "keygen", *common, "--seed", str(v["frame_seed"]),
         "--out", str(frame))
    _cli(capsys, "encrypt", *common, "--frame", str(frame), "--in", str(msg),
         "--out", str(box))
    assert hashlib.sha256(box.read_bytes()).hexdigest() == v["container_sha256"]
    assert _cli(capsys, "encrypt", *common, "--frame", str(frame), "--text",
                "--in", str(msg)) == v["text"]
    assert _cli(capsys, "decrypt", *common, "--in", str(box)) == v["plaintext"]
    assert _cli(capsys, "decrypt", *common, "--text", "--frame", str(frame),
                "--in", str(sym)) == v["plaintext"]


def test_the_default_vector_is_the_built_in_profile(tmp_path, capsys):
    # CI encrypts this vector's text without --profile
    v = VECTORS[0]
    assert v["name"] == "default-seed-7"
    assert qg.profile_to_json(qg.default_profile()) == v["profile"]
    msg, frame, box = (tmp_path / name for name in ("m.txt", "f.json", "c.qge"))
    msg.write_text(v["plaintext"], encoding="utf-8")
    _cli(capsys, "keygen", "--seed", "7", "--out", str(frame))
    _cli(capsys, "encrypt", "--frame", str(frame), "--in", str(msg),
         "--out", str(box))
    assert hashlib.sha256(box.read_bytes()).hexdigest() == v["container_sha256"]


@pytest.mark.parametrize("order", [2, 171, 255, 256, 257, 4096])
def test_get_quasigroup_entries_match_the_oracle(order, profile):
    square = qg.get_quasigroup(profile, order, 7, 500)
    table = Table(profile.db_seed, order, 7, 500)
    rng = random.Random(order)
    cells = [(1, 1), (1, order), (order, 1), (order, order)] + [
        (rng.randint(1, order), rng.randint(1, order)) for _ in range(500)]
    for x, y in cells:
        assert int(square.table[x - 1, y - 1]) == table.entry(x, y), (x, y)

