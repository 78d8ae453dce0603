"""Indexed quasigroup provider and the shared network profile.

Instead of storing a database of isotopes (superexponentially many even at
moderate orders), each (order, index, nonce) triple is expanded on demand:
three seeded permutations are derived from the profile's database seed and
applied as an isotopy to a canonical cyclic base square.  The mapping is a
pure function, so every device holding the same profile reconstructs the
same table -- and because the nonce participates, the table behind a given
index changes whenever the authority rotates the nonce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, InvalidOrder, ProfileInvalid
from .latin import MAX_ORDER, LatinSquare, apply_isotopy
from .seeds import derive_seed, permutation_from_seed

# Default database seed: first 16 hex digits of the fractional part of pi,
# a fixed nothing-up-my-sleeve constant.
DEFAULT_DB_SEED = 0x243F6A8885A308D3

PROFILE_VERSION = 1
_PROFILE_KEYS = ("profile_id", "db_seed", "r_min", "r_max", "s_max", "k", "m",
                 "index_max", "T", "T1", "alphabet_id", "version")

# Must stay in step with codec.ALPHABETS (kept as literals here to avoid a
# circular import; a test pins the two together).
KNOWN_ALPHABET_IDS = ("latin27", "latin41")


@dataclass(frozen=True)
class NetworkProfile:
    """Network-wide shared constants, distributed once out of band.

    nonce_lower / nonce_upper are exclusive bounds on the per-frame nonce
    (a validity duration in abstract time units): every issued nonce t
    satisfies nonce_lower < t < nonce_upper.  split is the number of
    leading encryption levels that use tables of order r; the remaining
    levels use order s.
    """

    profile_id: str = "default"
    db_seed: int = DEFAULT_DB_SEED
    r_min: int = 32
    r_max: int = 128
    s_max: int = 256
    level_count: int = 6
    split: int = 3
    index_max: int = 1000
    nonce_upper: int = 1000
    nonce_lower: int = 100
    alphabet_id: str = "latin27"

    def __post_init__(self):
        if self.r_min < 2:
            raise ProfileInvalid("r_min must be >= 2")
        if self.r_min > self.r_max:
            raise ProfileInvalid("r_min must be <= r_max")
        if self.r_max >= self.s_max:
            raise ProfileInvalid("r_max must be < s_max")
        if self.s_max > MAX_ORDER:
            raise ProfileInvalid(f"s_max must be <= {MAX_ORDER}")
        if self.level_count < 2:
            raise ProfileInvalid("level_count must be >= 2")
        if not 1 <= self.split < self.level_count:
            raise ProfileInvalid("split must satisfy 1 <= split < level_count")
        if self.index_max < 1:
            raise ProfileInvalid("index_max must be >= 1")
        if self.nonce_lower <= 0:
            raise ProfileInvalid("nonce_lower must be positive")
        # The strict nonce interval (nonce_lower, nonce_upper) must contain
        # at least one integer for frame generation to succeed.
        if self.nonce_upper <= self.nonce_lower + 1:
            raise ProfileInvalid("nonce_upper must exceed nonce_lower + 1")
        if not 0 <= self.db_seed < (1 << 64):
            raise ProfileInvalid("db_seed must be an unsigned 64-bit integer")
        if self.alphabet_id not in KNOWN_ALPHABET_IDS:
            raise ProfileInvalid(f"unknown alphabet_id {self.alphabet_id!r}")


def default_profile() -> NetworkProfile:
    return NetworkProfile()


# --- profile file format ----------------------------------------------------

def profile_to_json(profile: NetworkProfile) -> str:
    """Serialize to the fixed-order JSON object (db_seed as decimal string)."""
    obj = {
        "profile_id": profile.profile_id,
        "db_seed": str(profile.db_seed),
        "r_min": profile.r_min,
        "r_max": profile.r_max,
        "s_max": profile.s_max,
        "k": profile.level_count,
        "m": profile.split,
        "index_max": profile.index_max,
        "T": profile.nonce_upper,
        "T1": profile.nonce_lower,
        "alphabet_id": profile.alphabet_id,
        "version": PROFILE_VERSION,
    }
    return json.dumps(obj, indent=2) + "\n"


def profile_from_json(text: str) -> NetworkProfile:
    """Parse a profile file; unknown or missing keys are rejected."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode
        raise ProfileInvalid(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProfileInvalid("profile file must hold a JSON object")
    unknown = set(obj) - set(_PROFILE_KEYS)
    if unknown:
        raise ProfileInvalid(f"unknown profile keys: {sorted(unknown)}")
    missing = set(_PROFILE_KEYS) - set(obj)
    if missing:
        raise ProfileInvalid(f"missing profile keys: {sorted(missing)}")
    if obj["version"] != PROFILE_VERSION:
        raise ProfileInvalid(f"unsupported profile version {obj['version']}")
    for key in ("r_min", "r_max", "s_max", "k", "m", "index_max", "T", "T1"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ProfileInvalid(f"{key} must be an integer")
    for key in ("profile_id", "db_seed", "alphabet_id"):
        if not isinstance(obj[key], str):
            raise ProfileInvalid(f"{key} must be a string")
    try:
        db_seed = int(obj["db_seed"])
    except ValueError:
        raise ProfileInvalid("db_seed must be a decimal string") from None
    return NetworkProfile(
        profile_id=obj["profile_id"],
        db_seed=db_seed,
        r_min=obj["r_min"],
        r_max=obj["r_max"],
        s_max=obj["s_max"],
        level_count=obj["k"],
        split=obj["m"],
        index_max=obj["index_max"],
        nonce_upper=obj["T"],
        nonce_lower=obj["T1"],
        alphabet_id=obj["alphabet_id"],
    )


def save_profile(profile: NetworkProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile_to_json(profile))


def load_profile(path) -> NetworkProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_json(fh.read())


def profile_fingerprint(raw: bytes) -> int:
    """64-bit fingerprint of a profile file's exact bytes.

    The byte length followed by the zero-padded little-endian 64-bit words
    of the content, folded through derive_seed.  Stored in ciphertext
    containers so a decryptor can detect a mismatched profile.
    """
    parts = [len(raw)]
    padded = raw + b"\x00" * (-len(raw) % 8)
    parts.extend(int.from_bytes(padded[i:i + 8], "little")
                 for i in range(0, len(padded), 8))
    return derive_seed(parts)


# --- table generation --------------------------------------------------------

def base_square(n: int) -> LatinSquare:
    """The canonical cyclic square: entry (a, b) = ((a + b - 2) mod n) + 1."""
    if n < 1:
        raise InvalidOrder(f"order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise InvalidOrder(f"order {n} exceeds maximum {MAX_ORDER}")
    idx = np.arange(n, dtype=np.int32)
    return LatinSquare((idx[:, None] + idx[None, :]) % n + 1)


@lru_cache(maxsize=128)
def _indexed_square(db_seed: int, order: int, index: int, nonce: int) -> LatinSquare:
    perms = [
        permutation_from_seed(derive_seed((db_seed, order, index, nonce, tag)), order)
        for tag in (1, 2, 3)
    ]
    return apply_isotopy(base_square(order), *perms)


def get_quasigroup(profile: NetworkProfile, order: int, index: int,
                   nonce: int) -> LatinSquare:
    """The indexed isotope for (order, index, nonce) under this profile.

    Pure and deterministic: the same arguments always produce the same
    table, byte for byte, in any process on any platform.  Recently used
    tables are memoized; the cache is safe for concurrent lookups.
    """
    if order < 2:
        raise InvalidOrder(f"order must be >= 2, got {order}")
    if order > MAX_ORDER:
        raise InvalidOrder(f"order {order} exceeds maximum {MAX_ORDER}")
    if not 1 <= index <= profile.index_max:
        raise IndexOutOfRange(f"index {index} outside 1..{profile.index_max}")
    return _indexed_square(profile.db_seed, order, index, int(nonce) & ((1 << 64) - 1))
