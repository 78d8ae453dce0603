"""Key frames and hidden keys.

A key frame is what the trusted authority broadcasts: two table orders
(r < s), one table index per encryption level, and a nonce that doubles as
the frame's validity duration.  The hidden key -- the per-level multiplier
vector -- is never transmitted; sender and receiver both derive it from the
frame and the shared profile, so it only has to be derivable identically on
both ends.

This module alone judges frames and keys.  _frame_problem checks structure
(integer fields, r in the profile's r_min..r_max, r < s <= s_max, index
count and ranges); validate_frame adds the profile's nonce window and expiry
(a frame is valid strictly before KeyFrame.expires_at); check_key, the
cipher's one judge, adds that a hidden key fits the frame.  Hidden-key
derivation and the cipher need only the structural part.

A node derives its key once per frame and sends many messages under it,
so a key remembers the (profile, frame) pair derive_hidden_key judged it
on, when that frame's indices are a tuple and so cannot change, and holds
that frame's rows once used.  check_key passes such a key at once for
those very objects, with its rows; any other key, or the same key with
another profile or frame object, equal or not, is judged in full.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Optional

from .errors import FrameInvalid, KeyMismatch
from .qgdb import NetworkProfile, _conforms, _read_json_file, frame_rows
from .seeds import SplitMix64, derive_seed

FRAME_VERSION = 1


@dataclass(frozen=True)
class KeyFrame:
    """One authority transmission: orders, per-level indices, nonce."""

    r: int
    s: int
    indices: tuple
    nonce: int
    issued_at: int = 0

    @property
    def expires_at(self) -> int:
        """First instant at which the frame is expired: issued_at + nonce."""
        return self.issued_at + self.nonce


@dataclass(frozen=True)
class HiddenKey:
    """Derived multiplier vector, one leader symbol per level.

    source is the (profile, frame) pair derive_hidden_key judged the key
    on, or None for any other key; it takes no part in equality, hashing
    or repr, and dataclasses.replace resets it.  Such a key builds that
    frame's rows (qgdb.frame_rows) on first use and keeps them while it
    lives, outside equality, hashing, repr and its pickled state."""

    multipliers: tuple
    level_orders: tuple
    source: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    @cached_property
    def _own_rows(self) -> tuple:
        profile, frame = self.source
        return frame_rows(profile, self.level_orders, frame.indices, frame.nonce)

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_own_rows"}


class FrameStatus(enum.Enum):
    VALID = "valid"
    EXPIRED = "expired"
    INVALID = "invalid"


@dataclass(frozen=True)
class FrameVerdict:
    status: FrameStatus
    reason: Optional[str] = None

    @property
    def is_valid(self) -> bool:
        return self.status is FrameStatus.VALID


def level_orders(profile: NetworkProfile, frame: KeyFrame) -> tuple:
    """Table order per level: r for the first `split` levels, then s."""
    k, m = profile.level_count, profile.split
    return (frame.r,) * m + (frame.s,) * (k - m)


def _frame_problem(profile: NetworkProfile, frame: KeyFrame) -> Optional[str]:
    for name in ("r", "s", "issued_at"):
        value = getattr(frame, name)
        if not _conforms(value, int):
            return f"{name} {value!r} is not an integer"
    if not profile.r_min <= frame.r <= profile.r_max:
        return f"r {frame.r} outside {profile.r_min}..{profile.r_max}"
    if frame.r >= frame.s:
        return "r must be < s"
    if frame.s > profile.s_max:
        return f"s {frame.s} above s_max {profile.s_max}"
    if len(frame.indices) != profile.level_count:
        return (f"expected {profile.level_count} indices, "
                f"got {len(frame.indices)}")
    for i, index in enumerate(frame.indices, 1):
        if not _conforms(index, int):
            return f"index {index!r} at level {i} is not an integer"
        if not 1 <= index <= profile.index_max:
            return f"index {index} at level {i} outside 1..{profile.index_max}"
    if not _conforms(frame.nonce, int):
        return f"nonce {frame.nonce!r} is not an integer"
    return None


def generate_frame(profile: NetworkProfile, rng_seed: int,
                   issued_at: int = 0) -> KeyFrame:
    """Draw a fresh key frame from the seeded stream.

    Draw order is fixed: r uniform in [r_min, r_max], s uniform in
    (r, s_max], the level indices in order, then the nonce uniform in the
    open interval (nonce_lower, nonce_upper).  The same seed always yields
    the same frame.
    """
    stream = SplitMix64(rng_seed)
    r = stream.next_range(profile.r_min, profile.r_max)
    s = stream.next_range(r + 1, profile.s_max)
    indices = tuple(stream.next_range(1, profile.index_max)
                    for _ in range(profile.level_count))
    nonce = stream.next_range(profile.nonce_lower + 1, profile.nonce_upper - 1)
    return KeyFrame(r=r, s=s, indices=indices, nonce=nonce, issued_at=issued_at)


def derive_hidden_key(profile: NetworkProfile, frame: KeyFrame) -> HiddenKey:
    """Derive the multiplier vector both ends compute from the same frame.

    Level j (1-indexed) with table order n_j gets
    q_j = 1 + fold(db_seed, nonce, r, s, I_j, j) mod n_j, which lands every
    multiplier inside its level's table.  Only structural frame validity is
    required here; expiry is validate_frame's concern.
    """
    # Nonce bounds are a generation/acceptance policy, not a derivation
    # requirement -- the receiver must be able to key any well-formed frame.
    problem = _frame_problem(profile, frame)
    if problem is not None:
        raise FrameInvalid(problem)
    orders = level_orders(profile, frame)
    multipliers = tuple(
        1 + derive_seed((profile.db_seed, frame.nonce, frame.r, frame.s,
                         index, j)) % n_j
        for j, (index, n_j) in enumerate(zip(frame.indices, orders), 1)
    )
    key = HiddenKey(multipliers=multipliers, level_orders=orders)
    if isinstance(frame.indices, tuple):
        object.__setattr__(key, "source", (profile, frame))
    return key


def validate_frame(profile: NetworkProfile, frame: KeyFrame,
                   now: int) -> FrameVerdict:
    """Full acceptance check: structure, the nonce window, then freshness.

    A frame is valid strictly before frame.expires_at; at that instant it
    is already expired.  Once expired for some `now`, it stays expired for
    every later `now`.
    """
    problem = _frame_problem(profile, frame)
    if problem is not None:
        return FrameVerdict(FrameStatus.INVALID, problem)
    if not profile.nonce_lower < frame.nonce < profile.nonce_upper:
        return FrameVerdict(FrameStatus.INVALID,
                            f"nonce {frame.nonce} outside "
                            f"({profile.nonce_lower}, {profile.nonce_upper})")
    if now >= frame.expires_at:
        return FrameVerdict(FrameStatus.EXPIRED, f"expired at {frame.expires_at}")
    return FrameVerdict(FrameStatus.VALID)


def check_key(profile: NetworkProfile, frame: KeyFrame, key: HiddenKey) -> tuple:
    """Raise KeyMismatch unless the frame's index count fits the profile's
    levels, FrameInvalid with derive_hidden_key's reason for a frame it
    refuses, then KeyMismatch unless the key fits the frame; then return
    the frame's rows, (latin.chain_rows, latin.unchain_rows).

    A key derive_hidden_key built from this very profile and frame object
    fits by construction and returns its own rows at once."""
    source = key.source
    if source is not None and source[0] is profile and source[1] is frame:
        return key._own_rows
    orders = level_orders(profile, frame)
    if len(frame.indices) != len(orders):
        raise KeyMismatch(f"expected {len(orders)} frame indices, "
                          f"got {len(frame.indices)}")
    problem = _frame_problem(profile, frame)
    if problem is not None:
        raise FrameInvalid(problem)
    if key.level_orders != orders:
        raise KeyMismatch(f"key level orders {key.level_orders} do not match "
                          f"frame level orders {orders}")
    if len(key.multipliers) != len(orders):
        raise KeyMismatch(f"expected {len(orders)} multipliers, "
                          f"got {len(key.multipliers)}")
    for j, (q, n_j) in enumerate(zip(key.multipliers, orders), 1):
        if not _conforms(q, int):
            raise KeyMismatch(f"multiplier {q!r} at level {j} is not an integer")
        if not 1 <= q <= n_j:
            raise KeyMismatch(f"multiplier {q} at level {j} outside 1..{n_j}")
    return frame_rows(profile, key.level_orders, frame.indices, frame.nonce)


# --- frame file format -------------------------------------------------------

# The file holds version, profile_id and then the KeyFrame fields in field
# order, under their own names; the indices travel as a JSON list.
_FRAME_TYPES = {"profile_id": str,
                **{f.name: list if f.name == "indices" else int
                   for f in fields(KeyFrame)}}


def frame_to_json(frame: KeyFrame, profile_id: str) -> str:
    obj = {"version": FRAME_VERSION, "profile_id": profile_id,
           **asdict(frame)}
    return json.dumps(obj, indent=2) + "\n"


def frame_from_json(text: str):
    """Parse a frame file; returns (frame, profile_id)."""
    obj = _read_json_file(text, _FRAME_TYPES, FRAME_VERSION, FrameInvalid, "frame")
    profile_id = obj.pop("profile_id")
    return KeyFrame(**{**obj, "indices": tuple(obj["indices"])}), profile_id


def save_frame(frame: KeyFrame, profile_id: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(frame_to_json(frame, profile_id))


def load_frame(path):
    with open(path, "r", encoding="utf-8") as fh:
        return frame_from_json(fh.read())
