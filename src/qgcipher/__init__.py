"""Quasigroup string-transformation cipher toolkit.

Latin-square algebra, a deterministic indexed table provider, frame and
hidden-key derivation, the multi-level encryptor/decryptor, randomization
measurements, and a trusted-authority lifecycle simulation.
"""

from .analysis import (
    AutocorrelationReport,
    CaseReport,
    CASE_INPUTS,
    analyze_text,
    autocorrelation,
    entropy,
    histogram,
    run_case,
)
from .codec import (
    SymbolStream,
    decrypt,
    decrypt_level,
    encrypt,
    encrypt_level,
    fold_text,
    format_symbols,
    pack_container,
    parse_symbols,
    symbols_to_text,
    text_to_symbols,
    unpack_container,
)
from .errors import QGError
from .keying import (
    FrameStatus,
    FrameVerdict,
    HiddenKey,
    KeyFrame,
    derive_hidden_key,
    frame_from_json,
    frame_to_json,
    generate_frame,
    level_orders,
    load_frame,
    save_frame,
    validate_frame,
)
from .latin import (
    LatinSquare,
    MAX_ORDER,
    Permutation,
    apply_isotopy,
    base_square,
    format_table,
    left_divide,
    left_inverse,
    multiply,
    validate_latin_square,
)
from .qgdb import (
    ALPHABETS,
    Alphabet,
    DEFAULT_DB_SEED,
    LATIN27,
    LATIN41,
    NetworkProfile,
    default_profile,
    get_alphabet,
    get_quasigroup,
    load_profile,
    profile_fingerprint,
    profile_from_json,
    profile_to_json,
    save_profile,
)
from .seeds import SplitMix64, derive_seed, mix64, permutation_from_seed
from .tasim import (
    SendResult,
    SimState,
    advance,
    format_log,
    issue_frame,
    node_send,
    sim_init,
)

__version__ = "0.1.0"
