"""Command-line front end.

Subcommands: profile-new, keygen, encrypt, decrypt, analyze, simulate,
qg-dump, legacy-encrypt.  All randomness flows through explicit --seed
flags, so every invocation is deterministic given its flags and inputs.
The cipher commands code text in the profile's alphabet: a frame or a
container in its profile's alphabet_id, an inline --key in latin41.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import __version__, analysis, codec, keying, latin, qgdb, tasim
from .errors import (FrameInvalid, NotANumber, OrderViolation, QGError,
                     TooFewEntries)


# --- legacy inline keys --------------------------------------------------------

def parse_legacy_key(text: str) -> keying.KeyFrame:
    """Parse \"r, s, i1, i2, ...\" (whitespace around commas ignored) into a
    frame with orders r and s, those per-level indices and nonce 0."""
    entries = []
    for token in text.split(","):
        token = token.strip()
        try:
            entries.append(int(token))
        except ValueError:
            raise NotANumber(f"not an integer: {token!r}") from None
    if len(entries) < 3:
        raise TooFewEntries(
            f"need at least 3 entries (r, s, one index), got {len(entries)}")
    r, s = entries[0], entries[1]
    if r >= s:
        raise OrderViolation(f"first order must be smaller than second "
                             f"(got r={r}, s={s})")
    return keying.KeyFrame(r=r, s=s, indices=tuple(entries[2:]), nonce=0)


# Most lines one `simulate` run may log.  advance rekeys at most once, so
# a send logs at most an advance, a rekey, an issue, one accept per node and
# the send itself; with the init, the first issue and its accepts, a run
# logs at most nodes + 2 + sends * (nodes + 4) lines, whatever the margin.
MAX_SIM_LOG_LINES = 2_000_000


def _inline_key(args, base: qgdb.NetworkProfile):
    """Frame from an inline --key, with nonce 0, and the profile adapted to
    it: level count and split follow the key's index count, r_min, r_max,
    s_max and index_max widen to cover its orders and indices, and the text
    alphabet is latin41, which legacy-encrypt names in its header."""
    frame = parse_legacy_key(args.key)
    k = len(frame.indices)
    if k < 2:
        raise OrderViolation("inline keys need at least 2 indices")
    profile = dataclasses.replace(
        base,
        r_min=min(base.r_min, frame.r),
        r_max=max(base.r_max, frame.r),
        s_max=max(base.s_max, frame.s),
        level_count=k,
        split=None,
        index_max=max(base.index_max, max(frame.indices)),
        alphabet_id=codec.LATIN41.id,
    )
    return frame, profile


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _sim_duration(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


# --- small I/O helpers ----------------------------------------------------------

def _read_text(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path):
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_profile(args):
    """Profile from --profile, or the built-in default; returns the profile
    plus the exact bytes its fingerprint is computed over."""
    if getattr(args, "profile", None):
        raw = _read_bytes(args.profile)
        return qgdb.profile_from_json(raw.decode("utf-8")), raw
    profile = qgdb.default_profile()
    return profile, qgdb.profile_to_json(profile).encode("utf-8")


def _judge_frame(profile, frame):
    """Raise FrameInvalid unless the frame is valid at the instant it was
    issued.  The CLI has no clock, so this checks the frame's structure and
    that its nonce lies in the profile's window; such a frame is not yet
    expired."""
    verdict = keying.validate_frame(profile, frame, frame.issued_at)
    if not verdict.is_valid:
        raise FrameInvalid(verdict.reason)
    return frame


def _load_frame(args, profile):
    """Frame from --frame, whose file must name this profile's id, judged
    by _judge_frame."""
    frame, profile_id = keying.load_frame(args.frame)
    if profile_id != profile.profile_id:
        raise QGError(f"frame was issued for profile {profile_id!r}, "
                      f"not {profile.profile_id!r}")
    return _judge_frame(profile, frame)


# --- subcommands ------------------------------------------------------------------

def cmd_profile_new(args):
    fields = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(qgdb.NetworkProfile)}
    _write_text(args.out, qgdb.profile_to_json(qgdb.NetworkProfile(**fields)))
    return 0


def cmd_keygen(args):
    profile, _ = _load_profile(args)
    frame = keying.generate_frame(profile, args.seed, issued_at=args.issued_at)
    _write_text(args.out, keying.frame_to_json(frame, profile.profile_id))
    return 0


def _encrypt_text(args, profile, frame):
    """Derive the frame's hidden key, map the --in text with the profile's
    alphabet, encrypt it."""
    key = keying.derive_hidden_key(profile, frame)
    alphabet = codec.get_alphabet(profile.alphabet_id)
    plain = codec.text_to_symbols(_read_text(args.infile), alphabet)
    return codec.encrypt(profile, frame, key, plain)


def cmd_encrypt(args):
    if not args.text and args.out in (None, "-"):
        raise QGError("binary output needs --out FILE (or use --text)")
    profile, raw = _load_profile(args)
    frame = _load_frame(args, profile)
    cipher = _encrypt_text(args, profile, frame)
    if args.text:
        _write_text(args.out, codec.format_symbols(cipher))
    else:
        blob = codec.pack_container(qgdb.profile_fingerprint(raw), frame, cipher)
        with open(args.out, "wb") as fh:
            fh.write(blob)
    return 0


def cmd_decrypt(args):
    if args.text and not (args.frame or args.key):
        raise QGError("--text decryption needs --frame or --key")
    if not args.text and (args.frame or args.key):
        raise QGError("a container carries its own frame; "
                      "--frame and --key need --text")
    profile, raw = _load_profile(args)
    if args.text:
        if args.key:
            frame, profile = _inline_key(args, profile)
        else:
            frame = _load_frame(args, profile)
        cipher = codec.parse_symbols(_read_text(args.infile), frame.s)
    else:
        box = codec.unpack_container(_read_bytes(args.infile))
        if box.fingerprint != qgdb.profile_fingerprint(raw):
            raise QGError("ciphertext was made under a different profile")
        frame = _judge_frame(profile, box.frame())
        cipher = codec.SymbolStream(order=frame.s, symbols=box.symbols)
    key = keying.derive_hidden_key(profile, frame)
    plain = codec.decrypt(profile, frame, key, cipher)
    alphabet = codec.get_alphabet(profile.alphabet_id)
    _write_text(args.out, codec.symbols_to_text(plain, alphabet))
    return 0


def cmd_analyze(args):
    if args.case is None and args.infile is None:
        raise QGError("analyze needs --case or --in")
    if args.case is not None and args.alphabet:
        raise QGError(f"--alphabet needs --in; the cases use {codec.LATIN41.id}")
    profile, _ = _load_profile(args)
    if args.frame:
        frame = _load_frame(args, profile)
    else:
        frame = keying.generate_frame(profile, 1 if args.seed is None else args.seed)
    key = keying.derive_hidden_key(profile, frame)
    if args.case is not None:
        report = analysis.run_case(args.case, profile, frame, key,
                                   max_lag=args.max_lag)
    else:
        alphabet = codec.get_alphabet(args.alphabet or codec.LATIN41.id)
        report = analysis.analyze_text(_read_text(args.infile), profile, frame,
                                       key, alphabet=alphabet,
                                       max_lag=args.max_lag)
    out = report.output_autocorrelation
    peak = max(abs(v) for v in out.normalized[1:]) if len(out.normalized) > 1 else 0.0
    print(f"case={report.case_id} n={len(report.input_stream)} "
          f"entropy_in={report.input_entropy:.4f} "
          f"entropy_out={report.output_entropy:.4f} "
          f"distinct_in={report.input_distinct} "
          f"distinct_out={report.output_distinct} "
          f"peak_norm_acf_out={peak:.4f}", file=sys.stderr)
    _write_text(args.out, report.to_csv())
    return 0


def cmd_simulate(args):
    profile, _ = _load_profile(args)
    step = max(1, profile.nonce_lower // 2)
    # a product past the float range is clamped to its end, which is still
    # a horizon far over the bound, instead of failing in int()
    span = args.duration * profile.nonce_upper
    horizon = int(max(-sys.float_info.max, min(span, sys.float_info.max)))
    sends = max(0, -(-horizon // step))
    lines = args.nodes + 2 + sends * (args.nodes + 4)
    if lines > MAX_SIM_LOG_LINES:
        raise QGError(f"simulate could log {lines} lines, more than the "
                      f"maximum {MAX_SIM_LOG_LINES}; use fewer --nodes or "
                      f"a shorter --duration")
    sim = tasim.sim_init(profile, args.nodes, args.seed,
                         rekey_margin=args.margin,
                         auto_rekey=not args.no_rekey)
    tasim.issue_frame(sim)
    sender = 0
    node_ids = list(sim.nodes)
    while sim.clock < horizon:
        tasim.advance(sim, min(step, horizon - sim.clock))
        frm = node_ids[sender % len(node_ids)]
        to = node_ids[(sender + 1) % len(node_ids)]
        tasim.node_send(sim, frm, to, "STATUS OK")
        sender += 1
    _write_text(args.out, tasim.format_log(sim))
    return 0


def cmd_qg_dump(args):
    profile, _ = _load_profile(args)
    square = qgdb.get_quasigroup(profile, args.order, args.index, args.nonce)
    if args.inverse:
        square = latin.left_inverse(square)
    _write_text(args.out, latin.format_table(square))
    return 0


def cmd_legacy_encrypt(args):
    frame, profile = _inline_key(args, _load_profile(args)[0])
    cipher = _encrypt_text(args, profile, frame)
    header = (
        "# legacy inline-key mode: tables come from this package's seeded\n"
        "# generator, so this output is implementation-specific and will not\n"
        "# match other tools that accept the same key syntax.\n"
        f"# key r={frame.r} s={frame.s} "
        f"indices={','.join(map(str, frame.indices))} "
        f"nonce={frame.nonce} alphabet={profile.alphabet_id}\n"
    )
    _write_text(args.out, header + codec.format_symbols(cipher))
    return 0


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgcipher",
        description="Quasigroup string-transformation cipher toolkit.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, profile=True, infile=False):
        if profile:
            p.add_argument("--profile", metavar="FILE",
                           help="network profile JSON (default: built-in)")
        p.add_argument("--out", metavar="FILE",
                       help="output file (default: stdout)")
        if infile:
            p.add_argument("--in", dest="infile", metavar="FILE",
                           help="input file (default: stdin)")

    defaults = qgdb.default_profile()
    p = sub.add_parser("profile-new", help="write a network profile file")
    p.add_argument("--id", dest="profile_id", default=defaults.profile_id)
    p.add_argument("--db-seed", type=int, default=defaults.db_seed)
    p.add_argument("--r-min", type=int, default=defaults.r_min)
    p.add_argument("--r-max", type=int, default=defaults.r_max)
    p.add_argument("--s-max", type=int, default=defaults.s_max)
    p.add_argument("--levels", dest="level_count", type=int, metavar="K",
                   default=defaults.level_count)
    p.add_argument("--split", type=int, default=None, metavar="M",
                   help="leading levels of order r (default: levels/2 rounded up)")
    p.add_argument("--index-max", type=int, default=defaults.index_max)
    p.add_argument("--nonce-upper", type=int, default=defaults.nonce_upper,
                   metavar="T")
    p.add_argument("--nonce-lower", type=int, default=defaults.nonce_lower,
                   metavar="T1")
    p.add_argument("--alphabet", dest="alphabet_id",
                   choices=sorted(codec.ALPHABETS), default=defaults.alphabet_id)
    add_common(p, profile=False)
    p.set_defaults(func=cmd_profile_new)

    p = sub.add_parser("keygen", help="generate a key frame file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--issued-at", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt text under a key frame")
    p.add_argument("--frame", metavar="FILE", required=True)
    p.add_argument("--text", action="store_true",
                   help="emit space-separated decimal symbols instead of the "
                        "binary container")
    add_common(p, infile=True)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a container or symbol text")
    keys = p.add_mutually_exclusive_group()
    keys.add_argument("--frame", metavar="FILE", help="key frame (text mode only)")
    keys.add_argument("--key", metavar="R,S,I...",
                      help="inline key with nonce 0 (text mode only)")
    p.add_argument("--text", action="store_true",
                   help="input is space-separated decimal symbols")
    add_common(p, infile=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("analyze", help="scrambling report for a case or file")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--case", type=int, choices=sorted(analysis.CASE_INPUTS))
    source.add_argument("--in", dest="infile", metavar="FILE",
                        help="text file to report on")
    frames = p.add_mutually_exclusive_group()
    frames.add_argument("--frame", metavar="FILE")
    # default None: with default 1, argparse lets `--frame F --seed 1` pass
    frames.add_argument("--seed", type=int,
                        help="frame seed when --frame is absent (default 1)")
    p.add_argument("--max-lag", type=_non_negative_int,
                   default=analysis.DEFAULT_MAX_LAG)
    p.add_argument("--alphabet", choices=sorted(codec.ALPHABETS),
                   help=f"alphabet of the --in text (default: {codec.LATIN41.id})")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the authority/node simulation")
    p.add_argument("--nodes", type=int, default=2,
                   help="node count (default 2)")
    p.add_argument("--duration", type=_sim_duration, default=10.0,
                   help="run length in units of the nonce upper bound "
                        "(default 10)")
    p.add_argument("--margin", type=_non_negative_int, default=None,
                   help="rekey margin (default: half the nonce lower bound)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-rekey", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("qg-dump", help="print an indexed table")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--nonce", type=int, default=0)
    p.add_argument("--inverse", action="store_true",
                   help="print the left-inverse table instead")
    add_common(p)
    p.set_defaults(func=cmd_qg_dump)

    p = sub.add_parser("legacy-encrypt",
                       help="encrypt with an inline key, symbol-text output")
    p.add_argument("--key", metavar="R,S,I...", required=True)
    add_common(p, infile=True)
    p.set_defaults(func=cmd_legacy_encrypt)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QGError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())
