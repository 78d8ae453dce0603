import argparse
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest

import qgcipher as qg
from qgcipher import cli, codec, qgdb
from qgcipher.cli import main, parse_legacy_key
from qgcipher.errors import NotANumber, OrderViolation, TooFewEntries


# --- legacy key parsing -----------------------------------------------------------

def test_parse_legacy_key_example():
    key = parse_legacy_key("35, 41, 5, 4, 2, 1, 6, 3")
    assert key.r == 35
    assert key.s == 41
    assert key.indices == (5, 4, 2, 1, 6, 3)


def test_parse_legacy_key_whitespace():
    assert parse_legacy_key(" 3 ,9,  1 ").indices == (1,)


def test_parse_legacy_key_order_violation():
    with pytest.raises(OrderViolation):
        parse_legacy_key("41, 35, 1")
    with pytest.raises(OrderViolation):
        parse_legacy_key("41, 41, 1")


def test_parse_legacy_key_too_few():
    with pytest.raises(TooFewEntries):
        parse_legacy_key("35, 41")


def test_parse_legacy_key_not_a_number():
    with pytest.raises(NotANumber):
        parse_legacy_key("35, 41, x")


# --- command round trips -------------------------------------------------------------

@pytest.fixture
def workspace(tmp_path):
    profile = tmp_path / "net.json"
    frame = tmp_path / "frame.json"
    assert main(["profile-new", "--out", str(profile)]) == 0
    assert main(["keygen", "--profile", str(profile), "--seed", "7",
                 "--out", str(frame)]) == 0
    return tmp_path, profile, frame


def test_profile_and_keygen_files(workspace):
    tmp, profile_path, frame_path = workspace
    profile = qg.load_profile(profile_path)
    assert profile == qg.default_profile()
    frame, profile_id = qg.load_frame(frame_path)
    assert profile_id == profile.profile_id
    assert frame == qg.generate_frame(profile, 7)


def test_binary_encrypt_decrypt_round_trip(workspace, capsys):
    tmp, profile, frame = workspace
    message = tmp / "msg.txt"
    message.write_text("attack at dawn")
    box = tmp / "msg.qge"
    assert main(["encrypt", "--profile", str(profile), "--frame", str(frame),
                 "--in", str(message), "--out", str(box)]) == 0
    assert box.read_bytes()[:4] == b"QGE1"
    assert main(["decrypt", "--profile", str(profile),
                 "--in", str(box)]) == 0
    assert capsys.readouterr().out == "ATTACK AT DAWN"


def test_text_mode_round_trip(workspace, capsys):
    tmp, profile, frame = workspace
    message = tmp / "msg.txt"
    message.write_text("HELLO WORLD")
    symbols = tmp / "msg.sym"
    assert main(["encrypt", "--profile", str(profile), "--frame", str(frame),
                 "--in", str(message), "--text", "--out", str(symbols)]) == 0
    tokens = symbols.read_text().split()
    assert all(tok.isdigit() for tok in tokens)
    assert len(tokens) == len("HELLO WORLD")
    assert main(["decrypt", "--profile", str(profile), "--frame", str(frame),
                 "--in", str(symbols), "--text"]) == 0
    assert capsys.readouterr().out == "HELLO WORLD"


def test_forged_text_ciphertext_is_an_error_not_a_traceback(workspace, capsys):
    tmp, profile, frame = workspace
    forged = tmp / "forged.txt"
    forged.write_text("170 3 150 12 99 171 1 160\n")
    assert main(["decrypt", "--text", "--profile", str(profile),
                 "--frame", str(frame), "--in", str(forged)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "level 3" in err


def test_binary_encrypt_requires_out(workspace, capsys):
    tmp, profile, frame = workspace
    message = tmp / "msg.txt"
    message.write_text("HI")
    assert main(["encrypt", "--profile", str(profile), "--frame", str(frame),
                 "--in", str(message)]) == 1
    assert "binary output" in capsys.readouterr().err


def test_decrypt_rejects_wrong_profile(workspace, tmp_path, capsys):
    tmp, profile, frame = workspace
    message = tmp / "msg.txt"
    message.write_text("HI")
    box = tmp / "msg.qge"
    main(["encrypt", "--profile", str(profile), "--frame", str(frame),
          "--in", str(message), "--out", str(box)])
    other = tmp_path / "other.json"
    main(["profile-new", "--db-seed", "99", "--out", str(other)])
    assert main(["decrypt", "--profile", str(other), "--in", str(box)]) == 1
    assert "different profile" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["encrypt", "--profile", "{profile}", "--frame", "{frame}",
                  "--in", "{msg}"],
                 "binary output needs --out FILE (or use --text)",
                 id="encrypt-binary-without-out"),
    pytest.param(["encrypt", "--profile", "{profile}", "--frame", "{frame}",
                  "--in", "{msg}.missing"],
                 "binary output needs --out FILE (or use --text)",
                 id="encrypt-binary-without-out-checked-before-input"),
    pytest.param(["decrypt", "--text", "--profile", "{profile}", "--in", "{msg}"],
                 "--text decryption needs --frame or --key",
                 id="decrypt-text-without-key"),
    pytest.param(["decrypt", "--profile", "{other}", "--in", "{box}"],
                 "ciphertext was made under a different profile",
                 id="decrypt-other-profile"),
    pytest.param(["decrypt", "--text", "--profile", "{profile}",
                  "--key", "35, 41, 5", "--in", "{msg}"],
                 "inline keys need at least 2 indices",
                 id="decrypt-inline-key-with-one-index"),
    pytest.param(["analyze"], "analyze needs --case or --in",
                 id="analyze-without-input"),
    pytest.param(["decrypt", "--profile", "{profile}", "--frame", "{frame}",
                  "--in", "{box}"],
                 "a container carries its own frame; --frame and --key need --text",
                 id="decrypt-container-with-frame"),
    pytest.param(["decrypt", "--profile", "{profile}",
                  "--key", "35, 41, 5, 4, 2, 1, 6, 3", "--in", "{box}"],
                 "a container carries its own frame; --frame and --key need --text",
                 id="decrypt-container-with-key"),
    pytest.param(["decrypt", "--profile", "{profile}.missing", "--frame", "{frame}",
                  "--in", "{box}.missing"],
                 "a container carries its own frame; --frame and --key need --text",
                 id="decrypt-container-with-frame-checked-before-profile-and-input"),
    pytest.param(["analyze", "--case", "6", "--alphabet", "latin27"],
                 "--alphabet needs --in; the cases use latin41",
                 id="analyze-case-with-alphabet"),
])
def test_command_failures_print_one_error_line(argv, message, workspace,
                                               capsys):
    tmp, profile, frame = workspace
    paths = {"profile": profile, "frame": frame, "msg": tmp / "msg.txt",
             "box": tmp / "msg.qge", "other": tmp / "other.json"}
    paths["msg"].write_text("HI")
    assert main(["encrypt", "--profile", str(profile), "--frame", str(frame),
                 "--in", str(paths["msg"]), "--out", str(paths["box"])]) == 0
    assert main(["profile-new", "--db-seed", "99",
                 "--out", str(paths["other"])]) == 0
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_decrypt_takes_a_frame_or_a_key_not_both(workspace, capsys):
    tmp, profile, frame = workspace
    message, cipher = tmp / "msg.txt", tmp / "msg.sym"
    message.write_text("ATTACK AT DAWN")
    assert main(["encrypt", "--text", "--profile", str(profile),
                 "--frame", str(frame), "--in", str(message),
                 "--out", str(cipher)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["decrypt", "--text", "--profile", str(profile),
              "--frame", str(frame), "--key", "35, 41, 5, 4, 2, 1, 6, 3",
              "--in", str(cipher)])
    assert err.value.code == 2
    assert ("argument --key: not allowed with argument --frame"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, message", [
    pytest.param(["decrypt", "--in", "m.qge", "--nonce", "3"],
                 "unrecognized arguments: --nonce 3", id="decrypt-nonce"),
    pytest.param(["decrypt", "--text", "--frame", "f.json", "--nonce", "9",
                  "--in", "m.sym"],
                 "unrecognized arguments: --nonce 9", id="decrypt-text-nonce"),
    pytest.param(["legacy-encrypt", "--key", "35, 41, 5, 4", "--nonce", "3",
                  "--in", "m.txt"],
                 "unrecognized arguments: --nonce 3", id="legacy-encrypt-nonce"),
    pytest.param(["analyze", "--case", "6", "--in", "m.txt"],
                 "argument --in: not allowed with argument --case",
                 id="analyze-case-and-in"),
    pytest.param(["analyze", "--frame", "f.json", "--seed", "9", "--in", "m.txt"],
                 "argument --seed: not allowed with argument --frame",
                 id="analyze-frame-and-seed"),
    pytest.param(["analyze", "--frame", "f.json", "--seed", "1", "--in", "m.txt"],
                 "argument --seed: not allowed with argument --frame",
                 id="analyze-frame-and-default-seed"),
])
def test_flags_a_command_would_ignore_are_usage_errors(argv, message, capsys):
    # parsed only: the named files need not exist
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: qgcipher {command}")


def test_analyze_help_states_its_real_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    out = capsys.readouterr().out
    assert "latin41" in out
    assert "stdin" not in out and "profile's" not in out


@pytest.mark.parametrize("text", [False, True], ids=["container", "text"])
def test_decrypt_reads_stdin(text, workspace, monkeypatch, capsys):
    tmp, profile, frame = workspace
    message, cipher = tmp / "msg.txt", tmp / "msg.ct"
    message.write_text("ATTACK AT DAWN")
    mode = ["--text"] if text else []
    assert main(["encrypt", "--profile", str(profile), "--frame", str(frame),
                 "--in", str(message), "--out", str(cipher)] + mode) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(cipher.read_bytes())))
    keys = ["--frame", str(frame)] if text else []
    assert main(["decrypt", "--profile", str(profile)] + mode + keys) == 0
    assert capsys.readouterr().out == "ATTACK AT DAWN"


@pytest.mark.parametrize("argv", [
    pytest.param(["encrypt", "--out", "{tmp}/msg.qge"], id="encrypt"),
    pytest.param(["decrypt", "--text"], id="decrypt-text"),
    pytest.param(["analyze"], id="analyze"),
])
def test_a_frame_issued_for_another_profile_is_refused(argv, workspace,
                                                       capsys):
    tmp, profile, _ = workspace
    other, frame = tmp / "netA.json", tmp / "netA-frame.json"
    assert main(["profile-new", "--id", "netA", "--out", str(other)]) == 0
    assert main(["keygen", "--profile", str(other), "--seed", "7",
                 "--out", str(frame)]) == 0
    capsys.readouterr()
    # the input file is missing: the frame is checked before it is read
    assert main([arg.format(tmp=tmp) for arg in argv]
                + ["--profile", str(profile), "--frame", str(frame),
                   "--in", str(tmp / "missing.txt")]) == 1
    assert capsys.readouterr() == (
        "", "error: frame was issued for profile 'netA', not 'default'\n")


def test_analyze_case_emits_csv(capsys):
    assert main(["analyze", "--case", "6", "--max-lag", "8"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "lag,raw_R,raw_norm,enc_R,enc_norm"
    assert len(lines) == 10
    # constant input: the raw autocorrelation column is all zeros
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 0.0
    assert "entropy_out" in captured.err


def test_analyze_reports_the_entropy_of_a_constant_input_as_zero(capsys):
    assert main(["analyze", "--case", "6", "--max-lag", "2"]) == 0
    assert "entropy_in=0.0000 " in capsys.readouterr().err


def test_analyze_case_one_runs(capsys):
    assert main(["analyze", "--case", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 22  # header + lags 0..20 on a 22-symbol stream


def test_analyze_adhoc_file(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG")
    assert main(["analyze", "--in", str(sample), "--seed", "4"]) == 0
    assert capsys.readouterr().out.startswith("lag,")


def test_qg_dump_is_deterministic(capsys):
    argv = ["qg-dump", "--order", "4", "--index", "1", "--nonce", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0] == "order 4"
    table = [[int(v) for v in line.split()] for line in lines[1:]]
    qg.validate_latin_square(table)


def test_qg_dump_inverse(capsys):
    main(["qg-dump", "--order", "5", "--index", "2", "--nonce", "1"])
    forward = capsys.readouterr().out
    main(["qg-dump", "--order", "5", "--index", "2", "--nonce", "1", "--inverse"])
    inverse = capsys.readouterr().out
    assert forward != inverse
    fwd = qg.validate_latin_square(
        [[int(v) for v in line.split()] for line in forward.splitlines()[1:]])
    inv = qg.validate_latin_square(
        [[int(v) for v in line.split()] for line in inverse.splitlines()[1:]])
    assert qg.left_inverse(fwd) == inv


def test_simulate_is_deterministic(capsys):
    argv = ["simulate", "--nodes", "3", "--duration", "2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    kinds = [line.split("\t")[1] for line in first.strip().splitlines()]
    assert "issue" in kinds
    assert "delivered" in kinds
    assert "send-rejected" not in kinds


def test_simulate_log_bytes_are_pinned(capsys):
    # about 100 frames, each rekey building six fresh tables end to end
    argv = ["simulate", "--nodes", "4", "--duration", "50", "--seed", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\tissue\t") == 100
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "36d091abef22951eac4a0ac155f38ddc75d940dddf9d5d6259597fd026aab239")


def test_simulate_without_rekey_rejects(capsys):
    assert main(["simulate", "--duration", "2", "--seed", "5",
                 "--no-rekey"]) == 0
    kinds = [line.split("\t")[1] for line in
             capsys.readouterr().out.strip().splitlines()]
    assert "send-rejected" in kinds
    assert kinds.count("issue") == 1


def test_legacy_encrypt_and_decrypt(tmp_path, capsys):
    message = tmp_path / "msg.txt"
    message.write_text("K K K K K K K K K K K ")
    assert main(["legacy-encrypt", "--key", "35, 41, 5, 4, 2, 1, 6, 3",
                 "--in", str(message)]) == 0
    out = capsys.readouterr().out
    header = [line for line in out.splitlines() if line.startswith("#")]
    assert header, "legacy output must carry a comment header"
    assert any("implementation-specific" in line for line in header)
    symbols = tmp_path / "ct.sym"
    symbols.write_text(out)
    assert main(["decrypt", "--text", "--key", "35, 41, 5, 4, 2, 1, 6, 3",
                 "--in", str(symbols), "--alphabet", "latin41"]) == 0
    assert capsys.readouterr().out == "K K K K K K K K K K K "


def test_legacy_key_outside_default_bounds_round_trips(tmp_path, capsys):
    # r=20 is below the default r_min (32) and s=300 above its s_max (256)
    key = "20, 300, 7, 1, 900, 4"
    message = tmp_path / "msg.txt"
    message.write_text("HELLO")  # every symbol within r=20
    assert main(["legacy-encrypt", "--key", key, "--in", str(message)]) == 0
    symbols = tmp_path / "ct.sym"
    symbols.write_text(capsys.readouterr().out)
    assert main(["decrypt", "--text", "--key", key, "--in", str(symbols),
                 "--alphabet", "latin41"]) == 0
    assert capsys.readouterr().out == "HELLO"


def test_legacy_symbols_stay_in_range(tmp_path, capsys):
    message = tmp_path / "msg.txt"
    message.write_text("OOM NAMAH SHIVAYA")
    assert main(["legacy-encrypt", "--key", "35, 41, 5, 4, 2, 1, 6, 3",
                 "--in", str(message)]) == 0
    out = capsys.readouterr().out
    values = [int(tok) for line in out.splitlines()
              if not line.startswith("#") for tok in line.split()]
    assert len(values) == 17
    assert all(1 <= v <= 41 for v in values)


def test_legacy_rejects_symbols_beyond_first_order(tmp_path, capsys):
    # '9' codes to 39 in latin41, above the inline key's r=35
    message = tmp_path / "msg.txt"
    message.write_text("AGENT 9")
    assert main(["legacy-encrypt", "--key", "35, 41, 5, 4, 2, 1, 6, 3",
                 "--in", str(message)]) == 1
    assert "exceeds 35" in capsys.readouterr().err


def test_analyze_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "case2.csv"
    assert main(["analyze", "--case", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lag,raw_R,raw_norm,enc_R,enc_norm"
    assert len(lines) == 18  # header + lags 0..16 on a 17-symbol stream


def test_profile_new_defaults_write_the_default_profile(tmp_path):
    out = tmp_path / "net.json"
    assert main(["profile-new", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == qg.profile_to_json(qg.default_profile())


def test_profile_new_custom_parameters(tmp_path):
    out = tmp_path / "tight.json"
    assert main(["profile-new", "--id", "tight", "--r-min", "8", "--r-max", "16",
                 "--s-max", "32", "--levels", "4", "--index-max", "50",
                 "--nonce-upper", "200", "--nonce-lower", "20",
                 "--alphabet", "latin41", "--out", str(out)]) == 0
    profile = qg.load_profile(out)
    assert profile.profile_id == "tight"
    assert (profile.r_min, profile.r_max, profile.s_max) == (8, 16, 32)
    assert profile.level_count == 4
    assert profile.split == 2  # levels/2 rounded up
    assert profile.alphabet_id == "latin41"
    frame = qg.generate_frame(profile, 1)
    assert 8 <= frame.r <= 16 < frame.s <= 32


@pytest.mark.parametrize("k", range(2, qgdb.MAX_LEVELS + 1))
def test_split_defaults_to_half_the_levels_in_library_and_cli(k, tmp_path):
    out = tmp_path / "net.json"
    assert main(["profile-new", "--levels", str(k), "--out", str(out)]) == 0
    split = qg.NetworkProfile(level_count=k).split
    assert split == math.ceil(k / 2)
    assert json.loads(out.read_text())["m"] == split


def test_simulate_margin_flag(capsys):
    assert main(["simulate", "--duration", "1", "--seed", "9",
                 "--margin", "90"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--duration", "1", "--seed", "9",
                 "--margin", "10"]) == 0
    second = capsys.readouterr().out
    assert first != second  # margin changes rekey timing
    assert any(line.split("\t")[1] == "rekey"
               for line in first.strip().splitlines())


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code != 0


def test_non_utf8_input_is_an_error_not_a_traceback(tmp_path, capsys):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"\xff\xfe\x80 not utf-8")
    assert main(["keygen", "--profile", str(blob), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["analyze", "--in", str(blob)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_profile_is_an_error_not_a_traceback(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    assert main(["keygen", "--profile", str(nested), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["analyze", "--case", "1", "--max-lag", "-1"],
    ["simulate", "--duration", "nan"],
    ["simulate", "--duration", "inf"],
    ["simulate", "--duration", "-inf"],
])
def test_bad_numeric_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_duration_is_capped(capsys):
    # parsed only, so that a missing cap fails here instead of running on
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(["simulate", "--duration", "1e300"])
    assert err.value.code == 2
    assert f"at most {cli.MAX_SIM_DURATION}" in capsys.readouterr().err
    args = cli.build_parser().parse_args(
        ["simulate", "--duration", str(cli.MAX_SIM_DURATION)])
    assert args.duration == cli.MAX_SIM_DURATION
    # ... and the default profile runs that long within the send cap
    default = qgdb.default_profile()
    step = default.nonce_lower // 2
    assert cli.MAX_SIM_DURATION * default.nonce_upper / step <= cli.MAX_SIM_STEPS


def test_simulate_send_count_is_capped(tmp_path, monkeypatch, capsys):
    # a wide nonce window makes many sends per unit of --duration
    wide = tmp_path / "wide.json"
    assert main(["profile-new", "--nonce-upper", str(10 ** 12),
                 "--nonce-lower", "2", "--out", str(wide)]) == 0
    monkeypatch.setattr(cli.tasim, "sim_init", None)  # must not be reached
    assert main(["simulate", "--profile", str(wide), "--duration", "1"]) == 1
    assert f"maximum {cli.MAX_SIM_STEPS}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cap", [
    pytest.param(["decrypt", "--text", "--key", "20, 65000, 1, 2"],
                 f"maximum {qg.MAX_ORDER}", id="argv0"),
    pytest.param(["decrypt", "--text", "--key", f"20, {qg.MAX_ORDER + 1}, 1, 2"],
                 f"maximum {qg.MAX_ORDER}", id="argv1"),
    pytest.param(["legacy-encrypt", "--key", "20, 65000, 1, 2"],
                 f"maximum {qg.MAX_ORDER}", id="argv2"),
    pytest.param(["decrypt", "--text", "--key",
                  "20, 40, " + ", ".join(["1"] * (qgdb.MAX_LEVELS + 1))],
                 f"2..{qgdb.MAX_LEVELS}", id="too-many-levels"),
    # each order under the cap, but 268,369,928 table entries in one frame
    pytest.param(["decrypt", "--text", "--key",
                  "4095, 4096, " + ", ".join(map(str, range(1, 17)))],
                 f"maximum {qgdb.MAX_FRAME_ENTRIES}", id="frame-budget"),
])
def test_inline_key_order_is_capped_before_any_table(argv, cap, tmp_path,
                                                     capsys, monkeypatch):
    def no_tables(*args):
        raise AssertionError("a table was requested")
    monkeypatch.setattr(qgdb, "get_quasigroup", no_tables)
    monkeypatch.setattr(codec, "get_quasigroup", no_tables)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(argv + ["--in", str(empty)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert cap in err


def test_inline_key_at_the_order_cap_is_accepted():
    args = cli.build_parser().parse_args(
        ["decrypt", "--text", "--key", f"20, {qg.MAX_ORDER}, 1, 2"])
    frame, profile = cli._inline_key(args, qg.default_profile())
    assert frame.s == profile.s_max == qg.MAX_ORDER


@pytest.mark.parametrize("order", [qg.MAX_ORDER + 1, 65000])
def test_qg_dump_order_is_capped_before_any_table(order, monkeypatch, capsys):
    def no_tables(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(qgdb, "_indexed_square", no_tables)
    assert main(["qg-dump", "--order", str(order), "--index", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"maximum {qg.MAX_ORDER}" in err


@pytest.mark.parametrize("key, value", [
    ("s_max", qg.MAX_ORDER + 1), ("k", qgdb.MAX_LEVELS + 1), ("k", 10 ** 9),
    ("s_max", qg.MAX_ORDER),
])
def test_profile_file_bounds_hold_before_any_frame(key, value, tmp_path,
                                                   monkeypatch, capsys):
    obj = json.loads(qg.profile_to_json(qg.default_profile()))
    obj[key] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    monkeypatch.setattr(cli.keying, "generate_frame", None)  # must not be reached
    assert main(["keygen", "--profile", str(path), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_nodes_are_capped(capsys):
    # parsed only, so that a missing cap fails here instead of running on
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(
            ["simulate", "--nodes", str(cli.MAX_SIM_NODES + 1)])
    assert err.value.code == 2
    assert f"at most {cli.MAX_SIM_NODES}" in capsys.readouterr().err
    args = cli.build_parser().parse_args(
        ["simulate", "--nodes", str(cli.MAX_SIM_NODES)])
    assert args.nodes == cli.MAX_SIM_NODES


def test_version_flag(capsys):
    expected = f"qgcipher {qg.__version__}\n"
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == expected
    proc = subprocess.run([sys.executable, "-m", "qgcipher", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
