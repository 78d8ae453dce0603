"""Tests of the benchmark itself: python3 -m pytest bench -q

They check that a short run of each workload prints every metric with its
unit, that the digest repeats for one seed, that corrupted outputs are
caught by the output checks, that the traced pass hashes the same outputs
as an untraced pass over the same ops, and that the benchmark refuses to run
without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import setup_probe

_, PROFILE, FINGERPRINT = setup_probe.measure()

import run as bench_run  # noqa: E402
import tracing  # noqa: E402  (needs qgcipher on sys.path)
import workloads  # noqa: E402
from qgcipher import codec, keying  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "bulk-file": {"encrypt_sym_per_s": "symbols/s", "decrypt_sym_per_s": "symbols/s"},
    "authority-sim": {"send_p50_ms": "ms", "send_p99_ms": "ms", "sim_sends_per_s": "sends/s"},
    "scramble-report": {"report_p50_s": "s", "report_p90_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "failed/attempted"}


def run(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def digest(stdout):
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_repeats_its_digest(workload):
    first, again, traced = run(workload, 3, 0), run(workload, 3, 0), run(workload, 3, 1)
    for done in (first, again, traced):
        assert done.returncode == 0, done.stderr
    result = json.loads(first.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = [line.split() for line in first.stdout.splitlines()]
    printed = {words[0]: words[-1] for words in lines if len(words) == 3}
    for name, unit in {**COMMON, **NAMED[workload]}.items():
        assert printed.get(name) == unit, name

    layers = json.loads(traced.stdout.splitlines()[-1])
    assert layers["correct"]
    assert {k: v["unit"] for k, v in layers["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}

    assert digest(first.stdout) == digest(again.stdout) == digest(traced.stdout)
    assert digest(run(workload, 4, 0).stdout) != digest(first.stdout)

    # "traced digest sha256:<hex> ops <first> to <last>": the traced pass's own
    # ops, split into their public calls, must hash as the untraced ops do.
    words = next(line for line in traced.stdout.splitlines()
                 if line.startswith("traced digest ")).split()
    lo, hi = int(words[4]), int(words[6])
    tally = workloads.Tally(range(lo, hi + 1))
    getattr(workloads, workload.replace("-", "_"))(
        bench_run.Bench(3, PROFILE, FINGERPRINT), tally, tracing.NullTracer(),
        lo, 0, hi + 1 - lo)
    assert tally.failed == 0
    assert words[2] == "sha256:" + tally.digest.hexdigest()


def _round_trip(corrupt):
    """A short bulk-file round trip with `corrupt` applied to the container."""
    frame_seed, text, folded = workloads.bulk_input(5, 0)
    text, folded = text[:3000], folded[:3000]
    frame = keying.generate_frame(PROFILE, frame_seed)
    null = tracing.NullTracer()
    blob = corrupt(workloads.encrypt_file(null, {}, PROFILE, FINGERPRINT, frame, text),
                   frame)
    box, out = workloads.decrypt_file(null, {}, PROFILE, blob, len(text))
    return workloads.check_file(FINGERPRINT, frame, folded, blob, box, out)


def _failures(corrupt):
    tally = workloads.Tally(range(0))
    tally.settle(_round_trip, corrupt)
    return tally.attempted, tally.failed


def _corrupt_symbol(back):
    """Change the payload symbol `back` places from the end to another in 1..s."""
    def corrupt(blob, frame):
        data = bytearray(blob)
        at = len(data) - 2 * back
        old = int.from_bytes(data[at:at + 2], "little")
        data[at:at + 2] = (old % frame.s + 1).to_bytes(2, "little")
        return bytes(data)
    return corrupt


def test_round_trip_passes_and_one_corrupt_symbol_fails_the_op():
    # A changed symbol decrypts either to other text or to a symbol outside
    # latin27, which raises; both count as a failed op.
    assert _round_trip(lambda blob, frame: blob) == []
    assert _failures(lambda blob, frame: blob) == (1, 0)
    for back in (1, 100, 2000):
        assert _failures(_corrupt_symbol(back)) == (1, 1)


def test_symbol_out_of_range_fails_the_op():
    assert _failures(
        lambda blob, frame: blob[:-2] + (frame.s + 1).to_bytes(2, "little")) == (1, 1)


def test_report_check_passes_and_catches_one_corrupt_oracle_value():
    frame = keying.generate_frame(PROFILE, 11)
    key = keying.derive_hidden_key(PROFILE, frame)
    for op in range(len(workloads.REPORT_KINDS)):
        plain, cipher, *acfs = workloads.scramble(
            tracing.NullTracer(), PROFILE, frame, key, workloads.report_text(2, op))
        lags = workloads.report_lags(2, op)
        oracle = [workloads.exact_autocorrelation(s.symbols, lags) for s in (plain, cipher)]
        assert workloads.check_report(acfs, oracle, lags) == []
        oracle[1][3] += 1e-6 * max(1.0, abs(oracle[1][3]))
        assert workloads.check_report(acfs, oracle, lags)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("bulk-file", 1, 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
