#!/usr/bin/env python3
"""A full message round trip through the multi-level encryptor.

Run: python demos/04_message_round_trip.py
"""

import qgcipher as qg

profile = qg.default_profile()
frame = qg.generate_frame(profile, rng_seed=11)
key = qg.derive_hidden_key(profile, frame)

message = "MEET AT THE USUAL PLACE AT NOON"
print(f"message:   {message!r}")

plain = qg.text_to_symbols(message, qg.LATIN27)
print(f"symbols:   {plain.symbols}")

cipher = qg.encrypt(profile, frame, key, plain)
print(f"cipher:    {cipher.symbols}")
print(f"\nThe stream entered at order r={frame.r} and left at order "
      f"s={frame.s};")
print(f"max ciphertext symbol: {max(cipher.symbols)} (bound: {frame.s})")

back = qg.decrypt(profile, frame, key, cipher)
text = qg.symbols_to_text(back, qg.LATIN27)
print(f"\ndecrypted: {text!r}")
assert text == message

print("\nEach level chains on its own output, so a change anywhere in the")
print("plaintext reshapes the entire ciphertext tail after that point:")
tweaked = qg.text_to_symbols("MEET AT THE USUAL PLACE AT ONE ", qg.LATIN27)
other = qg.encrypt(profile, frame, key, tweaked)
same = sum(1 for a, b in zip(cipher.symbols, other.symbols) if a == b)
first_diff = next(i for i, (a, b) in
                  enumerate(zip(cipher.symbols, other.symbols)) if a != b)
print(f"  first difference at position {first_diff + 1}, "
      f"{same}/{len(cipher)} positions still agree")

print("\nThe binary container freezes everything a decryptor needs:")
fingerprint = qg.profile_fingerprint(qg.profile_to_json(profile).encode())
blob = qg.pack_container(fingerprint, frame, cipher)
print(f"  {len(blob)} bytes, magic {blob[:4]!r}")
box = qg.unpack_container(blob)
print(f"  recovered r={box.r} s={box.s} nonce={box.nonce}")
