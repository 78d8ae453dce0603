#!/usr/bin/env python3
"""The key lifecycle end to end: issuance, expiry, rekeying, and what
happens to messages along the way.

Run: python demos/06_authority_simulation.py
"""

import qgcipher as qg

profile = qg.default_profile()

print("=== with automatic rekeying ===\n")
sim = qg.sim_init(profile, node_count=3, master_seed=404)
qg.issue_frame(sim)
print(f"frame issued at t={sim.clock}: nonce={sim.current_frame.nonce}, "
      f"rekey margin={sim.rekey_margin}")

delivered = 0
while sim.clock < 3 * profile.nonce_upper:
    qg.advance(sim, profile.nonce_lower // 2)
    result = qg.node_send(sim, "node1", "node2", "routine traffic")
    delivered += result.delivered
print(f"messages delivered: {delivered}/{delivered} "
      f"(rekeying kept every frame fresh)")
rekeys = sum(1 for entry in sim.log if entry.kind == "rekey")
print(f"rekey events over the run: {rekeys}")

print("\n=== without rekeying ===\n")
frozen = qg.sim_init(profile, node_count=2, master_seed=404, auto_rekey=False)
qg.issue_frame(frozen)
frame = frozen.current_frame
print(f"frame issued: nonce={frame.nonce} "
      f"(valid strictly before t={frame.expires_at})")

qg.advance(frozen, frame.nonce - 1)
ok = qg.node_send(frozen, "node1", "node2", "just in time")
print(f"t={frozen.clock}: delivered={ok.delivered} ({ok.plaintext!r})")

qg.advance(frozen, 1)
late = qg.node_send(frozen, "node1", "node2", "too late")
print(f"t={frozen.clock}: delivered={late.delivered} (reason: {late.reason})")

print("\n=== the event log (tail) ===\n")
print("\n".join(qg.format_log(frozen).splitlines()[-6:]))
