#!/usr/bin/env python3
"""The active path: detector + validator gate every inference.

A user must present a key image their detector accepts AND a credential
that, XORed with the key image's hash, sits in the enrolled identity base.
Anyone else silently receives random classes. Probing a leaked deployment
with each user's key names the leaker.
"""

import numpy as np

from modelmark import acpt, synthdata, tinynn

rings = synthdata.key_image_class("rings", 60, seed=50)   # Alice's key class
spots = synthdata.key_image_class("spots", 60, seed=51)   # Bob's key class
others = synthdata.key_image_class("other", 60, seed=52)

cfg = tinynn.TrainConfig(epochs=30, batch_size=16, learning_rate=0.02, seed=60)
det_alice = acpt.train_detector(rings[:40], others[:40] + spots[:10], cfg)
det_bob = acpt.train_detector(spots[:40], others[:40] + rings[:10], cfg)
print("detectors trained (binary: key class vs anything else)")

cred_alice = acpt.make_credential("user1", "HN", k1=range(8))
cred_bob = acpt.make_credential("user2", "HN", k1=range(8, 16))
print(f"Alice's encrypted username: {cred_alice.encrypted_username} (k1={list(cred_alice.k1)})")

base = acpt.enroll(acpt.IdentityBase(), cred_alice, rings[0], "Alice")
base = acpt.enroll(base, cred_bob, spots[0], "Bob")
print(f"identity base holds {len(base.entries)} verification values")

train = synthdata.synthetic_digits(2000, seed=100)
test = synthdata.synthetic_digits(400, seed=200)
model = tinynn.train(
    tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0),
    train,
    tinynn.TrainConfig(epochs=2, batch_size=64, learning_rate=0.05, seed=1),
)
bundle_alice = acpt.UserKeyBundle("Alice", rings[:4], det_alice, cred_alice)
bundle_bob = acpt.UserKeyBundle("Bob", spots[:4], det_bob, cred_bob)

def measure(credential, key_image, n=300, tag=""):
    gen = np.random.default_rng(7)
    decided = acpt.decide([bundle_alice], base, credential, key_image)
    hits = sum(
        acpt.authorize(decided, test.inputs[i], model, gen) == test.labels[i]
        for i in range(n)
    )
    print(f"  {tag}: {hits / n:.1%} accuracy over {n} queries")

print("\nquerying Alice's deployment:")
measure(cred_alice.encrypted_username, rings[0], tag="Alice (correct key + credential)")
measure("00000000", rings[0], tag="forged credential")
measure(cred_alice.encrypted_username, others[0], tag="wrong key image")

print("\nBob's copy leaks; the owner probes it with both keys:")
report = acpt.trace_acpt(
    [bundle_bob], base, model,
    probes={
        "Alice": (cred_alice.encrypted_username, rings[0]),
        "Bob": (cred_bob.encrypted_username, spots[0]),
    },
    test=test.subset(np.arange(300)),
    seed=3,
)
for user, acc in report.per_user_accuracy.items():
    print(f"  {user}'s key unlocks {acc:.1%}")
print(f"  verdict: {report.verdict} leaked the model")
