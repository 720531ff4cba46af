#!/usr/bin/env python3
"""Embedding per-user watermarks and tracing a leaked copy.

Each user's model copy gets an 11th output class trained on that user's
trigger frames. A leaked copy answers the extra class only for its own
user's triggers, which is what the threshold test reads off. Runs at a
reduced scale (2k training images, 20-epoch embeds) so it finishes in
about 12 seconds on 2 vCPUs.
"""

from modelmark import media, pcpt, synthdata, tinynn

train = synthdata.synthetic_digits(2000, seed=100)
test = synthdata.synthetic_digits(500, seed=200)

base = tinynn.train(
    tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0),
    train,
    tinynn.TrainConfig(epochs=2, batch_size=64, learning_rate=0.05, seed=1),
)
print(f"base model: {tinynn.evaluate(base, test):.1%} test accuracy, 10 classes")

triggers = {}
for user, style, seed in (("Alice", "skyline", 11), ("Bob", "seabed", 22)):
    video = synthdata.texture_video(130, seed=seed, style=style)
    triggers[user] = media.select_triggers(video, 60, user_id=user, label=10, d_min=16)
    print(f"{user}: 60 triggers, min pairwise distance {triggers[user].min_distance}")

cfg = tinynn.TrainConfig(epochs=20, batch_size=32, learning_rate=0.01, seed=2)
copies = {}
for user in ("Alice", "Bob"):
    result = pcpt.embed_watermark(base, train, triggers[user], cfg, fraction=0.10)
    copies[user] = result.model
    print(f"{user}'s copy: 11 classes, own-trigger accuracy {result.trigger_accuracy:.1%}")

print("\na model leaks; the owner traces it with both trigger sets:")
thresholds = pcpt.TraceThresholds(theta1=0.85, theta2=0.60)
for leaked_from in ("Alice", "Bob"):
    report = pcpt.trace(copies[leaked_from], list(triggers.values()), thresholds, test=test)
    accs = ", ".join(f"T-{u} {a:.0%}" for u, a in report.per_user_trigger_accuracy.items())
    print(f"  copy from {leaked_from}: {accs} -> verdict {report.verdict}")

print("\nthe clean base model cannot emit class 10 at all:")
report = pcpt.trace(base, list(triggers.values()), thresholds)
print(f"  {report.per_user_trigger_accuracy} -> {report.verdict}")

for user in ("Alice", "Bob"):
    delta = pcpt.fidelity_report(base, copies[user], test)
    print(f"fidelity cost of {user}'s watermark: {delta:+.2%} accuracy")
