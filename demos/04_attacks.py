#!/usr/bin/env python3
"""Attacking a watermarked model: fine-tuning and global pruning.

The attacker fine-tunes on half the test set with original labels only
(they do not know the extra class exists) and prunes small weights. Both
leave the trigger behavior intact well past the point where the model
itself degrades.
"""

from modelmark import media, pcpt, synthdata, tinynn

train = synthdata.synthetic_digits(2000, seed=100)
test = synthdata.synthetic_digits(600, seed=200)
base = tinynn.train(
    tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0),
    train,
    tinynn.TrainConfig(epochs=2, batch_size=64, learning_rate=0.05, seed=1),
)
trig_alice = media.select_triggers(
    synthdata.texture_video(130, seed=11, style="skyline"), 60,
    user_id="Alice", label=10, d_min=16,
)
trig_bob = media.select_triggers(
    synthdata.texture_video(130, seed=22, style="seabed"), 60,
    user_id="Bob", label=10, d_min=16,
)
cfg = tinynn.TrainConfig(epochs=20, batch_size=32, learning_rate=0.01, seed=2)
watermarked = pcpt.embed_watermark(base, train, trig_alice, cfg).model
thresholds = pcpt.TraceThresholds()
sets = [trig_alice, trig_bob]

print("fine-tuning attack: 20 epochs on half the test set, original labels only")
attacked, report = pcpt.finetune_attack(watermarked, test, sets, thresholds, cfg)
print(f"  original-task accuracy on held-out half: {report.original_task_accuracy:.1%}")
for user, acc in report.per_user_trigger_accuracy.items():
    print(f"  T-{user}: {acc:.0%}")
print(f"  verdict: {report.verdict}")

print("\nglobal magnitude pruning sweep:")
print("  rate  T-Original  T-Alice  T-Bob")
for row in pcpt.prune_sweep(watermarked, [i / 10 for i in range(10)], sets, test):
    print(
        f"  {row.rate:.1f}   {row.original_accuracy:>7.1%}   "
        f"{row.trigger_accuracy['Alice']:>6.0%}  {row.trigger_accuracy['Bob']:>5.0%}"
    )
