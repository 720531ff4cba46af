"""Operator CLI tying the modules into the five passive stages (trigger
selection, fingerprint embedding, watermark embedding, traceability,
ownership) plus the active authorization flows.

Every subcommand prints human-readable lines followed by one machine-
readable JSON record as the final stdout line. Exit codes: 0 success,
1 domain failure (e.g. traceability failure, tampered ledger), 2 usage.
Relative paths resolve against $MODELMARK_WORKSPACE when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import acpt, gateway, ledger, media, pcpt, phash, tinynn
from .errors import ModelmarkError

WORKSPACE_ENV = "MODELMARK_WORKSPACE"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


@dataclass
class WorkspaceManifest:
    """Paths and parameters resolved for one command run."""

    paths: dict[str, str] = field(default_factory=dict)
    seeds: dict[str, int] = field(default_factory=dict)
    thresholds: dict[str, float] = field(default_factory=dict)

    def path(self, role: str, raw: str, must_exist: bool = True) -> Path:
        root = Path(os.environ.get(WORKSPACE_ENV, "."))
        p = Path(raw) if Path(raw).is_absolute() else root / raw
        if must_exist and not p.exists():
            raise ModelmarkError(f"{role} path does not exist: {p}")
        self.paths[role] = str(p)
        return p

    def record(self) -> dict:
        return {"paths": self.paths, "seeds": self.seeds, "thresholds": self.thresholds}


def _emit(ws: WorkspaceManifest, event: str, lines: list[str], record: dict) -> None:
    """Print the lines, then the JSON record followed by the workspace record."""
    for line in lines:
        print(line)
    print(json.dumps({"event": event, **record, **ws.record()}, separators=(",", ":")))


def _load_image(ws: WorkspaceManifest, role: str, raw: str) -> np.ndarray:
    return media.parse_image_bytes(ws.path(role, raw).read_bytes())


def _load_trigger_sets(ws: WorkspaceManifest, raws: list[str]) -> list[media.TriggerSet]:
    return [media.load_trigger_set(ws.path(f"triggers_{i}", raw)) for i, raw in enumerate(raws)]


def _load_dataset(ws: WorkspaceManifest, images: str, labels: str, role: str) -> tinynn.LabeledDataset:
    if not images or not labels:
        raise ModelmarkError(f"{role} data needs both an images and a labels path")
    return tinynn.load_idx(
        ws.path(f"{role}_images", images), ws.path(f"{role}_labels", labels)
    )


def _train_cfg(args) -> tinynn.TrainConfig:
    return tinynn.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        seed=args.seed,
    )


def _add_train_flags(p: argparse.ArgumentParser, default_epochs: int) -> None:
    p.add_argument("--epochs", type=int, default=default_epochs)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)


def _add_threshold_flags(p: argparse.ArgumentParser) -> None:
    defaults = pcpt.TraceThresholds()
    p.add_argument("--theta1", type=float, default=defaults.theta1)
    p.add_argument("--theta2", type=float, default=defaults.theta2)


def _bind_address(raw: str) -> tuple[str, int]:
    """HOST:PORT as a (host, port) pair; an empty host is 127.0.0.1."""
    host, colon, port = raw.rpartition(":")
    if not colon or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with a port in 0..65535, got {raw!r}")
    return host or "127.0.0.1", int(port)


def _comma_separated(convert, what: str):
    """An argparse type: a comma-separated list of `what`, empty items skipped."""

    def parse(raw: str) -> list:
        try:
            return [convert(token) for token in raw.split(",") if token.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {raw!r}"
            ) from None

    return parse


def _thresholds(ws: WorkspaceManifest, args) -> pcpt.TraceThresholds:
    ws.thresholds = {"theta1": args.theta1, "theta2": args.theta2}
    return pcpt.TraceThresholds(theta1=args.theta1, theta2=args.theta2)


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------

def _cmd_phash(ws: WorkspaceManifest, args) -> int:
    hashes = {}
    for raw in args.images:
        h = phash.phash_image(_load_image(ws, raw, raw))
        hashes[raw] = phash.to_hex(h)
        print(f"{raw} {hashes[raw]}")
    record: dict = {"hashes": hashes}
    if len(args.images) == 2:
        a, b = (phash.from_hex(hashes[i]) for i in args.images)
        record["hamming"] = phash.hamming(a, b)
        record["xor"] = phash.to_hex(phash.xor(a, b))
        print(f"hamming {record['hamming']}")
        print(f"xor {record['xor']}")
    _emit(ws, "phash", [], record)
    return EXIT_OK


def _cmd_frames_select(ws: WorkspaceManifest, args) -> int:
    if args.video:
        seq = media.decode_y4m(ws.path("video", args.video).read_bytes())
    else:
        seq = media.load_frame_dir(ws.path("frames", args.dir))
    triggers = media.select_triggers(
        seq, args.count, user_id=args.user, label=args.label, d_min=args.d_min
    )
    out = ws.path("out", args.out, must_exist=False)
    media.save_trigger_set(triggers, out, d_min=args.d_min)
    _emit(
        ws,
        "frames_select",
        [f"selected {len(triggers)} frames, min pairwise distance {triggers.min_distance}"],
        {
            "user_id": args.user,
            "label": args.label,
            "count": len(triggers),
            "min_distance": triggers.min_distance,
        },
    )
    return EXIT_OK


def _cmd_train_base(ws: WorkspaceManifest, args) -> int:
    data = _load_dataset(ws, args.train_images, args.train_labels, "train")
    ws.seeds = {"train": args.seed}
    model = tinynn.init_model(
        tuple(data.inputs.shape[1:]), tinynn.desk_cnn_layers(data.num_classes),
        num_classes=data.num_classes, seed=args.seed,
    )
    model = tinynn.train(model, data, _train_cfg(args))
    out = ws.path("model_out", args.out, must_exist=False)
    tinynn.save_model(model, out)
    record: dict = {"classes": data.num_classes}
    lines = [f"trained on {len(data)} items over {args.epochs} epochs"]
    if args.test_images:
        test = _load_dataset(ws, args.test_images, args.test_labels, "test")
        record["test_accuracy"] = tinynn.evaluate(model, test)
        lines.append(f"test accuracy {record['test_accuracy']:.4f}")
    _emit(ws, "train_base", lines, record)
    return EXIT_OK


def _cmd_embed(ws: WorkspaceManifest, args) -> int:
    base = tinynn.load_model(ws.path("model", args.model))
    data = _load_dataset(ws, args.train_images, args.train_labels, "train")
    triggers = media.load_trigger_set(ws.path("triggers", args.triggers))
    ws.seeds = {"embed": args.seed}
    result = pcpt.embed_watermark(
        base, data, triggers, _train_cfg(args), fraction=args.fraction
    )
    out = ws.path("model_out", args.out, must_exist=False)
    tinynn.save_model(result.model, out)
    _emit(
        ws,
        "embed",
        [f"embedded watermark for {triggers.user_id}; trigger accuracy {result.trigger_accuracy:.4f}"],
        {
            "user_id": triggers.user_id,
            "trigger_accuracy": result.trigger_accuracy,
            "fraction": args.fraction,
        },
    )
    return EXIT_OK


def _trace_lines(report: pcpt.TraceReport) -> list[str]:
    lines = [
        f"T-{user}={acc:.4f}" for user, acc in report.per_user_trigger_accuracy.items()
    ]
    if report.original_task_accuracy is not None:
        lines.append(f"T-Original={report.original_task_accuracy:.4f}")
    lines.append(f"verdict={report.verdict}")
    return lines


def _trace_record(report: pcpt.TraceReport) -> dict:
    return {
        "users": [
            {"user_id": user, "trigger_accuracy": acc}
            for user, acc in report.per_user_trigger_accuracy.items()
        ],
        "verdict": report.verdict,
        "original_task_accuracy": report.original_task_accuracy,
    }


def _cmd_trace(ws: WorkspaceManifest, args) -> int:
    suspect = tinynn.load_model(ws.path("model", args.model))
    trigger_sets = _load_trigger_sets(ws, args.triggers)
    thresholds = _thresholds(ws, args)
    test = None
    if args.test_images:
        test = _load_dataset(ws, args.test_images, args.test_labels, "test")
    report = pcpt.trace(suspect, trigger_sets, thresholds, test=test)
    _emit(ws, "trace", _trace_lines(report), _trace_record(report))
    return EXIT_OK if report.verdict != pcpt.TRACEABILITY_FAILURE else EXIT_DOMAIN


def _cmd_fidelity(ws: WorkspaceManifest, args) -> int:
    base = tinynn.load_model(ws.path("base", args.base))
    watermarked = tinynn.load_model(ws.path("watermarked", args.watermarked))
    test = _load_dataset(ws, args.test_images, args.test_labels, "test")
    delta = pcpt.fidelity_report(base, watermarked, test)
    _emit(ws, "fidelity", [f"accuracy drop {delta:+.4f}"], {"accuracy_delta": delta})
    return EXIT_OK


def _cmd_attack_finetune(ws: WorkspaceManifest, args) -> int:
    model = tinynn.load_model(ws.path("model", args.model))
    test = _load_dataset(ws, args.test_images, args.test_labels, "test")
    trigger_sets = _load_trigger_sets(ws, args.triggers)
    thresholds = _thresholds(ws, args)
    ws.seeds = {"attack": args.seed}
    attacked, report = pcpt.finetune_attack(
        model, test, trigger_sets, thresholds, epochs=args.epochs, cfg=_train_cfg(args)
    )
    if args.out:
        tinynn.save_model(attacked, ws.path("model_out", args.out, must_exist=False))
    _emit(
        ws,
        "attack_finetune",
        _trace_lines(report),
        {**_trace_record(report), "epochs": args.epochs},
    )
    return EXIT_OK


_DEFAULT_PRUNE_RATES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _cmd_attack_prune(ws: WorkspaceManifest, args) -> int:
    model = tinynn.load_model(ws.path("model", args.model))
    test = _load_dataset(ws, args.test_images, args.test_labels, "test")
    trigger_sets = _load_trigger_sets(ws, args.triggers)
    rates = [rate for chunk in args.rate or [_DEFAULT_PRUNE_RATES] for rate in chunk]
    rows = pcpt.prune_sweep(model, rates, trigger_sets, test)
    lines = []
    for row in rows:
        per_user = " ".join(f"T-{u}={a:.3f}" for u, a in row.trigger_accuracy.items())
        lines.append(f"rate={row.rate:.2f} T-Original={row.original_accuracy:.4f} {per_user}")
    _emit(
        ws,
        "attack_prune",
        lines,
        {
            "rows": [
                {
                    "rate": row.rate,
                    "original_accuracy": row.original_accuracy,
                    "trigger_accuracy": row.trigger_accuracy,
                }
                for row in rows
            ],
        },
    )
    return EXIT_OK


def _cmd_ledger_append(ws: WorkspaceManifest, args) -> int:
    store = ledger.OwnershipLedger(ws.path("ledger", args.ledger, must_exist=False))
    if args.p_hex:
        p: int | str = args.p_hex
    else:
        if not (args.trigger and args.fingerprint):
            raise ModelmarkError("provide either --p-hex or both --trigger and --fingerprint")
        p = ledger.fingerprint_bind(
            _load_image(ws, "trigger", args.trigger),
            _load_image(ws, "fingerprint", args.fingerprint),
        )
    record = store.append(args.owner, p, note=args.note)
    _emit(
        ws,
        "ledger_append",
        [f"appended seq {record.seq} for {record.owner_id} (P={record.p_hex})"],
        {"seq": record.seq, "p_hex": record.p_hex, "timestamp": record.timestamp},
    )
    return EXIT_OK


def _cmd_ledger_verify(ws: WorkspaceManifest, args) -> int:
    store = ledger.OwnershipLedger(ws.path("ledger", args.ledger))
    bad = store.verify_chain()
    if bad is None:
        _emit(ws, "ledger_verify", ["chain ok"], {"ok": True})
        return EXIT_OK
    _emit(
        ws,
        "ledger_verify",
        [f"chain broken at record {bad}"],
        {"ok": False, "first_bad_seq": bad},
    )
    return EXIT_DOMAIN


def _cmd_ledger_claim(ws: WorkspaceManifest, args) -> int:
    store = ledger.OwnershipLedger(ws.path("ledger", args.ledger))
    record = store.verify_ownership(
        _load_image(ws, "trigger", args.trigger),
        _load_image(ws, "fingerprint", args.fingerprint),
    )
    if record is None:
        _emit(ws, "ledger_claim", ["no matching record"], {"found": False})
        return EXIT_DOMAIN
    _emit(
        ws,
        "ledger_claim",
        [f"claim matches seq {record.seq}: {record.owner_id} at {record.timestamp}"],
        {
            "found": True,
            "seq": record.seq,
            "owner_id": record.owner_id,
            "timestamp": record.timestamp,
        },
    )
    return EXIT_OK


def _credential(ws: WorkspaceManifest, args) -> acpt.Credential:
    """The credential from --k1, or from 8 digest positions drawn with --seed."""
    ws.seeds = {"k1": args.seed}
    k1 = args.k1 or np.random.default_rng(args.seed).choice(64, size=8, replace=False)
    return acpt.make_credential(args.username, args.owner_fp, k1)


def _cmd_acpt_credential(ws: WorkspaceManifest, args) -> int:
    cred = _credential(ws, args)
    _emit(
        ws,
        "acpt_credential",
        [
            f"encrypted_username {cred.encrypted_username}",
            f"k1 {','.join(str(i) for i in cred.k1)}",
        ],
        {
            "username": cred.username,
            "encrypted_username": cred.encrypted_username,
            "k1": list(cred.k1),
        },
    )
    return EXIT_OK


def _cmd_acpt_enroll(ws: WorkspaceManifest, args) -> int:
    base_path = ws.path("identity_base", args.base, must_exist=False)
    base = acpt.IdentityBase.load(base_path) if base_path.exists() else acpt.IdentityBase()
    cred = _credential(ws, args)
    key_image = _load_image(ws, "key_image", args.key_image)
    base = acpt.enroll(base, cred, key_image, args.user_id)
    base.save(base_path)
    _emit(
        ws,
        "acpt_enroll",
        [f"enrolled {args.user_id} ({len(base.entries)} entries)"],
        {
            "user_id": args.user_id,
            "encrypted_username": cred.encrypted_username,
            "entries": len(base.entries),
        },
    )
    return EXIT_OK


def _cmd_acpt_detector_train(ws: WorkspaceManifest, args) -> int:
    keys = media.load_frame_dir(ws.path("key_dir", args.key_dir)).frames
    others = media.load_frame_dir(ws.path("other_dir", args.other_dir)).frames
    ws.seeds = {"train": args.seed}
    detector = acpt.train_detector(keys, others, _train_cfg(args))
    tinynn.save_model(detector, ws.path("detector_out", args.out, must_exist=False))
    _emit(
        ws,
        "acpt_detector_train",
        [f"trained detector on {len(keys)} key + {len(others)} other images"],
        {"key_count": len(keys), "other_count": len(others)},
    )
    return EXIT_OK


def _parse_probe(ws: WorkspaceManifest, raw: str, index: int) -> tuple[str, tuple[str, np.ndarray]]:
    parts = raw.split(":", 2)
    if len(parts) != 3:
        raise ModelmarkError(f"probe must be USER:CREDENTIAL:KEY_IMAGE, got {raw!r}")
    user, credential, image_path = parts
    return user, (credential, _load_image(ws, f"probe_{index}", image_path))


def _load_bundles(ws: WorkspaceManifest, specs: list[str]) -> list[acpt.UserKeyBundle]:
    bundles = []
    for spec in specs:
        user, _, det_path = spec.partition("=")
        if not det_path:
            raise ModelmarkError(f"--detector must be USER=MODEL_PATH, got {spec!r}")
        detector = tinynn.load_model(ws.path(f"detector_{user}", det_path))
        placeholder = acpt.Credential(
            username=user, encrypted_username="0" * 8, k1=tuple(range(8))
        )
        bundles.append(
            acpt.UserKeyBundle(
                user_id=user, key_images=[], detector=detector, credential=placeholder
            )
        )
    return bundles


def _cmd_acpt_trace(ws: WorkspaceManifest, args) -> int:
    model = tinynn.load_model(ws.path("model", args.model))
    base = acpt.IdentityBase.load(ws.path("identity_base", args.base))
    bundles = _load_bundles(ws, args.detector)
    probes = dict(_parse_probe(ws, raw, i) for i, raw in enumerate(args.probe))
    test = _load_dataset(ws, args.test_images, args.test_labels, "test")
    ws.seeds = {"trace": args.seed}
    report = acpt.trace_acpt(bundles, base, model, probes, test, seed=args.seed)
    lines = [f"{user}: accuracy {acc:.4f}" for user, acc in report.per_user_accuracy.items()]
    lines.append(f"verdict: {report.verdict}")
    _emit(
        ws,
        "acpt_trace",
        lines,
        {"per_user_accuracy": report.per_user_accuracy, "verdict": report.verdict},
    )
    return EXIT_OK if report.verdict != acpt.INCONCLUSIVE else EXIT_DOMAIN


def _cmd_serve(ws: WorkspaceManifest, args) -> int:
    model = tinynn.load_model(ws.path("model", args.model))
    base = acpt.IdentityBase.load(ws.path("identity_base", args.base))
    bundles = _load_bundles(ws, args.detector)
    service = gateway.GatewayService(args.bind, bundles, model, base, seed=args.seed)
    try:  # before the announcement: a client may send SIGINT as soon as it reads it
        addr = service.address
        ws.seeds = {"service": args.seed}
        _emit(ws, "serve", [f"listening on {addr[0]}:{addr[1]}"], {"address": list(addr)})
        sys.stdout.flush()  # the bound port must reach a piped stdout before any request
        service.wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return EXIT_OK


def _cmd_metrics(ws: WorkspaceManifest, args) -> int:
    a = _load_image(ws, "image_a", args.image_a)
    b = _load_image(ws, "image_b", args.image_b)
    if args.metric == "mse":
        value = media.mse(a, b)
    else:
        value = media.ssim(phash.rgb_to_gray(a), phash.rgb_to_gray(b))
    _emit(ws, args.metric, [f"{args.metric} {value:.6f}"], {"value": value})
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modelmark", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phash", help="hash images; with two, also distance and xor")
    p.add_argument("images", nargs="+")
    p.set_defaults(handler=_cmd_phash)

    frames = sub.add_parser("frames", help="frame-source operations")
    frames_sub = frames.add_subparsers(dest="frames_command", required=True)
    p = frames_sub.add_parser("select", help="select a dissimilar trigger set")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--video", help="YUV4MPEG2 file")
    src.add_argument("--dir", help="directory of PGM/PPM frames")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--d-min", type=int, default=media.DEFAULT_MIN_DISTANCE)
    p.add_argument("--user", required=True)
    p.add_argument("--label", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_frames_select)

    p = sub.add_parser("train-base", help="train the desk-scale base classifier")
    p.add_argument("--train-images", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-images")
    p.add_argument("--test-labels")
    p.add_argument("--out", required=True)
    _add_train_flags(p, default_epochs=3)
    p.set_defaults(handler=_cmd_train_base)

    p = sub.add_parser("embed", help="embed a per-user watermark")
    p.add_argument("--model", required=True)
    p.add_argument("--train-images", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--triggers", required=True)
    p.add_argument("--fraction", type=float, default=pcpt.DEFAULT_FRACTION)
    p.add_argument("--out", required=True)
    _add_train_flags(p, default_epochs=pcpt.DEFAULT_EMBED_EPOCHS)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("trace", help="trace a suspect model against trigger sets")
    p.add_argument("--model", required=True)
    p.add_argument("--triggers", action="append", required=True)
    p.add_argument("--test-images")
    p.add_argument("--test-labels")
    _add_threshold_flags(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("fidelity", help="original-task accuracy drop after embedding")
    p.add_argument("--base", required=True)
    p.add_argument("--watermarked", required=True)
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels", required=True)
    p.set_defaults(handler=_cmd_fidelity)

    attack = sub.add_parser("attack", help="model-modification attacks")
    attack_sub = attack.add_subparsers(dest="attack_command", required=True)
    p = attack_sub.add_parser("finetune", help="fine-tune on half the test set")
    p.add_argument("--model", required=True)
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--triggers", action="append", required=True)
    p.add_argument("--out")
    _add_threshold_flags(p)
    _add_train_flags(p, default_epochs=50)
    p.set_defaults(handler=_cmd_attack_finetune)
    p = attack_sub.add_parser("prune", help="global magnitude pruning sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--triggers", action="append", required=True)
    p.add_argument(
        "--rate", action="append", type=_comma_separated(float, "numbers"),
        help="prune rate, repeatable or comma-separated",
    )
    p.set_defaults(handler=_cmd_attack_prune)

    led = sub.add_parser("ledger", help="hash-chained ownership ledger")
    led_sub = led.add_subparsers(dest="ledger_command", required=True)
    p = led_sub.add_parser("append", help="append an ownership record")
    p.add_argument("--ledger", required=True)
    p.add_argument("--owner", required=True)
    p.add_argument("--p-hex")
    p.add_argument("--trigger")
    p.add_argument("--fingerprint")
    p.add_argument("--note", default="")
    p.set_defaults(handler=_cmd_ledger_append)
    p = led_sub.add_parser("verify", help="verify the hash chain")
    p.add_argument("--ledger", required=True)
    p.set_defaults(handler=_cmd_ledger_verify)
    p = led_sub.add_parser("claim", help="resolve the earliest matching claim")
    p.add_argument("--ledger", required=True)
    p.add_argument("--trigger", required=True)
    p.add_argument("--fingerprint", required=True)
    p.set_defaults(handler=_cmd_ledger_claim)

    acpt_cmd = sub.add_parser("acpt", help="authorization-center operations")
    acpt_sub = acpt_cmd.add_subparsers(dest="acpt_command", required=True)
    p = acpt_sub.add_parser("credential", help="derive an encrypted username")
    p.add_argument("--username", required=True)
    p.add_argument("--owner-fp", required=True)
    p.add_argument(
        "--k1", type=_comma_separated(int, "integers"), help="8 comma-separated digest positions"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_acpt_credential)
    p = acpt_sub.add_parser("enroll", help="enroll a credential + key image")
    p.add_argument("--base", required=True)
    p.add_argument("--username", required=True)
    p.add_argument("--owner-fp", required=True)
    p.add_argument("--k1", type=_comma_separated(int, "integers"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key-image", required=True)
    p.add_argument("--user-id", required=True)
    p.set_defaults(handler=_cmd_acpt_enroll)
    p = acpt_sub.add_parser("detector-train", help="train a key-image detector")
    p.add_argument("--key-dir", required=True)
    p.add_argument("--other-dir", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p, default_epochs=50)
    p.set_defaults(handler=_cmd_acpt_detector_train)
    p = acpt_sub.add_parser("trace", help="probe a leaked deployment per user")
    p.add_argument("--model", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--detector", action="append", required=True, help="USER=MODEL_PATH")
    p.add_argument("--probe", action="append", required=True, help="USER:CREDENTIAL:KEY_IMAGE")
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_acpt_trace)

    p = sub.add_parser("serve", help="run the authorization gateway")
    p.add_argument("--bind", type=_bind_address, required=True, help="HOST:PORT")
    p.add_argument("--model", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--detector", action="append", required=True, help="USER=MODEL_PATH")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_serve)

    metrics = sub.add_parser("metrics", help="image quality metrics")
    metrics_sub = metrics.add_subparsers(dest="metric", required=True)
    for name in ("ssim", "mse"):
        p = metrics_sub.add_parser(name)
        p.add_argument("image_a")
        p.add_argument("image_b")
        p.set_defaults(handler=_cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    ws = WorkspaceManifest()
    try:
        return args.handler(ws, args)
    except ModelmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
