"""CLI behavior: subcommand wiring, exit codes, and the machine-readable
JSON record emitted as the final stdout line."""

import argparse
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modelmark
from modelmark import acpt, cli, gateway, media, synthdata, tinynn


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    record = json.loads(lines[-1]) if lines else {}
    return code, lines, record


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end fixture: datasets, video, trigger sets, models."""
    root = tmp_path_factory.mktemp("ws")
    train = synthdata.synthetic_digits(400, seed=0)
    test = synthdata.synthetic_digits(120, seed=1)
    synthdata.write_idx_files(train, root / "train-img.idx", root / "train-lbl.idx")
    synthdata.write_idx_files(test, root / "test-img.idx", root / "test-lbl.idx")

    video = synthdata.texture_video(40, seed=2, style="skyline")
    (root / "alice.y4m").write_bytes(synthdata.write_y4m(video, chroma="C444"))

    img_a = synthdata.key_image_class("rings", 1, seed=3)[0]
    img_b = synthdata.key_image_class("spots", 1, seed=4)[0]
    (root / "a.ppm").write_bytes(media.write_ppm(img_a))
    (root / "b.ppm").write_bytes(media.write_ppm(img_b))
    return root


class TestBasics:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trace", "--bogus-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(["serve", "--bind", "127.0.0.1:abc"], "--bind", id="bind-port-not-a-number"),
            pytest.param(["serve", "--bind", "nohost"], "--bind", id="bind-without-port"),
            pytest.param(["serve", "--bind", "127.0.0.1:99999"], "--bind", id="bind-port-too-large"),
            pytest.param(
                ["acpt", "credential", "--username", "u", "--owner-fp", "HN", "--k1", "a,b,c"],
                "--k1", id="k1-not-integers",
            ),
            pytest.param(["attack", "prune", "--rate", "x"], "--rate", id="rate-not-a-number"),
        ],
    )
    def test_unparseable_value_is_usage_error(self, argv, flag, capsys):
        required = {  # every other required flag is given, so only the value is at fault
            "serve": ["--model", "m.tnn", "--base", "b.ndjson", "--detector", "A=d.tnn"],
            "attack": ["--model", "m.tnn", "--test-images", "i", "--test-labels", "l",
                       "--triggers", "t.json"],
            "acpt": [],
        }[argv[0]]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + required)
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    def test_phash_two_images_reports_distance(self, workspace, capsys):
        code, lines, record = run_cli(
            capsys, ["phash", str(workspace / "a.ppm"), str(workspace / "b.ppm")]
        )
        assert code == 0
        assert len(record["hashes"]) == 2
        assert 0 <= record["hamming"] <= 64
        assert len(record["xor"]) == 16

    def test_metrics_mse_identity(self, workspace, capsys):
        code, _, record = run_cli(
            capsys, ["metrics", "mse", str(workspace / "a.ppm"), str(workspace / "a.ppm")]
        )
        assert code == 0
        assert record["value"] == 0.0

    def test_metrics_ssim_self(self, workspace, capsys):
        code, _, record = run_cli(
            capsys, ["metrics", "ssim", str(workspace / "a.ppm"), str(workspace / "a.ppm")]
        )
        assert code == 0
        assert record["value"] == pytest.approx(1.0)

    def test_missing_path_is_domain_error(self, workspace, capsys):
        code = cli.main(["phash", str(workspace / "nope.ppm")])
        capsys.readouterr()
        assert code == 1

    def test_workspace_env_resolves_relative_paths(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORKSPACE_ENV, str(workspace))
        code, _, record = run_cli(capsys, ["phash", "a.ppm"])
        assert code == 0


class TestPcptFlow:
    def test_select_train_embed_trace(self, workspace, capsys):
        code, _, rec = run_cli(
            capsys,
            [
                "frames", "select", "--video", str(workspace / "alice.y4m"),
                "--count", "20", "--d-min", "8", "--user", "Alice",
                "--label", "10", "--out", str(workspace / "trig-alice"),
            ],
        )
        assert code == 0
        assert rec["count"] == 20
        assert (workspace / "trig-alice" / "manifest.txt").is_file()

        code, _, rec = run_cli(
            capsys,
            [
                "train-base",
                "--train-images", str(workspace / "train-img.idx"),
                "--train-labels", str(workspace / "train-lbl.idx"),
                "--test-images", str(workspace / "test-img.idx"),
                "--test-labels", str(workspace / "test-lbl.idx"),
                "--epochs", "2", "--batch-size", "32", "--learning-rate", "0.05",
                "--out", str(workspace / "base.tnn"),
            ],
        )
        assert code == 0
        assert rec["test_accuracy"] > 0.8

        code, _, rec = run_cli(
            capsys,
            [
                "embed",
                "--model", str(workspace / "base.tnn"),
                "--train-images", str(workspace / "train-img.idx"),
                "--train-labels", str(workspace / "train-lbl.idx"),
                "--triggers", str(workspace / "trig-alice"),
                "--epochs", "25", "--fraction", "0.25",
                "--out", str(workspace / "alice.tnn"),
            ],
        )
        assert code == 0
        assert rec["trigger_accuracy"] > 0.9

        # watermarked model traces to Alice, exit 0
        code, lines, rec = run_cli(
            capsys,
            [
                "trace",
                "--model", str(workspace / "alice.tnn"),
                "--triggers", str(workspace / "trig-alice"),
            ],
        )
        assert code == 0
        assert rec["verdict"] == "Alice"

        # the unwatermarked base cannot emit the extra class: exit 1
        code, lines, rec = run_cli(
            capsys,
            [
                "trace",
                "--model", str(workspace / "base.tnn"),
                "--triggers", str(workspace / "trig-alice"),
            ],
        )
        assert code == 1
        assert rec["verdict"] == "traceability failure"
        assert rec["users"] == [{"user_id": "Alice", "trigger_accuracy": 0.0}]

        code, _, rec = run_cli(
            capsys,
            [
                "fidelity",
                "--base", str(workspace / "base.tnn"),
                "--watermarked", str(workspace / "alice.tnn"),
                "--test-images", str(workspace / "test-img.idx"),
                "--test-labels", str(workspace / "test-lbl.idx"),
            ],
        )
        assert code == 0
        assert rec["accuracy_delta"] <= 0.05

        code, _, rec = run_cli(
            capsys,
            [
                "attack", "prune",
                "--model", str(workspace / "alice.tnn"),
                "--test-images", str(workspace / "test-img.idx"),
                "--test-labels", str(workspace / "test-lbl.idx"),
                "--triggers", str(workspace / "trig-alice"),
                "--rate", "0,0.5",
            ],
        )
        assert code == 0
        assert [row["rate"] for row in rec["rows"]] == [0.0, 0.5]

    def test_malformed_trigger_manifest_is_an_error(self, capsys, tmp_path):
        model = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0)
        tinynn.save_model(model, tmp_path / "model.tnn")
        img = synthdata.key_image_class("rings", 1, seed=3)[0]
        trig = media.TriggerSet(user_id="Alice", images=[img], label=10)
        manifest = media.save_trigger_set(trig, tmp_path / "trig", d_min=0)
        manifest.write_text(manifest.read_text().replace("label=10", "label=x"))
        code = cli.main(
            ["trace", "--model", str(tmp_path / "model.tnn"), "--triggers", str(tmp_path / "trig")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestLedgerFlow:
    def test_append_verify_claim_and_tamper(self, workspace, capsys):
        ledger_path = workspace / "owner.ndjson"
        code, _, rec = run_cli(
            capsys,
            [
                "ledger", "append", "--ledger", str(ledger_path),
                "--owner", "Owner",
                "--trigger", str(workspace / "a.ppm"),
                "--fingerprint", str(workspace / "b.ppm"),
                "--note", "genesis claim",
            ],
        )
        assert code == 0
        assert rec["seq"] == 1

        code, _, rec = run_cli(
            capsys, ["ledger", "append", "--ledger", str(ledger_path),
                     "--owner", "Owner", "--p-hex", "00112233445566ff"]
        )
        assert code == 0 and rec["seq"] == 2

        code, _, rec = run_cli(capsys, ["ledger", "verify", "--ledger", str(ledger_path)])
        assert code == 0 and rec["ok"] is True

        code, _, rec = run_cli(
            capsys,
            ["ledger", "claim", "--ledger", str(ledger_path),
             "--trigger", str(workspace / "a.ppm"),
             "--fingerprint", str(workspace / "b.ppm")],
        )
        assert code == 0
        assert rec["owner_id"] == "Owner" and rec["seq"] == 1

        data = bytearray(ledger_path.read_bytes())
        data[data.find(b"genesis")] ^= 0x01
        ledger_path.write_bytes(bytes(data))
        code, _, rec = run_cli(capsys, ["ledger", "verify", "--ledger", str(ledger_path)])
        assert code == 1
        assert rec["first_bad_seq"] in (1, 2)

    def test_verify_reports_a_non_utf8_head(self, tmp_path, capsys):
        ledger_path = tmp_path / "owner.ndjson"
        for p_hex in ("00112233445566ff", "00112233445566fe"):
            run_cli(capsys, ["ledger", "append", "--ledger", str(ledger_path),
                             "--owner", "Owner", "--p-hex", p_hex])
        (tmp_path / "owner.ndjson.head").write_bytes(b"\xff" * 65)
        code, lines, rec = run_cli(capsys, ["ledger", "verify", "--ledger", str(ledger_path)])
        assert code == 1
        assert "chain broken at record 2" in lines
        assert rec["ok"] is False and rec["first_bad_seq"] == 2


class TestAcptFlow:
    def test_credential_enroll_detector_trace(self, workspace, capsys):
        code, _, rec = run_cli(
            capsys,
            ["acpt", "credential", "--username", "user1", "--owner-fp", "HN",
             "--k1", "0,1,2,3,4,5,6,7"],
        )
        assert code == 0
        assert rec["encrypted_username"] == hashlib.sha256(b"HN_user1").hexdigest()[:8]

        base_path = workspace / "identity.ndjson"
        code, _, rec = run_cli(
            capsys,
            ["acpt", "enroll", "--base", str(base_path),
             "--username", "user1", "--owner-fp", "HN", "--k1", "0,1,2,3,4,5,6,7",
             "--key-image", str(workspace / "a.ppm"), "--user-id", "Alice"],
        )
        assert code == 0 and rec["entries"] == 1

        key_dir = workspace / "keys"
        other_dir = workspace / "others"
        key_dir.mkdir(exist_ok=True)
        other_dir.mkdir(exist_ok=True)
        for i, img in enumerate(synthdata.key_image_class("rings", 10, seed=5)):
            (key_dir / f"{i}.ppm").write_bytes(media.write_ppm(img))
        for i, img in enumerate(synthdata.key_image_class("other", 10, seed=6)):
            (other_dir / f"{i}.ppm").write_bytes(media.write_ppm(img))
        code, _, rec = run_cli(
            capsys,
            ["acpt", "detector-train", "--key-dir", str(key_dir),
             "--other-dir", str(other_dir), "--epochs", "8",
             "--out", str(workspace / "det.tnn")],
        )
        assert code == 0
        detector = tinynn.load_model(workspace / "det.tnn")
        assert detector.num_classes == 2


    def test_enroll_records_its_k1_seed(self, workspace, capsys, tmp_path):
        flags = ["--username", "user1", "--owner-fp", "HN", "--seed", "7"]
        _, _, derived = run_cli(capsys, ["acpt", "credential", *flags])
        code, _, enrolled = run_cli(
            capsys,
            ["acpt", "enroll", "--base", str(tmp_path / "identity.ndjson"), *flags,
             "--key-image", str(workspace / "a.ppm"), "--user-id", "Alice"],
        )
        assert code == 0
        assert enrolled["seeds"] == derived["seeds"] == {"k1": 7}
        assert enrolled["encrypted_username"] == derived["encrypted_username"]

    def test_non_ascii_probe_credential_is_an_error(self, workspace, capsys, tmp_path):
        model = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0)
        detector = tinynn.init_model((1, 28, 28), acpt.detector_layers(), 2, seed=0)
        tinynn.save_model(model, tmp_path / "model.tnn")
        tinynn.save_model(detector, tmp_path / "det.tnn")
        (tmp_path / "identity.ndjson").write_text("")
        code = cli.main(
            ["acpt", "trace", "--model", str(tmp_path / "model.tnn"),
             "--base", str(tmp_path / "identity.ndjson"),
             "--detector", f"Alice={tmp_path / 'det.tnn'}",
             "--probe", f"Alice:{'é' * 8}:{workspace / 'a.ppm'}",
             "--probe", f"Bob:00000000:{workspace / 'b.ppm'}",
             "--test-images", str(workspace / "test-img.idx"),
             "--test-labels", str(workspace / "test-lbl.idx")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _leaf_commands(parser: argparse.ArgumentParser, prefix: tuple = ()):
    """Every runnable subcommand path, e.g. ("ledger", "append")."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, prefix + (name,))
            return
    yield prefix


class TestRecords:
    def test_every_subcommand_record_carries_the_workspace(
        self, workspace, capsys, tmp_path, monkeypatch
    ):
        def interrupted(service):
            raise KeyboardInterrupt

        monkeypatch.setattr(gateway.GatewayService, "wait", interrupted)
        for kind, folder in (("rings", "keys"), ("other", "others")):
            (tmp_path / folder).mkdir()
            for i, img in enumerate(synthdata.key_image_class(kind, 4, seed=5)):
                (tmp_path / folder / f"{i}.ppm").write_bytes(media.write_ppm(img))
        ws, out = str(workspace), str(tmp_path)
        train = ["--train-images", f"{ws}/train-img.idx", "--train-labels", f"{ws}/train-lbl.idx"]
        test = ["--test-images", f"{ws}/test-img.idx", "--test-labels", f"{ws}/test-lbl.idx"]
        pair = [f"{ws}/a.ppm", f"{ws}/b.ppm"]
        trig = ["--triggers", f"{out}/trig"]
        steps = [
            (("phash",), pair),
            (("frames", "select"), ["--video", f"{ws}/alice.y4m", "--count", "4", "--d-min", "0",
                                    "--user", "Alice", "--label", "10", "--out", f"{out}/trig"]),
            (("train-base",), [*train, *test, "--epochs", "1", "--out", f"{out}/base.tnn"]),
            (("embed",), ["--model", f"{out}/base.tnn", *train, *trig, "--epochs", "1",
                          "--out", f"{out}/alice.tnn"]),
            (("trace",), ["--model", f"{out}/alice.tnn", *trig]),
            (("fidelity",), ["--base", f"{out}/base.tnn", "--watermarked", f"{out}/alice.tnn",
                             *test]),
            (("attack", "finetune"), ["--model", f"{out}/alice.tnn", *test, *trig,
                                      "--epochs", "1"]),
            (("attack", "prune"), ["--model", f"{out}/alice.tnn", *test, *trig, "--rate", "0.5"]),
            (("ledger", "append"), ["--ledger", f"{out}/l.ndjson", "--owner", "O",
                                    "--p-hex", "0011223344556677"]),
            (("ledger", "verify"), ["--ledger", f"{out}/l.ndjson"]),
            (("ledger", "claim"), ["--ledger", f"{out}/l.ndjson", "--trigger", pair[0],
                                   "--fingerprint", pair[1]]),
            (("acpt", "credential"), ["--username", "u", "--owner-fp", "HN"]),
            (("acpt", "enroll"), ["--base", f"{out}/id.ndjson", "--username", "u", "--owner-fp",
                                  "HN", "--key-image", pair[0], "--user-id", "Alice"]),
            (("acpt", "detector-train"), ["--key-dir", f"{out}/keys", "--other-dir",
                                          f"{out}/others", "--epochs", "1",
                                          "--out", f"{out}/det.tnn"]),
            (("acpt", "trace"), ["--model", f"{out}/base.tnn", "--base", f"{out}/id.ndjson",
                                 "--detector", f"Alice={out}/det.tnn",
                                 "--probe", f"Alice:00000000:{pair[0]}",
                                 "--probe", f"Bob:11111111:{pair[1]}", *test]),
            (("serve",), ["--bind", "127.0.0.1:0", "--model", f"{out}/base.tnn",
                          "--base", f"{out}/id.ndjson", "--detector", f"Alice={out}/det.tnn"]),
            (("metrics", "ssim"), pair),
            (("metrics", "mse"), pair),
        ]
        assert sorted(command for command, _ in steps) == sorted(_leaf_commands(cli.build_parser()))
        for command, args in steps:
            code, _, record = run_cli(capsys, [*command, *args])
            assert code in (cli.EXIT_OK, cli.EXIT_DOMAIN), command
            assert {"event", "paths", "seeds", "thresholds"} <= record.keys(), command
            assert record["paths"] or command in {("acpt", "credential")}, command


def _cli_process(args, stderr_path, *python_flags):
    """`python -m modelmark.cli ARGS` with stdout on a pipe and Python's
    default buffering (PYTHONUNBUFFERED unset)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(modelmark.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(stderr_path, "wb") as stderr:
        return subprocess.Popen(
            [sys.executable, *python_flags, "-m", "modelmark.cli", *args],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )


def _read_line(proc, timeout):
    """First stdout line of a running process, or None if none arrives in time."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    buf = b""
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 4096)
        if not chunk:
            return None
        buf += chunk
    return buf.split(b"\n", 1)[0].decode()


@pytest.fixture(scope="module")
def serve_args(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    model = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0)
    detector = tinynn.init_model((1, 28, 28), acpt.detector_layers(), 2, seed=0)
    tinynn.save_model(model, root / "model.tnn")
    tinynn.save_model(detector, root / "det.tnn")
    (root / "identity.ndjson").write_text("")
    return [
        "serve", "--bind", "127.0.0.1:0", "--model", str(root / "model.tnn"),
        "--base", str(root / "identity.ndjson"), "--detector", f"Alice={root / 'det.tnn'}",
    ]


class TestProcess:
    def test_module_entry_point_raises_no_runtime_warning(self, tmp_path):
        with _cli_process(["--help"], tmp_path / "stderr", "-W", "error::RuntimeWarning") as proc:
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, (tmp_path / "stderr").read_text()
        assert b"usage" in out

    def test_serve_port_reaches_a_pipe(self, serve_args, tmp_path):
        with _cli_process(serve_args, tmp_path / "stderr") as proc:
            try:
                line = _read_line(proc, timeout=30)
                assert line is not None, (tmp_path / "stderr").read_text()
                host, _, port = line.removeprefix("listening on ").rpartition(":")
                assert host == "127.0.0.1" and int(port) > 0
            finally:
                proc.kill()

    def test_serve_exits_cleanly_on_sigint(self, serve_args, tmp_path):
        """Aimed at a non-main thread, the signal is handled there; the main
        thread must still see KeyboardInterrupt and shut the service down."""
        with _cli_process(serve_args, tmp_path / "stderr") as proc:
            try:
                assert _read_line(proc, timeout=30) is not None, (tmp_path / "stderr").read_text()
                tasks = Path(f"/proc/{proc.pid}/task")
                others = [int(t.name) for t in tasks.iterdir() if int(t.name) != proc.pid] if tasks.exists() else []
                os.kill(others[0] if others else proc.pid, signal.SIGINT)
                assert proc.wait(timeout=5) == 0
            finally:
                proc.kill()
