import glob
import io
import json
import os

import pytest

from provstp.cli import build_parser, main, resolve_config
from provstp.evalgen import GenConfig, write_scenario
from streams import write_chain_stream

TRAIN_SEED = 7
ATTACK_SEED = 41


def read_stdout_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def dir_manifest(path):
    out = {}
    for name in sorted(os.listdir(path)):
        out[name] = file_bytes(os.path.join(path, name))
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    write_scenario("benign-only", TRAIN_SEED, str(root / "train"),
                   GenConfig(duration=600.0))
    write_scenario("apt-webshell", ATTACK_SEED, str(root / "webshell"),
                   GenConfig(duration=300.0))
    write_scenario("benign-only", 42, str(root / "quiet"),
                   GenConfig(duration=300.0))
    return root


@pytest.fixture(scope="module")
def model_dir(data_dir, tmp_path_factory):
    target = tmp_path_factory.mktemp("cli-models") / "m"
    rc = main(["train", "--input", str(data_dir / "train" / "events.jsonl"),
               "--model-dir", str(target)])
    assert rc == 0
    return target


def test_train_writes_all_artifacts(model_dir, capsys):
    names = sorted(os.listdir(model_dir))
    assert names == ["embedding.json", "idf.json", "stability.json",
                     "threshold.json", "vae.json"]


def test_train_reports_summary(data_dir, tmp_path, capsys):
    rc = main(["train", "--input", str(data_dir / "train" / "events.jsonl"),
               "--model-dir", str(tmp_path / "m1")])
    assert rc == 0
    doc = read_stdout_json(capsys)
    assert doc["windows"] == 60
    assert doc["observations"] > 0
    assert doc["tau"] > 0


def test_retrain_is_byte_identical(data_dir, model_dir, tmp_path):
    rc = main(["train", "--input", str(data_dir / "train" / "events.jsonl"),
               "--model-dir", str(tmp_path / "m2")])
    assert rc == 0
    assert dir_manifest(str(tmp_path / "m2")) == dir_manifest(str(model_dir))


def test_train_empty_input_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["train", "--input", str(empty), "--model-dir", str(tmp_path / "m")])
    assert rc != 0
    assert "train failed" in capsys.readouterr().err


def test_gen_is_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        rc = main(["gen", "--scenario", "apt-sql-hijack", "--seed", "3",
                   "--out-dir", str(tmp_path / sub), "--duration", "120",
                   "--attack-start", "2"])
        assert rc == 0
        doc = read_stdout_json(capsys)
        assert doc["count"] > 0
    assert file_bytes(str(tmp_path / "a" / "events.jsonl")) == \
        file_bytes(str(tmp_path / "b" / "events.jsonl"))
    assert file_bytes(str(tmp_path / "a" / "truth.json")) == \
        file_bytes(str(tmp_path / "b" / "truth.json"))


def test_gen_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--scenario", "nope", "--seed", "1",
              "--out-dir", str(tmp_path / "x")])


def test_run_benign_stays_quiet(data_dir, model_dir, tmp_path, capsys):
    rc = main(["run", "--input", str(data_dir / "quiet" / "events.jsonl"),
               "--model-dir", str(model_dir), "--out", str(tmp_path / "out"),
               "--store-dir", str(tmp_path / "store")])
    assert rc == 0
    doc = read_stdout_json(capsys)
    assert doc["alerts"] == 0
    assert doc["windows"] == 30
    assert doc["events"] == 12000
    assert doc["eps"] > 0
    assert doc["dropped_late"] == 0 and doc["illegal_pairs"] == 0
    assert glob.glob(str(tmp_path / "out" / "alert-*.json")) == []


def test_run_summary_reports_late_and_illegal_events(data_dir, model_dir, tmp_path, capsys):
    with open(data_dir / "quiet" / "events.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    late = dict(first)  # the first window was sealed long ago
    illegal = dict(last, op="fork", dst={"kind": "file", "path": "/tmp/x"})
    stream = tmp_path / "events.jsonl"
    stream.write_text("\n".join(lines + [json.dumps(illegal), json.dumps(late)]) + "\n")
    rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")])
    assert rc == 0
    doc = read_stdout_json(capsys)
    assert doc["events"] == 12001
    assert doc["dropped_late"] == 1
    assert doc["illegal_pairs"] == 1


def test_run_malformed_value_fails_cleanly(data_dir, model_dir, tmp_path, capsys):
    with open(data_dir / "quiet" / "events.jsonl", encoding="utf-8") as fh:
        good = fh.readline()
    bad = json.loads(good)
    proc = bad["src"] if bad["src"]["kind"] == "process" else bad["dst"]
    proc["cmdline"] = 5
    stream = tmp_path / "events.jsonl"
    stream.write_text(good + json.dumps(bad) + "\n")
    rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "run failed: line 2" in err
    assert "Traceback" not in err


def test_run_webshell_alerts_on_campaign(data_dir, model_dir, tmp_path, capsys):
    rc = main(["run", "--input", str(data_dir / "webshell" / "events.jsonl"),
               "--model-dir", str(model_dir), "--out", str(tmp_path / "out"),
               "--store-dir", str(tmp_path / "store")])
    assert rc == 0
    doc = read_stdout_json(capsys)
    assert doc["alerts"] >= 1
    with open(data_dir / "webshell" / "truth.json", encoding="utf-8") as fh:
        campaign = set(json.load(fh)["campaigns"][0])
    hit = set()
    for path in glob.glob(str(tmp_path / "out" / "alert-*.json")):
        with open(path, encoding="utf-8") as fh:
            hit.update(json.load(fh)["members"].keys())
    assert hit & campaign


def test_run_twice_byte_identical_alerts(data_dir, model_dir, tmp_path, capsys):
    manifests = []
    for sub in ("r1", "r2"):
        rc = main(["run", "--input", str(data_dir / "webshell" / "events.jsonl"),
                   "--model-dir", str(model_dir),
                   "--out", str(tmp_path / sub / "out"),
                   "--store-dir", str(tmp_path / sub / "store")])
        assert rc == 0
        manifests.append(dir_manifest(str(tmp_path / sub / "out")))
    assert manifests[0] == manifests[1]
    assert any(n.endswith(".json") for n in manifests[0])


def test_run_reads_stdin(data_dir, model_dir, tmp_path, capsys, monkeypatch):
    with open(data_dir / "quiet" / "events.jsonl", encoding="utf-8") as fh:
        payload = fh.read()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    rc = main(["run", "--input", "-", "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"),
               "--store-dir", str(tmp_path / "store")])
    assert rc == 0
    assert read_stdout_json(capsys)["events"] == 12000


def test_run_without_model_dir_fails(data_dir, tmp_path, capsys):
    rc = main(["run", "--input", str(data_dir / "quiet" / "events.jsonl"),
               "--out", str(tmp_path / "out")])
    assert rc != 0
    assert "model-dir" in capsys.readouterr().err


def test_eval_reports_four_metrics(data_dir, model_dir, tmp_path, capsys):
    rc = main(["run", "--input", str(data_dir / "webshell" / "events.jsonl"),
               "--model-dir", str(model_dir), "--out", str(tmp_path / "out"),
               "--store-dir", str(tmp_path / "store")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", "--alerts", str(tmp_path / "out"),
               "--truth", str(data_dir / "webshell" / "truth.json")])
    assert rc == 0
    doc = read_stdout_json(capsys)
    for key in ("graph_precision", "graph_recall", "node_precision", "node_recall"):
        assert 0.0 <= doc[key] <= 1.0
    assert doc["graph_recall"] == 1.0


def test_bench_fields_and_stp_ordering(tmp_path, capsys):
    stream = tmp_path / "wide.jsonl"
    n = write_chain_stream(str(stream), windows=4, procs=1000, private_files=1)
    assert n >= 10_000
    eps = {}
    for algo in ("isg", "kou"):
        rc = main(["bench", "--input", str(stream), "--stp", algo,
                   "--cache-capacity", "1000000"])
        assert rc == 0
        doc = read_stdout_json(capsys)
        assert doc["algorithm"] == algo
        assert doc["events"] == n
        assert doc["seconds"] > 0
        eps[algo] = doc["eps"]
    assert eps["isg"] >= eps["kou"]


def test_bench_empty_input_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["bench", "--input", str(empty)])
    assert rc != 0


def test_unknown_flag_fails_fast(data_dir):
    with pytest.raises(SystemExit):
        main(["run", "--input", str(data_dir / "quiet" / "events.jsonl"),
              "--frobnicate", "1"])


def test_help_enumerates_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--window-seconds", "--cache-capacity", "--epsilon", "--alpha",
                 "--beta", "--gamma", "--theta", "--grubbs-alpha", "--model-dir",
                 "--store-dir", "--stp", "--threads", "--config"):
        assert flag in text


def test_config_file_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta": 4, "epsilon": 0.5}))
    parser = build_parser()
    args = parser.parse_args(["bench", "--input", "x", "--config", str(cfg_path)])
    cfg = resolve_config(args)
    assert cfg.theta == 4
    assert cfg.epsilon == 0.5
    args = parser.parse_args(["bench", "--input", "x", "--config", str(cfg_path),
                              "--theta", "6"])
    cfg = resolve_config(args)
    assert cfg.theta == 6
    assert cfg.epsilon == 0.5
    assert cfg.cache_capacity == 10000


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cachecapacity": 5}))
    parser = build_parser()
    args = parser.parse_args(["bench", "--input", "x", "--config", str(cfg_path)])
    with pytest.raises(SystemExit):
        resolve_config(args)


def test_defaults_without_any_flags():
    parser = build_parser()
    cfg = resolve_config(parser.parse_args(["bench", "--input", "x"]))
    assert cfg.window_seconds == 10.0
    assert cfg.cache_capacity == 10000
    assert cfg.epsilon == 0.8
    assert (cfg.alpha, cfg.beta, cfg.gamma, cfg.theta) == (0.9, 100.0, 1.0, 10)
    assert cfg.grubbs_alpha == 0.05
    assert cfg.stp == "isg"
    assert cfg.threads >= 1
