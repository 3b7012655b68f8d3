import glob
import io
import json
import os
import re

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


def test_train_without_model_dir_fails(data_dir, tmp_path, capsys):
    rc = main(["train", "--input", str(data_dir / "quiet" / "events.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "train needs --model-dir for the model artifacts\n"


def test_train_unwritable_model_dir_fails_cleanly(data_dir, tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    rc = main(["train", "--input", str(data_dir / "quiet" / "events.jsonl"),
               "--model-dir", str(tmp_path / "afile" / "models")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("train failed: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_train_epochs_zero_trains_none_and_negative_fails(data_dir, tmp_path, capsys):
    quiet = str(data_dir / "quiet" / "events.jsonl")
    assert main(["train", "--input", quiet, "--model-dir", str(tmp_path / "m"),
                 "--epochs", "0"]) == 0
    with open(tmp_path / "m" / "vae.json", encoding="utf-8") as fh:
        assert json.load(fh)["epoch_losses"] == []
    capsys.readouterr()
    assert main(["train", "--input", quiet, "--model-dir", str(tmp_path / "n"),
                 "--epochs", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "train failed: epochs must be 0 or more, got -1\n"
    assert not os.path.exists(tmp_path / "n")


@pytest.mark.parametrize("command", ["run", "bench", "gen", "train"])
def test_window_shorter_than_a_millisecond_is_refused(tmp_path, command):
    """A window that rounds to 0 ms, from a flag or a config file, stops
    every subcommand with one line naming the value."""
    base = {"run": ["run", "--input", "x", "--out", str(tmp_path / "o")],
            "bench": ["bench", "--input", "x"],
            "gen": ["gen", "--scenario", "benign-only", "--seed", "1",
                    "--out-dir", str(tmp_path / "g")],
            "train": ["train", "--input", "x"]}[command]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"window_seconds": 1e-9}))
    for extra, value in [(["--window-seconds", "0"], "0.0"),
                         (["--window-seconds", "-1"], "-1.0"),
                         (["--window-seconds", "nan"], "nan"),
                         (["--config", str(cfg_path)], "1e-09")]:
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg and msg.endswith(value)
    assert not os.path.exists(tmp_path / "o") and not os.path.exists(tmp_path / "g")


@pytest.mark.parametrize("key,value", [
    ("theta", 0), ("theta", -2), ("cache_capacity", -1), ("grubbs_alpha", 1.5),
    ("grubbs_alpha", 0.0), ("grubbs_alpha", 1.0), ("grubbs_alpha", float("nan")),
    ("epsilon", float("nan")), ("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", 1.5),
    ("alpha", float("nan")), ("alpha", 0.0), ("alpha", 1.01),
    ("beta", -100.0), ("beta", float("inf")), ("beta", float("nan")),
    ("gamma", float("inf")), ("gamma", -0.5), ("gamma", float("nan"))])
def test_out_of_range_pipeline_values_are_refused(tmp_path, key, value):
    """theta below 1, a negative cache capacity, a Grubbs alpha outside
    (0, 1), an epsilon or alpha outside (0, 1], and a beta or gamma that is
    negative or not finite, from a flag or a config file, stop run with
    one line naming the value."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    base = ["run", "--input", "x", "--out", str(tmp_path / "o")]
    for extra in (["--" + key.replace("_", "-"), repr(value)], ["--config", str(cfg_path)]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert msg.startswith(key + " must ") and msg.endswith(repr(value))
    assert not os.path.exists(tmp_path / "o")


def test_train_reads_model_dir_from_config(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model_dir": str(tmp_path / "m")}))
    rc = main(["train", "--input", str(data_dir / "quiet" / "events.jsonl"),
               "--config", str(cfg_path)])
    assert rc == 0
    assert read_stdout_json(capsys)["model_dir"] == str(tmp_path / "m")
    assert len(os.listdir(tmp_path / "m")) == 5


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


def test_run_summary_reports_cpu_time(data_dir, model_dir, tmp_path, capsys):
    rc = main(["run", "--input", str(data_dir / "quiet" / "events.jsonl"),
               "--model-dir", str(model_dir), "--out", str(tmp_path / "out"),
               "--store-dir", str(tmp_path / "store")])
    assert rc == 0
    doc = read_stdout_json(capsys)
    # the input is read in this one process, so its CPU time is all of it
    assert doc["cpu_s"] >= 0 and "decoder_cpu_s" not in doc


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


def test_run_summary_accounts_for_every_input_line(data_dir, model_dir, tmp_path, capsys):
    """Blank, whitespace-only, CRLF, lone-CR and unterminated lines: every
    line is an event, a rejected op, a late drop or a blank line."""
    with open(data_dir / "quiet" / "events.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[:1200]  # three windows
    rejected = json.dumps(dict(json.loads(lines[5]), op="unlink"))
    late = lines[0]  # its window was sealed long before the end
    body = [(line, b"\r\n" if i % 7 == 0 else b"\r" if i % 11 == 0 else b"\n")
            for i, line in enumerate(lines[:-1])]
    blanks = [("", b"\n"), ("   ", b"\r\n"), ("\t \t", b"\n"), ("", b"\r\n"), (" ", b"\r")]
    records = (blanks[:2] + body[:600] + blanks[2:] + [(rejected, b"\n")] + body[600:]
               + [(late, b"\r\n"), (lines[-1], b"")])
    stream = tmp_path / "events.jsonl"
    stream.write_bytes(b"".join(text.encode("utf-8") + end for text, end in records))
    rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")])
    assert rc == 0
    doc = read_stdout_json(capsys)
    assert (doc["blank_lines"], doc["rejected"], doc["dropped_late"]) == (5, 1, 1)
    assert doc["events"] + doc["rejected"] + doc["dropped_late"] + doc["blank_lines"] \
        == len(records)


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


def test_run_number_past_the_digit_limit_fails_cleanly(data_dir, model_dir, tmp_path, capsys):
    with open(data_dir / "quiet" / "events.jsonl", encoding="utf-8") as fh:
        line = json.loads(fh.readline())
    line["ts"] = "DIGITS"
    stream = tmp_path / "events.jsonl"
    stream.write_text(json.dumps(line).replace('"DIGITS"', "9" * 5001) + "\n")
    rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: line 1: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("field,value", [("cmdline", "x\ud800y"), ("ts", True)],
                         ids=["cmdline-surrogate", "ts-true"])
def test_run_lone_surrogate_or_boolean_fails_cleanly(data_dir, model_dir, tmp_path, capsys,
                                                     field, value):
    with open(data_dir / "quiet" / "events.jsonl", encoding="utf-8") as fh:
        line = json.loads(fh.readline())
    proc = line["src"] if line["src"]["kind"] == "process" else line["dst"]
    (line if field == "ts" else proc)[field] = value
    stream = tmp_path / "events.jsonl"
    stream.write_text(json.dumps(line) + "\n")
    rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: line 1: field %r " % field)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_run_deeply_nested_line_fails_cleanly(data_dir, model_dir, tmp_path, capsys):
    with open(data_dir / "quiet" / "events.jsonl", encoding="utf-8") as fh:
        good = fh.readline()
    depth = 200_000
    stream = tmp_path / "events.jsonl"
    stream.write_text(good + '{"ts": ' + "[" * depth + "]" * depth + "}\n")
    rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "run failed: line 2: invalid JSON: nested too deeply\n"


def test_two_runs_leave_the_same_store_bytes(data_dir, model_dir, tmp_path, capsys):
    stores = []
    for name in ("a", "b"):
        rc = main(["run", "--input", str(data_dir / "webshell" / "events.jsonl"),
                   "--model-dir", str(model_dir), "--out", str(tmp_path / name / "out"),
                   "--store-dir", str(tmp_path / name / "store"), "--cache-capacity", "0"])
        assert rc == 0
        stores.append(dir_manifest(tmp_path / name / "store" / "hopsets"))
    assert stores[0] and stores[0] == stores[1]
    for record in stores[0].values():  # compact ASCII JSON
        assert record == json.dumps(json.loads(record), separators=(",", ":")).encode("ascii")


def test_run_torn_store_record_fails_cleanly(data_dir, model_dir, tmp_path, capsys):
    store = tmp_path / "store"
    (store / "hopsets").mkdir(parents=True)
    (store / "hopsets" / "abc.json").write_text('{"terminals": ["de')  # torn write
    rc = main(["run", "--input", str(data_dir / "quiet" / "events.jsonl"),
               "--model-dir", str(model_dir), "--out", str(tmp_path / "out"),
               "--store-dir", str(store)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: corrupted store record ")
    assert err.count("\n") == 1 and "Traceback" not in err


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
    with open(data_dir / "quiet" / "events.jsonl", "rb") as fh:
        payload = fh.read()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8"))
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


def test_eval_missing_or_unparsable_alerts_fail_cleanly(data_dir, tmp_path, capsys):
    truth = str(data_dir / "webshell" / "truth.json")
    missing = tmp_path / "missing"
    assert main(["eval", "--alerts", str(missing), "--truth", truth]) == 2
    assert capsys.readouterr().err == "eval failed: no alert directory %s\n" % missing
    alerts = tmp_path / "alerts"
    alerts.mkdir()
    (alerts / "alert-000001-abc.json").write_text("{not json")
    assert main(["eval", "--alerts", str(alerts), "--truth", truth]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("eval failed: %s: " % (alerts / "alert-000001-abc.json"))
    # an alert that parses but is not an object with a members object or string list
    for doc in ("[]", '{"members": 3}', '{"score": 1}', '{"members": [[1]]}'):
        (alerts / "alert-000001-abc.json").write_text(doc)
        assert main(["eval", "--alerts", str(alerts), "--truth", truth]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("eval failed: %s: " % (alerts / "alert-000001-abc.json"))
    # a truth file that parses but is not an object with nodes and string-list campaigns
    (alerts / "alert-000001-abc.json").write_text('{"members": []}')
    bad_truth = tmp_path / "truth.json"
    for doc in ("[]", '{"nodes": {}}', '{"campaigns": []}', '{"nodes": [], "campaigns": []}',
                '{"nodes": {}, "campaigns": {}}', '{"nodes": {}, "campaigns": [3]}'):
        bad_truth.write_text(doc)
        assert main(["eval", "--alerts", str(alerts), "--truth", str(bad_truth)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("cannot read truth file: %s: " % bad_truth)


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
        assert doc["seconds"] > 0 and doc["cpu_seconds"] > 0
        eps[algo] = doc["eps"]
    assert eps["isg"] >= eps["kou"]


def test_bench_empty_input_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["bench", "--input", str(empty)])
    assert rc != 0


def test_bench_missing_model_dir_fails_cleanly(data_dir, tmp_path, capsys):
    rc = main(["bench", "--input", str(data_dir / "quiet" / "events.jsonl"),
               "--model-dir", str(tmp_path / "nowhere")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot load models from %s: " % (tmp_path / "nowhere"))
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unknown_flag_fails_fast(data_dir):
    with pytest.raises(SystemExit):
        main(["run", "--input", str(data_dir / "quiet" / "events.jsonl"),
              "--frobnicate", "1"])


def test_help_enumerates_flags(capsys):
    pipeline = {"--window-seconds", "--cache-capacity", "--epsilon", "--alpha",
                "--beta", "--gamma", "--theta", "--grubbs-alpha", "--model-dir",
                "--store-dir", "--stp", "--config"}
    # each subcommand registers only the pipeline flags it reads
    expect = {
        "run": pipeline,
        "bench": pipeline - {"--store-dir"},
        "train": {"--window-seconds", "--model-dir", "--config"},
        "gen": {"--window-seconds", "--config"},
    }
    for command, flags in expect.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", text)) & pipeline == flags, command


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
    with pytest.raises(SystemExit) as exc:
        resolve_config(args)
    assert str(cfg_path) in str(exc.value.code)


@pytest.mark.parametrize("key,value,ok", [
    ("theta", "abc", False),
    ("window_seconds", "x", False),
    ("theta", True, False),  # a bool is not an int
    ("theta", 4.5, False),
    ("cache-capacity", None, False),  # None only goes into an Optional field
    ("stp", 3, False),
    ("model_dir", ["m"], False),
    ("epsilon", 1, True),  # an int is fine for a float field
    ("store_dir", None, True),
    ("stp", "kou", True),
    ("stp", "bogus", False),  # a string, but no algorithm
    ("theta", 1, True),  # at the edge of each checked range
    ("cache_capacity", 0, True),
    ("grubbs_alpha", 0.999, True),
    ("alpha", 1.0, True),
    ("beta", 0, True),
    ("gamma", 0.0, True),
])
def test_config_file_values_must_fit_their_fields(tmp_path, key, value, ok):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    args = build_parser().parse_args(["run", "--input", "x", "--out", "o",
                                      "--config", str(cfg_path)])
    if ok:
        assert getattr(resolve_config(args), key.replace("-", "_")) == value
        return
    with pytest.raises(SystemExit) as exc:
        resolve_config(args)
    msg = exc.value.code
    assert isinstance(msg, str) and "\n" not in msg
    assert str(cfg_path) in msg and repr(key) in msg


@pytest.mark.parametrize("text", [None, "{bad", "[1, 2]"], ids=["missing", "bad-json", "list"])
def test_config_file_unreadable_fails_cleanly(tmp_path, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    args = build_parser().parse_args(["bench", "--input", "x", "--config", str(cfg_path)])
    with pytest.raises(SystemExit) as exc:
        resolve_config(args)
    msg = exc.value.code
    assert isinstance(msg, str) and str(cfg_path) in msg and "\n" not in msg


def test_defaults_without_any_flags():
    parser = build_parser()
    cfg = resolve_config(parser.parse_args(["bench", "--input", "x"]))
    assert cfg.window_seconds == 10.0
    assert cfg.cache_capacity == 10000
    assert cfg.epsilon == 0.8
    assert (cfg.alpha, cfg.beta, cfg.gamma, cfg.theta) == (0.9, 100.0, 1.0, 10)
    assert cfg.grubbs_alpha == 0.05
    assert cfg.stp == "isg"


def test_run_invalid_utf8_line_fails_cleanly_after_earlier_windows(data_dir, model_dir,
                                                                   tmp_path, capsys):
    with open(data_dir / "webshell" / "events.jsonl", "rb") as fh:
        payload = fh.read()
    n_lines = payload.count(b"\n")
    stream = tmp_path / "events.jsonl"
    stream.write_bytes(payload + b'{"host": "\xff"}\n')
    rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
               "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: line %d: not UTF-8: " % (n_lines + 1))
    assert err.count("\n") == 1 and "Traceback" not in err
    assert glob.glob(str(tmp_path / "out" / "alert-*.json"))  # sealed windows ran


def test_run_removes_its_temporary_store(data_dir, model_dir, tmp_path, capsys, monkeypatch):
    import tempfile

    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ts": 0}\n')
    for stream, code in ((data_dir / "quiet" / "events.jsonl", 0), (bad, 2)):
        rc = main(["run", "--input", str(stream), "--model-dir", str(model_dir),
                   "--out", str(tmp_path / "out")])
        assert rc == code
        assert glob.glob(str(tmp / "provstp-store-*")) == []


def _run_cli(args, **kwargs):
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, "-m", "provstp.cli"] + args, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_default_cli_paths_do_not_import_scipy(tmp_path):
    """Startup, --help, train, a run at the default alpha and at 0.01, and
    a Grubbs critical value at n = 5 000 load no scipy module."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "import provstp.cli as cli\n"
        "from provstp import detect\n"
        "from provstp.evalgen import GenConfig, write_scenario\n"
        "assert not scipy_modules(), ('import', scipy_modules())\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert not scipy_modules(), ('--help', scipy_modules())\n"
        "root = sys.argv[1]\n"
        "train, _ = write_scenario('benign-only', 7, root + '/train', GenConfig(duration=60.0))\n"
        "attack, _ = write_scenario('apt-webshell', 41, root + '/attack', GenConfig(duration=300.0))\n"
        "assert cli.main(['train', '--input', train, '--model-dir', root + '/m']) == 0\n"
        "assert not scipy_modules(), ('train', scipy_modules())\n"
        "tested = []\n"
        "real = detect.grubbs_outliers\n"
        "detect.grubbs_outliers = lambda v, a: tested.append(len(v)) or real(v, a)\n"
        "assert cli.main(['run', '--input', attack, '--model-dir', root + '/m',\n"
        "                 '--out', root + '/out']) == 0\n"
        "assert tested, 'the Grubbs test never ran'\n"
        "assert not scipy_modules(), ('run', scipy_modules())\n"
        "assert cli.main(['run', '--input', attack, '--model-dir', root + '/m',\n"
        "                 '--out', root + '/out-01', '--grubbs-alpha', '0.01']) == 0\n"
        "assert not scipy_modules(), ('run at 0.01', scipy_modules())\n"
        "assert 0.0 < detect.grubbs_critical(5000, 0.05) < 4999 / 5000 ** 0.5\n"
        "assert not scipy_modules(), ('grubbs_critical', scipy_modules())\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_src_imports_neither_scipy_nor_decimal_and_depends_only_on_numpy():
    import ast
    import tomllib

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    for path in sorted(glob.glob(os.path.join(root, "src", "provstp", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("scipy", "decimal"), (path, node.lineno)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=1.24"]


def test_run_reads_stdin_from_a_pipe(data_dir, model_dir, tmp_path):
    import subprocess

    with open(data_dir / "quiet" / "events.jsonl", "rb") as fh:
        payload = fh.read()
    proc = _run_cli(["run", "--input", "-", "--model-dir", str(model_dir),
                     "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")],
                    stdin=subprocess.PIPE)
    out, err = proc.communicate(payload, timeout=120)
    assert proc.returncode == 0, err
    assert json.loads(out.decode().splitlines()[-1])["events"] == 12000


def _live_in_group(pgid):
    """Pids in process group pgid that are not zombies."""
    live = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path, encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(path.split("/")[2]))
    return live


@pytest.mark.parametrize("signame,to_group", [("SIGTERM", False), ("SIGINT", False),
                                              ("SIGINT", True)],
                         ids=["term", "int", "int-group"])
def test_signal_to_run_leaves_no_process(data_dir, model_dir, tmp_path, signame, to_group):
    import signal
    import subprocess
    import time

    with open(data_dir / "quiet" / "events.jsonl", "rb") as fh:
        head = b"".join(fh.readlines()[:3000])
    proc = _run_cli(["run", "--input", "-", "--model-dir", str(model_dir),
                     "--out", str(tmp_path / "out"), "--store-dir", str(tmp_path / "store")],
                    stdin=subprocess.PIPE, start_new_session=True)
    try:
        proc.stdin.write(head)
        proc.stdin.flush()
        deadline = time.monotonic() + 60
        while not (tmp_path / "out").is_dir():  # the models are loaded
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
        time.sleep(1.0)  # run has read what there is and waits for more
        signum = getattr(signal, signame)
        if to_group:
            os.killpg(proc.pid, signum)
        else:
            os.kill(proc.pid, signum)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    deadline = time.monotonic() + 30
    while _live_in_group(proc.pid):
        assert time.monotonic() < deadline, _live_in_group(proc.pid)
        time.sleep(0.05)
    err = err.decode()
    assert "BrokenPipe" not in err and "_worker" not in err and "_decode_to" not in err
    if signame == "SIGTERM":
        assert err == ""
    else:
        assert err.count("Traceback") <= 1 and err.endswith("KeyboardInterrupt\n")
