"""Tests for scenario generation and alert scoring."""

import json

import pytest

from provstp.cli import main
from provstp.evalgen import (GenConfig, SCENARIOS, entity_id, evaluate,
                             generate_scenario, graph_metrics, node_metrics,
                             write_scenario)
from provstp.ingest import parse_event


def event_node_ids(events):
    ids = set()
    for e in events:
        ids.add(entity_id(e["src"], e["host"]))
        ids.add(entity_id(e["dst"], e["host"]))
    return ids


def test_unknown_scenario_raises():
    with pytest.raises(ValueError):
        generate_scenario("apt-unknown", 1)


def test_too_short_duration_raises():
    with pytest.raises(ValueError):
        generate_scenario("benign-only", 1, GenConfig(duration=5.0))
    with pytest.raises(ValueError):
        generate_scenario("apt-webshell", 1, GenConfig(duration=60.0))


def test_settings_that_cut_the_campaign_short_raise(tmp_path, capsys):
    """Settings that would plant only part of the chain, or no events at
    all, and a rate or duration that is not finite and above 0, are
    refused, and gen exits 2 and writes nothing."""
    for name, kw, flag, match in [
            ("apt-webshell", dict(stage_step=0), "--stage-step", "attack_start"),
            ("apt-webshell", dict(attack_start=-3), "--attack-start", "attack_start"),
            ("apt-long-gap", dict(gap=0), "--gap", "attack_start"),
            # 10 events a window leave no room for a stage beside the benign ones
            ("apt-webshell", dict(rate=1.0), "--rate", "the rate allows 10$"),
            ("apt-webshell", dict(hosts=0), "--hosts", "hosts must be 1 or more"),
            ("benign-only", dict(hosts=0), "--hosts", "hosts must be 1 or more"),
            ("benign-only", dict(rate=0.0), "--rate", "^rate must be finite and above 0, got 0.0$"),
            ("benign-only", dict(rate=-1.0), "--rate", "got -1.0$"),
            ("benign-only", dict(rate=float("inf")), "--rate", "^rate must .* got inf$"),
            ("benign-only", dict(rate=float("nan")), "--rate", "^rate must .* got nan$"),
            ("benign-only", dict(duration=0.0), "--duration", "^duration must .* got 0.0$"),
            ("benign-only", dict(duration=float("inf")), "--duration", "^duration must .* inf$"),
            ("benign-only", dict(duration=float("nan")), "--duration", "^duration must .* nan$")]:
        with pytest.raises(ValueError, match=match):
            generate_scenario(name, 1, GenConfig(**{"duration": 300.0, **kw}))
        value = str(next(iter(kw.values())))
        out = tmp_path / flag / value
        rc = main(["gen", "--scenario", name, "--seed", "1", "--duration", "300",
                   "--out-dir", str(out), flag, value])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("gen failed: ") and err.count("\n") == 1
        assert not out.exists()
    generate_scenario("apt-webshell", 1, GenConfig(duration=300.0, attack_start=0,
                                                   stage_step=1))


def test_benign_only_event_count_and_labels():
    events, truth = generate_scenario("benign-only", 42)
    assert len(events) == 2400
    assert truth["campaigns"] == []
    assert truth["nodes"]
    assert not any(truth["nodes"].values())


def test_generation_is_deterministic():
    a_events, a_truth = generate_scenario("apt-webshell", 7, GenConfig(duration=300.0))
    b_events, b_truth = generate_scenario("apt-webshell", 7, GenConfig(duration=300.0))
    assert json.dumps(a_events, sort_keys=True) == json.dumps(b_events, sort_keys=True)
    assert a_truth == b_truth


def test_written_files_byte_identical(tmp_path):
    pa = write_scenario("apt-sql-hijack", 3, str(tmp_path / "a"), GenConfig(duration=300.0))
    pb = write_scenario("apt-sql-hijack", 3, str(tmp_path / "b"), GenConfig(duration=300.0))
    for x, y in zip(pa, pb):
        with open(x, "rb") as fx, open(y, "rb") as fy:
            assert fx.read() == fy.read()


def test_different_seeds_differ():
    a, _ = generate_scenario("benign-only", 1)
    b, _ = generate_scenario("benign-only", 2)
    assert json.dumps(a) != json.dumps(b)


def test_events_parse_and_sort():
    events, _ = generate_scenario("benign-only", 11)
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)
    for i, e in enumerate(events[:200]):
        parsed = parse_event(json.dumps(e), i + 1)
        assert parsed is not None


def test_label_consistency_every_labeled_node_is_generated():
    for name in SCENARIOS[1:]:
        cfg = GenConfig(duration=800.0, attack_start=5) if name == "apt-long-gap" \
            else GenConfig(duration=300.0)
        events, truth = generate_scenario(name, 42, cfg)
        generated = event_node_ids(events)
        assert set(truth["nodes"]) == generated
        assert len(truth["campaigns"]) == 1
        camp = set(truth["campaigns"][0])
        assert camp == {n for n, flag in truth["nodes"].items() if flag}
        assert camp <= generated
        assert len(camp) >= 8


def test_attack_restricted_to_first_host():
    cfg = GenConfig(duration=300.0, hosts=2)
    events, truth = generate_scenario("apt-webshell", 9, cfg)
    assert {e["host"] for e in events} == {"host0", "host1"}
    attack = {n for n, flag in truth["nodes"].items() if flag}
    for e in events:
        for ent in (e["src"], e["dst"]):
            if entity_id(ent, e["host"]) in attack:
                assert e["host"] == "host0"


def test_long_gap_has_two_distant_stages_sharing_backdoor():
    cfg = GenConfig(duration=800.0, attack_start=5, gap=55)
    events, truth = generate_scenario("apt-long-gap", 42, cfg)
    attack = {n for n, flag in truth["nodes"].items() if flag}
    windows = sorted({e["ts"] // 10000 for e in events
                      if entity_id(e["src"], e["host"]) in attack
                      or entity_id(e["dst"], e["host"]) in attack})
    assert windows == [5, 60]
    assert windows[1] - windows[0] >= 50
    early = {entity_id(x, e["host"]) for e in events if e["ts"] // 10000 == 5
             for x in (e["src"], e["dst"]) if entity_id(x, e["host"]) in attack}
    late = {entity_id(x, e["host"]) for e in events if e["ts"] // 10000 == 60
            for x in (e["src"], e["dst"]) if entity_id(x, e["host"]) in attack}
    shared = early & late
    procs = {entity_id(e["src"], e["host"]) for e in events
             if e["src"]["kind"] == "process"}
    assert shared & procs


TRUTH = {
    "nodes": {"a": True, "b": True, "c": True, "x": False, "y": False},
    "campaigns": [["a", "b", "c"]],
}


def alert(members):
    return {"members": list(members)}


def test_graph_metrics_single_covering_alert():
    assert graph_metrics([alert(["a", "x"])], TRUTH) == (1.0, 1.0)


def test_graph_metrics_no_alerts():
    assert graph_metrics([], TRUTH) == (1.0, 0.0)
    out = evaluate([], TRUTH)
    assert out["no_alerts"] is True
    assert out["graph_precision"] == 1.0
    assert out["graph_recall"] == 0.0


def test_graph_metrics_half_precision():
    alerts = [alert(["a", "b"]), alert(["x", "y"])]
    assert graph_metrics(alerts, TRUTH) == (0.5, 1.0)


def test_node_metrics_exact_match():
    assert node_metrics([alert(["a", "b", "c"])], TRUTH) == (1.0, 1.0)


def test_node_metrics_one_extra_benign():
    truth = {
        "nodes": {("n%d" % i): True for i in range(9)},
        "campaigns": [["n%d" % i for i in range(9)]],
    }
    truth["nodes"]["benign"] = False
    members = ["n%d" % i for i in range(9)] + ["benign"]
    precision, recall = node_metrics([alert(members)], truth)
    assert precision == pytest.approx(0.9)
    assert recall == 1.0


def test_node_metrics_no_alerts_recall_zero():
    precision, recall = node_metrics([], TRUTH)
    assert precision == 1.0
    assert recall == 0.0


def test_metrics_permutation_invariant():
    alerts = [alert(["a"]), alert(["x"]), alert(["b", "y"])]
    fwd = evaluate(alerts, TRUTH)
    rev = evaluate(list(reversed(alerts)), TRUTH)
    assert fwd == rev


def test_benign_truth_conventions():
    _, truth = generate_scenario("benign-only", 4)
    out = evaluate([], truth)
    assert out["graph_recall"] == 1.0
    assert out["node_recall"] == 1.0
    assert out["no_alerts"] is True
