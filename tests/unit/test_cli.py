import pytest

from repro.cli import build_parser, main


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "wiki-Vote" in out and "soc-LiveJournal1" in out


def test_seeds_command_on_dataset(capsys):
    rc = main([
        "seeds", "--dataset", "WV", "--k", "3", "--epsilon", "0.4",
        "--theta-scale", "0.05", "--validate", "50",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seeds:" in out and "Monte-Carlo spread" in out


def test_seeds_command_on_edge_list(tmp_path, capsys):
    path = tmp_path / "g.txt"
    lines = [f"{u} {v}" for u in range(20) for v in range(20) if u != v and (u + v) % 3 == 0]
    path.write_text("\n".join(lines))
    rc = main([
        "seeds", "--edge-list", str(path), "--k", "2", "--epsilon", "0.4",
        "--theta-scale", "0.05",
    ])
    assert rc == 0
    assert "seeds:" in capsys.readouterr().out


def test_seeds_lt_model(capsys):
    rc = main([
        "seeds", "--dataset", "WV", "--k", "3", "--epsilon", "0.4",
        "--model", "LT", "--theta-scale", "0.05", "--no-source-elimination",
    ])
    assert rc == 0


def test_compare_command(capsys):
    rc = main([
        "compare", "--dataset", "WV", "--k", "10", "--epsilon", "0.3",
        "--theta-scale", "0.1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eim" in out and "gim" in out and "curipples" in out
    assert "speedup" in out


def test_experiment_command(capsys):
    rc = main(["experiment", "table1", "--datasets", "WV,EE"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 1" in out


def test_seeds_profile_flag(tmp_path, capsys):
    json_path = tmp_path / "profile.json"
    rc = main([
        "seeds", "--dataset", "WV", "--k", "3", "--epsilon", "0.4",
        "--theta-scale", "0.05", "--profile", "--profile-json", str(json_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== spans ==" in out and "imm.run" in out
    assert "imm.estimation.phase_1" in out
    assert "== counters ==" in out and "rrr.sets_sampled" in out
    import json

    doc = json.loads(json_path.read_text())
    assert any(s["name"] == "imm.run" for s in doc["spans"])
    assert doc["counters"]["selection.iterations"] >= 3


def test_seeds_without_profile_prints_no_profile(capsys):
    rc = main([
        "seeds", "--dataset", "WV", "--k", "3", "--epsilon", "0.4",
        "--theta-scale", "0.05",
    ])
    assert rc == 0
    assert "== spans ==" not in capsys.readouterr().out


def test_compare_profile_flag(capsys):
    rc = main([
        "compare", "--dataset", "WV", "--k", "5", "--epsilon", "0.3",
        "--theta-scale", "0.1", "--profile",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== spans ==" in out
    assert "engine.eim.cycles.total" in out


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "table99"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["seeds"])  # needs a source


def test_jobs_flag_parsed_on_both_subcommands():
    parser = build_parser()
    seeds = parser.parse_args(["seeds", "--dataset", "WV", "--jobs", "2"])
    assert seeds.jobs == 2
    compare = parser.parse_args(
        ["compare", "--dataset", "WV", "--jobs", "3", "--warm-start"]
    )
    assert compare.jobs == 3 and compare.warm_start
    # shared workload defaults stay per-subcommand despite the common parent
    assert (seeds.k, seeds.epsilon) == (10, 0.2)
    assert (compare.k, compare.epsilon) == (50, 0.1)


def test_seeds_command_with_jobs(capsys):
    rc = main([
        "seeds", "--dataset", "WV", "--k", "3", "--epsilon", "0.4",
        "--theta-scale", "0.05", "--jobs", "2",
    ])
    assert rc == 0
    assert "seeds:" in capsys.readouterr().out


def test_compare_command_warm_start(capsys):
    rc = main([
        "compare", "--dataset", "WV", "--k", "5", "--epsilon", "0.3",
        "--theta-scale", "0.1", "--warm-start",
    ])
    assert rc == 0
    assert "speedup" in capsys.readouterr().out


def test_serve_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "--stdin"])
    assert args.stdin is True
    assert args.max_inflight == 2 and args.max_queue_depth == 64
    assert args.port == 7473 and args.chunk_sets == 1024


def test_serve_stdin_batch(monkeypatch, capsys):
    import io
    import json
    import sys as _sys

    request = json.dumps({"dataset": "WV", "scale": "tiny",
                          "k": 3, "epsilon": 0.4, "theta_scale": 0.05})
    monkeypatch.setattr(_sys, "stdin", io.StringIO(request + "\n" + request + "\n"))
    assert main(["serve", "--stdin", "--chunk-sets", "256"]) == 0
    captured = capsys.readouterr()
    responses = [json.loads(l) for l in captured.out.splitlines()]
    assert [r["cache"] for r in responses] == ["cold", "exact"]
    assert responses[0]["seeds"] == responses[1]["seeds"]
    assert "served 2 requests" in captured.err
