import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import debilandia
from corpus import ACCEPT_A, PING_PONG, save_atlas, spec_with
from grammar_oracle import build_candidate, instance_obj
from debilandia.cli import _build_parser, main
from debilandia.embedding import compile_direct, compile_universal
from debilandia.instances import Instance
from debilandia.tiles import atlas_default


def write_instance(path: Path, values, gens, marker) -> None:
    inst = Instance(tuple(values))
    path.write_text(json.dumps(instance_obj(inst, build_candidate(inst, gens, marker))))


def write_points(path: Path, points) -> None:
    path.write_text(json.dumps({"points": [list(p) for p in sorted(points)]}))


def test_verify_accepts_fixture(tmp_path, capsys):
    inst_file = tmp_path / "accept.json"
    write_instance(inst_file, ACCEPT_A, 1, 25)
    report_file = tmp_path / "report.json"
    trace_file = tmp_path / "trace.jsonl"
    rc = main(
        [
            "verify",
            "--instance",
            str(inst_file),
            "--report",
            str(report_file),
            "--trace",
            str(trace_file),
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "accept"
    report = json.loads(report_file.read_text())
    assert report["total_counted"] <= report["bound"]
    for line in trace_file.read_text().splitlines():
        assert "outcome" in json.loads(line)


def test_verify_rejects_bad_first_element(tmp_path, capsys):
    inst_file = tmp_path / "bad_first.json"
    obj = {"A": [1, 3], "L": [3, 1, 1, 5, 25]}
    inst_file.write_text(json.dumps(obj))
    rc = main(["verify", "--instance", str(inst_file)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["reason"] == "condition_1"
    assert out["step"] == 1


def test_verify_malformed_file_exits_two(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["verify", "--instance", str(broken)]) == 2
    missing_keys = tmp_path / "nokeys.json"
    missing_keys.write_text("{}")
    assert main(["verify", "--instance", str(missing_keys)]) == 2


def test_verify_reports_are_byte_identical(tmp_path):
    inst_file = tmp_path / "inst.json"
    write_instance(inst_file, ACCEPT_A, 1, 25)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--instance", str(inst_file), "--report", str(r1)]) == 0
    assert main(["verify", "--instance", str(inst_file), "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_simulate_writes_parseable_trace(tmp_path, capsys):
    atlas = atlas_default()
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas))
    trace_file = tmp_path / "trace.jsonl"
    rc = main(
        [
            "simulate",
            "--points",
            str(points_file),
            "--max-gens",
            "50",
            "--trace",
            str(trace_file),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "cycle"
    assert summary["period"] == 2
    lines = trace_file.read_text().splitlines()
    assert len(lines) == summary["generations"]
    for line in lines:
        record = json.loads(line)  # every line parses on its own
        assert set(record) == {"gen", "outcome", "state_hash", "changed_cells"}


def test_simulate_traces_are_deterministic(tmp_path):
    atlas = atlas_default()
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas))
    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    for t in (t1, t2):
        assert main(["simulate", "--points", str(points_file), "--max-gens", "9", "--trace", str(t)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_simulate_rejects_bad_points_file(tmp_path):
    bad = tmp_path / "bad.json"
    # JSON booleans are not coordinates
    for point in ([1, -2], [True, 2], [1, False], [1, 2, 3], [1, [2]], [[1, 2]], [1.0, 2], [1], [], 7, "12"):
        bad.write_text(json.dumps({"points": [[0, 0], point]}))
        assert main(["simulate", "--points", str(bad)]) == 2, point


def test_simulate_accepts_an_empty_points_list(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"points": []}))
    assert main(["simulate", "--points", str(empty)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["status"], summary["reason"], summary["tiles"]) == ("halted", "no_tip", 0)


def test_simulate_points_object_without_points_key_names_the_shape(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pts": [[0, 0]]}))
    assert main(["simulate", "--points", str(bad)]) == 2
    assert capsys.readouterr().err.startswith('error: points file must look like {"points": [[x, y], ...]}')


@pytest.mark.parametrize(
    "atlas_obj",
    [
        5,
        sorted(atlas_default().to_json_obj()),  # the right names, but not an object
        {**atlas_default().to_json_obj(), "tip": 123},
        {**atlas_default().to_json_obj(), "tip": None},
    ],
    ids=["number", "name_list", "number_pattern", "null_pattern"],
)
def test_simulate_rejects_malformed_atlas_file(tmp_path, capsys, atlas_obj):
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    atlas_file = tmp_path / "atlas.json"
    atlas_file.write_text(json.dumps(atlas_obj))
    assert main(["simulate", "--points", str(points_file), "--atlas", str(atlas_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--instance", "--points", "--atlas"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, flag):
    # nesting this deep makes the JSON parser itself raise RecursionError
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    argv = {
        "--instance": ["verify", "--instance", str(nested)],
        "--points": ["simulate", "--points", str(nested)],
        "--atlas": ["simulate", "--points", str(points_file), "--atlas", str(nested)],
    }[flag]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--instance", "--points", "--atlas"])
def test_malformed_json_names_its_file(tmp_path, capsys, flag):
    # with a good points file beside it, the error must say which file was bad
    bad = tmp_path / "bad.json"
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    argv = {
        "--instance": ["verify", "--instance", str(bad)],
        "--points": ["simulate", "--points", str(bad)],
        "--atlas": ["simulate", "--points", str(points_file), "--atlas", str(bad)],
    }[flag]
    for content, error in [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ]:
        bad.write_bytes(content)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: {error}\n")


@pytest.mark.parametrize("flag", ["--instance", "--points", "--atlas"])
def test_an_integer_too_long_to_convert_names_its_file(tmp_path, capsys, flag):
    # Python refuses to convert integers of more than 4,300 digits with a
    # ValueError that is not a JSONDecodeError
    digits = "9" * 5000
    long_int = tmp_path / "long.json"
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    content, argv = {
        "--instance": ('{"A": [%s], "L": [2, 5, 25]}', ["verify", "--instance", str(long_int)]),
        "--points": ('{"points": [[%s, 0]]}', ["simulate", "--points", str(long_int)]),
        "--atlas": ('{"tip": %s}', ["simulate", "--points", str(points_file), "--atlas", str(long_int)]),
    }[flag]
    long_int.write_text(content % digits)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {long_int}: ") and "4300" in err


def test_trace_and_report_bytes_are_pinned(tmp_path):
    # the tape-loaded board copies ten rule tokens, fires once and halts, so
    # its trace names every outcome kind
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_universal(spec_with(PING_PONG, "11"), "11", atlas_default()))
    trace_file = tmp_path / "trace.jsonl"
    assert main(["simulate", "--points", str(points_file), "--max-gens", "50", "--trace", str(trace_file)]) == 0
    inst_file = tmp_path / "accept.json"
    write_instance(inst_file, ACCEPT_A, 1, 25)
    report_file = tmp_path / "report.json"
    assert main(["verify", "--instance", str(inst_file), "--report", str(report_file)]) == 0
    assert hashlib.sha256(trace_file.read_bytes()).hexdigest() == (
        "531b9023cf2204004cdc8c2662387ffd9dba02ba532f8c42b79822cbe586e318"
    )
    assert hashlib.sha256(report_file.read_bytes()).hexdigest() == (
        "663994ff6f71f5a39c1ff4a53e1ae4105b69c89183975258456059613ce23c49"
    )
    csv_file = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "1,2", "--trials", "2", "--seed", "5", "--csv", str(csv_file)]) == 0
    assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == (
        "7da8742566ce2f4aa4a022dff6abb515104e3791674965cae8ca3a5592c124d6"
    )


def test_encode_emits_json_and_text(tmp_path):
    out = tmp_path / "inst.json"
    rc = main(["encode", "--set-a", "1,3", "--e", "2", "--marker", "25", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["A"] == [1, 3]
    assert obj["L"][0] == 2 and obj["L"][-1] == 25
    text = out.with_suffix(".txt").read_text().strip()
    assert text == " ".join(str(v) for v in obj["L"])


def test_written_files_get_the_mode_a_plain_open_would(tmp_path):
    out = tmp_path / "inst.json"
    old = os.umask(0o022)
    try:
        assert main(["encode", "--set-a", "1,3", "--e", "2", "--marker", "25", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert [(path.stat().st_mode & 0o777) for path in (out, out.with_suffix(".txt"))] == [0o644, 0o644]


def test_encode_rejects_a_negative_generation_count(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["encode", "--set-a", "1,3", "--e", "-1", "--marker", "25", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: --e must be at least 0, got -1\n")
    assert list(tmp_path.iterdir()) == []


def test_encode_refuses_an_out_path_its_text_form_would_overwrite(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    rc = main(["encode", "--set-a", "1,3", "--e", "2", "--marker", "25", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # nothing written, not even a temporary file


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--points", "{points}", "--max-gens", "5", "--trace", "{out}"],
        ["verify", "--instance", "{instance}", "--report", "{out}"],
        ["encode", "--set-a", "1,3", "--e", "2", "--marker", "25", "--out", "{out}"],
        ["solve", "--set-a", ",".join(map(str, ACCEPT_A)), "--out", "{out}"],
        ["bench", "--sizes", "1", "--trials", "1", "--csv", "{out}"],
    ],
    ids=["simulate", "verify", "encode", "solve", "bench"],
)
def test_an_output_path_in_a_missing_directory_is_named(tmp_path, capsys, argv):
    points, instance = tmp_path / "points.json", tmp_path / "inst.json"
    write_points(points, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    write_instance(instance, ACCEPT_A, 1, 25)
    out = tmp_path / "missing" / "out.json"
    files = {"points": points, "instance": instance, "out": out}
    assert main([arg.format(**files) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_encode_writes_both_files_or_neither(tmp_path, capsys, monkeypatch):
    # a directory where the text form goes: the JSON form must not be written either
    monkeypatch.chdir(tmp_path)
    Path("cert.json").write_bytes(b"kept")
    Path("cert.txt").mkdir()
    assert main(["encode", "--set-a", "1,3", "--e", "2", "--marker", "25", "--out", "cert.json"]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 21] Is a directory: 'cert.txt'\n")
    assert Path("cert.json").read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.json", "cert.txt"]


@pytest.mark.parametrize("broken", ["directory", "missing-parent"])
def test_verify_writes_its_trace_and_report_or_neither(tmp_path, capsys, broken):
    instance, trace = tmp_path / "inst.json", tmp_path / "t.jsonl"
    write_instance(instance, ACCEPT_A, 1, 25)
    trace.write_bytes(b"kept")
    report = tmp_path / "report"
    if broken == "directory":
        report.mkdir()
        expected = f"error: [Errno 21] Is a directory: {str(report)!r}\n"
    else:
        report = report / "report.json"
        expected = f"error: [Errno 2] No such file or directory: {str(report)!r}\n"
    argv = ["verify", "--instance", str(instance), "--trace", str(trace), "--report", str(report)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", expected)
    assert trace.read_bytes() == b"kept"
    assert {p.name for p in tmp_path.iterdir()} <= {"inst.json", "report", "t.jsonl"}  # no temporary file


@pytest.mark.parametrize("trace", ["same.out", "./same.out"])
def test_two_outputs_that_are_one_file_are_refused(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.chdir(tmp_path)
    write_instance(Path("cert.json"), ACCEPT_A, 1, 25)
    assert main(["verify", "--instance", "cert.json", "--trace", trace, "--report", "same.out"]) == 2
    assert capsys.readouterr() == ("", "error: two outputs name one file: same.out\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]  # no output, no temporary file


def test_a_symlink_to_another_output_is_its_own_file(tmp_path, monkeypatch, capsys):
    # os.replace replaces the link, not its target, so the two outputs do not clash
    monkeypatch.chdir(tmp_path)
    write_instance(Path("cert.json"), ACCEPT_A, 1, 25)
    Path("link.out").symlink_to("same.out")
    assert main(["verify", "--instance", "cert.json", "--trace", "same.out", "--report", "link.out"]) == 0
    assert not Path("link.out").is_symlink() and json.loads(Path("link.out").read_text())["verdict"] == "accept"
    assert Path("same.out").read_text().startswith('{"changed_cells"')


def test_simulate_loads_no_module_it_does_not_use(tmp_path):
    # -S keeps site, and the .pth files it runs, from loading modules first
    points = tmp_path / "points.json"
    write_points(points, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    unused = ("dataclasses", "inspect", "importlib.resources", "csv", "tempfile")
    code = (
        f"import sys; sys.path.insert(0, {str(Path(debilandia.__file__).parents[1])!r}); "
        f"from debilandia.cli import main; rc = main(['simulate', '--points', {str(points)!r}]); "
        f"print(rc, [name for name in {unused!r} if name in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_solve_round_trips_through_verify(tmp_path, capsys):
    out = tmp_path / "cert.json"
    set_a = ",".join(str(v) for v in ACCEPT_A)
    rc = main(["solve", "--set-a", set_a, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(out)]) == 0


def test_solve_none_found_exits_one(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["solve", "--set-a", "1,3", "--max-gens", "8", "--out", str(out)])
    assert rc == 1
    assert "no certificate" in capsys.readouterr().err
    assert not out.exists()


def test_solve_cap_exceeded_exits_two(tmp_path, capsys):
    out = tmp_path / "cert.json"
    set_a = ",".join(str(v) for v in ACCEPT_A)
    rc = main(["solve", "--set-a", set_a, "--cap", "15", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: |A| = 16 exceeds the cap of 15\n"
    assert not out.exists()


def test_bench_csv(tmp_path):
    csv_file = tmp_path / "bench.csv"
    rc = main(["bench", "--sizes", "1,2", "--trials", "2", "--seed", "5", "--csv", str(csv_file)])
    assert rc == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["m", "trial", "cells_placed", "factorial_sq_claim"]
    assert len(lines) == 1 + 4


def test_bench_runs_above_four_members_with_default_flags(tmp_path, capsys):
    csv_file = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "5,6", "--trials", "1", "--csv", str(csv_file)]) == 0
    assert capsys.readouterr().out == f"wrote 2 rows to {csv_file}\n"
    assert [line.split(",")[:3] for line in csv_file.read_text().splitlines()[1:]] == [
        ["5", "0", "25"],
        ["6", "0", "36"],
    ]


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_bench_rejects_a_trial_count_below_one(tmp_path, capsys, trials):
    csv_file = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "1", "--trials", trials, "--csv", str(csv_file)]) == 2
    assert capsys.readouterr().err == f"error: --trials must be at least 1, got {trials}\n"
    assert not csv_file.exists()


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("1,195", "--sizes values must lie in 1..194, got 195"),
        ("0", "--sizes values must lie in 1..194, got 0"),
        ("-3", "--sizes values must lie in 1..194, got -3"),
        ("1,x", "--sizes must be comma-separated integers, got '1,x'"),
    ],
    ids=["above_pool", "zero", "negative", "not_an_integer"],
)
def test_bench_rejects_malformed_sizes(tmp_path, capsys, sizes, message):
    csv_file = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", sizes, "--csv", str(csv_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not csv_file.exists()


def test_flags_of_one_call_do_not_leak_into_the_next(tmp_path, capsys):
    # main builds its parser once; every call must start from the defaults
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    trace_file = tmp_path / "trace.jsonl"
    assert main(["simulate", "--points", str(points_file), "--max-gens", "5", "--trace", str(trace_file)]) == 0
    trace_file.unlink()
    assert main(["simulate", "--points", str(points_file), "--max-gens", "5"]) == 0
    assert not trace_file.exists()
    set_a = ",".join(str(v) for v in ACCEPT_A)
    out = tmp_path / "cert.json"
    assert main(["solve", "--set-a", set_a, "--max-gens", "16", "--cap", "1", "--out", str(out)]) == 2
    assert "exceeds the cap of 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["solve", "--set-a", set_a, "--max-gens", "16", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "argv, floor, value",
    [
        (["simulate", "--points", "{points}"], 0, "-1"),
        (["solve", "--set-a", "1,3", "--out", "{out}"], 1, "0"),
        (["solve", "--set-a", "1,3", "--out", "{out}"], 1, "-4"),
        (["bench", "--sizes", "1", "--csv", "{out}"], 1, "0"),
    ],
    ids=["simulate", "solve", "solve_negative", "bench"],
)
def test_max_gens_below_its_floor_names_the_flag(tmp_path, capsys, argv, floor, value):
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    out = tmp_path / "out.json"
    argv = [arg.format(points=points_file, out=out) for arg in argv]
    assert main([*argv, "--max-gens", value]) == 2
    assert capsys.readouterr() == ("", f"error: --max-gens must be at least {floor}, got {value}\n")
    assert not out.exists()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_atlas_env_override(tmp_path, monkeypatch, capsys):
    atlas_file = tmp_path / "atlas.json"
    save_atlas(atlas_default(), atlas_file)
    monkeypatch.setenv("DEBILANDIA_ATLAS", str(atlas_file))
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    assert main(["simulate", "--points", str(points_file), "--max-gens", "5"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("DEBILANDIA_ATLAS", str(tmp_path / "missing.json"))
    assert main(["simulate", "--points", str(points_file), "--max-gens", "5"]) == 2


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("debilandia ")]
    assert [argv[1] for argv in commands] == ["simulate", "verify", "encode", "solve", "bench"]
    for argv in commands:
        assert _build_parser().parse_args(argv[1:]).command == argv[1]


@pytest.mark.parametrize("via", ["--atlas", "env"])
def test_an_atlas_file_is_read_on_every_call(tmp_path, monkeypatch, capsys, via):
    # only the packaged atlas is loaded once per process
    atlas_file = tmp_path / "atlas.json"
    save_atlas(atlas_default(), atlas_file)
    points_file = tmp_path / "points.json"
    write_points(points_file, compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
    argv = ["simulate", "--points", str(points_file), "--max-gens", "5"]
    if via == "env":
        monkeypatch.setenv("DEBILANDIA_ATLAS", str(atlas_file))
    else:
        argv += ["--atlas", str(atlas_file)]
    assert main(argv) == 0
    atlas_file.write_text("{}")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: atlas file must map exactly the names")
