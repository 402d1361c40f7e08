"""Command-line contract: report shapes, exit codes, formats, cache files."""

import json
import os
import pickle
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import gamelab.cli as cli
import gamelab.verify
from gamelab import core, periodicity
from gamelab.core import Convention, Outcome
from gamelab.cram import bluff_report
from gamelab.heaps import is_euclid_p
from gamelab.periodicity import HorizonExceeded
from gamelab.zeruclid import grundy_heatmap


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text: str) -> str:
    return re.sub(r'"timing_ms":[0-9.]+', '"timing_ms":T', text)


# -- report shape ---------------------------------------------------------------


def test_solve_report_shape_and_fragment(capsys):
    code, out, err = run_cli(capsys, "solve", "--ruleset", "nim", "--pos", "3,3")
    assert code == 0 and err == ""
    assert '"result":{"outcome":"P"}' in out
    assert out.startswith(
        '{"command":"solve","params":{"ruleset":"nim","compound":null,'
        '"pos":[3,3],"convention":"normal"},'
        '"result":{"outcome":"P"},"timing_ms":'
    )
    report = json.loads(out)
    assert list(report) == ["command", "params", "result", "timing_ms", "cache"]
    assert report["cache"]["entries"] > 0


def test_output_is_deterministic_modulo_timing(capsys):
    _, first, _ = run_cli(capsys, "solve", "--ruleset", "wythoff", "--pos", "4,7")
    _, second, _ = run_cli(capsys, "solve", "--ruleset", "wythoff", "--pos", "4,7")
    assert strip_timing(first) == strip_timing(second)


def test_solve_misere_and_compound(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "1,1", "--convention", "misere"
    )
    assert code == 0 and '"outcome":"N"' in out
    code, out, _ = run_cli(
        capsys, "solve", "--compound", "nim-euclid", "--pos", "7,12"
    )
    assert code == 0 and '"outcome":"P"' in out


def test_solve_subtraction_ruleset_string(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "subtraction:1,2", "--pos", "6"
    )
    assert code == 0 and '"outcome":"P"' in out


def test_grundy_report(capsys):
    code, out, _ = run_cli(capsys, "grundy", "--ruleset", "nim", "--pos", "2,3")
    assert code == 0 and '"result":{"grundy":1}' in out
    code, out, _ = run_cli(
        capsys, "grundy", "--compound", "nim-euclid", "--pos", "2,4"
    )
    assert code == 0 and '"result":{"grundy":0}' in out


def test_period_interval_fragment(capsys):
    code, out, _ = run_cli(capsys, "period", "--k1", "2", "--k2", "3")
    assert code == 0
    assert '"predicted":4,"certified":{"preperiod":0,"period":4}' in out
    assert json.loads(out)["cache"] is None


def test_period_interval_form_follows_convention(capsys):
    for convention in Convention:
        for k1 in range(1, 7):
            for k2 in range(1, 7):
                argv = ["period", "--k1", str(k1), "--k2", str(k2)]
                code, out, _ = run_cli(capsys, *argv, "--convention", convention.value)
                report = json.loads(out)
                cert = periodicity.interval_compound_certificate(k1, k2, convention)
                assert code == 0
                assert report["result"]["certified"] == cert._asdict(), (k1, k2, convention)
                assert report["params"]["convention"] == convention.value


def test_period_set_form_key_order(capsys):
    code, out, _ = run_cli(capsys, "period", "--s1", "1,2", "--r2", "1,2,3")
    assert code == 0
    result = json.loads(out)["result"]
    assert list(result) == ["r2", "r2_values", "outcome", "values"]
    assert result["outcome"] == {"preperiod": 0, "period": 4}
    code, out, _ = run_cli(
        capsys, "period", "--s1", "1,2", "--r2", "1,2,3", "--convention", "misere"
    )
    assert code == 0
    assert list(json.loads(out)["result"]) == ["r2", "outcome"]


def test_cram_reports(capsys):
    code, out, _ = run_cli(capsys, "cram", "--rows", "3", "--cols", "4")
    assert code == 0 and '"result":{"outcome":"P"}' in out
    code, out, _ = run_cli(capsys, "cram", "--rows", "3", "--cols", "5", "--bluff")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["outcome"] == "N"
    assert result["bluff"] == {
        "holds": True,
        "phase1_value": 1,
        "total_phase1_moves": 10,
        "losing_phase1_moves": 0,
    }


def test_heatmap_json(capsys):
    code, out, _ = run_cli(capsys, "heatmap", "--max", "2")
    assert code == 0
    assert json.loads(out)["result"]["grid"] == [[1, 0, 2], [0, 1, 3], [2, 3, 1]]


def test_verify_clean_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "push-lemma")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["counterexamples"] == 0
    assert result["reports"][0]["suite"] == "push-lemma"
    assert result["reports"][0]["checks"] > 0


def test_verify_counterexamples_exit_three(capsys, monkeypatch):
    def fake(name):
        return [{"suite": name, "checks": 1, "counterexamples": [{"where": 1}]}]

    monkeypatch.setattr(gamelab.verify, "run_suite", fake)
    code, out, _ = run_cli(capsys, "verify", "push-lemma")
    assert code == 3
    assert json.loads(out)["result"]["counterexamples"] == 1


def test_verify_mismatch_record_prints_outcomes_as_letters(capsys, monkeypatch):
    # A closed form planted wrong at one position comes back through the CLI
    # as one record whose two outcomes print as "P" and "N".
    oracle = gamelab.verify.push_p_oracle
    flip = {Outcome.P: Outcome.N, Outcome.N: Outcome.P}
    planted = ("wythoff-nim", (2, 3))

    def wrong_once(name, position):
        want = oracle(name, position)
        return flip[want] if (name, position) == planted else want

    monkeypatch.setattr(gamelab.verify, "push_p_oracle", wrong_once)
    code, out, _ = run_cli(capsys, "verify", "push-characterization")
    assert code == 3
    result = json.loads(out)["result"]
    truth = oracle(*planted)
    assert result["counterexamples"] == 1
    assert result["reports"][0]["counterexamples"] == [
        {"compound": "wythoff-nim", "position": [2, 3], "search": truth.value,
         "closed_form": flip[truth].value}
    ]
    assert {truth.value, flip[truth].value} == {"P", "N"}


# -- csv ------------------------------------------------------------------------


def test_ppos_csv_exact(capsys):
    code, out, _ = run_cli(
        capsys, "ppos", "--compound", "nim-euclid", "--max", "10", "--format", "csv"
    )
    assert code == 0
    assert out == "a,b\n0,1\n2,4\n3,5\n6,10\n"


def test_heatmap_csv_exact(capsys):
    code, out, _ = run_cli(capsys, "heatmap", "--max", "3", "--format", "csv")
    assert code == 0
    assert out == (
        "a\\b,0,1,2,3\n"
        "0,1,0,2,3\n"
        "1,0,1,3,2\n"
        "2,2,3,1,4\n"
        "3,3,2,4,1\n"
    )


def test_readme_cli_examples(capsys):
    # Each `$ gamelab ...` example under README "Command line", run in-process:
    # output must match byte for byte once `timing_ms` is masked.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", section, re.M | re.S):
        for chunk in re.split(r"^\$ gamelab ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command.split(), output.rstrip("\n") + "\n"))
    assert len(examples) == 5
    for argv, want in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert strip_timing(out) == strip_timing(want), argv


def test_global_flags_leading_or_trailing(capsys):
    _, trailing, _ = run_cli(
        capsys, "ppos", "--compound", "wythoff", "--max", "8", "--format", "csv"
    )
    _, leading, _ = run_cli(
        capsys, "--format", "csv", "ppos", "--compound", "wythoff", "--max", "8"
    )
    assert trailing == leading
    assert trailing.splitlines()[0] == "a,b"


def test_csv_unavailable_for_scalar_commands(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "3,3", "--format", "csv"
    )
    assert code == 64 and "usage error" in err
    # The usage error comes before any search: an existing cache file stays as it was.
    cache = str(tmp_path / "memo.jsonl")
    assert run_cli(capsys, "solve", "--ruleset", "nim", "--pos", "3,3", "--cache", cache)[0] == 0
    before = Path(cache).read_bytes()
    for argv in (
        ["solve", "--ruleset", "nim", "--pos", "4,5"],
        ["cram", "--rows", "2", "--cols", "3"],
    ):
        code, out, err = run_cli(capsys, *argv, "--format", "csv", "--cache", cache)
        assert (code, out) == (64, "") and "usage error" in err, argv
        assert Path(cache).read_bytes() == before, argv


def test_cache_only_for_commands_that_search(capsys, tmp_path):
    cache = tmp_path / "memo.jsonl"
    for argv in (
        ["ppos", "--compound", "wythoff", "--max", "8"],
        ["period", "--k1", "2", "--k2", "3"],
        ["verify", "push-lemma"],
    ):
        for placed in (["--cache", str(cache), *argv], [*argv, "--cache", str(cache)]):
            code, out, err = run_cli(capsys, *placed)
            assert (code, out) == (64, "") and "usage error: --cache" in err, placed
            assert not cache.exists(), placed
    for argv in (
        ["solve", "--ruleset", "nim", "--pos", "3,4"],
        ["grundy", "--ruleset", "nim", "--pos", "3,4"],
        ["heatmap", "--max", "4"],
        ["cram", "--rows", "2", "--cols", "3"],
    ):
        for placed in (["--cache", str(cache), *argv], [*argv, "--cache", str(cache)]):
            code, out, _ = run_cli(capsys, *placed)
            assert code == 0 and json.loads(out)["cache"]["saved"] is True, placed


# -- ppos oracles -----------------------------------------------------------------


def test_ppos_base_oracle_euclid(capsys):
    code, out, _ = run_cli(
        capsys, "ppos", "--compound", "euclid-normal", "--max", "8"
    )
    assert code == 0
    pairs = {tuple(p) for p in json.loads(out)["result"]["pairs"]}
    want = {
        (a, b)
        for a in range(1, 9)
        for b in range(a, 9)
        if is_euclid_p((a, b))
    }
    assert pairs == want
    assert all(a >= 1 and b >= 1 for a, b in pairs)


def test_ppos_wythoff_pairs(capsys):
    code, out, _ = run_cli(capsys, "ppos", "--compound", "wythoff", "--max", "10")
    assert code == 0
    assert json.loads(out)["result"]["pairs"] == [
        [0, 0], [1, 2], [3, 5], [4, 7], [6, 10]
    ]
    assert json.loads(out)["result"]["count"] == 5


def test_ppos_unknown_oracle(capsys):
    code, _, err = run_cli(capsys, "ppos", "--compound", "frob", "--max", "5")
    assert code == 1 and "unknown oracle" in err


# -- exit codes -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,code",
    [
        (["solve", "--ruleset", "nim", "--pos", "3,x"], 1),
        (["solve", "--ruleset", "frob", "--pos", "3,3"], 1),
        (["grundy", "--ruleset", "euclid", "--pos", "3"], 1),
        (["heatmap", "--max", "401"], 1),
        (["cram", "--rows", "0", "--cols", "4"], 1),
        (["cram", "--rows", "9", "--cols", "8"], 1),
        (["period", "--k1", "0", "--k2", "3"], 1),
        (["solve", "--compound", "frob", "--pos", "3,3"], 64),
        (["solve", "--pos", "3,3"], 64),
        (["solve", "--ruleset", "nim", "--compound", "nim-euclid", "--pos", "1"], 64),
        (["solve", "--ruleset", "nim", "--pos", "3,3", "--phase", "before"], 64),
        (["heatmap", "--max", "4", "--jobs", "0"], 64),
        (["period", "--k1", "2"], 64),
        (["period"], 64),
        (["period", "--k1", "2", "--s1", "1,2", "--k2", "3", "--r2", "1"], 64),
        (["verify", "no-such-suite"], 64),
        (["frobnicate"], 64),
        ([], 64),
        (["ppos", "--compound", "nim-euclid", "--max", "-1"], 1),
        (["period", "--s1", "1,2"], 64),
        (["period", "--r2", "1,2"], 64),
        (["solve", "--compound", "nim-euclid", "--pos", "7,12", "--phase", "after"], 64),
    ],
)
def test_exit_codes(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code, (argv, out, err)
    if code != 0:
        assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--compound", "nim-euclid", "--pos", "3,4,5"),
        ("grundy", "--compound", "wythoff-nim", "--pos", "2,2,9"),
    ],
)
def test_compound_root_must_be_two_heaps(capsys, argv):
    # Every compound is a two-heap game: the root is refused before any
    # search, and the error names the position that was given.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: expected 2 heaps, got ({argv[4].replace(',', ', ')})\n"


def test_subtraction_root_must_be_one_heap(capsys):
    code, out, err = run_cli(capsys, "grundy", "--ruleset", "subtraction:1,2", "--pos", "3,4")
    assert (code, out) == (1, "")
    assert err == "error: expected 1 heap, got (3, 4)\n"


def test_horizon_exceeded_exit_two(capsys, monkeypatch):
    def blow_up(k1, k2, convention=None):
        raise HorizonExceeded("stream too short")

    monkeypatch.setattr(periodicity, "interval_compound_certificate", blow_up)
    code, _, err = run_cli(capsys, "period", "--k1", "2", "--k2", "3")
    assert code == 2 and "resource limit" in err


def test_memo_cap_env_exit_codes():
    env = dict(os.environ, GAMELAB_MEMO_CAP="10")
    proc = subprocess.run(
        [sys.executable, "-m", "gamelab.cli", "solve", "--ruleset", "nim", "--pos", "30,31"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "resource limit" in proc.stderr
    env["GAMELAB_MEMO_CAP"] = "frog"
    proc = subprocess.run(
        [sys.executable, "-m", "gamelab.cli", "solve", "--ruleset", "nim", "--pos", "3,3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1


SCRIPT_ARGS = ["solve", "--ruleset", "nim", "--pos", "3,3"]
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_installed_script():
    """The `gamelab` entry point declared in pyproject.toml runs in its own process.

    Runs the `[project.scripts]` target the way an installed console-script
    wrapper does, so the check needs no installed package.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["gamelab"]
    module, attr = entry.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *SCRIPT_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"result":{"outcome":"P"}' in proc.stdout


@pytest.mark.skipif(
    shutil.which("gamelab") is None, reason="no installed gamelab command on PATH"
)
def test_installed_script_on_path():
    proc = subprocess.run(["gamelab", *SCRIPT_ARGS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert '"result":{"outcome":"P"}' in proc.stdout


SRC = Path(cli.__file__).resolve().parent.parent
CLOSURE_SCRIPT = """\
import json, sys
from gamelab import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "gamelab")
print(json.dumps([code, loaded, [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""
BASE_CLOSURE = ("gamelab", "gamelab.cli", "gamelab.core", "gamelab.arith", "gamelab.heaps", "gamelab.push")


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["ppos", "--compound", "nim-euclid", "--max", "20"], ()),
        (["solve", "--compound", "wythoff-nim", "--pos", "3,5"], ()),
        (["grundy", "--ruleset", "euclid", "--pos", "3,5"], ()),
        (["period", "--k1", "2", "--k2", "3"], ("periodicity",)),
        (["heatmap", "--max", "4"], ("zeruclid",)),
        (["cram", "--rows", "3", "--cols", "3", "--bluff"], ("periodicity", "cram")),
        (["verify", "push-lemma"], ("periodicity", "zeruclid", "cram", "verify")),
    ],
)
def test_command_imports_only_what_it_runs(argv, extra):
    """A fresh process loads the modules its command runs and no others;
    `verify` loads every module of the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CLOSURE_SCRIPT, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded, heavy = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted([*BASE_CLOSURE, *(f"gamelab.{m}" for m in extra)])
    assert heavy == []
    if argv[0] == "verify":
        package = {f"gamelab.{p.stem}" for p in (SRC / "gamelab").glob("*.py")}
        assert set(loaded) == package - {"gamelab.__init__"} | {"gamelab"}


# -- cache files ------------------------------------------------------------------


def test_cache_round_trip(capsys, tmp_path):
    path = str(tmp_path / "nim.cache")
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "12,13", "--cache", path
    )
    assert code == 0
    stats = json.loads(out)["cache"]
    assert stats["file"] == path
    assert stats["loaded"] == 0
    assert stats["saved"] is True
    assert os.path.getsize(path) > len(b"GLMC")
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "12,13", "--cache", path
    )
    assert code == 0
    stats = json.loads(out)["cache"]
    assert stats["loaded"] > 0


def _pickled_cache(tag: str, records) -> bytes:
    """A cache file in the binary layout of format version 3: magic, version,
    tag, then length-prefixed pickled keys and values."""
    raw_tag = tag.encode()
    out = [b"GLMC", struct.pack(">HH", 3, len(raw_tag)), raw_tag]
    for key, value in records:
        for blob in (pickle.dumps(key), pickle.dumps(value)):
            out += [struct.pack(">I", len(blob)), blob]
    return b"".join(out)


def test_cram_cache_round_trip(capsys, tmp_path):
    path = tmp_path / "cram.cache"
    argv = ("cram", "--rows", "3", "--cols", "6", "--cache", str(path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    cold = json.loads(out)
    assert cold["cache"]["loaded"] == 0 and cold["cache"]["saved"] is True
    saved = path.read_text()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    warm = json.loads(out)
    assert warm["cache"]["loaded"] == cold["cache"]["entries"] > 0
    assert warm["result"] == cold["result"] == {"outcome": "P"}
    # Files of older formats are ignored whole instead of merging keys no
    # search can reach: version 1 keyed Push Cram by GridBoards, version 2
    # by ints carrying a phase bit, version 3 was pickled records.
    header, body = saved.split("\n", 1)
    for version in (1, 2, 3):
        stamped = json.dumps({**json.loads(header), "version": version}, separators=(",", ":"))
        assert stamped != header
        path.write_text(stamped + "\n" + body)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["cache"]["loaded"] == 0, version
    tag = json.loads(header)["tag"]
    records = [(json.loads(body.split("\n", 1)[0])[0][0], Outcome.P)]
    path.write_bytes(_pickled_cache(tag, records))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["cache"]["loaded"] == 0
    assert path.read_text() == saved


class _MakesDirectory:
    """Unpickling this runs os.mkdir: a stand-in for a cache file that runs code."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


def test_pickled_cache_never_runs_code(capsys, tmp_path):
    path = tmp_path / "nim.cache"
    marker = tmp_path / "marker"
    path.write_bytes(
        _pickled_cache("nim|outcome:normal", [(_MakesDirectory(str(marker)), Outcome.P)])
    )
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "3,3", "--cache", str(path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["cache"]["loaded"] == 0 and report["result"] == {"outcome": "P"}
    assert not marker.exists()


NIM_SOLVE = ("solve", "--ruleset", "nim", "--pos", "5,6")
NIM_GRUNDY = ("grundy", "--ruleset", "nim", "--pos", "5,6")
AFTER_SOLVE = ("solve", "--compound", "nim-euclid", "--pos", "7,12")


@pytest.mark.parametrize(
    "argv,bad_pair",
    [
        (NIM_GRUNDY, "[[1,2],true]"),
        (NIM_SOLVE, '[[1.0,2],"N"]'),
        (NIM_SOLVE, '["1,2","N"]'),
        (NIM_GRUNDY, '[[1,2],"P"]'),
        (NIM_SOLVE, "[[1,2],0]"),
        (AFTER_SOLVE, '[["after",["after",1]],"N"]'),
    ],
    ids=["bool-value", "float-heap", "string-key", "outcome-in-grundy",
         "int-in-outcome", "nested-after"],
)
def test_ill_typed_cache_loads_nothing(capsys, tmp_path, argv, bad_pair):
    path = tmp_path / "bad.cache"
    argv = (*argv, "--cache", str(path))
    _, out, _ = run_cli(capsys, *argv)
    cold = json.loads(out)
    saved = path.read_text()
    header, first, _ = saved.split("\n", 2)
    good_pair = json.dumps(json.loads(first)[0], separators=(",", ":"))
    path.write_text(f"{header}\n[{good_pair},{bad_pair}]\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["cache"]["loaded"] == 0 and report["cache"]["saved"] is True
    assert report["result"] == cold["result"]
    assert path.read_text() == saved


@pytest.mark.parametrize("line", ['{"a":1}', "5"], ids=["object", "number"])
def test_cache_line_not_a_list_loads_nothing(capsys, tmp_path, line):
    path = tmp_path / "odd.cache"
    argv = ("solve", "--ruleset", "nim", "--pos", "3,3", "--cache", str(path))
    run_cli(capsys, *argv)
    header = path.read_text().split("\n", 1)[0]
    path.write_text(f"{header}\n{line}\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"outcome": "P"} and report["cache"]["loaded"] == 0


@pytest.mark.parametrize(
    "cap,pos,code",
    [("5", "9,9,9", 2), ("50", "3,3", 0)],
    ids=["query-past-cap", "query-under-cap"],
)
def test_cache_past_memo_cap_loads_nothing(capsys, tmp_path, monkeypatch, cap, pos, code):
    # A file of more records than the cap leaves room for is a fault like any
    # other: it loads nothing, and the search runs under the cap.
    path = tmp_path / "nim.cache"
    run_cli(capsys, "solve", "--ruleset", "nim", "--pos", "9,9,9", "--cache", str(path))
    saved = path.read_text()
    assert sum(len(json.loads(line)) for line in saved.splitlines()[1:]) == 220
    monkeypatch.setenv("GAMELAB_MEMO_CAP", cap)
    got, out, err = run_cli(capsys, "solve", "--ruleset", "nim", "--pos", pos, "--cache", str(path))
    assert got == code, err
    if code:
        assert "resource limit" in err and path.read_text() == saved
    else:
        report = json.loads(out)
        assert report["result"] == {"outcome": "P"}
        assert report["cache"]["loaded"] == 0 and report["cache"]["entries"] == 10


def test_deeply_nested_cache_loads_nothing(capsys, tmp_path):
    """A 100,000-deep array is refused before the JSON decoder sees it.

    Each load runs in a fresh process: one at the interpreter's default
    recursion limit, one at the 100,000 that `tests/reference.py` sets, where
    the C decoder would overrun the C stack before any RecursionError.
    """
    path = tmp_path / "deep.cache"
    argv = [*NIM_SOLVE, "--cache", str(path)]
    _, out, _ = run_cli(capsys, *argv)
    cold = json.loads(out)
    saved = path.read_text()
    header = saved.split("\n", 1)[0]
    raised_limit = (
        "import sys; from gamelab.cli import main; "
        f"sys.setrecursionlimit(100_000); sys.exit(main({argv!r}))"
    )
    for launch in (["-m", "gamelab.cli", *argv], ["-c", raised_limit]):
        for deep in ("[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "}" * 100_000):
            path.write_text(f"{header}\n{deep}\n")
            proc = subprocess.run([sys.executable, *launch], capture_output=True, text=True)
            assert proc.returncode == 0, (launch[0], proc.returncode, proc.stderr)
            report = json.loads(proc.stdout)
            assert report["cache"]["loaded"] == 0 and report["result"] == cold["result"]
            assert path.read_text() == saved


@pytest.mark.parametrize(
    "argv",
    [
        NIM_SOLVE,
        ("solve", "--ruleset", "subtraction:1,2", "--pos", "9"),
        (*AFTER_SOLVE, "--convention", "misere"),
        ("grundy", "--compound", "nim-euclid", "--pos", "5,9"),
        ("heatmap", "--max", "6"),
        ("cram", "--rows", "3", "--cols", "6"),
        ("cram", "--rows", "3", "--cols", "5", "--bluff"),
    ],
    ids=["heap-tuple", "one-heap", "after-wrapper", "grundy-compound",
         "heatmap", "cram-int", "cram-bluff"],
)
def test_every_key_shape_round_trips(capsys, tmp_path, argv):
    path = tmp_path / "shape.cache"
    argv = (*argv, "--cache", str(path))
    code, cold_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, warm_out, _ = run_cli(capsys, *argv)
    assert code == 0
    cold, warm = json.loads(cold_out), json.loads(warm_out)
    assert cold["cache"]["loaded"] == 0
    assert warm["cache"]["loaded"] == cold["cache"]["entries"] > 0
    # Everything before the timing field (command, params, result) is byte-identical.
    assert warm_out.split('"timing_ms"')[0] == cold_out.split('"timing_ms"')[0]
    if argv[: len(AFTER_SOLVE)] == AFTER_SOLVE:
        assert '"after"' in path.read_text()  # after-button keys are ["after", heaps]


def test_cram_bluff_cache_round_trip(capsys, tmp_path):
    path = tmp_path / "bluff.cache"
    argv = ("cram", "--rows", "3", "--cols", "5", "--bluff", "--cache", str(path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    cold = json.loads(out)
    assert cold["cache"]["file"] == str(path)
    assert cold["cache"]["loaded"] == 0 and cold["cache"]["saved"] is True
    assert path.exists()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    warm = json.loads(out)
    assert warm["cache"]["loaded"] > 0
    assert warm["result"] == cold["result"]


def test_cram_cache_holds_only_this_run(capsys, tmp_path):
    path = tmp_path / "run.cache"
    for argv in (
        ("cram", "--rows", "3", "--cols", "6"),
        ("cram", "--rows", "3", "--cols", "5", "--bluff"),
        ("heatmap", "--max", "6"),
    ):
        argv = (*argv, "--cache", str(path))
        # The lone run starts with empty shared solvers, as in a fresh process.
        core.solver_for.cache_clear()
        _, out, _ = run_cli(capsys, *argv)
        alone = json.loads(out)["cache"]["entries"]
        path.unlink()
        # Searches that fill the shared solvers, in and out of the CLI.
        run_cli(capsys, "cram", "--rows", "5", "--cols", "5")
        bluff_report(3, 7)
        grundy_heatmap(10)
        _, out, _ = run_cli(capsys, *argv)
        after_other = json.loads(out)["cache"]
        assert after_other["loaded"] == 0, argv
        assert after_other["entries"] == alone > 0, argv
        path.unlink()


def test_cache_tag_mismatch_ignored(capsys, tmp_path):
    path = str(tmp_path / "mix.cache")
    run_cli(capsys, "solve", "--ruleset", "nim", "--pos", "9,10", "--cache", path)
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "wythoff", "--pos", "4,7", "--cache", path
    )
    assert code == 0
    assert json.loads(out)["cache"]["loaded"] == 0
    # A solve cache (outcome table) must not feed a grundy run either.
    run_cli(capsys, "solve", "--ruleset", "nim", "--pos", "9,10", "--cache", path)
    code, out, _ = run_cli(
        capsys, "grundy", "--ruleset", "nim", "--pos", "9,10", "--cache", path
    )
    assert code == 0
    assert json.loads(out)["cache"]["loaded"] == 0


def test_corrupt_cache_ignored(capsys, tmp_path):
    path = tmp_path / "bad.cache"
    path.write_bytes(b"GLMC" + b"\xff" * 40)
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "5,6", "--cache", str(path)
    )
    assert code == 0
    stats = json.loads(out)["cache"]
    assert stats["loaded"] == 0 and stats["saved"] is True
    # The rewritten file is well-formed now.
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "5,6", "--cache", str(path)
    )
    assert code == 0
    assert json.loads(out)["cache"]["loaded"] > 0


def test_unwritable_cache_still_answers(capsys, tmp_path):
    path = tmp_path / "missing" / "nim.cache"
    code, out, _ = run_cli(
        capsys, "solve", "--ruleset", "nim", "--pos", "3,3", "--cache", str(path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"outcome": "P"}
    assert report["cache"]["loaded"] == 0 and report["cache"]["saved"] is False
    assert not path.parent.exists()


def test_cache_on_heatmap(capsys, tmp_path):
    path = str(tmp_path / "heat.cache")
    code, first, _ = run_cli(capsys, "heatmap", "--max", "6", "--cache", path)
    assert code == 0
    code, second, _ = run_cli(capsys, "heatmap", "--max", "6", "--cache", path)
    assert code == 0
    assert json.loads(second)["cache"]["loaded"] > 0
    assert json.loads(first)["result"] == json.loads(second)["result"]


def test_exit_code_constants():
    assert (cli.EX_OK, cli.EX_DOMAIN, cli.EX_RESOURCE) == (0, 1, 2)
    assert (cli.EX_COUNTEREXAMPLES, cli.EX_USAGE) == (3, 64)
