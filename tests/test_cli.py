"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from hoffline.cli import build_parser, main
from hoffline.enumeration import write_graph6
from hoffline.verify import CLAIMS, MfsCatalog

from helpers import slim_complete


def _run(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "hoffline.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def test_gen_counts_and_format():
    out = _run(["gen", "-n", "5"])
    assert out.returncode == 0
    assert len(out.stdout.split()) == 21
    dot = _run(["gen", "-n", "3", "--format", "dot"])
    assert "graph" in dot.stdout
    txt = _run(["gen", "-n", "3", "--format", "text"])
    assert "s=3 f=0" in txt.stdout


def test_gen_refuses_pretty():
    # gen never prints JSON, so --pretty is a usage error
    out = _run(["gen", "-n", "3", "--pretty"])
    assert out.returncode == 2
    assert "--pretty" in out.stderr and not out.stdout


@pytest.mark.parametrize("n", ["0", "11"])
def test_gen_out_of_range_exit_two(n):
    out = _run(["gen", "-n", n])
    assert out.returncode == 2 and not out.stdout
    assert "Traceback" not in out.stderr and "1 <= n <= 10" in out.stderr


def test_gen_all_includes_disconnected():
    out = _run(["gen", "-n", "4", "--all"])
    assert len(out.stdout.split()) == 11


def test_recognize_k5():
    out = _run(["recognize"], stdin=write_graph6(slim_complete(5)) + "\n")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["is_line"] is True
    assert sorted(doc) == ["canonical_form", "cover", "is_line"]
    assert doc["cover"]["slim_count"] == 5


def test_recognize_non_line():
    out = _run(["recognize"], stdin="DsW\n")
    doc = json.loads(out.stdout)
    assert doc["is_line"] is False and doc["cover"] is None


def test_covers_counts_triangle():
    out = _run(["covers"], stdin="Bw\n")  # K3
    doc = json.loads(out.stdout)
    assert doc["count"] == 2


def test_spectral_output():
    # Ds[ is the five-vertex member below the threshold; K4 is above
    out = _run(["spectral"], stdin="Ds[\n" + write_graph6(slim_complete(4)) + "\n")
    lines = [json.loads(l) for l in out.stdout.splitlines()]
    assert [l["vs_threshold"] for l in lines] == ["below", "at_or_above"]


def test_sums_subcommand(tmp_path):
    from hoffline.families import family_graph

    f = tmp_path / "f7.hg"
    f.write_text(family_graph("F7").to_text())
    out = _run(["sums", "--F", str(f), "--slim-k", "2", "--ck", "1"])
    assert out.returncode == 0
    lines = [json.loads(l) for l in out.stdout.splitlines()]
    assert lines and all(l["slim_count"] == 6 for l in lines)


def test_verify_eq2_exit_zero():
    out = _run(["verify", "--claim", "eq2"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["status"] == "confirmed"


def test_verify_lemma_exit_zero():
    out = _run(["verify", "--claim", "lemma4.10"])
    assert out.returncode == 0


def test_usage_error_exit_two():
    out = _run(["verify", "--claim", "bogus"])
    assert out.returncode == 2
    out = _run(["frobnicate"])
    assert out.returncode == 2


def test_uniqueness_audit_of_size_zero_exit_two():
    # an explicit size is audited as given, zero included, not replaced
    # by the default of 8
    out = _run(["verify", "--claim", "uniqueness", "--n", "0"])
    assert out.returncode == 2 and not out.stdout
    assert "uniqueness audit covers 5 <= n <= 9" in out.stderr


def test_size_for_another_claim_exit_two():
    # --n sizes the uniqueness audit alone; another claim refuses it
    # rather than run without it
    out = _run(["verify", "--claim", "eq2", "--n", "3"])
    assert out.returncode == 2 and not out.stdout
    assert "only to the uniqueness audit" in out.stderr


def test_catalog_for_a_claim_without_one_exit_two(tmp_path):
    # --catalog is read by the catalog claims alone; another claim
    # refuses it rather than run without it, and makes no directory
    missing = tmp_path / "no" / "catalog"
    out = _run(["verify", "--claim", "eq2", "--catalog", str(missing)])
    assert out.returncode == 2 and not out.stdout
    assert "read a catalog, not eq2" in out.stderr
    assert not (tmp_path / "no").exists()


def test_screen_with_catalog_dir(tmp_path, catalog7):
    cat = tmp_path / "catalog"
    catalog7.save(str(cat))
    out = _run(
        ["screen", "--catalog", str(cat)],
        stdin=write_graph6(slim_complete(6)) + "\nDsW\n",
    )
    lines = [json.loads(l) for l in out.stdout.splitlines()]
    assert [l["is_line"] for l in lines] == [True, False]


@pytest.mark.parametrize("command,option", [
    (["catalog", "build", "--nmax", "5", "--out", "unused"], "--jobs"),
    (["screen"], "--jobs"),
    (["verify", "--claim", "uniqueness", "--n", "5"], "--jobs"),
    (["verify", "--claim", "uniqueness", "--n", "5"], "--sample"),
], ids=["catalog-jobs", "screen-jobs", "verify-jobs", "verify-sample"])
def test_no_pool_or_sample_options_exit_two(command, option):
    # every subcommand runs in one process over all of its inputs
    out = _run([*command, option, "2"])
    assert out.returncode == 2
    assert f"unrecognized arguments: {option}" in out.stderr


@pytest.mark.parametrize("command", [
    ["screen"],
    ["verify", "--claim", "prop2.1"],
], ids=["screen", "verify"])
def test_no_nmax_outside_catalog_build_exit_two(command):
    # a loaded catalog fixes its own depth; only ``catalog build`` sets one
    out = _run([*command, "--nmax", "9"], stdin="DsW\n")
    assert out.returncode == 2
    assert "unrecognized arguments: --nmax" in out.stderr


def test_verify_claim_choices_are_the_verify_claims():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    claim = next(a for a in sub.choices["verify"]._actions if a.dest == "claim")
    assert claim.choices == CLAIMS


@pytest.mark.parametrize("command", [
    ["catalog", "build", "--nmax", "5", "--out"],
    ["screen", "--catalog"],
], ids=["catalog", "screen"])
def test_unwritable_out_exit_two_before_the_build(tmp_path, command):
    (tmp_path / "file").write_text("")
    out = _run([*command, str(tmp_path / "file" / "sub")], stdin="DsW\n")
    assert out.returncode == 2 and not out.stdout
    assert "Traceback" not in out.stderr and "error: cannot write catalog" in out.stderr
    assert "n=5:" not in out.stderr


def test_catalog_build_writes_directory(tmp_path):
    out = _run(["catalog", "build", "--nmax", "5", "--out", str(tmp_path / "c5")])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["counts"] == {"5": 2}
    # the directory holds what ``MfsCatalog.load`` reads and nothing else
    meta = json.loads((tmp_path / "c5" / "catalog.json").read_text())
    assert sorted(meta) == ["checksum", "counts", "n_max"]
    assert (tmp_path / "c5" / "witness" / "mfs5_0.json").exists()
    assert not (tmp_path / "c5" / "g6").exists()


def test_main_function_direct(capsys):
    rc = main(["verify", "--claim", "eq2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["claim"] == "eq2"


def test_catalog_env_var(tmp_path, catalog7, monkeypatch):
    cat = tmp_path / "envcat"
    catalog7.save(str(cat))
    monkeypatch.setenv("HOFFLINE_CATALOG", str(cat))
    proc = subprocess.run(
        [sys.executable, "-m", "hoffline.cli", "screen"],
        input="DsW\n",
        capture_output=True,
        text=True,
        env={**os.environ, "HOFFLINE_CATALOG": str(cat)},
        timeout=300,
    )
    assert json.loads(proc.stdout)["is_line"] is False


def test_sums_bad_edge_line_exit_two(tmp_path):
    f = tmp_path / "bad.hg"
    f.write_text("s=2 f=1\n0 x\n")
    out = _run(["sums", "--F", str(f), "--slim-k", "2"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "bad edge line" in out.stderr


@pytest.mark.parametrize("content", [None, b"s=1 f=0\n\xff\xfe\n"])
def test_sums_unreadable_F_exit_two(tmp_path, content):
    f = tmp_path / "f.hg"
    if content is not None:
        f.write_bytes(content)
    out = _run(["sums", "--F", str(f), "--slim-k", "2"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "cannot read --F" in out.stderr


def test_screen_partial_catalog_exit_two(tmp_path, catalog7):
    import shutil

    cat = tmp_path / "partial"
    catalog7.save(str(cat))
    shutil.rmtree(cat / "witness")
    out = _run(["screen", "--catalog", str(cat)], stdin="DsW\n")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "unreadable catalog" in out.stderr
    (cat / "catalog.json").write_text('{"n_max": 7}')
    out = _run(["screen", "--catalog", str(cat)], stdin="DsW\n")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args,message", [
    (["--slim-k", "-1"], "slim_count"),
    (["--slim-k", "2", "--classes", "H1,H9"], "H9"),
    (["--slim-k", "2", "--classes", ""], "unknown part classes"),
    (["--slim-k", "2", "--ck", "-1"], "component_count"),
])
def test_sums_bad_size_or_class_exit_two(tmp_path, args, message):
    f = tmp_path / "h1.hg"
    f.write_text("s=1 f=1\n0 1\n")
    out = _run(["sums", "--F", str(f), *args])
    assert out.returncode == 2 and not out.stdout
    assert "Traceback" not in out.stderr and "error:" in out.stderr and message in out.stderr


@pytest.mark.parametrize(
    "n_max", [10, "8", 4, None, 9], ids=["ten", "string", "four", "null", "raised"]
)
def test_catalog_with_bad_n_max_exit_two(tmp_path, catalog7, n_max):
    cat = tmp_path / "cat"
    catalog7.save(str(cat))
    meta = json.loads((cat / "catalog.json").read_text())
    (cat / "catalog.json").write_text(json.dumps({**meta, "n_max": n_max}))
    for command in (["verify", "--claim", "prop2.1"], ["screen"]):
        out = _run([*command, "--catalog", str(cat)], stdin="DsW\n")
        assert out.returncode == 2 and not out.stdout
        assert "Traceback" not in out.stderr and "error: unreadable catalog" in out.stderr


def test_catalog_with_boolean_count_exit_two(tmp_path, catalog8):
    # true is 1 to range() and to the checksum, so a count of true where
    # the count is 1 would load unless counts are refused as n_max is
    cat = tmp_path / "cat"
    catalog8.save(str(cat))
    meta = json.loads((cat / "catalog.json").read_text())
    assert meta["counts"]["8"] == 1
    meta["counts"]["8"] = True
    (cat / "catalog.json").write_text(json.dumps(meta))
    for command in (["verify", "--claim", "prop2.1"], ["screen"]):
        out = _run([*command, "--catalog", str(cat)], stdin="DsW\n")
        assert out.returncode == 2 and not out.stdout
        assert "Traceback" not in out.stderr and "error: unreadable catalog" in out.stderr


def test_catalog_with_negative_count_exit_two(tmp_path, catalog8):
    # range() reads -1 as 0 and the checksum hashes the counts of the
    # members read, so a count of -1 where the count is 0 would load
    # unless counts below 0 are refused
    cat = tmp_path / "cat"
    MfsCatalog(n_max=9, entries={**catalog8.entries, 9: []}).save(str(cat))
    meta = json.loads((cat / "catalog.json").read_text())
    assert meta["counts"]["9"] == 0
    meta["counts"]["9"] = -1
    (cat / "catalog.json").write_text(json.dumps(meta))
    out = _run(["verify", "--claim", "prop2.1", "--catalog", str(cat)])
    assert out.returncode == 2 and not out.stdout
    assert "Traceback" not in out.stderr and "error: unreadable catalog" in out.stderr


def test_catalog_with_a_member_listed_twice_exit_two(tmp_path, catalog7):
    # every witness file and the checksum agree with a catalog that holds
    # one class twice, which has the right count of members at n = 5
    cat = tmp_path / "cat"
    five = MfsCatalog(n_max=5, entries={5: catalog7.entries[5]})
    five.save(str(cat))
    witness = cat / "witness"
    (witness / "mfs5_1.json").write_text((witness / "mfs5_0.json").read_text())
    meta = json.loads((cat / "catalog.json").read_text())
    twice = MfsCatalog(n_max=5, entries={5: [five.entries[5][0]] * 2})
    (cat / "catalog.json").write_text(json.dumps({**meta, "checksum": twice.checksum()}))
    out = _run(["verify", "--claim", "prop2.1", "--catalog", str(cat)])
    assert out.returncode == 2 and not out.stdout
    assert "Traceback" not in out.stderr and "mfs5_1 repeats the class" in out.stderr


@pytest.mark.parametrize("command", ["recognize", "covers", "spectral", "screen"])
def test_non_ascii_stdin_exit_two(tmp_path, catalog7, command):
    # stdin is read as bytes, so a byte that is not UTF-8 is a malformed
    # graph6 line, whatever the locale's encoding
    args = [command]
    if command == "screen":
        catalog7.save(str(tmp_path / "cat"))
        args += ["--catalog", str(tmp_path / "cat")]
    proc = subprocess.run(
        [sys.executable, "-m", "hoffline.cli", *args],
        input=b"\xff\n",
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    stderr = proc.stderr.decode()
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in stderr and "error:" in stderr


def test_catalog_bad_nmax_makes_no_directory(tmp_path):
    out = _run(["catalog", "build", "--nmax", "4", "--out", str(tmp_path / "X")])
    assert out.returncode == 2 and not out.stdout
    assert "catalog sizes run from 5 to 9" in out.stderr
    assert not (tmp_path / "X").exists()
