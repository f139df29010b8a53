"""The committed output sweep.  tools/sweep.py runs a fixed, seeded list of
CLI calls and records each call's exit code and output digest in
tests/data/sweep.json; tier-1 checks every FAST_STRIDE-th call, and CI runs
the whole list, against the source tree and against the installed package."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", os.path.join(ROOT, "tools", "sweep.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_subset_matches_the_record():
    sweep = load_sweep()
    recorded = json.loads(sweep.RECORD.read_text())
    assert sweep.differences(recorded, sweep.sweep(fast=True), complete=False) == []


def test_the_record_holds_the_call_list_in_order():
    sweep = load_sweep()
    recorded = json.loads(sweep.RECORD.read_text())
    assert [(r["argv"], r.get("input"), r.get("env")) for r in recorded] == sweep.call_list()


def test_a_changed_output_changes_its_digest(tmp_path):
    sweep = load_sweep()
    argv = ["polygon", "deep-typea", "--rank", "3", "--field", "q", "--json"]
    assert sweep.run((argv, None), str(tmp_path)) == sweep.run((argv, None), str(tmp_path))
    other = ["polygon", "deep-typea", "--rank", "7", "--field", "q", "--json"]
    assert sweep.run((argv, None), str(tmp_path))["sha256"] != sweep.run((other, None), str(tmp_path))["sha256"]


def test_each_differing_call_is_named(tmp_path):
    sweep = load_sweep()
    argvs = [["polygon", "deep-typea", "--rank", str(rank), "--field", "q", "--json"] for rank in (3, 5, 7)]
    found = [sweep.run((argv, None), str(tmp_path)) for argv in argvs]
    recorded = [dict(found[0], sha256="0" * 64), found[1], dict(found[2], argv=argvs[2][:-1])]
    lines = sweep.differences(recorded, found)
    assert [line.split(":")[0] for line in lines] == ["differs", "not recorded", "recorded, not called"]
    assert json.dumps([argvs[0], None]) in lines[0] and "0" * 64 in lines[0]
    assert json.dumps([argvs[2], None]) in lines[1]
    assert sweep.differences(recorded, found[:1], complete=False) == lines[:1]
