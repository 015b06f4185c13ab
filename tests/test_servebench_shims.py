"""The serving benchmark's timing shims still fit the program.

``servebench/ledger.py`` patches each layer's public entry points by
name for the traced benchmark run.  These tests install and remove
the shims in-process, so renaming a shimmed entry point (or changing
how a shimmed call is made) fails here, not only in a traced run.
"""

from __future__ import annotations

import importlib.util
import pathlib

from repro.mediator import FanoutPolicy, MatViewPolicy
from repro.workloads import bibdb

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "servebench" / "ledger.py"


def load_ledger():
    spec = importlib.util.spec_from_file_location("servebench_ledger", LEDGER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores_every_attribute():
    recorder = load_ledger().Recorder()
    recorder.install()
    try:
        patched = list(recorder._patches)
        assert patched
        for owner, attribute, original in patched:
            assert owner.__dict__[attribute] is not original
    finally:
        recorder.uninstall()
    for owner, attribute, original in patched:
        assert owner.__dict__[attribute] is original


def test_shims_record_a_sharded_union_request():
    mediator = bibdb.sharded_federation(
        n_sources=2, n_docs=8, fanout=FanoutPolicy(), cache=MatViewPolicy()
    )
    recorder = load_ledger().Recorder()
    recorder.install()
    try:
        recorder.open_request()
        mediator.materialize_union("journalArticles")
        recorder.close_request()
    finally:
        recorder.uninstall()
        mediator.close()
    names = {span[3] for span in recorder.spans}
    assert {
        "serve.request",
        "mediator.union",
        "matview.probe",
        "matview.store",
        "fanout.fan_out",
        "transport.call",
        "sharding.query",
        "engine.eval",
    } <= names
