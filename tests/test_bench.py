"""The benchmark's calls into the package still resolve and run.

bench/ wraps package attributes by name (tracing.TARGETS), replaces
DeviceEndpoint.expected_result while a SramScan runs, and builds its
workloads from the package's public classes. A change that breaks any of
these would otherwise show only when the benchmark itself runs. Nothing
under bench/ is edited here: its modules are imported as the benchmark
imports them, with bench/ on sys.path.
"""

import os

import pytest

from timecheck import protocol

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)


def test_tracer_wraps_every_target_and_restores_it(bench_path):
    import tracing
    import workloads  # noqa: F401  (imports every package module a run uses)

    tracer = tracing.Tracer()
    tracer.install()  # raises if a TARGETS attribute no longer resolves
    patched = list(tracer._patches)  # (owner, attribute, original)
    try:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert len(patched) >= len(tracing.TARGETS)
    assert all(callable(original) for _, _, original in patched)
    assert {kind for *_, kind in tracing.TARGETS.values()} <= {"span", "counter"}
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)


def test_sram_scan_runs_and_restores_expected_result(bench_path, tmp_path):
    import workloads

    original = protocol.DeviceEndpoint.__dict__["expected_result"]
    wl = workloads.SramScan(seed=1, workdir=str(tmp_path))
    try:
        wl.build()
        failed, _ = wl.check(wl.op(0))
    finally:
        wl.close()
    assert not failed
    assert protocol.DeviceEndpoint.__dict__["expected_result"] is original


def test_desk_loopback_session_passes_its_check(bench_path, tmp_path):
    import workloads

    wl = workloads.DeskLoopback(seed=1, workdir=str(tmp_path))
    try:
        wl.build()
        failed, _ = wl.check(wl.op(0))
    finally:
        wl.close()
    assert not failed


@pytest.mark.parametrize("name", ["Reports", "DeskTcp"])
def test_workload_runs_one_operation_and_finishes(bench_path, tmp_path, name):
    # DeskTcp serves from a child process and replays its challenges on a twin
    import workloads

    wl = getattr(workloads, name)(seed=1, workdir=str(tmp_path))
    try:
        wl.build()
        rec = wl.op(0)
        failed, _ = wl.check(rec)
        _, problems = wl.finish([rec], [rec])
    finally:
        wl.close()
    assert not failed
    assert problems == []
