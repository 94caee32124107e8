"""The benchmark resolves kmforge functions by name; a rename must fail here."""

import os
import sys

import kmforge.verify

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_every_layer_point():
    t = tracer.Tracer()
    for name in tracer.LAYER_POINTS:
        assert t._originals[name], name


def test_verify_has_every_unit_mark(tmp_path):
    for w in workloads.WORKLOADS.values():
        for cmd in w.commands(1, str(tmp_path)):
            if cmd.marks:
                assert callable(getattr(kmforge.verify, cmd.marks, None)), (w.name, cmd.marks)
