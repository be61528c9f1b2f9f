"""The benchmark's traced run wraps package functions at the names their
callers look up (``bench/run.py::install_tracing``). Renaming or deleting one
of them breaks the benchmark; this catches it without running a workload."""

import types

from m2dne import evaluate, graph, logreg, macro, micro, train, util


def namespaces():
    """Every package module and every class it defines."""
    for mod in (evaluate, graph, logreg, macro, micro, train, util):
        yield mod
        yield from (value for value in vars(mod).values()
                    if isinstance(value, type)
                    and value.__module__ == mod.__name__)


def attributes():
    return {(ns.__name__, name): value for ns in namespaces()
            for name, value in vars(ns).items()}


def test_traced_names_exist_and_are_restored(bench_run):
    from tracer import Tracer

    program = bench_run.Program(graph, train, evaluate, macro, micro, logreg,
                                util)
    tracer = Tracer("name-contract")
    bench_run.install_tracing(program, tracer)
    before = attributes()
    with tracer:
        during = attributes()
    after = attributes()

    wrapped = [key for key, value in before.items() if during[key] is not value]
    assert wrapped, "tracing wrapped nothing"
    assert all(isinstance(during[key], types.FunctionType) for key in wrapped)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
