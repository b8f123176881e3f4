"""The calls that hold whole reduction graphs run with the cyclic
collector paused, and leave it as their caller had it, also when they
raise."""

import gc
import sys

import pytest

from setlam import (
    Fuel, FuelExhausted, explore, graph_to_dot, graph_to_json_dict, is_sn, longest_chain,
    parse_term, parse_untyped,
)
from setlam.cli import main
from setlam.syntax import paused_collector

# Its beta graph is an endless chain, each node one binder deeper.
GROWING = parse_untyped("(\\x. x x) (\\x. \\x0. x x)")
FIGURE = parse_term("(\\x:{a}. x^a) {(\\y:{a}. y^a) {z^a}}")


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    """The collector's state at the call, set for the test and restored after it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


CALLS = {
    "explore": lambda: explore(FIGURE, "im"),
    "longest_chain": lambda: longest_chain(FIGURE, "i"),
    "is_sn": lambda: is_sn(GROWING, Fuel(20, 20)),
    "graph_to_json_dict": lambda: graph_to_json_dict(explore(FIGURE, "i")),
    "graph_to_dot": lambda: graph_to_dot(explore(FIGURE, "i")),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_paused_call_leaves_the_collector_as_it_found_it(name, collector):
    CALLS[name]()
    assert gc.isenabled() is collector


RAISING = {
    "explore of a bogus calculus": (ValueError, lambda: explore(FIGURE, "bogus")),
    "longest_chain on a truncated graph": (
        FuelExhausted, lambda: longest_chain(GROWING, "beta", Fuel(20, 20))),
}


@pytest.mark.parametrize("name", RAISING)
def test_a_paused_call_that_raises_leaves_the_collector_as_it_found_it(name, collector):
    error, call = RAISING[name]
    with pytest.raises(error):
        call()
    assert gc.isenabled() is collector


def test_a_call_nested_in_a_paused_call_changes_nothing(collector):
    @paused_collector
    def outer():
        explore(FIGURE, "i")
        return gc.isenabled()

    assert outer() is False
    assert gc.isenabled() is collector


def _collections_inside_explore(call) -> int:
    """Automatic collections that start while `explore`'s own frame is
    on the stack during call, with the collector on at the default
    thresholds.  The frame test keeps out a collection that starts just
    before or after, such as the one that runs as soon as the collector
    is enabled again."""
    inner = explore.__wrapped__.__code__
    starts = []

    def record(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not inner:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        graph = call()
    finally:
        gc.callbacks.remove(record)
        if not enabled:
            gc.disable()
    assert graph.node_count == 300 and graph.truncated
    return len(starts)


def test_no_collection_starts_inside_explore_of_a_growing_term():
    fuel = Fuel(300, 10_000)
    # Unpaused, the same exploration starts hundreds of collections.
    assert _collections_inside_explore(lambda: explore.__wrapped__(GROWING, "beta", fuel)) > 100
    assert _collections_inside_explore(lambda: explore(GROWING, "beta", fuel)) == 0


def test_a_cli_command_leaves_the_collector_as_it_found_it(collector, tmp_path, capsys):
    path = tmp_path / "t.term"
    path.write_text("(\\x:{a}. x^a) {y^a}", encoding="utf-8")
    assert main(["graph", str(path), "--calculus=i"]) == 0
    assert '"nodeCount": 2' in capsys.readouterr().out
    assert gc.isenabled() is collector
