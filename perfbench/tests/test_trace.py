"""Span recording and self-time arithmetic."""

from perfbench.trace import SpanRecorder, layer_totals, self_times


def test_self_time_subtracts_nested_children():
    # root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [30, 20, 10, 40]
    assert sum(self_times(starts, ends, parents)) == 100


def test_self_time_counts_overlapping_children_once_and_clips():
    # children [10,50) and [30,70) overlap; [90,120) overhangs the parent
    starts = [0, 10, 30, 90]
    ends = [100, 50, 70, 120]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 100 - 60 - 10


def test_wrapper_records_parents_and_request_ids():
    request = [7]
    recorder = SpanRecorder(lambda: request[0])

    def inner(x):
        return x + 1

    traced_inner = recorder.wrap("layer.inner", inner)
    traced_outer = recorder.wrap("layer.outer", lambda x: traced_inner(x) * 2)
    assert traced_outer(1) == 4
    request[0] = 8
    assert traced_inner(5) == 6
    names = [recorder.names[i] for i in recorder.name]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert list(recorder.parent) == [-1, 0, -1]
    assert list(recorder.request) == [7, 7, 8]
    totals = layer_totals(recorder, [(7, 7)])
    assert totals["layer.inner"]["calls"] == 1
    outer = totals["layer.outer"]
    assert outer["self_ns"] == outer["total_ns"] - totals["layer.inner"]["total_ns"]


def test_wrapper_records_span_when_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("x")

    traced = recorder.wrap("layer.boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert len(recorder.start) == 1
    assert recorder.end[0] >= recorder.start[0]
    assert recorder._stack == []


def test_dump_and_load_round_trip(tmp_path):
    recorder = SpanRecorder(lambda: 3)
    inner = recorder.wrap("b", len, measure=lambda args, result: (result, 7))
    outer = recorder.wrap("a", lambda data: inner(data) + 1)
    assert outer(b"four") == 5
    path = str(tmp_path / "spans.bin")
    recorder.dump(path)
    loaded = SpanRecorder.load(path)
    assert loaded.names == ["b", "a"]  # in order of wrapping
    assert [loaded.names[i] for i in loaded.name] == ["a", "b"]
    assert list(loaded.parent) == [-1, 0]
    assert list(loaded.aux) == [0, 4] and list(loaded.aux2) == [0, 7]
    assert list(loaded.request) == [3, 3]
    assert list(loaded.start) == list(recorder.start)
    assert list(loaded.end) == list(recorder.end)
