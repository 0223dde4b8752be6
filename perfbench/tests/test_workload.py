"""Seeded request streams: same seed, same bytes."""

from perfbench.workload import DELETE, GET, SET, Workload, WorkloadSpec


def small_spec(**overrides) -> WorkloadSpec:
    fields = dict(
        name="t", keys=300, capacity=65536, sizes="etc", theta=0.99,
        get_frac=0.8, set_frac=0.15,
        multiget={1: 0.7, 4: 0.3}, cache_aside=True,
        closed_rate=400.0,
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


def test_same_seed_gives_byte_identical_stream():
    first = Workload(small_spec(), seed=7, closed_seconds=1.0)
    second = Workload(small_spec(), seed=7, closed_seconds=1.0)
    assert first.stream_bytes(9000) == second.stream_bytes(9000)


def test_different_seed_gives_different_stream():
    first = Workload(small_spec(), seed=7, closed_seconds=1.0)
    other = Workload(small_spec(), seed=8, closed_seconds=1.0)
    assert first.stream_bytes(1000) != other.stream_bytes(1000)


def test_stream_content_does_not_depend_on_how_it_was_grown():
    # Built for a slow closed loop and grown twice, against built long
    # in one go: the open loop sees the same requests either way.
    grown = Workload(small_spec(), seed=7, closed_seconds=1.0)
    grown.extend(0, 5000)
    grown.extend(1, 300)
    at_once = Workload(small_spec(closed_rate=30000.0), seed=7, closed_seconds=1.0)
    assert grown.stream_bytes(12000) == at_once.stream_bytes(12000)


def test_connections_own_disjoint_keys_and_writes_bump_versions():
    workload = Workload(small_spec(), seed=3, closed_seconds=1.0)
    seen_versions = {}
    for stream in workload.streams:
        for request in stream.requests:
            assert all(k % 2 == stream.conn for k in request.keys)
            if request.kind in (SET, DELETE):
                key = request.keys[0]
                assert request.version > seen_versions.get(key, 0)
                seen_versions[key] = request.version
            else:
                assert request.kind == GET
                assert len(set(request.keys)) == len(request.keys)
    assert seen_versions


def test_values_are_stable_and_sized_per_key():
    workload = Workload(small_spec(), seed=3, closed_seconds=0.5)
    book = workload.book
    assert book.value(5, 0) == book.value(5, 0)
    assert len(book.value(5, 0)) == len(book.value(5, 1))
    assert book.value(5, 0) != book.value(5, 1)
    assert book.set_wire(5, 1).endswith(book.value(5, 1) + b"\r\n")


def test_dataset_shape_is_fixed_and_the_seed_draws_the_rest():
    # Value sizes and popularity order belong to the workload, so the
    # hottest keys do not change size from one seed to the next.
    first = Workload(small_spec(), seed=7, closed_seconds=1.0)
    other = Workload(small_spec(), seed=8, closed_seconds=1.0)
    assert [len(first.book.value(k, 0)) for k in range(300)] == [
        len(other.book.value(k, 0)) for k in range(300)
    ]
    assert first.book.value(5, 0) != other.book.value(5, 0)
    for (_, _, order), (_, _, other_order) in zip(first._sources, other._sources):
        assert list(order) == list(other_order)
