"""Property-based tests (hypothesis) for the priority queues with attrition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em.config import EMConfig
from repro.em.storage import StorageManager
from repro.pqa import IOCPQA, SundarPQA, check_queue_invariants


def make_storage():
    return StorageManager(EMConfig(block_size=16, memory_blocks=16))


keys = st.integers(min_value=0, max_value=10_000)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys),
        st.tuples(st.just("delete"), st.just(0)),
        st.tuples(st.just("catenate"), st.lists(keys, max_size=8)),
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(operations)
def test_iocpqa_always_agrees_with_oracle(ops):
    """The external queue and the internal oracle stay observationally equal."""
    storage = make_storage()
    queue = IOCPQA.empty(storage, record_capacity=4)
    oracle = SundarPQA()
    for kind, payload in ops:
        if kind == "insert":
            queue = queue.insert_and_attrite(payload)
            oracle.insert_and_attrite(payload, None)
        elif kind == "delete":
            item, queue = queue.delete_min()
            expected = oracle.delete_min()
            assert (item is None) == (expected is None)
            if item is not None:
                assert item[0] == expected[0]
        else:
            items = [(key, None) for key in payload]
            queue = queue.catenate_and_attrite(
                IOCPQA.build(storage, items, 4)
            )
            oracle.catenate_and_attrite(SundarPQA(items))
        assert queue.min_key() == (oracle.find_min()[0] if oracle.find_min() else None)
    assert queue.keys() == oracle.keys()
    check_queue_invariants(queue)


@settings(max_examples=60, deadline=None)
@given(st.lists(keys, max_size=100))
def test_queue_content_is_strictly_increasing(values):
    """Invariant C.1: after any insert sequence the content is increasing."""
    storage = make_storage()
    queue = IOCPQA.empty(storage, record_capacity=4)
    for value in values:
        queue = queue.insert_and_attrite(value)
    content = queue.keys()
    assert all(a < b for a, b in zip(content, content[1:]))
    check_queue_invariants(queue)


@settings(max_examples=40, deadline=None)
@given(st.lists(keys, min_size=1, max_size=60), st.lists(keys, min_size=1, max_size=60))
def test_catenation_equals_filter_then_concat(first_values, second_values):
    """CatenateAndAttrite(Q1, Q2) == {e in Q1 | e < min(Q2)} ++ Q2."""
    storage = make_storage()
    first = IOCPQA.build(storage, [(v, None) for v in first_values], 4)
    second = IOCPQA.build(storage, [(v, None) for v in second_values], 4)
    first_keys = first.keys()
    second_keys = second.keys()
    combined = first.catenate_and_attrite(second)
    cutoff = second_keys[0] if second_keys else None
    expected = (
        [k for k in first_keys if cutoff is None or k < cutoff] + second_keys
    )
    assert combined.keys() == expected


def attrite_one_by_one(keys):
    """Reference InsertAndAttrite replay: each new key evicts every
    survivor whose key is >= it (an equal key evicts too)."""
    survivors = []
    for index, key in enumerate(keys):
        survivors = [item for item in survivors if item[0] < key]
        survivors.append((key, index))
    return survivors


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), max_size=120))
def test_bulk_builds_match_one_by_one_attrition(values):
    """build and build_in_memory keep exactly the survivors (and payloads)
    of inserting the items one at a time, duplicates included."""
    items = [(key, index) for index, key in enumerate(values)]
    expected = attrite_one_by_one(values)
    storage = make_storage()
    assert IOCPQA.build(storage, items, 4).items() == expected
    assert IOCPQA.build_in_memory(storage, items, 4).items() == expected


def test_equal_key_evicts_the_earlier_item():
    storage = make_storage()
    items = [(3, "a"), (5, "b"), (5, "c"), (4, "d"), (4, "e")]
    assert IOCPQA.build(storage, items, 4).items() == [(3, "a"), (4, "e")]
    assert IOCPQA.build_in_memory(storage, items, 4).items() == [(3, "a"), (4, "e")]
