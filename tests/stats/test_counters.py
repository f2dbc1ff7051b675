"""Block census (the Fig.-3 left-bar machinery)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.trace import READ, WRITE, unique_segments
from repro.stats.counters import BlockCensus


def record(census, core, blocks, writes=None):
    """Fold one trace, given per reference, through its unique segments."""
    writes = [False] * len(blocks) if writes is None else writes
    runs = [x for b, w in zip(blocks, writes) for x in (b, b + 1, 1, WRITE if w else READ)]
    census.record(core, unique_segments(tuple(runs)))


class TestClassification:
    def test_single_core_is_private(self):
        c = BlockCensus(16)
        record(c, 3, [1, 2, 3], [True, False, False])
        census = c.rnuca_census()
        assert census.private == 3
        assert census.shared == 0

    def test_multi_core_clean_is_shared_ro(self):
        c = BlockCensus(16)
        record(c, 0, [1])
        record(c, 1, [1])
        assert c.rnuca_census().shared_read_only == 1

    def test_multi_core_written_is_shared(self):
        c = BlockCensus(16)
        record(c, 0, [1], [True])
        record(c, 1, [1])
        assert c.rnuca_census().shared == 1

    def test_write_by_any_core_counts(self):
        c = BlockCensus(16)
        record(c, 0, [1])
        record(c, 1, [1], [True])
        assert c.rnuca_census().shared == 1

    def test_queries(self):
        c = BlockCensus(16)
        record(c, 2, [5], [True])
        record(c, 7, [5])
        assert c.cores_of(5) == [2, 7]
        assert c.was_written(5)
        assert not c.was_written(99)


class TestAggregation:
    def test_unique_blocks(self):
        c = BlockCensus(16)
        record(c, 0, [1, 1, 2, 2, 2])
        assert c.unique_blocks == 2

    def test_write_aggregated_within_trace(self):
        c = BlockCensus(16)
        record(c, 0, [7, 7], [False, True])
        assert c.was_written(7)

    def test_touched_blocks(self):
        c = BlockCensus(16)
        record(c, 0, [3, 1])
        assert sorted(c.touched_blocks().tolist()) == [1, 3]

    def test_fractions_sum_to_one(self):
        c = BlockCensus(16)
        record(c, 0, [1, 2], [True, False])
        record(c, 1, [2, 3])
        fr = c.rnuca_census().fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_empty_trace_noop(self):
        c = BlockCensus(16)
        record(c, 0, [])
        assert c.unique_blocks == 0

    def test_bad_core(self):
        c = BlockCensus(4)
        with pytest.raises(ValueError):
            record(c, 4, [1])


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=20),
        ),
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_census_matches_reference(traces):
    """The segment-fed census agrees with a naive per-access model."""
    census = BlockCensus(4)
    ref: dict[int, tuple[set, bool]] = {}
    for core, accesses in traces:
        blocks = [b for b, _ in accesses]
        writes = [w for _, w in accesses]
        record(census, core, blocks, writes)
        for b, w in accesses:
            cores, written = ref.get(b, (set(), False))
            cores.add(core)
            ref[b] = (cores, written or w)
    assert census.unique_blocks == len(ref)
    priv = sum(1 for cores, _ in ref.values() if len(cores) == 1)
    ro = sum(1 for cores, w in ref.values() if len(cores) > 1 and not w)
    sh = sum(1 for cores, w in ref.values() if len(cores) > 1 and w)
    got = census.rnuca_census()
    assert (got.private, got.shared_read_only, got.shared) == (priv, ro, sh)
