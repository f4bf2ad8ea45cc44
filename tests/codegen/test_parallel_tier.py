"""The read gate of ``chunk_plan`` on real programs.

A map may be split into chunks along one parameter only if no chunk
reads what another chunk writes; scatter strips rest on that proof
(DESIGN §9).  These cases run the proof over the maps of whole
programs, through the helper that ``tests/robustness/
test_write_conflicts.py`` uses for its single-map cases.
"""

from repro.workloads import kernels
from repro.workloads.polybench import get

from tests.robustness.test_write_conflicts import _plans


class TestReadGate:
    def test_own_row_and_other_plane_reads_stay_parallel(self):
        """jacobi-2d reads plane ``t % 2`` and writes ``(t + 1) % 2``;
        adi's sweeps read their own row.  Neither touches another
        chunk's writes."""
        for sdfg in (kernels.jacobi2d_sdfg(), get("adi").make_sdfg()):
            plans = _plans(sdfg).values()
            assert any(param is not None for param, _ in plans)
            assert not [why for _, why in plans if why and "other chunks" in why]

    def test_read_of_another_chunks_row_is_refused(self):
        refusals = [why for _, why in _plans(get("floyd-warshall").make_sdfg()).values()]
        assert any(why and "map reads 'paths'[k, j], which other chunks may write" in why
                   for why in refusals), refusals
