"""The region-WAR API: ``RegionWARAnalysis.findings()``.

The WAR verifier, the idempotence certifier and the elision trials all
read one generator.  It yields each WAR once, in program order, as the
walk reaches the write, so a consumer that takes only the first finding
(a non-forced elision trial) stops the walk at that store instead of at
the end of its block.
"""

from repro.analysis import AliasAnalysis, loop_info
from repro.analysis.alias import PRECISE
from repro.analysis.memdep import FORWARD
from repro.analysis.pointsto import compute_points_to
from repro.analysis.static_war import RegionWARAnalysis
from repro.core import environment, run_middle_end
from repro.frontend import compile_sources

#: three independent read-modify-writes in one block, one WAR each
THREE_RMWS = """
unsigned int a; unsigned int b; unsigned int c;
int main(void) {
    a = a + 1u;
    b = b + 2u;
    c = c + 3u;
    return 0;
}
"""


class RecordingAnalysis(RegionWARAnalysis):
    """Records every write the walk checks against the exposed reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = []

    def _war_kind(self, fact_instr, flags, store):
        self.checked.append(store)
        return super()._war_kind(fact_instr, flags, store)


def _analysis():
    module = compile_sources([THREE_RMWS], "rmw")
    run_middle_end(module, environment("plain"))
    function = module.get_function("main")
    aa = AliasAnalysis(function, PRECISE,
                       points_to=compute_points_to(module))
    return RecordingAnalysis(function, aa, loop_info(function), True)


def test_each_war_once_in_program_order():
    findings = list(_analysis().findings())
    assert [kind for _read, _write, kind in findings] == [FORWARD] * 3
    writes = [write for _read, write, _kind in findings]
    block = writes[0].parent
    assert all(write.parent is block for write in writes)
    assert [block.index_of(w) for w in writes] == sorted(
        block.index_of(w) for w in writes)
    assert len({(id(r), id(w)) for r, w, _kind in findings}) == 3


def test_first_finding_stops_the_walk_at_its_store():
    analysis = _analysis()
    _read, first_write, _kind = next(analysis.findings())
    # the solve checks no write; the walk checked only the first store
    assert analysis.checked and all(
        write is first_write for write in analysis.checked)
