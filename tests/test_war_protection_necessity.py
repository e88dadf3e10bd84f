"""Negative tests: the protection mechanisms are *necessary*, not just
present.  Each test removes one ingredient of the WARio/Ratchet scheme
and shows the emulator's verifier catching the resulting corruption
hazard — mirroring how the paper's emulator validated the system
(§5.1.1, WAR Violation Absence Verification).
"""

from repro import Machine, iclang
from repro.core import environment, run_middle_end
from repro.backend import encode_module, lower_module
from repro.frontend import compile_source

SRC = """
unsigned int a[24]; unsigned int total;
int main(void) {
    int i; unsigned int t = 0;
    for (i = 0; i < 24; i++) {
        a[i] = a[i] + 3;
        t = t + a[i];
    }
    total = t;
    return 0;
}
"""

SRC_CALLS = """
unsigned int g;
unsigned int churn(unsigned int x) {
    int i;
    for (i = 0; i < 30; i++) { x = x * 3 + 1; x = x ^ (x >> 4); }
    return x;
}
int main(void) {
    int k;
    for (k = 0; k < 8; k++) { g = churn(g + (unsigned int)k); }
    return 0;
}
"""


def test_middle_end_checkpoints_are_necessary():
    """Without the checkpoint inserter, the loop's WARs are naked."""
    machine = Machine(iclang(SRC, "plain"), war_check=True)
    machine.run()
    assert not machine.war.clean
    assert len(machine.war.violations) >= 24


def test_full_instrumentation_is_sufficient():
    for env in ("ratchet", "wario"):
        machine = Machine(iclang(SRC, env), war_check=True)
        machine.run()
        assert machine.war.clean, env


def test_unprotected_epilogue_is_a_hazard_under_interrupts():
    """Middle-end checkpoints alone do not protect the epilogue: an
    interrupt arriving after the pop-reads writes the just-read stack
    slots.  The pop converter / epilog optimizer close exactly this."""
    module = compile_source(SRC_CALLS)
    config = environment("r-pdg")
    run_middle_end(module, config)
    # Lower with middle-end checkpoints and entry checkpoints, but a
    # *plain* (unprotected) epilogue.
    program = encode_module(lower_module(
        module,
        spill_checkpoint_mode="basic",
        epilogue_style="plain",
        entry_checkpoints=True,
    ))
    machine = Machine(program, war_check=True, interrupt_interval=37)
    machine.run()
    assert not machine.war.clean, (
        "an unprotected epilogue must be flagged under interrupt pressure"
    )


def test_protected_epilogues_survive_interrupts():
    for env in ("ratchet", "wario"):
        machine = Machine(iclang(SRC_CALLS, env), war_check=True, interrupt_interval=37)
        machine.run()
        assert machine.war.clean, env


def test_entry_checkpoints_are_necessary():
    """The middle end skips WARs whose read and write are separated by a
    call, because the callee's entry checkpoint breaks them.  Removing
    the entry checkpoints reopens exactly those cross-call WARs."""
    src = """
    unsigned int g; unsigned int out;
    void poke(void) {
        /* write-only on g: no internal WAR, hence no internal
           checkpoint precedes the store */
        int i;
        unsigned int acc = 0;
        for (i = 0; i < 30; i++) {
            acc = acc * 5 + 7;
            acc = acc ^ (acc >> 3);
            acc = acc - (acc >> 5);
            acc = acc | 1;
            acc = acc + (acc % 13);
            acc = acc ^ 0xABCD;
        }
        g = acc;
    }
    int main(void) {
        unsigned int x = g;    /* read g ... */
        poke();                /* ... callee writes g: WAR across the call */
        out = x + 1;
        return 0;
    }
    """
    module = compile_source(src)
    config = environment("r-pdg")
    run_middle_end(module, config)
    program = encode_module(lower_module(
        module,
        spill_checkpoint_mode="basic",
        epilogue_style="ratchet",
        entry_checkpoints=False,   # <- removed ingredient
    ))
    machine = Machine(program, war_check=True)
    machine.run()
    assert not machine.war.clean

    # with the entry checkpoints restored, the same build is clean
    program = encode_module(lower_module(
        module,
        spill_checkpoint_mode="basic",
        epilogue_style="ratchet",
        entry_checkpoints=True,
    ))
    machine = Machine(program, war_check=True)
    machine.run()
    assert machine.war.clean


def test_results_correct_even_when_unprotected_under_continuous_power():
    """The hazards above only bite on power failure/interrupts; under
    continuous power the unprotected build still computes correctly —
    which is exactly why WAR bugs are so easy to ship."""
    machine = Machine(iclang(SRC, "plain"), war_check=False)
    machine.run()
    assert machine.read_global("a", 24) == [3] * 24
    assert machine.read_global("total") == 72
