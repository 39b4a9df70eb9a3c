"""The attack-vs-defense arms race, end to end on the real victim.

The acceptance experiment for the detect-and-recover runtime: under a
mid-intensity strike the defense buys back a measurable amount of
accuracy for a reported replay overhead, and on unattacked traffic it
costs nothing.
"""

import pytest

from repro.defense import ArmsRaceStudy, default_defenses

#: The repo's standard mid-intensity operating point: the default attack
#: bank (DEFAULT_ATTACK_CELLS) at the strike count the Fig 5(b)
#: experiments use against conv2.
MID_CELLS = 5500
STRIKES = 4500


@pytest.fixture(scope="module")
def study(victim):
    return ArmsRaceStudy(victim.quantized,
                         victim.dataset.test_images[:64],
                         victim.dataset.test_labels[:64],
                         seed=3)


@pytest.fixture(scope="module")
def mid_cells(study):
    return study.sweep([(MID_CELLS, STRIKES)])


class TestArmsRace:
    def test_defense_buys_back_accuracy_under_attack(self, mid_cells):
        undefended = next(c for c in mid_cells if c.defense == "none")
        recovered = next(c for c in mid_cells if c.defense == "recover")
        # Direction 1: the attack hurts, and the defense measurably
        # repairs it.
        assert undefended.accuracy_drop > 0.05
        assert recovered.attacked_accuracy \
            >= undefended.attacked_accuracy + 0.05
        assert recovered.residual_mismatch_rate \
            < undefended.residual_mismatch_rate
        # The repair is bought with replays, and the bill is itemised.
        assert recovered.razor_flags > 0
        assert recovered.replays > 0
        assert recovered.replay_overhead > 0.0
        assert undefended.replay_overhead == 0.0

    def test_defense_costs_nothing_without_an_attack(self, study):
        """Direction 2: zero striker cells -> no droop, no faults, no
        flags, no replays — the hardened engine's overhead is exactly 0
        and its outputs match the undefended engine's."""
        quiet = study.sweep([(0, STRIKES)])
        undefended = next(c for c in quiet if c.defense == "none")
        recovered = next(c for c in quiet if c.defense == "recover")
        assert undefended.accuracy_drop == 0.0
        assert recovered.accuracy_drop == 0.0
        assert recovered.attacked_accuracy == undefended.attacked_accuracy
        assert recovered.replay_overhead == 0.0
        assert recovered.razor_flags == 0
        assert recovered.replays == 0

    def test_cells_reproduce_in_isolation(self, study, mid_cells):
        """Per-cell blake2s seeds: re-running one grid cell alone gives
        the identical record, replayed layers included."""
        label, recovery = default_defenses()[1]
        rerun = study.run_cell(MID_CELLS, STRIKES, recovery, label)
        original = next(c for c in mid_cells if c.defense == label)
        assert rerun == original

    def test_intensity_escalation_overwhelms_nothing_yet(self, study):
        """At the sweep's high end the half-rate replay still clears the
        droop: recovery holds while the undefended drop deepens."""
        cells = study.sweep([(8000, STRIKES)])
        undefended = next(c for c in cells if c.defense == "none")
        recovered = next(c for c in cells if c.defense == "recover")
        assert undefended.accuracy_drop > 0.2
        assert recovered.accuracy_drop <= 0.05
        assert recovered.exhausted == 0
