"""Property tests for the vectorized loss samplers.

Each vector sampler in :mod:`repro.mc.vectorized` claims to be the
*tensor twin* of a scalar model in :mod:`repro.runtime.loss` — same
marginal distributions, drawn from numpy streams instead of
``random.Random``.  The stochastic twins (Bernoulli, Gilbert-Elliott)
are checked with hypothesis-driven statistical properties at very wide
confidence levels plus an exact replication of their recurrences; the
deterministic twins (scripted beacons, trace replay) must agree with
the reference models *exactly*, receiver set by receiver set.

The samplers only touch a handful of program/timeline attributes, so
these tests drive them with minimal stand-ins — no synthesis needed.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc.stats import wilson_interval
from repro.mc.vectorized import (
    VECTOR_SAMPLERS,
    _BernoulliVector,
    _GilbertElliottVector,
    _PerfectVector,
    _ScriptedBeaconVector,
    _TraceReplayVector,
    supports_loss_kind,
)
from repro.runtime.loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    ScriptedBeaconLoss,
    TraceReplayLoss,
    available_loss_kinds,
)
from repro.runtime.simulator import NodePolicy

NODES = ("n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7")
HOST = 2

#: Wide z for CI containment checks — a per-example false-alarm rate
#: around 1e-9, so hypothesis can hammer the property without flakes.
Z_WIDE = 6.0


def fake_program(nodes=NODES):
    return SimpleNamespace(
        node_names=tuple(nodes),
        node_index={name: index for index, name in enumerate(nodes)},
        policy=NodePolicy.BEACON_GATED,
    )


def fake_timeline(rounds, slots, *, seed=0):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        num_rounds=rounds,
        num_slots=slots,
        slot_round=np.sort(
            rng.integers(0, rounds, size=slots)
        ).astype(np.intp),
        slot_sender=rng.integers(0, len(NODES), size=slots).astype(np.intp),
    )


def trial_rngs(master, trials):
    return [np.random.default_rng(master + t) for t in range(trials)]


class TestBernoulliVector:
    @given(
        beacon_loss=st.floats(0.0, 0.9),
        data_loss=st.floats(0.0, 0.9),
        master=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_reception_rates_inside_wilson_ci(
        self, beacon_loss, data_loss, master
    ):
        model = BernoulliLoss(beacon_loss=beacon_loss, data_loss=data_loss)
        timeline = fake_timeline(rounds=60, slots=150)
        sampler = _BernoulliVector(model, fake_program(), timeline, HOST)
        beacon, data = sampler.sample(trial_rngs(master, 8))

        # The host hears every beacon, the sender its own flood —
        # exactly the reference models' ``always`` node.
        assert beacon[:, :, HOST].all()
        assert data[:, np.arange(timeline.num_slots),
                    timeline.slot_sender].all()

        free = np.delete(beacon, HOST, axis=2)
        low, high = wilson_interval(int(free.sum()), free.size, Z_WIDE)
        assert low <= 1.0 - beacon_loss <= high

        unforced = np.ones((timeline.num_slots, len(NODES)), dtype=bool)
        unforced[np.arange(timeline.num_slots), timeline.slot_sender] = False
        cells = data[:, unforced]
        low, high = wilson_interval(int(cells.sum()), cells.size, Z_WIDE)
        assert low <= 1.0 - data_loss <= high

    def test_zero_loss_is_lossless(self):
        sampler = _BernoulliVector(
            BernoulliLoss(), fake_program(), fake_timeline(20, 40), HOST
        )
        beacon, data = sampler.sample(trial_rngs(7, 3))
        assert beacon.all() and data.all()

    def test_trials_draw_from_independent_generators(self):
        """Trial ``t`` consumes only ``rngs[t]`` — the invariant that
        makes results independent of batch splits."""
        timeline = fake_timeline(30, 60)
        sampler = _BernoulliVector(
            BernoulliLoss(beacon_loss=0.3, data_loss=0.3),
            fake_program(), timeline, HOST,
        )
        together_b, together_d = sampler.sample(
            [np.random.default_rng(1), np.random.default_rng(2)]
        )
        alone_b, alone_d = sampler.sample([np.random.default_rng(2)])
        np.testing.assert_array_equal(together_b[1], alone_b[0])
        np.testing.assert_array_equal(together_d[1], alone_d[0])


class TestGilbertElliottVector:
    PARAMS = dict(p_good_to_bad=0.15, p_bad_to_good=0.35,
                  loss_good=0.02, loss_bad=0.8)

    def replay_states(self, master, trials, rounds, nodes):
        """The scalar-definition Markov walk over the same uniforms."""
        states = np.zeros((trials, rounds, nodes), dtype=bool)
        for t in range(trials):
            rng = np.random.default_rng(master + t)
            advance = rng.random((rounds, nodes))
            bad = np.zeros(nodes, dtype=bool)
            for r in range(rounds):
                for n in range(nodes):
                    u = advance[r, n]
                    bad[n] = (u >= self.PARAMS["p_bad_to_good"]) if bad[n] \
                        else (u < self.PARAMS["p_good_to_bad"])
                states[t, r] = bad
        return states

    @given(master=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_recurrence_matches_scalar_definition_exactly(self, master):
        """The batched ``np.where`` recurrence must realize exactly the
        per-node chain the reference model defines, uniform by
        uniform — replayed here from the same per-trial generators."""
        trials, rounds = 4, 40
        model = GilbertElliottLoss(**self.PARAMS)
        timeline = fake_timeline(rounds, 2 * rounds)
        sampler = _GilbertElliottVector(model, fake_program(), timeline, HOST)
        beacon, _data = sampler.sample(trial_rngs(master, trials))

        states = self.replay_states(master, trials, rounds, len(NODES))
        loss = np.where(states, self.PARAMS["loss_bad"],
                        self.PARAMS["loss_good"])
        for t in range(trials):
            rng = np.random.default_rng(master + t)
            rng.random((rounds, len(NODES)))  # skip the advance draws
            u_beacon = rng.random((rounds, len(NODES)))
            expected = u_beacon >= loss[t]
            expected[:, HOST] = True
            np.testing.assert_array_equal(beacon[t], expected)

    def test_burst_lengths_are_geometric(self):
        """BAD sojourns are geometric(p_bad_to_good): the chance a
        burst continues one more round is ``1 - p_bg``, whatever the
        burst's age — checked on the realized state sequences."""
        trials, rounds, nodes = 12, 400, len(NODES)
        states = self.replay_states(99, trials, rounds, nodes)
        bad_now = states[:, :-1, :]
        bad_next = states[:, 1:, :]
        continued = int((bad_now & bad_next).sum())
        total = int(bad_now.sum())
        assert total > 1000  # enough bursts to judge
        low, high = wilson_interval(continued, total, Z_WIDE)
        assert low <= 1.0 - self.PARAMS["p_bad_to_good"] <= high
        # Memorylessness: continuation from *young* bursts (first bad
        # round after a good one) matches continuation overall.
        young = bad_now & ~np.pad(
            states[:, :-2, :], ((0, 0), (1, 0), (0, 0))
        )
        young_total = int(young.sum())
        young_continued = int((young & bad_next).sum())
        low, high = wilson_interval(young_continued, young_total, Z_WIDE)
        assert low <= 1.0 - self.PARAMS["p_bad_to_good"] <= high

    def test_entry_rate_matches_p_good_to_bad(self):
        trials, rounds, nodes = 12, 400, len(NODES)
        states = self.replay_states(7, trials, rounds, nodes)
        good_now = ~states[:, :-1, :]
        entered = int((good_now & states[:, 1:, :]).sum())
        total = int(good_now.sum())
        low, high = wilson_interval(entered, total, Z_WIDE)
        assert low <= self.PARAMS["p_good_to_bad"] <= high


class TestScriptedBeaconVector:
    DROPS = {"0": ["n1"], "3": ["n1", "n5"], "7": ["n0", "n7"],
             "100": ["n2"]}

    def test_rows_equal_reference_receiver_sets(self):
        """Beacon ``r``'s receiver row must equal a fresh reference
        model's ``beacon_receivers`` on its r-th call, exactly."""
        rounds = 12
        timeline = fake_timeline(rounds, 2 * rounds)
        program = fake_program()
        sampler = _ScriptedBeaconVector(
            ScriptedBeaconLoss(self.DROPS), program, timeline, HOST
        )
        beacon, data = sampler.sample(trial_rngs(0, 3))
        assert data.all()  # scripted loss never touches data floods

        reference = ScriptedBeaconLoss(self.DROPS)
        for r in range(rounds):
            received = reference.beacon_receivers(NODES[HOST], set(NODES))
            expected = np.array([name in received for name in NODES])
            for t in range(3):  # one shared deterministic realization
                np.testing.assert_array_equal(beacon[t, r], expected)

    def test_host_immune_to_scripted_drop(self):
        timeline = fake_timeline(4, 8)
        sampler = _ScriptedBeaconVector(
            ScriptedBeaconLoss({"1": [NODES[HOST], "n0"]}),
            fake_program(), timeline, HOST,
        )
        beacon, _ = sampler.sample(trial_rngs(0, 1))
        assert beacon[0, 1, HOST]          # forced, like the reference
        assert not beacon[0, 1, 0]


class TestTraceReplayVector:
    BEACON = [["n0", "n1", "n2", "n3"], ["n1"], []]
    DATA = [["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"], ["n4"]]

    @pytest.mark.parametrize("cycle", [True, False])
    def test_rows_equal_reference_receiver_sets(self, cycle):
        """Replay the reference model flood by flood: the beacon
        cursor advances every round, the data cursor only when the
        slot's sender heard the beacon (the gating the vectorized
        sampler precomputes)."""
        rounds = 8
        timeline = fake_timeline(rounds, 3 * rounds, seed=3)
        model = TraceReplayLoss(beacon=self.BEACON, data=self.DATA,
                                cycle=cycle)
        sampler = _TraceReplayVector(model, fake_program(), timeline, HOST)
        beacon, data = sampler.sample(trial_rngs(0, 2))

        reference = TraceReplayLoss(beacon=self.BEACON, data=self.DATA,
                                    cycle=cycle)
        nodes = set(NODES)
        for r in range(rounds):
            received = reference.beacon_receivers(NODES[HOST], nodes)
            expected = np.array([name in received for name in NODES])
            np.testing.assert_array_equal(beacon[0, r], expected)
        for slot in range(timeline.num_slots):
            sender = int(timeline.slot_sender[slot])
            if not beacon[0, timeline.slot_round[slot], sender]:
                continue  # gated out: the reference never samples it
            received = reference.data_receivers(
                NODES[sender], nodes, payload_bytes=0
            )
            expected = np.array([name in received for name in NODES])
            np.testing.assert_array_equal(data[0, slot], expected)

    def test_empty_trace_is_perfect(self):
        timeline = fake_timeline(5, 10)
        sampler = _TraceReplayVector(
            TraceReplayLoss(), fake_program(), timeline, HOST
        )
        beacon, data = sampler.sample(trial_rngs(0, 2))
        assert beacon.all() and data.all()


class TestPerfectVector:
    def test_all_receive_and_no_stream_consumed(self):
        timeline = fake_timeline(6, 12)
        sampler = _PerfectVector(None, fake_program(), timeline, HOST)
        rng = np.random.default_rng(5)
        beacon, data = sampler.sample([rng])
        assert beacon.all() and data.all()
        assert beacon.shape == (1, 6, len(NODES))
        assert data.shape == (1, 12, len(NODES))
        # Deterministic kinds must not consume the trial stream.
        assert rng.random() == np.random.default_rng(5).random()


class TestRegistry:
    def test_every_builtin_kind_vectorized_or_glossy(self):
        """``glossy`` floods are topology-sequential and deliberately
        stay scalar; every other built-in kind must have a vector
        sampler, or campaigns silently lose the speedup."""
        for kind in available_loss_kinds():
            assert supports_loss_kind(kind) or kind == "glossy", (
                f"built-in loss kind {kind!r} has no vectorized sampler"
            )

    def test_none_means_perfect(self):
        assert supports_loss_kind(None)
        assert VECTOR_SAMPLERS[None] is VECTOR_SAMPLERS["perfect"]


class TestConnectivityVectors:
    """The connectivity kinds' tensor twins: forced bits and the
    degenerate (lossless / blackout) channels, without synthesis."""

    def spatial_model(self, spread):
        from repro.net import build_topology
        from repro.runtime.loss import SpatialLoss

        positions = {
            name: [index * spread, 0.0] for index, name in enumerate(NODES)
        }
        topology = build_topology(
            "uniform_random",
            {"positions": positions, "comm_range": max(spread * 10, 1.0)},
        )
        return SpatialLoss(topology, sensitivity_dbm=-92.0)

    def test_spatial_close_positions_lossless(self):
        from repro.mc.vectorized import _SpatialVector

        timeline = fake_timeline(20, 40)
        sampler = _SpatialVector(
            self.spatial_model(0.5), fake_program(), timeline, HOST
        )
        beacon, data = sampler.sample(trial_rngs(3, 2))
        assert beacon.all() and data.all()

    def test_spatial_far_positions_only_forced_bits(self):
        from repro.mc.vectorized import _SpatialVector

        timeline = fake_timeline(20, 40)
        sampler = _SpatialVector(
            self.spatial_model(500.0), fake_program(), timeline, HOST
        )
        beacon, data = sampler.sample(trial_rngs(3, 2))
        trials = beacon.shape[0]
        assert beacon[:, :, HOST].all()
        assert beacon.sum() == trials * timeline.num_rounds  # host bits only
        assert data[:, np.arange(timeline.num_slots),
                    timeline.slot_sender].all()
        assert data.sum() == trials * timeline.num_slots  # sender bits only

    def test_matrix_trace_degenerate_channels(self):
        from repro.mc.vectorized import _MatrixTraceVector
        from repro.runtime.loss import MatrixTraceLoss

        timeline = fake_timeline(6, 12)
        open_channel = _MatrixTraceVector(
            MatrixTraceLoss(matrices=[{"pdr": {}, "default": 1.0}]),
            fake_program(), timeline, HOST,
        )
        beacon, data = open_channel.sample(trial_rngs(5, 2))
        assert beacon.all() and data.all()

        closed = _MatrixTraceVector(
            MatrixTraceLoss(matrices=[{"pdr": {}, "default": 0.0}]),
            fake_program(), timeline, HOST,
        )
        beacon, data = closed.sample(trial_rngs(5, 2))
        assert beacon[:, :, HOST].all()
        assert np.delete(beacon, HOST, axis=2).sum() == 0

    def test_time_varying_scaled_to_zero_is_lossless(self):
        from repro.mc.vectorized import _TimeVaryingVector
        from repro.runtime.loss import TimeVaryingLoss

        model = TimeVaryingLoss(
            beacon_loss=0.5, data_loss=0.5, shape="ramp",
            ramp_rounds=5, scale_start=0.0, scale_end=0.0,
        )
        sampler = _TimeVaryingVector(
            model, fake_program(), fake_timeline(10, 20), HOST
        )
        beacon, data = sampler.sample(trial_rngs(9, 2))
        assert beacon.all() and data.all()

    def test_interference_blackout_rounds(self):
        from repro.mc.vectorized import _InterferenceVector
        from repro.runtime.loss import InterferenceLoss

        timeline = fake_timeline(8, 16)
        model = InterferenceLoss(period=2, burst=1, jam_loss=1.0)
        sampler = _InterferenceVector(model, fake_program(), timeline, HOST)
        beacon, data = sampler.sample(trial_rngs(13, 2))
        jammed_rounds = np.array([model.jammed(r) for r in range(8)])
        free = np.delete(beacon, HOST, axis=2)
        # Jammed rounds: nothing but the forced host bit gets through.
        assert free[:, jammed_rounds, :].sum() == 0
        # Clear rounds at base loss 0: everyone hears everything.
        assert free[:, ~jammed_rounds, :].all()
        for slot in range(timeline.num_slots):
            cells = data[:, slot, :]
            if jammed_rounds[timeline.slot_round[slot]]:
                # Only the forced sender bit survives a jammed round.
                assert cells[:, timeline.slot_sender[slot]].all()
                assert cells.sum() == cells.shape[0]
            else:
                assert cells.all()
