"""Vectorized campaign kernel — all trials of a grid point at once.

The compiled fast path (:mod:`repro.mc.fastpath`) removed the trace but
still runs **one Python loop per trial**.  This module removes that
loop too, exploiting a structural fact of TTW execution: the round
timeline — which round of which mode executes when, when mode changes
trigger, which slot records which message instance against which
deadline — is **fully deterministic** under both node policies, because
the host alone drives the round and slot sequence.  Loss only decides
who *receives* each flood and, under the ``LOCAL_BELIEF`` ablation, who
*transmits*.  So a grid point factors into array-programming stages:

1. :func:`unroll_timeline` — walk the compiled round program once
   (exactly :func:`repro.mc.fastpath.run_program`'s control flow, with
   the sampling stripped out) into a :class:`Timeline`: flat arrays
   over the executed rounds and slots, the deterministic per-flow
   instance totals, the chain-check index matrices, and the switch
   delays.  Computed once per scenario and cached on the
   :class:`~repro.runtime.trial.TrialContext`.
2. **Sampling** — the full loss bitmask tensor for every trial up
   front: ``beacon[trials, rounds, nodes]`` and ``data[trials, slots,
   nodes]`` boolean arrays, drawn per trial from that trial's own
   ``numpy.random.default_rng(seed)`` in a fixed intra-trial order
   (so results are independent of how trials are batched across pool
   workers).
3. :func:`slot_transmitters` — who transmits in every slot.  Under
   beacon gating that is the scheduled sender iff it heard the round's
   beacon; under ``LOCAL_BELIEF`` it is a per-round scan over a
   ``(trials, nodes)`` belief state (:func:`belief_transmitters`),
   sequential in rounds and parallel in trials.
4. :func:`accumulate_trials` — pure array reductions: delivery is a
   fancy-index gather plus an ``all`` over consumer bits, radio-on
   time is an integer round-participation count times the slot
   constants, chain completeness is an ``all`` over precomputed
   check-index matrices.  All reductions stay in integers until the
   final per-trial scalars, so no chunking strategy can perturb a
   floating-point sum.

The contract is **distribution equivalence, not bit identity**: the
vectorized samplers draw from numpy streams, not the reference models'
``random.Random`` streams, so per-seed results differ from the
``fast``/``reference`` engines while every *deterministic* quantity
(instance totals, rounds, switch delays, deadline flags) matches
exactly and every sampled *distribution* (miss rates, radio-on, burst
structure, and under ``LOCAL_BELIEF`` the collision rate) agrees
statistically.  :mod:`repro.mc.equivalence` is the harness that makes
this claim testable; ``fast`` stays the bit-exact default engine.

Within one seed the engine is fully deterministic: equal seeds give
byte-identical :class:`~repro.runtime.trial.TrialResult`\\ s across
repeated runs, ``jobs`` settings, and trial-batch splits.

Unsupported features fall back along ``vectorized -> fast ->
reference`` (see :func:`repro.runtime.trial.trial_engine`): loss kinds
without a vector sampler (``glossy`` floods are topology-sequential),
scenarios the compiler rejects, and out-of-deployment beacon hosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.compiled import SystemProgram, names_to_mask
from ..runtime.loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    InterferenceLoss,
    LossModel,
    MatrixTraceLoss,
    PerfectLinks,
    ScriptedBeaconLoss,
    SpatialLoss,
    TimeVaryingLoss,
    TraceExhaustedError,
    TraceReplayLoss,
    build_loss,
)
from ..runtime.simulator import EPS, ModeRequest, NodePolicy
from ..runtime.trial import TrialResult


class VectorizeError(Exception):
    """A feature the vectorized kernel does not support.

    Like :class:`~repro.runtime.compiled.CompileError`, raising this is
    not an error condition for campaign callers: the trial entry point
    gates on :func:`repro.runtime.trial.trial_engine` and falls back to
    the ``fast`` engine instead.
    """


#: Approximate per-chunk tensor budget (bytes).  Trials are processed
#: in chunks so the uniform-draw and bitmask tensors of huge campaigns
#: stay bounded; chunking cannot change results because every trial
#: draws from its own seeded generator.
TENSOR_BUDGET_BYTES = 128 * 1024 * 1024

#: ``numpy.random.default_rng`` rejects negative seeds while
#: ``random.Random`` accepts them; explicit user seeds are normalized
#: into the SeedSequence domain with this mask.
_SEED_MASK = (1 << 128) - 1


# -- the deterministic timeline ----------------------------------------------


@dataclass(frozen=True)
class Timeline:
    """The deterministic skeleton shared by every trial of a scenario.

    Everything :func:`repro.mc.fastpath.run_program` derives per trial
    that does *not* depend on the loss realization, flattened over the
    executed rounds (``R``) and data slots (``S``) of the full horizon.

    Attributes:
        num_rounds: Executed rounds ``R``.
        num_slots: Executed data slots ``S`` (every slot, recorded or
            not — replay cursors and radio accounting see them all).
        slots_per_round: ``(R,)`` int64 slot count per round — the
            radio-accounting weights.
        slot_round: ``(S,)`` executed-round index of each slot.
        slot_sender: ``(S,)`` transmitting node index of each slot.
        slot_deadline_ok: ``(S,)`` whether a delivery in this slot
            meets its instance's deadline (deterministic).
        flow_slots: ``(gid, slot-index array)`` per recorded flow, in
            first-recorded order (the reference's ``seen_order``); the
            array length is the flow's deterministic instance total.
        consumers: ``(S, N)`` consumer membership per slot.
        has_consumers: ``(S,)`` consumer set non-empty per slot.
        chain_programs: ``(app_name, total, checks)`` per application
            with judged chain instances, in the reference's accounting
            order; ``checks`` is an ``(instances, max_checks)`` index
            matrix into the padded per-slot on-time matrix — index
            ``S`` means a missing instance (never on time), ``S + 1``
            is padding (trivially satisfied).
        switch_delays: Mode-change delays — identical in every trial.
        round_uid: ``(R,)`` globally unique round id
            (:attr:`~repro.runtime.compiled.SystemProgram.uid_mode`
            index) of each executed round — what a node that hears the
            round's beacon believes.
        slot_pos: ``(S,)`` position of each slot within its round — the
            bit it occupies in the ``tx_slot_masks`` transmit tables.
        trigger_uid: ``(R,)`` on a mode-change trigger round, the new
            mode's last round uid (nodes that hear the SB beacon adopt
            it); ``-1`` on every other round.
    """

    num_rounds: int
    num_slots: int
    slots_per_round: np.ndarray
    slot_round: np.ndarray
    slot_sender: np.ndarray
    slot_deadline_ok: np.ndarray
    flow_slots: Tuple[Tuple[int, np.ndarray], ...]
    consumers: np.ndarray
    has_consumers: np.ndarray
    chain_programs: Tuple[Tuple[str, int, np.ndarray], ...]
    switch_delays: Tuple[float, ...]
    round_uid: np.ndarray
    slot_pos: np.ndarray
    trigger_uid: np.ndarray


def unroll_timeline(
    program: SystemProgram,
    duration: float,
    mode_requests: Sequence[ModeRequest] = (),
) -> Timeline:
    """Walk the compiled program once into its :class:`Timeline`.

    Replays :func:`repro.mc.fastpath.run_program`'s control flow —
    round scheduling, mode-request servicing, drain deadlines, the
    instance/stop-time gating of every slot, chain accounting — with
    identical plain-float arithmetic, so the deterministic outputs
    (instance totals, deadline flags, switch delays) equal the fast
    engine's exactly.  The host drives this sequence under both node
    policies, so one unroll serves both; the ``LOCAL_BELIEF`` ablation
    additionally reads the round uids, slot positions and trigger uids
    that its belief pass (:func:`belief_transmitters`) scans.
    """
    requests = sorted(mode_requests, key=lambda r: r.time)
    request_count = len(requests)
    request_idx = 0

    mode_programs = program.modes
    drain_rows = program.drain_rows

    current_id = program.initial_mode
    mode_program = mode_programs[current_id]
    mode_origin = 0.0

    pending_target: Optional[int] = None
    requested_at = 0.0
    announced_at: Optional[float] = None
    drain_deadline: Optional[float] = None
    app_stop_time: Dict[int, float] = {}

    occurrence = 0
    round_cursor = 0

    slots_per_round: List[int] = []
    round_uid: List[int] = []
    trigger_uid: List[int] = []
    slot_round: List[int] = []
    slot_pos: List[int] = []
    slot_sender: List[int] = []
    slot_deadline_ok: List[bool] = []
    consumer_masks: List[int] = []
    switches: List[tuple] = []

    flow_lists: Dict[int, List[int]] = {}
    seen_order: List[int] = []
    occ_of: Dict[tuple, int] = {}

    while True:
        if mode_program.num_rounds == 0:
            break
        round_time = (
            mode_origin
            + occurrence * mode_program.hyperperiod
            + mode_program.round_starts_list[round_cursor]
        )
        if round_time >= duration - EPS:
            break

        # Service mode requests that arrived before this round.
        while (
            request_idx < request_count
            and requests[request_idx].time <= round_time + EPS
        ):
            request = requests[request_idx]
            request_idx += 1
            if pending_target is None and request.target_mode_id != current_id:
                if request.target_mode_id not in mode_programs:
                    raise ValueError(
                        f"mode request for unknown id {request.target_mode_id}"
                    )
                pending_target = request.target_mode_id
                requested_at = request.time

        # Host transition bookkeeping (announce, drain, trigger).
        trigger = False
        if pending_target is not None:
            if announced_at is None:
                announced_at = round_time
                drain = announced_at
                for period, deadline in drain_rows[current_id]:
                    elapsed = max(0.0, announced_at - mode_origin)
                    last_release = (
                        mode_origin + math.floor(elapsed / period) * period
                    )
                    drain = max(drain, last_release + deadline)
                drain_deadline = drain
                app_stop_time[current_id] = announced_at
            if drain_deadline is not None and round_time >= drain_deadline - EPS:
                trigger = True
        stop_time = app_stop_time.get(current_id)

        round_index = len(slots_per_round)
        rows = mode_program.slot_rows[round_cursor]
        slots_per_round.append(len(rows))
        round_uid.append(mode_program.uid_base + round_cursor)
        trigger_uid.append(-1)

        for position, row in enumerate(rows):
            (
                gid,
                sender_index,
                _sender_bit,
                consumers_mask,
                record,
                period,
                offset,
                deadline,
                per_hp,
                pos_minus_leftover,
                shift,
            ) = row
            slot = len(slot_round)
            slot_round.append(round_index)
            slot_pos.append(position)
            slot_sender.append(sender_index)
            consumer_masks.append(consumers_mask)

            deadline_ok = False
            if record:
                instance = occurrence * per_hp + pos_minus_leftover
                if instance >= 0:
                    skip = False
                    if stop_time is not None:
                        app_release = mode_origin + (instance - shift) * period
                        if app_release >= stop_time - EPS:
                            skip = True
                    if not skip:
                        release = mode_origin + instance * period + offset
                        deadline_ok = round_time <= release + deadline + 1e-9
                        occ_of[(gid, instance)] = slot
                        if gid not in flow_lists:
                            flow_lists[gid] = []
                            seen_order.append(gid)
                        flow_lists[gid].append(slot)
            slot_deadline_ok.append(deadline_ok)

        if trigger and pending_target is not None:
            # New mode starts directly after this round ends.
            new_origin = round_time + mode_program.round_length
            switches.append(
                (requested_at, new_origin, current_id, pending_target)
            )
            current_id = pending_target
            mode_program = mode_programs[current_id]
            trigger_uid[round_index] = (
                mode_program.uid_base + mode_program.num_rounds - 1
            )
            mode_origin = new_origin
            occurrence = 0
            round_cursor = 0
            pending_target = None
            announced_at = None
            drain_deadline = None
            continue

        round_cursor += 1
        if round_cursor >= mode_program.num_rounds:
            round_cursor = 0
            occurrence += 1

    num_slots = len(slot_round)
    node_count = len(program.node_names)

    # Consumer bitmasks -> a (S, N) membership matrix.
    consumers = np.zeros((num_slots, node_count), dtype=bool)
    for slot, mask in enumerate(consumer_masks):
        while mask:
            low = mask & -mask
            consumers[slot, low.bit_length() - 1] = True
            mask ^= low

    # Chain accounting (the reference's _account_chains), indices only:
    # each chain check becomes an index into the padded per-slot
    # on-time matrix.  occ_of is last-write-wins, exactly like the
    # reference's msg_on_time dict.
    chains_rows: Dict[str, List[List[int]]] = {}
    chains_order: List[str] = []
    segments: List[tuple] = []
    start = 0.0
    segment_mode = program.initial_mode
    for req_at, new_start, _from_mode, to_mode in switches:
        segments.append((segment_mode, start, new_start))
        start = new_start
        segment_mode = to_mode
    segments.append((segment_mode, start, duration))

    for mode_id, seg_start, seg_end in segments:
        stop = app_stop_time.get(mode_id, math.inf)
        horizon = min(seg_end, stop, duration)
        for app_name, period, chains in program.chain_rows[mode_id]:
            for first_offset, latency, checks in chains:
                k = 0
                while True:
                    app_release = seg_start + k * period
                    release = app_release + first_offset
                    if app_release >= horizon - EPS:
                        break
                    completion = release + latency
                    if completion > duration + EPS:
                        # Cannot be judged within the horizon.
                        break
                    row = [
                        occ_of.get((gid, k + shift), num_slots)
                        for gid, shift in checks
                    ]
                    if app_name not in chains_rows:
                        chains_rows[app_name] = []
                        chains_order.append(app_name)
                    chains_rows[app_name].append(row)
                    k += 1

    pad_index = num_slots + 1  # the always-on-time padding column
    chain_programs = []
    for app_name in chains_order:
        rows = chains_rows[app_name]
        width = max((len(row) for row in rows), default=0)
        matrix = np.full((len(rows), width), pad_index, dtype=np.intp)
        for i, row in enumerate(rows):
            matrix[i, : len(row)] = row
        chain_programs.append((app_name, len(rows), matrix))

    return Timeline(
        num_rounds=len(slots_per_round),
        num_slots=num_slots,
        slots_per_round=np.asarray(slots_per_round, dtype=np.int64),
        slot_round=np.asarray(slot_round, dtype=np.intp),
        slot_sender=np.asarray(slot_sender, dtype=np.intp),
        slot_deadline_ok=np.asarray(slot_deadline_ok, dtype=bool),
        flow_slots=tuple(
            (gid, np.asarray(flow_lists[gid], dtype=np.intp))
            for gid in seen_order
        ),
        consumers=consumers,
        has_consumers=consumers.any(axis=1),
        chain_programs=tuple(chain_programs),
        switch_delays=tuple(
            new_start - req_at for req_at, new_start, _f, _t in switches
        ),
        round_uid=np.asarray(round_uid, dtype=np.intp),
        slot_pos=np.asarray(slot_pos, dtype=np.intp),
        trigger_uid=np.asarray(trigger_uid, dtype=np.intp),
    )


# -- who transmits ------------------------------------------------------------


def _belief_tables(program: SystemProgram) -> Tuple[np.ndarray, np.ndarray]:
    """The belief pass's lookup tables, indexed by round uid.

    Returns ``(successor, tx_table)``: ``successor[uid]`` is the uid a
    node that misses a beacon advances to (the next round of the same
    mode, cyclically), and ``tx_table[uid, node, position]`` says
    whether ``node``'s deployment table makes it transmit in slot
    ``position`` of round ``uid``.  The extra last index is the "never
    heard a beacon" sentinel: its own successor, transmitting nowhere.
    """
    never = len(program.uid_mode)
    modes = program.modes.values()
    width = max(
        [len(rows) for mode in modes for rows in mode.slot_rows]
        + [
            mask.bit_length()
            for mode in modes
            for row in mode.tx_slot_masks
            for mask in row
        ],
        default=0,
    )
    successor = np.empty(never + 1, dtype=np.intp)
    successor[never] = never
    tx_table = np.zeros(
        (never + 1, len(program.node_names), width), dtype=bool
    )
    for uid, (mode_id, index) in enumerate(
        zip(program.uid_mode, program.uid_index)
    ):
        mode_program = program.modes[mode_id]
        successor[uid] = mode_program.uid_base + (
            (index + 1) % mode_program.num_rounds
        )
        for node, mask in enumerate(mode_program.tx_slot_masks[index]):
            while mask:
                low = mask & -mask
                tx_table[uid, node, low.bit_length() - 1] = True
                mask ^= low
    return successor, tx_table


def belief_transmitters(
    program: SystemProgram, timeline: Timeline, beacon: np.ndarray
) -> np.ndarray:
    """Predicted transmitters of every slot under ``LOCAL_BELIEF``.

    :func:`repro.mc.fastpath.run_program`'s belief recurrence as one
    scan over the executed rounds, on a ``(trials, nodes)`` state of
    round uids: a node that hears the round's beacon takes the round's
    uid, a node that misses it advances its belief to the cyclic
    successor, and a node that has never heard a beacon (the sentinel)
    stays silent.  After a trigger round, the nodes that heard the SB
    beacon adopt the new mode's last uid, so their next prediction is
    the new mode's round 0.

    Returns:
        ``(trials, S, N)`` boolean: node ``n`` transmits in slot ``s``.
    """
    successor, tx_table = _belief_tables(program)
    trials, rounds, node_count = beacon.shape
    # Round-major copies, so every step of the scan reads and writes
    # one contiguous (trials, nodes) block.
    heard_by_round = np.ascontiguousarray(beacon.transpose(1, 0, 2))
    predicted = np.empty((rounds, trials, node_count), dtype=np.intp)
    belief = np.full((trials, node_count), successor.size - 1, dtype=np.intp)
    round_uid = timeline.round_uid.tolist()
    trigger_uid = timeline.trigger_uid.tolist()
    for r in range(rounds):
        heard = heard_by_round[r]
        belief_r = predicted[r]
        np.take(successor, belief, out=belief_r)
        np.copyto(belief_r, round_uid[r], where=heard)
        belief = belief_r
        if trigger_uid[r] >= 0:
            belief = np.where(heard, trigger_uid[r], belief_r)
    return tx_table[
        predicted[timeline.slot_round].transpose(1, 0, 2),
        np.arange(node_count),
        timeline.slot_pos[:, None],
    ]


def slot_transmitters(
    program: SystemProgram, timeline: Timeline, beacon: np.ndarray
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Who transmits in every slot, under the program's node policy.

    Returns:
        ``(delivering, tx)``.  ``delivering`` is ``(trials, S)``: the
        slot's scheduled sender is its only transmitter.  Under beacon
        gating the only candidate transmitter is the scheduled sender,
        gated on the round's beacon, and ``tx`` is ``None``.  Under
        ``LOCAL_BELIEF``, ``tx`` is the ``(trials, S, N)`` tensor of
        :func:`belief_transmitters`: a slot collides when more than one
        node transmits.
    """
    if program.policy is NodePolicy.LOCAL_BELIEF:
        tx = belief_transmitters(program, timeline, beacon)
        lone = tx.sum(axis=2) == 1
        delivering = lone & tx[:, np.arange(timeline.num_slots),
                               timeline.slot_sender]
        return delivering, tx
    return beacon[:, timeline.slot_round, timeline.slot_sender], None


# -- vectorized loss samplers -------------------------------------------------
#
# A vector sampler turns per-trial generators into the full loss
# bitmask tensor: sample(rngs) -> (beacon, data) with beacon of shape
# (trials, rounds, nodes) and data of shape (trials, slots, nodes),
# both boolean.  The beacon host bit and the data sender bit are always
# set, mirroring the reference models' ``always`` node.  Each trial
# consumes only its own generator, in a fixed intra-trial draw order —
# the property that makes results invariant to trial batching.
# Deterministic kinds return broadcast views (one realization, shared
# by every trial, at no memory cost).


class _PerfectVector:
    """No loss: every flood reaches every node, no stream consumed."""

    def __init__(self, model, program, timeline, host_index) -> None:
        self._shape_b = (timeline.num_rounds, len(program.node_names))
        self._shape_d = (timeline.num_slots, len(program.node_names))

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.broadcast_to(True, (trials,) + self._shape_b)
        data = np.broadcast_to(True, (trials,) + self._shape_d)
        return beacon, data


class _BernoulliVector:
    """Tensor twin of :class:`BernoulliLoss`: i.i.d. uniform draws.

    Intra-trial draw order: beacon uniforms ``(R, N)`` first, then
    data uniforms ``(S, N)``.  A loss probability of 0 keeps the
    comparison (``u >= 0`` is always true) — same distribution as the
    reference's draw-skipping short-circuit.
    """

    def __init__(
        self,
        model: BernoulliLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        self._beacon_loss = model.beacon_loss
        self._data_loss = model.data_loss
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = len(program.node_names)
        self._host = host_index
        self._senders = timeline.slot_sender

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.empty((trials, self._rounds, self._nodes), dtype=bool)
        data = np.empty((trials, self._slots, self._nodes), dtype=bool)
        for t, rng in enumerate(rngs):
            beacon[t] = (
                rng.random((self._rounds, self._nodes)) >= self._beacon_loss
            )
            data[t] = rng.random((self._slots, self._nodes)) >= self._data_loss
        beacon[:, :, self._host] = True
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


class _GilbertElliottVector:
    """Tensor twin of :class:`GilbertElliottLoss`.

    Per trial the draw order is: channel-advance uniforms ``(R, N)``,
    beacon-loss uniforms ``(R, N)``, data-loss uniforms ``(S, N)``.
    The two-state Markov recurrence is inherently sequential over
    rounds, so it runs as **one** loop over ``R`` operating on whole
    ``(trials, nodes)`` state matrices — never per trial.  All nodes
    (including the host) advance once per round; data floods reuse the
    round's post-advance state, exactly the reference semantics.
    """

    def __init__(
        self,
        model: GilbertElliottLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        self._p_gb = model.p_good_to_bad
        self._p_bg = model.p_bad_to_good
        self._loss_good = model.loss_good
        self._loss_bad = model.loss_bad
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = len(program.node_names)
        self._host = host_index
        self._senders = timeline.slot_sender
        self._slot_round = timeline.slot_round

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        shape_r = (trials, self._rounds, self._nodes)
        advance = np.empty(shape_r, dtype=np.float64)
        u_beacon = np.empty(shape_r, dtype=np.float64)
        u_data = np.empty((trials, self._slots, self._nodes), dtype=np.float64)
        for t, rng in enumerate(rngs):
            advance[t] = rng.random((self._rounds, self._nodes))
            u_beacon[t] = rng.random((self._rounds, self._nodes))
            u_data[t] = rng.random((self._slots, self._nodes))

        # Evolve every (trial, node) channel round by round: from BAD,
        # recover when u < p_bg; from GOOD, degrade when u < p_gb.
        bad = np.zeros((trials, self._nodes), dtype=bool)
        bad_rounds = np.empty(shape_r, dtype=bool)
        for r in range(self._rounds):
            u = advance[:, r, :]
            bad = np.where(bad, u >= self._p_bg, u < self._p_gb)
            bad_rounds[:, r, :] = bad

        loss_r = np.where(bad_rounds, self._loss_bad, self._loss_good)
        beacon = u_beacon >= loss_r
        beacon[:, :, self._host] = True
        loss_s = loss_r[:, self._slot_round, :]
        data = u_data >= loss_s
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


class _ScriptedBeaconVector:
    """Tensor twin of :class:`ScriptedBeaconLoss` (deterministic).

    Beacon ``n`` (0-based over the run) is missed by exactly
    ``drops[n]``; data floods are lossless.  One realization is shared
    by every trial as a broadcast view.
    """

    def __init__(
        self,
        model: ScriptedBeaconLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        beacon = np.ones((timeline.num_rounds, len(program.node_names)), bool)
        for counter, names in model.drops.items():
            if 0 <= counter < timeline.num_rounds:
                mask = names_to_mask(names, program.node_index)
                while mask:
                    low = mask & -mask
                    beacon[counter, low.bit_length() - 1] = False
                    mask ^= low
        beacon[:, host_index] = True
        self._beacon = beacon
        self._shape_d = (timeline.num_slots, len(program.node_names))

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.broadcast_to(self._beacon, (trials,) + self._beacon.shape)
        data = np.broadcast_to(True, (trials,) + self._shape_d)
        return beacon, data


class _TraceReplayVector:
    """Tensor twin of :class:`TraceReplayLoss` (deterministic).

    The beacon cursor advances once per round; the data cursor advances
    only for *delivering* slots — and with a deterministic beacon
    sequence, which slots deliver is itself deterministic under either
    node policy (:func:`slot_transmitters`), so the whole cursor walk
    happens here, once.  Non-delivering slots never read their data row
    (the accumulator masks them out) and are filled permissively.
    """

    def __init__(
        self,
        model: TraceReplayLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        nodes = len(program.node_names)

        def rows_of(events):
            rows = []
            for event in events:
                row = np.zeros(nodes, dtype=bool)
                mask = names_to_mask(event, program.node_index)
                while mask:
                    low = mask & -mask
                    row[low.bit_length() - 1] = True
                    mask ^= low
                rows.append(row)
            return rows

        beacon_rows = rows_of(model.beacon_events)
        data_rows = rows_of(model.data_events)
        on_end = model.on_end

        def walk(rows, cursor, label):
            # TraceReplayLoss._next: past the end, wrap around (cursor
            # modulo length), fall open to perfect reception, or raise
            # the model's own TraceExhaustedError — deliberately *not*
            # a VectorizeError, so the strict exhaustion policy fails
            # identically on every engine instead of silently
            # downgrading along the fallback ladder.
            if not rows:
                if on_end == "error":
                    raise TraceExhaustedError(
                        f"trace_replay: empty {label} trace with "
                        f"on_end='error'"
                    )
                return None, cursor
            if cursor >= len(rows):
                if on_end == "perfect":
                    return None, cursor
                if on_end == "error":
                    raise TraceExhaustedError(
                        f"trace_replay: {label} trace exhausted after "
                        f"{len(rows)} events (on_end='error'); provide a "
                        f"longer trace or choose on_end='wrap'/'perfect'"
                    )
                cursor = cursor % len(rows)
            return rows[cursor], cursor + 1

        beacon = np.empty((timeline.num_rounds, nodes), dtype=bool)
        cursor = 0
        for r in range(timeline.num_rounds):
            row, cursor = walk(beacon_rows, cursor, "beacon")
            beacon[r] = True if row is None else row
        beacon[:, host_index] = True

        delivering = slot_transmitters(program, timeline, beacon[None])[0][0]
        data = np.ones((timeline.num_slots, nodes), dtype=bool)
        cursor = 0
        for slot in np.flatnonzero(delivering):
            row, cursor = walk(data_rows, cursor, "data")
            if row is not None:
                data[slot] = row
                data[slot, timeline.slot_sender[slot]] = True

        self._beacon = beacon
        self._data = data

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.broadcast_to(self._beacon, (trials,) + self._beacon.shape)
        data = np.broadcast_to(self._data, (trials,) + self._data.shape)
        return beacon, data


class _SpatialVector:
    """Tensor twin of :class:`SpatialLoss`.

    The PDR matrix is a construction-time constant shared by every
    trial; per trial the draw order is beacon uniforms ``(R, N)`` then
    data uniforms ``(S, N)``, compared against the host's loss row
    (beacons) and each slot sender's loss row (data).
    """

    def __init__(
        self,
        model: SpatialLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        names = program.node_names
        pdr = model._pdr
        loss = np.array(
            [[1.0 - pdr[src][dst] for dst in names] for src in names],
            dtype=np.float64,
        )
        self._beacon_loss = loss[host_index]  # (N,)
        self._data_loss = loss[timeline.slot_sender]  # (S, N)
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = len(names)
        self._host = host_index
        self._senders = timeline.slot_sender

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.empty((trials, self._rounds, self._nodes), dtype=bool)
        data = np.empty((trials, self._slots, self._nodes), dtype=bool)
        for t, rng in enumerate(rngs):
            beacon[t] = (
                rng.random((self._rounds, self._nodes))
                >= self._beacon_loss[None, :]
            )
            data[t] = rng.random((self._slots, self._nodes)) >= self._data_loss
        beacon[:, :, self._host] = True
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


class _MatrixTraceVector:
    """Tensor twin of :class:`MatrixTraceLoss`.

    The round cursor is deterministic (one advance per beacon), so the
    whole wrap/perfect/error walk happens at construction, producing
    per-round beacon loss rows ``(R, N)`` and per-slot data loss rows
    ``(S, N)``.  ``on_end="error"`` raises the model's own
    :class:`TraceExhaustedError` — deliberately *not* a
    :class:`VectorizeError`, so the strict policy fails identically on
    every engine instead of silently downgrading along the ladder.
    """

    def __init__(
        self,
        model: MatrixTraceLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        names = program.node_names
        node_count = len(names)

        def loss_row(round_index: int, source: str) -> np.ndarray:
            entry = model.matrix_for_round(round_index)  # raises on error
            if entry is None:
                return np.zeros(node_count, dtype=np.float64)
            rows, default = entry
            row = rows.get(source, {})
            return np.array(
                [1.0 - row.get(dst, default) for dst in names],
                dtype=np.float64,
            )

        host_name = names[host_index]
        self._beacon_loss = np.stack([
            loss_row(r, host_name) for r in range(timeline.num_rounds)
        ]) if timeline.num_rounds else np.zeros((0, node_count))
        self._data_loss = np.stack([
            loss_row(int(timeline.slot_round[s]),
                     names[int(timeline.slot_sender[s])])
            for s in range(timeline.num_slots)
        ]) if timeline.num_slots else np.zeros((0, node_count))
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = node_count
        self._host = host_index
        self._senders = timeline.slot_sender

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.empty((trials, self._rounds, self._nodes), dtype=bool)
        data = np.empty((trials, self._slots, self._nodes), dtype=bool)
        for t, rng in enumerate(rngs):
            beacon[t] = (
                rng.random((self._rounds, self._nodes)) >= self._beacon_loss
            )
            data[t] = rng.random((self._slots, self._nodes)) >= self._data_loss
        beacon[:, :, self._host] = True
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


class _TimeVaryingVector:
    """Tensor twin of :class:`TimeVaryingLoss`.

    The per-round modulation factor is deterministic; the model's pure
    ``loss_at`` computes every round's effective loss once (identical
    float math to the scalar engines), leaving per-trial work as plain
    uniform comparisons.
    """

    def __init__(
        self,
        model: TimeVaryingLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        self._beacon_loss = np.array(
            [model.loss_at(r, model.beacon_loss)
             for r in range(timeline.num_rounds)],
            dtype=np.float64,
        )
        data_loss_per_round = [
            model.loss_at(r, model.data_loss)
            for r in range(timeline.num_rounds)
        ]
        self._data_loss = np.array(
            [data_loss_per_round[int(r)] for r in timeline.slot_round],
            dtype=np.float64,
        )
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = len(program.node_names)
        self._host = host_index
        self._senders = timeline.slot_sender

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.empty((trials, self._rounds, self._nodes), dtype=bool)
        data = np.empty((trials, self._slots, self._nodes), dtype=bool)
        for t, rng in enumerate(rngs):
            beacon[t] = (
                rng.random((self._rounds, self._nodes))
                >= self._beacon_loss[:, None]
            )
            data[t] = (
                rng.random((self._slots, self._nodes))
                >= self._data_loss[:, None]
            )
        beacon[:, :, self._host] = True
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


class _InterferenceVector:
    """Tensor twin of :class:`InterferenceLoss`.

    The jammer's duty cycle is deterministic: the model's pure
    ``jammed`` yields a per-round indicator, outer-combined with the
    affected-node mask into per-round, per-node loss matrices computed
    once at construction.
    """

    def __init__(
        self,
        model: InterferenceLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        names = program.node_names
        jammed = np.array(
            [model.jammed(r) for r in range(timeline.num_rounds)], dtype=bool
        )
        affected = np.array(
            [model.affected is None or name in model.affected
             for name in names],
            dtype=bool,
        )
        hit = jammed[:, None] & affected[None, :]  # (R, N)
        self._beacon_loss = np.where(
            hit, model.jam_loss, model.base_beacon_loss
        )
        data_loss_rounds = np.where(hit, model.jam_loss, model.base_data_loss)
        self._data_loss = data_loss_rounds[timeline.slot_round]  # (S, N)
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = len(names)
        self._host = host_index
        self._senders = timeline.slot_sender

    def sample(self, rngs: Sequence[np.random.Generator]):
        trials = len(rngs)
        beacon = np.empty((trials, self._rounds, self._nodes), dtype=bool)
        data = np.empty((trials, self._slots, self._nodes), dtype=bool)
        for t, rng in enumerate(rngs):
            beacon[t] = (
                rng.random((self._rounds, self._nodes)) >= self._beacon_loss
            )
            data[t] = rng.random((self._slots, self._nodes)) >= self._data_loss
        beacon[:, :, self._host] = True
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


def _perfect_builder(model, program, timeline, host_index):
    return _PerfectVector(model, program, timeline, host_index)


#: loss kind -> vector sampler builder.  ``None`` (no loss) maps to
#: perfect.  A kind absent here is *unsupported*:
#: :func:`supports_loss_kind` returns False and the trial entry point
#: falls back to the ``fast`` engine (``glossy`` floods are genuinely
#: topology-sequential and stay scalar).
VECTOR_SAMPLERS: Dict[Optional[str], Callable] = {
    None: _perfect_builder,
    "perfect": _perfect_builder,
    "bernoulli": _BernoulliVector,
    "gilbert_elliott": _GilbertElliottVector,
    "scripted_beacon": _ScriptedBeaconVector,
    "trace_replay": _TraceReplayVector,
    "spatial": _SpatialVector,
    "matrix_trace": _MatrixTraceVector,
    "time_varying": _TimeVaryingVector,
    "interference": _InterferenceVector,
}


def supports_loss_kind(kind: Optional[str]) -> bool:
    """Whether the vectorized kernel has a sampler for this loss kind."""
    return kind in VECTOR_SAMPLERS


# -- accumulation and the executor -------------------------------------------


def accumulate_trials(
    program: SystemProgram,
    timeline: Timeline,
    beacon: np.ndarray,
    data: np.ndarray,
    duration: float,
) -> List[TrialResult]:
    """Reduce the sampled bitmask tensors to one summary per trial.

    All reductions are integer (boolean sums, int64 participation
    counts); floats appear only in the final per-trial scalar
    conversions — which is why results cannot depend on how trials were
    chunked into tensors.
    """
    trials = beacon.shape[0]
    node_count = len(program.node_names)

    # A delivering slot counts as delivered when every consumer
    # receives the data flood.
    delivering, tx = slot_transmitters(program, timeline, beacon)
    covered = ~np.any(timeline.consumers[None, :, :] & ~data, axis=2)
    delivered = delivering & covered & timeline.has_consumers[None, :]
    on_time = delivered & timeline.slot_deadline_ok[None, :]

    heard = beacon.sum(axis=(1, 2), dtype=np.int64)

    per_flow = [
        (
            program.message_names[gid],
            on_time[:, idx].sum(axis=1, dtype=np.int64),
            delivered[:, idx].sum(axis=1, dtype=np.int64),
            int(idx.size),
        )
        for gid, idx in timeline.flow_slots
    ]

    # Radio accounting: every node is on for every beacon; during data
    # slots the nodes that heard the round's beacon participate (under
    # beacon gating the delivering sender is always among them; under
    # LOCAL_BELIEF a node transmitting on a stale belief is on too).
    if program.radio_beacon_on is not None:
        if tx is None:
            participation = np.tensordot(
                beacon.astype(np.int64), timeline.slots_per_round,
                axes=([1], [0]),
            )
        else:
            participation = (
                beacon[:, timeline.slot_round, :] | tx
            ).sum(axis=1, dtype=np.int64)
        radio = (
            timeline.num_rounds * program.radio_beacon_on
            + participation * program.radio_data_on
        )
    else:
        radio = None

    # Chain completeness: gather each instance's check slots from the
    # padded on-time matrix (column S = missing instance, S + 1 = pad).
    pad = np.zeros((trials, 2), dtype=bool)
    pad[:, 1] = True
    padded = np.concatenate([on_time, pad], axis=1)
    per_chain = [
        (app_name, padded[:, matrix].all(axis=2).sum(axis=1), total)
        for app_name, total, matrix in timeline.chain_programs
    ]

    # Beacon gating is collision-free; under LOCAL_BELIEF a slot
    # collides when more than one node transmits.
    collisions = (
        np.zeros(trials, dtype=np.int64) if tx is None
        else (tx.sum(axis=2) > 1).sum(axis=1)
    )

    expected = node_count * timeline.num_rounds
    switch_delays = list(timeline.switch_delays)
    results = []
    for t in range(trials):
        result = TrialResult(duration=duration)
        result.rounds = timeline.num_rounds
        result.collisions = int(collisions[t])
        result.beacon_heard = (int(heard[t]), expected)
        result.messages = {
            name: (int(on[t]), int(deliv[t]), total)
            for name, on, deliv, total in per_flow
        }
        result.chains = {
            app: (int(complete[t]), total)
            for app, complete, total in per_chain
        }
        if radio is not None:
            result.radio_on = {
                name: float(radio[t, index])
                for index, name in enumerate(program.node_names)
            }
        else:
            result.radio_on = {name: 0.0 for name in program.node_names}
        result.switch_delays = list(switch_delays)
        results.append(result)
    return results


def _normalize_seed(seed):
    if seed is None:
        return None
    if isinstance(seed, int):
        return seed & _SEED_MASK
    return seed  # Generators/SeedSequences pass straight through


def _chunk_size(timeline: Timeline, node_count: int) -> int:
    """Trials per tensor chunk under :data:`TENSOR_BUDGET_BYTES`."""
    cells = (timeline.num_rounds + timeline.num_slots) * max(node_count, 1)
    # ~3 float64 draw tensors + bool masks per cell, rounded up.
    per_trial = max(cells * 32, 1)
    return max(1, TENSOR_BUDGET_BYTES // per_trial)


def run_trials_vectorized(
    context,
    loss_kind: Optional[str],
    loss_params: Optional[dict],
    seeds: Sequence[Optional[int]],
) -> List[TrialResult]:
    """Execute many trials of one scenario as one tensor program.

    Args:
        context: The scenario's :class:`~repro.runtime.trial.TrialContext`.
        loss_kind: Loss model kind, or ``None`` for perfect links.
        loss_params: Loss model parameters **without** a per-trial
            ``seed`` — seeds are the explicit last argument here.
        seeds: One seed per trial (``None`` draws OS entropy, like the
            reference models).  Each trial gets its own generator, so
            the result list is byte-identical however the trials are
            split across calls or processes.

    Raises:
        VectorizeError: when the scenario or loss kind is unsupported —
            callers normally gate on
            :func:`repro.runtime.trial.trial_engine` first.
    """
    if not supports_loss_kind(loss_kind):
        raise VectorizeError(
            f"no vectorized sampler for loss kind {loss_kind!r}"
        )
    program = context.compiled()
    if program is None:
        raise VectorizeError(
            f"scenario does not compile: {context.compile_error}"
        )
    host_index = program.resolve_host(context.host_node)
    if host_index is None:
        raise VectorizeError(
            f"host {context.host_node!r} is outside the compiled node "
            f"universe; the reference simulator handles it"
        )
    timeline = context.timeline()
    if timeline is None:
        raise VectorizeError(str(context.timeline_error))

    # Build the model once for validation and for the deterministic
    # kinds' scripts/events; the stochastic kinds only contribute their
    # parameters (their scalar RNG is never consumed here).
    model: LossModel = (
        build_loss(loss_kind, loss_params, context.topology)
        if loss_kind is not None
        else PerfectLinks()
    )
    sampler = VECTOR_SAMPLERS[loss_kind](model, program, timeline, host_index)

    results: List[TrialResult] = []
    chunk = _chunk_size(timeline, len(program.node_names))
    for start in range(0, len(seeds), chunk):
        batch = seeds[start : start + chunk]
        rngs = [
            np.random.default_rng(_normalize_seed(seed)) for seed in batch
        ]
        beacon, data = sampler.sample(rngs)
        results.extend(
            accumulate_trials(program, timeline, beacon, data, context.duration)
        )
    return results
