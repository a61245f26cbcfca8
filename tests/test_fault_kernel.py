"""The fault kernel (:mod:`repro.faults`): pinned draws, the pick, the rules.

The three seeded plan families — message faults, storage corruption,
backend faults — share one roll→kind pick.  The draw sequences below
were captured at the commit *before* the kernel existed (PR 21), when
each family still carried its own arithmetic — the distributed pick
subtracted (``roll -= p``), the other two compared against a running sum
— so passing here is what says the one kernel form reproduces all three
bit for bit.  Regenerate only by checking out that commit.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.distributed.faults import FaultInjector, FaultPlan
from repro.errors import ConfigError
from repro.faults import Degradation, outcome_of, pick
from repro.storage.integrity import StorageFaultInjector, StorageFaultPlan
from repro.storage.resilience import BackendFaultPlan

# -- pinned draw sequences ----------------------------------------------------
#
# Deliveries: one code per send (``x`` dropped, ``2`` duplicated, ``d``
# delayed, ``.`` clean) plus every extra latency drawn, in order.

PINNED_DELIVERIES = {('chaos', 1): ('..2.....x......2d.d....d..2...x..x...d...2..22....d...d...2...x.',
                [0.01897298894274488, 0.008062259728942586, 0.00524626680883699,
                 0.009703819488632701, 0.0032130401755025373, 0.012469795110750009,
                 0.016797630420628176, 0.01639253438238554, 0.0160472832226906,
                 0.0016310523472702542, 0.00014183657206332523, 0.004304363343259472,
                 0.009644247763986731]),
 ('chaos', 2): ('d.x..2d.2......2.......2d...............dx.........222.x........',
                [0.005969822868282466, 0.0011029325466613638, 0.013148660297511851,
                 0.008652615816095744, 0.006919213311434662, 0.00209087116865883,
                 0.01768899347376587, 0.0020140720403695367, 0.0034355403016366904,
                 0.012076110345248772, 0.00039821497674843]),
 ('chaos', 3): ('xd.x..22.....d.d.d....x..x..dd.d......2..2dd..2....d2.....x.x2.2',
                [0.01602548930412794, 0.014691543028184291, 0.00782456380991324,
                 0.012970944141596502, 2.9801670176723417e-05, 0.006279720040686736,
                 0.012601803995706859, 0.014835133601386608, 0.016597737485486246,
                 0.016995366749323077, 0.01396852689894187, 0.017422782995871782,
                 0.011236194374617798, 0.0036057508168619037, 0.01701802249183303,
                 0.01928715441788559, 0.004277339813842944, 0.0059351553677889895]),
 ('chaos_scale', 1): ('.........x.....................d...x..2..............d....x.....',
                      [0.012469795110750009, 0.012826563382787499,
                       0.017104539485741404]),
 ('chaos_scale', 2): ('...d..2...................d..................d.............d.d..',
                      [0.01200201051931308, 0.005499387358120762, 0.00209087116865883,
                       0.0007720825984193769, 0.00039821497674843,
                       0.009011690711035244]),
 ('chaos_scale', 3): ('d..d...d.........x.......x..d..............d....................',
                      [0.004736210131921994, 0.008662538804729477,
                       0.00782456380991324, 0.013210001348557897,
                       0.016995366749323077])}

# Corruptions: a first read of blocks 0..63, one (re-read, replica) repair
# draw pair per corruption found, then a second read of the same blocks
# (latent torn/lost damage re-reported, fresh draws for the rest).
PINNED_CORRUPTIONS = {11: ([(0, 'torn'), (3, 'bitrot'), (4, 'torn'), (6, 'bitrot'), (7, 'torn'),
       (13, 'lost'), (14, 'torn'), (21, 'lost'), (26, 'lost'), (29, 'torn'),
       (31, 'lost'), (32, 'bitrot'), (35, 'torn'), (37, 'lost'), (39, 'lost'),
       (40, 'bitrot'), (41, 'lost'), (47, 'bitrot'), (48, 'torn'), (52, 'bitrot'),
       (53, 'bitrot'), (58, 'bitrot'), (59, 'torn'), (60, 'bitrot'), (63, 'torn')],
      [(False, True), (True, True), (False, False), (False, True), (True, False),
       (True, True), (True, True), (True, True), (True, True), (False, True),
       (True, True), (False, False), (True, True), (True, True), (False, True),
       (True, True), (False, True), (True, True), (True, True), (False, True),
       (False, False), (True, True), (False, True), (True, True), (True, True)],
      [(0, 'torn'), (1, 'torn'), (3, 'bitrot'), (4, 'torn'), (5, 'lost'),
       (6, 'bitrot'), (7, 'torn'), (13, 'lost'), (14, 'torn'), (17, 'torn'),
       (18, 'bitrot'), (21, 'lost'), (23, 'bitrot'), (26, 'lost'), (28, 'bitrot'),
       (29, 'torn'), (31, 'lost'), (33, 'lost'), (35, 'torn'), (36, 'torn'),
       (37, 'lost'), (39, 'lost'), (41, 'lost'), (42, 'lost'), (46, 'lost'),
       (48, 'torn'), (52, 'lost'), (54, 'bitrot'), (57, 'bitrot'), (58, 'torn'),
       (59, 'torn'), (63, 'torn')]),
 12: ([(0, 'lost'), (2, 'torn'), (3, 'torn'), (5, 'lost'), (7, 'torn'),
       (10, 'bitrot'), (12, 'torn'), (13, 'lost'), (18, 'lost'), (19, 'torn'),
       (24, 'bitrot'), (29, 'lost'), (33, 'lost'), (34, 'torn'), (36, 'bitrot'),
       (38, 'torn'), (42, 'torn'), (51, 'lost'), (52, 'lost'), (59, 'bitrot')],
      [(True, True), (True, True), (False, True), (True, True), (False, True),
       (True, True), (True, False), (True, True), (True, True), (True, True),
       (True, True), (True, True), (True, True), (True, True), (True, True),
       (True, True), (True, True), (True, True), (False, True), (False, True)],
      [(0, 'lost'), (1, 'torn'), (2, 'torn'), (3, 'torn'), (5, 'lost'), (6, 'bitrot'),
       (7, 'torn'), (12, 'torn'), (13, 'lost'), (15, 'torn'), (16, 'bitrot'),
       (18, 'lost'), (19, 'torn'), (20, 'bitrot'), (21, 'bitrot'), (22, 'torn'),
       (26, 'bitrot'), (29, 'lost'), (31, 'bitrot'), (32, 'bitrot'), (33, 'lost'),
       (34, 'torn'), (35, 'torn'), (37, 'lost'), (38, 'torn'), (42, 'torn'),
       (43, 'lost'), (51, 'lost'), (52, 'lost'), (53, 'bitrot'), (54, 'bitrot'),
       (55, 'lost'), (56, 'bitrot'), (61, 'bitrot')]),
 13: ([(3, 'lost'), (4, 'bitrot'), (7, 'bitrot'), (10, 'lost'), (12, 'bitrot'),
       (17, 'torn'), (20, 'lost'), (26, 'bitrot'), (29, 'torn'), (30, 'lost'),
       (35, 'bitrot'), (38, 'bitrot'), (44, 'torn'), (53, 'lost'), (56, 'torn'),
       (59, 'bitrot'), (63, 'bitrot')],
      [(False, True), (True, True), (False, True), (True, True), (True, True),
       (True, False), (True, True), (False, False), (True, True), (True, True),
       (False, True), (True, True), (True, True), (False, True), (True, True),
       (False, True), (False, True)],
      [(3, 'lost'), (5, 'torn'), (10, 'lost'), (12, 'lost'), (17, 'torn'),
       (20, 'lost'), (23, 'torn'), (25, 'lost'), (29, 'torn'), (30, 'lost'),
       (34, 'bitrot'), (36, 'lost'), (37, 'bitrot'), (38, 'torn'), (42, 'lost'),
       (44, 'torn'), (46, 'lost'), (47, 'bitrot'), (48, 'lost'), (51, 'lost'),
       (52, 'torn'), (53, 'lost'), (54, 'bitrot'), (55, 'bitrot'), (56, 'torn'),
       (59, 'bitrot'), (63, 'bitrot')])}

# Backend: ``fault_at(0..63)`` for an install operation, then for a read.
PINNED_BACKEND = {1: ('. disconnect torn_install transient disconnect disconnect busy disconnect . . '
     '. transient . . . . busy . transient torn_install . . slow . disconnect '
     'torn_install slow . . . . torn_install busy . . . . . disconnect . . '
     'disconnect . slow . . disconnect transient slow disconnect transient slow . '
     'busy busy torn_install . transient . busy torn_install busy disconnect .',
     '. disconnect transient transient disconnect disconnect busy disconnect . . . '
     'transient . . . . busy . transient transient . . slow . disconnect transient '
     'slow . . . . transient busy . . . . . disconnect . . disconnect . slow . . '
     'disconnect transient slow disconnect transient slow . busy busy transient . '
     'transient . busy transient busy disconnect .'),
 2: ('slow . . disconnect . . . busy busy . . slow . . transient slow slow . '
     'transient . disconnect . busy torn_install disconnect . torn_install . '
     'disconnect busy . busy slow disconnect . disconnect transient . . . . . busy . '
     '. . . . . torn_install busy . transient . transient . slow . . . busy '
     'torn_install . .',
     'slow . . disconnect . . . busy busy . . slow . . transient slow slow . '
     'transient . disconnect . busy transient disconnect . transient . disconnect '
     'busy . busy slow disconnect . disconnect transient . . . . . busy . . . . . . '
     'transient busy . transient . transient . slow . . . busy transient . .'),
 3: ('transient slow transient busy . busy torn_install . disconnect . . . slow '
     'torn_install . disconnect . slow disconnect busy disconnect . busy slow . busy '
     'busy . transient torn_install . disconnect slow slow . . . slow . . busy busy '
     '. busy torn_install transient . busy . . . . slow . . . . . . . . . slow .',
     'transient slow transient busy . busy transient . disconnect . . . slow '
     'transient . disconnect . slow disconnect busy disconnect . busy slow . busy '
     'busy . transient transient . disconnect slow slow . . . slow . . busy busy . '
     'busy transient transient . busy . . . . slow . . . . . . . . . slow .')}


def _delivery_trace(plan: FaultPlan) -> tuple[str, list[float]]:
    injector = FaultInjector(plan)
    sends = [injector.deliveries() for _ in range(64)]
    codes = "".join(
        "x" if not s else "2" if len(s) == 2 else "d" if s[0] else "." for s in sends
    )
    return codes, [extra for s in sends for extra in s if extra]


@pytest.mark.parametrize("family,seed", sorted(PINNED_DELIVERIES))
def test_message_fault_draws_are_pinned(family, seed):
    if family == "chaos":
        plan = FaultPlan.chaos(seed, 4, crash_at_s=0.5)
    else:
        plan = FaultPlan.chaos_scale(seed, 16, crash_at_s=0.5)
    assert _delivery_trace(plan) == PINNED_DELIVERIES[family, seed]


@pytest.mark.parametrize("seed", sorted(PINNED_CORRUPTIONS))
def test_storage_corruption_draws_are_pinned(seed):
    injector = StorageFaultInjector(StorageFaultPlan.chaos(seed, 0.3))
    blocks = np.arange(64)
    first = injector.corruptions_for(blocks)
    repairs = [(injector.reread_ok(), injector.replica_ok()) for _ in first]
    trace = (first, repairs, injector.corruptions_for(blocks))
    assert trace == PINNED_CORRUPTIONS[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_BACKEND))
def test_backend_fault_draws_are_pinned(seed):
    plan = BackendFaultPlan.chaos(seed, 0.5)
    trace = tuple(
        " ".join(plan.fault_at(i, install=install) or "." for i in range(64))
        for install in (True, False)
    )
    assert trace == PINNED_BACKEND[seed]


# -- the pick -----------------------------------------------------------------


@st.composite
def _prob_vectors(draw):
    """Non-negative floats whose left-to-right float sum stays <= 1."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    scale = draw(st.floats(0.0, 1.0)) / max(1.0, sum(weights))
    return [w * scale for w in weights]


@given(_prob_vectors(), st.floats(0.0, 1.0, exclude_max=True))
@example([0.25, 0.25, 0.0], 0.25)  # an edge belongs to the kind above it
@example([0.5], 0.5)  # ... and the last edge to nobody
def test_pick_returns_the_cumulative_interval_of_the_roll(probs, roll):
    edges = list(accumulate(probs, initial=0.0))  # left-to-right float adds
    inside = [i for i in range(len(probs)) if edges[i] <= roll < edges[i + 1]]
    assert pick(roll, probs) == (inside[0] if inside else None)
    assert len(inside) <= 1


# -- scheduled overrides: each index at most once ------------------------------


def test_duplicate_scheduled_entry_is_rejected_by_both_families():
    """``dict()`` let the last entry win, ``fault_at`` the first; now neither."""
    with pytest.raises(ConfigError, match="corrupt block 3 is scheduled more than once"):
        StorageFaultPlan(corrupt_blocks=((3, "bitrot"), (5, "lost"), (3, "torn")))
    with pytest.raises(ConfigError, match="op_index 4 is scheduled more than once"):
        BackendFaultPlan(scheduled=((4, "busy"), (4, "disconnect")))
    # Distinct indices stay fine, in any order.
    assert StorageFaultPlan(corrupt_blocks=((5, "lost"), (3, "torn"))).active
    assert BackendFaultPlan(scheduled=((7, "busy"), (4, "slow"))).fault_at(4) == "slow"


# -- one record, one rule -----------------------------------------------------


def test_outcome_rule_precedence():
    loss = (Degradation("storage", "unrepairable block corruption"),)
    assert outcome_of(False, None, ()) == "complete"
    assert outcome_of(False, None, loss) == "degraded"
    assert outcome_of(False, "deadline", loss) == "aborted"
    assert outcome_of(True, "deadline", loss) == "interrupted"


def test_degradation_describe_skips_empty_and_counts_long_lists():
    record = Degradation(
        "distributed",
        "crashed slab had no surviving neighbor to adopt it",
        {"workers": (2,), "slabs": ((0, 12),), "windows": 0, "cells": tuple(range(9))},
    )
    assert record.describe() == (
        "distributed: crashed slab had no surviving neighbor to adopt it; "
        "workers [2]; slabs [(0, 12)]; 9 cells"
    )
