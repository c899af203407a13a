"""Unit tests for the §3 resource sharing algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelos.sharing import (Allocation, AllocationMemo,
                                   KernelRequirements, compute_allocations,
                                   thread_imbalance)
from repro.cl import nvidia_k20m, amd_r9_295x2
from repro.errors import SchedulingError


def req(name="k", wg=256, lmem=0, regs=16, groups=1000):
    return KernelRequirements(name, wg, lmem, regs, groups)


def total_threads(allocations):
    return sum(a.threads for a in allocations)


def test_requirements_validate():
    with pytest.raises(SchedulingError):
        req(wg=0)
    with pytest.raises(SchedulingError):
        req(groups=0)


def test_single_kernel_gets_whole_device():
    dev = nvidia_k20m()
    allocs = compute_allocations([req()], dev)
    assert allocs[0].threads <= dev.max_threads
    # saturation should push it to the thread limit (registers permit)
    assert allocs[0].threads == dev.max_threads


def test_equal_kernels_get_equal_shares():
    dev = nvidia_k20m()
    allocs = compute_allocations([req("a"), req("b")], dev)
    assert allocs[0].groups == allocs[1].groups
    assert thread_imbalance(allocs) == 0


def test_thread_constraint_holds():
    dev = nvidia_k20m()
    for k in (2, 4, 8):
        allocs = compute_allocations([req(str(i)) for i in range(k)], dev)
        assert total_threads(allocs) <= dev.max_threads


def test_local_memory_constraint_holds():
    dev = nvidia_k20m()
    allocs = compute_allocations(
        [req("a", lmem=16 * 1024), req("b", lmem=24 * 1024)], dev)
    lmem = sum(a.local_mem for a in allocs)
    assert lmem <= dev.total_local_mem


def test_register_constraint_holds():
    dev = nvidia_k20m()
    allocs = compute_allocations(
        [req("a", regs=120), req("b", regs=100)], dev)
    regs = sum(a.registers for a in allocs)
    assert regs <= dev.total_registers


def test_binding_constraint_is_min_of_three():
    dev = nvidia_k20m()
    # huge local memory per group makes L the binding constraint:
    # y = L / (K * m) = 624K / (2 * 48K) = 6 groups (before saturation)
    heavy = req("lmem-bound", wg=64, lmem=48 * 1024, regs=4)
    allocs = compute_allocations([heavy, req("other")], dev, saturate=False)
    assert allocs[0].groups == dev.total_local_mem // (2 * 48 * 1024)


def test_allocation_never_exceeds_original_groups():
    dev = nvidia_k20m()
    tiny = req("tiny", groups=3)
    allocs = compute_allocations([tiny, req("big")], dev)
    assert allocs[0].groups == 3


def test_saturation_gives_leftovers_to_big_kernels():
    dev = nvidia_k20m()
    tiny = req("tiny", groups=2)
    big = req("big", groups=10_000)
    unsat = compute_allocations([tiny, big], dev, saturate=False)
    sat = compute_allocations([tiny, big], dev, saturate=True)
    assert sat[1].groups > unsat[1].groups
    assert total_threads(sat) <= dev.max_threads


def test_saturation_keeps_constraints():
    dev = amd_r9_295x2()
    reqs = [req(str(i), wg=128 * (1 + i % 3), regs=20 + i, groups=500)
            for i in range(8)]
    allocs = compute_allocations(reqs, dev)
    assert total_threads(allocs) <= dev.max_threads
    assert sum(a.registers for a in allocs) <= dev.total_registers


def test_every_kernel_gets_at_least_one_group():
    dev = nvidia_k20m()
    reqs = [req(str(i)) for i in range(8)]
    allocs = compute_allocations(reqs, dev)
    assert all(a.groups >= 1 for a in allocs)


def test_share_ratio_weights_allocation():
    dev = nvidia_k20m()
    allocs = compute_allocations([req("a"), req("b")], dev,
                                 share_ratio=[3.0, 1.0], saturate=False)
    assert allocs[0].groups > 2 * allocs[1].groups


def test_share_ratio_validation():
    dev = nvidia_k20m()
    with pytest.raises(SchedulingError):
        compute_allocations([req("a")], dev, share_ratio=[1.0, 2.0])
    with pytest.raises(SchedulingError):
        compute_allocations([req("a")], dev, share_ratio=[-1.0])
    pair = [req("a"), req("b")]
    for bad in ([float("nan"), 1.0], [float("inf"), 1.0], [1e308, 1e308]):
        # the last one is finite per weight, but its sum overflows
        with pytest.raises(SchedulingError):
            compute_allocations(pair, dev, share_ratio=bad)


def test_weighted_saturation_preserves_ratio():
    """§2.2 regression: with ``saturate=True`` the greedy growth must hand
    out leftover capacity by *weight-normalised* share, or it erodes the
    ratio the base allocation just established.  The tiny clamped kernel
    frees capacity, and the two big kernels must absorb it 3:1."""
    dev = nvidia_k20m()
    reqs = [req("a", groups=10_000), req("b", groups=10_000),
            req("tiny", groups=2)]
    weights = [3.0, 1.0, 1.0]
    allocs = compute_allocations(reqs, dev, share_ratio=weights,
                                 saturate=True)
    k = len(reqs)
    norm = [w * k / sum(weights) for w in weights]
    share_a = allocs[0].threads / norm[0]
    share_b = allocs[1].threads / norm[1]
    # within one work-group granule of the requested ratio
    granule = max(reqs[0].wg_threads / norm[0], reqs[1].wg_threads / norm[1])
    assert abs(share_a - share_b) <= granule + 1e-9
    assert total_threads(allocs) <= dev.max_threads


def test_weighted_saturation_uses_all_leftovers():
    dev = nvidia_k20m()
    reqs = [req("a", groups=10_000), req("b", groups=10_000)]
    unsat = compute_allocations(reqs, dev, share_ratio=[3.0, 1.0],
                                saturate=False)
    sat = compute_allocations(reqs, dev, share_ratio=[3.0, 1.0],
                              saturate=True)
    assert total_threads(sat) >= total_threads(unsat)
    # saturation never breaks the device constraint
    assert total_threads(sat) <= dev.max_threads


def test_empty_batch():
    assert compute_allocations([], nvidia_k20m()) == []


def test_formula_matches_paper_for_thread_bound_kernels():
    dev = nvidia_k20m()
    # x_i = T / (K * w_i) when threads are the binding constraint
    reqs = [req("a", wg=256, regs=1), req("b", wg=512, regs=1)]
    allocs = compute_allocations(reqs, dev, saturate=False)
    assert allocs[0].groups == dev.max_threads // (2 * 256)
    assert allocs[1].groups == dev.max_threads // (2 * 512)


def test_allocation_accessors():
    allocation = Allocation(req("a", wg=128, lmem=100, regs=10, groups=50), 4)
    assert allocation.threads == 512
    assert allocation.local_mem == 400
    assert allocation.registers == 4 * 10 * 128


# -- properties of the algorithm on arbitrary mixes ---------------------------

REQUIREMENT = st.builds(
    KernelRequirements,
    name=st.sampled_from(("bfs", "sgemm", "histo", "mri-q", "sad", "spmv")),
    wg_threads=st.sampled_from((32, 64, 128, 192, 256)),
    local_mem_bytes=st.sampled_from((0, 512, 2048, 4096)),
    registers_per_thread=st.sampled_from((8, 16, 24, 32)),
    total_groups=st.integers(min_value=1, max_value=400),
)


@st.composite
def weighted_mixes(draw):
    requirements = draw(st.lists(REQUIREMENT, min_size=1, max_size=8))
    share_ratio = draw(st.none() | st.lists(
        st.floats(min_value=0.01, max_value=100.0),
        min_size=len(requirements), max_size=len(requirements)))
    return requirements, share_ratio


def _fits(allocations, device):
    return (sum(a.threads for a in allocations) <= device.max_threads
            and sum(a.local_mem for a in allocations)
            <= device.total_local_mem
            and sum(a.registers for a in allocations)
            <= device.total_registers)


@settings(max_examples=200, deadline=None)
@given(mix=weighted_mixes(),
       device_factory=st.sampled_from((nvidia_k20m, amd_r9_295x2)),
       saturate=st.booleans())
def test_allocations_fit_and_saturate(mix, device_factory, saturate):
    requirements, share_ratio = mix
    device = device_factory()
    allocations = compute_allocations(requirements, device,
                                      saturate=saturate,
                                      share_ratio=share_ratio)
    assert [a.requirements for a in allocations] == requirements
    assert _fits(allocations, device)
    for a in allocations:
        assert 1 <= a.groups <= a.requirements.total_groups
    if saturate:
        # saturated: no single allocation can take one more group
        for a in allocations:
            if a.groups == a.requirements.total_groups:
                continue
            a.groups += 1
            assert not _fits(allocations, device)
            a.groups -= 1


# -- the allocation memo ------------------------------------------------------

def _mix():
    return [
        KernelRequirements("histo", 128, 2048, 16, 120),
        KernelRequirements("sgemm", 256, 0, 32, 300),
        KernelRequirements("bfs", 64, 512, 8, 80),
    ]


def test_memo_results_match_compute_allocations():
    device = nvidia_k20m()
    memo = AllocationMemo(device)
    requirements = _mix()
    groups = memo.groups_for(requirements)
    expected = [a.groups
                for a in compute_allocations(requirements, device)]
    assert list(groups) == expected


def test_memo_hit_and_miss_bookkeeping():
    memo = AllocationMemo(nvidia_k20m())
    requirements = _mix()
    memo.groups_for(requirements)
    assert (memo.misses, memo.hits) == (1, 0)
    memo.groups_for(requirements)
    assert (memo.misses, memo.hits) == (1, 1)
    memo.groups_for(requirements[:2])       # novel multiset: a miss
    assert (memo.misses, memo.hits) == (2, 1)


# corpus-style draws for the memo: one name maps to exactly one
# footprint (the memo's documented precondition — engine requirements
# come from a fixed kernel corpus, so equal names mean equal keys;
# only total-group duplicates of whole profiles occur)
PROFILES = {
    "bfs": (64, 512, 8, 80),
    "sgemm": (256, 0, 32, 300),
    "histo": (128, 2048, 16, 120),
    "mri-q": (192, 0, 24, 220),
    "sad": (32, 4096, 8, 50),
}


def _profile_requirement(name):
    wg_threads, lmem, regs, total_groups = PROFILES[name]
    return KernelRequirements(name, wg_threads, lmem, regs, total_groups)


CORPUS_REQUIREMENT = st.sampled_from(sorted(PROFILES)).map(
    _profile_requirement)


@settings(max_examples=60, deadline=None)
@given(
    requirements=st.lists(CORPUS_REQUIREMENT, min_size=1, max_size=6),
    shuffle_seed=st.randoms(use_true_random=False),
)
def test_memo_is_order_insensitive(requirements, shuffle_seed):
    """Any permutation of one corpus multiset hits the same entry and
    gets the same per-requirement group counts (aligned to its own
    order)."""
    device = nvidia_k20m()
    memo = AllocationMemo(device)
    first = memo.groups_for(requirements)
    assert list(first) \
        == [a.groups for a in compute_allocations(requirements, device)]
    shuffled = list(requirements)
    shuffle_seed.shuffle(shuffled)
    again = memo.groups_for(shuffled)
    assert memo.misses == 1     # the permutation is a hit, not a re-plan
    # the replayed entry must equal a fresh computation on the *shuffled*
    # order — replay is undetectable
    assert list(again) \
        == [a.groups for a in compute_allocations(shuffled, device)]
