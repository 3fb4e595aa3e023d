//! Golden-snapshot pin of the full `PerfCounts` blocks for three
//! benchmark entries at quick windows (seed 2013).
//!
//! These constants were captured from the single-core `Core::run` path
//! **before** the hierarchy-ownership refactor that split `Hierarchy`
//! into `PrivateHierarchy` + `SharedL3` and introduced the chip model.
//! They pin two guarantees at once:
//!
//! 1. no hierarchy/pipeline refactor may silently shift single-core
//!    numbers — any drift fails field-by-field with a readable diff;
//! 2. a 1-core [`dc_cpu::Chip`] is **bit-identical** to `Core::run`
//!    (the refactor's central acceptance criterion), checked by driving
//!    the chip path against the same constants;
//! 3. a 4-core chip keeps its lockstep interleave: [`SORT_CORUN4`]
//!    pins all four co-running cores' blocks.
//!
//! If a deliberate model change shifts these numbers, regenerate the
//! constants (`Characterizer::raw_counts` at `SimOptions::quick()`,
//! seed 2013) and say so loudly in the commit message.

use dc_cpu::{core::SimOptions, CpuConfig, PerfCounts};
use dcbench::{cache, BenchmarkId, Characterizer};

fn golden_harness() -> Characterizer {
    Characterizer::new(CpuConfig::westmere_e5645(), SimOptions::quick(), 2013)
}

const SORT: PerfCounts = PerfCounts {
    cycles: 539620,
    instructions: 199999,
    user_instructions: 152040,
    kernel_instructions: 47959,
    fetch_stall_cycles: 338832,
    rat_stall_cycles: 12748,
    rs_full_stall_cycles: 76892,
    rob_full_stall_cycles: 27678,
    load_buf_stall_cycles: 0,
    store_buf_stall_cycles: 248,
    l1i_accesses: 24702,
    l1i_misses: 5726,
    itlb_accesses: 24702,
    itlb_misses: 2959,
    itlb_walks: 61,
    l1d_accesses: 76573,
    l1d_misses: 42883,
    dtlb_accesses: 76573,
    dtlb_misses: 335,
    dtlb_walks: 130,
    l2_accesses: 48609,
    l2_misses: 9694,
    l3_accesses: 9694,
    l3_misses: 2266,
    prefetches: 19206,
    branches: 33333,
    branch_mispredicts: 2137,
    loads: 50083,
    stores: 26490,
};

const MEDIA_STREAMING: PerfCounts = PerfCounts {
    cycles: 574726,
    instructions: 199998,
    user_instructions: 99704,
    kernel_instructions: 100294,
    fetch_stall_cycles: 313676,
    rat_stall_cycles: 139668,
    rs_full_stall_cycles: 0,
    rob_full_stall_cycles: 24005,
    load_buf_stall_cycles: 0,
    store_buf_stall_cycles: 26,
    l1i_accesses: 24718,
    l1i_misses: 7036,
    itlb_accesses: 24718,
    itlb_misses: 2287,
    itlb_walks: 117,
    l1d_accesses: 70133,
    l1d_misses: 47025,
    dtlb_accesses: 70133,
    dtlb_misses: 591,
    dtlb_walks: 235,
    l2_accesses: 54061,
    l2_misses: 13804,
    l3_accesses: 13804,
    l3_misses: 3315,
    prefetches: 19426,
    branches: 33325,
    branch_mispredicts: 3013,
    loads: 48516,
    stores: 21617,
};

const HPCC_STREAM: PerfCounts = PerfCounts {
    cycles: 415437,
    instructions: 200001,
    user_instructions: 200001,
    kernel_instructions: 0,
    fetch_stall_cycles: 867,
    rat_stall_cycles: 0,
    rs_full_stall_cycles: 0,
    rob_full_stall_cycles: 309568,
    load_buf_stall_cycles: 0,
    store_buf_stall_cycles: 31787,
    l1i_accesses: 14116,
    l1i_misses: 3,
    itlb_accesses: 14116,
    itlb_misses: 0,
    itlb_walks: 0,
    l1d_accesses: 92059,
    l1d_misses: 11508,
    dtlb_accesses: 92059,
    dtlb_misses: 180,
    dtlb_walks: 180,
    l2_accesses: 11511,
    l2_misses: 4937,
    l3_accesses: 4937,
    l3_misses: 4937,
    prefetches: 15870,
    branches: 20000,
    branch_mispredicts: 23,
    loads: 59669,
    stores: 32390,
};

/// Four co-running copies of Sort on one chip, indexed by core, at
/// `SimOptions::quick()`, seed 2013 — captured from the lockstep chip
/// loop before the one-loop refactor. Core 0 runs the same trace as
/// [`SORT`]; the other cores' traces and the shared-L3 interleave make
/// every block depend on the step order and the idle-skip rule.
const SORT_CORUN4: [PerfCounts; 4] = [
    PerfCounts {
        cycles: 765259,
        instructions: 199999,
        user_instructions: 152040,
        kernel_instructions: 47959,
        fetch_stall_cycles: 496492,
        rat_stall_cycles: 12748,
        rs_full_stall_cycles: 112011,
        rob_full_stall_cycles: 59802,
        load_buf_stall_cycles: 0,
        store_buf_stall_cycles: 941,
        l1i_accesses: 24702,
        l1i_misses: 5934,
        itlb_accesses: 24702,
        itlb_misses: 2959,
        itlb_walks: 61,
        l1d_accesses: 76573,
        l1d_misses: 42883,
        dtlb_accesses: 76573,
        dtlb_misses: 335,
        dtlb_walks: 130,
        l2_accesses: 48817,
        l2_misses: 10190,
        l3_accesses: 10190,
        l3_misses: 3037,
        prefetches: 15389,
        branches: 33333,
        branch_mispredicts: 2137,
        loads: 50083,
        stores: 26490,
    },
    PerfCounts {
        cycles: 791476,
        instructions: 200001,
        user_instructions: 152040,
        kernel_instructions: 47961,
        fetch_stall_cycles: 530444,
        rat_stall_cycles: 12386,
        rs_full_stall_cycles: 108656,
        rob_full_stall_cycles: 54764,
        load_buf_stall_cycles: 0,
        store_buf_stall_cycles: 1420,
        l1i_accesses: 24511,
        l1i_misses: 5291,
        itlb_accesses: 24511,
        itlb_misses: 2706,
        itlb_walks: 84,
        l1d_accesses: 77036,
        l1d_misses: 43020,
        dtlb_accesses: 77036,
        dtlb_misses: 295,
        dtlb_walks: 141,
        l2_accesses: 48311,
        l2_misses: 9722,
        l3_accesses: 9722,
        l3_misses: 3141,
        prefetches: 14669,
        branches: 33324,
        branch_mispredicts: 2572,
        loads: 50163,
        stores: 26873,
    },
    PerfCounts {
        cycles: 770615,
        instructions: 199999,
        user_instructions: 152040,
        kernel_instructions: 47959,
        fetch_stall_cycles: 487079,
        rat_stall_cycles: 12820,
        rs_full_stall_cycles: 121671,
        rob_full_stall_cycles: 62807,
        load_buf_stall_cycles: 0,
        store_buf_stall_cycles: 1606,
        l1i_accesses: 21634,
        l1i_misses: 4872,
        itlb_accesses: 21634,
        itlb_misses: 2613,
        itlb_walks: 112,
        l1d_accesses: 76393,
        l1d_misses: 42438,
        dtlb_accesses: 76393,
        dtlb_misses: 323,
        dtlb_walks: 164,
        l2_accesses: 47310,
        l2_misses: 8874,
        l3_accesses: 8874,
        l3_misses: 3075,
        prefetches: 13964,
        branches: 33328,
        branch_mispredicts: 2292,
        loads: 49731,
        stores: 26662,
    },
    PerfCounts {
        cycles: 754850,
        instructions: 200000,
        user_instructions: 152040,
        kernel_instructions: 47960,
        fetch_stall_cycles: 480399,
        rat_stall_cycles: 12554,
        rs_full_stall_cycles: 114933,
        rob_full_stall_cycles: 62033,
        load_buf_stall_cycles: 0,
        store_buf_stall_cycles: 1574,
        l1i_accesses: 22608,
        l1i_misses: 4978,
        itlb_accesses: 22608,
        itlb_misses: 2664,
        itlb_walks: 90,
        l1d_accesses: 76709,
        l1d_misses: 42680,
        dtlb_accesses: 76709,
        dtlb_misses: 281,
        dtlb_walks: 137,
        l2_accesses: 47658,
        l2_misses: 8991,
        l3_accesses: 8991,
        l3_misses: 3037,
        prefetches: 14438,
        branches: 33315,
        branch_mispredicts: 2367,
        loads: 49930,
        stores: 26779,
    },
];

const GOLDEN: [(BenchmarkId, PerfCounts); 3] = [
    (BenchmarkId::Sort, SORT),
    (BenchmarkId::MediaStreaming, MEDIA_STREAMING),
    (BenchmarkId::HpccStream, HPCC_STREAM),
];

/// One test drives both paths so the shared memoization cache cannot
/// satisfy the second path from the first one's fill: the Core path
/// simulates, the cache is cleared, then the 1-core chip path simulates
/// the same keys from scratch against the same constants.
#[test]
fn counters_match_pre_refactor_golden_values() {
    let c = golden_harness();
    for (id, want) in GOLDEN {
        assert_eq!(
            c.raw_counts(id),
            want,
            "single-core counters drifted for {id:?}"
        );
    }
    cache::clear();
    for (id, want) in GOLDEN {
        let co = c.corun_counts(id, 1);
        assert_eq!(co.len(), 1);
        assert_eq!(
            co[0], want,
            "1-core chip diverged from Core::run for {id:?}"
        );
    }
}

/// Interval series against the same golden constants: for each pinned
/// entry, the interval run's aggregate (recorder disabled — the default)
/// must equal the pre-refactor block bit-for-bit, and the per-interval counter
/// deltas must sum back to it **exactly, field for field**. Recording is
/// observation-only; these constants prove it against real workload
/// traces, not toy streams.
#[test]
fn sampled_deltas_sum_to_the_golden_aggregates() {
    let c = golden_harness();
    for every_cycles in [33_000, 100_000] {
        for (id, want) in GOLDEN {
            let run = c.raw_intervals(id, every_cycles);
            assert_eq!(
                run.aggregate, want,
                "sampling perturbed counters for {id:?} at interval {every_cycles}"
            );
            assert_eq!(
                run.summed(),
                want,
                "interval deltas do not telescope for {id:?} at interval {every_cycles}"
            );
            assert!(
                run.samples.len() > 1,
                "window should span several intervals for {id:?}"
            );
        }
    }
}

/// A 4-core chip against its pinned blocks: any change to the lockstep
/// order, the global idle skip or the per-core address salt moves them.
#[test]
fn four_core_chip_matches_golden_values() {
    let co = golden_harness().corun_counts(BenchmarkId::Sort, 4);
    assert_eq!(co.len(), 4);
    for (core, (got, want)) in co.iter().zip(&SORT_CORUN4).enumerate() {
        assert_eq!(got, want, "4-core chip counters drifted on core {core}");
    }
}
