//! Per-operation host costs of each layer's public functions.
//!
//! Each cost is timed over a batch of calls against one pair of clock
//! reads, with results passed through [`black_box`]. The batch grows until
//! it lasts [`BATCH_TARGET_NS`], so the clock's own cost stays far below
//! the operation's; the reported cost is the median over [`BATCHES`]
//! batches. Per-iteration timing (as the vendored `criterion` does) would
//! report the clock itself for operations under ~100 ns.

use std::hint::black_box;

use ftl_base::{Gtd, PageNodeCmt};
use harness::wallclock::WallTimer;
use learned_index::{GreedyPlr, Point};
use learnedftl::InPlaceModel;
use metrics::LatencyHistogram;
use ssd_sched::{QueuePair, SerialEngine};
use ssd_sim::{Duration, FlashDevice, OobData, SimTime, SsdConfig};

use crate::workload::{self, Seeds, Spec};

/// Host time one timed batch should last.
const BATCH_TARGET_NS: u128 = 2_000_000;
/// Timed batches per operation; the median is reported.
const BATCHES: usize = 15;
/// Mappings per translation page (and per LearnedFTL model).
pub const MAPPINGS_PER_PAGE: u64 = 512;
/// Mappings TPFTL and LearnedFTL load into the CMT on a miss.
const PREFETCH: u32 = 64;
/// The CMT's share of the logical space (the baselines' default).
const CMT_RATIO: f64 = 0.03;
/// The PLR error bound LearnedFTL fits its exact models with.
const EXACT_GAMMA: f64 = 0.5;

/// Host nanoseconds per call of each calibrated public function.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// `WallTimer::elapsed`.
    pub clock_read: f64,
    /// `FlashDevice::read_page`.
    pub read_page: f64,
    /// `FlashDevice::read_page` with structured tracing on.
    pub read_page_traced: f64,
    /// `FlashDevice::program_page`.
    pub program_page: f64,
    /// `FlashDevice::erase_block`.
    pub erase_block: f64,
    /// `PageNodeCmt::lookup` hitting a cached mapping.
    pub pagenode_lookup_hit: f64,
    /// `PageNodeCmt::insert_batch` of one prefetch batch into a full CMT.
    pub pagenode_insert_batch: f64,
    /// `Gtd::location`.
    pub gtd_location: f64,
    /// `InPlaceModel::predict`.
    pub model_predict: f64,
    /// `InPlaceModel::train`, per training point.
    pub model_train_per_point: f64,
    /// `GreedyPlr::fit`, per point.
    pub plr_fit_per_point: f64,
    /// `LatencyHistogram::record`.
    pub hist_record: f64,
    /// `QueuePair::submit` at the benchmark's queue depth.
    pub queuepair_submit: f64,
    /// `SerialEngine::submit`.
    pub engine_submit: f64,
    /// `Workload::next_request` of the workload's own generator.
    pub next_request: f64,
}

/// Median host ns per operation. `batch(n)` runs `n` operations and returns
/// the host time they took (set-up it does before starting its clock is
/// not counted); batches never exceed `max_n` operations.
fn per_op_ns(max_n: u64, mut batch: impl FnMut(u64) -> std::time::Duration) -> f64 {
    let mut n = 16u64.min(max_n);
    while n < max_n && batch(n).as_nanos() < BATCH_TARGET_NS {
        n = (n * 2).min(max_n);
    }
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch(n).as_nanos() as f64 / n as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// Times `n` calls of `op(i)`.
fn time_calls<T>(n: u64, mut op: impl FnMut(u64) -> T) -> std::time::Duration {
    let clock = WallTimer::start();
    for i in 0..n {
        black_box(op(black_box(i)));
    }
    clock.elapsed()
}

/// A cheap deterministic index scrambler (multiplicative hashing), so
/// lookups stride across the structure the way random requests do.
fn scramble(i: u64, modulus: u64) -> u64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % modulus
}

fn data_oob(lpn: u64) -> OobData {
    OobData {
        lpn: Some(lpn),
        ..OobData::default()
    }
}

/// One device with every page programmed once, in block order.
fn programmed_device(cfg: SsdConfig) -> FlashDevice {
    let mut dev = FlashDevice::new(cfg);
    let total = cfg.geometry.total_pages();
    for ppn in 0..total {
        dev.program_page(ppn, data_oob(ppn), SimTime::ZERO)
            .expect("programming a fresh device in block order");
    }
    dev
}

/// Training points shaped like one GC-rewritten translation page: sorted
/// LPNs over a few physical runs.
fn entry_points() -> Vec<Point> {
    (0..MAPPINGS_PER_PAGE)
        .map(|i| Point::new(i, 2_000_000 + i + (i / 128) * 40_000))
        .collect()
}

/// Calibrates every unit cost. `spec` and `seeds` pick the generator whose
/// `next_request` is priced.
pub fn calibrate(spec: &Spec, seeds: &Seeds) -> UnitCosts {
    let cfg = workload::device();
    let geometry = cfg.geometry;
    let total_pages = geometry.total_pages();
    let total_blocks = geometry.total_blocks();
    let logical = cfg.logical_pages();

    let clock_read = per_op_ns(u64::MAX, |n| {
        let clock = WallTimer::start();
        time_calls(n, |_| clock.elapsed())
    });

    let mut dev = programmed_device(cfg);
    let read_page = per_op_ns(u64::MAX, |n| {
        time_calls(n, |i| {
            dev.read_page(scramble(i, total_pages), SimTime::ZERO)
        })
    });
    dev.set_tracing(true);
    let read_page_traced = per_op_ns(u64::MAX, |n| {
        drop(dev.take_trace());
        time_calls(n, |i| {
            dev.read_page(scramble(i, total_pages), SimTime::ZERO)
        })
    });
    drop(dev);
    let erase_block = per_op_ns(u64::MAX, |n| {
        // Erasing a block without valid pages, as GC erases a victim.
        let mut fresh = FlashDevice::new(cfg);
        time_calls(n, |i| fresh.erase_block(i % total_blocks, SimTime::ZERO))
    });
    let program_page = per_op_ns(total_pages, |n| {
        let mut fresh = FlashDevice::new(cfg);
        let clock = WallTimer::start();
        for ppn in 0..n {
            black_box(fresh.program_page(ppn, data_oob(ppn), SimTime::ZERO)).ok();
        }
        clock.elapsed()
    });

    let capacity = (logical as f64 * CMT_RATIO).round() as usize;
    let pages = (logical / MAPPINGS_PER_PAGE) as usize;
    let mut cmt = PageNodeCmt::new(capacity);
    let full_nodes = (capacity as u64 / MAPPINGS_PER_PAGE).max(1);
    for tpn in 0..full_nodes as usize {
        let batch: Vec<(u32, u64, bool)> = (0..MAPPINGS_PER_PAGE as u32)
            .map(|off| (off, u64::from(off) * 3, false))
            .collect();
        cmt.insert_batch(tpn, &batch);
    }
    let cached = full_nodes * MAPPINGS_PER_PAGE;
    let pagenode_lookup_hit = per_op_ns(u64::MAX, |n| {
        time_calls(n, |i| {
            let m = scramble(i, cached);
            cmt.lookup(
                (m / MAPPINGS_PER_PAGE) as usize,
                (m % MAPPINGS_PER_PAGE) as u32,
            )
        })
    });
    let prefetch: Vec<(u32, u64, bool)> = (0..PREFETCH)
        .map(|off| (off, u64::from(off), false))
        .collect();
    let pagenode_insert_batch = per_op_ns(u64::MAX, |n| {
        // Each batch lands on a translation page not cached yet, so the
        // full CMT evicts, as on a read-path miss.
        time_calls(n, |i| {
            cmt.insert_batch(full_nodes as usize + (i as usize % pages), &prefetch)
        })
    });

    let mut gtd = Gtd::new(logical, MAPPINGS_PER_PAGE as u32);
    for entry in 0..gtd.entries() {
        gtd.set_location(entry, entry as u64 * 7);
    }
    let entries = gtd.entries() as u64;
    let gtd_location = per_op_ns(u64::MAX, |n| {
        time_calls(n, |i| gtd.location(scramble(i, entries) as usize))
    });

    let points = entry_points();
    let mut model = InPlaceModel::new(0, MAPPINGS_PER_PAGE as u32, 8);
    model.train(&points);
    let model_predict = per_op_ns(u64::MAX, |n| {
        time_calls(n, |i| model.predict(scramble(i, MAPPINGS_PER_PAGE)))
    });
    let model_train_per_point = per_op_ns(u64::MAX, |n| {
        time_calls(n, |_| {
            let mut model = InPlaceModel::new(0, MAPPINGS_PER_PAGE as u32, 8);
            model.train(&points);
            model
        })
    }) / MAPPINGS_PER_PAGE as f64;
    let plr = GreedyPlr::new(EXACT_GAMMA);
    let plr_fit_per_point =
        per_op_ns(u64::MAX, |n| time_calls(n, |_| plr.fit(&points))) / MAPPINGS_PER_PAGE as f64;

    let hist_record = per_op_ns(u64::MAX, |n| {
        let mut hist = LatencyHistogram::new();
        time_calls(n, |i| {
            hist.record(Duration::from_nanos(20_000 + scramble(i, 100_000)))
        })
    });
    let queuepair_submit = per_op_ns(u64::MAX, |n| {
        let mut queue = QueuePair::new(workload::DEPTH);
        time_calls(n, |i| {
            let arrival = SimTime::from_nanos(i * 5_000);
            queue.submit(arrival, |issue| {
                issue + Duration::from_nanos(40_000 + scramble(i, 60_000))
            })
        })
    });
    let engine_submit = per_op_ns(u64::MAX, |n| {
        let mut engine = SerialEngine::new();
        time_calls(n, |i| {
            let arrival = SimTime::from_nanos(i * 5_000);
            engine.submit(arrival, |issue| {
                issue + Duration::from_nanos(2_000 + scramble(i, 6_000))
            })
        })
    });
    let requests = workload::measured_workload(spec, seeds, logical).1.requests;
    let next_request = per_op_ns(requests, |n| {
        let (mut wl, _) = workload::measured_workload(spec, seeds, logical);
        let streams = wl.streams();
        let clock = WallTimer::start();
        for i in 0..n {
            black_box(wl.next_request(i as usize % streams));
        }
        clock.elapsed()
    });
    UnitCosts {
        clock_read,
        read_page,
        read_page_traced,
        erase_block,
        program_page,
        pagenode_lookup_hit,
        pagenode_insert_batch,
        gtd_location,
        model_predict,
        model_train_per_point,
        plr_fit_per_point,
        hist_record,
        queuepair_submit,
        engine_submit,
        next_request,
    }
}
