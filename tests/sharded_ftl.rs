//! Cross-crate integration tests for the sharded FTL frontend: the
//! acceptance anchors of the `ftl-shard` subsystem (shards=4 beats shards=1
//! at QD16 for DFTL and LearnedFTL; the one-shard frontend reproduces the
//! unsharded FTL bit for bit) and the open-loop arrival runner.

use learnedftl_suite::prelude::*;
use ssd_sim::{Duration, Geometry, TraceData};
use workloads::{warmup, FioPattern, FioWorkload, Workload};

/// A quick-scale device every shard count in {1, 2, 4} divides cleanly:
/// 4 channels × 2 chips, with 256-page blocks so a 2-chip channel-group
/// shard still spans one full translation page per block row (LearnedFTL's
/// group allocation needs that).
fn shard_device() -> SsdConfig {
    SsdConfig::tiny()
        .with_geometry(Geometry::new(4, 2, 1, 16, 256, 4096))
        .with_op_ratio(0.4)
}

fn warmed_sharded(kind: FtlKind, shards: usize) -> ShardedFtl<Box<dyn Ftl>> {
    let mut ftl = kind.build_sharded(shard_device(), shards);
    warmup::paper_warmup(&mut ftl, 32, 1, 5);
    ftl
}

#[test]
fn four_shards_beat_one_shard_at_qd16_for_dftl_and_learnedftl() {
    for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
        let run = |shards: usize| {
            let mut ftl = warmed_sharded(kind, shards);
            let mut wl = FioWorkload::new(FioPattern::RandRead, ftl.logical_pages(), 16, 1, 60, 7);
            Runner::new().run_sharded_qd(&mut ftl, &mut wl, 16)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.result.requests, four.result.requests, "{kind}");
        assert!(
            four.result.iops() > one.result.iops(),
            "{kind}: four translation engines must beat one at QD16 ({} vs {})",
            four.result.iops(),
            one.result.iops()
        );
        // Every shard served traffic and the lanes cover every request.
        assert_eq!(four.lanes.len(), 4);
        let lane_total: u64 = four.lanes.iter().map(|l| l.requests).sum();
        assert_eq!(lane_total, four.result.requests, "{kind}");
        assert!(four.lanes.iter().all(|l| l.requests > 0), "{kind}");
    }
}

#[test]
fn one_shard_matches_unsharded_run_qd_bit_for_bit() {
    for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
        let wl = |pages: u64| FioWorkload::new(FioPattern::RandRead, pages, 1, 1, 200, 11);

        let mut plain_ftl = kind.build(shard_device());
        warmup::paper_warmup(plain_ftl.as_mut(), 32, 1, 5);
        let pages = plain_ftl.logical_pages();
        let plain = Runner::new().run_qd(plain_ftl.as_mut(), &mut wl(pages), 1);

        let mut sharded_ftl = warmed_sharded(kind, 1);
        assert_eq!(sharded_ftl.logical_pages(), pages, "{kind}");
        let sharded = Runner::new().run_sharded_qd(&mut sharded_ftl, &mut wl(pages), 1);

        let r = &sharded.result;
        assert_eq!(r.requests, plain.requests, "{kind}");
        assert_eq!(r.elapsed, plain.elapsed, "{kind}: elapsed must match");
        assert_eq!(
            r.latencies.mean(),
            plain.latencies.mean(),
            "{kind}: mean latency must match exactly"
        );
        assert_eq!(
            r.latencies.max(),
            plain.latencies.max(),
            "{kind}: max latency must match exactly"
        );
        assert_eq!(
            r.stats.host_read_pages, plain.stats.host_read_pages,
            "{kind}"
        );
        assert_eq!(r.stats.cmt_hits, plain.stats.cmt_hits, "{kind}");
        assert_eq!(r.stats.double_reads, plain.stats.double_reads, "{kind}");
        assert_eq!(
            r.device.reads, plain.device.reads,
            "{kind}: same flash traffic"
        );
    }
}

#[test]
fn open_loop_reports_latency_under_offered_load() {
    let mut ftl = warmed_sharded(FtlKind::Dftl, 4);
    let mut wl = FioWorkload::new(FioPattern::RandRead, ftl.logical_pages(), 4, 1, 100, 13);
    let light = Runner::new().run_open_loop(&mut ftl, &mut wl, Duration::from_micros(200), 17);
    assert_eq!(light.requests, 400);
    assert_eq!(light.queueing.count(), 0, "open loop has no host queue");
    assert!(light.latencies.mean() > Duration::ZERO);
    // 5us inter-arrival (~200 KIOPS offered) is far past a 4-engine
    // frontend's capacity: the backlog must inflate latency well past the
    // lightly loaded run's.
    let mut ftl2 = warmed_sharded(FtlKind::Dftl, 4);
    let mut wl2 = FioWorkload::new(FioPattern::RandRead, ftl2.logical_pages(), 4, 1, 100, 13);
    let heavy = Runner::new().run_open_loop(&mut ftl2, &mut wl2, Duration::from_micros(5), 17);
    assert!(
        heavy.latencies.mean() > light.latencies.mean().saturating_mul(2),
        "saturating offered load must inflate latency ({} vs {})",
        heavy.latencies.mean(),
        light.latencies.mean()
    );
}

#[test]
fn traced_open_loop_puts_each_host_span_on_its_serving_shard() {
    // Regression: open-loop runs on a sharded frontend used to tag every host
    // span as shard 0, so the analysis piled all requests onto one shard.
    let (streams, per_stream, seed) = (4, 50, 13);
    let mut ftl = warmed_sharded(FtlKind::Dftl, 2);
    ftl.set_tracing(true);
    let map = *ftl.map();
    let fio = |pages| FioWorkload::new(FioPattern::RandRead, pages, streams, 1, per_stream, seed);
    let mut wl = fio(ftl.logical_pages());
    let run = Runner::new().run_open_loop(&mut ftl, &mut wl, Duration::from_micros(50), 17);

    // Open-loop arrivals cycle round-robin over the streams, so a twin
    // workload replayed in that order yields each request's first LPN.
    let mut twin = fio(ftl.logical_pages());
    let lpns: Vec<u64> = (0..streams * per_stream as usize)
        .map(|k| {
            twin.next_request(k % streams)
                .expect("stream has requests")
                .lpn
        })
        .collect();
    let mut spans = 0;
    for event in &run.trace {
        if let TraceData::HostRequest { req, .. } = event.data {
            let expected = map.shard_of(lpns[req as usize]) as u32;
            assert_eq!(event.shard, expected, "request {req}");
            spans += 1;
        }
    }
    assert_eq!(spans, run.requests);

    let analysis = metrics::analyze(&run.trace);
    let busy = analysis.shards.iter().filter(|s| s.requests > 0).count();
    assert!(busy > 1, "requests must spread over the shards, saw {busy}");
}

#[test]
fn sharded_prelude_types_are_usable_end_to_end() {
    // The routing map is part of the public surface.
    let map = ShardMap::new(4);
    assert_eq!(map.shard_of(5), 1);
    assert_eq!(map.local_lpn(5), 1);

    // MultiIssuer standalone: two engines overlap, one serialises.
    use ssd_sim::SimTime;
    let mut bank = MultiIssuer::new(2);
    let service = Duration::from_micros(40);
    let (_, c0) = bank.submit(0, SimTime::ZERO, |t| t + service);
    let (i1, _) = bank.submit(1, SimTime::ZERO, |t| t + service);
    assert_eq!(i1, SimTime::ZERO, "second engine is free");
    let (i2, _) = bank.submit(0, SimTime::ZERO, |t| t + service);
    assert_eq!(i2, c0, "same engine serialises");

    // And a sharded frontend drives like any Ftl.
    let mut ftl = FtlKind::Ideal.build_sharded(shard_device(), 2);
    let t = ftl.write(0, 8, SimTime::ZERO);
    assert!(t > SimTime::ZERO);
    assert_eq!(ftl.stats().host_write_pages, 8);
    assert_eq!(ftl.shard_count(), 2);
}
