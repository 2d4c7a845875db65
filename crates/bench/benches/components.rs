//! Microbenchmarks of the simulator's hot components: how fast the models
//! themselves run (host-side performance, not simulated time).

use std::hint::black_box;

use smarco_bench::timing::bench;
use smarco_core::config::SmarcoConfig;
use smarco_mem::cache::{Cache, CacheConfig};
use smarco_mem::mact::{Mact, MactConfig};
use smarco_mem::request::{MemRequest, RequestIdAllocator};
use smarco_noc::link::LinkConfig;
use smarco_noc::traffic::{Pattern, SizeMix, Testbench, TrafficConfig};
use smarco_noc::NocConfig;
use smarco_sched::{run_tasks, LaxityAwareScheduler, Task};
use smarco_sim::rng::SimRng;

fn bench_cache() {
    let mut cache = Cache::new(CacheConfig::smarco_l1());
    let mut rng = SimRng::new(1);
    bench("cache_access_stream", || {
        let addr = rng.gen_range(1 << 20);
        black_box(cache.access(addr, false));
    });
}

fn bench_mact() {
    let mut mact = Mact::new(MactConfig::default());
    let mut ids = RequestIdAllocator::new();
    let mut rng = SimRng::new(2);
    let mut now = 0;
    bench("mact_offer_and_flush", || {
        let addr = rng.gen_range(1 << 16) & !1;
        let req = MemRequest {
            id: ids.next_id(),
            core: 0,
            mem: smarco_isa::MemRef::new(addr, 2),
            is_write: false,
            issued_at: now,
        };
        black_box(mact.offer(req, now));
        now += 1;
        black_box(mact.tick(now));
    });
}

fn bench_noc() {
    bench("noc_tiny_1k_cycles", || {
        let traffic = TrafficConfig {
            rate: 0.3,
            pattern: Pattern::ToMemory,
            sizes: SizeMix::htc(),
        };
        let mut cfg = NocConfig::tiny();
        cfg.main_link = LinkConfig::main_ring();
        let mut tb = Testbench::new(cfg, traffic, 3);
        black_box(tb.run(1_000, 1_000));
    });
}

fn bench_chip_tick() {
    let mut sys = smarco_bench::harness::build_system(&SmarcoConfig::tiny());
    for core in 0..sys.cores_len() {
        for _ in 0..4 {
            smarco_bench::harness::or_exit(
                sys.attach(core, Box::new(smarco_isa::mix::compute_only(u64::MAX / 2))),
            );
        }
    }
    bench("chip_tiny_tick", || {
        sys.advance_until(sys.now() + 1);
    });
}

fn bench_scheduler() {
    bench("laxity_scheduler_128_tasks", || {
        let tasks: Vec<Task> = (0..128)
            .map(|i| Task::new(i, 0, 340_000, 100_000 + i * 100))
            .collect();
        let mut s = LaxityAwareScheduler::subring();
        black_box(run_tasks(&mut s, tasks, 64, 10_000_000));
    });
}

fn main() {
    bench_cache();
    bench_mact();
    bench_noc();
    bench_chip_tick();
    bench_scheduler();
}
