//! Seed determinism: one seed gives one op stream and, on the
//! single-thread workload, identical counts.

use perfbench::clock::Stamp;

use perfbench::record::{Budget, Recorder};
use perfbench::workload::embedded::{self, Cfg, Gen};

const SMALL: Cfg = Cfg {
    buckets: 4_096,
    live: 6_144,
    warm_passes: 1,
    setup_reps: 1,
};

#[test]
fn one_seed_gives_one_op_stream() {
    let take = |seed| {
        let mut g = Gen::new(seed, SMALL.live);
        (0..50_000).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(take(7), take(7));
    assert_ne!(take(7), take(8));
}

#[test]
fn embedded_read_counts_repeat_exactly() {
    let run = |seed| {
        let (mut st, _, _) = embedded::setup(&SMALL, seed, &embedded::paper_table).expect("setup");
        let m0 = mccuckoo_core::McTable::mem_stats(&st.table);
        let mut rec = Recorder::new(Stamp::now(), None, false);
        let c = embedded::run(&mut st, seed, Budget::calls(100_000), &mut rec).expect("run");
        let mem = mccuckoo_core::McTable::mem_stats(&st.table) - m0;
        (c, mem, st.table.stats().ops, st.model.clone())
    };
    let (a, b) = (run(11), run(11));
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert_eq!(a.0.calls, 100_000);
    assert!(a.0.hits > 0 && a.0.lookups > a.0.hits);
    assert_ne!(run(12).1, a.1, "another seed should meter differently");
}
