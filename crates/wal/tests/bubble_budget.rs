//! The bubble budget's byte accounting, read through the process-global
//! `swift_obs` recorder. It lives in a test binary of its own: a sibling
//! test logging in the same process while the recorder is installed
//! would add its bytes to the counters asserted here.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use swift_dnn::StepCtx;
use swift_net::Topology;
use swift_obs::{Counter, MemoryRecorder};
use swift_pipeline::MsgKind;
use swift_store::BlobStore;
use swift_tensor::Tensor;
use swift_wal::{GroupMap, LogMode, LogRecord, Logger};

#[test]
fn bubble_budget_spills_synchronously_and_accounts_hidden_bytes() {
    let rec = Arc::new(MemoryRecorder::new());
    swift_obs::install(rec.clone());

    let topo = Topology::uniform(2, 2); // ranks 0,1 | 2,3
    let store = BlobStore::new_temp("wal").unwrap();
    let mut l = Logger::new(
        LogMode::BubbleAsync,
        topo,
        GroupMap::singletons(2),
        store.clone(),
    );
    let t = Tensor::ones([4]);
    let one = LogRecord::encoded_len(&t, false);
    // Budget fits exactly one staged record; the second must spill.
    l.set_bubble_budget(one);
    l.log_send(1, 2, StepCtx::new(0, 0), MsgKind::Activation, &t);
    l.log_send(1, 2, StepCtx::new(0, 1), MsgKind::Activation, &t);
    assert_eq!(l.staged_len(), 1, "over-budget record must not stage");
    assert_eq!(
        l.store().list("wal/").unwrap().len(),
        1,
        "spilled record is immediately durable"
    );
    l.on_bubble();
    l.flush();
    swift_obs::uninstall();

    assert_eq!(l.stats().records_written.load(Ordering::Relaxed), 2);
    // Hidden vs spilled must partition the logged volume exactly.
    assert_eq!(rec.counter(Counter::SpilledBytes), one as u64);
    assert_eq!(rec.counter(Counter::BubbleBytes), one as u64);
    assert_eq!(rec.counter(Counter::BytesLogged), 2 * one as u64);
    drop(l);
    store.destroy().unwrap();
}
