//! The traced run: per-layer metrics.
//!
//! Two sources, neither of which adds a span inside the program:
//!
//! - the same seeded failure-free and failure trials as the untraced run,
//!   with `swift_obs::MemoryRecorder` installed, give the recovery
//!   segments (from the spans the runtime already emits) and the
//!   counters (pool hits and misses, bytes logged and spilled,
//!   checkpoint bytes);
//! - direct, timed calls into each layer's public functions on the
//!   workload's exact model, shard and state shapes. Collectives run on a
//!   bench-owned 2-rank `swift_net::Cluster`.
//!
//! The "focus rank" whose shapes are timed is the rank failure trials
//! kill: a DP replica (the full model on its batch shard), or pipeline
//! stage 0 (its stage model over all micro-batches, with stage 1 run
//! untimed to produce the real boundary gradients).

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use swift_ckpt::{Checkpoint, CheckpointManager};
use swift_core::{
    dp_train_step, pipeline_train_iteration, recovery_fence, DatasetSource, DpWorker, PipelineJob,
    PipelineWorker,
};
use swift_data::{shard_batch, split_microbatches, Dataset};
use swift_dnn::models::split_stages;
use swift_dnn::{softmax_cross_entropy_scaled, Mode, ModelState, Sequential, StepCtx};
use swift_net::{
    default_chunk_bytes, default_shard_bytes, Cluster, KvStore, RetryPolicy, Topology, WorkerCtx,
};
use swift_obs::{Counter, Generation, IterationId, Phase};
use swift_optim::{OptimState, Optimizer};
use swift_pipeline::{bubble_ratio, MsgKind, ScheduleKind};
use swift_store::{BlobStore, GlobalStore};
use swift_tensor::Tensor;
use swift_wal::{GroupMap, LogMode, LogPrecision, Logger, WalReader};

use crate::report::Report;
use crate::stats::{interquartile_mean, median};
use crate::trial::{check_clean, check_failure, incident, run_job, Observe};
use crate::workload::Workload;
use crate::{describe, prepare, JobStores, MIN_SAMPLES};

/// Repetitions of each direct layer call: enough for a steady median,
/// few enough that the large-state workload's calls fit in a few seconds.
fn reps(w: &Workload, seed: u64) -> usize {
    match state_mib(w, seed) {
        s if s > 16.0 => 5,
        s if s > 1.0 => 10,
        _ => 50,
    }
}

/// Model plus optimizer state of the whole job (one DP replica, or all
/// pipeline stages), encoded, in MiB.
pub fn state_mib(w: &Workload, seed: u64) -> f64 {
    let (m, o) = stepped_state(w.model.build(seed), w);
    (m.encoded_size() + o.encoded_size()) as f64 / (1 << 20) as f64
}

/// The model's state and its optimizer's state after one (zero-gradient)
/// update, so every optimizer slot exists.
fn stepped_state(mut model: Sequential, w: &Workload) -> (ModelState, OptimState) {
    let mut opt = w.opt.build();
    model.optimizer_step(&mut *opt);
    (model.state(), opt.state())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_or_zero(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// The focus rank's inputs for iteration 0: a DP replica's batch shard,
/// or every micro-batch of the pipeline's batch.
fn focus_inputs(w: &Workload, dataset: &dyn Dataset) -> Vec<(Tensor, Vec<usize>)> {
    let batch = dataset.batch(0, w.batch);
    if w.is_pipeline() {
        split_microbatches(&batch, w.microbatches())
            .into_iter()
            .map(|mb| (mb.batch.x, mb.batch.y))
            .collect()
    } else {
        let s = shard_batch(&batch, w.victim(), w.ranks());
        vec![(s.x, s.y)]
    }
}

/// The focus rank's model and inputs.
struct Fixture {
    /// DP: the full replica; PP: stage 0.
    model: Sequential,
    /// PP: stage 1, run untimed for the boundary gradients.
    next: Option<Sequential>,
    opt: Box<dyn Optimizer>,
    /// DP: the rank's shard; PP: the micro-batches.
    inputs: Vec<(Tensor, Vec<usize>)>,
    /// One tensor crossing the 2-stage split point (DP: of the shard).
    boundary: Tensor,
    example_weight: f32,
}

impl Fixture {
    fn new(w: &Workload, seed: u64, dataset: &dyn Dataset) -> Self {
        let inputs = focus_inputs(w, dataset);
        let mut stages = split_stages(w.model.build(seed), 2);
        let second = stages.pop().expect("two stages");
        let mut first = stages.pop().expect("two stages");
        let boundary = first.forward(StepCtx::new(0, 0), &inputs[0].0, Mode::Eval);
        let (model, next) = if w.is_pipeline() {
            (first, Some(second))
        } else {
            (w.model.build(seed), None)
        };
        Fixture {
            model,
            next,
            opt: w.opt.build(),
            inputs,
            boundary,
            example_weight: 1.0 / w.batch as f32,
        }
    }

    /// Forward over every input, then backward in reverse: returns the
    /// two timings and leaves the gradients accumulated in the model.
    fn forward_backward(&mut self, it: u64) -> (f64, f64) {
        self.model.zero_grads();
        let t0 = Instant::now();
        let outs: Vec<Tensor> = self
            .inputs
            .iter()
            .enumerate()
            .map(|(mb, (x, _))| {
                self.model
                    .forward(StepCtx::new(it, mb as u64), x, Mode::Train)
            })
            .collect();
        let fwd = ms(t0.elapsed());
        let grads: Vec<Tensor> = outs
            .iter()
            .zip(&self.inputs)
            .enumerate()
            .map(|(mb, (out, (_, y)))| {
                let ctx = StepCtx::new(it, mb as u64);
                match &mut self.next {
                    None => softmax_cross_entropy_scaled(out, y, self.example_weight).1,
                    Some(next) => {
                        let logits = next.forward(ctx, out, Mode::Train);
                        let g = softmax_cross_entropy_scaled(&logits, y, self.example_weight).1;
                        let gin = next.backward(ctx, &g);
                        next.zero_grads();
                        gin
                    }
                }
            })
            .collect();
        let t1 = Instant::now();
        for (mb, g) in grads.iter().enumerate().rev() {
            std::hint::black_box(self.model.backward(StepCtx::new(it, mb as u64), g));
        }
        (fwd, ms(t1.elapsed()))
    }
}

/// Medians of the direct layer calls, by metric name.
struct LayerTimes(Vec<(&'static str, f64)>);

impl LayerTimes {
    fn put(&mut self, name: &'static str, v: f64) {
        self.0.push((name, v));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

fn time_layers(w: &Workload, seed: u64) -> LayerTimes {
    let reps = reps(w, seed);
    let dataset = w.dataset(seed);
    let mut out = LayerTimes(Vec::new());

    // swift-data: one iteration's batch and its split.
    let mut v = Vec::new();
    for it in 0..reps as u64 {
        let t0 = Instant::now();
        let b = dataset.batch(it, w.batch);
        if w.is_pipeline() {
            std::hint::black_box(split_microbatches(&b, w.microbatches()));
        } else {
            for r in 0..w.ranks() {
                std::hint::black_box(shard_batch(&b, r, w.ranks()));
            }
        }
        v.push(ms(t0.elapsed()));
    }
    out.put("data.batch_ms", median_or_zero(&v));

    // swift-dnn forward/backward and swift-optim update/undo, alternating
    // update and undo so the state stays where it started.
    let mut f = Fixture::new(w, seed, &*dataset);
    let (mut fwd, mut bwd, mut upd, mut undo, mut plain) = (vec![], vec![], vec![], vec![], vec![]);
    let groups: Vec<usize> = (0..f.model.num_param_groups()).collect();
    for it in 0..=reps as u64 {
        let (a, b) = f.forward_backward(it);
        let grads = f.model.grads_snapshot();
        let t0 = Instant::now();
        f.model
            .apply_update_with(&mut *f.opt, &grads, 0, groups.len());
        f.opt.finish_step();
        let u = ms(t0.elapsed());
        let t1 = Instant::now();
        f.model
            .undo_update_with(&mut *f.opt, &grads, &groups)
            .expect("benchmark optimizers are invertible");
        f.opt.rollback_step();
        let d = ms(t1.elapsed());
        // Iteration 0 is the untimed warm-up (pool fill, slot creation).
        if it > 0 {
            fwd.push(a);
            bwd.push(b);
            upd.push(u);
            undo.push(d);
        }
    }
    out.put("dnn.forward_ms", median_or_zero(&fwd));
    out.put("dnn.backward_ms", median_or_zero(&bwd));
    out.put("optim.update_ms", median_or_zero(&upd));
    out.put("optim.undo_ms", median_or_zero(&undo));

    // The single-worker baseline: the whole model on one rank, forward +
    // backward + update, no comm and no logging.
    let mut whole = w.model.build(seed);
    let mut opt = w.opt.build();
    let n = whole.num_param_groups();
    for it in 0..=reps as u64 {
        let t0 = Instant::now();
        whole.zero_grads();
        for (mb, (x, y)) in f.inputs.iter().enumerate() {
            let ctx = StepCtx::new(it, mb as u64);
            let out = whole.forward(ctx, x, Mode::Train);
            let g = softmax_cross_entropy_scaled(&out, y, f.example_weight).1;
            whole.backward(ctx, &g);
        }
        let grads = whole.grads_snapshot();
        whole.apply_update_with(&mut *opt, &grads, 0, n);
        opt.finish_step();
        if it > 0 {
            plain.push(ms(t0.elapsed()));
        }
    }
    out.put("core.plain_step_ms", median_or_zero(&plain));

    // swift-dnn state codec of the focus rank's full state.
    let (model_state, optim_state) = (f.model.state(), f.opt.state());
    let (mut enc, mut dec) = (vec![], vec![]);
    let mut payload = Bytes::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = model_state.encode();
        let o = optim_state.encode();
        enc.push(ms(t0.elapsed()));
        let t1 = Instant::now();
        let dm = ModelState::decode(&mut m.clone()).expect("model state decodes");
        let dopt = OptimState::decode(&mut o.clone()).expect("optim state decodes");
        dec.push(ms(t1.elapsed()));
        assert!(dm.bit_eq(&model_state) && dopt.name == optim_state.name);
        let mut buf = BytesMut::with_capacity(m.len() + o.len());
        buf.extend_from_slice(&m);
        buf.extend_from_slice(&o);
        payload = buf.freeze();
    }
    out.put("dnn.state_encode_ms", median_or_zero(&enc));
    out.put("dnn.state_decode_ms", median_or_zero(&dec));

    // swift-ckpt: save + gc, and load, of the focus rank's state.
    let ckpt_store = BlobStore::new_temp("bench-ckpt").expect("checkpoint store");
    let mgr = CheckpointManager::new(ckpt_store, 0);
    let (mut save, mut load) = (vec![], vec![]);
    for it in 1..=reps as u64 {
        let ckpt = Checkpoint {
            iteration: it,
            model: model_state.clone(),
            optim: optim_state.clone(),
        };
        let t0 = Instant::now();
        mgr.save(&ckpt).expect("checkpoint save");
        mgr.gc().expect("checkpoint gc");
        save.push(ms(t0.elapsed()));
        let t1 = Instant::now();
        let back = mgr.load_latest().expect("checkpoint load");
        load.push(ms(t1.elapsed()));
        assert!(back.is_some_and(|c| c.iteration == it && c.model.bit_eq(&model_state)));
    }
    out.put("ckpt.save_ms", median_or_zero(&save));
    out.put("ckpt.load_ms", median_or_zero(&load));

    time_wal_and_store(w, &f.boundary, reps, &mut out);
    time_collectives(&f, payload, reps, &mut out);
    out.put("net.kv_wake_us", kv_wake_us(reps));
    out.put("core.fence_call_us", fence_call_us(reps));
    time_steps(w, seed, reps, &mut out);
    out
}

/// swift-wal logging, flush and read, and swift-store put/get/upload at
/// the size of one boundary record.
fn time_wal_and_store(w: &Workload, boundary: &Tensor, reps: usize, out: &mut LayerTimes) {
    let m = w.microbatches();
    let topo = Topology::uniform(2, 1);
    let store = BlobStore::new_temp("bench-wal").expect("wal store");
    let mut logger = Logger::new(
        LogMode::BubbleAsync,
        topo.clone(),
        GroupMap::singletons(2),
        store.clone(),
    );
    let (mut log, mut flush, mut read) = (vec![], vec![], vec![]);
    for it in 0..reps as u64 {
        let t0 = Instant::now();
        for mb in 0..m {
            logger.log_send(
                0,
                1,
                StepCtx::new(it, mb as u64),
                MsgKind::Activation,
                boundary,
            );
        }
        logger.on_bubble();
        log.push(ms(t0.elapsed()));
        let t1 = Instant::now();
        logger.flush();
        flush.push(ms(t1.elapsed()));
        let reader = WalReader::new(store.clone());
        let t2 = Instant::now();
        let records = reader.records_for(IterationId::new(it)).expect("wal read");
        read.push(ms(t2.elapsed()));
        assert_eq!(records.len(), m, "every logged micro-batch reads back");
    }
    out.put("wal.log_ms", median_or_zero(&log));
    out.put("wal.flush_ms", median_or_zero(&flush));
    out.put("wal.read_ms", median_or_zero(&read));

    // One WAL record's bytes through the blob store.
    let key = store
        .list("wal/")
        .expect("wal listing")
        .into_iter()
        .next()
        .expect("at least one record");
    let record = store.get(&key).expect("record read");
    let blobs = BlobStore::new_temp("bench-blob").expect("blob store");
    let (mut put, mut get) = (vec![], vec![]);
    for i in 0..reps {
        let k = format!("rec/{i}");
        let t0 = Instant::now();
        blobs.put(&k, &record).expect("blob put");
        put.push(ms(t0.elapsed()));
        let t1 = Instant::now();
        let back = blobs.get(&k).expect("blob get");
        get.push(ms(t1.elapsed()));
        assert_eq!(back.len(), record.len());
    }
    out.put("store.put_ms", median_or_zero(&put));
    out.put("store.get_ms", median_or_zero(&get));

    // One checkpoint interval's logs uploaded to the global store, as a
    // survivor does on failure.
    let interval = w.ckpt_interval.min(w.iters);
    let local = BlobStore::new_temp("bench-upload").expect("upload store");
    let mut sync = Logger::new(LogMode::Sync, topo, GroupMap::singletons(2), local.clone());
    for it in 0..interval {
        for mb in 0..m {
            sync.log_send(
                0,
                1,
                StepCtx::new(it, mb as u64),
                MsgKind::Activation,
                boundary,
            );
        }
    }
    sync.flush();
    let mut upload = vec![];
    for _ in 0..reps {
        let global = GlobalStore::new_temp().expect("global store");
        let t0 = Instant::now();
        let keys = global.upload_prefix(&local, "wal/").expect("upload");
        upload.push(ms(t0.elapsed()));
        assert_eq!(keys.len(), interval as usize * m);
        let _ = global.blob().clone().destroy();
    }
    out.put("store.upload_ms", median_or_zero(&upload));
}

/// Runs `f` on both ranks of a fresh 2-rank cluster; returns, per rep,
/// the slowest rank's time (the collective's critical path).
fn on_two_ranks(f: impl Fn(&mut WorkerCtx) -> Vec<f64> + Send + Sync + 'static) -> Vec<f64> {
    let per_rank = Cluster::run_all(Topology::uniform(2, 1), move |mut ctx| f(&mut ctx));
    let reps = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    (0..reps)
        .map(|i| per_rank.iter().map(|v| v[i]).fold(0.0, f64::max))
        .collect()
}

/// swift-net collectives on the focus rank's gradient, state and
/// boundary tensor.
fn time_collectives(f: &Fixture, payload: Bytes, reps: usize, out: &mut LayerTimes) {
    let g = Arc::new(f.model.grads_snapshot());
    let grad_bytes: usize = g.iter().map(|t| t.numel() * 4).sum();
    let allreduce = on_two_ranks(move |ctx| {
        let mut outs: Vec<Tensor> = g.iter().cloned().collect();
        let mut v = vec![];
        for i in 0..=reps {
            ctx.comm.barrier().expect("barrier");
            let t0 = Instant::now();
            for (t, o) in g.iter().zip(outs.iter_mut()) {
                ctx.comm
                    .allreduce_sum_chunked_into(&[0, 1], t, o, default_chunk_bytes())
                    .expect("allreduce");
            }
            if i > 0 {
                v.push(ms(t0.elapsed()));
            }
        }
        v
    });
    let ar = median_or_zero(&allreduce);
    out.put("net.allreduce_ms", ar);
    out.put("net.allreduce_gbps", grad_bytes as f64 / (ar * 1e6));

    let len = payload.len();
    let p = payload.clone();
    let broadcast = on_two_ranks(move |ctx| {
        let mut v = vec![];
        for i in 0..=reps {
            let root_payload = (ctx.rank() == 0).then(|| p.clone());
            ctx.comm.barrier().expect("barrier");
            let t0 = Instant::now();
            let got = ctx
                .comm
                .broadcast_bytes_chunked_among(&[0, 1], 0, root_payload, default_chunk_bytes())
                .expect("broadcast");
            if i > 0 {
                v.push(ms(t0.elapsed()));
            }
            assert_eq!(got.len(), p.len());
        }
        v
    });
    let p = payload;
    let scatter = on_two_ranks(move |ctx| {
        let mut v = vec![];
        for i in 0..=reps {
            let mine = (ctx.rank() == 0).then(|| p.clone());
            ctx.comm.barrier().expect("barrier");
            let t0 = Instant::now();
            let got = ctx
                .comm
                .scatter_state_sharded(&[0], &[1], mine, default_shard_bytes())
                .expect("scatter");
            if i > 0 {
                v.push(ms(t0.elapsed()));
            }
            assert_eq!(got, p, "sharded transfer delivers the state bitwise");
        }
        v
    });
    let bc = median_or_zero(&broadcast);
    out.put("net.broadcast_ms", bc);
    out.put("net.scatter_ms", median_or_zero(&scatter));
    out.put("net.state_gbps", len as f64 / (bc * 1e6));

    let boundary = f.boundary.clone();
    let p2p = on_two_ranks(move |ctx| {
        let mut v = vec![];
        for i in 0..=reps {
            ctx.comm.barrier().expect("barrier");
            let t0 = Instant::now();
            if ctx.rank() == 0 {
                ctx.comm.send_tensor(1, 7, &boundary).expect("send");
            } else {
                let t = ctx.comm.recv_tensor(0, 7).expect("recv");
                assert_eq!(t.numel(), boundary.numel());
            }
            if i > 0 {
                v.push(ms(t0.elapsed()));
            }
        }
        v
    });
    out.put("net.p2p_ms", median_or_zero(&p2p));
}

/// From `KvStore::set` on one thread to the wake-up of a
/// `RetryPolicy::poll().wait_until` waiter on another, which has been
/// waiting for 500 µs — a typical rendezvous wait.
fn kv_wake_us(reps: usize) -> f64 {
    let kv = KvStore::new();
    let mut v = vec![];
    for i in 0..reps {
        let key = format!("wake/{i}");
        let start = Barrier::new(2);
        let woke = Mutex::new(None);
        let set_at = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                assert!(RetryPolicy::poll().wait_until(|| kv.get(&key).is_some()));
                *woke.lock().expect("wake lock") = Some(Instant::now());
            });
            start.wait();
            std::thread::sleep(Duration::from_micros(500));
            let t = Instant::now();
            kv.set(&key, "1");
            t
        });
        let woke = woke.into_inner().expect("wake lock").expect("waiter woke");
        v.push(woke.duration_since(set_at).as_secs_f64() * 1e6);
    }
    median_or_zero(&v)
}

/// One `recovery_fence` among both ranks of a 2-rank cluster.
fn fence_call_us(reps: usize) -> f64 {
    let v = on_two_ranks(move |ctx| {
        let mut v = vec![];
        for i in 0..=reps as u64 {
            ctx.comm.barrier().expect("barrier");
            let t0 = Instant::now();
            recovery_fence(ctx, Generation::new(1 + i), &[0, 1]).expect("fence");
            if i > 0 {
                v.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        v
    });
    median_or_zero(&v)
}

/// swift-core steps: `dp_train_step` on both replicas, or
/// `pipeline_train_iteration` on both stages, of a bench-owned cluster.
fn time_steps(w: &Workload, seed: u64, reps: usize, out: &mut LayerTimes) {
    let dataset = w.dataset(seed);
    let model_fn = w.model_fn(seed);
    let opt = w.opt;
    let batch = w.batch;
    let step = if w.is_pipeline() {
        let m = w.microbatches();
        let global = GlobalStore::new_temp().expect("global store");
        let job = PipelineJob {
            stage_ranks: vec![0, 1],
            microbatches: m,
            kind: ScheduleKind::OneFOneB,
            ckpt_interval: w.ckpt_interval,
            batch_size: batch,
        };
        on_two_ranks(move |ctx| {
            let stage = ctx.rank();
            let mut wk = PipelineWorker {
                stage,
                model: split_stages(model_fn(), 2).swap_remove(stage),
                opt: opt.build(),
                iteration: 0,
                logger: Logger::with_precision(
                    LogMode::BubbleAsync,
                    ctx.topology.clone(),
                    GroupMap::singletons(2),
                    BlobStore::new_temp("bench-stage").expect("stage store"),
                    LogPrecision::F32,
                ),
                ckpt: CheckpointManager::new(global.blob().clone(), stage),
                global: global.clone(),
                last_grads: Vec::new(),
            };
            let data = DatasetSource {
                dataset: dataset.clone(),
                batch_size: batch,
                microbatches: m,
            };
            let mut v = vec![];
            for i in 0..=reps {
                ctx.comm.barrier().expect("barrier");
                let t0 = Instant::now();
                pipeline_train_iteration(ctx, &job, &mut wk, &data).expect("pipeline iteration");
                if i > 0 {
                    v.push(ms(t0.elapsed()));
                }
            }
            v
        })
    } else {
        on_two_ranks(move |ctx| {
            let mut wk = DpWorker::new(model_fn(), opt.build());
            let mut v = vec![];
            for i in 0..=reps as u64 {
                let b = dataset.batch(i, batch);
                let s = shard_batch(&b, ctx.rank(), 2);
                ctx.comm.barrier().expect("barrier");
                let t0 = Instant::now();
                dp_train_step(ctx, &mut wk, &[0, 1], &s.x, &s.y, 1.0 / batch as f32, None)
                    .expect("dp step");
                if i > 0 {
                    v.push(ms(t0.elapsed()));
                }
            }
            v
        })
    };
    let step = median_or_zero(&step);
    out.put("core.step_ms", step);
    let compute = out.get("dnn.forward_ms") + out.get("dnn.backward_ms");
    let comm = if w.is_pipeline() {
        w.microbatches() as f64 * out.get("net.p2p_ms") + out.get("wal.log_ms")
    } else {
        out.get("net.allreduce_ms")
    };
    out.put(
        "core.step_unattributed_ms",
        step - compute - out.get("optim.update_ms") - comm,
    );
    let stages = if w.is_pipeline() { w.ranks() } else { 1 };
    out.put(
        "pipeline.bubble_share",
        bubble_ratio(stages, w.microbatches()),
    );
    out.put("pipeline.idle_share", 1.0 - compute / step);
}

/// The traced run.
pub fn run_traced(w: &Workload, seed: u64, seconds: u64, stores: &JobStores) -> Report {
    let mut rep = Report::new(true);
    let p = match prepare(w, seed, stores) {
        Ok(p) => p,
        Err(e) => {
            rep.fail(&format!("set-up: {e}"));
            return rep;
        }
    };
    describe(w, seed, &p.kills);
    let deadline = Instant::now() + Duration::from_secs(seconds);

    // The direct calls count as one op; a panic in them fails that op and
    // leaves their metrics unmeasured.
    rep.attempted += 1;
    let layers = std::panic::catch_unwind(|| time_layers(w, seed));
    stores.clear();
    match layers {
        Ok(layers) => {
            for &(name, v) in &layers.0 {
                rep.metric(name, v);
            }
        }
        Err(_) => rep.fail("direct layer calls panicked"),
    }

    // The same seeded trials as the untraced run, fully traced.
    let samples = (w.iters * w.batch as u64) as f64;
    let (mut traced, mut untraced) = (vec![], vec![]);
    let (mut pool_hits, mut pool_misses) = (0u64, 0u64);
    let (mut logged, mut spilled, mut ckpt_bytes, mut saves) = (0u64, 0u64, 0u64, 0u64);
    let mut clean_runs = 0u64;
    let mut segments: Vec<Vec<(Phase, u64)>> = vec![];
    let mut mttr = vec![];
    let mut used = 0;
    while Instant::now() < deadline
        || traced.len() < MIN_SAMPLES
        || untraced.len() < MIN_SAMPLES
        || segments.len() < MIN_SAMPLES
    {
        rep.attempted += 1;
        let clean = run_job(&p.job, w.iters, None, Observe::Everything)
            .and_then(|r| check_clean(&r.result, &p.reference).map(|()| r));
        stores.clear();
        match clean {
            Ok(r) => {
                traced.push(samples / r.wall.as_secs_f64());
                let c = r.counters.expect("fully traced");
                pool_hits += c.counter(Counter::PoolHits);
                pool_misses += c.counter(Counter::PoolMisses);
                logged += c.counter(Counter::BytesLogged);
                spilled += c.counter(Counter::SpilledBytes);
                let h = c.histogram(Counter::CheckpointBytes);
                ckpt_bytes += h.total;
                saves += h.samples;
                clean_runs += 1;
            }
            Err(e) => {
                rep.fail(&format!("traced failure-free trial: {e}"));
                break;
            }
        }

        rep.attempted += 1;
        let plain = run_job(&p.job, w.iters, None, Observe::Nothing)
            .and_then(|r| check_clean(&r.result, &p.reference).map(|()| r));
        stores.clear();
        match plain {
            Ok(r) => untraced.push(samples / r.wall.as_secs_f64()),
            Err(e) => {
                rep.fail(&format!("untraced failure-free trial: {e}"));
                break;
            }
        }

        rep.attempted += 1;
        let kill = p.kills[used % p.kills.len()];
        used += 1;
        let failed = run_job(&p.job, w.iters, Some(kill), Observe::Everything).and_then(|r| {
            check_failure(w, &r.result, &p.reference)?;
            let inc = incident(&r.events)?;
            let sum: u64 = inc.segments.iter().map(|&(_, d)| d).sum();
            if sum != inc.mttr_ns {
                return Err(format!(
                    "recovery segments sum to {sum} ns, kill-to-resume is {} ns",
                    inc.mttr_ns
                ));
            }
            Ok(inc)
        });
        stores.clear();
        match failed {
            Ok(inc) => {
                mttr.push(inc.mttr_ns as f64 / 1e6);
                segments.push(inc.segments);
            }
            Err(e) => {
                rep.fail(&format!("traced failure trial {kill:?}: {e}"));
                break;
            }
        }
    }
    println!("# kills_used={used} (same schedule as the untraced run)");
    rep.info_distribution("core.mttr_traced_ms", &mttr);

    let phase_ms = |phase: Phase| {
        let v: Vec<f64> = segments
            .iter()
            .map(|s| {
                s.iter()
                    .filter(|&&(p, _)| p == phase)
                    .map(|&(_, d)| d as f64 / 1e6)
                    .sum()
            })
            .collect();
        median_or_zero(&v)
    };
    rep.metric("core.detect_ms", phase_ms(Phase::Detect));
    rep.metric("core.undo_ms", phase_ms(Phase::Undo));
    rep.metric("core.fence_ms", phase_ms(Phase::Fence));
    rep.metric("core.transfer_ms", phase_ms(Phase::Broadcast));
    rep.metric("core.replay_ms", phase_ms(Phase::Replay));
    rep.metric("core.resume_ms", phase_ms(Phase::Resume));
    rep.metric_of("core.mttr_traced_ms", interquartile_mean, &mttr);

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.metric(
        "tensor.pool_miss_ratio",
        ratio(pool_misses, pool_hits + pool_misses),
    );
    rep.metric("wal.bytes_per_iter", ratio(logged, clean_runs * w.iters));
    rep.metric("wal.spill_ratio", ratio(spilled, logged));
    rep.metric("ckpt.bytes_per_save", ratio(ckpt_bytes, saves));

    let t = interquartile_mean(&traced);
    let u = interquartile_mean(&untraced);
    if let (Some(t), Some(u)) = (t, u) {
        rep.metric("obs.samples_per_s_traced", t);
        rep.metric("obs.samples_per_s_untraced", u);
        rep.metric("obs.trace_overhead", u / t);
    }
    rep
}
