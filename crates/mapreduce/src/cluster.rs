//! Discrete cluster model: the paper's 9-node Hadoop deployment.
//!
//! Figures 2 and 5 need a multi-node cluster (1-8 slaves, 24 map / 12
//! reduce slots each, 1 GbE, Hadoop 1.0.2). We model the cluster's
//! first-order behaviour analytically per phase — slot waves, per-node
//! core and disk throughput, shared network fabric with switch
//! oversubscription, HDFS write replication, and Hadoop 1.x job setup
//! overhead — and drive it with per-job cost coefficients ([`JobModel`]):
//! `dcbench::cluster_experiments` sets the CPU volume from Table I's
//! instruction counts and the dataflow ratios from *real* local-engine
//! runs.
//!
//! The model intentionally captures the effects that produce the paper's
//! speed-up spread (3.3×-8.2× on 8 slaves): CPU-bound jobs scale almost
//! linearly, while shuffle- and output-heavy jobs (Sort) are capped by
//! the network fabric and replicated writes that do not exist in the
//! 1-slave configuration.
//!
//! A [`FailureModel`] extends the simulation with Hadoop's behaviour
//! under slave loss ([`simulate_with_failures`]): capacity drops to the
//! surviving nodes, map work completed on lost nodes is re-executed
//! (map outputs are node-local in Hadoop 1.x), and HDFS re-replicates
//! the lost blocks over the shared fabric. Failed runs complete with a
//! degraded — never undefined — makespan, so Figure 2 under failure
//! shows lower speed-ups rather than simulation error.

use dc_obs::{Recorder, Value};

/// Cluster hardware/configuration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of slave (worker) nodes.
    pub slaves: u32,
    /// Map slots per slave (paper: 24).
    pub map_slots_per_slave: u32,
    /// Reduce slots per slave (paper: 12).
    pub reduce_slots_per_slave: u32,
    /// Physical cores per slave (paper: 2 × 6).
    pub cores_per_slave: u32,
    /// Sequential disk bandwidth per slave, MB/s.
    pub disk_mb_per_sec: f64,
    /// NIC line rate per node, MB/s (1 GbE ≈ 125).
    pub net_mb_per_sec: f64,
    /// Switch oversubscription factor for multi-node traffic.
    pub fabric_oversubscription: f64,
    /// HDFS output replication factor (1 on a single node).
    pub replication: u32,
    /// Fixed job setup/teardown overhead, seconds (Hadoop 1.x JobTracker).
    pub job_setup_secs: f64,
    /// Scheduling overhead per task wave, seconds.
    pub wave_overhead_secs: f64,
}

impl ClusterConfig {
    /// The paper's cluster with `slaves` slave nodes.
    pub fn paper(slaves: u32) -> Self {
        ClusterConfig {
            slaves: slaves.max(1),
            map_slots_per_slave: 24,
            reduce_slots_per_slave: 12,
            cores_per_slave: 12,
            disk_mb_per_sec: 90.0,
            net_mb_per_sec: 125.0,
            fabric_oversubscription: 3.0,
            replication: if slaves >= 3 { 3 } else { slaves.max(1) },
            job_setup_secs: 18.0,
            wave_overhead_secs: 2.5,
        }
    }

    /// Usable cross-node fabric bandwidth, MB/s.
    fn fabric_mb_per_sec(&self) -> f64 {
        if self.slaves <= 1 {
            f64::INFINITY // no cross-node traffic exists
        } else {
            f64::from(self.slaves) * self.net_mb_per_sec / self.fabric_oversubscription
        }
    }
}

/// Per-job cost coefficients, normalised per input byte so they can be
/// measured at laptop scale and applied at paper scale.
#[derive(Debug, Clone, PartialEq)]
pub struct JobModel {
    /// Workload name.
    pub name: String,
    /// Input size in GB (Table I).
    pub input_gb: f64,
    /// Single-core CPU-seconds of map work per input GB.
    pub map_cpu_secs_per_gb: f64,
    /// Shuffle bytes per input byte (post-combine).
    pub shuffle_ratio: f64,
    /// Single-core CPU-seconds of reduce work per shuffle GB.
    pub reduce_cpu_secs_per_gb: f64,
    /// Final output bytes per input byte.
    pub output_ratio: f64,
    /// Number of chained MapReduce jobs (iterative algorithms).
    pub iterations: u32,
}

/// The simulated outcome of running a job on a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterRun {
    /// End-to-end job time, seconds.
    pub makespan_secs: f64,
    /// Map-phase seconds.
    pub map_secs: f64,
    /// Shuffle tail beyond map overlap, seconds.
    pub shuffle_secs: f64,
    /// Reduce-phase seconds.
    pub reduce_secs: f64,
    /// Total bytes written to disk across the cluster (spills +
    /// replicated output).
    pub disk_write_bytes: f64,
    /// Disk write operations per second per node (Figure 5's metric,
    /// assuming 64 KiB writes).
    pub disk_writes_per_sec_per_node: f64,
    /// Slave-seconds of work re-executed after node loss (0 in a
    /// failure-free run).
    pub reexecuted_work_secs: f64,
    /// Megabytes re-replicated by HDFS after node loss (0 in a
    /// failure-free run).
    pub rereplicated_mb: f64,
}

/// Simulate `job` on `cluster`.
pub fn simulate(cluster: &ClusterConfig, job: &JobModel) -> ClusterRun {
    let s = f64::from(cluster.slaves);
    let cores = f64::from(cluster.cores_per_slave) * s;
    let disk = cluster.disk_mb_per_sec * s; // MB/s aggregate
    let fabric = cluster.fabric_mb_per_sec();

    let input_mb = job.input_gb * 1024.0;
    let shuffle_mb = input_mb * job.shuffle_ratio;
    let output_mb = input_mb * job.output_ratio;

    // ---- Map phase ----
    // 64 MB splits, as in the paper's Hadoop defaults.
    let map_tasks = (input_mb / 64.0).ceil().max(1.0);
    let map_wave_capacity = f64::from(cluster.map_slots_per_slave) * s;
    let map_waves = (map_tasks / map_wave_capacity).ceil();
    let map_cpu_secs = job.input_gb * job.map_cpu_secs_per_gb;
    // Disk traffic during map: read input + spill map output.
    let map_disk_mb = input_mb + shuffle_mb;
    let map_secs =
        (map_cpu_secs / cores).max(map_disk_mb / disk) + map_waves * cluster.wave_overhead_secs;

    // ---- Shuffle ----
    // Cross-node fraction of the shuffle, over the shared fabric,
    // overlapped with the map phase (Hadoop starts fetching early).
    let cross_mb = shuffle_mb * (s - 1.0).max(0.0) / s;
    let shuffle_total_secs = if fabric.is_finite() {
        cross_mb / fabric
    } else {
        0.0
    };
    let shuffle_secs = (shuffle_total_secs - 0.7 * map_secs).max(0.0);

    // ---- Reduce phase ----
    let reduce_cpu_secs = (shuffle_mb / 1024.0) * job.reduce_cpu_secs_per_gb;
    let repl = f64::from(cluster.replication.max(1));
    // Disk: read the shuffled runs, write replicated output.
    let reduce_disk_mb = shuffle_mb + output_mb * repl;
    // Network: (replication - 1) remote copies of the output.
    let repl_net_secs = if fabric.is_finite() {
        output_mb * (repl - 1.0) / fabric
    } else {
        0.0
    };
    let reduce_secs = (reduce_cpu_secs / cores)
        .max(reduce_disk_mb / disk)
        .max(repl_net_secs)
        + cluster.wave_overhead_secs;

    let per_iter = map_secs + shuffle_secs + reduce_secs;
    let iters = f64::from(job.iterations.max(1));
    let makespan = cluster.job_setup_secs * iters + per_iter * iters;

    let disk_write_bytes = (shuffle_mb + output_mb * repl) * 1e6 * iters;
    let writes = disk_write_bytes / (64.0 * 1024.0);
    ClusterRun {
        makespan_secs: makespan,
        map_secs,
        shuffle_secs,
        reduce_secs,
        disk_write_bytes,
        disk_writes_per_sec_per_node: writes / makespan / s,
        reexecuted_work_secs: 0.0,
        rereplicated_mb: 0.0,
    }
}

/// Speed-up of `job` on `slaves` relative to one slave (Figure 2).
pub fn speedup(job: &JobModel, slaves: u32) -> f64 {
    let t1 = simulate(&ClusterConfig::paper(1), job).makespan_secs;
    let tn = simulate(&ClusterConfig::paper(slaves), job).makespan_secs;
    t1 / tn
}

/// One scheduled node-loss event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// When the nodes fail, seconds after job submission.
    pub at_secs: f64,
    /// How many slaves fail at once.
    pub nodes: u32,
    /// When the nodes rejoin the cluster (seconds after the failure),
    /// or `None` for a permanent loss.
    pub recover_after_secs: Option<f64>,
}

/// A schedule of slave failures and recoveries applied to a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureModel {
    /// The failure events, in any order.
    pub events: Vec<NodeFailure>,
}

impl FailureModel {
    /// The failure-free schedule.
    pub fn none() -> Self {
        FailureModel { events: Vec::new() }
    }

    /// One slave lost permanently at `at_secs`.
    pub fn single_loss(at_secs: f64) -> Self {
        FailureModel {
            events: vec![NodeFailure {
                at_secs,
                nodes: 1,
                recover_after_secs: None,
            }],
        }
    }

    /// One slave lost at `at_secs`, rejoining `recover_after_secs`
    /// later (a rebooted node).
    pub fn single_loss_with_recovery(at_secs: f64, recover_after_secs: f64) -> Self {
        FailureModel {
            events: vec![NodeFailure {
                at_secs,
                nodes: 1,
                recover_after_secs: Some(recover_after_secs),
            }],
        }
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Simulate `job` on `cluster` under a failure schedule.
///
/// The healthy per-phase times from [`simulate`] are re-played as a
/// piecewise timeline — fixed wall segments (job setup, fabric-bound
/// shuffle) and work segments (map/reduce slave-seconds drained at the
/// current surviving capacity). A node loss:
///
/// * drops capacity to the survivors (never below one slave),
/// * re-queues the lost nodes' share of this iteration's completed map
///   work (Hadoop 1.x re-executes completed maps whose node-local
///   output is gone),
/// * stalls the fabric while HDFS re-replicates the lost blocks.
///
/// With an empty schedule the result is exactly [`simulate`]'s.
///
/// When `recorder` is enabled, the replay emits:
///
/// * `phase_start` / `phase_end` span pairs per iteration segment, with
///   lane fields `phase` (`"setup"`/`"map"`/`"shuffle"`/`"reduce"`) and
///   `iteration`;
/// * `node_loss` / `node_recover` markers at each capacity change,
///   carrying the surviving capacity, the re-queued map work and the
///   HDFS re-replication volume.
///
/// Event timestamps are **simulated milliseconds** since job
/// submission — a pure function of the inputs, so two calls with the
/// same arguments produce byte-identical event streams. Observation
/// never changes the returned [`ClusterRun`].
pub fn simulate_with_failures(
    cluster: &ClusterConfig,
    job: &JobModel,
    failures: &FailureModel,
    recorder: &Recorder,
) -> ClusterRun {
    let run = replay_with_failures(cluster, job, failures, recorder);
    if failures.is_empty() {
        // Keep the exactness guarantee of the empty schedule (the
        // replay matches `simulate` only up to float associativity).
        simulate(cluster, job)
    } else {
        run
    }
}

fn replay_with_failures(
    cluster: &ClusterConfig,
    job: &JobModel,
    failures: &FailureModel,
    recorder: &Recorder,
) -> ClusterRun {
    let base = simulate(cluster, job);
    let sim_ms = |t: f64| (t * 1000.0).round() as u64;

    let s = f64::from(cluster.slaves);
    let fabric = cluster.fabric_mb_per_sec();
    let input_mb = job.input_gb * 1024.0;
    let shuffle_mb = input_mb * job.shuffle_ratio;

    // Capacity deltas on a sorted timeline (loss > 0, recovery < 0).
    let mut deltas: Vec<(f64, f64)> = Vec::new();
    for ev in &failures.events {
        let k = f64::from(ev.nodes.min(cluster.slaves));
        if k <= 0.0 || !ev.at_secs.is_finite() {
            continue;
        }
        let at = ev.at_secs.max(0.0);
        deltas.push((at, k));
        if let Some(after) = ev.recover_after_secs {
            deltas.push((at + after.max(0.0), -k));
        }
    }
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut t = 0.0f64;
    let mut alive = s;
    let mut next = 0usize;
    let mut extra_work = 0.0f64; // re-executed slave-seconds
    let mut rerepl_mb = 0.0f64;
    let mut debt = 0.0f64; // rework queued for the next work segment
    let mut map_done: f64; // map slave-seconds banked this iteration
    let mut phase_wall = [0.0f64; 3];

    // Applies the delta at `deltas[next]`; returns the new `alive`.
    let apply = |t: &mut f64,
                 alive: f64,
                 lost: f64,
                 map_done: &mut f64,
                 debt: &mut f64,
                 extra_work: &mut f64,
                 rerepl_mb: &mut f64|
     -> f64 {
        if lost > 0.0 {
            let at_ms = sim_ms(*t);
            // Keep at least one slave so the job always completes.
            let k = lost.min(alive - 1.0).max(0.0);
            let frac = k / s;
            // Completed map work on the lost nodes is gone.
            let rework = *map_done * frac;
            *map_done -= rework;
            *debt += rework;
            *extra_work += rework;
            // HDFS restores one fresh copy of every lost block.
            let lost_mb = input_mb * frac;
            let mut stall_secs = 0.0;
            if fabric.is_finite() && lost_mb > 0.0 {
                stall_secs = lost_mb / fabric;
                *t += stall_secs;
                *rerepl_mb += lost_mb;
            }
            if recorder.is_enabled() {
                recorder.emit(
                    at_ms,
                    "node_loss",
                    vec![
                        ("lost", Value::F64(k)),
                        ("alive", Value::F64(alive - k)),
                        ("requeued_map_secs", Value::F64(rework)),
                        ("rereplicated_mb", Value::F64(lost_mb)),
                        ("rereplication_stall_secs", Value::F64(stall_secs)),
                    ],
                );
            }
            alive - k
        } else {
            let restored = (alive - lost).min(s);
            if recorder.is_enabled() {
                recorder.emit(
                    sim_ms(*t),
                    "node_recover",
                    vec![
                        ("recovered", Value::F64(-lost)),
                        ("alive", Value::F64(restored)),
                    ],
                );
            }
            restored
        }
    };

    let iters = job.iterations.max(1);
    for iter in 0..iters {
        map_done = 0.0;
        // (name, wall secs, work slave-secs, phase index) per segment.
        struct Segment {
            name: &'static str,
            wall: Option<f64>,
            work: Option<f64>,
            phase: Option<usize>,
        }
        let segments = [
            Segment {
                name: "setup",
                wall: Some(cluster.job_setup_secs),
                work: None,
                phase: None,
            },
            Segment {
                name: "map",
                wall: None,
                work: Some(base.map_secs * s),
                phase: Some(0),
            },
            Segment {
                name: "shuffle",
                wall: Some(base.shuffle_secs),
                work: None,
                phase: Some(1),
            },
            Segment {
                name: "reduce",
                wall: None,
                work: Some(base.reduce_secs * s),
                phase: Some(2),
            },
        ];
        for Segment {
            name,
            wall,
            work,
            phase,
        } in segments
        {
            let seg_start = t;
            if recorder.is_enabled() {
                recorder.emit(
                    sim_ms(t),
                    "phase_start",
                    vec![
                        ("phase", Value::str(name)),
                        ("iteration", Value::U64(u64::from(iter))),
                    ],
                );
            }
            if let Some(d) = wall {
                let mut remaining = d;
                loop {
                    let finish = t + remaining;
                    if next < deltas.len() && deltas[next].0 < finish {
                        remaining -= (deltas[next].0 - t).max(0.0);
                        t = deltas[next].0;
                        alive = apply(
                            &mut t,
                            alive,
                            deltas[next].1,
                            &mut map_done,
                            &mut debt,
                            &mut extra_work,
                            &mut rerepl_mb,
                        );
                        next += 1;
                    } else {
                        t = finish;
                        break;
                    }
                }
                if let Some(p) = phase {
                    phase_wall[p] += d;
                }
            } else if let Some(w0) = work {
                let mut w = w0 + debt;
                debt = 0.0;
                let is_map = phase == Some(0);
                loop {
                    w += debt;
                    debt = 0.0;
                    let cap = alive.max(1.0);
                    let finish = t + w / cap;
                    if next < deltas.len() && deltas[next].0 < finish {
                        let done = (deltas[next].0 - t).max(0.0) * cap;
                        w -= done;
                        if is_map {
                            map_done += done;
                        }
                        t = deltas[next].0;
                        alive = apply(
                            &mut t,
                            alive,
                            deltas[next].1,
                            &mut map_done,
                            &mut debt,
                            &mut extra_work,
                            &mut rerepl_mb,
                        );
                        next += 1;
                    } else {
                        if is_map {
                            map_done += w;
                        }
                        t = finish;
                        break;
                    }
                }
                if let Some(p) = phase {
                    phase_wall[p] += t - seg_start;
                }
            }
            if recorder.is_enabled() {
                recorder.emit(
                    sim_ms(t),
                    "phase_end",
                    vec![
                        ("phase", Value::str(name)),
                        ("iteration", Value::U64(u64::from(iter))),
                        ("secs", Value::F64(t - seg_start)),
                    ],
                );
            }
        }
    }

    // Re-executed map work re-spills its share of the shuffle, and the
    // re-replicated blocks land on the survivors' disks.
    let map_work_total = base.map_secs * s * f64::from(iters);
    let rework_spill_mb = if map_work_total > 0.0 {
        shuffle_mb * (extra_work / map_work_total)
    } else {
        0.0
    };
    let disk_write_bytes = base.disk_write_bytes + (rerepl_mb + rework_spill_mb) * 1e6;
    let writes = disk_write_bytes / (64.0 * 1024.0);
    let fi = f64::from(iters);
    ClusterRun {
        makespan_secs: t,
        map_secs: phase_wall[0] / fi,
        shuffle_secs: phase_wall[1] / fi,
        reduce_secs: phase_wall[2] / fi,
        disk_write_bytes,
        disk_writes_per_sec_per_node: writes / t.max(1e-9) / s,
        reexecuted_work_secs: extra_work,
        rereplicated_mb: rerepl_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CPU-heavy job: lots of compute per byte (Bayes-like).
    fn cpu_job() -> JobModel {
        JobModel {
            name: "cpu-heavy".into(),
            input_gb: 147.0,
            map_cpu_secs_per_gb: 260.0,
            shuffle_ratio: 0.05,
            reduce_cpu_secs_per_gb: 30.0,
            output_ratio: 0.01,
            iterations: 1,
        }
    }

    /// An I/O-heavy job: output = input (Sort-like).
    fn io_job() -> JobModel {
        JobModel {
            name: "io-heavy".into(),
            input_gb: 150.0,
            map_cpu_secs_per_gb: 6.0,
            shuffle_ratio: 1.0,
            reduce_cpu_secs_per_gb: 6.0,
            output_ratio: 1.0,
            iterations: 1,
        }
    }

    #[test]
    fn cpu_jobs_scale_nearly_linearly() {
        let s8 = speedup(&cpu_job(), 8);
        assert!(s8 > 6.5, "cpu-bound speedup at 8 slaves: {s8}");
        assert!(s8 <= 8.5);
    }

    #[test]
    fn io_jobs_scale_sublinearly() {
        let s8 = speedup(&io_job(), 8);
        assert!(s8 > 2.0 && s8 < 6.0, "io-bound speedup at 8 slaves: {s8}");
        assert!(
            s8 < speedup(&cpu_job(), 8),
            "sort-like jobs must scale worse than cpu-bound jobs"
        );
    }

    #[test]
    fn speedup_monotone_in_slaves() {
        for job in [cpu_job(), io_job()] {
            let s1 = speedup(&job, 1);
            let s4 = speedup(&job, 4);
            let s8 = speedup(&job, 8);
            assert!((s1 - 1.0).abs() < 1e-9);
            assert!(s4 > 1.5, "{}: s4={s4}", job.name);
            assert!(s8 > s4, "{}: s8={s8} s4={s4}", job.name);
        }
    }

    #[test]
    fn io_jobs_write_more_disk_per_second() {
        let cluster = ClusterConfig::paper(4);
        let io = simulate(&cluster, &io_job());
        let cpu = simulate(&cluster, &cpu_job());
        assert!(
            io.disk_writes_per_sec_per_node > 3.0 * cpu.disk_writes_per_sec_per_node,
            "sort-like jobs dominate disk writes: io={} cpu={}",
            io.disk_writes_per_sec_per_node,
            cpu.disk_writes_per_sec_per_node
        );
    }

    #[test]
    fn iterations_multiply_time_and_io() {
        let once = simulate(&ClusterConfig::paper(4), &cpu_job());
        let thrice = simulate(
            &ClusterConfig::paper(4),
            &JobModel {
                iterations: 3,
                ..cpu_job()
            },
        );
        assert!(thrice.makespan_secs > 2.5 * once.makespan_secs);
        assert!((thrice.disk_write_bytes - 3.0 * once.disk_write_bytes).abs() < 1.0);
    }

    #[test]
    fn single_slave_has_no_network_cost() {
        let run = simulate(&ClusterConfig::paper(1), &io_job());
        assert_eq!(run.shuffle_secs, 0.0);
    }

    #[test]
    fn empty_failure_model_is_exactly_the_baseline() {
        for job in [cpu_job(), io_job()] {
            let base = simulate(&ClusterConfig::paper(8), &job);
            let run = simulate_with_failures(
                &ClusterConfig::paper(8),
                &job,
                &FailureModel::none(),
                &Recorder::disabled(),
            );
            assert_eq!(run, base);
            assert_eq!(run.reexecuted_work_secs, 0.0);
            assert_eq!(run.rereplicated_mb, 0.0);
        }
    }

    #[test]
    fn mid_map_loss_degrades_but_completes() {
        // One slave dies 60 s in — mid-map for both job shapes at 8
        // slaves (map starts after the 18 s setup).
        let failures = FailureModel::single_loss(60.0);
        for job in [cpu_job(), io_job()] {
            let base = simulate(&ClusterConfig::paper(8), &job);
            let run = simulate_with_failures(
                &ClusterConfig::paper(8),
                &job,
                &failures,
                &Recorder::disabled(),
            );
            assert!(run.makespan_secs.is_finite(), "{}", job.name);
            assert!(
                run.makespan_secs > base.makespan_secs,
                "{}: degraded {} vs healthy {}",
                job.name,
                run.makespan_secs,
                base.makespan_secs
            );
            assert!(run.reexecuted_work_secs > 0.0, "{}", job.name);
            assert!(run.rereplicated_mb > 0.0, "{}", job.name);
            assert!(run.disk_write_bytes > base.disk_write_bytes);
            let healthy = speedup(&job, 8);
            let degraded =
                simulate(&ClusterConfig::paper(1), &job).makespan_secs / run.makespan_secs;
            assert!(degraded.is_finite() && degraded > 0.0);
            assert!(
                degraded < healthy,
                "{}: degraded speedup {degraded} vs healthy {healthy}",
                job.name
            );
        }
    }

    #[test]
    fn recovery_restores_capacity() {
        let job = cpu_job();
        let permanent = simulate_with_failures(
            &ClusterConfig::paper(8),
            &job,
            &FailureModel::single_loss(60.0),
            &Recorder::disabled(),
        );
        let recovered = simulate_with_failures(
            &ClusterConfig::paper(8),
            &job,
            &FailureModel::single_loss_with_recovery(60.0, 30.0),
            &Recorder::disabled(),
        );
        let base = simulate(&ClusterConfig::paper(8), &job);
        assert!(recovered.makespan_secs > base.makespan_secs);
        assert!(
            recovered.makespan_secs < permanent.makespan_secs,
            "a rejoining node must help: {} vs {}",
            recovered.makespan_secs,
            permanent.makespan_secs
        );
    }

    #[test]
    fn losing_the_only_slave_still_completes() {
        let job = io_job();
        let run = simulate_with_failures(
            &ClusterConfig::paper(1),
            &job,
            &FailureModel::single_loss(30.0),
            &Recorder::disabled(),
        );
        let base = simulate(&ClusterConfig::paper(1), &job);
        assert!(run.makespan_secs.is_finite());
        assert!(run.makespan_secs >= base.makespan_secs);
    }

    #[test]
    fn late_failures_after_job_end_change_nothing_material() {
        let job = cpu_job();
        let base = simulate(&ClusterConfig::paper(8), &job);
        let run = simulate_with_failures(
            &ClusterConfig::paper(8),
            &job,
            &FailureModel::single_loss(base.makespan_secs * 10.0),
            &Recorder::disabled(),
        );
        assert!((run.makespan_secs - base.makespan_secs).abs() < 1e-6);
    }

    #[test]
    fn observed_replay_emits_the_failure_timeline() {
        let job = JobModel {
            iterations: 2,
            ..cpu_job()
        };
        let failures = FailureModel::single_loss_with_recovery(60.0, 30.0);
        let (recorder, ring) = dc_obs::Recorder::ring(256);
        let run = simulate_with_failures(&ClusterConfig::paper(8), &job, &failures, &recorder);
        assert_eq!(
            run,
            simulate_with_failures(
                &ClusterConfig::paper(8),
                &job,
                &failures,
                &Recorder::disabled()
            ),
            "observation must not change the simulated outcome"
        );
        assert_eq!(ring.count_kind("node_loss"), 1);
        assert_eq!(ring.count_kind("node_recover"), 1);
        // 4 segments per iteration, both iterations bracketed.
        assert_eq!(ring.count_kind("phase_start"), 8);
        assert_eq!(ring.count_kind("phase_end"), 8);
        let events = ring.snapshot();
        let loss = events
            .iter()
            .find(|e| e.kind == "node_loss")
            .expect("loss event");
        assert_eq!(loss.ts, 60_000, "loss lands at its simulated time");
        assert!(
            events.windows(2).all(|w| w[0].ts <= w[1].ts),
            "sim time is monotone"
        );
    }

    #[test]
    fn observed_empty_schedule_is_exactly_the_baseline_with_phases() {
        let job = io_job();
        let (recorder, ring) = dc_obs::Recorder::ring(64);
        let run = simulate_with_failures(
            &ClusterConfig::paper(4),
            &job,
            &FailureModel::none(),
            &recorder,
        );
        assert_eq!(run, simulate(&ClusterConfig::paper(4), &job));
        assert_eq!(ring.count_kind("phase_start"), 4);
        assert_eq!(ring.count_kind("node_loss"), 0);
    }

    /// The replay is a pure function of its inputs: same arguments,
    /// byte-identical JSONL — the cluster half of the determinism
    /// contract (timestamps are simulated milliseconds, never wall
    /// clock).
    #[test]
    fn observed_replay_is_byte_deterministic() {
        let run_once = || {
            let buf = dc_obs::SharedBuf::default();
            let recorder = dc_obs::Recorder::jsonl(buf.clone());
            simulate_with_failures(
                &ClusterConfig::paper(8),
                &io_job(),
                &FailureModel::single_loss(45.0),
                &recorder,
            );
            recorder.flush();
            buf.contents()
        };
        let a = run_once();
        assert!(!a.is_empty());
        assert_eq!(a, run_once());
    }

    /// The pinned event stream of a 2-iteration replay under one loss
    /// and recovery: every `phase_start`/`phase_end`, `node_loss` and
    /// `node_recover` line, byte for byte. A change to the replay's
    /// arithmetic, event order or field encoding fails here.
    #[test]
    fn observed_replay_stream_is_pinned() {
        let job = JobModel {
            iterations: 2,
            ..cpu_job()
        };
        let failures = FailureModel::single_loss_with_recovery(60.0, 30.0);
        let (recorder, ring) = dc_obs::Recorder::ring(256);
        simulate_with_failures(&ClusterConfig::paper(8), &job, &failures, &recorder);
        let stream: String = ring
            .snapshot()
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect();
        assert_eq!(stream, PINNED_REPLAY);
    }

    const PINNED_REPLAY: &str = r#"{"seq":0,"ts":0,"kind":"phase_start","fields":{"phase":"setup","iteration":0}}
{"seq":1,"ts":18000,"kind":"phase_end","fields":{"phase":"setup","iteration":0,"secs":18}}
{"seq":2,"ts":18000,"kind":"phase_start","fields":{"phase":"map","iteration":0}}
{"seq":3,"ts":60000,"kind":"node_loss","fields":{"lost":1,"alive":7,"requeued_map_secs":42,"rereplicated_mb":18816,"rereplication_stall_secs":56.448}}
{"seq":4,"ts":90000,"kind":"node_recover","fields":{"recovered":1,"alive":8}}
{"seq":5,"ts":483875,"kind":"phase_end","fields":{"phase":"map","iteration":0,"secs":465.875}}
{"seq":6,"ts":483875,"kind":"phase_start","fields":{"phase":"shuffle","iteration":0}}
{"seq":7,"ts":483875,"kind":"phase_end","fields":{"phase":"shuffle","iteration":0,"secs":0}}
{"seq":8,"ts":483875,"kind":"phase_start","fields":{"phase":"reduce","iteration":0}}
{"seq":9,"ts":503100,"kind":"phase_end","fields":{"phase":"reduce","iteration":0,"secs":19.22533333333331}}
{"seq":10,"ts":503100,"kind":"phase_start","fields":{"phase":"setup","iteration":1}}
{"seq":11,"ts":521100,"kind":"phase_end","fields":{"phase":"setup","iteration":1,"secs":18}}
{"seq":12,"ts":521100,"kind":"phase_start","fields":{"phase":"map","iteration":1}}
{"seq":13,"ts":951725,"kind":"phase_end","fields":{"phase":"map","iteration":1,"secs":430.625}}
{"seq":14,"ts":951725,"kind":"phase_start","fields":{"phase":"shuffle","iteration":1}}
{"seq":15,"ts":951725,"kind":"phase_end","fields":{"phase":"shuffle","iteration":1,"secs":0}}
{"seq":16,"ts":951725,"kind":"phase_start","fields":{"phase":"reduce","iteration":1}}
{"seq":17,"ts":970951,"kind":"phase_end","fields":{"phase":"reduce","iteration":1,"secs":19.22533333333331}}
"#;
}
