use super::*;

#[test]
fn ring_pass() {
    let results = World::run(8, |mut comm| async move {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(next, 1, vec![comm.rank() as u8]).await;
        let got = comm.recv_from(prev, 1).await;
        got[0] as usize
    });
    assert_eq!(results, vec![7, 0, 1, 2, 3, 4, 5, 6]);
}

#[test]
fn tag_matching_out_of_order() {
    let results = World::run(2, |mut comm| async move {
        if comm.rank() == 0 {
            comm.send(1, 10, vec![1]).await;
            comm.send(1, 20, vec![2]).await;
            0
        } else {
            // Receive the later-tagged message first.
            let b = comm.recv_from(0, 20).await;
            let a = comm.recv_from(0, 10).await;
            (a[0] * 10 + b[0]) as usize
        }
    });
    assert_eq!(results[1], 12);
}

#[test]
fn non_overtaking_same_tag() {
    let results = World::run(2, |mut comm| async move {
        if comm.rank() == 0 {
            for i in 0..100u8 {
                comm.send(1, 5, vec![i]).await;
            }
            Vec::new()
        } else {
            let mut got = Vec::with_capacity(100);
            for _ in 0..100 {
                got.push(comm.recv_from(0, 5).await[0]);
            }
            got
        }
    });
    assert_eq!(results[1], (0..100).collect::<Vec<u8>>());
}

#[test]
fn barrier_orders_phases() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PHASE1: AtomicUsize = AtomicUsize::new(0);
    let results = World::run(8, |comm| async move {
        PHASE1.fetch_add(1, Ordering::SeqCst);
        comm.barrier().await;
        // After the barrier every rank must observe all 8 arrivals.
        PHASE1.load(Ordering::SeqCst)
    });
    assert!(results.iter().all(|&v| v == 8));
}

#[test]
fn single_rank_world() {
    let results = World::run(1, |mut comm| async move {
        assert_eq!(comm.size(), 1);
        comm.barrier().await;
        comm.send(0, 1, vec![42]).await;
        comm.recv_from(0, 1).await[0] as usize
    });
    assert_eq!(results, vec![42]);
}

#[test]
fn recv_any_drains_lowest_source_first_from_pending() {
    let results = World::run(3, |mut comm| async move {
        if comm.rank() == 2 {
            // Make sure both messages are pending before receiving.
            let a = comm.recv_from(0, 1).await;
            comm.send(0, 2, vec![]).await;
            comm.send(1, 2, vec![]).await;
            let (s1, _) = comm.recv_any(3).await;
            let (s2, _) = comm.recv_any(3).await;
            assert_ne!(s1, s2);
            a[0] as usize
        } else {
            if comm.rank() == 0 {
                comm.send(2, 1, vec![9]).await;
            }
            let _ = comm.recv_from(2, 2).await;
            comm.send(2, 3, vec![comm.rank() as u8]).await;
            0
        }
    });
    assert_eq!(results[2], 9);
}

// ---- virtual time (event core) ----

#[test]
fn sleep_advances_virtual_time_not_wall() {
    let t0 = std::time::Instant::now();
    let out = World::run_opts(2, RunOptions::default(), |comm| async move {
        comm.sleep(Duration::from_secs(3)).await;
        comm.now()
    })
    .unwrap();
    assert!(out.results.iter().all(|&d| d >= Duration::from_secs(3)));
    let sim = out.sim.expect("event core reports SimStats");
    assert!(sim.virtual_time >= Duration::from_secs(3));
    assert_eq!(sim.peak_resident, 2);
    assert!(sim.timer_fires >= 2);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "a 3s virtual sleep must cost (almost) no wall time"
    );
}

#[test]
fn virtual_clock_is_shared_and_monotone() {
    let out = World::run_opts(3, RunOptions::default(), |comm| async move {
        let t0 = comm.now();
        comm.sleep(Duration::from_millis(10 * (comm.rank() as u64 + 1)))
            .await;
        let t1 = comm.now();
        assert!(t1 >= t0 + Duration::from_millis(10 * (comm.rank() as u64 + 1)));
        comm.barrier().await;
        // After the barrier, everyone has at least the slowest
        // sleeper's time.
        comm.now()
    })
    .unwrap();
    for d in out.results {
        assert!(d >= Duration::from_millis(30));
    }
}

// ---- verification-layer tests ----

#[test]
fn recv_cycle_is_reported_not_hung() {
    let err = World::run_opts(2, RunOptions::default(), |mut comm| async move {
        // Classic head-to-head: both ranks receive before sending.
        let peer = 1 - comm.rank();
        let _ = comm.recv_from(peer, 5).await;
        comm.send(peer, 5, vec![1]).await;
    })
    .unwrap_err();
    assert!(err.is_deadlock());
    assert!(err.report().contains("cycle"), "report:\n{}", err.report());
    assert!(err.report().contains("rank 0"));
    assert!(err.report().contains("rank 1"));
}

#[test]
fn three_rank_cycle_named() {
    let err = World::run_opts(3, RunOptions::default(), |mut comm| async move {
        // 0 waits on 1, 1 waits on 2, 2 waits on 0.
        let from = (comm.rank() + 1) % comm.size();
        let _ = comm.recv_from(from, 9).await;
    })
    .unwrap_err();
    assert!(err.is_deadlock());
    assert!(err.report().contains("cycle"), "report:\n{}", err.report());
}

#[test]
fn waiting_on_finished_rank_is_deadlock() {
    let err = World::run_opts(2, RunOptions::default(), |mut comm| async move {
        if comm.rank() == 0 {
            let _ = comm.recv_from(1, 3).await;
        }
        // Rank 1 exits immediately without sending.
    })
    .unwrap_err();
    assert!(err.is_deadlock());
    assert!(err.report().contains("done"), "report:\n{}", err.report());
}

#[test]
fn barrier_minus_one_rank_is_deadlock() {
    let err = World::run_opts(4, RunOptions::default(), |comm| async move {
        if comm.rank() != 3 {
            comm.barrier().await;
        }
    })
    .unwrap_err();
    assert!(err.is_deadlock());
    assert!(
        err.report().contains("barrier"),
        "report:\n{}",
        err.report()
    );
}

#[test]
#[should_panic(expected = "mpisim world failed")]
fn default_run_panics_with_report_on_deadlock() {
    World::run(2, |mut comm| async move {
        let peer = 1 - comm.rank();
        let _ = comm.recv_from(peer, 5).await;
    });
}

#[test]
fn watchdog_reports_a_timer_livelock_as_stalled() {
    // Every rank always has a timer pending, so the world is never
    // quiescent and deadlock detection never fires: only the wall-clock
    // watchdog can end it.
    let opts = RunOptions::default().with_timeout(Some(Duration::from_millis(200)));
    let err = World::run_opts(2, opts, |comm| async move {
        loop {
            comm.sleep(Duration::from_millis(1)).await;
        }
    })
    .unwrap_err();
    assert!(matches!(err, RunError::Stalled { .. }));
    assert!(
        err.report().contains("not finished"),
        "report:\n{}",
        err.report()
    );
}

#[test]
fn user_panic_propagates_and_frees_peers() {
    let caught = std::panic::catch_unwind(|| {
        World::run(2, |mut comm| async move {
            if comm.rank() == 0 {
                panic!("user bug");
            }
            let _ = comm.recv_from(0, 1).await;
        })
    });
    let payload = caught.unwrap_err();
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(msg, "user bug");
}

#[test]
fn trace_clocks_are_causally_ordered() {
    let out = World::run_opts(3, RunOptions::default().traced(), |mut comm| async move {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![1]).await;
        } else if comm.rank() == 1 {
            let _ = comm.recv_from(0, 1).await;
            comm.send(2, 1, vec![2]).await;
        } else {
            let _ = comm.recv_from(1, 1).await;
        }
    })
    .unwrap();
    let log = out.trace.unwrap();
    for e in &log.events {
        if let TraceEvent::Recv {
            send_clock,
            recv_clock,
            ..
        } = e
        {
            assert!(
                trace::clock_leq(send_clock, recv_clock),
                "send must happen-before its receive"
            );
        }
    }
    // Transitivity: rank 2's receive is causally after rank 0's send.
    let send0 = log
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Send { from: 0, clock, .. } => Some(clock.clone()),
            _ => None,
        })
        .unwrap();
    let recv2 = log
        .recvs_for(2)
        .find_map(|e| match e {
            TraceEvent::Recv { recv_clock, .. } => Some(recv_clock.clone()),
            _ => None,
        })
        .unwrap();
    assert!(trace::clock_leq(&send0, &recv2));
}

/// All-to-one fan-in where every sender confirms delivery before the
/// collector does its wildcard receives, so all candidates are
/// pending simultaneously and the match policy fully decides order.
fn fan_in_order(opts: RunOptions) -> (Vec<usize>, Option<TraceLog>) {
    let n = 5;
    let out = World::run_opts(n, opts, |mut comm| async move {
        if comm.rank() == 0 {
            for r in 1..comm.size() {
                let _ = comm.recv_from(r, 2).await; // "sent" confirmations
            }
            let mut order = Vec::with_capacity(comm.size() - 1);
            for _ in 0..comm.size() - 1 {
                order.push(comm.recv_any(1).await.0);
            }
            order
        } else {
            comm.send(0, 1, vec![comm.rank() as u8]).await;
            comm.send(0, 2, vec![]).await;
            Vec::new()
        }
    })
    .unwrap();
    (out.results[0].clone(), out.trace)
}

#[test]
fn min_source_policy_orders_wildcards_by_rank() {
    let (order, _) = fan_in_order(RunOptions::default());
    assert_eq!(order, vec![1, 2, 3, 4]);
}

#[test]
fn perturb_policy_explores_other_orders() {
    let (base, _) = fan_in_order(RunOptions::default());
    let mut saw_different = false;
    for seed in 0..16 {
        let (order, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Perturb(seed)));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![1, 2, 3, 4],
            "perturbation must not lose messages"
        );
        if order != base {
            saw_different = true;
        }
    }
    assert!(
        saw_different,
        "no perturbation seed changed the wildcard order"
    );
}

#[test]
fn perturb_is_reproducible_per_seed() {
    let (a, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Perturb(7)));
    let (b, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Perturb(7)));
    assert_eq!(a, b);
}

#[test]
fn replay_reproduces_recorded_wildcard_order() {
    let (base, trace) = fan_in_order(
        RunOptions::default()
            .policy(MatchPolicy::Perturb(3))
            .traced(),
    );
    let replay = Arc::new(ReplayLog::from_trace(&trace.unwrap()));
    let (replayed, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Replay(replay)));
    assert_eq!(replayed, base);
}

#[test]
fn replay_swapped_forces_injected_order() {
    let (base, trace) = fan_in_order(RunOptions::default().traced());
    let log = ReplayLog::from_trace(&trace.unwrap());
    let swapped = log
        .swapped(0, 0)
        .expect("distinct adjacent matches to swap");
    let (reordered, _) =
        fan_in_order(RunOptions::default().policy(MatchPolicy::Replay(Arc::new(swapped))));
    assert_ne!(reordered, base);
    assert_eq!(reordered[0], base[1]);
    assert_eq!(reordered[1], base[0]);
}

#[test]
fn guided_prefix_forces_then_falls_back_to_min_source() {
    let sched = Arc::new(ReplayLog::from_choices(vec![vec![3, 1]]));
    let (order, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Guided(sched)));
    // First two wildcards forced to 3 then 1; the rest min-source.
    assert_eq!(order, vec![3, 1, 2, 4]);
}

#[test]
fn guided_empty_schedule_is_min_source() {
    let (base, _) = fan_in_order(RunOptions::default());
    let sched = Arc::new(ReplayLog::default());
    let (order, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Guided(sched)));
    assert_eq!(order, base);
}

#[test]
fn guided_run_matches_replay_of_full_schedule() {
    // A guided schedule covering every wildcard behaves exactly
    // like Replay of the same choices — Guided generalizes Replay.
    let choices = vec![vec![4, 2, 3, 1]];
    let guided = Arc::new(ReplayLog::from_choices(choices.clone()));
    let (g, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Guided(guided)));
    let replay = Arc::new(ReplayLog::from_choices(choices.clone()));
    let (r, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Replay(replay)));
    assert_eq!(g, r);
    assert_eq!(g, choices[0]);
}

#[test]
fn replay_exhaustion_names_rank_and_wildcard_ordinal() {
    // Regression: structural divergence from a recording must be
    // reported as "rank R wildcard #N", not as a hang or an
    // unrelated panic.
    let log = Arc::new(ReplayLog::from_choices(vec![vec![1]]));
    let caught = std::panic::catch_unwind(|| {
        World::run_opts(
            2,
            RunOptions::default().policy(MatchPolicy::Replay(log)),
            |mut comm| async move {
                if comm.rank() == 0 {
                    let _ = comm.recv_any(1).await;
                    let _ = comm.recv_any(1).await; // one more than recorded
                } else {
                    comm.send(0, 1, vec![0]).await;
                    comm.send(0, 1, vec![1]).await;
                }
            },
        )
    });
    let payload = caught.unwrap_err();
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("replay log exhausted at rank 0 wildcard #1"),
        "panic message must name rank and wildcard ordinal, got: {msg}"
    );
}

#[test]
fn forced_source_outside_the_world_names_rank_wildcard_and_size() {
    // Regression: a log (a JSON counterexample, say) that forces a
    // source the world does not have used to wait on it and panic in
    // the deadlock report with an index out of bounds.
    let log = Arc::new(ReplayLog::from_choices(vec![vec![5]]));
    for policy in [
        MatchPolicy::Replay(Arc::clone(&log)),
        MatchPolicy::Guided(Arc::clone(&log)),
    ] {
        let name = format!("{policy:?}");
        let caught = std::panic::catch_unwind(|| {
            World::run_opts(
                2,
                RunOptions::default().policy(policy),
                |mut comm| async move {
                    if comm.rank() == 0 {
                        let _ = comm.recv_any(1).await;
                    } else {
                        comm.send(0, 1, vec![0]).await;
                    }
                },
            )
        });
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("rank 0 wildcard #0: the log forces source 5, outside the 2-rank world"),
            "{name}: panic must name rank, wildcard, source and world size, got: {msg}"
        );
    }
}

#[test]
fn nested_recv_from_cycle_names_full_cycle_at_n3() {
    // Rank 0 waits on rank 1 but is *outside* the cycle; the
    // report must name the actual 1 -> 2 -> 1 wait-for cycle in
    // full, with each member's receive description — not merely
    // say "cycle".
    let err = World::run_opts(3, RunOptions::default(), |mut comm| async move {
        match comm.rank() {
            0 => {
                let _ = comm.recv_from(1, 9).await;
            }
            1 => {
                // A successful nested exchange first, so the cycle
                // forms after real traffic.
                comm.send(2, 8, vec![1]).await;
                let _ = comm.recv_from(2, 9).await;
            }
            _ => {
                let _ = comm.recv_from(1, 8).await;
                let _ = comm.recv_from(1, 9).await;
            }
        }
    })
    .unwrap_err();
    assert!(err.is_deadlock());
    let report = err.report();
    assert!(
        report.contains(
            "cycle: rank 1 (recv_from src=2 tag=9) -> rank 2 (recv_from src=1 tag=9) -> rank 1"
        ),
        "full wait-for cycle must be named, got:\n{report}"
    );
    // The non-cycle waiter is still listed with its edge.
    assert!(report.contains("rank 0 (recv_from src=1 tag=9) waits on rank 1"));
}

// ---- fault-tolerance surface ----

mod ft_tests {
    use super::*;
    use fault::{FaultInjector, SendFate};

    use std::sync::atomic::{AtomicU64, Ordering};

    /// Drops the first `k` sends on (src, dst, tag); corrupts when
    /// `corrupt` is set instead of dropping.
    struct DropFirst {
        src: usize,
        dst: usize,
        tag: u32,
        k: u64,
        corrupt: bool,
        hits: AtomicU64,
    }

    impl FaultInjector for DropFirst {
        fn on_send(
            &self,
            src: usize,
            dst: usize,
            tag: u32,
            _seq: u64,
            data: &mut Vec<u8>,
        ) -> SendFate {
            if src == self.src && dst == self.dst && tag == self.tag {
                let hit = self.hits.fetch_add(1, Ordering::SeqCst);
                if hit < self.k {
                    if self.corrupt {
                        if let Some(b) = data.first_mut() {
                            *b ^= 0xff;
                        }
                        return SendFate::Corrupt;
                    }
                    return SendFate::Drop;
                }
            }
            SendFate::Deliver
        }
    }

    #[test]
    fn recv_timeout_expires_on_silence() {
        let results = World::run_opts(2, RunOptions::default(), |mut comm| async move {
            if comm.rank() == 0 {
                // Never sends; rank 1's timed wait must expire on its
                // own without tripping the deadlock detector.
                comm.barrier().await;
                0
            } else {
                let got = comm.recv_any_timeout(4, Duration::from_millis(50)).await;
                comm.barrier().await;
                usize::from(got.is_some())
            }
        })
        .unwrap();
        assert_eq!(results.results[1], 0);
    }

    #[test]
    fn expired_timed_receive_consumes_no_wildcard_ordinal() {
        // Regression for the index-only-advances-on-success
        // contract: an expired recv_any_timeout must not advance
        // the wildcard index, or every later wildcard would be
        // shifted one past its recorded ordinal and replay would
        // die with "replay log exhausted".
        let program = |mut comm: Comm| async move {
            if comm.rank() == 0 {
                let miss = comm.recv_any_timeout(9, Duration::from_millis(30)).await;
                assert!(miss.is_none(), "nobody sends tag 9");
                comm.recv_any(1).await.0
            } else {
                comm.send(0, 1, vec![7]).await;
                0
            }
        };
        let out = World::run_opts(2, RunOptions::default().traced(), program).unwrap();
        let trace = out.trace.unwrap();
        let log = ReplayLog::from_trace(&trace);
        // The successful wildcard got ordinal 0, so the log has
        // exactly one entry for rank 0...
        assert_eq!(log.per_rank()[0], vec![1]);
        // ...and replaying the recording through the same program
        // (expiry and all) stays aligned instead of exhausting.
        let replayed = World::run_opts(
            2,
            RunOptions::default().policy(MatchPolicy::Replay(Arc::new(log))),
            program,
        )
        .unwrap();
        assert_eq!(replayed.results[0], 1);
    }

    #[test]
    fn timed_wait_is_not_a_deadlock() {
        // Both ranks block simultaneously: rank 0 forever (on a
        // message that arrives late), rank 1 timed. The timed wait
        // must make the detector stand down rather than declare the
        // world dead.
        let out = World::run_opts(2, RunOptions::default(), |mut comm| async move {
            if comm.rank() == 0 {
                let got = comm.recv_from(1, 7).await;
                got[0] as usize
            } else {
                let _ = comm.recv_any_timeout(9, Duration::from_millis(80)).await;
                comm.send(0, 7, vec![42]).await;
                0
            }
        })
        .unwrap();
        assert_eq!(out.results[0], 42);
    }

    #[test]
    fn dropped_send_leaves_fault_event_and_no_delivery() {
        let inj = Arc::new(DropFirst {
            src: 0,
            dst: 1,
            tag: 3,
            k: 1,
            corrupt: false,
            hits: AtomicU64::new(0),
        });
        let out = World::run_opts(
            2,
            RunOptions::default().traced().with_injector(inj),
            |mut comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 3, vec![1]).await; // dropped
                    comm.send(1, 3, vec![2]).await; // delivered, seq 0
                    Vec::new()
                } else {
                    let got = comm.recv_any_timeout(3, Duration::from_millis(200)).await;
                    vec![got.map(|(_, data)| data)]
                }
            },
        )
        .unwrap();
        // The surviving send is delivered with an intact sequence
        // stream (no gap from the dropped one).
        assert_eq!(out.results[1][0].as_deref(), Some(&[2u8][..]));
        let log = out.trace.unwrap();
        assert_eq!(log.fault_count(), 1);
        assert!(log.events.iter().any(|e| matches!(
            e,
            TraceEvent::Fault {
                from: 0,
                to: 1,
                tag: 3,
                ..
            }
        )));
    }

    #[test]
    fn corrupted_send_delivers_mutated_bytes() {
        let inj = Arc::new(DropFirst {
            src: 0,
            dst: 1,
            tag: 6,
            k: 1,
            corrupt: true,
            hits: AtomicU64::new(0),
        });
        let out = World::run_opts(
            2,
            RunOptions::default().with_injector(inj),
            |mut comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 6, vec![0x0f, 0x22]).await;
                    Vec::new()
                } else {
                    comm.recv_from(0, 6).await
                }
            },
        )
        .unwrap();
        assert_eq!(out.results[1], vec![0xf0, 0x22]);
    }

    #[test]
    fn try_recv_any_polls_without_blocking() {
        let out = World::run_opts(2, RunOptions::default(), |mut comm| async move {
            if comm.rank() == 0 {
                comm.send(1, 8, vec![5]).await;
                comm.barrier().await;
                0
            } else {
                comm.barrier().await; // message is in flight or queued now
                let mut got = None;
                for _ in 0..100 {
                    got = comm.try_recv_any(8);
                    if got.is_some() {
                        break;
                    }
                    // Virtual-time backoff between polls (was a
                    // wall-clock thread::sleep on the old executor).
                    comm.sleep(Duration::from_millis(1)).await;
                }
                let (src, data) = got.expect("queued message polled");
                assert_eq!(src, 0);
                data[0] as usize
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 5);
    }

    /// An injector that delays every send by 5 simulated seconds. On
    /// the event core the delays stack up in virtual time only.
    struct DelayAll;

    impl FaultInjector for DelayAll {
        fn on_send(
            &self,
            _src: usize,
            _dst: usize,
            _tag: u32,
            _seq: u64,
            _data: &mut Vec<u8>,
        ) -> SendFate {
            SendFate::Delay(Duration::from_secs(5))
        }
    }

    #[test]
    fn injected_delay_costs_no_wall_time() {
        let t0 = std::time::Instant::now();
        let out = World::run_opts(
            2,
            RunOptions::default().with_injector(Arc::new(DelayAll)),
            |mut comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 1, vec![7]).await;
                    0
                } else {
                    comm.recv_from(0, 1).await[0] as usize
                }
            },
        )
        .unwrap();
        assert_eq!(out.results[1], 7);
        let sim = out.sim.expect("event core reports SimStats");
        assert!(
            sim.virtual_time >= Duration::from_secs(5),
            "the injected delay must advance virtual time, got {:?}",
            sim.virtual_time
        );
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "a 5s injected delay must cost (almost) no wall time"
        );
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Per-(src, tag) streams are never reordered, for random
        /// interleavings of tags and message counts.
        #[test]
        fn non_overtaking_per_src_tag(
            sends in proptest::collection::vec((0u32..3, 0u64..250), 1..40),
        ) {
            let sends2 = sends.clone();
            let received = World::run(2, move |mut comm| {
                let sends2 = sends2.clone();
                async move {
                    if comm.rank() == 0 {
                        for (tag, v) in &sends2 {
                            comm.send(1, *tag, v.to_le_bytes().to_vec()).await;
                        }
                        Vec::new()
                    } else {
                        // Receive per tag, in tag-major order.
                        let mut got = Vec::new();
                        for t in 0u32..3 {
                            let k = sends2.iter().filter(|(tag, _)| *tag == t).count();
                            for _ in 0..k {
                                let b = comm.recv_from(0, t).await;
                                got.push((t, u64::from_le_bytes(b.try_into().unwrap())));
                            }
                        }
                        got
                    }
                }
            });
            for t in 0u32..3 {
                let sent: Vec<u64> =
                    sends.iter().filter(|(tag, _)| *tag == t).map(|(_, v)| *v).collect();
                let recvd: Vec<u64> = received[1]
                    .iter()
                    .filter(|(tag, _)| *tag == t)
                    .map(|(_, v)| *v)
                    .collect();
                prop_assert_eq!(sent, recvd, "stream for tag {} reordered", t);
            }
        }
    }
}

/// `PVR_MPISIM_TIMEOUT_SECS`: unset is 120 s, `0` disables, whole
/// seconds are taken, anything else comes back to be named on stderr.
#[test]
fn timeout_variable_parses_or_is_named() {
    let secs = |s| Ok(Some(Duration::from_secs(s)));
    assert_eq!(parse_timeout(None), secs(120));
    assert_eq!(parse_timeout(Some("0")), Ok(None));
    assert_eq!(parse_timeout(Some("30")), secs(30));
    assert_eq!(parse_timeout(Some("30s")), Err("30s"));
}

/// The mailbox (`PendingSet`) against the three-container structure it
/// replaced, and the match policies against the sources that structure
/// picked.
mod mailbox {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap, VecDeque};

    /// The mailbox as a FIFO per (src, tag) in a hash map, plus a sorted
    /// (tag, src) index of the non-empty ones — the slab's streams and
    /// index in their plainest form. Kept as the oracle.
    #[derive(Default)]
    struct OraclePendingSet {
        map: HashMap<(usize, u32), VecDeque<Envelope>>,
        index: BTreeSet<(u32, usize)>,
    }

    impl OraclePendingSet {
        fn push(&mut self, env: Envelope) {
            let q = self.map.entry((env.src(), env.tag)).or_default();
            if q.is_empty() {
                self.index.insert((env.tag, env.src()));
            }
            q.push_back(env);
        }

        fn pop(&mut self, src: usize, tag: u32) -> Option<Envelope> {
            let q = self.map.get_mut(&(src, tag))?;
            let env = q.pop_front()?;
            if q.is_empty() {
                self.index.remove(&(tag, src));
            }
            Some(env)
        }

        fn sources(&self, tag: u32) -> Vec<usize> {
            let range = self.index.range((tag, 0)..=(tag, usize::MAX));
            range.map(|&(_, s)| s).collect()
        }

        fn front_arrival(&self, src: usize, tag: u32) -> u64 {
            self.map[&(src, tag)].front().expect("indexed").arrival
        }
    }

    fn envelope(src: usize, tag: u32, seq: u64, arrival: u64) -> Envelope {
        Envelope {
            src: src as u32,
            tag,
            seq,
            arrival,
            data: vec![src as u8, tag as u8, seq as u8],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pushes (several tags, repeated sources, per-stream
        /// sequence numbers in send order, streams interleaved) and
        /// pops: after every step both mailboxes name the same first
        /// source, sources and front arrivals for every tag, and every
        /// pop hands out the same envelope (through reused slots).
        #[test]
        fn slab_mailbox_answers_like_the_three_containers(
            ops in proptest::collection::vec((0u8..3, 0usize..5, 0u32..3), 1..120),
        ) {
            let (mut new, mut old) = (PendingSet::default(), OraclePendingSet::default());
            let mut next_seq: HashMap<(usize, u32), u64> = HashMap::new();
            for (arrival, (op, src, tag)) in ops.into_iter().enumerate() {
                if op < 2 {
                    let seq = next_seq.entry((src, tag)).or_insert(0);
                    new.push(envelope(src, tag, *seq, arrival as u64));
                    old.push(envelope(src, tag, *seq, arrival as u64));
                    *seq += 1;
                } else {
                    let (a, b) = (new.pop(src, tag), old.pop(src, tag));
                    let id = |e: &Envelope| (e.src, e.tag, e.seq, e.arrival, e.data.clone());
                    prop_assert_eq!(a.as_ref().map(id), b.as_ref().map(id));
                }
                for tag in 0..3 {
                    let sources = old.sources(tag);
                    prop_assert_eq!(new.first_src(tag), sources.first().copied());
                    prop_assert_eq!(&new.sources(tag).collect::<Vec<_>>(), &sources);
                    for src in 0..5 {
                        prop_assert_eq!(new.has(src, tag), sources.contains(&src));
                    }
                    let fronts: Vec<u64> = new.fronts(tag).map(|e| e.arrival).collect();
                    let arrivals: Vec<u64> =
                        sources.iter().map(|&s| old.front_arrival(s, tag)).collect();
                    prop_assert_eq!(fronts, arrivals);
                }
            }
        }
    }

    /// A 40-rank wildcard gather on a virtual-time schedule: rank `r`
    /// sends its first message at `(7r mod 39) + 0.5` ms — arrivals in
    /// an order unlike the sources' — ranks 1–4 send a second one late,
    /// at 51.5–54.5 ms, and rank 0 takes one message every 2 ms. Every
    /// receive finds at least one message pending, so the pending set at
    /// each wildcard is known from the schedule alone.
    mod late_low_sources {
        use super::*;
        use std::collections::BTreeMap;

        const N: usize = 40;
        const LATE: usize = 4;
        const TAG: u32 = 5;

        /// `(send time in µs, source, payload)` of every message, in
        /// send (= arrival) order.
        fn sends() -> Vec<(u64, usize, u8)> {
            let mut sends: Vec<(u64, usize, u8)> = (1..N)
                .map(|r| ((r as u64 * 7 % 39) * 1000 + 500, r, 0))
                .collect();
            sends.extend((1..=LATE).map(|r| (50_500 + r as u64 * 1000, r, 1)));
            sends.sort_unstable();
            sends
        }

        /// What rank 0 receives, `(source, payload)` in match order.
        fn run(policy: MatchPolicy) -> Vec<(usize, Vec<u8>)> {
            let schedule = sends();
            let opts = RunOptions::default().policy(policy);
            let out = World::run_opts(N, opts, move |mut comm| {
                let mine: Vec<(u64, u8)> = schedule
                    .iter()
                    .filter(|s| s.1 == comm.rank())
                    .map(|s| (s.0, s.2))
                    .collect();
                async move {
                    let mut got = Vec::new();
                    if comm.rank() == 0 {
                        for _ in 0..N - 1 + LATE {
                            comm.sleep(Duration::from_millis(2)).await;
                            got.push(comm.recv_any(TAG).await);
                        }
                    } else {
                        let mut now = 0;
                        for (at, payload) in mine {
                            comm.sleep(Duration::from_micros(at - now)).await;
                            now = at;
                            comm.send(0, TAG, vec![comm.rank() as u8, payload]).await;
                        }
                    }
                    got
                }
            })
            .unwrap();
            out.results.into_iter().next().unwrap()
        }

        /// The same receives against an ordered map of per-source FIFOs,
        /// `pick` choosing among the `(source, front arrival)` pairs
        /// pending at the `i`-th wildcard.
        fn reference(pick: impl Fn(usize, &[(usize, u64)]) -> usize) -> Vec<(usize, Vec<u8>)> {
            let schedule = sends();
            let mut pending: BTreeMap<usize, VecDeque<(u64, u8)>> = BTreeMap::new();
            let mut next = 0;
            let mut got = Vec::new();
            for i in 0..N - 1 + LATE {
                let now = 2000 * (i as u64 + 1);
                while next < schedule.len() && schedule[next].0 < now {
                    let (_, src, payload) = schedule[next];
                    pending
                        .entry(src)
                        .or_default()
                        .push_back((next as u64, payload));
                    next += 1;
                }
                let fronts: Vec<(usize, u64)> =
                    pending.iter().map(|(&src, q)| (src, q[0].0)).collect();
                let src = pick(i, &fronts);
                let q = pending.get_mut(&src).expect("the pick is pending");
                let (_, payload) = q.pop_front().unwrap();
                if q.is_empty() {
                    pending.remove(&src);
                }
                got.push((src, vec![src as u8, payload]));
            }
            got
        }

        #[test]
        fn every_policy_picks_what_an_ordered_map_picks() {
            let min_source = reference(|_, f| f[0].0);
            assert_eq!(run(MatchPolicy::MinSource), min_source);
            // The late low sources jump the queue the moment they land.
            let late_at = min_source.iter().position(|m| m.1[1] == 1).unwrap();
            assert_eq!(min_source[late_at].0, 1);

            let arrival = reference(|_, f| f.iter().min_by_key(|p| p.1).unwrap().0);
            assert_eq!(run(MatchPolicy::Arrival), arrival);
            assert_ne!(arrival, min_source);

            for seed in [3, 42] {
                let perturbed = reference(|i, f| {
                    let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x85eb_ca6b));
                    f[(h % f.len() as u64) as usize].0
                });
                assert_eq!(run(MatchPolicy::Perturb(seed)), perturbed);
            }

            // Six forced picks of the highest pending source, then
            // min-source.
            let guided = reference(|i, f| if i < 6 { f[f.len() - 1].0 } else { f[0].0 });
            let prefix = guided[..6].iter().map(|m| m.0).collect();
            let sched = Arc::new(ReplayLog::from_choices(vec![prefix]));
            assert_eq!(run(MatchPolicy::Guided(sched)), guided);
        }
    }

    /// Sources rank 0 matched, in match order, on a 16-rank gather whose
    /// 45 messages (two tags, two messages a sender on one of them,
    /// arriving in an order unlike the rank order) are all pending
    /// before the first wildcard.
    fn gather_picks(policy: MatchPolicy) -> Vec<usize> {
        let opts = RunOptions::default().policy(policy).traced();
        let ms = Duration::from_millis;
        let out = World::run_opts(16, opts, move |mut comm| async move {
            let r = comm.rank();
            if r == 0 {
                comm.sleep(ms(100)).await;
                for _ in 0..30 {
                    comm.recv_any(7).await;
                }
                for _ in 0..15 {
                    comm.recv_any(9).await;
                }
            } else {
                comm.sleep(ms(16 - r as u64)).await;
                comm.send(0, 7, vec![r as u8]).await;
                comm.send(0, 9, vec![r as u8]).await;
                comm.sleep(ms(r as u64 % 5)).await;
                comm.send(0, 7, vec![r as u8 + 100]).await;
            }
        })
        .unwrap();
        let mut matched = ReplayLog::from_trace(&out.trace.expect("traced")).into_per_rank();
        assert!(
            matched[1..].iter().all(Vec::is_empty),
            "only rank 0 matches"
        );
        matched.swap_remove(0)
    }

    /// Recorded on the three-container mailbox (the commit before the
    /// ordered map): what each policy matched on [`gather_picks`].
    #[test]
    fn match_policies_pick_the_sources_they_always_picked() {
        let twice = |r: usize| [r, r];
        let by_rank: Vec<usize> = (1..16).collect();
        let min_source = [(1..16).flat_map(twice).collect(), by_rank.clone()].concat();
        assert_eq!(gather_picks(MatchPolicy::MinSource), min_source);

        let arrival = [
            vec![15, 15, 14, 13, 12, 11, 10, 10, 14, 13, 12, 11, 9, 8, 7],
            vec![6, 5, 5, 9, 8, 7, 6, 4, 3, 2, 1, 4, 3, 2, 1],
            (1..16).rev().collect(),
        ]
        .concat();
        assert_eq!(gather_picks(MatchPolicy::Arrival), arrival);

        let perturbed = vec![
            14, 1, 8, 7, 7, 10, 12, 11, 12, 6, 9, 15, 13, 1, 9, 13, 14, 6, 11, 3, 4, 2, 5, 10, 3,
            5, 8, 2, 15, 4, 14, 6, 7, 10, 1, 12, 8, 9, 2, 11, 4, 3, 13, 15, 5,
        ];
        assert_eq!(gather_picks(MatchPolicy::Perturb(42)), perturbed);
        // Replaying the perturbed run pins every wildcard to it.
        let log = Arc::new(ReplayLog::from_choices(vec![perturbed.clone()]));
        assert_eq!(gather_picks(MatchPolicy::Replay(log)), perturbed);

        // A forced prefix, then min-source over what it left.
        let guided = Arc::new(ReplayLog::from_choices(vec![vec![5, 3, 9, 5]]));
        let rest = [1, 1, 2, 2, 3, 4, 4, 6, 6, 7, 7, 8, 8, 9];
        let tail: Vec<usize> = (10..16).flat_map(twice).collect();
        let picks = [vec![5, 3, 9, 5], rest.to_vec(), tail, by_rank].concat();
        assert_eq!(gather_picks(MatchPolicy::Guided(guided)), picks);
    }
}
