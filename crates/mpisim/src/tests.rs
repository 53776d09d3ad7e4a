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
fn gather_collects_in_rank_order() {
    let results = World::run(5, |mut comm| async move {
        let data = vec![comm.rank() as u8; comm.rank() + 1];
        comm.gather(2, data, 7).await
    });
    let at_root = results[2].as_ref().unwrap();
    for (r, d) in at_root.iter().enumerate() {
        assert_eq!(d.len(), r + 1);
        assert!(d.iter().all(|&b| b == r as u8));
    }
    assert!(results[0].is_none());
}

#[test]
fn bcast_delivers_everywhere() {
    let results = World::run(6, |mut comm| async move {
        let payload = if comm.rank() == 3 {
            b"hello".to_vec()
        } else {
            Vec::new()
        };
        comm.bcast(3, payload, 9).await
    });
    for r in results {
        assert_eq!(r, b"hello");
    }
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
        let all = comm.gather(0, vec![42], 1).await.unwrap();
        all[0][0] as usize
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
fn watchdog_reports_stall_without_deadlock_detection() {
    let opts = RunOptions::default()
        .no_deadlock_detection()
        .with_timeout(Some(Duration::from_millis(200)));
    let err = World::run_opts(2, opts, |mut comm| async move {
        let peer = 1 - comm.rank();
        let _ = comm.recv_from(peer, 5).await;
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
    let sched = Arc::new(GuidedSchedule::new(vec![vec![3, 1]]));
    let (order, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Guided(sched)));
    // First two wildcards forced to 3 then 1; the rest min-source.
    assert_eq!(order, vec![3, 1, 2, 4]);
}

#[test]
fn guided_empty_schedule_is_min_source() {
    let (base, _) = fan_in_order(RunOptions::default());
    let sched = Arc::new(GuidedSchedule::default());
    let (order, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Guided(sched)));
    assert_eq!(order, base);
}

#[test]
fn guided_run_matches_replay_of_full_schedule() {
    // A guided schedule covering every wildcard behaves exactly
    // like Replay of the same choices — Guided generalizes Replay.
    let choices = vec![vec![4, 2, 3, 1]];
    let guided = Arc::new(GuidedSchedule::new(choices.clone()));
    let (g, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Guided(guided)));
    let replay = Arc::new(ReplayLog::from_choices(choices.clone()));
    let (r, _) = fan_in_order(RunOptions::default().policy(MatchPolicy::Replay(replay)));
    assert_eq!(g, r);
    assert_eq!(g, choices[0]);
}

#[test]
fn choice_hook_sees_every_wildcard_with_candidates() {
    use std::sync::Mutex;
    let seen: Arc<Mutex<Vec<ChoicePoint>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let sched = Arc::new(GuidedSchedule::new(vec![vec![4]]));
    let opts = RunOptions::default()
        .policy(MatchPolicy::Guided(sched))
        .on_choice(Arc::new(move |cp: &ChoicePoint| {
            sink.lock().unwrap().push(cp.clone());
        }));
    let (order, _) = fan_in_order(opts);
    assert_eq!(order, vec![4, 1, 2, 3]);
    let mut cps = seen.lock().unwrap().clone();
    cps.sort_by_key(|cp| cp.index);
    assert_eq!(cps.len(), 4, "one choice point per wildcard receive");
    assert!(cps.iter().all(|cp| cp.rank == 0 && cp.tag == 1));
    assert_eq!(cps[0].chosen, 4);
    assert!(cps[0].forced, "scheduled prefix choices report forced");
    // The confirmation handshake guarantees all four sends were
    // pending when the first wildcard matched.
    assert_eq!(cps[0].candidates, vec![1, 2, 3, 4]);
    assert!(cps[1..].iter().all(|cp| !cp.forced));
    assert_eq!(cps[3].candidates, vec![cps[3].chosen]);
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
        assert_eq!(log.faulted_links(), vec![(0, 1, 3)]);
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

        /// gather followed by bcast round-trips every rank's payload
        /// at random world sizes and roots.
        #[test]
        fn gather_bcast_roundtrip(
            spec in (1usize..9).prop_flat_map(|n| (proptest::prelude::Just(n), 0usize..n)),
        ) {
            let (n, root) = spec;
            let results = World::run(n, move |mut comm| async move {
                let payload = vec![comm.rank() as u8; comm.rank() + 1];
                let gathered = comm.gather(root, payload, 4).await;
                // Root re-broadcasts the concatenation; everyone
                // must agree on it.
                let concat = gathered
                    .map(|all| all.concat())
                    .unwrap_or_default();
                comm.bcast(root, concat, 6).await
            });
            let expected: Vec<u8> =
                (0..n).flat_map(|r| std::iter::repeat_n(r as u8, r + 1)).collect();
            for r in &results {
                prop_assert_eq!(r, &expected);
            }
        }
    }
}

/// Differential tests against the thread-backed oracle (feature
/// `thread-exec`): the same program, with the wildcard choices of a
/// recorded run replayed onto the other backend, must produce the
/// identical per-rank trace (same sends, receives, vector clocks —
/// hence the same happens-before relation) and identical results.
#[cfg(feature = "thread-exec")]
mod differential {
    use super::*;
    use proptest::prelude::*;

    type BoxFut<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

    /// A fan-in + ring exchange parameterized by a message plan:
    /// `(src, tag, byte)` messages from non-zero ranks to rank 0
    /// (wildcard-received in tag-major order), then a barrier, then a
    /// deterministic ring pass.
    fn program(
        _n: usize,
        plan: Arc<Vec<(usize, u32, u8)>>,
    ) -> impl Fn(Comm) -> BoxFut<Vec<(usize, u8)>> + Send + Sync {
        move |mut comm: Comm| {
            let plan = Arc::clone(&plan);
            Box::pin(async move {
                let me = comm.rank();
                let mut got: Vec<(usize, u8)> = Vec::new();
                if me == 0 {
                    for t in 1..=2u32 {
                        let k = plan.iter().filter(|(_, tag, _)| *tag == t).count();
                        for _ in 0..k {
                            let (src, data) = comm.recv_any(t).await;
                            got.push((src, data[0]));
                        }
                    }
                } else {
                    for &(src, tag, byte) in plan.iter() {
                        if src == me {
                            comm.send(0, tag, vec![byte]).await;
                        }
                    }
                }
                comm.barrier().await;
                let next = (me + 1) % comm.size();
                let prev = (me + comm.size() - 1) % comm.size();
                comm.send(next, 7, vec![me as u8]).await;
                let ring = comm.recv_from(prev, 7).await;
                got.push((prev, ring[0]));
                got
            })
        }
    }

    /// Record a traced run on `record_on`, then replay its wildcard
    /// choices on `replay_on`; both traces and results must agree
    /// exactly.
    fn assert_backends_equivalent(
        n: usize,
        plan: Vec<(usize, u32, u8)>,
        record_on: Backend,
        replay_on: Backend,
    ) {
        let plan = Arc::new(plan);
        let rec = World::run_opts(
            n,
            RunOptions::default().traced().with_backend(record_on),
            program(n, Arc::clone(&plan)),
        )
        .unwrap();
        let rec_trace = rec.trace.unwrap();
        let log = Arc::new(ReplayLog::from_trace(&rec_trace));
        let rep = World::run_opts(
            n,
            RunOptions::default()
                .traced()
                .with_backend(replay_on)
                .policy(MatchPolicy::Replay(log)),
            program(n, Arc::clone(&plan)),
        )
        .unwrap();
        assert_eq!(rec.results, rep.results, "results diverge across backends");
        let rep_trace = rep.trace.unwrap();
        // The global log interleaves ranks in flush order, which is
        // backend-specific; each rank's own event stream (with its
        // vector clocks — the happens-before relation) must match
        // exactly.
        for r in 0..n {
            let a: Vec<&TraceEvent> = rec_trace.events_for(r).collect();
            let b: Vec<&TraceEvent> = rep_trace.events_for(r).collect();
            assert_eq!(a, b, "rank {r} trace diverges across backends");
        }
        // And the canonical wildcard-match order is identical.
        assert_eq!(
            ReplayLog::canonical(&rec_trace).per_rank(),
            ReplayLog::canonical(&rep_trace).per_rank(),
        );
    }

    #[test]
    fn event_recording_replays_identically_on_threads() {
        let plan = vec![(1, 1, 10), (2, 1, 20), (3, 2, 30), (2, 2, 40), (1, 1, 50)];
        assert_backends_equivalent(4, plan, Backend::Event, Backend::Thread);
    }

    #[test]
    fn thread_recording_replays_identically_on_event_core() {
        let plan = vec![(3, 2, 9), (1, 1, 8), (2, 1, 7), (3, 1, 6)];
        assert_backends_equivalent(4, plan, Backend::Thread, Backend::Event);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For random plans at every n ≤ 16, the event core and the
        /// thread oracle are trace-equivalent in both record/replay
        /// directions (each case spawns n OS threads per thread-backed
        /// run, which bounds how large n can reasonably go).
        #[test]
        fn backends_are_trace_equivalent(
            spec in (2usize..17).prop_flat_map(|n| {
                (
                    Just(n),
                    proptest::collection::vec((1..n.max(2), 1u32..3, 0u8..255), 0..10),
                )
            }),
        ) {
            let (n, plan) = spec;
            assert_backends_equivalent(n, plan.clone(), Backend::Event, Backend::Thread);
            assert_backends_equivalent(n, plan, Backend::Thread, Backend::Event);
        }
    }

    mod with_faults {
        use super::*;
        use fault::{FaultInjector, SendFate};

        /// Corrupts the first send on (1 → 0, tag 1) — deterministic
        /// by message identity, so both backends see the same fault.
        struct CorruptFirst;

        impl FaultInjector for CorruptFirst {
            fn on_send(
                &self,
                src: usize,
                dst: usize,
                tag: u32,
                seq: u64,
                data: &mut Vec<u8>,
            ) -> SendFate {
                if src == 1 && dst == 0 && tag == 1 && seq == 0 {
                    if let Some(b) = data.first_mut() {
                        *b ^= 0xff;
                    }
                    return SendFate::Corrupt;
                }
                SendFate::Deliver
            }
        }

        /// A whole-plan injector: every send into rank 0 on the fan-in
        /// tags gets a fate hashed from (seed, src, tag, seq) — drop,
        /// corrupt, delay, or deliver. Fates are a pure function of the
        /// message identity, so both backends face the identical plan.
        /// (A drop leaves `seq` unconsumed, so once a stream's hash
        /// says drop, the rest of that stream drops too — the test's
        /// expected-count model reproduces exactly that.)
        struct HashPlan {
            seed: u64,
        }

        impl HashPlan {
            fn fate_code(&self, src: usize, dst: usize, tag: u32, seq: u64) -> u8 {
                if dst != 0 || tag >= 3 {
                    return 3; // only the fan-in phase is faulted
                }
                let h = crate::splitmix64(
                    self.seed
                        ^ (src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ ((tag as u64) << 32)
                        ^ seq.wrapping_mul(0x85eb_ca6b),
                );
                (h % 4) as u8
            }
        }

        impl FaultInjector for HashPlan {
            fn on_send(
                &self,
                src: usize,
                dst: usize,
                tag: u32,
                seq: u64,
                data: &mut Vec<u8>,
            ) -> SendFate {
                match self.fate_code(src, dst, tag, seq) {
                    0 => SendFate::Drop,
                    1 => {
                        if let Some(b) = data.first_mut() {
                            *b ^= 0xff;
                        }
                        SendFate::Corrupt
                    }
                    2 => SendFate::Delay(Duration::from_micros(200)),
                    _ => SendFate::Deliver,
                }
            }
        }

        /// How many fan-in messages rank 0 will actually see per tag
        /// under `HashPlan{seed}` — the injector's fate function
        /// replayed over the plan, including the dropped-seq stall.
        fn delivered_counts(seed: u64, plan: &[(usize, u32, u8)]) -> [usize; 2] {
            let inj = HashPlan { seed };
            let mut delivered = [0usize; 2];
            let mut seqs: BTreeMap<(usize, u32), u64> = BTreeMap::new();
            for &(src, tag, _) in plan {
                let d = seqs.entry((src, tag)).or_insert(0);
                if inj.fate_code(src, 0, tag, *d) != 0 {
                    *d += 1;
                    delivered[(tag - 1) as usize] += 1;
                }
            }
            delivered
        }

        /// The fan-in + ring program with explicit per-tag receive
        /// counts (rank 0 cannot infer them from the plan once sends
        /// can be dropped).
        fn faulted_program(
            plan: Arc<Vec<(usize, u32, u8)>>,
            counts: [usize; 2],
        ) -> impl Fn(Comm) -> BoxFut<Vec<(usize, u8)>> + Send + Sync {
            move |mut comm: Comm| {
                let plan = Arc::clone(&plan);
                Box::pin(async move {
                    let me = comm.rank();
                    let mut got: Vec<(usize, u8)> = Vec::new();
                    if me == 0 {
                        for t in 1..=2u32 {
                            for _ in 0..counts[(t - 1) as usize] {
                                let (src, data) = comm.recv_any(t).await;
                                got.push((src, data[0]));
                            }
                        }
                    } else {
                        for &(src, tag, byte) in plan.iter() {
                            if src == me {
                                comm.send(0, tag, vec![byte]).await;
                            }
                        }
                    }
                    comm.barrier().await;
                    let next = (me + 1) % comm.size();
                    let prev = (me + comm.size() - 1) % comm.size();
                    comm.send(next, 7, vec![me as u8]).await;
                    let ring = comm.recv_from(prev, 7).await;
                    got.push((prev, ring[0]));
                    got
                })
            }
        }

        /// Record a faulted run on one backend, replay it on the
        /// other: identical results, identical per-rank traces
        /// (vector clocks included), identical fault events.
        fn assert_faulted_equivalent(
            n: usize,
            seed: u64,
            plan: Vec<(usize, u32, u8)>,
            record_on: Backend,
            replay_on: Backend,
        ) {
            let counts = delivered_counts(seed, &plan);
            let plan = Arc::new(plan);
            let run = |backend: Backend, policy: MatchPolicy| {
                World::run_opts(
                    n,
                    RunOptions::default()
                        .traced()
                        .with_backend(backend)
                        .policy(policy)
                        .with_injector(Arc::new(HashPlan { seed })),
                    faulted_program(Arc::clone(&plan), counts),
                )
                .unwrap()
            };
            let rec = run(record_on, MatchPolicy::MinSource);
            let rec_trace = rec.trace.unwrap();
            let log = Arc::new(ReplayLog::from_trace(&rec_trace));
            let rep = run(replay_on, MatchPolicy::Replay(log));
            assert_eq!(rec.results, rep.results, "results diverge across backends");
            let rep_trace = rep.trace.unwrap();
            assert_eq!(rec_trace.fault_count(), rep_trace.fault_count());
            for r in 0..n {
                let a: Vec<&TraceEvent> = rec_trace.events_for(r).collect();
                let b: Vec<&TraceEvent> = rep_trace.events_for(r).collect();
                assert_eq!(a, b, "rank {r} trace diverges across backends");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// For every seed and generated fault plan at n ≤ 16, a
            /// faulted run is trace-equivalent across backends in both
            /// record/replay directions — drops, corruption, and
            /// virtual-time delays included.
            #[test]
            fn faulted_backends_are_trace_equivalent(
                seed in 0u64..1_000_000,
                spec in (2usize..17).prop_flat_map(|n| {
                    (
                        Just(n),
                        proptest::collection::vec((1..n.max(2), 1u32..3, 0u8..255), 0..12),
                    )
                }),
            ) {
                let (n, plan) = spec;
                assert_faulted_equivalent(n, seed, plan.clone(), Backend::Event, Backend::Thread);
                assert_faulted_equivalent(n, seed, plan, Backend::Thread, Backend::Event);
            }
        }

        #[test]
        fn faulted_run_is_trace_equivalent_across_backends() {
            let plan = Arc::new(vec![(1usize, 1u32, 10u8), (2, 1, 20), (1, 2, 30)]);
            let run = |backend: Backend, policy: MatchPolicy| {
                World::run_opts(
                    3,
                    RunOptions::default()
                        .traced()
                        .with_backend(backend)
                        .policy(policy)
                        .with_injector(Arc::new(CorruptFirst)),
                    program(3, Arc::clone(&plan)),
                )
                .unwrap()
            };
            let rec = run(Backend::Event, MatchPolicy::MinSource);
            let rec_trace = rec.trace.unwrap();
            let log = Arc::new(ReplayLog::from_trace(&rec_trace));
            let rep = run(Backend::Thread, MatchPolicy::Replay(log));
            assert_eq!(rec.results, rep.results);
            let rep_trace = rep.trace.unwrap();
            assert_eq!(rec_trace.fault_count(), 1);
            assert_eq!(rep_trace.fault_count(), 1);
            for r in 0..3 {
                let a: Vec<&TraceEvent> = rec_trace.events_for(r).collect();
                let b: Vec<&TraceEvent> = rep_trace.events_for(r).collect();
                assert_eq!(a, b, "rank {r} trace diverges across backends");
            }
        }
    }
}

/// The mailbox (`PendingSet`) against the three-container structure it
/// replaced, and the match policies against the sources that structure
/// picked.
mod mailbox {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::Mutex;

    /// The mailbox as it was before it became one ordered map: a FIFO
    /// per (src, tag) in a hash map, plus a sorted (tag, src) index of
    /// the non-empty ones. Kept as the oracle.
    #[derive(Default)]
    struct OraclePendingSet {
        map: HashMap<(usize, u32), VecDeque<Envelope>>,
        index: BTreeSet<(u32, usize)>,
    }

    impl OraclePendingSet {
        fn push(&mut self, env: Envelope) {
            let q = self.map.entry((env.src, env.tag)).or_default();
            if q.is_empty() {
                self.index.insert((env.tag, env.src));
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
            src,
            tag,
            seq,
            arrival,
            clock: Clock::new(),
            data: vec![src as u8, tag as u8, seq as u8],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pushes (several tags, repeated sources, per-stream
        /// sequence numbers in send order, streams interleaved) and
        /// pops: after every step both mailboxes name the same first
        /// source, sources and front arrivals for every tag, and every
        /// pop hands out the same envelope.
        #[test]
        fn one_ordered_map_answers_like_the_three_containers(
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
                    let fronts: Vec<u64> = new.fronts(tag).map(|e| e.arrival).collect();
                    let arrivals: Vec<u64> =
                        sources.iter().map(|&s| old.front_arrival(s, tag)).collect();
                    prop_assert_eq!(fronts, arrivals);
                }
            }
        }
    }

    /// Sources rank 0 matched, in match order, on a 16-rank gather whose
    /// 45 messages (two tags, two messages a sender on one of them,
    /// arriving in an order unlike the rank order) are all pending
    /// before the first wildcard.
    fn gather_picks(policy: MatchPolicy) -> Vec<usize> {
        let picks = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&picks);
        let opts =
            RunOptions::default()
                .policy(policy)
                .on_choice(Arc::new(move |cp: &ChoicePoint| {
                    assert_eq!(cp.rank, 0);
                    sink.lock().unwrap().push(cp.chosen);
                }));
        let ms = Duration::from_millis;
        World::run_opts(16, opts, move |mut comm| async move {
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
        let picks = picks.lock().unwrap().clone();
        picks
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
        let guided = Arc::new(GuidedSchedule::new(vec![vec![5, 3, 9, 5]]));
        let rest = [1, 1, 2, 2, 3, 4, 4, 6, 6, 7, 7, 8, 8, 9];
        let tail: Vec<usize> = (10..16).flat_map(twice).collect();
        let picks = [vec![5, 3, 9, 5], rest.to_vec(), tail, by_rank].concat();
        assert_eq!(gather_picks(MatchPolicy::Guided(guided)), picks);
    }
}
