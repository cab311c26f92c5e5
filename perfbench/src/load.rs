//! Open-loop load: requests fall due on a fixed schedule whether or not
//! earlier ones have finished. A fixed set of connections takes the
//! requests in due order; a request whose connections are all busy is
//! sent late. Latency is timed from the due time, so a stall shows in
//! the requests queued behind it, and lateness (send − due) measures how
//! far the generator fell behind its schedule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request's timing, in milliseconds from the schedule's start.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub index: usize,
    pub due_ms: f64,
    pub sent_ms: f64,
    pub done_ms: f64,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time; a failed request counts as missing
    /// every latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done_ms - self.due_ms
        } else {
            f64::INFINITY
        }
    }

    pub fn late_ms(&self) -> f64 {
        self.sent_ms - self.due_ms
    }
}

/// Send `n` requests due every `1 / rate` seconds over `connections`
/// connections. `make_conn(c)` builds connection `c`'s state on its own
/// thread; `send(state, i)` sends request `i` and returns whether it
/// succeeded. Samples come back in index order.
pub fn open_loop<C>(
    n: usize,
    rate: f64,
    connections: usize,
    make_conn: impl Fn(usize) -> C + Sync,
    send: impl Fn(&mut C, usize) -> bool + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let ms = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                let (next, make_conn, send) = (&next, &make_conn, &send);
                scope.spawn(move || {
                    let mut conn = make_conn(c);
                    let mut out = Vec::new();
                    loop {
                        // Relaxed ordering: the counter only hands out
                        // distinct indices and publishes no other data.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return out;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ok = send(&mut conn, i);
                        let done = Instant::now();
                        out.push(Sample {
                            index: i,
                            due_ms: ms(due),
                            sent_ms: ms(sent),
                            done_ms: ms(done),
                            ok,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_server_delays_the_requests_behind_it() {
        // One connection, a request due every 10 ms, and a server that
        // stalls 100 ms on request 0. Requests 1..=9 fall due during the
        // stall and are sent late; their latency from the due time
        // includes the wait, although each is answered at once.
        let samples = open_loop(
            12,
            100.0,
            1,
            |_| (),
            |_, i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(100));
                }
                true
            },
        );
        assert_eq!(samples.len(), 12);
        assert!(samples[0].latency_ms() >= 100.0);
        for s in &samples[1..10] {
            let waited = 100.0 - s.due_ms;
            assert!(s.late_ms() >= waited - 1.0, "{s:?}");
            assert!(s.latency_ms() >= waited - 1.0, "{s:?}");
            // Service itself was instant: latency is almost all lateness.
            assert!(s.latency_ms() - s.late_ms() < 5.0, "{s:?}");
        }
        // Request 1 waited ~90 ms, request 9 only ~10 ms.
        assert!(samples[1].latency_ms() > samples[9].latency_ms() + 50.0);
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        let samples = open_loop(4, 1000.0, 2, |_| (), |_, i| i != 2);
        assert_eq!(samples.iter().filter(|s| !s.ok).count(), 1);
        assert!(samples[2].latency_ms().is_infinite());
        assert!(samples[3].latency_ms().is_finite());
        assert!(samples.iter().enumerate().all(|(i, s)| s.index == i));
    }
}
