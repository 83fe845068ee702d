//! Multi-threaded span nesting: the span stack is thread-local, so
//! parents/children must be attributed per thread with no cross-thread
//! bleed, and concurrent recording must account every span exactly once.
//!
//! Lives in its own integration-test binary because it calls
//! `stisan_obs::init()` (process-global).

use stisan_obs::span;

#[test]
fn nesting_is_per_thread_and_counts_are_exact() {
    let obs = stisan_obs::init();
    const THREADS: usize = 8;
    const REPS: usize = 200;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for _ in 0..REPS {
                    let _outer = span("request");
                    // A sibling thread's open spans must be invisible here.
                    assert_eq!(stisan_obs::span::current_path(), "request");
                    {
                        let _inner = if t % 2 == 0 { span("score") } else { span("write") };
                        let path = stisan_obs::span::current_path();
                        assert!(
                            path == "request/score" || path == "request/write",
                            "cross-thread bleed: {path}"
                        );
                    }
                    assert_eq!(stisan_obs::span::current_path(), "request");
                }
            });
        }
    });

    // Every thread left its stack empty.
    assert_eq!(stisan_obs::span::current_path(), "");

    let snap = obs.registry.snapshot();
    let count = |name: &str| {
        snap.histograms.iter().find(|h| h.name == name).map(|h| h.count()).unwrap_or(0)
    };
    assert_eq!(count("span.request"), (THREADS * REPS) as u64);
    assert_eq!(count("span.request/score"), (THREADS / 2 * REPS) as u64);
    assert_eq!(count("span.request/write"), (THREADS / 2 * REPS) as u64);
    // No orphan paths: a child never recorded under another thread's stack.
    for h in &snap.histograms {
        assert!(
            ["span.request", "span.request/score", "span.request/write"]
                .contains(&h.name.as_str()),
            "unexpected span path {}",
            h.name
        );
    }
}
