//! A failing artifact build is a returned error, not a panic: it must not
//! reach the process's panic hook. Panic hooks are process-wide, so this
//! check has a test binary of its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tpx_engine::{ArtifactCache, CacheError};

#[test]
fn a_failing_build_never_calls_the_panic_hook() {
    let cache = ArtifactCache::new();
    // The cache's first use comes before the hook below is installed.
    let (v, _) = cache.get_or_build("warm", 1, || 1u8);
    assert_eq!(*v, 1);

    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    }));
    let failed = cache.try_get_or_build::<u8, &str, _>("fails", 2, || Err("out of fuel"));
    let retried = cache.try_get_or_build::<u8, &str, _>("fails", 2, || Ok(3));
    std::panic::set_hook(previous);

    assert!(matches!(failed, Err(CacheError::Build("out of fuel"))));
    assert_eq!(*retried.expect("the retry builds").0, 3);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        0,
        "a build error ran the panic hook"
    );
}
