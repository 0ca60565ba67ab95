//! RAII span timers.
//!
//! A [`Span`] measures the wall-clock time of its scope. Spans nest
//! through a thread-local stack: a span opened while another is live
//! records under the joined path (`outer/inner`), so the manifest
//! shows *where* inside an experiment the time went.
//!
//! Timing is always measured (so bench tables can print the duration
//! whatever the level); *recording* — into the histogram named after
//! the span and into the global span-stat table — happens only at
//! [`crate::Level::Full`].

use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An RAII wall-clock timer; see the module docs.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    finished: bool,
}

impl Span {
    /// Opens a span and pushes it on the thread's nesting stack.
    pub fn enter(name: &'static str) -> Span {
        STACK.with(|s| s.borrow_mut().push(name));
        Span {
            name,
            start: Instant::now(),
            finished: false,
        }
    }

    /// Nesting depth of the current thread (this span included).
    pub fn depth() -> usize {
        STACK.with(|s| s.borrow().len())
    }

    /// Elapsed time so far, without closing the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span, records it, and returns the elapsed time.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if !self.finished {
            self.finished = true;
            // The joined path is a heap string: build it only where it
            // is recorded, so a span below `Full` allocates nothing.
            let path = STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = crate::full_enabled().then(|| stack.join("/"));
                debug_assert_eq!(stack.last().copied(), Some(self.name), "span stack order");
                stack.pop();
                path
            });
            if let Some(path) = path {
                let ns = elapsed.as_nanos() as u64;
                crate::registry::record_span(&path, ns);
                crate::hist(self.name).record(ns);
            }
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_paths() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Full);
        {
            let _outer = Span::enter("test.span.outer");
            assert_eq!(Span::depth(), 1);
            {
                let _inner = Span::enter("test.span.inner");
                assert_eq!(Span::depth(), 2);
            }
            assert_eq!(Span::depth(), 1);
        }
        assert_eq!(Span::depth(), 0);
        let snap = crate::snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "test.span.outer"));
        assert!(snap
            .spans
            .iter()
            .any(|s| s.path == "test.span.outer/test.span.inner"));
        // The leaf histogram exists too.
        assert!(snap.hist("test.span.inner").unwrap().count >= 1);
    }

    #[test]
    fn finish_returns_elapsed_and_pops_once() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Full);
        let sp = Span::enter("test.span.finish");
        std::thread::sleep(Duration::from_millis(1));
        let d = sp.finish();
        assert!(d >= Duration::from_millis(1));
        assert_eq!(Span::depth(), 0);
    }

    #[test]
    fn off_level_still_times() {
        let _g = crate::serial_guard();
        crate::set_level(crate::Level::Off);
        let sp = Span::enter("test.span.off");
        let d = sp.finish();
        assert!(d >= Duration::ZERO);
        crate::set_level(crate::Level::Counters);
    }
}
