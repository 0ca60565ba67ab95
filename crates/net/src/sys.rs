//! Readiness polling.
//!
//! On Linux this is `epoll` called through our own `extern "C"`
//! declarations: the process already links libc via `std`, so the
//! offline container needs no external crate to reach the syscalls.
//! Sockets register **edge-triggered** (`EPOLLET`) for read *and*
//! write interest once, at accept time — the event loop then drains
//! every readiness edge to `WouldBlock`, which is the contract that
//! makes one `epoll_ctl` per connection lifetime sufficient.
//!
//! Every poller also owns a **wake descriptor**: an `eventfd`
//! registered level-triggered under the reserved [`WAKE_TOKEN`]. Any
//! thread holding a [`Waker`] ends a `wait` in progress (or makes the
//! next one return at once) with [`Waker::wake`]; `wait` drains the
//! descriptor before it reports the token, so any number of wakes
//! between two waits is one event, and a wake that lands after the
//! drain is seen by the next `wait`. Nothing that happened before a
//! `wake()` can be missed by work done after the `wait` it ends —
//! which is what lets the event loop sleep without a timeout.
//!
//! On other platforms the [`Poller`] degrades to an "always ready"
//! stub: `wait` sleeps a millisecond and reports every registered
//! token — the wake token included — readable and writable, and
//! `wake()` does nothing. Nonblocking sockets make that correct
//! (spurious readiness just yields `WouldBlock`), merely busier — the
//! production target, like CI, is Linux.

/// The token [`Poller::wait`] reports when a [`Waker`] fired. Reserved:
/// [`Poller::register`] refuses it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// `InvalidInput` for a caller registering under [`WAKE_TOKEN`].
fn refuse_wake_token(token: u64) -> std::io::Result<()> {
    if token == WAKE_TOKEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "token reserved for the wake descriptor",
        ));
    }
    Ok(())
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the file descriptor registered with.
    pub token: u64,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer hung up or the descriptor errored; the connection is dead.
    pub closed: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, WAKE_TOKEN};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_uint, c_void};
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    // The kernel ABI packs epoll_event on x86_64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    /// Capacity of the per-`wait` event batch.
    const WAIT_BATCH: usize = 256;

    /// The wake `eventfd`, closed when the poller and every waker
    /// cloned from it are gone — a late `wake()` can never write to a
    /// descriptor number the process has since reused.
    struct WakeFd(RawFd);

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: we own the descriptor.
            let _ = unsafe { close(self.0) };
        }
    }

    /// Ends a [`Poller::wait`] from any thread. Cheap to clone.
    #[derive(Clone)]
    pub struct Waker {
        fd: Arc<WakeFd>,
    }

    impl Waker {
        /// Makes the poller's current (or next) `wait` return with
        /// [`WAKE_TOKEN`]. Never blocks; wakes before a `wait` coalesce.
        pub fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // The only failure a nonblocking eventfd write has is
            // EAGAIN at a counter of 2^64 - 2, where the descriptor is
            // readable already: the wake is delivered either way.
            // SAFETY: `one` is 8 readable bytes for the call.
            let _ = unsafe { write(self.fd.0, one.as_ptr().cast(), one.len()) };
        }
    }

    /// An `epoll` instance and its wake descriptor.
    pub struct Poller {
        epfd: RawFd,
        wake: Arc<WakeFd>,
    }

    impl Poller {
        /// Creates an epoll instance with its wake descriptor (both
        /// close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: plain syscall, no pointers.
            let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if efd < 0 {
                let err = io::Error::last_os_error();
                // SAFETY: we own `epfd` and nothing else has seen it.
                let _ = unsafe { close(epfd) };
                return Err(err);
            }
            let poller = Poller {
                epfd,
                wake: Arc::new(WakeFd(efd)),
            };
            // Level-triggered: readable until `wait` drains it.
            poller.add(efd, EPOLLIN, WAKE_TOKEN)?;
            Ok(poller)
        }

        /// A handle that ends this poller's `wait` from another thread.
        pub fn waker(&self) -> Waker {
            Waker {
                fd: Arc::clone(&self.wake),
            }
        }

        /// Registers `fd` edge-triggered for read + write interest.
        /// [`WAKE_TOKEN`] is refused with `InvalidInput`.
        pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
            super::refuse_wake_token(token)?;
            self.add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, token)
        }

        fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Removes `fd` from the interest set (best effort).
        pub fn deregister(&self, fd: RawFd) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // Pre-2.6.9 kernels required a non-null event for DEL;
            // passing one is harmless everywhere. Close of the fd
            // also deregisters implicitly, so errors are ignorable.
            // SAFETY: as in `register`.
            let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Blocks up to `timeout` for readiness or a wake; fills `out`.
        /// The wake descriptor is drained before [`WAKE_TOKEN`] is
        /// reported.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
            let ms = c_int::try_from(timeout.as_millis())
                .unwrap_or(c_int::MAX)
                .max(0);
            // SAFETY: `buf` is valid for WAIT_BATCH entries for the
            // duration of the call.
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), WAIT_BATCH as c_int, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for e in buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let events = e.events;
                let data = e.data;
                if data == WAKE_TOKEN {
                    let mut count = [0u8; 8];
                    // One read resets the counter; EAGAIN (another
                    // drain got there first) leaves nothing to do.
                    // SAFETY: `count` is 8 writable bytes for the call.
                    let _ = unsafe { read(self.wake.0, count.as_mut_ptr().cast(), count.len()) };
                }
                out.push(Event {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: events & EPOLLOUT != 0,
                    closed: events & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: we own the descriptor. (Closing it also drops its
            // interest in the wake descriptor, which `WakeFd` closes.)
            let _ = unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, WAKE_TOKEN};
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    /// No-op waker: the fallback `wait` reports [`WAKE_TOKEN`] every
    /// millisecond anyway.
    #[derive(Clone)]
    pub struct Waker;

    impl Waker {
        /// Does nothing (see the type).
        pub fn wake(&self) {}
    }

    /// Always-ready fallback for non-Linux hosts.
    pub struct Poller {
        tokens: Mutex<Vec<(RawFd, u64)>>,
    }

    impl Poller {
        /// Creates the fallback poller.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                tokens: Mutex::new(Vec::new()),
            })
        }

        /// The no-op waker.
        pub fn waker(&self) -> Waker {
            Waker
        }

        /// Remembers `fd` so `wait` reports it ready. [`WAKE_TOKEN`]
        /// is refused with `InvalidInput`.
        pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
            super::refuse_wake_token(token)?;
            self.tokens.lock().expect("poller lock").push((fd, token));
            Ok(())
        }

        /// Forgets `fd`.
        pub fn deregister(&self, fd: RawFd) {
            self.tokens
                .lock()
                .expect("poller lock")
                .retain(|&(f, _)| f != fd);
        }

        /// Sleeps briefly, then reports every registered fd, and the
        /// wake token, ready.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            out.clear();
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            let tokens = self.tokens.lock().expect("poller lock");
            for token in tokens.iter().map(|&(_, t)| t).chain([WAKE_TOKEN]) {
                out.push(Event {
                    token,
                    readable: true,
                    writable: true,
                    closed: false,
                });
            }
            Ok(())
        }
    }
}

pub use imp::{Poller, Waker};

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Poller")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_listener_and_stream_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let poller = Poller::new().expect("poller");
        poller.register(listener.as_raw_fd(), 7).expect("register");

        // Idle wait times out with no events (linux); the fallback
        // may report spurious readiness, which accept() tolerates.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(5))
            .expect("wait");

        let mut client = TcpStream::connect(addr).expect("connect");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            poller
                .wait(&mut events, Duration::from_millis(50))
                .expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                if let Ok((s, _)) = listener.accept() {
                    break s;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no accept readiness within 5s"
            );
        };
        accepted.set_nonblocking(true).expect("nonblocking");
        poller.register(accepted.as_raw_fd(), 9).expect("register");

        client.write_all(b"ping").expect("write");
        let got = loop {
            poller
                .wait(&mut events, Duration::from_millis(50))
                .expect("wait");
            if events.iter().any(|e| e.token == 9 && e.readable) {
                let mut buf = [0u8; 8];
                let mut s = &accepted;
                match s.read(&mut buf) {
                    Ok(n) => break buf[..n].to_vec(),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                    Err(e) => panic!("read: {e}"),
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no read readiness within 5s"
            );
        };
        assert_eq!(got, b"ping");
        poller.deregister(accepted.as_raw_fd());
    }

    fn wake_events(events: &[Event]) -> usize {
        events.iter().filter(|e| e.token == WAKE_TOKEN).count()
    }

    #[test]
    fn a_wake_ends_a_blocked_wait() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let (blocking, blocked) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut events = Vec::new();
            blocking.send(()).expect("main thread is listening");
            let started = std::time::Instant::now();
            poller
                .wait(&mut events, Duration::from_secs(10))
                .expect("wait");
            (wake_events(&events), started.elapsed())
        });
        // Whether the wake lands before or during the wait, the wait
        // must end on it and not on its 10 s timeout.
        blocked.recv().expect("waiter started");
        waker.wake();
        let (wakes, waited) = waiter.join().expect("waiter");
        assert_eq!(wakes, 1);
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    }

    // The fallback poller reports the wake token on every wait.
    #[cfg(target_os = "linux")]
    #[test]
    fn wakes_before_a_wait_coalesce_and_are_drained_by_it() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        for _ in 0..5 {
            waker.clone().wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_secs(10))
            .expect("wait");
        assert_eq!(wake_events(&events), 1);
        poller
            .wait(&mut events, Duration::from_millis(5))
            .expect("wait");
        assert!(events.is_empty(), "drained, yet got {events:?}");
    }

    #[test]
    fn the_wake_token_cannot_be_registered() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let poller = Poller::new().expect("poller");
        let err = poller
            .register(listener.as_raw_fd(), WAKE_TOKEN)
            .expect_err("reserved token");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
