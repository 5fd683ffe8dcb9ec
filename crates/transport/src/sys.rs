//! Audited `ppoll(2)` shim: wait on a few sockets with a timeout finer
//! than a millisecond.
//!
//! This is the one module in the workspace allowed to use `unsafe`:
//! the crate is `deny(unsafe_code)` and this file opts back in with a
//! single audited `allow`. The unsafe surface is one `extern "C"`
//! declaration against the C library the standard library already
//! links, and its one call site. No other module sees a raw pointer.
//!
//! Why it exists: the driver thread waits for its sockets and its next
//! protocol deadline in the same call, and that deadline is often the
//! 200 µs idle-token hold. The standard library offers no wait on
//! several sockets, and `poll(2)` counts in milliseconds — rounding
//! 200 µs up to 1 ms would pace an idle ring five times slower.
//! `ppoll` takes a `timespec`. Unix platforms without it fall back to
//! `poll` with the timeout rounded up, the module's only `cfg` split.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// `struct pollfd` (POSIX; the same layout on every unix).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits for `socket` to have a datagram to read.
    pub fn readable(socket: &UdpSocket) -> Self {
        PollFd { fd: socket.as_raw_fd(), events: POLLIN, revents: 0 }
    }

    /// Waits for `socket` to accept a datagram to send.
    pub fn writable(socket: &UdpSocket) -> Self {
        PollFd { fd: socket.as_raw_fd(), events: POLLOUT, revents: 0 }
    }
}

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::{c_int, c_long, c_ulong, c_void};

    /// `struct timespec` (`time_t` is `long` on every Linux ABI the
    /// plain `ppoll` symbol serves).
    #[repr(C)]
    pub struct Timespec {
        pub sec: c_long,
        pub nsec: c_long,
    }

    extern "C" {
        pub fn ppoll(
            fds: *mut super::PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

#[cfg(not(target_os = "linux"))]
mod ffi {
    use std::ffi::{c_int, c_uint};

    extern "C" {
        pub fn poll(fds: *mut super::PollFd, nfds: c_uint, timeout_ms: c_int) -> c_int;
    }
}

/// Blocks until one of `fds` is ready or `timeout` has passed; returns
/// whether any is ready. The descriptors must stay open for the call,
/// which holding the sockets they were built from guarantees.
///
/// # Errors
///
/// Returns the OS error, `Interrupted` included (the caller knows how
/// much of its wait is left).
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<bool> {
    // SAFETY: `fds` is a live, exclusively borrowed array of exactly
    // `fds.len()` initialized `pollfd`s, the only memory the kernel
    // writes (their `revents`); the timeout is a local that outlives
    // the call; a null signal mask leaves the mask alone.
    #[cfg(target_os = "linux")]
    let ready = unsafe {
        let timeout = ffi::Timespec {
            sec: timeout.as_secs().min(i32::MAX as u64) as _,
            nsec: timeout.subsec_nanos() as _,
        };
        ffi::ppoll(fds.as_mut_ptr(), fds.len() as _, &timeout, std::ptr::null())
    };
    // SAFETY: as above, with the timeout passed by value.
    #[cfg(not(target_os = "linux"))]
    let ready = unsafe {
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128);
        ffi::poll(fds.as_mut_ptr(), fds.len() as _, ms as c_int)
    };
    if ready < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ready > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn an_idle_socket_times_out_and_a_loaded_one_is_ready() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::readable(&a), PollFd::readable(&b)];

        let started = Instant::now();
        assert!(!wait(&mut fds, Duration::from_micros(300)).unwrap());
        assert!(started.elapsed() >= Duration::from_micros(300), "never early");

        a.send_to(b"x", b.local_addr().unwrap()).unwrap();
        assert!(wait(&mut fds, Duration::from_secs(2)).unwrap());
        // A socket with room in its send buffer is writable at once.
        assert!(wait(&mut [PollFd::writable(&a)], Duration::ZERO).unwrap());
    }
}
