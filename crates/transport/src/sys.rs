//! Audited socket shim: the few calls the UDP transport makes that the
//! standard library does not offer.
//!
//! This is the one module in the workspace allowed to use `unsafe`:
//! the crate is `deny(unsafe_code)` and this file opts back in with a
//! single audited `allow`. The unsafe surface is four `extern "C"`
//! declarations against the C library the standard library already
//! links — `ppoll`, `sendmsg`, `recvmsg`, `setsockopt` — the kernel
//! structures they take, laid out to the kernel ABI with every size
//! pinned by a `const` assert, and one call site each. No other module
//! sees a raw pointer.
//!
//! Why each exists:
//!
//! * [`wait`] (`ppoll(2)`): the driver thread waits for its sockets and
//!   its next protocol deadline in the same call, and that deadline is
//!   often the 200 µs idle-token hold. The standard library offers no
//!   wait on several sockets, and `poll(2)` counts in milliseconds —
//!   rounding 200 µs up to 1 ms would pace an idle ring five times
//!   slower. `ppoll` takes a `timespec`.
//! * [`send_segments`] (`sendmsg(2)` with a `UDP_SEGMENT` control
//!   message, Linux ≥ 4.18): a *segment train* — consecutive datagrams
//!   of one size for one peer — leaves as one buffer that the kernel
//!   cuts into datagrams. On loopback the train crosses the stack as one
//!   packet, and what a datagram costs there is its packet, not its
//!   syscall entry.
//! * [`recv_segments`] (`recvmsg(2)`) and [`enable_gro`]
//!   (`setsockopt(2)`, `UDP_GRO`, Linux ≥ 5.0): a socket that asked for
//!   it receives such a train whole, with the segment size in a control
//!   message, so the receiver splits it instead of the kernel.
//!
//! The transport is Linux-only: every one of these calls, and every
//! structure layout below, is Linux's.

#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "totem-transport requires Linux: its socket shim calls ppoll(2) and sends and receives \
     UDP segment trains (UDP_SEGMENT, UDP_GRO)"
);

use std::ffi::{c_int, c_long, c_uint, c_ulong, c_void};
use std::io::{self, IoSlice, IoSliceMut};
use std::mem::offset_of;
use std::net::{SocketAddr, UdpSocket};
use std::num::NonZeroUsize;
use std::os::fd::AsRawFd;
use std::ptr;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const SOL_UDP: c_int = 17;
const UDP_SEGMENT: c_int = 103;
const UDP_GRO: c_int = 104;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const WORD: usize = size_of::<usize>();

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

/// `struct timespec` (`time_t` is `long` on every Linux ABI the
/// plain `ppoll` symbol serves).
#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

/// `struct msghdr` as the kernel reads it (`struct user_msghdr`):
/// both lengths are `size_t`, which every C library's layout
/// matches or pads to.
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: c_uint,
    /// `struct iovec *`: `IoSlice` and `IoSliceMut` are guaranteed
    /// to be ABI-compatible with `iovec` on unix.
    iov: *mut c_void,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

/// `struct cmsghdr`.
#[repr(C)]
struct CmsgHdr {
    len: usize,
    level: c_int,
    ty: c_int,
}

/// Room for one control message whose data is at most a word:
/// `CMSG_SPACE(sizeof(int))`, with the data at `CMSG_DATA`.
#[repr(C)]
struct Control {
    hdr: CmsgHdr,
    data: [u8; WORD],
}

/// `struct sockaddr_in`.
#[repr(C)]
#[derive(Clone, Copy)]
struct SockaddrIn {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6`.
#[repr(C)]
#[derive(Clone, Copy)]
struct SockaddrIn6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// A destination in either family; the length passed beside it
/// says which.
#[repr(C)]
union RawAddr {
    v4: SockaddrIn,
    v6: SockaddrIn6,
}

// The layouts above, pinned to the kernel ABI on 32- and 64-bit
// targets alike.
const _: () = {
    assert!(size_of::<MsgHdr>() == 7 * WORD);
    assert!(offset_of!(MsgHdr, iovlen) == 3 * WORD);
    assert!(offset_of!(MsgHdr, controllen) == 5 * WORD);
    assert!(size_of::<CmsgHdr>() == WORD + 2 * size_of::<c_int>());
    assert!(offset_of!(Control, data) == size_of::<CmsgHdr>());
    assert!(size_of::<Control>() == size_of::<CmsgHdr>() + WORD);
    assert!(size_of::<SockaddrIn>() == 16);
    assert!(size_of::<SockaddrIn6>() == 28);
    assert!(offset_of!(SockaddrIn6, addr) == 8);
    assert!(size_of::<IoSlice<'static>>() == 2 * WORD);
};

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: c_uint)
        -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` has passed;
/// returns whether any is ready. The descriptors must stay open for
/// the call, which holding the sockets they were built from
/// guarantees.
///
/// # Errors
///
/// Returns the OS error, `Interrupted` included (the caller knows
/// how much of its wait is left).
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<bool> {
    let timeout = Timespec {
        sec: timeout.as_secs().min(i32::MAX as u64) as c_long,
        nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of exactly
    // `fds.len()` initialized `pollfd`s, the only memory the kernel
    // writes (their `revents`); the timeout is a local that outlives
    // the call; a null signal mask leaves the mask alone.
    let ready = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &timeout, ptr::null()) };
    if ready < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ready > 0)
}

/// Sends `segments` to `to` as one segment train: one `sendmsg`
/// whose buffer the kernel cuts into one datagram per segment, at
/// the first segment's length. Every segment but the last must be
/// as long as the first and the last no longer — the kernel cuts
/// where the size says, not where the iovecs end. Returns how many
/// segments went: all of them, since the kernel takes a train
/// whole or not at all.
///
/// # Errors
///
/// `WouldBlock` when the socket is full; anything else is the
/// kernel refusing the train (no checksum offload on the route, a
/// segment above the path MTU, more segments than
/// `UDP_MAX_SEGMENTS`), or `InvalidInput` for a first segment
/// that is empty or longer than 65,535 bytes.
pub fn send_segments(
    socket: &UdpSocket,
    to: SocketAddr,
    segments: &[IoSlice<'_>],
) -> io::Result<usize> {
    let Some(first) = segments.first() else { return Ok(0) };
    let size = u16::try_from(first.len())
        .ok()
        .filter(|size| *size > 0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "segment size"))?;
    let (addr, addrlen) = raw_addr(to);
    let mut control = Control {
        hdr: CmsgHdr { len: size_of::<CmsgHdr>() + 2, level: SOL_UDP, ty: UDP_SEGMENT },
        data: [0; WORD],
    };
    control.data[..2].copy_from_slice(&size.to_ne_bytes());
    let msg = MsgHdr {
        name: ptr::from_ref(&addr).cast_mut().cast(),
        namelen: addrlen,
        iov: segments.as_ptr().cast_mut().cast(),
        iovlen: segments.len(),
        control: ptr::from_mut(&mut control).cast(),
        controllen: size_of::<Control>(),
        flags: 0,
    };
    // SAFETY: every pointer in `msg` is to memory that outlives the
    // call and holds what its length says: `addrlen` initialized
    // bytes of a `sockaddr_in`/`sockaddr_in6`; `segments.len()`
    // `IoSlice`s, ABI-compatible `iovec`s each over a live borrowed
    // buffer; one `cmsghdr` whose `cmsg_len` covers its header and
    // the `u16` behind it at `CMSG_DATA`, inside the
    // `msg_controllen` bytes of `control`. `sendmsg` only reads
    // through them, so the casts to `*mut` grant nothing.
    let sent = unsafe { sendmsg(socket.as_raw_fd(), &msg, 0) };
    if sent < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(segments.len())
}

/// Reads one datagram into `buf`, returning its length and — when
/// the kernel delivered a train whole to a socket that asked for it
/// ([`enable_gro`]) — the train's segment size: every segment but
/// the last is that long, and the last no longer. A datagram longer
/// than `buf` is cut short, as `recv` does.
///
/// # Errors
///
/// `WouldBlock` when the socket is dry, or the OS error.
pub fn recv_segments(
    socket: &UdpSocket,
    buf: &mut [u8],
) -> io::Result<(usize, Option<NonZeroUsize>)> {
    let mut iov = IoSliceMut::new(buf);
    let mut control = Control { hdr: CmsgHdr { len: 0, level: 0, ty: 0 }, data: [0; WORD] };
    let mut msg = MsgHdr {
        name: ptr::null_mut(),
        namelen: 0,
        iov: ptr::from_mut(&mut iov).cast(),
        iovlen: 1,
        control: ptr::from_mut(&mut control).cast(),
        controllen: size_of::<Control>(),
        flags: 0,
    };
    // SAFETY: every pointer in `msg` is to memory that outlives the
    // call and is exclusively borrowed for it: one `IoSliceMut`, an
    // ABI-compatible `iovec` over all of `buf`, where the kernel
    // writes at most `buf.len()` datagram bytes; `control`, where it
    // writes at most `msg_controllen` bytes of control messages; and
    // `msg` itself, whose lengths and flags it writes back. No
    // address is asked for (null name, zero length).
    let len = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, 0) };
    if len < 0 {
        return Err(io::Error::last_os_error());
    }
    let [a, b, c, d, ..] = control.data;
    let segment = (msg.controllen >= size_of::<CmsgHdr>() + size_of::<c_int>()
        && control.hdr.level == SOL_UDP
        && control.hdr.ty == UDP_GRO)
        .then(|| c_int::from_ne_bytes([a, b, c, d]))
        .and_then(|size| usize::try_from(size).ok())
        .and_then(NonZeroUsize::new);
    Ok((len as usize, segment))
}

/// Asks the kernel to deliver segment trains whole (`UDP_GRO`).
///
/// # Errors
///
/// The OS error, e.g. on a kernel older than 5.0 — which then
/// splits every train into its datagrams before they are read.
pub fn enable_gro(socket: &UdpSocket) -> io::Result<()> {
    let on: c_int = 1;
    // SAFETY: the value is a live `int` and the length passed is its
    // size; `setsockopt` only reads it.
    let set = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_UDP,
            UDP_GRO,
            ptr::from_ref(&on).cast(),
            size_of::<c_int>() as c_uint,
        )
    };
    if set < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// `to` as the kernel takes it, with its length.
fn raw_addr(to: SocketAddr) -> (RawAddr, c_uint) {
    // Field for field what the standard library's `send_to` passes.
    match to {
        SocketAddr::V4(to) => {
            let v4 = SockaddrIn {
                family: AF_INET,
                port: to.port().to_be_bytes(),
                addr: to.ip().octets(),
                zero: [0; 8],
            };
            (RawAddr { v4 }, size_of::<SockaddrIn>() as c_uint)
        }
        SocketAddr::V6(to) => {
            let v6 = SockaddrIn6 {
                family: AF_INET6,
                port: to.port().to_be_bytes(),
                flowinfo: to.flowinfo(),
                addr: to.ip().octets(),
                scope_id: to.scope_id(),
            };
            (RawAddr { v6 }, size_of::<SockaddrIn6>() as c_uint)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::IoSlice;
    use std::time::{Duration, Instant};

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

    /// A train sent to a socket with `UDP_GRO` is read back as its
    /// segments, whether the kernel kept it whole (a segment size
    /// comes back) or split it (one datagram per read).
    #[test]
    fn a_train_reads_back_as_its_segments() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let _ = enable_gro(&b);
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let frames: [&[u8]; 3] = [b"abcd", b"efgh", b"ij"];
        let iov = frames.map(IoSlice::new);
        assert_eq!(send_segments(&a, b.local_addr().unwrap(), &iov).unwrap(), 3);
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        while got.len() < 3 {
            let (len, segment) = recv_segments(&b, &mut buf).unwrap();
            let size = segment.map_or(len, |size| size.get());
            got.extend(buf[..len].chunks(size).map(<[u8]>::to_vec));
        }
        assert_eq!(got, frames.map(<[u8]>::to_vec));
    }
}
