//! Dropping a [`UdpTransport`](totem_transport::UdpTransport) stops
//! and joins its network threads.
//!
//! A binary of its own with one test: it reads the process's thread
//! list, which any other test holding a transport would share.

use std::time::{Duration, Instant};

use totem_transport::UdpTopology;

/// `PF_EXITING` in the `flags` field of `/proc/<tid>/stat`: the thread
/// is inside `do_exit`. `join` returns once an exiting thread has let
/// go of its memory, which is a moment before the kernel takes it off
/// the task list, so a joined thread may still be listed — but only
/// with this flag set.
const PF_EXITING: u64 = 0x4;

/// Names of the `totem-udp-*` threads that are listed and not exiting.
fn live_network_threads() -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("thread list").flatten() {
        // A thread that goes away between the listing and a read is
        // gone, which is the answer.
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else { continue };
        let Some((head, tail)) = stat.rsplit_once(") ") else { continue };
        let name = head.split_once('(').map_or("", |(_, name)| name);
        // After the name: state ppid pgrp session tty tpgid flags ...
        let flags: u64 = tail.split(' ').nth(6).and_then(|f| f.parse().ok()).unwrap_or(0);
        if name.starts_with("totem-udp-") && flags & PF_EXITING == 0 {
            names.push(name.to_owned());
        }
    }
    names.sort();
    names
}

/// The benchmark builds four clusters per process and counts the
/// `totem-udp-*` threads it finds, so a dropped transport's threads
/// must be done when `drop` returns, not some read timeout later.
#[test]
fn dropped_transports_leave_no_network_thread_behind() {
    let transports = UdpTopology::bind_ephemeral(3, 2).expect("bind").into_transports().unwrap();
    // A thread names itself as it starts, which may be after `spawn`
    // has returned.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_network_threads().len() < 6 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let per_net = |net: &str| vec![format!("totem-udp-{net}"); 3];
    assert_eq!(
        live_network_threads(),
        [per_net("net0"), per_net("net1")].concat(),
        "one thread per socket while the transports live"
    );

    drop(transports);
    assert_eq!(live_network_threads(), Vec::<String>::new(), "all joined when drop returns");
}
